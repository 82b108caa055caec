"""Flags in R^n and their projective invariants.

A flag is a full chain of nested subspaces, stored here as an ordered
basis (v_1, ..., v_n): the i-dimensional piece is the span of the first
i vectors.  Coordinates are taken against the fixed monomial basis
b_1 = X^{n-1}, b_2 = X^{n-2}Y, ..., b_n = Y^{n-1}, and the top wedge
b_1 ^ ... ^ b_n is identified with 1, so a wedge of n vectors is just
the determinant of their coordinate matrix, taken with the vectors as
rows (a matrix and its transpose have the same determinant).  A
`Flag` clears each basis vector's denominators once, when it is built,
so every wedge is a determinant of integers.

Triple ratios and double ratios are alternating products of such wedge
determinants over prefix bases of the flags involved.  Both are
projective invariants: rescaling any basis vector, or moving all flags
by one invertible matrix, leaves them unchanged.  They are returned
*exponentiated* (the conventional invariant is their log) so
independently computed values can be compared exactly.

Each ratio formula is written once, over factor functions: X(a, b, c)
for the triple ratio, Y(i) and Y'(i) for the double ratio.  The
`*_ratios_exp` functions read wedges of flag prefixes from one table
per flag triple, which `_wedges` fills in one walk of the prefixes with
one pivot list, signing each wedge as `linalg.det` does; a prefix that
several wedges share is reduced once.  Y(i) is X(i, n - i - 1, 1).
The tests pass reference factors (MacMahon's plane-partition count, one
monomial per shearing factor) to the same formulas, which proves the
closed form of `bdpants.coords`; that closed form uses none of them.

Genericity of a flag tuple means every dimension-compatible choice of
prefixes spans: for each way of writing n = n_1 + ... + n_k with
n_i >= 0, the first n_1 vectors of the first flag, the first n_2 of the
second, and so on, are linearly independent.  These choices form a
prefix tree, which `is_generic` walks depth first with one pivot list,
pushing one vector per step (`linalg._push`) and stopping at the first
dependent partial choice.  The ratio operations only check the
products they divide by.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from . import linalg


class DegenerateFlagsError(ArithmeticError):
    """A wedge determinant that an invariant divides by vanished."""


def _cleared(v) -> tuple:
    """The rational vector v times the LCM of its denominators, as ints."""
    # a list: unpacking a generator grows its tuple by resizing
    d = math.lcm(*[x.denominator for x in v])
    return tuple(x.numerator * (d // x.denominator) for x in v)


class Flag:
    """An ordered basis of R^n; prefix spans are the flag subspaces.
    Each vector is stored cleared of denominators, which no invariant sees."""

    __slots__ = ("basis",)

    def __init__(self, basis):
        basis = tuple(_cleared(v) for v in basis)
        n = len(basis)
        if n == 0 or any(len(v) != n for v in basis):
            raise ValueError("flag basis must be n vectors of dimension n")
        if linalg.det(basis) == 0:
            raise ValueError("flag basis is not linearly independent")
        self.basis = basis

    @property
    def dim(self) -> int:
        return len(self.basis)

    def prefix(self, i: int):
        """The first i basis vectors (a basis of the i-dimensional piece)."""
        return self.basis[:i]

    def __repr__(self):
        return f"Flag({list(self.basis)!r})"


def apply_matrix(m, flag: Flag) -> Flag:
    """Image flag under an invertible matrix (basis mapped vector-wise)."""
    return Flag([linalg.mat_vec(m, v) for v in flag.basis])


def flags_equal(f: Flag, g: Flag) -> bool:
    """Subspace-wise equality, by one elimination: after the first i
    vectors of f are pushed, the i-th vector of g must reduce to zero."""
    if f.dim != g.dim:
        return False
    pivots = []
    for u, v in zip(f.basis[:-1], g.basis[:-1]):
        linalg._push(pivots, u)
        if linalg._push(pivots, v):
            return False
    return True


def _spans(flags, k: int, need: int, pivots: list) -> bool:
    """Whether the pivot rows and every choice of prefixes of flags[k:],
    need vectors in all, span R^n; on True the pivots are as found."""
    basis = flags[k].basis
    base = len(pivots)
    if k == len(flags) - 1:
        for v in basis[:need]:
            if not linalg._push(pivots, v):
                return False
    else:
        if not _spans(flags, k + 1, need, pivots):
            return False
        for m, v in enumerate(basis[:need], 1):
            if not (linalg._push(pivots, v) and _spans(flags, k + 1, need - m, pivots)):
                return False
    del pivots[base:]
    return True


def is_generic(flags) -> bool:
    """Whether every dimension-compatible prefix combination spans R^n."""
    flags = list(flags)
    if not flags:
        raise ValueError("need at least one flag")
    n = flags[0].dim
    if any(f.dim != n for f in flags):
        raise ValueError("flags have mismatched dimensions")
    return _spans(flags, 0, n, [])


def _wedges(e: Flag, f: Flag, g: Flag, most: int) -> dict:
    """X(a, b, c) for every a + b + c = n with c <= most: the wedge of
    the a-, b- and c-prefixes of the three flags.  A choice whose
    vectors are dependent is left out; its wedge is 0."""
    n = e.dim
    table = {}
    pivots = []
    # running sums of the pivot places: their parity signs a wedge
    sum_a = 0
    for a in range(n + 1):
        top_a, sum_b = len(pivots), sum_a
        for b in range(n - a + 1):
            c = n - a - b
            if c <= most:
                top_b, sum_c = len(pivots), sum_b
                for v in g.basis[:c]:
                    if not linalg._push(pivots, v):
                        break
                    sum_c += pivots[-1][0]
                else:
                    minor = pivots[-1][1]
                    table[(a, b, c)] = -minor if sum_c % 2 else minor
                del pivots[top_b:]
            if c == 0 or not linalg._push(pivots, f.basis[b]):
                break
            sum_b += pivots[-1][0]
        del pivots[top_a:]
        if a == n or not linalg._push(pivots, e.basis[a]):
            break
        sum_a += pivots[-1][0]
    return table


def _triple_ratios(x, n: int, triples) -> dict:
    """The (p,q,r)-th triple ratios for rank n,

        X(p+1,q,r-1)   X(p,q-1,r+1)   X(p-1,q+1,r)
        ------------ * ------------ * ------------
        X(p-1,q,r+1)   X(p,q+1,r-1)   X(p+1,q-1,r)

    with X given by the factor function x(a, b, c), which is called
    once per distinct (a, b, c).
    """
    X = cache(x)
    out = {}
    for (p, q, r) in triples:
        if p < 1 or q < 1 or r < 1 or p + q + r != n:
            raise ValueError(f"invalid index triple ({p},{q},{r}) for n={n}")
        den = X(p - 1, q, r + 1) * X(p, q + 1, r - 1) * X(p + 1, q - 1, r)
        if den == 0:
            raise DegenerateFlagsError("degenerate flags")
        num = X(p + 1, q, r - 1) * X(p, q - 1, r + 1) * X(p - 1, q + 1, r)
        out[(p, q, r)] = Fraction(num, den)
    return out


def _double_ratios(y, yprime, n: int, ps) -> list:
    """The p-th double ratios for rank n,

        D_p = - (Y(p) / Y'(p)) * (Y'(p-1) / Y(p-1)),

    with Y and Y' given by the factor functions y(i) and yprime(i),
    each called once per distinct i.
    """
    ps = list(ps)
    if any(p < 1 or p > n - 1 for p in ps):
        raise ValueError("p out of range")
    needed = sorted({i for p in ps for i in (p, p - 1)})
    yv = {i: y(i) for i in needed}
    y2 = {i: yprime(i) for i in needed}
    out = []
    for p in ps:
        den = y2[p] * yv[p - 1]
        if den == 0:
            raise DegenerateFlagsError("degenerate flags")
        out.append(Fraction(-(yv[p] * y2[p - 1]), den))
    return out


def triple_ratios_exp(e: Flag, f: Flag, g: Flag, triples) -> dict:
    """Triple ratios of a generic flag triple for many (p,q,r) at once:
    X(a,b,c) wedges the a-, b- and c-prefixes of the three flags."""
    x = _wedges(e, f, g, e.dim)
    return _triple_ratios(lambda *abc: x.get(abc, 0), e.dim, triples)


def double_ratios_exp(e: Flag, f: Flag, g: Flag, g2: Flag, ps) -> list:
    """Double ratios of a generic flag quadruple for several p at once:
    Y(i) wedges the i-prefix of the first flag, the (n-i-1)-prefix of
    the second and the line of the third, and Y'(i) the same with the
    fourth flag's line."""
    n = e.dim
    y, y2 = _wedges(e, f, g, 1), _wedges(e, f, g2, 1)
    return _double_ratios(lambda i: y.get((i, n - i - 1, 1), 0),
                          lambda i: y2.get((i, n - i - 1, 1), 0), n, ps)
