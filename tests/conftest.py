import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from bdpants import PantsParams, linalg
from bdpants.cli import main
from bdpants.pants import eigenvalues


@pytest.fixture
def sample_params():
    """The worked parameter triple (all boundary lengths 2*ln 2)."""
    return PantsParams(Fraction(2), Fraction(1), Fraction(1, 2))


@pytest.fixture
def rng():
    return random.Random(20240)


def run_cli(capsys, argv):
    """Exit code, stdout and stderr of one in-process CLI call."""
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def leibniz_det(rows):
    """Sum-over-permutations determinant: the independent oracle for the
    elimination-based kernel (fine for n <= 6)."""
    n = len(rows)
    total = 0 * rows[0][0]
    for perm in permutations(range(n)):
        term = perm_sign(perm)
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def compositions(total, parts):
    """All ways to write total = n_1 + ... + n_parts with n_i >= 0."""
    for bars in combinations(range(total + parts - 1), parts - 1):
        prev = -1
        comp = []
        for b in bars:
            comp.append(b - prev - 1)
            prev = b
        comp.append(total + parts - 2 - prev)
        yield comp


def brute_is_generic(flags):
    """Genericity by one Leibniz determinant per composition of n: the
    independent oracle for the prefix walk of `is_generic`."""
    n = flags[0].dim
    for comp in compositions(n, len(flags)):
        rows = [v for f, ni in zip(flags, comp) for v in f.prefix(ni)]
        if leibniz_det(rows) == 0:
            return False
    return True


def mat_mul(a, b):
    """Product of two matrices (lists of rows)."""
    inner = len(b)
    if any(len(row) != inner for row in a):
        raise ValueError("incompatible shapes")
    ncols = len(b[0])
    return [
        [sum(row[k] * b[k][j] for k in range(inner)) for j in range(ncols)]
        for row in a
    ]


def sym_eigenvalues(m, n):
    """Eigenvalues lam^{n-1}, lam^{n-3}, ..., lam^{1-n} of the symmetric
    power of a hyperbolic element, in decreasing order."""
    lam = abs(eigenvalues(m)[0])
    return [lam ** (n - 1 - 2 * k) for k in range(n)]


def binomials(m, shift, nrows, ncols):
    """The Toeplitz matrix with entries C(m, shift + r - j), 0 for a
    negative lower index."""
    return [[math.comb(m, shift + r - j) if shift + r - j >= 0 else 0
             for j in range(ncols)] for r in range(nrows)]


def det_y(leaf, n, line, i):
    """Y(i) of a leaf as a binomial Toeplitz block bordered by a slice of
    the line of its point: the determinant that `sum_y` writes out, equal
    to it and to `monomial_y` up to a factor of (leaf, n, i)."""
    m, shift, size, start = {
        "h_AB": (0, 0, 1, i),
        "h_BC": (i + 1, 0, n - i, 0),
        "h_CA": (n - i, n - i - 1, i + 1, n - i - 1),
    }[leaf]
    rows = binomials(m, shift, size, size - 1)
    for row, entry in zip(rows, line[start:]):
        row.append(entry)
    return linalg.det(rows)


def det_x(a, b, c):
    """MacMahon's plane-partition count for an a x b x c box as a
    Toeplitz binomial determinant (the reference for `macmahon_x`)."""
    return linalg.det(binomials(a + c, a, b, b))


def leaf_points(params):
    """The third and fourth vertex of each leaf's quadruple, as integer
    pairs (u, v) for [u : v]: Y is taken at the third, Y' at the fourth."""
    bg = params.beta * params.gamma
    return {
        "h_AB": ((-bg).as_integer_ratio(), (1, 1)),
        "h_BC": ((params.beta / (params.beta + params.gamma)).as_integer_ratio(), (1, 0)),
        "h_CA": ((params.alpha * params.alpha * bg + 1).as_integer_ratio(), (0, 1)),
    }


def monomial_y(leaf, n, point, i):
    """Y(i) of a leaf at the integer point [u : v], up to a factor of
    (leaf, n, i) shared with Y'(i): one monomial of degree n-1,

        h_AB:  C(n-1, i) u^(n-1-i) v^i
        h_BC:  C(n-1, i) u^i (v-u)^(n-1-i)
        h_CA:  (-1)^i C(n-1, i) v^(n-1-i) (v-u)^i

    the one term left of the bordered binomial determinant `det_y`
    behind the generic factor.  Y is taken at the leaf's third vertex
    and Y' at its fourth (`leaf_points`).  In every double ratio the
    binomials and signs cancel, leaving the paper's parametrization
    1/(beta gamma), beta/gamma and alpha^2 beta gamma.
    """
    u, v = point
    if leaf == "h_AB":
        return math.comb(n - 1, i) * u ** (n - 1 - i) * v ** i
    if leaf == "h_BC":
        return math.comb(n - 1, i) * u ** i * (v - u) ** (n - 1 - i)
    return (-1) ** i * math.comb(n - 1, i) * v ** (n - 1 - i) * (v - u) ** i


def line_coefficients(n, point):
    """Coefficients of (uX + vY)^(n-1) for a point [u : v] of integers."""
    u, v = point
    return [math.comb(n - 1, k) * u ** (n - 1 - k) * v ** k for k in range(n)]


def sum_y(leaf, n, line, i):
    """Y(i) of a leaf at the point with the given line, as the alternating
    sum its bordered determinant `det_y` evaluates to, up to a factor of
    (leaf, n, i) shared with Y'(i); `monomial_y` is its one-term collapse
    (Chu-Vandermonde) and equals it exactly.

    The determinant of an s x (s-1) binomial block C(m, r - j) bordered
    by a slice w of the line is w paired with the block's left null
    vector, the coefficients of (1 + t)^(-m); the slices here are listed
    from w[s-1] down to w[0].
    """
    if leaf == "h_AB":
        return line[i]
    if leaf == "h_BC":
        m, w = i + 1, line[n - i - 1::-1]
    else:
        # the block of h_CA, C(n-i, n-i-1 + r - j), is C(n-i, r - j)
        # with its rows and columns reversed
        m, w = n - i, line[n - i - 1:]
    return sum((-1) ** k * math.comb(m + k - 1, k) * x for k, x in enumerate(w))


def superfactorials(n):
    """g[k] = 0! 1! ... (k-1)! for k = 0, ..., n."""
    return [math.prod(math.factorial(j) for j in range(k)) for k in range(n + 1)]


def macmahon_x(g, a, b, c):
    """MacMahon's number of plane partitions in an a x b x c box,
    G(a) G(b) G(c) G(a+b+c) / (G(a+b) G(b+c) G(c+a)) with the
    superfactorials g[k] = G(k): the triangle factor, up to a sign and a
    power of beta*gamma.  A factor of the form f(a) g(b) h(c) cancels in
    every triple ratio, and once a + b + c = n this count is such a
    factor, G(n) h(a) h(b) h(c) with h(k) = G(k) / G(n-k): so every
    triangle invariant is 1."""
    return g[a] * g[b] * g[c] * g[a + b + c] // (g[a + b] * g[b + c] * g[c + a])
