import math
import random
from fractions import Fraction
from itertools import permutations

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
    """Y(i) of a leaf as the bordered determinant the closed form's sum
    evaluates: a binomial Toeplitz block bordered by a slice of the line
    (the reference for `coords._y`, equal to it up to a factor of
    (leaf, n, i))."""
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
    Toeplitz binomial determinant (the reference for `coords._x`)."""
    return linalg.det(binomials(a + c, a, b, b))
