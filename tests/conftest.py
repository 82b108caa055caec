import random
from fractions import Fraction
from itertools import permutations

import pytest

from bdpants import PantsParams
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
