"""intlattice.hnf_rows checked against sympy's Hermite normal form.

sympy is a test-only oracle: the module is skipped when it is not installed.
sympy's form is column-style with pivots at the bottom right, so the matrix
is turned half way round (columns reversed, transposed) before the call and
back after it; its zero columns are dropped, so rank-deficient inputs need no
special case.
"""

import random

import pytest

normalforms = pytest.importorskip("sympy.matrices.normalforms")
from sympy import Matrix  # noqa: E402

from houghton_kit.intlattice import hnf_rows  # noqa: E402


def sympy_hnf_rows(rows):
    h = normalforms.hermite_normal_form(Matrix([r[::-1] for r in rows]).T).T
    out = [tuple(h.row(i))[::-1] for i in reversed(range(h.rows))]
    return [tuple(int(x) for x in r) for r in out if any(r)]


def random_matrix(rng):
    m, cols = rng.randint(1, 5), rng.randint(1, 5)
    rows = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(m)]
    if m > 1 and rng.random() < 0.3:
        # a combination of the others, so the rank drops
        rows[-1] = [2 * a - b for a, b in zip(rows[0], rows[1])]
    return rows, cols


@pytest.mark.parametrize("chunk", range(4))
def test_hnf_rows_matches_sympy(chunk):
    rng = random.Random(500 + chunk)
    for _ in range(500):
        rows, cols = random_matrix(rng)
        assert hnf_rows(rows, cols) == sympy_hnf_rows(rows), rows
