"""intlattice checked against sympy's Hermite and Smith normal forms.

sympy is a test-only oracle: the module is skipped when it is not installed.
sympy's Hermite form is column-style with pivots at the bottom right, so the
matrix is turned half way round (columns reversed, transposed) before the
call and back after it; its zero columns are dropped, so rank-deficient
inputs need no special case.  A lattice's index and congruence exponent,
read from its diagonal form, are the product and the largest of the
invariant factors of its generating vectors with the last entry dropped.
"""

import random

import pytest

normalforms = pytest.importorskip("sympy.matrices.normalforms")
from sympy import Matrix  # noqa: E402

from houghton_kit.intlattice import hnf_rows  # noqa: E402
from houghton_kit.subgroups import TranslationLattice, congruence_exponent  # noqa: E402


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


def test_diagonal_form_matches_sympy_invariant_factors():
    rng = random.Random(600)
    checked = 0
    while checked < 300:
        n = rng.randint(3, 7)
        vecs = []
        for _ in range(rng.randint(n - 1, n + 1)):
            v = [rng.randint(-6, 6) for _ in range(n - 1)]
            vecs.append(v + [-sum(v)])
        lat = TranslationLattice.from_vectors(n, vecs)
        if lat.rank != n - 1:
            continue
        factors = [int(a) for a in normalforms.invariant_factors(Matrix([v[:-1] for v in vecs]))]
        index = 1
        for a in factors:
            index *= a
        assert lat.index_in_zero_sum() == index, vecs
        assert congruence_exponent(lat) == max(factors), vecs
        checked += 1
