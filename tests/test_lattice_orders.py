"""Lattice facts read off the Hermite basis, against the divisor scans.

The references are the scans the package used before it read these facts off
the basis: trial multiples over the divisors of the index, the truncated
basis put in Hermite form a second time, and a level test that builds one
zero-ray sublattice per ordered ray pair.  Membership in the references goes
through ``solve_row_combination``, so it shares no code with
``least_multiple_in_span``.
"""

import json
import random
from time import perf_counter

from houghton_kit import intlattice as la
from houghton_kit.bns import f_certificate, two_support_vector
from houghton_kit.cli import cli_main
from houghton_kit.subgroups import (
    LevelVerdict,
    TranslationLattice,
    _vector_with_projection,
    congruence_exponent,
    is_level,
)

LARGE_PRIME = 10_000_019


def divisors(n):
    """Positive divisors of n in increasing order."""
    small, big = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                big.append(n // d)
        d += 1
    return small + big[::-1]


def member(lattice, vec):
    return la.solve_row_combination(lattice.basis, vec) is not None


def ref_index(lattice):
    truncated = la.hnf_rows([row[:-1] for row in lattice.basis], lattice.n - 1)
    return la.lattice_determinant(truncated)


def ref_two_support_vector(lattice, i0, i1):
    for a in divisors(ref_index(lattice)):
        vec = [0] * lattice.n
        vec[i1 - 1], vec[i0 - 1] = a, -a
        if member(lattice, vec):
            return tuple(vec)
    raise AssertionError("the index multiple is always contained")


def ref_congruence_exponent(lattice):
    index = ref_index(lattice)
    basis_vectors = TranslationLattice.zero_sum(lattice.n).basis
    for m in divisors(index):
        if all(member(lattice, [m * x for x in v]) for v in basis_vectors):
            return m
    return index


def ref_is_level(lattice):
    n = lattice.n
    for j in range(1, n + 1):
        full = lattice.projection_gcd(j)
        for i in range(1, n + 1):
            if i == j:
                continue
            sub = lattice.projection_gcd(j, rows=lattice.rows_with_zero_at(i))
            if sub != full:
                return LevelVerdict(False, (i, j, _vector_with_projection(lattice, j, full)))
    return LevelVerdict(True)


def random_full_rank_lattices(seed, count, max_index=60):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(3, 5)
        vecs = []
        for _ in range(n - 1):
            v = [rng.randint(-3, 3) for _ in range(n - 1)]
            vecs.append(v + [-sum(v)])
        lat = TranslationLattice.from_vectors(n, vecs)
        if lat.rank == n - 1 and ref_index(lat) <= max_index:
            out.append(lat)
    return out


LATTICES = random_full_rank_lattices(29, 150)


def test_the_sample_holds_level_and_non_level_lattices():
    verdicts = [ref_is_level(lat).is_level for lat in LATTICES]
    assert sum(verdicts) >= 20 and verdicts.count(False) >= 20
    assert len({lat.n for lat in LATTICES}) == 3
    assert max(ref_index(lat) for lat in LATTICES) > 10


def test_lattice_facts_match_the_divisor_scans():
    for lat in LATTICES:
        n = lat.n
        assert lat.index_in_zero_sum() == ref_index(lat), lat
        assert congruence_exponent(lat) == ref_congruence_exponent(lat), lat
        assert is_level(lat) == ref_is_level(lat), lat
        for i0 in range(1, n + 1):
            for i1 in range(1, n + 1):
                if i0 != i1:
                    want = ref_two_support_vector(lat, i0, i1)
                    assert two_support_vector(lat, i0, i1) == want, (lat, i0, i1)


def test_least_multiple_matches_trial_multiples():
    rng = random.Random(31)
    for lat in LATTICES[:60]:
        index = ref_index(lat)
        for _ in range(5):
            v = [rng.randint(-4, 4) for _ in range(lat.n - 1)]
            v.append(-sum(v))
            want = next(a for a in range(1, index + 1) if member(lat, [a * x for x in v]))
            assert la.least_multiple_in_span(lat.basis, v) == want
            assert la.in_row_span(lat.basis, v) == (want == 1)


def test_least_multiple_is_none_outside_the_rational_span():
    rng = random.Random(37)
    for lat in LATTICES[:60]:
        v = [rng.randint(-4, 4) for _ in range(lat.n)]
        v[0] += 1 - sum(v)  # sum 1: not zero-sum, so in no multiple of the lattice
        assert la.least_multiple_in_span(lat.basis, v) is None
        assert not la.in_row_span(lat.basis, v)
    line = TranslationLattice.from_vectors(3, [(2, -2, 0)])
    assert la.least_multiple_in_span(line.basis, (1, -1, 0)) == 2
    assert la.least_multiple_in_span(line.basis, (1, 0, -1)) is None


def test_large_congruence_lattice_is_read_without_a_divisor_scan(capsys):
    m = LARGE_PRIME
    start = perf_counter()
    assert congruence_exponent(TranslationLattice.congruence(3, m)) == m
    code = cli_main(
        ["--json", "bns", "certificate", "--n", "3", "--lattice", f"{m},{-m},0;0,{m},{-m}"]
    )
    elapsed = perf_counter() - start
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["certified"] is True and data["witness_count"] == 6
    assert f_certificate(TranslationLattice.congruence(3, m)).witnesses[0] == (-m, m, 0)
    assert elapsed < 1.0
