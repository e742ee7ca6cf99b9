"""Lattice facts read off the quotient's diagonal form, against the divisor scans.

The package reads index, exponent and every order from one diagonal form of
the truncated Hermite basis (``TranslationLattice.order``), and the level
test from pairs of basis columns.  The references are scans: trial
multiples over the divisors of the index, the truncated basis put in
Hermite form a second time with its pivot product taken here, and a level
test that builds one zero-ray sublattice per ray, by a Hermite form with
that ray's column first.  Membership in the references goes through
``solve_row_combination``, so it shares no code with ``order`` or the
diagonal form.  The level reference takes its witness vector from
``_vector_with_projection``, as the package does; the vector is checked
apart, for membership and its target coordinate.  Dense lattices on up to
``cli.RAY_BOUND`` rays check the index against a Bareiss determinant.
"""

import json
import random
from itertools import permutations
from math import gcd, prod
from time import perf_counter

import pytest

from houghton_kit import cli
from houghton_kit import intlattice as la
from houghton_kit.bns import Certificate, f_certificate, two_support_vector
from houghton_kit.cli import cli_main
from houghton_kit.elements import generator
from houghton_kit.subgroups import (
    GeneratedSubgroup,
    LevelVerdict,
    TranslationLattice,
    _vector_with_projection,
    congruence_exponent,
    is_level,
    translation_lattice,
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
    """Pivot product of the truncated Hermite basis: the index at full rank."""
    truncated = la.hnf_rows([row[:-1] for row in lattice.basis], lattice.n - 1)
    return prod(next(x for x in row if x) for row in truncated)


def ref_order(lattice, vec):
    """Least a >= 1 with a * vec in the lattice, by trial multiples, or None.

    A vector that raises the rank is outside the rational span and has none.
    Inside it the order divides the index of the lattice in its saturation,
    the gcd of the maximal minors, so the pivot product bounds the trials.
    """
    if len(la.hnf_rows(list(lattice.basis) + [vec], lattice.n)) > lattice.rank:
        return None
    return next(a for a in range(1, ref_index(lattice) + 1) if member(lattice, [a * x for x in vec]))


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


def ref_rows_with_zero_at(lattice, i):
    """Basis of the sublattice vanishing on ray i.

    The Hermite form with column i first, then the rows that are 0 there,
    put back in ray order.
    """
    n = lattice.n
    order = [i - 1] + [k for k in range(n) if k != i - 1]
    shuffled = la.hnf_rows([[row[k] for k in order] for row in lattice.basis], n)
    back = sorted(range(n), key=order.__getitem__)
    return [[row[p] for p in back] for row in shuffled if row[0] == 0]


def column_gcd(rows, j):
    return gcd(*(row[j - 1] for row in rows))


def ref_is_level(lattice):
    n = lattice.n
    zero_at = [None] + [ref_rows_with_zero_at(lattice, i) for i in range(1, n + 1)]
    for j in range(1, n + 1):
        full = column_gcd(lattice.basis, j)
        for i in range(1, n + 1):
            if i != j and column_gcd(zero_at[i], j) != full:
                return LevelVerdict(False, (i, j, _vector_with_projection(lattice, j, full)))
    return LevelVerdict(True)


def ref_witnesses(lattice):
    rays = range(1, lattice.n + 1)
    return tuple(ref_two_support_vector(lattice, i0, i1) for i0, i1 in permutations(rays, 2))


def dense_vectors(n, seed):
    """n - 1 seeded zero-sum vectors with entries in [-6, 6] on the first n - 1 rays."""
    rng = random.Random(seed)
    vecs = []
    for _ in range(n - 1):
        v = [rng.randint(-6, 6) for _ in range(n - 1)]
        vecs.append(v + [-sum(v)])
    return vecs


def bareiss_determinant(rows):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    size, sign, prev = len(m), 1, 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if size else 1


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


def random_low_rank_lattices(seed, per_rank=8):
    """Lattices of every rank from 0 to n - 2, n = 3..6, on random supports."""
    rng = random.Random(seed)
    out = []
    for n in range(3, 7):
        for rank in range(n - 1):
            kept = 0
            while kept < per_rank:
                support = rng.sample(range(n), rng.randint(rank + 1, n))
                vecs = []
                for _ in range(rank):
                    v = [0] * n
                    for k in support[1:]:
                        v[k] = rng.randint(-5, 5)
                    v[support[0]] = -sum(v)
                    vecs.append(v)
                lat = TranslationLattice.from_vectors(n, vecs)
                if lat.rank == rank:
                    out.append(lat)
                    kept += 1
    return out


LATTICES = random_full_rank_lattices(29, 150)
LOW_RANK = random_low_rank_lattices(41)


def test_the_sample_holds_level_and_non_level_lattices():
    verdicts = [ref_is_level(lat).is_level for lat in LATTICES]
    assert sum(verdicts) >= 20 and verdicts.count(False) >= 20
    assert len({lat.n for lat in LATTICES}) == 3
    assert max(ref_index(lat) for lat in LATTICES) > 10
    low = [ref_is_level(lat) for lat in LOW_RANK]
    assert sum(map(bool, low)) >= 10 and len({v.witness[:2] for v in low if not v}) >= 10


def test_lattice_facts_match_the_divisor_scans():
    for lat in LATTICES:
        n = lat.n
        assert lat.index_in_zero_sum() == ref_index(lat), lat
        assert congruence_exponent(lat) == ref_congruence_exponent(lat), lat
        verdict = ref_is_level(lat)
        assert is_level(lat) == verdict, lat
        witnesses = ref_witnesses(lat)
        for (i0, i1), want in zip(permutations(range(1, n + 1), 2), witnesses):
            assert two_support_vector(lat, i0, i1) == want, (lat, i0, i1)
        # the count first: the vectors are built only when read
        cert = f_certificate(lat)
        count = n * (n - 1) if verdict else 0
        assert (cert.certified, cert.offending, cert.witness_count) == (
            verdict.is_level,
            verdict.witness,
            count,
        ), lat
        assert cert.witnesses == (witnesses if verdict else ()), lat
        assert len(cert.witnesses) == cert.witness_count, lat
        assert cert == Certificate(verdict.is_level, verdict.witness, lat), lat


def test_level_verdicts_match_the_zero_ray_sublattices_at_every_rank():
    for lat in LATTICES + LOW_RANK:
        verdict = ref_is_level(lat)
        assert is_level(lat) == verdict, lat
        if not verdict:
            i, j, vec = verdict.witness
            assert member(lat, vec) and vec[j - 1] == column_gcd(lat.basis, j) != 0, lat


def test_least_multiple_matches_trial_multiples():
    rng = random.Random(31)
    low_rank_orders = []
    for lat in LATTICES[:60] + LOW_RANK:
        vectors = []
        for _ in range(5):
            v = [rng.randint(-4, 4) for _ in range(lat.n - 1)]
            v.append(-sum(v))
            vectors.append(v)
        if lat.rank < lat.n - 1:
            # a primitive vector of the rational span, whose order may pass 1
            coeffs = [rng.randint(-3, 3) for _ in lat.basis]
            w = [sum(c * row[k] for c, row in zip(coeffs, lat.basis)) for k in range(lat.n)]
            g = gcd(*w) or 1
            vectors.append([x // g for x in w])
        for v in vectors:
            want = ref_order(lat, v)
            assert lat.order(v) == want, (lat, v)
            assert la.in_row_span(lat.basis, v) == (want == 1)
            if lat.rank < lat.n - 1:
                low_rank_orders.append(want)
    assert None in low_rank_orders and 1 in low_rank_orders
    assert any(a is not None and a > 1 for a in low_rank_orders)


def test_least_multiple_is_none_outside_the_rational_span():
    rng = random.Random(37)
    for lat in LATTICES[:60] + LOW_RANK:
        v = [rng.randint(-4, 4) for _ in range(lat.n)]
        v[0] += 1 - sum(v)  # sum 1: not zero-sum, so in no multiple of the lattice
        assert lat.order(v) is None
        assert not la.in_row_span(lat.basis, v)
    line = TranslationLattice.from_vectors(3, [(2, -2, 0)])
    assert line.order((1, -1, 0)) == 2
    assert line.order((1, 0, -1)) is None


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


def test_certificate_at_the_ray_bound_lists_each_ordered_ray_pair(capsys):
    n = cli.RAY_BOUND
    lat = TranslationLattice.zero_sum(n)
    text = ";".join(",".join(map(str, row)) for row in lat.basis)
    assert cli_main(["--json", "bns", "certificate", "--n", str(n), "--lattice", text]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"certified": True, "witness_count": n * (n - 1), "offending": None}
    units = []
    for i0, i1 in permutations(range(1, n + 1), 2):
        vec = [0] * n
        vec[i1 - 1], vec[i0 - 1] = 1, -1
        units.append(tuple(vec))
    assert f_certificate(lat).witnesses == tuple(units)


def test_subgroup_level_at_the_ray_bound_gives_the_reference_verdict(tmp_path, capsys):
    # rays 1..40 carry the whole zero-sum lattice and rays 41, 42 only
    # 2 (e_42 - e_41): rank 40, and the first failing pair is (42, 41)
    n = cli.RAY_BOUND
    gens = [generator(n, k) for k in range(2, 41)]
    gens.append(generator(n, 41).compose(generator(n, 42).inverse()) ** 2)
    group = GeneratedSubgroup.from_elements(n, gens)
    path = tmp_path / "group.json"
    path.write_text(json.dumps(group.to_json_dict()))
    assert cli_main(["--json", "subgroup", "level", "--subgroup", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    lattice = translation_lattice(group)
    verdict = ref_is_level(lattice)
    assert lattice.rank == 40 and verdict.witness[:2] == (42, 41)
    assert is_level(lattice) == verdict
    assert data == {"level": False, "witness": [42, 41], "congruence_lifting": False, "modulus": None}


@pytest.mark.parametrize("n", [44, cli.RAY_BOUND])
def test_certificate_on_a_dense_lattice_at_many_rays(n, capsys):
    # a dense basis once blew the Hermite form's entries up to millions of
    # bits, so the command did not finish; zero_sum(n) never showed it
    vecs = dense_vectors(n, n)
    lat = TranslationLattice.from_vectors(n, vecs)
    index = abs(bareiss_determinant([v[:-1] for v in vecs]))
    assert index > 1 and lat.index_in_zero_sum() == index
    text = ";".join(",".join(map(str, v)) for v in vecs)
    assert cli_main(["--json", "bns", "certificate", "--n", str(n), "--lattice", text]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"certified": True, "witness_count": n * (n - 1), "offending": None}
