import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from houghton_kit.bns import (
    Character,
    canonicalize,
    f_certificate,
    in_sigma,
    kernel_lattice_of_character,
    meinert_complement_bound,
    parse_character,
    subgroup_type,
    _min_support_search,
    two_support_vector,
    vanishing_sphere_min_support,
)
from houghton_kit.cli import cli_main
from houghton_kit.errors import DomainError
from houghton_kit.subgroups import TranslationLattice, delta_k, is_level, translation_lattice

NON_LEVEL = TranslationLattice.from_vectors(3, [(1, 2, -3), (2, 1, -3)])


# -- canonical form ---------------------------------------------------------------


def test_canonicalize_fixtures():
    chi = canonicalize([1, -1, 0])
    assert chi.coeffs == (2, 0, 1)
    assert chi.support == (1, 3)
    assert canonicalize([1, 0, 0]).coeffs == (1, 0, 0)
    with pytest.raises(DomainError):
        canonicalize([2, 2, 2])


def test_canonicalize_idempotent_and_shift_invariant():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(2, 6)
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
        if len(set(coeffs)) == 1:
            continue
        chi = canonicalize(coeffs)
        assert canonicalize(chi.coeffs) == chi
        shift = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        assert canonicalize([c + shift for c in coeffs]) == chi
        assert min(chi.coeffs) == 0 and all(c >= 0 for c in chi.coeffs)


@given(st.lists(st.fractions(min_value=-5, max_value=5), min_size=2, max_size=6))
def test_canonicalize_properties(coeffs):
    if len(set(coeffs)) == 1:
        with pytest.raises(DomainError):
            canonicalize(coeffs)
    else:
        chi = canonicalize(coeffs)
        assert min(chi.coeffs) == 0
        assert chi.support_size >= 1


# -- skeleton membership ------------------------------------------------------------


def test_vertex_characters_not_in_sigma_one():
    for n in (3, 4, 5):
        for i in range(n):
            coeffs = [0] * n
            coeffs[i] = 1
            assert not in_sigma(canonicalize(coeffs), 1)


def test_facet_interior_membership():
    # canonical characters always vanish somewhere, so the widest possible
    # support is n - 1: interior of a facet
    chi = canonicalize([1, 2, 3])
    assert chi.support_size == 2
    assert in_sigma(chi, 1)
    # with closed faces the (n-2)-skeleton covers the whole sphere, so the
    # top invariant is empty
    assert not in_sigma(chi, 2)


def test_top_invariant_is_empty():
    rng = random.Random(29)
    for _ in range(50):
        n = rng.randint(3, 6)
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        if len(set(coeffs)) == 1:
            continue
        assert not in_sigma(canonicalize(coeffs), n - 1)


def test_two_support_thresholds():
    chi = canonicalize([1, -1, 0])
    assert in_sigma(chi, 1)
    assert not in_sigma(chi, 2)


def test_in_sigma_monotone_complement():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(3, 6)
        coeffs = [Fraction(rng.randint(0, 4)) for _ in range(n)]
        if len(set(coeffs)) == 1:
            continue
        chi = canonicalize(coeffs)
        results = [in_sigma(chi, m) for m in range(1, n)]
        # once outside, outside for all larger m
        for a, b in zip(results, results[1:]):
            assert a or not b


def test_in_sigma_validates_m():
    chi = canonicalize([1, 0, 0])
    with pytest.raises(DomainError):
        in_sigma(chi, 0)
    with pytest.raises(DomainError):
        in_sigma(chi, 3)


# -- subgroup type ------------------------------------------------------------------


def test_kernel_of_t1_plus_t2_in_h4():
    lat = kernel_lattice_of_character("t1+t2", 4)
    verdict = subgroup_type(4, lat)
    assert verdict.type_f_max == 1
    assert not verdict.has_type_f(2)
    supports = sorted(chi.support for chi in verdict.blocking)
    assert supports == [(1, 2), (3, 4)]


def test_derived_subgroup_not_f1():
    zero = TranslationLattice.from_vectors(4, [])
    verdict = subgroup_type(4, zero)
    assert verdict.type_f_max == 0
    assert any(chi.support_size == 1 for chi in verdict.blocking)


def test_full_lattice_capped():
    verdict = subgroup_type(4, TranslationLattice.zero_sum(4))
    assert verdict.type_f_max == 3
    assert verdict.capped
    assert verdict.blocking == ()


def test_subgroup_type_invariant_under_basis_change():
    rng = random.Random(7)
    base = [(1, 1, -2, 0), (0, 2, -1, -1)]
    lat = TranslationLattice.from_vectors(4, base)
    verdict = subgroup_type(4, lat)
    for _ in range(20):
        a = [list(v) for v in base]
        i, j = rng.sample(range(len(a)), 2)
        c = rng.randint(-3, 3)
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        assert TranslationLattice.from_vectors(4, a) == lat
        assert subgroup_type(4, TranslationLattice.from_vectors(4, a)) == verdict


@pytest.mark.parametrize("n", [4, 5])
def test_kernel_type_matches_the_support_rule(n):
    # the characters vanishing on the kernel of chi are its multiples, so the
    # degree is the smaller canonical support of chi and -chi, minus one
    wrong = []
    for coeffs in itertools.product(range(4), repeat=n):
        low, high = min(coeffs), max(coeffs)
        if low == high:
            continue
        want = min(sum(c != low for c in coeffs), sum(c != high for c in coeffs)) - 1
        verdict = subgroup_type(n, kernel_lattice_of_character(coeffs, n))
        if (verdict.type_f_max, verdict.capped) != (want, False):
            wrong.append(coeffs)
    assert wrong == []


def test_rank_one_lattice_blocks_with_both_vanishing_characters():
    verdict = subgroup_type(3, TranslationLattice.from_vectors(3, [(1, -2, 1)]))
    assert verdict.type_f_max == 1
    assert sorted(chi.coeffs for chi in verdict.blocking) == [
        (0, 1, 2),
        (1, Fraction(1, 2), 0),
    ]


def test_vanishing_sphere_empty_for_full_rank():
    size, reps = vanishing_sphere_min_support(TranslationLattice.zero_sum(5))
    assert size is None and reps == ()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_the_kernel_of_one_character_reads_the_search_answer_off_two_characters(n):
    # every character with coefficients 0..2: its kernel has corank one
    for coeffs in itertools.product(range(3), repeat=n):
        if len(set(coeffs)) > 1:
            lattice = kernel_lattice_of_character(list(coeffs), n)
            assert vanishing_sphere_min_support(lattice) == _min_support_search(lattice), coeffs


def test_bns_type_on_24_rays_returns(capsys):
    # the support search tried every subset of the 24 rays
    kernel = " + ".join(f"t{i}" for i in range(1, 13))
    assert cli_main(["bns", "type", "--n", "24", "--kernel", kernel]) == 0
    assert capsys.readouterr().out == "type F_11, not F_12\n"


# -- Meinert bound ------------------------------------------------------------------


def test_meinert_single_entry_grid():
    grid = [[1, 0, 0], [0, 0, 0]]
    assert meinert_complement_bound(3, 2, grid)


def test_meinert_full_support_grid():
    grid = [[1, 2, 3], [1, 1, 2]]
    assert not meinert_complement_bound(3, 2, grid)


def test_meinert_widest_factor_plus_any_other_exceeds():
    # one factor at the widest canonical support (n - 1) exactly meets the
    # bound on its own and exceeds it with any second nonzero factor
    assert meinert_complement_bound(3, 2, [[1, 2, 3], [0, 0, 0]])
    assert not meinert_complement_bound(3, 2, [[1, 2, 3], [1, 0, 0]])


def test_meinert_matches_join_dimension():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(3, 4)
        k = rng.randint(1, 3)
        grid = [[Fraction(rng.randint(0, 2)) for _ in range(n)] for _ in range(k)]
        supports = []
        for row in grid:
            low = min(row)
            supports.append(sum(1 for v in row if v != low))
        if sum(supports) == 0:
            with pytest.raises(DomainError):
                meinert_complement_bound(n, k, grid)
            continue
        # join of the carrier faces has dimension sum(s_j - 1) + (k - 1)
        join_dim = sum(s - 1 for s in supports) + (k - 1)
        assert meinert_complement_bound(n, k, grid) == (join_dim <= n - 2)


def test_meinert_rejects_bad_grid():
    with pytest.raises(DomainError):
        meinert_complement_bound(3, 2, [[1, 0, 0]])


# -- certificate -------------------------------------------------------------------


def test_full_lattice_certificate():
    cert = f_certificate(TranslationLattice.zero_sum(4))
    assert cert.certified
    assert len(cert.witnesses) == 12
    for vec in cert.witnesses:
        pos = [v for v in vec if v > 0]
        neg = [v for v in vec if v < 0]
        assert len(pos) == 1 and len(neg) == 1 and pos[0] == -neg[0]


def test_delta_lattice_certificate():
    for k in (2, 3):
        cert = f_certificate(translation_lattice(delta_k(3, k)))
        assert cert.certified
        assert all(abs(max(v, key=abs)) % k == 0 for v in cert.witnesses)


def test_non_level_lattice_no_certificate():
    cert = f_certificate(NON_LEVEL)
    assert not cert.certified
    assert cert.offending[0] == 2
    assert cert.witnesses == ()


def test_certificate_iff_level_random():
    rng = random.Random(17)
    checked = 0
    for _ in range(150):
        n = rng.randint(3, 4)
        vecs = []
        for _ in range(n - 1):
            v = [rng.randint(-3, 3) for _ in range(n - 1)]
            v.append(-sum(v))
            vecs.append(v)
        lat = TranslationLattice.from_vectors(n, vecs)
        if lat.index_in_zero_sum() is None:
            continue
        checked += 1
        assert f_certificate(lat).certified == is_level(lat).is_level
    assert checked > 80


def test_two_support_vector_minimal():
    # the non-level lattice does contain e_1 - e_2 (with coefficients -1, 1
    # on its two given spanning vectors); levelness fails elsewhere
    vec = two_support_vector(NON_LEVEL, 2, 1)
    assert vec == (1, -1, 0)
    assert NON_LEVEL.contains(vec)
    assert two_support_vector(TranslationLattice.zero_sum(3), 1, 3) == (-1, 0, 1)


# -- parsing ---------------------------------------------------------------------


def test_parse_character():
    assert parse_character("t1", 3).coeffs == (1, 0, 0)
    assert parse_character("t1 - t2", 3) == canonicalize([1, -1, 0])
    assert parse_character("2/3 t1 + t3", 3) == canonicalize([Fraction(2, 3), 0, 1])
    with pytest.raises(DomainError):
        parse_character("t9", 3)
    with pytest.raises(DomainError):
        parse_character("chaos", 3)


def test_character_json_roundtrip():
    chi = canonicalize([Fraction(2, 3), 0, 1])
    assert Character.from_json_dict(chi.to_json_dict()) == chi
    assert chi.to_json_dict()["coeffs"] == ["2/3", "0", "1"]
