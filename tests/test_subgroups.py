import json
import random
import time
from itertools import product

import pytest
from hypothesis import given, strategies as st

from houghton_kit import intlattice as la
from houghton_kit.elements import (
    HoughtonElement,
    from_cycles,
    generator,
    houghton_generators,
    identity,
    random_element,
    random_zero_sum,
    transposition,
)
from houghton_kit.errors import DomainError, InconclusiveError, UnsupportedCaseError
from houghton_kit.rays import RayPoint
from houghton_kit.subgroups import (
    GeneratedSubgroup,
    TranslationLattice,
    bounded_words,
    congruence_exponent,
    delta_k,
    element_with_translation,
    finitary_commutator,
    hirsch_length,
    is_congruence_lifting,
    is_level,
    orbit_windows,
    parse_word,
    preserves_residue_classes,
    ray_shift,
    translation_lattice,
)


def subgroup(n, gens):
    return GeneratedSubgroup.from_elements(n, gens)


def houghton_subgroup(n):
    return subgroup(n, houghton_generators(n))


NON_LEVEL_VECTORS = [(1, 2, -3), (2, 1, -3)]


# -- integer lattice helpers ----------------------------------------------------


@given(st.integers(-40, 40), st.integers(-40, 40))
def test_xgcd(a, b):
    g, x, y = la.xgcd(a, b)
    assert g == x * a + y * b
    assert g >= 0
    if a or b:
        assert a % g == 0 and b % g == 0


def test_hnf_canonical_under_row_ops():
    rng = random.Random(2)
    for _ in range(50):
        rows = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(3)]
        shuffled = rows[::-1]
        mixed = [rows[0], [a + 2 * b for a, b in zip(rows[1], rows[0])], rows[2]]
        h = la.hnf_rows(rows)
        assert h == la.hnf_rows(shuffled)
        assert h == la.hnf_rows(mixed)
        for r in rows:
            assert la.in_row_span(h, r)


def test_solve_row_combination():
    rows = [(1, 2, -3), (2, 1, -3)]
    x = la.solve_row_combination(rows, (3, 3, -6))
    assert x is not None
    combo = [sum(c * r[k] for c, r in zip(x, rows)) for k in range(3)]
    assert combo == [3, 3, -6]
    assert la.solve_row_combination(rows, (1, 0, -1)) is None


def test_kernel_basis():
    rows = [(1, 2), (2, 4), (0, 1)]
    kern = la.kernel_basis(rows)
    assert len(kern) == 1
    for v in kern:
        assert all(sum(c * r[k] for c, r in zip(v, rows)) == 0 for k in range(2))


# -- translation lattice -----------------------------------------------------


def test_full_group_lattice_is_full():
    lat = translation_lattice(houghton_subgroup(4))
    assert lat.rank == 3
    assert lat.index_in_zero_sum() == 1
    assert lat == TranslationLattice.zero_sum(4)


def test_finitary_generators_zero_lattice():
    g = subgroup(3, [transposition(3, (1, 0), (2, 0))])
    lat = translation_lattice(g)
    assert lat.rank == 0
    assert lat.index_in_zero_sum() is None
    assert hirsch_length(g) == (0, False)


def test_non_level_example_lattice():
    lat = TranslationLattice.from_vectors(3, NON_LEVEL_VECTORS)
    assert lat.rank == 2
    assert lat.index_in_zero_sum() == 3


def test_lattice_rejects_bad_vectors():
    with pytest.raises(DomainError):
        TranslationLattice.from_vectors(3, [(1, 0, 0)])
    with pytest.raises(DomainError):
        TranslationLattice.from_vectors(3, [(1, -1)])


def test_hirsch_fixtures():
    assert hirsch_length(houghton_subgroup(3)) == (2, True)
    assert hirsch_length(houghton_subgroup(5)) == (4, True)
    g = subgroup(3, [parse_word("g2", 3), parse_word("g2^2", 3)])
    assert hirsch_length(g) == (1, False)


def test_hirsch_invariant_under_generating_set_change():
    a = delta_k(3, 2)
    extra = a.generators[0].compose(a.generators[1])
    b = GeneratedSubgroup.from_elements(3, list(a.generators) + [extra, extra.inverse()])
    assert hirsch_length(a) == hirsch_length(b)
    assert translation_lattice(a) == translation_lattice(b)


# -- level and congruence lifting ---------------------------------------------


def test_full_lattice_is_level():
    for n in range(3, 9):
        assert is_level(TranslationLattice.zero_sum(n)).is_level


def test_non_level_witness():
    verdict = is_level(TranslationLattice.from_vectors(3, NON_LEVEL_VECTORS))
    assert not verdict.is_level
    i, j, vec = verdict.witness
    assert (i, j) == (2, 1)
    assert vec is not None and vec[0] % 3 != 0


def test_congruence_lattices_are_level():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randint(3, 6)
        m = rng.randint(1, 9)
        lat = TranslationLattice.congruence(n, m)
        assert is_level(lat).is_level
        verdict = is_congruence_lifting(lat)
        assert verdict.is_congruence_lifting and verdict.modulus == m


def test_level_rejects_n2():
    with pytest.raises(UnsupportedCaseError):
        is_level(TranslationLattice.zero_sum(2))


def test_congruence_lifting_fixtures():
    v = is_congruence_lifting(TranslationLattice.zero_sum(4))
    assert v.is_congruence_lifting and v.modulus == 1
    v3 = is_congruence_lifting(TranslationLattice.from_vectors(3, NON_LEVEL_VECTORS))
    assert not v3.is_congruence_lifting
    assert congruence_exponent(TranslationLattice.from_vectors(3, NON_LEVEL_VECTORS)) == 3


def test_delta_lattice_index():
    for n, k in [(3, 2), (3, 3), (4, 2)]:
        lat = translation_lattice(delta_k(n, k))
        assert lat == TranslationLattice.congruence(n, k)
        assert lat.index_in_zero_sum() == k ** (n - 1)


# -- window orbits ----------------------------------------------------------------


def test_orbit_windows_full_group():
    report = orbit_windows(houghton_subgroup(3), 40)
    assert report.class_count == 1
    assert report.stabilized
    assert report.ray_incidence == ((1, 2, 3),)


def test_orbit_windows_delta2():
    report = orbit_windows(delta_k(3, 2), 40)
    assert report.class_count == 2
    assert report.stabilized
    for cls, rays in zip(report.classes, report.ray_incidence):
        assert rays == (1, 2, 3)
        parities = {p.pos % 2 for p in cls}
        assert len(parities) == 1


def test_orbit_windows_trivial_group():
    report = orbit_windows(GeneratedSubgroup.from_elements(2, []), 5)
    assert report.class_count == 10
    assert all(len(c) == 1 for c in report.classes)


def test_orbit_windows_full_hirsch_meets_every_ray():
    rng = random.Random(5)
    for k in (1, 2, 3):
        report = orbit_windows(delta_k(3, k), 30)
        assert report.stabilized
        assert all(rays == (1, 2, 3) for rays in report.ray_incidence)


# -- delta family -----------------------------------------------------------


def test_delta_generators_preserve_residues():
    for n, k in [(3, 2), (2, 3), (4, 2)]:
        for g in delta_k(n, k).generators:
            assert preserves_residue_classes(g, k)


def window_preserves_residue_classes(g, k, depth):
    """Every point of the window of this depth keeps its position mod k."""
    return all(
        g.apply((ray, pos)).pos % k == pos % k for ray in range(1, g.n + 1) for pos in range(depth)
    )


def test_preserves_residue_classes_matches_the_window_check():
    rng = random.Random(31)
    cases = []
    for k in (2, 3):
        letters = delta_k(3, k).symmetric_generators()
        words = bounded_words(identity(3), letters, HoughtonElement.compose, 3)
        cases += [(w, k) for _, w in words]
        cases += [(random_element(3, head_budget=4, t_bound=2 * k, seed=rng), k) for _ in range(40)]
    # k divides every t_i, but a head entry changes residue
    swapped = ray_shift(3, 2, 2).compose(transposition(3, (1, 0), (1, 1)))
    assert all(x % 2 == 0 for x in swapped.t)
    # every head entry keeps its residue, but 2 does not divide t_1
    shift = generator(3, 2)
    assert all(p.pos % 2 == q.pos % 2 for p, q in shift.head)
    cases += [(swapped, 2), (shift, 2)]
    verdicts = []
    for g, k in cases:
        want = window_preserves_residue_classes(g, k, g.threshold + k)
        assert preserves_residue_classes(g, k) == want, (g, k)
        verdicts.append(want)
    assert verdicts[-2:] == [False, False]
    assert verdicts.count(True) > 20 and verdicts.count(False) > 20


def test_delta_1_is_plain_generators_plus_transposition():
    d = delta_k(3, 1)
    assert d.generators[0] == generator(3, 2)
    assert d.generators[1] == generator(3, 3)
    assert d.generators[2].is_finitary()
    assert translation_lattice(d) == TranslationLattice.zero_sum(3)


def test_delta_rejects_bad_parameters():
    with pytest.raises(DomainError):
        delta_k(3, 0)
    with pytest.raises(DomainError):
        delta_k(1, 2)


def test_ray_shift_action():
    s = ray_shift(3, 2, 2)
    assert s.translation_vector() == (2, -2, 0)
    assert s.apply((2, 0)) == RayPoint(1, 0)
    assert s.apply((2, 1)) == RayPoint(1, 1)
    assert s.apply((2, 5)) == RayPoint(2, 3)
    assert s.apply((1, 3)) == RayPoint(1, 5)


# -- word search and finitary commutator ------------------------------------------


def brute_force_first_paths(start, letters, step, max_len):
    """Every path of length <= max_len, valued letter by letter; for each
    distinct value its shortlex-least path, in shortlex order."""
    first = {}
    for length in range(max_len + 1):
        for path in product(range(len(letters)), repeat=length):
            value = start
            for k in path:
                value = step(value, letters[k])
            first.setdefault(value, path)  # product runs in lexicographic order
    return sorted(((p, v) for v, p in first.items()), key=lambda pv: (len(pv[0]), pv[0]))


def add_vectors(u, v):
    return tuple(a + b for a, b in zip(u, v))


def image_set(s, g):
    return frozenset(map(g.apply, s))


PAIR_GROUP = subgroup(
    2,
    [
        generator(2, 2) ** 2,
        transposition(2, (1, 0), (1, 1)),
        from_cycles(2, [[(1, 0), (1, 2)], [(1, 1), (1, 3)]]),
    ],
)


def enumerator_cases():
    """Name -> (start, letters, step, max_len): element, translation-vector and
    block-image values."""
    h3 = houghton_subgroup(3).symmetric_generators()
    pair = PAIR_GROUP.symmetric_generators()
    d = delta_k(4, 2).symmetric_generators()
    return {
        "h3-elements": (identity(3), h3, HoughtonElement.compose, 3),
        "pair-elements": (identity(2), pair, HoughtonElement.compose, 4),
        "delta-vectors": ((0,) * 4, [g.translation_vector() for g in d], add_vectors, 4),
        "h3-vectors": ((0,) * 3, [g.translation_vector() for g in h3], add_vectors, 5),
        "pair-block": (frozenset([RayPoint(1, 0), RayPoint(1, 1)]), pair, image_set, 5),
        "h3-block": (frozenset([RayPoint(1, 0), RayPoint(2, 1)]), h3, image_set, 4),
    }


def test_bounded_words_shortlex_first_spellings():
    for case, (start, letters, step, max_len) in enumerator_cases().items():
        want = brute_force_first_paths(start, letters, step, max_len)
        got = list(bounded_words(start, letters, step, max_len))
        # exactly the shortlex-least path to each distinct value, in shortlex order
        assert got == want, case
        assert got[0] == ((), start)
        paths = {p for p, _ in got}
        assert all(p[:-1] in paths for p in paths if p), case
        # values repeat within max_len letters, so some paths are dropped
        assert len(want) < sum(len(letters) ** k for k in range(max_len + 1)), case
        for cap in (1, 2, 7, len(want) - 1, len(want), len(want) + 5):
            assert list(bounded_words(start, letters, step, max_len, cap=cap)) == want[:cap]


def reference_element_with_translation(group, target):
    """``element_with_translation`` as an element-word search: breadth-first
    words composed letter by letter and deduped by translation vector."""
    target = tuple(int(x) for x in target)
    if not any(target):
        return identity(group.n)
    seen = {(0,) * group.n}
    frontier = [identity(group.n)]
    for _ in range(8):
        nxt = []
        for w in frontier:
            for g in group.symmetric_generators():
                e = w.compose(g)
                t = e.translation_vector()
                if t in seen:
                    continue
                if t == target:
                    return e
                seen.add(t)
                nxt.append(e)
        frontier = nxt
    rows = [g.translation_vector() for g in group.generators]
    coeffs = la.solve_row_combination(rows, target)
    if coeffs is None:
        return None
    out = identity(group.n)
    for c, g in zip(coeffs, group.generators):
        if c:
            out = out.compose(g ** c)
    return out


@pytest.mark.parametrize("n", [3, 4, 5])
def test_element_with_translation_matches_the_element_word_search(n):
    rng = random.Random(900 + n)
    outcomes = set()
    for _ in range(6):
        gens = [random_element(n, 4, 1, rng) for _ in range(rng.randint(2, 3))]
        group = subgroup(n, gens)
        vectors = [g.translation_vector() for g in group.symmetric_generators()]
        reach = {t for _, t in bounded_words((0,) * n, vectors, add_vectors, 8)}
        targets = [(0,) * n, random_zero_sum(n, 2, rng)]
        for length in (1, 3, 6, 12):
            t = (0,) * n
            for _ in range(length):
                t = add_vectors(t, rng.choice(vectors))
            targets.append(t)
        # entries of 12 are out of reach of 8 letters that move each by at most 1
        targets += [tuple(12 * x for x in v) for v in vectors[:1] if any(v)]
        for target in targets:
            want = reference_element_with_translation(group, target)
            assert element_with_translation(group, target) == want, (gens, target)
            if want is None:
                outcomes.add("none")
            else:
                assert want.translation_vector() == target
                outcomes.add("word" if target in reach else "fallback")
    assert outcomes == {"none", "word", "fallback"}


def test_element_with_translation():
    g = houghton_subgroup(3)
    e = element_with_translation(g, (-1, 1, 0))
    assert e is not None and e.translation_vector() == (-1, 1, 0)
    assert element_with_translation(g, (0, 0, 0)) == identity(3)
    d = delta_k(3, 2)
    assert element_with_translation(d, (-1, 1, 0)) is None
    e2 = element_with_translation(d, (-2, 2, 0))
    assert e2 is not None and e2.translation_vector() == (-2, 2, 0)


def test_finitary_commutator_h3():
    g = houghton_subgroup(3)
    sigma = finitary_commutator(g)
    assert sigma.is_finitary()
    assert not sigma.is_identity()
    report = orbit_windows(g, 40)
    moved, _ = sigma.support_description()
    for cls in report.classes:
        assert set(moved) & set(cls)


def test_finitary_commutator_delta2():
    d = delta_k(3, 2)
    sigma = finitary_commutator(d)
    assert sigma.is_finitary() and not sigma.is_identity()
    report = orbit_windows(d, 40)
    moved, _ = sigma.support_description()
    for cls in report.classes:
        assert set(moved) & set(cls)


def test_finitary_commutator_needs_full_rank():
    g = subgroup(3, [generator(3, 2)])
    with pytest.raises(DomainError):
        finitary_commutator(g)
    with pytest.raises(UnsupportedCaseError):
        finitary_commutator(houghton_subgroup(2))


def test_finitary_commutator_stops_at_the_power_head_cap():
    # the parts are h^6 and h^16170, with heads of 568 and 16275 entries:
    # the second passes the cap (its bound is 16573 head entries)
    words = ["g2^2 g3^-1 g2^2", "g4^3 g4^1", "g3^3", "g2^1 g3^3 g4^1"]
    g = subgroup(4, [parse_word(w, 4) for w in words])
    assert translation_lattice(g).index_in_zero_sum() == 4
    start = time.perf_counter()
    with pytest.raises(InconclusiveError, match="past the cap of 10000") as caught:
        finitary_commutator(g)
    assert time.perf_counter() - start < 5
    assert caught.value.hint


# -- words and serialization -------------------------------------------------------


def test_parse_word_fixtures():
    g2 = parse_word("g2", 2)
    assert g2 == generator(2, 2)
    w = parse_word("g2^2 * (1:0 1:1)", 2)
    assert w == generator(2, 2) ** 2 * transposition(2, (1, 0), (1, 1))
    assert parse_word("g2^-1", 2) == generator(2, 2).inverse()
    assert parse_word("(1:0 1:1)(2:0 2:1)", 2).is_finitary()
    with pytest.raises(DomainError):
        parse_word("h3", 3)


def test_subgroup_json_roundtrip():
    d = delta_k(3, 2)
    text = GeneratedSubgroup.from_json_dict(json.loads(json.dumps(d.to_json_dict())))
    assert text == d
    assert text.labels == d.labels
