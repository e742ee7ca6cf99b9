import random

import pytest

from houghton_kit.errors import DegreeCapError, DomainError
from houghton_kit.finperm import (
    FinitePermGroup,
    brute_force_partition_check,
    direct_product_on_disjoint_sets,
    is_invariant_partition,
    is_strongly_orbit_primitive,
    symmetric_group,
)
from test_finperm_oracle import restriction


def sym_cross_sym(n=3):
    """Sym_n x Sym_n on 1..2n, factors acting on the two halves."""
    a = symmetric_group(range(1, n + 1))
    b = symmetric_group(range(n + 1, 2 * n + 1))
    return direct_product_on_disjoint_sets(a, b)


def diagonal_group(n=3):
    """Diagonal copy of Sym_n inside Sym_n x Sym_n, pairing i with i+n."""
    pts = tuple(range(1, 2 * n + 1))
    swap = {1: 2, 2: 1, 1 + n: 2 + n, 2 + n: 1 + n}
    cyc = {i: i % n + 1 for i in range(1, n + 1)}
    cyc.update({i + n: i % n + 1 + n for i in range(1, n + 1)})
    return FinitePermGroup(pts, [swap, cyc])


def test_orbits_fixtures():
    g = sym_cross_sym(3)
    assert g.orbits() == [(1, 2, 3), (4, 5, 6)]
    trivial = FinitePermGroup(range(5), [])
    assert trivial.orbits() == [(0,), (1,), (2,), (3,), (4,)]
    d = diagonal_group(3)
    assert d.orbits() == [(1, 2, 3), (4, 5, 6)]


def test_order_fixtures():
    assert sym_cross_sym(3).order() == 36
    assert diagonal_group(3).order() == 6
    assert symmetric_group(range(5)).order() == 120
    assert FinitePermGroup(range(4), []).order() == 1


def test_membership_fixtures():
    d = diagonal_group(3)
    assert d.membership({1: 2, 2: 1, 4: 5, 5: 4})
    assert not d.membership({1: 2, 2: 1})
    assert d.membership({})


def test_membership_agrees_with_enumeration():
    rng = random.Random(4)
    for _ in range(30):
        deg = rng.randint(3, 6)
        dom = tuple(range(deg))
        gens = [rng.sample(dom, deg) for _ in range(2)]
        grp = FinitePermGroup(dom, gens)
        elems = {tuple(grp.image_array(e)) for e in grp.elements()}
        assert len(elems) == grp.order()
        for _ in range(10):
            candidate = tuple(rng.sample(dom, deg))
            assert grp.membership(candidate) == (candidate in elems)


def test_minimal_block_sym4_primitive():
    g = symmetric_group(range(4))
    for q in (1, 2, 3):
        assert g.minimal_block(0, q) == frozenset({0, 1, 2, 3})


def test_minimal_block_c4():
    c4 = FinitePermGroup(range(1, 5), [{1: 2, 2: 3, 3: 4, 4: 1}])
    assert c4.minimal_block(1, 3) == frozenset({1, 3})
    assert c4.minimal_block(1, 2) == frozenset({1, 2, 3, 4})
    # oracle: the invariant partitions of C4 through 1 and 3
    parts = [p for p in _all_partitions(c4) if is_invariant_partition(c4, p)]
    blocks_13 = [
        frozenset(next(x for x in p if 1 in x))
        for p in parts
        if any(1 in x and 3 in x for x in p)
    ]
    assert min(blocks_13, key=len) == frozenset({1, 3})


def _all_partitions(group):
    from houghton_kit.finperm import _set_partitions

    return [tuple(map(tuple, p)) for p in _set_partitions(list(group.domain))]


def test_strongly_orbit_primitive_product_true():
    verdict = is_strongly_orbit_primitive(sym_cross_sym(3))
    assert verdict.is_sop and verdict.witness is None


def test_strongly_orbit_primitive_diagonal_false_with_pair_witness():
    verdict = is_strongly_orbit_primitive(diagonal_group(3))
    assert not verdict.is_sop
    assert verdict.witness[0] == (1, 4)


def test_transitive_primitive_group_is_sop():
    assert is_strongly_orbit_primitive(symmetric_group(range(5))).is_sop


def test_brute_force_matches_fixtures():
    assert brute_force_partition_check(sym_cross_sym(3)).is_sop
    v = brute_force_partition_check(diagonal_group(3))
    assert not v.is_sop
    assert is_invariant_partition(diagonal_group(3), v.witness)


def test_trivial_group_two_points_not_sop():
    g = FinitePermGroup(range(2), [])
    assert not brute_force_partition_check(g).is_sop
    assert not is_strongly_orbit_primitive(g).is_sop


def test_sym2_is_sop():
    g = symmetric_group(range(2))
    assert brute_force_partition_check(g).is_sop
    assert is_strongly_orbit_primitive(g).is_sop


def test_sop_oracle_agreement_random():
    rng = random.Random(12)
    for _ in range(60):
        deg = rng.randint(2, 7)
        dom = tuple(range(deg))
        gens = [rng.sample(dom, deg) for _ in range(2)]
        grp = FinitePermGroup(dom, gens)
        assert is_strongly_orbit_primitive(grp).is_sop == brute_force_partition_check(grp).is_sop


def test_sop_witnesses_are_block_systems():
    rng = random.Random(77)
    checked = 0
    for _ in range(80):
        deg = rng.randint(2, 7)
        dom = tuple(range(deg))
        grp = FinitePermGroup(dom, [rng.sample(dom, deg) for _ in range(2)])
        verdict = is_strongly_orbit_primitive(grp)
        if verdict.is_sop:
            continue
        checked += 1
        blocks = verdict.witness
        orbits = grp.orbits()
        # each orbit meets exactly one block
        for orbit in orbits:
            assert sum(bool(set(orbit) & set(b)) for b in blocks) == 1
        # block axiom under every element of the group
        for b in blocks:
            bset = frozenset(grp._index[x] for x in b)
            for e in grp.elements(2000):
                img = frozenset(e[x] for x in bset)
                assert not (img & bset) or img == bset
    assert checked > 10


def test_alternating_sum_with_crossing_support_is_sop():
    # Alt(O1) + Alt(O2) together with a permutation meeting both orbits
    dom = tuple(range(6))
    a1 = {0: 1, 1: 2, 2: 0}
    a2 = {3: 4, 4: 5, 5: 3}
    cross = {0: 1, 1: 0, 3: 4, 4: 3}
    grp = FinitePermGroup(dom, [a1, a2, cross])
    assert is_strongly_orbit_primitive(grp).is_sop


def test_degree_cap():
    with pytest.raises(DegreeCapError):
        FinitePermGroup(range(31), [])
    with pytest.raises(DegreeCapError):
        brute_force_partition_check(FinitePermGroup(range(11), []))


def test_coerce_and_image_array():
    dom = (1, 2, 3, 4)
    grp = FinitePermGroup(dom, [])
    perm = grp.coerce({1: 2, 2: 3, 3: 1})
    assert grp.image_array(perm) == [2, 3, 1, 4]
    assert grp.coerce([2, 3, 1, 4]) == perm
    with pytest.raises(DomainError):
        grp.coerce([2, 2, 1, 4])
    with pytest.raises(DomainError):
        grp.coerce([2, 3, 1])


def test_a_point_outside_the_domain_is_named():
    with pytest.raises(DomainError, match="point 9 is outside the domain"):
        FinitePermGroup([1, 2, 3], [{1: 9}])
    with pytest.raises(DomainError, match="point 9 is outside the domain"):
        FinitePermGroup([1, 2, 3], [{9: 1}])
    grp = FinitePermGroup([1, 2, 3], [{1: 2, 2: 1}])
    with pytest.raises(DomainError, match="point 9 is outside the domain"):
        grp.membership([1, 2, 9])
    assert grp.membership([2, 1, 3]) and not grp.membership([1, 3, 2])


def test_restriction():
    d = diagonal_group(3)
    r = restriction(d, (1, 2, 3))
    assert r.order() == 6
    with pytest.raises(DomainError):
        restriction(sym_cross_sym(3), (1, 2, 4))


def test_membership_agrees_with_enumeration_at_5040():
    g = symmetric_group(range(7))
    assert g.order() == 5040
    elems = {tuple(g.image_array(e)) for e in g.elements()}
    assert len(elems) == 5040
    rng = random.Random(70)
    for _ in range(200):
        candidate = tuple(rng.sample(range(7), 7))
        assert g.membership(candidate) == (candidate in elems)


def test_is_invariant_partition():
    grp = symmetric_group(range(3))
    parts = (tuple(range(3)),)
    assert is_invariant_partition(grp, parts)
    bad = ((0, 1), (2,))
    assert not is_invariant_partition(grp, bad)
