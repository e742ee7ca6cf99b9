import random

import pytest

from houghton_kit.elements import (
    commutator,
    from_cycles,
    generator,
    houghton_generators,
    identity,
)
from houghton_kit.errors import DomainError, InconclusiveError
from houghton_kit.subdirect import decompose, induce_on_orbit, kernel_intersection_probe
from houghton_kit.rays import RaySystem
from houghton_kit.subgroups import GeneratedSubgroup, TranslationLattice, delta_k
from houghton_kit.wreath import random_words


def test_decompose_delta2():
    d = delta_k(3, 2)
    dec = decompose(d, depth=40)
    assert len(dec.factors) == 2
    for f in dec.factors:
        assert f.full_hirsch
        assert f.level is True
        assert f.lattice == TranslationLattice.zero_sum(3)


def test_decompose_transitive_group_is_identity_factor():
    g = GeneratedSubgroup.from_elements(3, houghton_generators(3))
    dec = decompose(g, depth=30)
    assert len(dec.factors) == 1
    for gen, induced in zip(g.generators, dec.factors[0].generators):
        assert gen == induced


def test_decompose_needs_full_hirsch():
    g = GeneratedSubgroup.from_elements(3, [generator(3, 2)])
    with pytest.raises((DomainError, InconclusiveError)):
        decompose(g, depth=30)


def test_decompose_reads_one_orbit_past_a_far_cycle():
    # the cycle (1:0 1:1001) joins delta_k(3, 2)'s two parity classes far past
    # a window of 10: the orbit report is one exact class there, and what is
    # left inconclusive is reading the cycle back from the window
    d = delta_k(3, 2)
    cycle = from_cycles(3, [[(1, 0), (1, 1001)]])
    group = GeneratedSubgroup(3, d.generators + (cycle,))
    with pytest.raises(InconclusiveError, match="eventual translation"):
        decompose(group, depth=10)
    dec = decompose(group, depth=2010)
    assert len(dec.factors) == 1
    assert dec.factors[0].points == tuple(RaySystem(3).window(2010))
    assert dec.factors[0].generators == group.generators


def test_factor_projections_are_homomorphisms():
    d = delta_k(3, 2)
    dec = decompose(d, depth=40)
    rng = random.Random(6)
    words = random_words(d, 30, 3, rng)
    cls = dec.factors[0].points
    for _ in range(40):
        a, b = rng.choice(words), rng.choice(words)
        pa = induce_on_orbit(cls, a, 3)
        pb = induce_on_orbit(cls, b, 3)
        pab = induce_on_orbit(cls, a.compose(b), 3)
        assert pa.compose(pb) == pab


def test_kernel_probe_delta2_finds_single_orbit_element():
    d = delta_k(3, 2)
    dec = decompose(d, depth=40)
    for i in (0, 1):
        result = kernel_intersection_probe(d, dec, i)
        assert result.found
        moved, rays = result.element.support_description()
        assert result.element.is_finitary()
        assert set(moved) <= set(dec.factors[i].points)


def test_kernel_probe_transitive_returns_generator():
    g = GeneratedSubgroup.from_elements(3, houghton_generators(3))
    dec = decompose(g, depth=30)
    result = kernel_intersection_probe(g, dec, 0)
    assert result.status == "trivial-full-factor"
    assert result.found


def test_kernel_probe_elements_commute_across_factors():
    d = delta_k(3, 2)
    dec = decompose(d, depth=40)
    a = kernel_intersection_probe(d, dec, 0).element
    b = kernel_intersection_probe(d, dec, 1).element
    assert commutator(a, b) == identity(3)


def test_decomposition_json():
    d = delta_k(3, 2)
    dec = decompose(d, depth=40)
    data = dec.to_json_dict()
    assert data["n"] == 3
    assert len(data["factors"]) == 2
    assert data["factors"][0]["full_hirsch"] is True


def test_finite_diagonal_mirror_has_no_single_orbit_elements():
    # the finite analogue: the diagonal in Sym_3 x Sym_3 meets neither factor
    from houghton_kit.finperm import FinitePermGroup

    diag = FinitePermGroup(
        tuple(range(1, 7)),
        [{1: 2, 2: 1, 4: 5, 5: 4}, {1: 2, 2: 3, 3: 1, 4: 5, 5: 6, 6: 4}],
    )
    orbit1 = set(diag.orbit_of(1))
    ident = diag.identity()
    for e in diag.elements():
        if e == ident:
            continue
        moved = {diag.domain[i] for i, j in enumerate(e) if i != j}
        assert not moved <= orbit1
