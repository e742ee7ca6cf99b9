"""Per-orbit factors against a window reference, and kernel intersection probes.

``window_factors`` is ``decompose`` as it was read off a window: it takes the
``orbit_windows`` classes at a deep window, applies each generator point by
point in rank coordinates, and reads each induced element off the partial
map's complete rank prefix with ``reference_inference``.  Where it is
conclusive, ``decompose``, which reads the exact orbits, must give the same
factors, and at every depth.
"""

import random

import pytest

from houghton_kit.elements import (
    HoughtonElement,
    commutator,
    from_cycles,
    generator,
    houghton_generators,
    identity,
    random_element,
)
from houghton_kit.errors import DomainError, InconclusiveError
from houghton_kit.subdirect import decompose, induce_on_orbit, kernel_intersection_probe
from houghton_kit.rays import RayPoint, RaySystem
from houghton_kit.subgroups import GeneratedSubgroup, TranslationLattice, delta_k, orbit_windows
from houghton_kit.wreath import random_words
from test_wreath_oracle import intransitive_group, reference_inference


def window_factors(group, depth):
    """Per window orbit class, the induced generators; None where the window cannot tell."""
    n = group.n
    factors = []
    for cls in orbit_windows(group, depth).classes:
        if {p.ray for p in cls} != set(range(1, n + 1)):
            return None
        rank = {}
        for ray in range(1, n + 1):
            for r, p in enumerate(p for p in cls if p.ray == ray):
                rank[p] = RayPoint(ray, r)
        induced = []
        for g in group.generators:
            partial = {rank[p]: rank[q] for p in cls if (q := g.apply(p)) in rank}
            # per ray, the ranks up to the first one whose image is unknown
            known = [
                next(r for r in range(len(cls) + 1) if RayPoint(ray, r) not in partial)
                for ray in range(1, n + 1)
            ]
            try:
                induced.append(reference_inference(partial, n, known))
            except InconclusiveError:
                return None
        factors.append(tuple(induced))
    return factors


def conjugated_delta(rng):
    n, k = rng.randint(3, 5), rng.randint(1, 3)
    c = random_element(n, head_budget=3, t_bound=1, seed=rng)
    c_inv = c.inverse()
    return GeneratedSubgroup(n, tuple(c_inv.compose(g).compose(c) for g in delta_k(n, k).generators))


def reference_groups():
    rng = random.Random(23)
    groups = [conjugated_delta(rng) for _ in range(24)]
    groups += [GeneratedSubgroup.from_elements(n, houghton_generators(n)) for n in (2, 3, 4, 5)]
    return groups + [intransitive_group()]


@pytest.mark.parametrize("index", range(29))
def test_decompose_matches_the_window_reference_at_every_depth(index):
    group = reference_groups()[index]
    want = window_factors(group, 60)
    assert want is not None  # the reference is conclusive on every group here
    for depth in (1, 10, 40):
        dec = decompose(group, depth)
        assert [f.generators for f in dec.factors] == want
        assert [f.orbit_index for f in dec.factors] == list(range(len(want)))
        # an orbit may miss a shallow window
        assert [f.points for f in dec.factors if f.points] == list(orbit_windows(group, depth).classes)


def test_the_intransitive_group_splits_where_a_window_cannot_tell():
    group = intransitive_group()
    for depth in (4, 8):
        assert window_factors(group, depth) is None
        assert len(decompose(group, depth).factors) == 2


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
    # a window of 10; the exact orbits see it at any depth
    d = delta_k(3, 2)
    cycle = from_cycles(3, [[(1, 0), (1, 1001)]])
    group = GeneratedSubgroup(3, d.generators + (cycle,))
    dec = decompose(group, depth=10)
    assert len(dec.factors) == 1
    assert dec.factors[0].points == tuple(RaySystem(3).window(10))
    assert dec.factors[0].generators == group.generators


def test_decompose_names_a_fixed_point():
    # both generators fix (1:0) and act as H_3's on the other points
    a = HoughtonElement(3, (1, -1, 0), {(1, 0): (1, 0), (2, 0): (1, 1)})
    b = HoughtonElement(3, (1, 0, -1), {(1, 0): (1, 0), (3, 0): (1, 1)})
    group = GeneratedSubgroup(3, (a, b))
    with pytest.raises(DomainError, match=r"orbit of \(1:0\) is finite"):
        decompose(group)
    with pytest.raises(DomainError, match="finite"):
        induce_on_orbit(group, (1, 0), a)
    assert induce_on_orbit(group, (2, 0), a).translation_vector() == (1, -1, 0)


def test_induce_on_orbit_names_a_ray_the_orbit_meets_finitely():
    # <g_2> fixes ray 3, so its orbit of (1:0) misses ray 3's tail
    g = generator(3, 2)
    with pytest.raises(DomainError, match=r"orbit of \(1:0\) meets ray 3 in finitely many points"):
        induce_on_orbit(GeneratedSubgroup(3, (g,)), (1, 0), g)


def test_factor_projections_are_homomorphisms():
    d = delta_k(3, 2)
    rng = random.Random(6)
    words = random_words(d, 30, 3, rng)
    for point in ((1, 0), (2, 1)):
        for _ in range(20):
            a, b = rng.choice(words), rng.choice(words)
            pa = induce_on_orbit(d, point, a)
            pb = induce_on_orbit(d, point, b)
            pab = induce_on_orbit(d, point, a.compose(b))
            assert pa.compose(pb) == pab


def test_induce_on_orbit_rejects_an_element_that_leaves_the_orbit():
    # g_2 moves the tail of ray 1 to the other parity class, the transposition one point
    d = delta_k(3, 2)
    with pytest.raises(DomainError, match="moves the tail of ray 1 off the orbit"):
        induce_on_orbit(d, (1, 0), generator(3, 2))
    with pytest.raises(DomainError, match=r"sends \(1:0\) off its orbit"):
        induce_on_orbit(d, (1, 0), from_cycles(3, [[(1, 0), (1, 1)]]))


def test_kernel_probe_delta2_finds_single_orbit_element():
    d = delta_k(3, 2)
    dec = decompose(d, depth=40)
    for i in (0, 1):
        result = kernel_intersection_probe(d, dec, i)
        assert result.found
        moved, rays = result.element.support_description()
        assert result.element.is_finitary()
        assert set(moved) <= set(dec.factors[i].points)


def test_kernel_probe_gives_one_answer_at_every_depth():
    # the probe keys moved points by their exact orbits, so a factor whose
    # orbit misses a shallow window is probed as at depth 40
    d = delta_k(3, 2)
    c = random_element(3, head_budget=3, t_bound=1, seed=random.Random(24))
    c_inv = c.inverse()
    conjugate = GeneratedSubgroup(3, tuple(c_inv.compose(g).compose(c) for g in d.generators))
    # its first word of length 1 swaps points of both orbits, so it is no hit
    both = GeneratedSubgroup(
        2, (from_cycles(2, [[(1, 0), (1, 2)], [(1, 1), (1, 3)]]),) + intransitive_group().generators
    )
    for group in (d, conjugate, intransitive_group(), both):
        deep = decompose(group, depth=40)
        want = [kernel_intersection_probe(group, deep, i) for i in range(len(deep.factors))]
        for depth in (1, 2, 3, 10):
            dec = decompose(group, depth)
            assert [kernel_intersection_probe(group, dec, i) for i in range(len(dec.factors))] == want
        for i, result in enumerate(want):
            assert result.found and result.element.is_finitary()
            moved, _ = result.element.support_description()
            window = decompose(group, result.element.threshold).factors[i].points
            assert set(moved) <= set(window)
    assert [(r.status, r.word_length) for r in
            (kernel_intersection_probe(d, decompose(d, 1), i) for i in (0, 1))] == [("found", 1)] * 2


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
