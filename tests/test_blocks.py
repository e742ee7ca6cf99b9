import random

import pytest

from houghton_kit.blocks import (
    BlockSystem,
    BlockVerification,
    _check_in_window,
    _require_margin,
    block_size_bound,
    congruence_classes,
    find_block_systems,
    quotient,
    verify_block_system,
)
from houghton_kit.classify import classify
from houghton_kit.elements import (
    HoughtonElement,
    from_cycles,
    generator,
    houghton_generators,
    identity,
    random_element,
    transposition,
)
from houghton_kit.errors import DomainError, InconclusiveError
from houghton_kit.rays import RayPoint, RaySystem
from houghton_kit.subgroups import (
    GeneratedSubgroup,
    TranslationLattice,
    bounded_words,
    delta_k,
    orbit_windows,
    translation_lattice,
)


def pair_preserving_group():
    """Pairs {(j,2m),(j,2m+1)} are blocks for this subgroup of H_2."""
    g2sq = generator(2, 2) ** 2
    swap = transposition(2, (1, 0), (1, 1))
    pair_swap = from_cycles(2, [[(1, 0), (1, 2)], [(1, 1), (1, 3)]])
    return GeneratedSubgroup.from_elements(2, [g2sq, swap, pair_swap])


def pair_blocks():
    return BlockSystem.from_lists([[(1, 0), (1, 1)]])


NON_LEVEL = TranslationLattice.from_vectors(3, [(1, 2, -3), (2, 1, -3)])


# -- size bound -----------------------------------------------------------------


def test_block_size_bound():
    assert block_size_bound(TranslationLattice.zero_sum(4)) == 1
    assert block_size_bound(translation_lattice(delta_k(3, 2))) == 4
    assert block_size_bound(NON_LEVEL) == 3
    with pytest.raises(DomainError):
        block_size_bound(TranslationLattice.from_vectors(3, [(1, -1, 0)]))


# -- verification ----------------------------------------------------------------


def test_pair_blocks_verify():
    verdict = verify_block_system(pair_preserving_group(), pair_blocks(), depth=40)
    assert verdict.valid
    assert verdict.orbit_axiom and verdict.block_axiom


def test_singleton_blocks_per_orbit_verify():
    d = delta_k(3, 2)
    system = BlockSystem.from_lists([[(1, 0)], [(1, 1)]])
    verdict = verify_block_system(d, system, depth=40)
    assert verdict.valid


def test_cross_ray_pair_fails_block_axiom():
    group = GeneratedSubgroup.from_elements(2, houghton_generators(2))
    system = BlockSystem.from_lists([[(1, 0), (2, 0)]])
    verdict = verify_block_system(group, system, depth=30)
    assert not verdict.valid
    assert not verdict.block_axiom
    assert any(w[0] == "block" for w in verdict.witnesses)


def test_block_witness_is_the_shortlex_first_violating_word():
    group = GeneratedSubgroup.from_elements(3, houghton_generators(3))
    system = BlockSystem.from_lists([[(1, 0), (1, 2)]])
    verdict = verify_block_system(group, system, depth=24)
    assert verdict.witnesses == (("block", 0, "gen0*gen0", ((1, 2), (1, 4))),)


def test_orbit_axiom_failure():
    d = delta_k(3, 2)
    # one block meeting only the even class: the odd class meets no block
    system = BlockSystem.from_lists([[(1, 0)]])
    verdict = verify_block_system(d, system, depth=40)
    assert not verdict.orbit_axiom
    # depth 8 is the shallowest window its generator margin allows
    assert not verify_block_system(d, system, depth=8).orbit_axiom


@pytest.mark.parametrize("depth", [1, 2, 3, 7])
def test_verification_below_the_generator_margin_is_inconclusive(depth):
    # at depths 1 to 3 the half-depth orbit report holds no class or only
    # that of (1, 0), so the failing orbit axiom above would read as valid;
    # 7 is the deepest window below the margin
    d = delta_k(3, 2)  # generator margin 4
    system = BlockSystem.from_lists([[(1, 0)]])
    with pytest.raises(InconclusiveError) as info:
        verify_block_system(d, system, depth=depth)
    assert info.value.hint == 8


@pytest.mark.parametrize("window", range(2, 8))
def test_block_search_below_the_generator_margin_is_inconclusive(window):
    # the pair group's generator margin is 4; below a window of 8 no
    # candidate could be verified, so an empty search would be no evidence
    with pytest.raises(InconclusiveError) as info:
        find_block_systems(pair_preserving_group(), depth=window)
    assert info.value.hint == 8
    report = classify(pair_preserving_group(), window=window)
    assert report.block_findings["searched"] is False
    assert any(note.startswith("block search inconclusive") for note in report.evidence_notes)


def test_multi_ray_translates_bounded():
    verdict = verify_block_system(pair_preserving_group(), pair_blocks(), depth=40)
    # only finitely many pair translates straddle rays; here none do, and a
    # generous window-scale cap holds regardless
    assert verdict.multi_ray_translate_count <= 4


def test_block_system_structural_checks():
    with pytest.raises(DomainError):
        BlockSystem.from_lists([[(1, 0)], [(1, 0)]])
    with pytest.raises(DomainError):
        BlockSystem.from_lists([[]])


def test_a_block_repeating_a_point_is_a_domain_error():
    # before the check, verification passed it and the wreath context gave
    # the point's orbit a block of 2 for a class of 1
    group = GeneratedSubgroup.from_elements(2, [generator(2, 2) ** 2, transposition(2, (1, 0), (1, 1))])
    with pytest.raises(DomainError, match=r"block 0 repeats a point"):
        BlockSystem.from_lists([[(1, 0), (1, 0)]])
    with pytest.raises(DomainError, match=r"block 1 repeats a point"):
        BlockSystem(((RayPoint(1, 0),), (RayPoint(2, 3), RayPoint(2, 3))))
    assert verify_block_system(group, BlockSystem.from_lists([[(1, 0), (1, 1)]]), 20).valid


# -- congruence closure ------------------------------------------------------------


def test_congruence_classes_pair_group():
    classes = congruence_classes(pair_preserving_group(), pair_blocks(), depth=40)
    big = [c for c in classes if len(c) > 1]
    for cls in big:
        (j, m), (j2, m2) = cls[0], cls[1]
        assert j == j2 and m2 == m + 1 and m % 2 == 0 and len(cls) == 2


@pytest.mark.parametrize("point", [(1, 40), (2, 41), (0, 3), (3, 3)])
def test_congruence_classes_reject_block_points_outside_the_window(point):
    system = BlockSystem.from_lists([[(1, 2), point]])
    with pytest.raises(DomainError, match="block point outside the window of depth 40"):
        congruence_classes(pair_preserving_group(), system, depth=40)
    with pytest.raises(DomainError, match="block point outside the window of depth 40"):
        verify_block_system(pair_preserving_group(), system, depth=40)


@pytest.mark.parametrize("singleton", [(9, 5), (0, 1)], ids=["ray-9", "ray-0"])
def test_singleton_blocks_outside_the_window_are_rejected(singleton):
    system = BlockSystem.from_lists([[singleton], [(1, 1)]])
    with pytest.raises(DomainError, match="block point outside the window of depth 40"):
        congruence_classes(delta_k(3, 2), system, depth=40)
    with pytest.raises(DomainError, match="block point outside the window of depth 40"):
        quotient(delta_k(3, 2), system, depth=40)


@pytest.mark.parametrize("point", [(1, 40), (1, 50), (3, 79)])
def test_quotient_rejects_block_points_past_the_requested_depth(point):
    # the closure runs at twice the depth, but the blocks must lie in the depth window
    system = BlockSystem.from_lists([[point], [(1, 1)]])
    with pytest.raises(DomainError, match="block point outside the window of depth 40"):
        quotient(delta_k(3, 2), system, depth=40)
    with pytest.raises(DomainError, match="block point outside the window of depth 40"):
        verify_block_system(delta_k(3, 2), system, depth=40)


# -- search -------------------------------------------------------------------------


def test_find_pair_block_system():
    result = find_block_systems(pair_preserving_group(), depth=40)
    assert len(result.systems) == 1
    system = result.systems[0]
    assert system.blocks[0] == (RayPoint(1, 0), RayPoint(1, 1))
    assert system.max_block_size == 2 <= block_size_bound(
        translation_lattice(pair_preserving_group())
    )
    assert "window" in result.caveat


def test_find_nothing_for_delta2():
    result = find_block_systems(delta_k(3, 2), depth=24)
    assert result.systems == ()


def test_find_nothing_for_full_group():
    result = find_block_systems(
        GeneratedSubgroup.from_elements(3, houghton_generators(3)), depth=24
    )
    assert result.systems == ()


def test_search_respects_size_bound():
    result = find_block_systems(pair_preserving_group(), depth=40)
    e = block_size_bound(translation_lattice(pair_preserving_group()))
    for system in result.systems:
        assert system.max_block_size <= e


# -- quotient ---------------------------------------------------------------------


def test_quotient_of_pair_blocks():
    group = pair_preserving_group()
    q = quotient(group, pair_blocks(), depth=60)
    # the squared shift induces the plain shift on the quotient
    assert q.induced[0].translation_vector() == (1, -1)
    assert q.induced[0] == generator(2, 2)
    # the swap inside the base block is a kernel generator
    assert 1 in q.kernel_generators
    assert q.induced[1].is_identity()
    # the pair transposition induces the quotient transposition
    assert q.induced[2] == transposition(2, (1, 0), (1, 1))


@pytest.mark.parametrize(
    "point",
    [(3, 0), (1, 42), (1, 20)],
    ids=["ray-n-plus-1", "past-the-closure-window", "class-crossing-the-depth"],
)
def test_class_index_of_is_none_off_the_kept_classes(point):
    # at depth 21 the closure window has depth 42, and the class
    # {(1:20), (1:21)} crosses the depth, so it is not kept
    q = quotient(pair_preserving_group(), pair_blocks(), depth=21)
    assert q.class_index_of(RayPoint(*point)) is None
    k = q.class_index_of(RayPoint(1, 19))
    assert q.classes[k] == (RayPoint(1, 18), RayPoint(1, 19))


def test_quotient_translation_lattice_is_full():
    group = pair_preserving_group()
    q = quotient(group, pair_blocks(), depth=60)
    lat = translation_lattice(GeneratedSubgroup.from_elements(q.n, q.induced))
    assert lat == TranslationLattice.zero_sum(2)


def test_quotient_homomorphism_on_pairs():
    import random

    group = pair_preserving_group()
    q = quotient(group, pair_blocks(), depth=60)
    rho = dict(zip(group.generators, q.induced))
    rng = random.Random(3)
    gens = list(group.generators)
    for _ in range(200):
        a, b = rng.choice(gens), rng.choice(gens)
        assert rho[a].compose(rho[b]) == _induced_of(group, q, a.compose(b))


def _induced_of(group, q, element):
    """Directly compute the induced quotient permutation of one element."""
    partial = {}
    index_of = {}
    for k, cls in enumerate(q.classes):
        for p in cls:
            index_of[p] = k
    for k, cls in enumerate(q.classes):
        images = {element.apply(p) for p in cls}
        targets = {index_of.get(x) for x in images}
        if None in targets:
            continue
        assert len(targets) == 1
        partial[q.quotient_points[k]] = q.quotient_points[targets.pop()]
    from test_wreath_oracle import reference_inference

    known = [0] * q.n
    for p in q.quotient_points:
        if p.pos == known[p.ray - 1]:
            known[p.ray - 1] += 1
    return reference_inference(partial, q.n, known)


def test_quotient_of_singleton_system_is_identity_map():
    d = delta_k(3, 2)
    system = BlockSystem.from_lists([[(1, 0)], [(1, 1)]])
    q = quotient(d, system, depth=30)
    for g, img in zip(d.generators, q.induced):
        assert img == g
    assert q.kernel_generators == ()


def test_quotient_class_order_is_initial_segment():
    group = pair_preserving_group()
    q = quotient(group, pair_blocks(), depth=60)
    for ray in (1, 2):
        ranks = sorted(p.pos for p in q.quotient_points if p.ray == ray)
        assert ranks == list(range(len(ranks)))
    mins = [cls[0] for cls in q.classes]
    ordered = sorted(range(len(mins)), key=lambda k: mins[k])
    qpts = [q.quotient_points[k] for k in ordered]
    assert qpts == sorted(qpts)


# -- the block axiom against the element-word reference ------------------------------


def reference_verification(group, system, depth):
    """``verify_block_system`` as an element-word search: one breadth-first
    enumeration of group elements of word length <= 3, each block's image
    taken under every element in turn."""
    _require_margin(group, depth)
    _check_in_window(system.blocks, group.n, depth)
    witnesses = []
    orbit_ok = True
    for cls in orbit_windows(group, depth // 2).classes:
        hits = [i for i, b in enumerate(system.blocks) if set(b) & set(cls)]
        if len(hits) != 1:
            orbit_ok = False
            witnesses.append(("orbit", cls[0], tuple(hits)))
    window = RaySystem(group.n).window(depth)
    bsets = [set(b) for b in system.blocks]
    violations = {}
    gens = group.symmetric_generators()
    for path, w in bounded_words(identity(group.n), gens, HoughtonElement.compose, 3):
        for i, bset in enumerate(bsets):
            if i in violations:
                continue
            img = {w.apply(p) for p in bset}
            if any(q not in window for q in img):
                continue
            if img & bset and img != bset:
                violations[i] = (path, img)
        if len(violations) == len(bsets):
            break
    k = len(group.generators)
    labels = [f"gen{i}" for i in range(k)] + [f"gen{i}^-1" for i in range(k)]
    for i, (path, img) in sorted(violations.items()):
        witnesses.append(("block", i, "*".join(labels[j] for j in path), tuple(sorted(img))))
    multi_ray = 0
    for cls in congruence_classes(group, system, depth):
        if len(cls) > 1 and len({p.ray for p in cls}) > 1:
            multi_ray += 1
    return BlockVerification(
        valid=orbit_ok and not violations,
        orbit_axiom=orbit_ok,
        block_axiom=not violations,
        witnesses=tuple(witnesses),
        multi_ray_translate_count=multi_ray,
    )


def conjugated(group, system, c):
    """c^-1 G c, which has the block system moved by c."""
    gens = [c.inverse().compose(g).compose(c) for g in group.generators]
    blocks = [[c.apply(RayPoint(*p)) for p in b] for b in system.blocks]
    return GeneratedSubgroup.from_elements(group.n, gens), BlockSystem.from_lists(blocks)


def random_system(n, rng):
    """One to three disjoint blocks of one to three points near the origin."""
    pool = [(ray, pos) for ray in range(1, n + 1) for pos in range(7)]
    points = rng.sample(pool, rng.randint(1, 9))
    cuts = sorted(rng.sample(range(1, len(points)), min(len(points) - 1, rng.randint(0, 2))))
    blocks = [points[a:b] for a, b in zip([0] + cuts, cuts + [len(points)])]
    return BlockSystem.from_lists([b for b in blocks if len(b) <= 3] or [points[:1]])


def test_block_axiom_matches_the_element_word_reference():
    rng = random.Random(31)
    h3 = GeneratedSubgroup.from_elements(3, houghton_generators(3))
    bases = [
        (pair_preserving_group(), pair_blocks()),
        (delta_k(3, 2), BlockSystem.from_lists([[(1, 0)], [(1, 1)]])),
        (h3, BlockSystem.from_lists([[(1, 0)]])),
    ]
    # at depth 8, gen0*gen0 sends {(1,5), (1,7)} to {(1,7), (1,9)}, past the
    # window's edge, so the witness is the in-window gen0^-1*gen0^-1
    edge = BlockSystem.from_lists([[(1, 5), (1, 7)]])
    cases = []
    for group, valid in bases:
        cases.append((group, valid))
        cases += [(group, random_system(group.n, rng)) for _ in range(12)]
        for _ in range(2):
            c = random_element(group.n, 4, 1, rng)
            conj, moved = conjugated(group, valid, c)
            cases.append((conj, moved))
            cases += [(conj, random_system(group.n, rng)) for _ in range(6)]
    # the shallowest window the margin allows puts some images past its edge
    cases = [(g, s, rng.choice([max(2 * _require_margin(g, 80), 8), 40])) for g, s in cases]
    seen = set()
    for group, system, depth in cases + [(h3, edge, 8)]:
        want = reference_verification(group, system, depth)
        assert verify_block_system(group, system, depth) == want, (system, depth)
        blocks = [w for w in want.witnesses if w[0] == "block"]
        seen.add("valid" if want.valid else "invalid")
        seen.add(f"{min(len(blocks), 2)} violating blocks")
        seen.update(f"{w[2].count('*') + 1} letters" for w in blocks)
    assert seen == {
        "valid", "invalid", "0 violating blocks", "1 violating blocks", "2 violating blocks",
        "1 letters", "2 letters", "3 letters",
    }
    edge_witness = verify_block_system(h3, edge, 8).witnesses[-1]
    assert edge_witness == ("block", 0, "gen0^-1*gen0^-1", ((1, 3), (1, 5)))
