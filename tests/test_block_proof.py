"""The finitary alternating proof that no finite block holds two points.

Soundness is checked against the window-bounded search, which the proof
skips, and against the naive reference search of ``test_window_closures``:
no certified group yields a block system, and no group with one is
certified.  The witnesses are checked as permutation groups, against
``finperm`` and, where it is installed, sympy.
"""

import random
from functools import lru_cache
from itertools import permutations
from math import factorial

import pytest

from houghton_kit.blocks import (
    PROOF_CAVEAT,
    WINDOW_CAVEAT,
    BlockSearchResult,
    _commutator_cycle,
    _finitary_alternating_proof,
    _letters,
    _search_block_systems,
    _small_cycle,
    _witness_cycles,
    find_block_systems,
)
from houghton_kit.classify import classify
from houghton_kit.elements import (
    HoughtonElement,
    commutator,
    from_cycles,
    generator,
    houghton_generators,
    identity,
    random_element,
    transposition,
)
from houghton_kit.errors import DomainError, InconclusiveError
from houghton_kit.finperm import FinitePermGroup
from houghton_kit.rays import RayPoint, code_of, point_of
from houghton_kit.subgroups import GeneratedSubgroup, delta_k, translation_lattice
from test_classify_metamorphic import seeded_group
from test_window_closures import block_preserving_group, orbit_test_groups, reference_search

try:
    from sympy.combinatorics import Permutation, PermutationGroup
except ImportError:
    Permutation = PermutationGroup = None


@lru_cache(maxsize=1)
def proof_test_groups():
    """``orbit_test_groups()`` and 80 seeded block-preserving groups: 131 groups."""
    rng = random.Random(900)
    return tuple(orbit_test_groups() + [block_preserving_group(rng) for _ in range(80)])


def searches(group):
    """Per depth 24 and 40, the systems the search finds, or None when it is inconclusive."""
    out = []
    for depth in (24, 40):
        try:
            out.append((depth, _search_block_systems(group, depth).systems))
        except InconclusiveError:
            out.append((depth, None))
    return out


def test_no_certified_group_has_a_block_system_and_no_group_with_one_is_certified():
    certified = with_systems = 0
    for group in proof_test_groups():
        proof = _finitary_alternating_proof(group)
        certified += proof is not None
        if translation_lattice(group).rank != group.n - 1:
            continue  # no block size bound, so no search to compare with
        for depth, systems in searches(group):
            if systems:
                with_systems += 1
                assert proof is None
            if proof is not None:
                assert not systems
                assert not reference_search(group, depth)
                assert find_block_systems(group, depth) == BlockSearchResult((), PROOF_CAVEAT)
    # two of the 34 need the second round of conjugates, one of them the inverses too
    assert certified == 34
    assert with_systems >= 80


def pair_group():
    return GeneratedSubgroup.from_elements(
        2,
        [
            generator(2, 2) ** 2,
            transposition(2, (1, 0), (1, 1)),
            from_cycles(2, [[(1, 0), (1, 2)], [(1, 1), (1, 3)]]),
        ],
    )


def test_the_pair_group_is_never_certified():
    group = pair_group()
    assert _finitary_alternating_proof(group) is None
    assert "_symmetric" not in vars(group)  # the proof builds no inverse element
    classify(group)
    assert "_symmetric" in vars(group)  # the window search spells words in them
    result = find_block_systems(group, 40)
    assert result.caveat == WINDOW_CAVEAT
    assert result.systems == _search_block_systems(group, 40).systems != ()
    rng = random.Random(17)
    for _ in range(10):
        # conjugated by a word in its own generators, as the benchmark does
        c = identity(2)
        for _ in range(rng.randint(1, 4)):
            c = c * rng.choice(group.symmetric_generators())
        conj = GeneratedSubgroup(2, tuple(c.inverse() * g * c for g in group.generators))
        assert _finitary_alternating_proof(conj) is None


def finite_orbit_group():
    """On 2 rays: a finite orbit {(1,0), ..., (1,3)} with the blocks {0,1}, {2,3}.

    The shift fixes (1,0) to (1,3); a 3-cycle on (1,4) to (1,6) alone would
    certify the one infinite orbit.
    """
    head = {RayPoint(1, p): RayPoint(1, p) for p in range(4)}
    head.update({RayPoint(2, 0): RayPoint(1, 4), RayPoint(2, 1): RayPoint(1, 5)})
    shift = HoughtonElement(2, (2, -2), head)
    return GeneratedSubgroup.from_elements(
        2,
        [
            shift,
            transposition(2, (1, 0), (1, 1)),
            from_cycles(2, [[(1, 0), (1, 2)], [(1, 1), (1, 3)]]),
            from_cycles(2, [[(1, 4), (1, 5), (1, 6)]]),
        ],
    )


def test_a_finite_orbit_or_a_fixed_ray_defeats_the_proof():
    finite = finite_orbit_group()
    assert _finitary_alternating_proof(finite) is None
    assert find_block_systems(finite, 40).systems
    # ray 3 is moved only by a 3-cycle, which would certify the infinite orbit
    fixed_ray = GeneratedSubgroup(
        3, (generator(3, 2), from_cycles(3, [[(3, 2), (3, 9), (1, 4)]]))
    )
    assert _finitary_alternating_proof(fixed_ray) is None
    assert _finitary_alternating_proof(GeneratedSubgroup(2, ())) is None
    # <g_2> is Z acting by translation: no finitary element but the identity
    assert _finitary_alternating_proof(GeneratedSubgroup(2, (generator(2, 2),))) is None


def test_a_witness_set_that_misses_a_generator_image_defeats_the_proof():
    # Sym({0, 1, 2}) lies in the group, but the group keeps the runs
    # {3m, 3m+1, 3m+2} as blocks, and the shift moves S = {0, 1, 2} off itself
    group = GeneratedSubgroup.from_elements(
        2,
        [
            generator(2, 2) ** 3,
            transposition(2, (1, 0), (1, 1)),
            transposition(2, (1, 1), (1, 2)),
            from_cycles(2, [[(1, 0), (1, 3)], [(1, 1), (1, 4)], [(1, 2), (1, 5)]]),
        ],
    )
    assert _finitary_alternating_proof(group) is None
    assert any(
        system.blocks[0] == ((1, 0), (1, 1), (1, 2))
        for system in find_block_systems(group, 40).systems
    )


def test_the_proof_needs_no_window_and_no_full_rank_lattice():
    # two copies of H_2, on rays 1-2 and on rays 3-4: rank 2 of 3
    shift = HoughtonElement(4, (0, 0, 1, -1), {RayPoint(4, 0): RayPoint(3, 0)})
    group = GeneratedSubgroup.from_elements(
        4,
        [generator(4, 2), shift, transposition(4, (1, 1), (1, 2)), transposition(4, (3, 1), (3, 2))],
    )
    assert len(_finitary_alternating_proof(group)) == 2
    for depth in (1, 40):
        assert find_block_systems(group, depth) == BlockSearchResult((), PROOF_CAVEAT)
    with pytest.raises(DomainError, match="full-rank"):
        _search_block_systems(group, 40)


def permutation(cycle):
    """A witness cycle as a point mapping."""
    return dict(zip(cycle, cycle[1:] + cycle[:1]))


def test_witnesses_generate_the_alternating_or_symmetric_group_of_their_set():
    checked = larger = 0
    for group in proof_test_groups() + (delta_k(5, 3), delta_k(4, 2)):
        for points, witnesses in _finitary_alternating_proof(group) or ():
            assert len(points) >= 3 and set(points) == {p for c in witnesses for p in c}
            assert all(len(c) in (2, 3) for c in witnesses)
            if len(points) > 30:
                continue
            want = {factorial(len(points)) // 2, factorial(len(points))}
            order = FinitePermGroup(points, [permutation(c) for c in witnesses]).order()
            assert order in want
            if Permutation is not None:
                index = {p: i for i, p in enumerate(points)}
                perms = [
                    Permutation([[index[p] for p in c]], size=len(points)) for c in witnesses
                ]
                assert PermutationGroup(perms).order() == order
            checked += 1
            larger += len(points) > 3
    assert checked >= 40 and larger >= 5


def test_every_orbit_has_one_certified_set_meeting_its_generator_images():
    for group in proof_test_groups():
        proof = _finitary_alternating_proof(group)
        for points, _ in proof or ():
            support = set(points)
            for g in group.generators:
                assert support & {g.apply(p) for p in points}


@pytest.mark.parametrize("seed", range(4))
def test_commutator_and_conjugate_cycles_match_the_element_products(seed):
    groups = proof_test_groups()
    rng = random.Random(40 + seed)
    matched = 0
    for group in rng.sample(groups, 20):
        gens, letters = group.symmetric_generators(), _letters(group)
        k = len(group.generators)
        # every ordered pair: the finitary candidates depend on which member is finitary
        for i, j in permutations(range(k), 2):
            a, b = group.generators[i], group.generators[j]
            full = commutator(a, b)
            cycle = _commutator_cycle(letters[i], letters[j], letters[k + i], letters[k + j])
            assert cycle == _small_cycle(full._head)
            if cycle is None:
                continue
            matched += 1
            cycle = tuple(point_of(group.n, c) for c in cycle)
            assert from_cycles(group.n, [cycle]) == full
            for c in gens:
                image = tuple(c.apply(p) for p in cycle)
                assert from_cycles(group.n, [image]) == c.inverse() * full * c
    assert matched > 0


@pytest.mark.parametrize("n, k", [(3, 2), (4, 2), (5, 3), (3, 1), (4, 1), (2, 1)])
def test_conjugated_delta_k_and_houghton_groups_are_certified(n, k):
    # the classify inputs of the benchmark: delta_k(n, k), and H_n for k = 1
    base = delta_k(n, k) if k > 1 else GeneratedSubgroup.from_elements(n, houghton_generators(n))
    rng = random.Random(70 + n + k)
    for _ in range(6):
        c = random_element(n, head_budget=3, t_bound=1, seed=rng)
        group = GeneratedSubgroup(n, tuple(c.inverse() * g * c for g in base.generators))
        classify(group)
        assert "_symmetric" not in vars(group)  # no symmetric generators on the proof's path
        proof = _finitary_alternating_proof(group)
        assert proof is not None and len(proof) == k


def merged_supports(cycles):
    """The connected unions of the cycles' supports, each cycle merging every union it meets."""
    unions = []
    for c in cycles:
        union = set(c)
        rest = []
        for u in unions:
            if u & union:
                union |= u
            else:
                rest.append(u)
        unions = rest + [union]
    return unions


def test_the_one_pass_proof_agrees_with_the_whole_witness_stream():
    rng = random.Random(31)
    proofs = 0
    for group in proof_test_groups() + tuple(seeded_group(rng) for _ in range(300)):
        n, orbits = group.n, group.orbits
        cycles = list(_witness_cycles(group))
        certified = [
            s for s in merged_supports(cycles)
            if len(s) >= 3 and all(any(a._image(c) in s for c in s) for a in group.generators)
        ]
        infinite = not orbits.has_fixed_run() and orbits.tail_roots() >= set(orbits.roots)
        keys = {orbits.key(point_of(n, min(s))) for s in certified}
        proof = _finitary_alternating_proof(group)
        assert (proof is not None) == (infinite and keys >= orbits.tail_roots())
        for points, witnesses in proof or ():
            codes = {code_of(n, p) for p in points}
            assert len(codes) >= 3 and all(any(a._image(c) in codes for c in codes) for a in group.generators)
            assert any(codes <= s for s in certified)
            witness_codes = [tuple(code_of(n, p) for p in w) for w in witnesses]
            assert set(witness_codes) <= set(cycles)
            assert merged_supports(witness_codes) == [codes]
        proofs += proof is not None
    assert proofs > 100
