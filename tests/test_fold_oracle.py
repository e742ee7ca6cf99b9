"""The orbit fold ``elements._fold_orbits`` against the fold it replaced.

``reference_fold`` is the earlier ``_fold_orbits``, copied here: it builds
each ray's segments from a list of cuts, and for each generator a dict of
node moves, interior and edge ranges per dense stretch, that head moves
overwrite.  The new fold emits one pair per dense point and generator and
reads nodes from a dict.  Both pair sets generate the same equivalence, and
the closure roots each class at its least node, so the segments and the
roots must be equal.  The inputs are the metamorphic suite's seeded groups
(``seeded_group``), groups of random elements with n = 1..5, and single
elements at the CLI's scale, folded alone as ``cycle_structure`` folds them.
"""

import random
from math import gcd, inf

from test_classify_metamorphic import seeded_group

from houghton_kit.elements import (
    FoldedOrbits,
    _fold_orbits,
    from_cycles,
    generator,
    random_element,
    transposition,
)
from houghton_kit.finperm import _close


def reference_fold(n: int, generators: tuple) -> FoldedOrbits:
    """The ``FoldedOrbits`` of the group the generators span."""
    touched = [set() for _ in range(n)]
    for c in (c for g in generators for pair in g._items for c in pair):
        touched[c % n].add(c // n)
    shifts = list(zip(*(g.t for g in generators))) or [()] * n  # per ray
    segments, size = [], 0
    for ray_shifts, positions in zip(shifts, touched):
        s, m = max(map(abs, ray_shifts), default=0), gcd(*ray_shifts)
        dense: list = []
        for pos in sorted(positions):
            if dense and pos - s - dense[-1][1] < max(2 * s, 1):  # a run is 2s long, not empty
                dense[-1][1] = pos + s + 1
            else:
                dense.append([max(pos - s, 0), pos + s + 1])
        segs, cuts = [], [0, *(x for stretch in dense for x in stretch), inf]
        for k, (lo, hi) in enumerate(zip(cuts, cuts[1:])):  # a run, a dense stretch, ..., a run
            if lo < hi:
                segs.append((lo, hi, size, hi - lo if k % 2 else m))
                size += segs[-1][3]
        segments.append(tuple(segs))
    orbits = FoldedOrbits(tuple(segments))
    node = orbits.node
    stretches = [[seg for seg in segs if seg[3] == seg[1] - seg[0]] for segs in segments]
    pairs = []
    for g in generators:
        moves = {}  # node -> node of its image, where a translation or the head moves it
        for ray, dense in enumerate(stretches, start=1):  # a run's moves stay at their nodes
            t = g.t[ray - 1]
            for start, stop, base, _ in dense if t else ():
                lo, hi = start + max(-t, 0), stop - max(t, 0)  # x + t stays in the stretch
                moves.update((i, i + t) for i in range(base + lo - start, base + hi - start))
                # x + t < 0 only for a head point, whose entry the head loop sets
                edge = (*range(start, lo), *range(hi, stop))
                moves.update((base + x - start, node(ray, x + t)) for x in edge if x + t >= 0)
                # run points x with g(x) = x + t in the stretch: g^-1 of its dense points
                entering = range(max(start - t, 0), start) if t > 0 else range(stop, stop - t)
                pairs.extend((node(ray, x), node(ray, x + t)) for x in entering)
        for p, q in g._items:
            moves[node(p % n + 1, p // n)] = node(q % n + 1, q // n)
        pairs.extend(moves.items())
    orbits.roots = _close(size, pairs)
    return orbits



def assert_same_fold(n, generators):
    got, want = _fold_orbits(n, generators), reference_fold(n, generators)
    assert got.segments == want.segments, generators
    assert got.roots == want.roots, generators


def test_the_fold_matches_the_reference_on_seeded_groups():
    rng = random.Random(12345)
    for _ in range(3000):
        group = seeded_group(rng)
        assert_same_fold(group.n, group.generators)


def test_the_fold_matches_the_reference_on_groups_of_random_elements():
    rng = random.Random(12346)
    for _ in range(1000):
        n = rng.randint(1, 5)
        gens = tuple(random_element(n, seed=rng) for _ in range(rng.randint(1, 3)))
        assert_same_fold(n, gens)


def cli_scale_element(rng, n, threshold):
    """A random element times a cycle of 2-5 points, one at the threshold, as CLI inputs are."""
    pts, want = {(rng.randint(1, n), threshold - 1)}, rng.randint(2, 5)
    while len(pts) < want:
        pts.add((rng.randint(1, n), rng.randrange(3, threshold)))
    cycle = from_cycles(n, [sorted(pts, key=lambda p: rng.random())])
    return random_element(n, head_budget=3, t_bound=2, seed=rng).compose(cycle)


def test_the_fold_of_one_element_matches_the_reference_at_cli_scale():
    rng = random.Random(12347)
    for i in range(400):
        threshold = round(10 ** (1 + 3 * (i % 10) / 9))  # 10 to 10^4
        g = cli_scale_element(rng, 2 + i % 4, threshold)
        assert_same_fold(g.n, (g,))
    far = transposition(5, (1, 0), (2, 99999)).compose(generator(5, 2))
    assert_same_fold(5, (far,))
    assert_same_fold(3, ())
