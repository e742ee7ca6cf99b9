"""The folded-orbit recount behind ``cycle_structure``'s ``window_checked``.

``elements._folded_cycle_counts`` counts the cycles of g on the folded orbit
certificate of <g>.  Two oracles that share nothing with it check it: the
window trace ``window_cycle_counts`` and the head-indexed walk
``_finite_cycles`` with the infinite count sum |t_i| / 2.
"""

import random

import pytest

from houghton_kit.elements import (
    _finite_cycles,
    _fold_orbits,
    _folded_cycle_counts,
    cycle_structure,
    generator,
    random_element,
    transposition,
    window_cycle_counts,
)


def seeded_element(n, rng):
    """A random element, in one of four cases times a transposition reaching 100 to 2,000."""
    g = random_element(n, head_budget=6, t_bound=2, seed=rng)
    if rng.random() < 0.25:
        near = (rng.randint(1, n), rng.randrange(6))
        far = (rng.randint(1, n), rng.randrange(100, 2000))
        g = g.compose(transposition(n, near, far))
    return g


def walk_counts(g):
    return sorted(len(c) for c in _finite_cycles(g)), sum(abs(x) for x in g.t) // 2


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_recount_matches_the_window_trace_and_the_walk(n):
    rng = random.Random(1600 + n)
    for _ in range(750):
        g = seeded_element(n, rng)
        assert _folded_cycle_counts(g) == window_cycle_counts(g) == walk_counts(g), g


def test_the_cli_bound_case_folds_to_few_nodes():
    # a 10^5-point cycle: the walk lists it, the recount folds its runs
    g = transposition(5, (1, 0), (2, 99999)).compose(generator(5, 2))
    roots = _fold_orbits(g.n, (g,)).roots
    s, head = g.max_shift(), len(g.head)
    # each head point and image is a dense stretch of at most 2s + 1 nodes,
    # and each ray has at most one run more than it has stretches
    assert len(roots) <= 2 * head * (2 * s + 1) + (2 * head + g.n) * s
    assert _folded_cycle_counts(g) == ([100000], 1) == walk_counts(g)
    cs = cycle_structure(g)
    assert cs.window_checked and cs.infinite_cycle_count == 1

