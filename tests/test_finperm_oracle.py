"""finperm checked against sympy's permutation groups on seeded random groups.

sympy is a test-only oracle: the module's tests are skipped when it is not
installed, while ``restriction`` stays importable.  Both libraries compose
permutations left to right, so image arrays carry over unchanged.  sympy's
``minimal_block`` answers False on intransitive groups, so minimal blocks are
compared orbit by orbit, on the restriction to the orbit.
"""

import random

import pytest

from houghton_kit.errors import DomainError
from houghton_kit.finperm import FinitePermGroup

try:
    from sympy.combinatorics import Permutation, PermutationGroup
except ImportError:
    Permutation = PermutationGroup = None

pytestmark = pytest.mark.skipif(Permutation is None, reason="sympy is not installed")


def restriction(group, points):
    """The group acting on an invariant subset of its domain."""
    pts = tuple(points)
    index = {p: i for i, p in enumerate(group.domain)}
    gens = []
    for g in group.gens:
        img = {p: group.domain[g[index[p]]] for p in pts}
        if not set(img.values()) <= set(pts):
            raise DomainError("subset is not invariant")
        gens.append(img)
    return FinitePermGroup(pts, gens)


def random_perm(rng, d):
    """A random permutation, a transposition, or one preserving blocks of a divisor size."""
    images = list(range(d))
    kind = rng.randrange(3)
    if kind == 0:
        rng.shuffle(images)
    elif kind == 1 and d > 1:
        a, b = rng.sample(range(d), 2)
        images[a], images[b] = images[b], images[a]
    else:
        size = rng.choice([b for b in range(1, d + 1) if d % b == 0])
        blocks = list(range(d // size))
        rng.shuffle(blocks)
        for i, j in enumerate(blocks):
            inside = list(range(size))
            rng.shuffle(inside)
            for k in range(size):
                images[i * size + k] = j * size + inside[k]
    return images


def random_group(rng):
    d = rng.randint(1, 9)
    return FinitePermGroup(range(d), [random_perm(rng, d) for _ in range(rng.randint(0, 3))])


def as_sympy(gens, d):
    return PermutationGroup([Permutation(list(g)) for g in gens] or [Permutation(list(range(d)))])


def groups(seed, count=30):
    rng = random.Random(seed)
    return [(random_group(rng), rng) for _ in range(count)]


@pytest.mark.parametrize("seed", range(10))
def test_orbits_and_order_match_sympy(seed):
    for group, _ in groups(seed):
        d = len(group.domain)
        oracle = as_sympy(group.gens, d)
        assert sorted(group.orbits()) == sorted(tuple(sorted(o)) for o in oracle.orbits())
        assert group.order() == oracle.order()


@pytest.mark.parametrize("seed", range(10))
def test_membership_matches_sympy(seed):
    for group, rng in groups(100 + seed):
        d = len(group.domain)
        oracle = as_sympy(group.gens, d)
        for _ in range(6):
            perm = random_perm(rng, d)
            if group.gens and rng.random() < 0.5:
                # a product of generators is a member
                for _ in range(rng.randint(1, 5)):
                    g = rng.choice(group.gens)
                    perm = [g[i] for i in perm]
            assert group.membership(perm) == oracle.contains(Permutation(perm))


@pytest.mark.parametrize("seed", range(10))
def test_minimal_blocks_match_sympy_orbit_by_orbit(seed):
    for group, _ in groups(200 + seed):
        for orbit in group.orbits():
            if len(orbit) < 2:
                continue
            restricted = restriction(group, orbit)
            oracle = as_sympy(restricted.gens, len(orbit))
            for i in range(len(orbit)):
                for j in range(i + 1, len(orbit)):
                    labels = oracle.minimal_block([i, j])
                    want = frozenset(orbit[k] for k in range(len(orbit)) if labels[k] == labels[i])
                    assert group.minimal_block(orbit[i], orbit[j]) == want
