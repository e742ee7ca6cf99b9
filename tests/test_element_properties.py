"""Group laws, hashing and JSON round trips of seeded random elements.

The descent caches and the window caches key on ``HoughtonElement`` equality
and hash, so equal permutations must hash equal however they were spelled.
Every property draws seeds for ``random_element``; the runs are derandomized
and bounded, so the suite stays deterministic.
"""

import json

from hypothesis import given, settings, strategies as st

from houghton_kit.elements import HoughtonElement, identity, random_element
from houghton_kit.rays import RayPoint, RaySystem

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)

rays = st.integers(2, 4)
seeds = st.integers(0, 2**31 - 1)


def element(n, seed):
    return random_element(n, head_budget=6, t_bound=2, seed=seed)


@PROPERTY
@given(rays, seeds, seeds, seeds)
def test_composition_is_associative(n, a, b, c):
    f, g, h = element(n, a), element(n, b), element(n, c)
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


@PROPERTY
@given(rays, seeds, seeds)
def test_composition_follows_the_points(n, a, b):
    # "f then g" on every point of a window deep enough for both heads
    f, g = element(n, a), element(n, b)
    fg = f.compose(g)
    depth = f.threshold + g.threshold + 2 * (f.max_shift() + g.max_shift()) + 1
    for p in RaySystem(n).window(depth):
        assert fg.apply(p) == g.apply(f.apply(p))


@PROPERTY
@given(rays, seeds)
def test_an_element_times_its_inverse_is_the_identity(n, a):
    g = element(n, a)
    one = identity(n)
    assert g.compose(g.inverse()) == one
    assert g.inverse().compose(g) == one
    assert g.compose(g.inverse()).is_identity()


@PROPERTY
@given(rays, seeds, st.integers(-4, 4), st.integers(-4, 4))
def test_powers_add(n, a, i, j):
    g = element(n, a)
    assert (g ** i).compose(g ** j) == g ** (i + j)


@PROPERTY
@given(rays, seeds, seeds)
def test_equal_elements_hash_equal_whatever_their_spelling(n, a, b):
    g, h = element(n, a), element(n, b)
    detour = g.compose(h).compose(h.inverse())
    assert detour == g and hash(detour) == hash(g)
    # a head entry that agrees with the translation is dropped on construction
    ray = 1 + a % n
    p = RayPoint(ray, g.threshold + g.max_shift())
    spelled = HoughtonElement(n, g.t, dict(g.head) | {p: g.apply(p)})
    assert spelled == g and hash(spelled) == hash(g)
    assert len({g, detour, spelled}) == 1


@PROPERTY
@given(rays, seeds)
def test_json_round_trip_gives_the_same_element(n, a):
    g = element(n, a)
    back = HoughtonElement.from_json_dict(json.loads(g.to_json()))
    assert back == g and hash(back) == hash(g)
    assert back.to_json_dict() == g.to_json_dict()
