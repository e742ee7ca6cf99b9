"""Group laws, hashing, JSON round trips and rejections of seeded random elements.

The descent caches and the window caches key on ``HoughtonElement`` equality
and hash, so equal permutations must hash equal however they were spelled.
Every property draws seeds for ``random_element``; the runs are derandomized
and bounded, so the suite stays deterministic.
"""

import copy
import json

from hypothesis import given, settings, strategies as st

from houghton_kit.elements import HoughtonElement, identity, random_element
from houghton_kit.errors import InvalidElementError
from houghton_kit.rays import RayPoint, RaySystem
from test_wreath_oracle import read_partial

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


def single_field_mutations(data, k):
    """(label, mutated data, invariant it breaks) for one field at a time.

    ``k`` picks the ray, translation entry or head entry a mutation touches.
    """
    n, t, threshold, head = data["n"], data["t"], data["threshold"], data["head"]

    def with_field(key, value):
        out = copy.deepcopy(data)
        out[key] = value
        return out

    out = [
        ("n + 1", with_field("n", n + 1), "format"),
        ("n = 0", with_field("n", 0), "format"),
        ("n a string", with_field("n", str(n)), "format"),
        ("t off zero-sum", with_field("t", t[:k % n] + [t[k % n] + 1] + t[k % n + 1:]), "zero-sum"),
        ("t a float", with_field("t", t[:-1] + [float(t[-1])]), "format"),
        ("t too short", with_field("t", t[:-1]), "format"),
        ("threshold + 1", with_field("threshold", threshold + 1), "canonical-form"),
        ("threshold - 1", with_field("threshold", threshold - 1), "canonical-form"),
        ("threshold a float", with_field("threshold", threshold + 0.5), "format"),
        ("head not a list", with_field("head", {}), "format"),
    ]
    # a deep entry that agrees with the translation is not canonical
    ray = 1 + k % n
    pos = threshold + max(map(abs, t))
    extra = [[ray, pos], [ray, pos + t[ray - 1]]]
    out.append(("head with a translating entry", with_field("head", head + [extra]), "canonical-form"))
    for key in ("n", "t", "threshold", "head"):
        missing = copy.deepcopy(data)
        del missing[key]
        out.append((f"no {key}", missing, "format"))
    if head:
        i = k % len(head)
        (ray, pos), _ = head[i]
        # a dropped entry translates: below -t_j off the ray, else onto a hit point
        broken = "translation-validity" if pos + t[ray - 1] < 0 else "bijection"
        out.append(("head entry dropped", with_field("head", head[:i] + head[i + 1:]), broken))
        bad = copy.deepcopy(head)
        bad[i][0] = bad[i][0] + [0]
        out.append(("head point of three ints", with_field("head", bad), "format"))
        for label, point in (("past ray n", [n + 1, 0]), ("on ray 0", [0, 0]),
                             ("at position -1", [ray, -1])):
            off = copy.deepcopy(head)
            off[i][0] = point
            out.append((f"head point {label}", with_field("head", off), "format"))
        if len(head) > 1:
            twice = copy.deepcopy(head)
            twice[i][1] = list(head[(i + 1) % len(head)][1])
            out.append(("head image hit twice", with_field("head", twice), "bijection"))
    return out


@PROPERTY
@given(rays, seeds, st.integers(0, 2**16))
def test_from_json_dict_rejects_each_single_field_mutation(n, a, k):
    data = element(n, a).to_json_dict()
    for label, mutated, invariant in single_field_mutations(data, k):
        try:
            HoughtonElement.from_json_dict(mutated)
        except InvalidElementError as exc:
            assert exc.invariant == invariant, (label, str(exc))
            assert str(exc).startswith(f"{invariant}: "), (label, str(exc))
        else:
            raise AssertionError(f"{label}: accepted {mutated}")


@PROPERTY
@given(rays, seeds, st.integers(0, 6))
def test_infer_eventual_translation_gives_back_the_element(n, a, extra):
    # the quotient's inference kernel on a partial map: past the threshold
    # every point translates, so the top half of a window of depth
    # >= 2 * threshold + 4 reads t and the rest is the head
    g = element(n, a)
    depth = 2 * g.threshold + 4 + extra
    partial = {p: g.apply(p) for p in RaySystem(n).window(depth)}
    assert read_partial(partial, n, (depth,) * n) == g
