"""Element validation, the trusted constructor and the cycle walk against
reference code.

``quadratic_bijection_check`` is the original O(n * threshold) validator: it
walks every point below the threshold and compares the image set with the
per-ray target segments.  The linear-time validator must accept and reject
exactly the same inputs, and products, inverses and powers built without
validation must equal the validated construction from the same data.

``stepwise_finite_cycles`` is the original cycle walk, one point per step.
The walk that jumps over translation runs must list the same cycles, point
for point and in the same order, and ``element cycles --json`` must print
them as ``json.dumps`` prints the oracle's cycles.
"""

import json
import random

import pytest

from houghton_kit import elements
from houghton_kit.cli import cli_main
from houghton_kit.elements import (
    HoughtonElement,
    _cycle_runs,
    _finite_cycles,
    _threshold,
    cycle_structure,
    from_cycles,
    generator,
    identity,
    random_element,
    transposition,
)
from houghton_kit.errors import DomainError, InvalidElementError
from houghton_kit.rays import RayPoint, RaySystem, code_of, point_of


def quadratic_bijection_check(n, t, table, threshold):
    expected = set()
    for j in range(1, n + 1):
        for m in range(threshold + t[j - 1]):
            expected.add(RayPoint(j, m))
    seen = set()
    for j in range(1, n + 1):
        tj = t[j - 1]
        for pos in range(threshold):
            p = RayPoint(j, pos)
            q = table.get(p)
            if q is None:
                if pos + tj < 0:
                    raise InvalidElementError("translation-validity", f"{p}")
                q = RayPoint(j, pos + tj)
            if q in seen:
                raise InvalidElementError("bijection", f"{q} hit twice")
            seen.add(q)
    if seen != expected:
        raise InvalidElementError("bijection", "head region image mismatch")


def outcome(n, t, head):
    """None when the data is accepted, else (error type, invariant)."""
    try:
        HoughtonElement(n, t, head)
    except InvalidElementError as exc:
        return ("invalid", exc.invariant)
    except DomainError:
        return ("domain", None)
    return None


def random_head(rng, n):
    depth = rng.randint(1, 6)
    pts = [(rng.randint(1, n), rng.randrange(depth)) for _ in range(rng.randint(0, 6))]
    if rng.random() < 0.5:
        images = pts[:]
        rng.shuffle(images)
    else:
        images = [(rng.randint(1, n), rng.randrange(depth + 2)) for _ in pts]
    return dict(zip(pts, images))


def mutate(rng, g):
    """One field of a valid element's data changed at random."""
    n, t, head = g.n, list(g.t), {tuple(p): tuple(q) for p, q in g.head}
    kind = rng.choice(("image", "domain", "drop", "add", "shift", "swap"))
    keys = sorted(head)
    if kind == "image" and keys:
        p = rng.choice(keys)
        ray, pos = head[p]
        head[p] = (rng.randint(1, n), max(0, pos + rng.choice((-1, 1))))
    elif kind == "domain" and keys:
        p = rng.choice(keys)
        q = head.pop(p)
        head[(p[0], p[1] + 1)] = q
    elif kind == "drop" and keys:
        del head[rng.choice(keys)]
    elif kind == "add":
        p = (rng.randint(1, n), rng.randrange(g.threshold + 2))
        head[p] = (rng.randint(1, n), rng.randrange(g.threshold + 2))
    elif kind == "shift" and n > 1:
        i, j = rng.sample(range(n), 2)
        t[i] += 1
        t[j] -= 1
    elif kind == "swap" and len(keys) > 1:
        a, b = rng.sample(keys, 2)
        head[a], head[b] = head[b], head[a]
    return n, tuple(t), head


def cases():
    rng = random.Random(2024)
    for _ in range(1500):
        n = rng.randint(1, 5)
        t = tuple(random_element(n, t_bound=2, seed=rng).t)
        yield n, t, random_head(rng, n)
    for _ in range(1500):
        g = random_element(rng.randint(1, 5), head_budget=rng.randint(0, 6), seed=rng)
        yield mutate(rng, g)


def test_linear_check_accepts_and_rejects_like_the_quadratic_reference(monkeypatch):
    data = list(cases())
    fast = [outcome(*case) for case in data]
    def reference(n, t, table):
        points = {point_of(n, p): point_of(n, q) for p, q in table.items()}
        quadratic_bijection_check(n, t, points, _threshold(n, t, table))

    monkeypatch.setattr(HoughtonElement, "_validate_bijection", staticmethod(reference))
    slow = [outcome(*case) for case in data]
    assert [r is None for r in fast] == [r is None for r in slow]
    accepted = sum(r is None for r in fast)
    assert 300 < accepted < len(data) - 300


def test_rejections_name_translation_validity_exactly_when_a_low_point_translates_off_its_ray():
    # the name rule: translation-validity when some point below -t_j is off
    # the head table, else bijection
    named = 0
    for n, t, head in cases():
        got = outcome(n, t, head)
        if got is None or got[1] not in ("translation-validity", "bijection"):
            continue
        keys = {RayPoint(*p) for p in head}
        low_gap = any(
            RayPoint(j, pos) not in keys for j, tj in enumerate(t, 1) for pos in range(-tj)
        )
        assert got[1] == ("translation-validity" if low_gap else "bijection")
        named += 1
    assert named > 300


def test_trusted_products_inverses_and_powers_equal_the_validated_construction():
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(1, 5)
        g = random_element(n, head_budget=5, t_bound=2, seed=rng)
        h = random_element(n, head_budget=5, t_bound=2, seed=rng)
        for r in (g.compose(h), g.inverse(), g ** rng.randint(-4, 4)):
            rebuilt = HoughtonElement(r.n, r.t, r.head)
            assert rebuilt == r
            assert (rebuilt.threshold, rebuilt.head) == (r.threshold, r.head)


def test_trusted_constructor_canonicalises_like_the_validated_one():
    rng = random.Random(78)
    for _ in range(200):
        n = rng.randint(1, 5)
        g = random_element(n, head_budget=5, t_bound=2, seed=rng)
        raw = dict(g.head)
        for _ in range(rng.randint(0, 4)):
            ray, pos = rng.randint(1, n), rng.randrange(g.threshold + 4)
            raw[RayPoint(ray, pos)] = g.apply((ray, pos))
        trusted = HoughtonElement._trusted(n, g.t, [(code_of(n, p), code_of(n, q)) for p, q in raw.items()])
        validated = HoughtonElement(n, g.t, raw)
        assert trusted == validated
        assert (trusted.threshold, trusted.head) == (validated.threshold, validated.head)


@pytest.mark.parametrize("seed", range(5))
def test_codes_round_trip_and_the_head_keeps_the_point_order(seed):
    rng = random.Random(900 + seed)
    for n in range(1, 6):
        for _ in range(50):
            p = RayPoint(rng.randint(1, n), rng.randrange(10**6))
            c = rng.randrange(10**6)
            assert point_of(n, code_of(n, p)) == p and code_of(n, point_of(n, c)) == c
        depth = rng.randint(1, 12)
        # the window of depth D is the code prefix 0 .. nD - 1, position first
        by_code = sorted(RaySystem(n).window(depth), key=lambda p: (p.pos, p.ray))
        assert [code_of(n, p) for p in by_code] == list(range(n * depth))
        for _ in range(20):
            g = random_element(n, head_budget=6, t_bound=2, seed=rng)
            g = g.compose(random_element(n, head_budget=4, t_bound=1, seed=rng))
            head = g.head
            assert list(head) == sorted(head)
            assert all(type(x) is RayPoint for pair in head for x in pair)
            assert all(g.apply(p) == q and q != (p.ray, p.pos + g.t[p.ray - 1]) for p, q in head)
            assert g.threshold == max([-x for x in g.t] + [p.pos + 1 for p, _ in head] + [0])
            assert HoughtonElement.from_json_dict(g.to_json_dict()) == g
            assert repr(g) == f"HoughtonElement(n={n}, t={g.t}, head={list(head)})"


def test_parsing_a_far_transposition_is_linear_in_the_head():
    # a quadratic check would walk 3 * 10**6 points here
    far = 10**6
    g = transposition(3, (1, 0), (2, far))
    assert g.threshold == far + 1
    back = HoughtonElement.from_json_dict(g.to_json_dict())
    assert back == g
    assert back.apply((2, far)) == RayPoint(1, 0)


def stepwise_finite_cycles(g):
    seen = set()
    cycles = []
    for start, img in g.head:
        if start in seen or img == start:
            continue
        orbit = [start]
        orbit_set = {start}
        p = g.apply(start)
        escaped = False
        while p != start:
            if p.pos >= g.threshold and g.t[p.ray - 1] > 0:
                escaped = True
                break
            if p in orbit_set:
                raise AssertionError("orbit re-entered off its start; not a bijection")
            orbit.append(p)
            orbit_set.add(p)
            p = g.apply(p)
        seen.update(orbit_set)
        if not escaped:
            k = orbit.index(min(orbit))
            cycles.append(tuple(orbit[k:] + orbit[:k]))
    cycles.sort(key=lambda c: c[0])
    return tuple(cycles)


def scramble_over_translation(rng, n, threshold):
    """Cycles on points above the translation head, then a translation with |t_i| <= 3.

    Scramble points sit in few residue classes, so that orbits leave the
    head into long runs, come back in another class or escape.
    """
    t = [0] * n
    trans = identity(n)
    for j in range(2, n + 1):
        k = rng.randint(-3, 3)
        if abs(t[0] + k) <= 3:
            t[0] += k
            trans = trans.compose(generator(n, j) ** -k)
    positions = range(3, threshold)
    pts = {(rng.randint(1, n), threshold - 1)}
    while len(pts) < rng.randint(2, 7):
        pos = rng.choice(positions) if rng.random() < 0.5 else 3 + rng.randrange(6)
        pts.add((rng.randint(1, n), pos))
    pts = list(pts)
    rng.shuffle(pts)
    cut = rng.randint(1, len(pts))
    cycles = [c for c in (pts[:cut], pts[cut:]) if len(c) > 1]
    return from_cycles(n, cycles).compose(trans) if cycles else trans


def walk_cases():
    rng = random.Random(2026)
    for threshold in (10, 31, 100, 316, 1000, 3162, 10**4):
        for _ in range(20):
            yield scramble_over_translation(rng, rng.randint(2, 5), threshold)
    for _ in range(300):
        n = rng.randint(1, 5)
        g = random_element(n, head_budget=rng.randint(0, 8), t_bound=3, seed=rng)
        h = random_element(n, head_budget=rng.randint(0, 8), t_bound=3, seed=rng)
        yield g
        yield g.compose(h)
        yield g.compose(h).compose(g.inverse())
        yield g ** rng.choice((-3, -2, 2, 3))


def cycles_json(g, cycles):
    """``json.dumps`` of the ``element cycles`` payload of g with these cycles."""
    payload = {
        "finite_cycles": list(cycles),
        "infinite_cycles": sum(abs(x) for x in g.t) // 2,
        "window_checked": True,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def printed_cycles(g, path, capsys):
    """The stdout of ``element cycles --json`` on g, written to path."""
    path.write_text(g.to_json())
    capsys.readouterr()
    assert cli_main(["--json", "element", "cycles", "--file", str(path)]) == 0
    return capsys.readouterr().out


def test_element_cycles_prints_the_stepwise_cycles_as_json_dumps_does(tmp_path, capsys):
    path = tmp_path / "g.json"
    ray_counts, thresholds, shifts = set(), set(), set()
    for g in walk_cases():
        assert printed_cycles(g, path, capsys) == cycles_json(g, stepwise_finite_cycles(g))
        ray_counts.add(g.n)
        thresholds.add(g.threshold)
        shifts.update(g.t)
    assert ray_counts == {1, 2, 3, 4, 5}
    assert min(thresholds) <= 10 and max(thresholds) >= 10**4
    assert min(shifts) < 0 < max(shifts)


# g2, then the transposition of (1, 5) and (2, 5): one finite cycle of 11 points
F = generator(2, 2).compose(transposition(2, (1, 5), (2, 5)))


@pytest.mark.parametrize(
    "g, runs",
    [
        # the walk starts at (2, 0), the head point of least code
        (transposition(2, (1, 5), (2, 0)), ((1, range(5, 6)), (2, range(0, 1)))),
        # ... and the least point (1, 0) starts a run going up
        (F, ((1, range(0, 4)), (1, range(4, 5)), (2, range(5, 0, -1)), (2, range(0, 1)))),
        # a run going down stops at (1, 1), just above the least point
        (F.inverse(), ((1, range(0, 1)), (2, range(0, 5)), (2, range(5, 6)), (1, range(4, 0, -1)))),
    ],
    ids=["head-point", "run-going-up", "below-a-run-going-down"],
)
def test_a_cycle_is_listed_from_its_least_point(g, runs, tmp_path, capsys):
    assert _cycle_runs(g) == (runs,)
    want = stepwise_finite_cycles(g)
    assert cycle_structure(g).finite_cycles == _finite_cycles(g) == want
    assert printed_cycles(g, tmp_path / "g.json", capsys) == cycles_json(g, want)


def test_element_cycles_builds_no_point_per_listed_point(tmp_path, capsys, monkeypatch):
    g = transposition(3, (1, 0), (2, 10**4)).compose(generator(3, 2))
    want = cycles_json(g, _finite_cycles(g))
    assert sum(map(len, _finite_cycles(g))) > 10**4
    built = []
    new, point_of = RayPoint.__new__, elements.point_of

    def counted_new(cls, *args):
        built.append(args)
        return new(cls, *args)

    def counted_point_of(n, c):
        built.append(c)
        return point_of(n, c)

    def refused(cycles):
        raise AssertionError("the cycles were built as points")

    monkeypatch.setattr(RayPoint, "__new__", staticmethod(counted_new))
    monkeypatch.setattr(elements, "point_of", counted_point_of)
    monkeypatch.setattr(elements, "_run_points", refused)
    assert printed_cycles(g, tmp_path / "g.json", capsys) == want
    # reading the file checks each head point, twice per entry
    assert 0 < len(built) <= 4 * len(g._items)


def test_jumping_walk_lists_the_stepwise_cycles_exactly():
    long_runs = escapes = finite = 0
    for g in walk_cases():
        got = _finite_cycles(g)
        assert got == stepwise_finite_cycles(g)
        finite += len(got)
        long_runs += any(len(c) > 50 for c in got)
        escapes += any(g.apply(p).pos >= g.threshold for p, _ in g.head)
    assert finite > 300 and long_runs > 20 and escapes > 200


@pytest.mark.parametrize(
    "t, head",
    [
        # (1, 0) -> (1, 1), which is off the head and fixed
        ((0, 0), {(1, 0): (1, 1)}),
        # (1, 0) and (1, 1) share the image (1, 2)
        ((0, 0), {(1, 0): (1, 2), (1, 1): (1, 2), (1, 2): (1, 0)}),
        # the run from (1, 0) up to the head point (1, 3) is also the image of (2, 0)
        ((1, -1), {(1, 3): (1, 0), (2, 0): (1, 0)}),
        # the run up from (1, 2) stops at (1, 4), whose image re-enters the run
        ((1, -1), {(1, 0): (1, 2), (1, 4): (1, 3)}),
    ],
    ids=["fixed-off-head", "shared-head-image", "run-hit-twice", "run-re-entered"],
)
def test_walk_rejects_non_bijections_like_the_stepwise_walk(t, head):
    n = len(t)
    g = HoughtonElement._trusted(n, t, [(code_of(n, p), code_of(n, q)) for p, q in head.items()])
    with pytest.raises(AssertionError):
        stepwise_finite_cycles(g)
    with pytest.raises(AssertionError):
        _finite_cycles(g)


def test_walk_rejects_a_run_below_position_0():
    # (2, 5) runs down ray 2 with no head point below it; the stepwise walk
    # would never stop here
    g = HoughtonElement._trusted(2, (1, -1), [(code_of(2, (1, 0)), code_of(2, (2, 5)))])
    with pytest.raises(AssertionError):
        _finite_cycles(g)
