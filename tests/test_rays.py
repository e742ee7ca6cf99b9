import random

import pytest
from hypothesis import given, strategies as st

from houghton_kit.elements import from_cycles, generator, transposition
from houghton_kit.errors import DomainError
from houghton_kit.rays import RayPoint, RaySystem, as_point, deletion_order_iso, lex_compare

points = st.tuples(st.integers(1, 5), st.integers(0, 50))


def test_lex_compare_fixtures():
    assert lex_compare((1, 5), (2, 0)) == -1
    assert lex_compare((2, 3), (2, 3)) == 0
    assert lex_compare((3, 0), (2, 999)) == 1


def test_lex_compare_rejects_bad_ray():
    sys3 = RaySystem(3)
    with pytest.raises(DomainError):
        lex_compare((4, 0), (1, 0), sys3)
    with pytest.raises(DomainError):
        lex_compare((0, 0), (1, 0))


@given(points, points, points)
def test_lex_compare_total_order(a, b, c):
    assert lex_compare(a, b) == -lex_compare(b, a)
    if lex_compare(a, b) <= 0 and lex_compare(b, c) <= 0:
        assert lex_compare(a, c) <= 0


def test_deletion_iso_single_point():
    iso = deletion_order_iso(2, [(1, 0)])
    for k in range(1, 20):
        assert iso.forward((1, k)) == RayPoint(1, k - 1)
    for k in range(20):
        assert iso.forward((2, k)) == RayPoint(2, k)


def test_deletion_iso_empty_is_identity():
    iso = deletion_order_iso(3, [])
    for p in RaySystem(3).window(10):
        assert iso.forward(p) == p
        assert iso.inverse(p) == p


def test_deletion_iso_two_points_one_ray():
    iso = deletion_order_iso(3, [(2, 0), (2, 1)])
    assert iso.forward((2, 2)) == RayPoint(2, 0)
    assert iso.forward((2, 7)) == RayPoint(2, 5)
    assert iso.forward((1, 4)) == RayPoint(1, 4)
    assert iso.forward((3, 4)) == RayPoint(3, 4)


def test_deletion_iso_rejects_deleted_point():
    iso = deletion_order_iso(2, [(1, 3)])
    with pytest.raises(DomainError):
        iso.forward((1, 3))


def test_deletion_iso_roundtrip_on_window():
    rng = random.Random(7)
    deleted = {(rng.randint(1, 3), rng.randint(0, 15)) for _ in range(8)}
    iso = deletion_order_iso(3, deleted)
    for p in RaySystem(3).window(30):
        if tuple(p) in deleted:
            continue
        assert iso.inverse(iso.forward(p)) == p
    for p in RaySystem(3).window(20):
        assert iso.forward(iso.inverse(p)) == p


def test_deletion_iso_preserves_order_on_random_pairs():
    rng = random.Random(11)
    deleted = {(rng.randint(1, 4), rng.randint(0, 25)) for _ in range(12)}
    iso = deletion_order_iso(4, deleted)
    window = [p for p in RaySystem(4).window(40) if tuple(p) not in deleted]
    for _ in range(1000):
        p, q = rng.sample(window, 2)
        assert lex_compare(p, q) == lex_compare(iso.forward(p), iso.forward(q))


def test_window_contents():
    w = RaySystem(3).window(4)
    assert len(w) == 12
    assert (2, 3) in w
    assert (2, 4) not in w
    assert len(list(w)) == 12


@pytest.mark.parametrize(
    "make",
    [
        lambda: as_point((1, 0.5)),
        lambda: as_point((1.0, 0)),
        lambda: transposition(2, (1, 0.5), (1, 1.9)),
        lambda: from_cycles(2, [[(1, True), (1, 2.7)]]),
        lambda: generator(2, 2).apply(("1", 0)),
    ],
    ids=["float-pos", "float-ray", "transposition", "cycle", "apply-string"],
)
def test_non_integer_coordinates_are_domain_errors(make):
    # int() used to truncate them: (1, 0.5) and (1, 1.9) swapped (1:0) and (1:1)
    with pytest.raises(DomainError, match="point coordinates must be integers"):
        make()
