import json
import random

import pytest

from houghton_kit.elements import (
    HoughtonElement,
    aop_exceptional_set,
    commutator,
    cycle_structure,
    from_cycles,
    generator,
    houghton_generators,
    identity,
    is_order_preserving_outside,
    order_violations,
    random_element,
    transposition,
    window_cycle_counts,
)
from houghton_kit.errors import DomainError, InvalidElementError
from houghton_kit.rays import RayPoint, RaySystem


def brute_apply_window(g, depth):
    """Map each window point through g by the raw definition."""
    return {p: g.apply(p) for p in RaySystem(g.n).window(depth)}


# -- generators -------------------------------------------------------------


def test_generator_action_table():
    g2 = generator(2, 2)
    assert g2.apply((1, 5)) == RayPoint(1, 6)
    assert g2.apply((2, 0)) == RayPoint(1, 0)
    assert g2.apply((2, 7)) == RayPoint(2, 6)
    assert g2.translation_vector() == (1, -1)


def test_generator_three_rays():
    g3 = generator(3, 3)
    assert g3.translation_vector() == (1, 0, -1)
    assert g3.apply((2, 4)) == RayPoint(2, 4)
    assert g3.apply((3, 0)) == RayPoint(1, 0)


def test_generator_bad_index():
    with pytest.raises(DomainError):
        generator(3, 4)
    with pytest.raises(DomainError):
        generator(3, 1)
    with pytest.raises(DomainError):
        generator(1, 2)


def test_identity_applies_trivially():
    e = identity(3)
    for p in RaySystem(3).window(10):
        assert e.apply(p) == p


def test_identity_matches_the_validating_constructor():
    for n in range(1, 65):
        e, want = identity(n), HoughtonElement(n, (0,) * n)
        assert e == want and hash(e) == hash(want), n
        assert (e.t, e.threshold, e.head) == (want.t, 0, ()), n
    for n in (0, -1):
        with pytest.raises(InvalidElementError) as exc:
            identity(n)
        assert exc.value.invariant == "format"
        with pytest.raises(InvalidElementError) as ref:
            HoughtonElement(n, (0,) * n)
        assert str(exc.value) == str(ref.value)


# -- composition and inversion ------------------------------------------------


def test_compose_matches_pointwise_oracle():
    g2 = generator(2, 2)
    gg = g2.compose(g2)
    oracle = {p: g2.apply(g2.apply(p)) for p in RaySystem(2).window(50)}
    assert brute_apply_window(gg, 50) == oracle


def test_compose_is_right_action():
    g2, g3 = generator(3, 2), generator(3, 3)
    prod = g2.compose(g3)
    for p in RaySystem(3).window(30):
        assert prod.apply(p) == g3.apply(g2.apply(p))


def test_translation_additivity_fixture():
    g2, g3 = generator(3, 2), generator(3, 3)
    assert g2.compose(g3).translation_vector() == (2, -1, -1)


def test_inverse_fixtures():
    g2 = generator(2, 2)
    assert g2.compose(g2.inverse()) == identity(2)
    assert g2.inverse().apply((1, 0)) == RayPoint(2, 0)
    assert identity(4).inverse() == identity(4)


def test_double_inverse_on_random_elements():
    rng = random.Random(3)
    for _ in range(500):
        g = random_element(3, head_budget=5, t_bound=2, seed=rng)
        assert g.inverse().inverse() == g


def test_group_laws_random():
    rng = random.Random(5)
    for _ in range(100):
        a = random_element(3, seed=rng)
        b = random_element(3, seed=rng)
        c = random_element(3, seed=rng)
        assert a.compose(b).compose(c) == a.compose(b.compose(c))
        assert a.compose(a.inverse()) == identity(3)
        assert a.compose(identity(3)) == a


def test_pow():
    g = generator(2, 2)
    assert g ** 0 == identity(2)
    assert g ** 3 == g.compose(g).compose(g)
    assert g ** -2 == g.inverse().compose(g.inverse())


# -- kernel and support ---------------------------------------------------------


def test_finitary_iff_zero_translation():
    assert transposition(3, (1, 0), (2, 4)).is_finitary()
    assert not generator(3, 2).is_finitary()
    rng = random.Random(9)
    for _ in range(200):
        g = random_element(3, seed=rng)
        assert g.is_finitary() == (g.translation_vector() == (0, 0, 0))


def test_support_description():
    g2 = generator(3, 2)
    moved, rays = g2.support_description()
    assert rays == {1, 2}
    assert moved == (RayPoint(2, 0),)
    assert identity(3).support_description() == ((), frozenset())


def test_commutator_of_disjoint_translations_is_finitary():
    rng = random.Random(21)
    for _ in range(50):
        a = generator(4, 2) ** rng.randint(1, 3)
        b = generator(4, 4) ** rng.randint(1, 3)
        f = transposition(4, (3, rng.randint(0, 4)), (3, rng.randint(5, 9)))
        c = commutator(a.compose(f), b)
        assert sum(c.translation_vector()) == 0
    # same-ray translations commute up to a finitary defect
    g = commutator(generator(3, 2) ** 2, generator(3, 2).inverse())
    assert g.is_finitary()


# -- cycle structure -----------------------------------------------------


def test_cycle_structure_generator():
    cs = cycle_structure(generator(2, 2))
    assert cs.finite_cycles == ()
    assert cs.infinite_cycle_count == 1
    assert cs.window_checked


def test_cycle_structure_transposition():
    cs = cycle_structure(transposition(2, (1, 0), (1, 1)))
    assert len(cs.finite_cycles) == 1
    assert set(cs.finite_cycles[0]) == {RayPoint(1, 0), RayPoint(1, 1)}
    assert cs.infinite_cycle_count == 0
    assert cs.window_checked


def test_cycle_with_translation_moved_point():
    # a 2-cycle {(2,5),(2,6)} spliced into the descending flow of ray 2,
    # rerouting (2,7) around it; (2,6)->(2,5) is the plain translation rule
    g = HoughtonElement(
        2,
        (1, -1),
        {
            RayPoint(2, 0): RayPoint(1, 0),
            RayPoint(2, 5): RayPoint(2, 6),
            RayPoint(2, 7): RayPoint(2, 4),
        },
    )
    assert dict(g.head).get(RayPoint(2, 6)) is None
    cs = cycle_structure(g)
    assert any(set(c) == {RayPoint(2, 5), RayPoint(2, 6)} for c in cs.finite_cycles)
    assert cs.window_checked


def test_cycle_formula_matches_window_trace():
    rng = random.Random(13)
    for n in (2, 3, 4):
        for _ in range(150):
            g = random_element(n, head_budget=6, t_bound=2, seed=rng)
            sizes, strands = window_cycle_counts(g)
            assert strands == sum(abs(x) for x in g.translation_vector()) // 2
            assert sizes == sorted(len(c) for c in cycle_structure(g).finite_cycles)


# -- almost order preserving ---------------------------------------------


def test_aop_identity_empty():
    assert aop_exceptional_set(identity(3)) == frozenset()


def test_aop_generator():
    g2 = generator(2, 2)
    exc = aop_exceptional_set(g2)
    assert exc == {RayPoint(2, 0)}
    assert is_order_preserving_outside(g2, exc)
    assert not is_order_preserving_outside(g2, frozenset())


def test_aop_three_cycle_minimal():
    g = from_cycles(2, [[(1, 0), (1, 1), (1, 2)]])
    exc = aop_exceptional_set(g)
    assert exc <= {RayPoint(1, 0), RayPoint(1, 1), RayPoint(1, 2)}
    assert is_order_preserving_outside(g, exc)
    for f in exc:
        assert not is_order_preserving_outside(g, exc - {f})


def test_aop_random_elements_pass_and_minimal():
    rng = random.Random(17)
    for _ in range(40):
        g = random_element(3, head_budget=5, t_bound=2, seed=rng)
        exc = aop_exceptional_set(g)
        assert is_order_preserving_outside(g, exc)
        for f in exc:
            assert not is_order_preserving_outside(g, exc - {f})


def test_order_violations_empty_for_translations():
    g = generator(3, 2) ** 2
    viol = order_violations(g)
    assert all(RayPoint(2, 0) in pair or RayPoint(2, 1) in pair for pair in viol)


# -- serialization -----------------------------------------------------------


def test_json_roundtrip():
    rng = random.Random(23)
    for _ in range(50):
        g = random_element(4, seed=rng)
        assert HoughtonElement.from_json_dict(json.loads(g.to_json())) == g


def test_json_rejects_nonzero_sum():
    data = {"n": 2, "t": [1, 0], "threshold": 0, "head": []}
    with pytest.raises(InvalidElementError) as exc:
        HoughtonElement.from_json_dict(data)
    assert exc.value.invariant == "zero-sum"


def test_json_rejects_non_bijection():
    data = {
        "n": 2,
        "t": [0, 0],
        "threshold": 2,
        "head": [[[1, 0], [1, 1]]],
    }
    with pytest.raises(InvalidElementError) as exc:
        HoughtonElement.from_json_dict(data)
    assert exc.value.invariant == "bijection"


def test_json_rejects_noncanonical_threshold():
    g = generator(2, 2)
    data = g.to_json_dict()
    data["threshold"] += 1
    with pytest.raises(InvalidElementError) as exc:
        HoughtonElement.from_json_dict(data)
    assert exc.value.invariant == "canonical-form"


def test_json_rejects_redundant_head_rows():
    data = {
        "n": 2,
        "t": [0, 0],
        "threshold": 0,
        "head": [[[1, 0], [1, 0]]],
    }
    with pytest.raises(InvalidElementError) as exc:
        HoughtonElement.from_json_dict(data)
    assert exc.value.invariant == "canonical-form"


def test_head_mapping_a_point_twice_is_a_format_error():
    # one of the two rows agrees with the translation rule; the row is still
    # a second image of (1, 0)
    head = [[[1, 0], [1, 0]], [[1, 0], [1, 1]], [[1, 1], [1, 0]]]
    with pytest.raises(InvalidElementError) as exc:
        HoughtonElement(2, (0, 0), [(tuple(p), tuple(q)) for p, q in head])
    assert exc.value.invariant == "format"
    with pytest.raises(InvalidElementError) as exc:
        HoughtonElement.from_json_dict({"n": 2, "t": [0, 0], "threshold": 2, "head": head})
    assert exc.value.invariant == "format"


def test_json_rejects_malformed():
    with pytest.raises(InvalidElementError):
        HoughtonElement.from_json_dict({"n": 2})


def _malformed(field, value, n=2):
    g = generator(2, 2) if n == 2 else from_cycles(1, [[(1, 0), (1, 1)]])
    return {**g.to_json_dict(), field: value}


@pytest.mark.parametrize(
    "data, field",
    [
        (_malformed("n", 2.5), "'n'"),
        (_malformed("n", "2"), "'n'"),
        (_malformed("n", True, n=1), "'n'"),
        (_malformed("t", [1.5, -1.5]), "'t'"),
        (_malformed("threshold", 1.9), "'threshold'"),
        (_malformed("head", [[[2, 0, 7], [1, 0]]]), "'head'"),
    ],
    ids=["n-float", "n-string", "n-true", "t-floats", "threshold-float", "head-triple"],
)
def test_json_rejects_non_int_fields_naming_the_field(data, field):
    # each of these used to be coerced to a valid element
    with pytest.raises(InvalidElementError) as exc:
        HoughtonElement.from_json_dict(data)
    assert exc.value.invariant == "format"
    assert field in str(exc.value)


def test_element_constructor_rejects_negative_translation_target():
    with pytest.raises(InvalidElementError) as exc:
        HoughtonElement(2, (2, -2), {RayPoint(2, 0): RayPoint(1, 0)})
    assert exc.value.invariant in ("translation-validity", "bijection")


# -- random element determinism ----------------------------------------------


def test_random_element_reproducible():
    assert random_element(3, seed=42) == random_element(3, seed=42)
    assert random_element(3, seed=42) != random_element(3, seed=43)


def test_random_element_zero_bound_is_finitary():
    for seed in range(20):
        assert random_element(3, t_bound=0, seed=seed).is_finitary()


def test_random_element_invariants_bulk():
    rng = random.Random(31)
    for _ in range(300):
        g = random_element(4, head_budget=6, t_bound=2, seed=rng)
        assert sum(g.translation_vector()) == 0
        assert all(abs(x) <= 2 for x in g.translation_vector())
        # constructor already validated bijectivity; a json roundtrip
        # re-runs every invariant check
        assert HoughtonElement.from_json_dict(g.to_json_dict()) == g


def test_houghton_generators_families():
    assert len(houghton_generators(3)) == 2
    gens2 = houghton_generators(2)
    assert len(gens2) == 2 and gens2[1].is_finitary()
    with pytest.raises(DomainError):
        houghton_generators(1)


def test_aop_exceptional_set_holds_on_deeper_windows():
    # all order violations live inside the default window; a much deeper scan
    # must not find new ones outside the computed set
    rng = random.Random(47)
    for _ in range(15):
        g = random_element(3, head_budget=4, t_bound=2, seed=rng)
        exc = aop_exceptional_set(g)
        deep = g.threshold + 2 * max(1, g.max_shift()) + 12
        assert is_order_preserving_outside(g, exc, depth=deep)
