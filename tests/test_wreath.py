import gc
import random
import weakref

import pytest

from houghton_kit import blocks, wreath
from houghton_kit.blocks import BlockSystem
from houghton_kit.elements import (
    HoughtonElement,
    from_cycles,
    generator,
    identity,
    random_element,
    transposition,
)
from houghton_kit.errors import DomainError, InconclusiveError
from houghton_kit.rays import RayPoint
from houghton_kit.subgroups import GeneratedSubgroup, delta_k
from houghton_kit.wreath import (
    MultiWreathElement,
    build_block_context,
    kk_embed,
    phi_s_descent,
    random_words,
    verify_kk,
    w_groups,
)


def pair_group():
    g2sq = generator(2, 2) ** 2
    swap = transposition(2, (1, 0), (1, 1))
    pair_swap = from_cycles(2, [[(1, 0), (1, 2)], [(1, 1), (1, 3)]])
    return GeneratedSubgroup.from_elements(2, [g2sq, swap, pair_swap])


def pair_context(depth=60):
    group = pair_group()
    system = BlockSystem.from_lists([[(1, 0), (1, 1)]])
    return group, build_block_context(group, system, depth)


def delta_context(depth=30):
    group = delta_k(3, 2)
    system = BlockSystem.from_lists([[(1, 0)], [(1, 1)]])
    return group, build_block_context(group, system, depth)


# -- product structure ---------------------------------------------------------


def test_identity_and_inverse():
    group, ctx = pair_context()
    e = MultiWreathElement(ctx, (), identity(2))
    assert e.is_identity()
    x = kk_embed(group.generators[0].compose(group.generators[1]), ctx)
    assert x.multiply(x.inverse()) == e
    assert x.inverse().multiply(x) == e


def test_base_only_product_is_pointwise():
    group, ctx = pair_context()
    swap = (1, 0)
    w0 = ctx.quotient.quotient_points[0]
    a = MultiWreathElement(ctx, ((w0, swap),), identity(2))
    b = MultiWreathElement(ctx, ((w0, swap),), identity(2))
    assert a.multiply(b).is_identity()


def test_associativity_random():
    group, ctx = pair_context()
    rng = random.Random(5)
    words = random_words(group, 60, 4, rng)
    elems = [kk_embed(w, ctx) for w in words]
    for _ in range(200):
        a, b, c = rng.choice(elems), rng.choice(elems), rng.choice(elems)
        assert a.multiply(b).multiply(c) == a.multiply(b.multiply(c))


def test_context_mismatch_rejected():
    _, ctx1 = pair_context()
    _, ctx2 = pair_context()
    a = MultiWreathElement(ctx1, (), identity(2))
    b = MultiWreathElement(ctx2, (), identity(2))
    with pytest.raises(DomainError):
        a.multiply(b)


# -- the embedding --------------------------------------------------------------


def test_kk_of_swap_is_single_base_transposition():
    group, ctx = pair_context()
    swap = group.generators[1]
    k = kk_embed(swap, ctx)
    assert k.head.is_identity()
    assert len(k.base) == 1
    qp, value = k.base[0]
    assert ctx.class_points(qp) == (RayPoint(1, 0), RayPoint(1, 1))
    assert value == (1, 0)


def test_kk_of_shift_base_is_exactly_the_order_reversed_class():
    group, ctx = pair_context()
    shift = group.generators[0]
    k = kk_embed(shift, ctx)
    assert k.head == generator(2, 2)
    # the squared shift reverses the pair {(2,0),(2,1)} (it sends them to
    # (1,1) and (1,0)); every deeper class is translated order-preservingly
    assert [ctx.class_points(qp) for qp in k.support()] == [
        (RayPoint(2, 0), RayPoint(2, 1))
    ]
    from houghton_kit.wreath import order_preserving_on_class

    for qp in ctx.quotient.quotient_points:
        preserved = order_preserving_on_class(shift, ctx, qp)
        assert preserved == (qp not in set(k.support()))


def test_kk_identity():
    group, ctx = pair_context()
    assert kk_embed(identity(2), ctx) == MultiWreathElement(ctx, (), identity(2))


def test_kk_rejects_non_preserving_element():
    group, ctx = pair_context()
    bad = transposition(2, (1, 1), (1, 2))
    with pytest.raises(DomainError):
        kk_embed(bad, ctx)


@pytest.mark.parametrize("context, element, counts", [
    (pair_context, lambda: generator(3, 2), "3 rays, the block system on 2"),
    (delta_context, lambda: generator(2, 2), "2 rays, the block system on 3"),
], ids=["more-rays", "fewer-rays"])
def test_kk_rejects_an_element_on_another_ray_count(context, element, counts):
    _, ctx = context()
    with pytest.raises(DomainError, match=counts):
        kk_embed(element(), ctx)
    with pytest.raises(DomainError, match=counts):
        ctx.quotient.induce(element())


def test_wreath_element_rejects_data_off_the_quotient_ray_system():
    _, ctx = pair_context()
    assert len(ctx.block_of_orbit) == 1
    with pytest.raises(DomainError, match="not a point of the quotient ray system"):
        MultiWreathElement(ctx, (((3, 0), (1, 0)),), identity(2))
    with pytest.raises(DomainError, match="3 rays"):
        MultiWreathElement(ctx, (), identity(3))
    with pytest.raises(DomainError, match="3 rays"):
        w_groups(delta_k(3, 2), ctx)


@pytest.mark.parametrize("values, message", [
    ([(0, 0)], r"base value \(0, 0\) at \(1:0\) is not a permutation"),
    ([("a", "b")], r"base value \('a', 'b'\) at \(1:0\) is not a permutation"),
    ([(True, False)], r"at \(1:0\) is not a permutation"),
    ([(0, 1, 2)], r"at \(1:0\) is not a permutation of its block's ranks 0..1"),
    ([(1, 0), (0, 1)], r"base key \(1:0\) is repeated"),
], ids=["repeated-rank", "not-ints", "bools", "wrong-size", "repeated-key"])
def test_wreath_element_rejects_a_base_that_is_not_one_permutation_per_class(values, message):
    # the pair block has two points, so every base value must permute 0..1
    _, ctx = pair_context()
    qp = ctx.quotient.quotient_points[0]
    with pytest.raises(DomainError, match=message):
        MultiWreathElement(ctx, tuple((qp, v) for v in values), identity(2))
    data = {"base": [[[1, 0], list(v)] for v in values], "head": identity(2).to_json_dict()}
    with pytest.raises(DomainError, match=message):
        MultiWreathElement.from_json_dict(ctx, data)


def test_verify_kk_needs_one_induced_group_per_orbit():
    group, ctx = pair_context()
    assert len(ctx.block_of_orbit) == 1
    report = w_groups(group, ctx)
    for groups in ([], [report.from_group] * 2):
        with pytest.raises(DomainError, match=f"{len(groups)} induced groups for the context's 1 orbits"):
            verify_kk(group, ctx, samples=5, w_groups_by_orbit=groups)
    assert verify_kk(group, ctx, samples=5, w_groups_by_orbit=[report.from_group]).ok


def test_kk_homomorphism_pair_group():
    group, ctx = pair_context()
    report = verify_kk(group, ctx, samples=120, max_len=5, seed=1)
    assert report.ok
    assert report.pairs_checked == 120


def test_kk_homomorphism_delta_trivial_blocks():
    group, ctx = delta_context()
    report = verify_kk(group, ctx, samples=80, max_len=3, seed=2)
    assert report.ok
    # singleton blocks force an empty base: kk is just the head there
    for w in random_words(group, 20, 3, random.Random(3)):
        assert kk_embed(w, ctx).base == ()


def spanning_context(depth):
    """<h>, whose congruence has one class on two rays, at the given depth.

    h translates by (4, -2, -2) from position 12 on.  Its classes are pairs
    of neighbours, (1:0 1:1) to (1:10 1:11), (1:13 1:14) on, (2:1 2:2) on and
    (3:0 3:1) on, and the one class (1:12 2:0).  That class's point on its
    lowest ray lies at h's threshold, and its other point below it; h sends
    the two to (1:16) and (1:15), so its base value there is a swap.
    """
    h = HoughtonElement(3, (4, -2, -2), {
        (1, 8): (1, 12), (1, 9): (2, 0), (1, 10): (1, 13), (1, 11): (1, 14),
        (2, 0): (1, 15), (2, 1): (1, 0), (2, 2): (1, 1), (3, 0): (1, 2), (3, 1): (1, 3),
    })
    system = BlockSystem.from_lists([[(1, 0), (1, 1)], [(1, 2), (1, 3)]])
    ctx = build_block_context(GeneratedSubgroup(3, (h,)), system, depth)
    k = ctx.quotient.classes.index((RayPoint(1, 12), RayPoint(2, 0)))
    return h, ctx, ctx.quotient.quotient_points[k]


def test_kk_is_inconclusive_when_a_class_reaching_below_the_threshold_leaves_the_window():
    h, ctx, _ = spanning_context(16)
    assert h.threshold == 12
    # the class's image (1:15 1:16) crosses depth 16, so its swap is unknown
    for _ in range(2):
        with pytest.raises(InconclusiveError, match=r"image of class \(1:12\)"):
            kk_embed(h, ctx)
    h, ctx, qp = spanning_context(30)
    assert kk_embed(h, ctx).base_value(qp) == (1, 0)


def test_embedding_check_reads_a_class_reaching_below_the_threshold(monkeypatch):
    # an embedding of h that drops the swap on the two-ray class must show as
    # a support mismatch: the class is not wholly past h's threshold
    h, ctx, qp = spanning_context(30)
    embed = wreath.kk_embed

    def dropping(g, c):
        got = embed(g, c)
        if g != h:
            return got
        return MultiWreathElement(c, tuple(e for e in got.base if e[0] != qp), got.head)

    monkeypatch.setattr(wreath, "kk_embed", dropping)
    report = verify_kk(ctx.group, ctx, samples=20, max_len=1, seed=0)
    assert report.support_mismatches > 0


def test_embedding_check_reads_the_classes_just_below_the_threshold(monkeypatch):
    # an embedding that toggles the base at every class whose least position
    # is the threshold minus 1 or the threshold: the check counts each class
    # of the first kind, which reaches below the threshold, and skips those
    # of the second, which lie wholly past it.  On the spanning context h's
    # threshold is 12, and (2:11 2:12) and (3:12 3:13) are classes.
    h, ctx, _ = spanning_context(30)
    q = ctx.quotient
    least = [min(p.pos for p in cls) for cls in q.classes]
    embed = wreath.kk_embed

    def toggling(g, c):
        got = embed(g, c)
        base = dict(got.base)
        for qp, pos in zip(q.quotient_points, least):
            if pos in (g.threshold - 1, g.threshold) and base.pop(qp, None) is None:
                base[qp] = swap_perm()
        return MultiWreathElement(c, tuple(base.items()), got.head)

    samples = 20
    sampled = random_words(ctx.group, 2 * samples, 1, random.Random(0))[::2]
    want = sum(least.count(g.threshold - 1) for g in sampled)
    assert want > 0 and any(g.threshold in least for g in sampled)
    monkeypatch.setattr(wreath, "kk_embed", toggling)
    report = verify_kk(ctx.group, ctx, samples=samples, max_len=1, seed=0)
    assert report.support_mismatches == want


# -- the embedding memo -------------------------------------------------------------


@pytest.mark.parametrize("context, max_len", [(pair_context, 5), (delta_context, 3)],
                         ids=["pair", "delta_k(3,2)"])
def test_memo_gives_the_embedding_a_fresh_context_gives(context, max_len):
    group, warm = context()
    _, fresh = context()
    words = random_words(group, 40, max_len, random.Random(11))
    first = [kk_embed(w, warm) for w in words]
    assert len(warm._embeddings) == len(set(words))
    for w, a in zip(words, first):
        b = kk_embed(w, warm)
        fresh._embeddings.clear()
        c = kk_embed(w, fresh)
        assert (b.base, b.head) == (a.base, a.head) == (c.base, c.head)
        assert b == a


@pytest.mark.parametrize("element", [generator(2, 2) ** 60, transposition(2, (1, 0), (1, 119))],
                         ids=["translation-unread", "threshold-past-the-window"])
def test_an_inconclusive_element_raises_on_every_call_and_stays_out_of_the_memo(element):
    group, ctx = pair_context()
    kk_embed(group.generators[0], ctx)
    for _ in range(3):
        with pytest.raises(InconclusiveError):
            kk_embed(element, ctx)
    assert list(ctx._embeddings) == [group.generators[0]]


def test_memo_keeps_at_most_its_cap_and_drops_the_oldest_first(monkeypatch):
    monkeypatch.setattr(blocks, "EMBED_MEMO_CAP", 8)
    group, ctx = pair_context()
    words = list(dict.fromkeys(random_words(group, 60, 5, random.Random(12))))
    assert len(words) > 16
    first = {}
    for k, w in enumerate(words):
        first[w] = kk_embed(w, ctx)
        assert len(ctx._embeddings) == min(k + 1, 8)
    assert list(ctx._embeddings) == words[-8:]
    # an element dropped from the memo embeds again to the same element
    assert kk_embed(words[0], ctx) == first[words[0]]
    assert list(ctx._embeddings) == words[-7:] + words[:1]


def test_a_context_is_freed_by_reference_counting():
    gc.disable()
    try:
        group, ctx = pair_context()
        wg = w_groups(group, ctx)
        report = verify_kk(group, ctx, samples=20, seed=3, w_groups_by_orbit=[wg.from_group])
        alpha = kk_embed(group.generators[0], ctx).multiply(
            MultiWreathElement(ctx, ((RayPoint(1, 3), swap_perm()),), identity(2))
        )
        result = phi_s_descent(alpha, group, ctx, [group.generators[1]])
        ran = report.ok and result.ok and bool(ctx._embeddings) and bool(ctx._descent_tables)
        ref = weakref.ref(ctx)
        del ctx, alpha, result
        alive = ref() is not None
    finally:
        gc.enable()
    assert ran
    assert not alive


# -- induced block groups ------------------------------------------------------------


def test_w_groups_pair_block():
    group, ctx = pair_context()
    report = w_groups(group, ctx, orbit=0)
    assert report.from_group.order() == 2
    assert report.from_finitary.order() == 2
    assert report.from_kernel.order() == 2
    assert report.kernel_equals_finitary and report.finitary_equals_group


def test_w_groups_trivial_for_singleton_blocks():
    group, ctx = delta_context()
    for orbit in (0, 1):
        report = w_groups(group, ctx, orbit=orbit)
        assert report.from_group.order() == 1
        assert report.from_kernel.order() == 1


def searched_block_generators(group, ctx, orbit):
    """The word search over words of length at most 4, as sorted generator lists.

    All words stabilizing the block, the finitary ones among them, and those
    fixing every kept class whose image is known.
    """
    block = ctx.block_of_orbit[orbit]
    gens = group.symmetric_generators()
    seen = frontier = {identity(group.n)}
    for _ in range(4):
        frontier = {w.compose(s) for w in frontier for s in gens} - seen
        seen = seen | frontier
    found = (set(), set(), set())
    for w in seen:
        images = [w.apply(p) for p in block]
        if set(images) != set(block):
            continue
        perm = tuple(block.index(p) for p in images)
        found[0].add(perm)
        if w.is_finitary():
            found[1].add(perm)
            if all(a == b for a, b in ctx.quotient.partial_action(w).items()):
                found[2].add(perm)
    return [sorted(f) for f in found]


def test_w_groups_of_a_one_point_block_is_what_the_word_search_finds():
    group, ctx = delta_context()
    for orbit in (0, 1):
        report = w_groups(group, ctx, orbit=orbit)
        got = [sorted(g.gens) for g in (report.from_group, report.from_finitary, report.from_kernel)]
        assert got == searched_block_generators(group, ctx, orbit) == [[(0,)]] * 3
        assert report.kernel_equals_finitary and report.finitary_equals_group


def test_w_groups_lists_the_identity_word():
    group, ctx = delta_context()
    assert w_groups(group, ctx).from_kernel.gens == [(0,)]


@pytest.mark.parametrize("orbit", [-1, 2, 5])
def test_w_groups_rejects_an_orbit_the_context_lacks(orbit):
    group, ctx = delta_context()
    assert len(ctx.block_of_orbit) == 2
    with pytest.raises(DomainError, match=f"no orbit {orbit}: the context has 2"):
        w_groups(group, ctx, orbit=orbit)


def test_context_rejects_under_covered_system():
    # for the trivial group every class is its own orbit, so a single block
    # cannot satisfy the one-block-per-orbit axiom
    group = GeneratedSubgroup.from_elements(2, [])
    system = BlockSystem.from_lists([[(1, 0)]])
    with pytest.raises(DomainError):
        build_block_context(group, system, 20)


def test_context_orbit_ids_follow_the_least_quotient_point():
    c = random_element(3, head_budget=3, t_bound=1, seed=5)
    c_inv = c.inverse()
    group = GeneratedSubgroup(
        3, tuple(c_inv.compose(g).compose(c) for g in delta_k(3, 2).generators)
    )
    system = BlockSystem.from_lists([[c.apply((1, 0))], [c.apply((1, 1))]])
    ctx = build_block_context(group, system, 30)
    ids = [ctx.orbit_of(qp) for qp in ctx.quotient.quotient_points]
    assert list(dict.fromkeys(ids)) == [0, 1]
    for k, block in enumerate(ctx.block_of_orbit):
        i = ctx.quotient.class_index_of(block[0])
        assert ctx.orbit_of(ctx.quotient.quotient_points[i]) == k


def test_context_rejects_a_second_block_in_one_orbit():
    # both pairs lie in the one orbit of the pair group
    system = BlockSystem.from_lists([[(1, 0), (1, 1)], [(1, 2), (1, 3)]])
    with pytest.raises(DomainError, match=r"orbit 0 of classes carries two blocks: "
                       r"\(\(1:0\), \(1:1\)\) and \(\(1:2\), \(1:3\)\)"):
        build_block_context(pair_group(), system, 20)


def intransitive_group():
    """<g2^4, (1:0 1:2), (1:1 1:3)>: two orbits, the even and the odd line positions."""
    return GeneratedSubgroup.from_elements(2, [
        generator(2, 2) ** 4,
        transposition(2, (1, 0), (1, 2)),
        transposition(2, (1, 1), (1, 3)),
    ])


def intransitive_context(depth=60):
    """Even line positions form blocks of two (W = S_2), odd ones singletons (W = 1)."""
    system = BlockSystem.from_lists([[(1, 0), (1, 2)], [(1, 1)]])
    group = intransitive_group()
    return group, build_block_context(group, system, depth)


def test_intransitive_context_types_every_quotient_point():
    # per three quotient points of a ray, one pair of even points and two odd points
    _, ctx = intransitive_context()
    assert ctx.block_of_orbit == [((1, 0), (1, 2)), ((1, 1),)]
    assert max(qp.pos for qp in ctx.quotient.quotient_points) < 60
    for r in range(300):
        assert ctx.orbit_of(RayPoint(1, r)) == (0 if r % 3 == 0 else 1), r
        assert ctx.orbit_of(RayPoint(2, r)) == (0 if r % 3 == 1 else 1), r
        assert ctx.block_size(RayPoint(1, r)) == (2 if r % 3 == 0 else 1), r


def test_intransitive_product_past_the_kept_classes_keeps_the_group_law():
    group, ctx = intransitive_context()
    h = kk_embed(generator(2, 2) ** -16, ctx)
    x = MultiWreathElement(ctx, (((1, 39), (1, 0)),), identity(2))
    hx = h.multiply(x)
    assert (RayPoint(1, 51), (1, 0)) in hx.base
    assert hx.multiply(x.inverse()) == h
    assert h.inverse().multiply(hx) == x
    y = kk_embed(group.generators[1], ctx)
    assert hx.multiply(y) == h.multiply(x.multiply(y))


def test_intransitive_w_groups_and_embedding_check_type_by_orbit():
    group, ctx = intransitive_context()
    reports = [w_groups(group, ctx, orbit=k) for k in (0, 1)]
    orders = [
        (r.from_group.order(), r.from_finitary.order(), r.from_kernel.order()) for r in reports
    ]
    assert orders == [(2, 2, 2), (1, 1, 1)]
    by_orbit = [r.from_group for r in reports]
    report = verify_kk(group, ctx, samples=60, seed=4, w_groups_by_orbit=by_orbit)
    assert report.ok and report.typing_exceptions == ()


# -- coset descent -----------------------------------------------------------------


def swap_perm():
    return (1, 0)


def test_descent_zero_steps_for_embedded_element():
    group, ctx = pair_context()
    kernel = [group.generators[1]]
    g = group.generators[0].compose(group.generators[2])
    alpha = kk_embed(g, ctx)
    result = phi_s_descent(alpha, group, ctx, kernel)
    assert result.ok
    assert result.steps == ()
    assert set(result.residue.support()) <= {ctx.quotient.quotient_points[0]}
    assert alpha == result.residue.multiply(kk_embed(result.witness, ctx))


def test_descent_single_off_s_point():
    group, ctx = pair_context()
    kernel = [group.generators[1]]
    g = group.generators[0]
    off = next(qp for qp in ctx.quotient.quotient_points if qp.ray == 1 and qp.pos == 3)
    alpha = kk_embed(g, ctx).multiply(
        MultiWreathElement(ctx, ((off, swap_perm()),), identity(2))
    )
    result = phi_s_descent(alpha, group, ctx, kernel)
    assert result.ok
    assert len(result.steps) == 1
    assert alpha == result.residue.multiply(kk_embed(result.witness, ctx))


def test_descent_three_off_s_points():
    group, ctx = pair_context()
    kernel = [group.generators[1]]
    g = group.generators[2]
    offs = [
        qp
        for qp in ctx.quotient.quotient_points
        if qp.ray == 1 and qp.pos in (2, 4, 5)
    ]
    base = tuple((qp, swap_perm()) for qp in offs)
    alpha = kk_embed(g, ctx).multiply(MultiWreathElement(ctx, base, identity(2)))
    result = phi_s_descent(alpha, group, ctx, kernel)
    assert result.ok
    assert len(result.steps) <= 3
    measures = [m for _, _, m in result.steps]
    assert measures == sorted(measures, reverse=True)
    assert alpha == result.residue.multiply(kk_embed(result.witness, ctx))


def test_descent_strictly_decreasing_measure():
    group, ctx = pair_context()
    kernel = [group.generators[1]]
    rng = random.Random(9)
    candidates = [
        qp for qp in ctx.quotient.quotient_points if qp.ray in (1, 2) and 2 <= qp.pos <= 6
    ]
    for trial in range(10):
        offs = rng.sample(candidates, rng.randint(1, 3))
        base = tuple((qp, swap_perm()) for qp in offs)
        g = rng.choice(list(pair_group().generators))
        alpha = kk_embed(g, ctx).multiply(MultiWreathElement(ctx, base, identity(2)))
        result = phi_s_descent(alpha, group, ctx, kernel)
        assert result.ok
        assert len(result.steps) == len(offs)
        assert alpha == result.residue.multiply(kk_embed(result.witness, ctx))


def test_descent_rejects_a_kernel_element_that_moves_the_classes():
    # the pair swap exchanges the classes (1:0 1:1) and (1:2 1:3)
    group, ctx = pair_context()
    alpha = kk_embed(group.generators[0], ctx)
    with pytest.raises(DomainError, match="kernel element 1 moves the classes"):
        phi_s_descent(alpha, group, ctx, [group.generators[1], group.generators[2]])


# -- serialization ------------------------------------------------------------------


def test_wreath_json_roundtrip():
    group, ctx = pair_context()
    x = kk_embed(group.generators[1].compose(group.generators[2]), ctx)
    data = x.to_json_dict()
    assert MultiWreathElement.from_json_dict(ctx, data) == x
