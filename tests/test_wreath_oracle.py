"""The quotient action kernel against a point-level reference.

``Reference.partial_action`` and ``Reference.kk_embed`` follow every class
point by point as RayPoints: the class of each image comes from a dict over
the closure window, and the base value from the position of each image in the
target class's transversal order.  ``QuotientStructure.partial_action`` and
``wreath.kk_embed`` must give the same result, or raise the same exception
class with the same message and hint, on every context and element here.

The elements are seeded group words (which preserve the congruence), seeded
``random_element``s (which mostly break it), and edge elements that send one
class point just inside, exactly onto and just past the closure window's edge;
a class whose images partly leave the window is skipped even when the images
that stay fall in two classes.
"""

import random

import pytest

from houghton_kit.blocks import (
    BlockSystem,
    _same_rays,
    congruence_classes,
    infer_eventual_translation,
)
from houghton_kit.elements import from_cycles, generator, random_element, transposition
from houghton_kit.errors import DomainError, InconclusiveError
from houghton_kit.finperm import _is_id
from houghton_kit.rays import RayPoint
from houghton_kit.subgroups import GeneratedSubgroup, delta_k
from houghton_kit.wreath import (
    BlockContext,
    MultiWreathElement,
    build_block_context,
    kk_embed,
    random_words,
)

# -- the reference -------------------------------------------------------------


class Reference:
    """Point-level tables of a context: every closure window point's class id,
    and the quotient point of each class that lies inside the depth."""

    def __init__(self, ctx: BlockContext):
        q = ctx.quotient
        self.ctx = ctx
        classes = congruence_classes(ctx.group, q.system, 2 * q.window_depth)
        self.point_class = {p: k for k, cls in enumerate(classes) for p in cls}
        by_class = dict(zip(q.classes, q.quotient_points))
        self.qpoint_by_id = {k: by_class[c] for k, c in enumerate(classes) if c in by_class}
        assert list(by_class) == [c for c in classes if c in by_class]

    def partial_action(self, element):
        q = self.ctx.quotient
        _same_rays(element, q.n)
        partial = {}
        for k, cls in enumerate(q.classes):
            images = {element._image(p) for p in cls}
            targets = {self.point_class.get(p) for p in images}
            if None in targets:
                continue
            if len(targets) > 1:
                raise DomainError(f"element does not preserve the congruence near {cls[0]}")
            qtarget = self.qpoint_by_id.get(targets.pop())
            if qtarget is not None:
                partial[q.quotient_points[k]] = qtarget
        return partial

    def transversal_points(self, qpoint):
        pts = self.ctx.class_points(qpoint)
        twist = self.ctx._twists.get(qpoint)
        return pts if twist is None else tuple(pts[i] for i in twist)

    def kk_embed(self, g):
        ctx, q = self.ctx, self.ctx.quotient
        if g.threshold > q.window_depth:
            raise InconclusiveError(
                "element head region exceeds the verified window", hint=g.threshold
            )
        partial = self.partial_action(g)
        head = infer_eventual_translation(partial, q.n, q._known_ranks)
        for k, cls in enumerate(q.classes):
            if cls[0].pos < g.threshold and q.quotient_points[k] not in partial:
                raise InconclusiveError(f"image of class {cls[0]} is outside the verified window")
        base = []
        for qp, target in partial.items():
            src = self.transversal_points(qp)
            pos = {p: i for i, p in enumerate(self.transversal_points(target))}
            value = tuple(pos[g._image(p)] for p in src)
            if not _is_id(value):
                base.append((qp, value))
        return MultiWreathElement(ctx, tuple(base), head)

    def class_index_of(self, p):
        for k, cls in enumerate(self.ctx.quotient.classes):
            if p in cls:
                return k
        return None


def outcome(call, *args):
    """("ok", result) or (exception class, message, hint)."""
    try:
        return "ok", call(*args)
    except (DomainError, InconclusiveError) as exc:
        return type(exc), str(exc), getattr(exc, "hint", None)


# -- contexts --------------------------------------------------------------------


def pair_group():
    return GeneratedSubgroup.from_elements(
        2,
        [
            generator(2, 2) ** 2,
            transposition(2, (1, 0), (1, 1)),
            from_cycles(2, [[(1, 0), (1, 2)], [(1, 1), (1, 3)]]),
        ],
    )


def triple_group():
    """Blocks of three consecutive points, acted on by all of S_3."""
    return GeneratedSubgroup.from_elements(
        2,
        [
            generator(2, 2) ** 3,
            from_cycles(2, [[(1, 0), (1, 1), (1, 2)]]),
            transposition(2, (1, 0), (1, 1)),
            from_cycles(2, [[(1, 0), (1, 3)], [(1, 1), (1, 4)], [(1, 2), (1, 5)]]),
        ],
    )


def singleton_context(n, k, depth=20):
    blocks = [[(1, i)] for i in range(k)]
    return build_block_context(delta_k(n, k), BlockSystem.from_lists(blocks), depth)


def conjugated_context(seed):
    c = random_element(3, head_budget=3, t_bound=1, seed=seed)
    c_inv = c.inverse()
    group = GeneratedSubgroup(
        3, tuple(c_inv.compose(g).compose(c) for g in delta_k(3, 2).generators)
    )
    system = BlockSystem.from_lists([[c.apply((1, 0))], [c.apply((1, 1))]])
    return build_block_context(group, system, 30)


def twisted(ctx, twist):
    """The context with its first class on ray 1 from position 10 in twisted order."""
    q = ctx.quotient
    far = next(
        qp for k, qp in enumerate(q.quotient_points)
        if qp.ray == 1 and 10 <= q.classes[k][0].pos <= 20
    )
    return BlockContext(ctx.group, q, {far: twist})


def contexts():
    pair = BlockSystem.from_lists([[(1, 0), (1, 1)]])
    triple = BlockSystem.from_lists([[(1, 0), (1, 1), (1, 2)]])
    out = {
        f"pair-{depth}": build_block_context(pair_group(), pair, depth) for depth in (20, 40, 60)
    }
    out.update({f"delta_k({n},{k})": singleton_context(n, k) for n, k in ((3, 2), (4, 2), (3, 3))})
    out.update({f"conjugated-{seed}": conjugated_context(seed) for seed in range(1, 7)})
    out["twisted-pair"] = twisted(out["pair-60"], (1, 0))
    # a three-cycle twist differs from its inverse, a transposition does not
    out["twisted-triple"] = twisted(build_block_context(triple_group(), triple, 30), (1, 2, 0))
    return out


CONTEXTS = contexts()

# -- elements --------------------------------------------------------------------


def edge_elements(ctx):
    """Elements that send points of the last kept class on ray 1 near the edge.

    Each moves one class point just inside, exactly onto or just past the
    closure window's edge: a head swap on ray 1 or on the last ray, or a power
    of the generator g2 that translates the class's last point there.  A
    second kind of swap also sends the class's last point past the depth, so
    with three or more points per class the images that stay fall in two
    classes, while no other kept class moves.
    """
    q = ctx.quotient
    n, edge = q.n, 2 * q.window_depth
    cls = [c for c in q.classes if c[0].ray == 1][-1]
    deep = (1, edge - 2)
    out = []
    for pos in (edge - 1, edge, edge + 1):
        for ray in (1, n):
            out.append(transposition(n, cls[0], (ray, pos)))
            if len(cls) >= 2:
                out.append(from_cycles(n, [[cls[0], (ray, pos)], [cls[-1], deep]]))
        out.append(generator(n, 2) ** (pos - cls[-1].pos))
    return out


def elements(label, ctx):
    rng = random.Random(label)
    group = ctx.group
    words = [w for length in range(1, 9) for w in random_words(group, 3, length, rng)]
    scrambles = [random_element(group.n, head_budget=6, t_bound=2, seed=rng) for _ in range(10)]
    return words + scrambles + edge_elements(ctx)


# -- the comparisons ---------------------------------------------------------------


@pytest.mark.parametrize("label", list(CONTEXTS))
def test_kernel_matches_the_point_level_reference(label):
    ctx = CONTEXTS[label]
    ref = Reference(ctx)
    raised = 0
    for g in elements(label, ctx):
        want = outcome(ref.partial_action, g)
        assert outcome(ctx.quotient.partial_action, g) == want, g
        want = outcome(ref.kk_embed, g)
        got = outcome(kk_embed, g, ctx)
        assert got == want, g
        raised += want[0] != "ok"
    assert raised < len(elements(label, ctx))


def test_the_elements_reach_every_branch():
    # every rule of the kernel decides some comparison: a class that splits, a
    # class skipped at the window edge (also when its other images split), a
    # head past the depth, and a non-trivial base value
    seen = set()
    for label, ctx in CONTEXTS.items():
        ref = Reference(ctx)
        q = ctx.quotient
        edge = 2 * q.window_depth
        for g in elements(label, ctx):
            got = outcome(ref.partial_action, g)
            if got[0] is DomainError:
                seen.add("split")
                continue
            for cls in q.classes:
                images = [g._image(p) for p in cls]
                if any(p.pos >= edge for p in images):
                    inside = {ref.point_class[p] for p in images if p.pos < edge}
                    seen.add("edge" if len(inside) < 2 else "edge and split")
            got = outcome(ref.kk_embed, g)
            if got[0] is InconclusiveError:
                seen.add("inconclusive")
            elif got[0] == "ok" and got[1].base:
                seen.add("base")
    assert seen == {"split", "edge", "edge and split", "inconclusive", "base"}


@pytest.mark.parametrize("label", ["pair-20", "delta_k(3,3)", "conjugated-3", "twisted-triple"])
def test_class_index_of_matches_the_scan(label):
    ctx = CONTEXTS[label]
    ref = Reference(ctx)
    q = ctx.quotient
    edge = 2 * q.window_depth
    points = [RayPoint(ray, pos) for ray in range(1, q.n + 2) for pos in range(edge + 2)]
    for p in points:
        assert q.class_index_of(p) == ref.class_index_of(p), p
