"""The quotient action kernel against a point-level reference.

``Reference.partial_action`` and ``Reference.kk_embed`` follow every class
point by point as RayPoints: the class of each image comes from a dict over
the closure window, and the base value from the position of each image in the
sorted target class.  ``QuotientStructure.partial_action`` and
``wreath.kk_embed`` must give the same result, or raise the same exception
class with the same message and hint, on every context and element here.
The reference reads each ray's known-rank prefix off its own closure classes.

The elements are seeded group words (which preserve the congruence), seeded
``random_element``s (which mostly break it), and edge elements that send one
class point just inside, exactly onto and just past the closure window's edge;
a class whose images partly leave the window is skipped even when the images
that stay fall in two classes.  One context has a class on two rays whose
point on its lowest ray lies at a generator's threshold and whose other point
lies below it: a class with no known image is inconclusive when its least
position, on any ray, is below the element's threshold.

The class-action pass (the targets and moved classes of
``QuotientStructure._action``) and the inference kernel it feeds
(``_read_element``) are checked against the same reference one level
down: the target ids give the reference's partial map, the moved classes
its non-identity rank tuples, the kernel the element
``reference_inference`` reads off that map, and ``_acts_trivially_on_classes``
the dict rule it replaced.  The contexts and elements take every branch,
including the intransitive context ⟨g2^4, (1:0 1:2), (1:1 1:3)⟩.

The quotient keeps the action of each translation vector and reads again
only the classes that hold a head key (``QuotientStructure._action``).  The
branch test also reaches each way that memo is used: a corrected class in a
``_top`` half, read afresh; a translation's failed read, reused; a split only
in a class with no head key; and a corrected class that splits at the least
id.  One context meets every element cold, warm and shuffled, against the
reference and a context whose memo is emptied before each call, and a
patched cap bounds the memo, oldest out first.  ``kk_embed`` wraps each new
embedding unchecked, so on every context each fresh embedding must equal
what the checked ``MultiWreathElement`` constructor builds from its base and
head.

``reference_inference`` is the quotient's inference kernel
(``blocks._read_element``) on a partial map, as a per-ray scan that rereads
the whole map for every ray; the kernel comparisons read heads through it.
``read_partial`` hands a partial map to the one-pass kernel, which must give
the same element, or the same message and hint, on seeded partial maps that
reach every branch.
``reference_words`` is ``random_words`` composing each word onto the identity
letter by letter.

``reference_descent`` is ``phi_s_descent`` before its group-level work was
shared: it rebuilds the quotient letters, the head-match enumeration, the
conjugator candidates and every conjugated kernel element's embedding on each
call.  ``wreath.phi_s_descent``, which keeps that work on the context, must
return the same ``DescentResult`` whatever the contexts, groups, kernels and
order of the descents before it.  A batch run twice on one context takes
every clearing step of the second pass from the context's memo
(``_DescentTables.steps``), so a counter patched onto
``wreath._clearing_step`` sees no scan in that pass; ``reference_step``,
the reference's clearing scan from the first candidate, checks every step
in that memo.
"""

import random
import time

import pytest

from houghton_kit import blocks, wreath
from houghton_kit.blocks import (
    BlockSystem,
    _read_element,
    _same_rays,
    _top_half,
    congruence_classes,
)
from houghton_kit.elements import (
    HoughtonElement,
    from_cycles,
    generator,
    identity,
    random_element,
    transposition,
)
from houghton_kit.errors import DomainError, InconclusiveError
from houghton_kit.finperm import _is_id
from houghton_kit.rays import RayPoint, code_of
from houghton_kit.subgroups import GeneratedSubgroup, bounded_words, delta_k
from houghton_kit.wreath import (
    BlockContext,
    DescentResult,
    MultiWreathElement,
    _acts_trivially_on_classes,
    build_block_context,
    kk_embed,
    phi_s_descent,
    random_words,
)

# -- the reference -------------------------------------------------------------


def reference_inference(partial, n, known_ranks):
    """The element a partial map pins down, read ray by ray.

    For each ray, every entry of the map is scanned for the pairs in the top
    half of the known ranks; they must be at least two, stay on the ray and
    share one shift.  The entries that differ from the translations form the
    head.
    """
    t = []
    for ray in range(1, n + 1):
        limit = known_ranks[ray - 1]
        pairs = [
            (p, q)
            for p, q in partial.items()
            if p.ray == ray and p.pos < limit
        ]
        top = [pq for pq in pairs if pq[0].pos >= limit // 2]
        shifts = {q.pos - p.pos for p, q in top if q.ray == ray}
        if len(top) < 2 or len(shifts) != 1 or any(q.ray != ray for p, q in top):
            raise InconclusiveError(
                f"cannot read an eventual translation on quotient ray {ray}",
                hint="increase the window depth",
            )
        t.append(shifts.pop())
    head = {}
    for p, q in partial.items():
        if q != RayPoint(p.ray, p.pos + t[p.ray - 1]):
            head[p] = q
    try:
        return HoughtonElement(n, t, head)
    except Exception as exc:
        raise InconclusiveError(
            f"partial quotient data does not close to a bijection: {exc}",
            hint="increase the window depth",
        ) from None


def read_partial(partial, n, known_ranks):
    """``blocks._read_element`` on a partial map on the points of n rays.

    The map's keys, in order, are the sources, and the images that are no key
    follow them as further points.  ``known_ranks`` caps, per ray, the ranks
    the map is complete up to.
    """
    points = list(partial)
    ids = {p: k for k, p in enumerate(points)}
    targets = []
    for q in partial.values():
        if q not in ids:
            ids[q] = len(points)
            points.append(q)
        targets.append(ids[q])
    codes = [code_of(n, p) for p in points]
    return _read_element(n, codes, targets, _top_half(partial, known_ranks))


def reference_words(group, count, max_len, rng):
    """Seeded words, each composed onto the identity one letter at a time."""
    gens = group.symmetric_generators()
    out = []
    for _ in range(count):
        w = identity(group.n)
        for _ in range(rng.randint(1, max_len)):
            w = w.compose(rng.choice(gens))
        out.append(w)
    return out


class Reference:
    """Point-level tables of a context: every closure window point's class id,
    the quotient point of each class that lies inside the depth, and per ray
    the number of classes, in order of least point, before the first one
    that crosses the depth."""

    def __init__(self, ctx: BlockContext):
        q = ctx.quotient
        self.ctx = ctx
        classes = congruence_classes(ctx.group, q.system, 2 * q.window_depth)
        self.point_class = {p: k for k, cls in enumerate(classes) for p in cls}
        by_class = dict(zip(q.classes, q.quotient_points))
        self.qpoint_by_id = {k: by_class[c] for k, c in enumerate(classes) if c in by_class}
        assert list(by_class) == [c for c in classes if c in by_class]
        on_rays = ([c for c in classes if c[0].ray == ray] for ray in range(1, q.n + 1))
        self.known_ranks = tuple(
            next((r for r, c in enumerate(cs) if c not in by_class), len(cs)) for cs in on_rays
        )

    def partial_action(self, element):
        q = self.ctx.quotient
        _same_rays(element, q.n)
        partial = {}
        for k, cls in enumerate(q.classes):
            images = {element.apply(p) for p in cls}
            targets = {self.point_class.get(p) for p in images}
            if None in targets:
                continue
            if len(targets) > 1:
                raise DomainError(f"element does not preserve the congruence near {cls[0]}")
            qtarget = self.qpoint_by_id.get(targets.pop())
            if qtarget is not None:
                partial[q.quotient_points[k]] = qtarget
        return partial

    def kk_embed(self, g):
        ctx, q = self.ctx, self.ctx.quotient
        if g.threshold > q.window_depth:
            raise InconclusiveError(
                "element head region exceeds the verified window", hint=g.threshold
            )
        partial = self.partial_action(g)
        head = reference_inference(partial, q.n, self.known_ranks)
        for k, cls in enumerate(q.classes):
            if min(p.pos for p in cls) < g.threshold and q.quotient_points[k] not in partial:
                raise InconclusiveError(f"image of class {cls[0]} is outside the verified window")
        base = []
        for qp, target in partial.items():
            pos = {p: i for i, p in enumerate(ctx.class_points(target))}
            value = tuple(pos[g.apply(p)] for p in ctx.class_points(qp))
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


def intransitive_group():
    return GeneratedSubgroup.from_elements(
        2,
        [
            generator(2, 2) ** 4,
            from_cycles(2, [[(1, 0), (1, 2)]]),
            from_cycles(2, [[(1, 1), (1, 3)]]),
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


def spanning_group():
    """<h>, h translating by (4, -2, -2) from 12 on; one class is (1:12 2:0)."""
    h = HoughtonElement(3, (4, -2, -2), {
        (1, 8): (1, 12), (1, 9): (2, 0), (1, 10): (1, 13), (1, 11): (1, 14),
        (2, 0): (1, 15), (2, 1): (1, 0), (2, 2): (1, 1), (3, 0): (1, 2), (3, 1): (1, 3),
    })
    return GeneratedSubgroup(3, (h,))


def contexts():
    pair = BlockSystem.from_lists([[(1, 0), (1, 1)]])
    triple = BlockSystem.from_lists([[(1, 0), (1, 1), (1, 2)]])
    out = {
        f"pair-{depth}": build_block_context(pair_group(), pair, depth) for depth in (20, 40, 60)
    }
    out.update({f"delta_k({n},{k})": singleton_context(n, k) for n, k in ((3, 2), (4, 2), (3, 3))})
    out.update({f"conjugated-{seed}": conjugated_context(seed) for seed in range(1, 7)})
    # the intransitive case: even line positions in blocks of two, odd ones single
    out["intransitive"] = build_block_context(
        intransitive_group(), BlockSystem.from_lists([[(1, 0), (1, 2)], [(1, 1)]]), 60
    )
    # S_3 on blocks of three: 3-cycles and transpositions as base values
    out["triple-30"] = build_block_context(triple_group(), triple, 30)
    # a class on two rays whose least point lies below a threshold its first point reaches
    spanning = BlockSystem.from_lists([[(1, 0), (1, 1)], [(1, 2), (1, 3)]])
    out.update({
        f"spanning-{depth}": build_block_context(spanning_group(), spanning, depth)
        for depth in (16, 30)
    })
    return out


CONTEXTS = contexts()

# -- elements --------------------------------------------------------------------


def edge_elements(ctx):
    """Elements that send points of the last kept class on ray 1 near the edge.

    Each moves one class point just inside, exactly onto or just past the
    closure window's edge: a head swap of the class's first or last point
    with a point on ray 1 or on the last ray, or a power of the generator g2
    that translates the class's last point there.  A second kind of swap also sends the class's last point past the depth, so
    with three or more points per class the images that stay fall in two
    classes, while no other kept class moves.  Last, a swap of the last two
    kept classes on ray 1 followed by a translation up ray 1 by a third of
    the depth: the top of every ray still reads, while the classes on ray 1
    below the swap's threshold leave the kept classes.
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
                out.append(transposition(n, cls[-1], (ray, pos)))
                out.append(from_cycles(n, [[cls[0], (ray, pos)], [cls[-1], deep]]))
        out.append(generator(n, 2) ** (pos - cls[-1].pos))
    a, b = [c for c in q.classes if c[0].ray == 1][-2:]
    if len(a) == len(b):
        swap = from_cycles(n, [[p, r] for p, r in zip(a, b)])
        out.append(swap.compose(generator(n, 2) ** (2 * (q.window_depth // 6))))
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
                images = [g.apply(p) for p in cls]
                if any(p.pos >= edge for p in images):
                    inside = {ref.point_class[p] for p in images if p.pos < edge}
                    seen.add("edge" if len(inside) < 2 else "edge and split")
            got = outcome(ref.kk_embed, g)
            if got[0] is InconclusiveError:
                seen.add("inconclusive")
            elif got[0] == "ok" and got[1].base:
                seen.add("base")
    assert seen == {"split", "edge", "edge and split", "inconclusive", "base"}


# -- the class-action pass and the inference kernel -------------------------------------


def reference_moved(ctx, g, partial):
    """Per class with a known target, the sorted ranks of its images in the
    target class, where they are not the identity."""
    q = ctx.quotient
    moved = {}
    for k, qp in enumerate(q.quotient_points):
        if qp in partial:
            target = ctx.class_points(partial[qp])
            ranks = tuple(target.index(g.apply(p)) for p in q.classes[k])
            if ranks != tuple(range(len(ranks))):
                moved[k] = ranks
    return moved


def class_action(q, g):
    """(targets, moved) of ``QuotientStructure._action``."""
    return q._action(g)[:2]


@pytest.mark.parametrize("label", list(CONTEXTS))
def test_class_action_and_kernel_match_the_reference(label):
    ctx = CONTEXTS[label]
    q = ctx.quotient
    ref = Reference(ctx)
    for g in elements(label, ctx):
        want = outcome(ref.partial_action, g)
        got = outcome(class_action, q, g)
        if want[0] != "ok":
            assert got == want, g
            continue
        targets, moved = got[1]
        qps = q.quotient_points
        assert {qps[k]: qps[j] for k, j in enumerate(targets) if j is not None} == want[1], g
        assert moved == reference_moved(ctx, g, want[1]), g
        read = outcome(reference_inference, want[1], q.n, ref.known_ranks)
        assert outcome(_read_element, q.n, q._codes, targets, q._top) == read, g
        trivial = all(want[1].get(qp, qp) == qp for qp in qps)
        assert _acts_trivially_on_classes(g, ctx) == trivial, g


def action_branches(label, ctx, ref, g):
    """The branches of the class-action pass and the kernel that g takes."""
    q = ctx.quotient
    edge = 2 * q.window_depth
    got = outcome(ref.partial_action, g)
    if got[0] is DomainError:
        return {"the congruence breaks"}
    seen = set()
    lands = True
    for k, cls in enumerate(q.classes):
        images = [g.apply(p) for p in cls]
        if any(p.pos >= edge for p in images):
            seen.add("an image leaves the window")
            lands = False
        elif q.quotient_points[k] not in got[1]:
            seen.add("an image lands in a class crossing the depth")
    if lands:
        seen.add("every class lands in one class")
    embedded = outcome(ref.kk_embed, g)
    if embedded[0] is InconclusiveError:
        if embedded[1].startswith("cannot read an eventual translation"):
            seen.add("the translation cannot be read")
        elif embedded[1].startswith("image of class"):
            seen.add("a class is skipped below the threshold")
    elif embedded[0] == "ok" and label == "intransitive":
        seen.add("the intransitive context")
    return seen


def memo_branches(ctx, ref, g):
    """The branches of the per-vector memo that g takes.

    The classes holding a head key of g are found through RayPoints, and
    those that split through the reference's classes.
    """
    q = ctx.quotient
    translated = q._translation(g.t)
    corrected = {q.class_index_of(p) for p, _ in g.head} - {None}
    split = set()
    for k in corrected:
        owners = {ref.point_class.get(g.apply(p)) for p in q.classes[k]}
        if len(owners) > 1 and None not in owners:
            split.add(k)
    untouched = set(translated.split) - corrected
    if not split and untouched:
        return {"a split only in an untouched class"}
    if split and min(split) < min(untouched, default=len(q.classes)):
        return {"a corrected class splits at the least id"}
    if split:
        return set()
    if corrected & q._top_ids:
        return {"a corrected top class is read afresh"}
    if translated.failure is not None:
        return {"the translation's failed read is reused"}
    return set()


def test_class_action_and_kernel_comparisons_reach_every_branch():
    seen = set()
    for label, ctx in CONTEXTS.items():
        ref = Reference(ctx)
        for g in elements(label, ctx):
            seen |= action_branches(label, ctx, ref, g) | memo_branches(ctx, ref, g)
    assert seen == {
        "every class lands in one class",
        "an image leaves the window",
        "an image lands in a class crossing the depth",
        "a class is skipped below the threshold",
        "the congruence breaks",
        "the translation cannot be read",
        "the intransitive context",
        "a corrected top class is read afresh",
        "the translation's failed read is reused",
        "a split only in an untouched class",
        "a corrected class splits at the least id",
    }


# -- the per-vector memo -----------------------------------------------------------------


def fresh_context(ctx):
    """A new context on the group, blocks and depth of ctx."""
    q = ctx.quotient
    return build_block_context(ctx.group, q.system, q.window_depth)


def as_pair(got):
    """An embedding's outcome, the element given as its (base, head)."""
    return ("ok", (got[1].base, got[1].head)) if got[0] == "ok" else got


def embedded(g, ctx):
    """``kk_embed``'s outcome as ``as_pair`` gives it, the context's embedding memo emptied first."""
    ctx._embeddings.clear()
    return as_pair(outcome(kk_embed, g, ctx))


@pytest.mark.parametrize("label", list(CONTEXTS))
def test_a_warm_memo_acts_as_the_reference_and_a_fresh_context(label):
    # one context meets the elements cold (only the generators' vectors
    # kept), warm, and warm in a shuffled order; the fresh context's memo is
    # emptied before each call, so it runs the whole-window pass every time
    ctx, fresh = fresh_context(CONTEXTS[label]), fresh_context(CONTEXTS[label])
    q, q_fresh = ctx.quotient, fresh.quotient
    ref = Reference(ctx)
    once = elements(label, ctx)
    shuffled = random.Random(label).sample(once, len(once))
    for g in once + once + shuffled:
        assert outcome(q.partial_action, g) == outcome(ref.partial_action, g), g
        # only the classes that hold a head key are read again
        action = outcome(q._action, g)
        if action[0] == "ok":
            assert action[1][2] == {q.class_index_of(p) for p, _ in g.head} - {None}, g
        for call in (class_action, type(q).induce):
            q_fresh._translations.clear()
            assert outcome(call, q, g) == outcome(call, q_fresh, g), g
        q_fresh._translations.clear()
        got = embedded(g, ctx)
        assert got == as_pair(outcome(ref.kk_embed, g)) == embedded(g, fresh), g
    assert set(q._translations) == {g.t for g in once} | {g.t for g in ctx.group.generators}


def test_a_fresh_embedding_is_what_the_checked_constructor_builds():
    # kk_embed wraps its base unchecked: sorted, identities dropped, and
    # every value a permutation of its class's ranks
    built = 0
    for label in CONTEXTS:
        ctx = fresh_context(CONTEXTS[label])
        for g in elements(label, ctx):
            ctx._embeddings.clear()
            got = outcome(kk_embed, g, ctx)
            if got[0] == "ok":
                elt = got[1]
                checked = MultiWreathElement(ctx, elt.base, elt.head)
                assert (checked.base, checked.head) == (elt.base, elt.head), (label, g)
                built += len(elt.base) > 1
    assert built >= 20


def test_the_memo_keeps_at_most_its_cap_and_drops_the_oldest_first(monkeypatch):
    monkeypatch.setattr(blocks, "EMBED_MEMO_CAP", 3)
    label = "delta_k(3,2)"
    ctx = fresh_context(CONTEXTS[label])
    q = ctx.quotient
    ref = Reference(ctx)
    kept = list(q._translations)
    assert len(kept) <= 3
    gs = elements(label, ctx)
    assert len({g.t for g in gs}) > 6
    for g in gs:
        assert outcome(q.partial_action, g) == outcome(ref.partial_action, g), g
        assert embedded(g, ctx) == as_pair(outcome(ref.kk_embed, g)), g
        if g.t not in kept:
            kept = (kept + [g.t])[-3:]
        assert list(q._translations) == kept


# -- the inference and the words against their references ----------------------------


def seeded_partial(seed):
    """(partial map, n, known ranks) from an element's map on a window, then
    one seeded change: none, a shallow ray, a top image shifted on its ray or
    sent to another ray, an image that another point also hits, a whole ray
    shifted by one, dropped entries, or random known ranks."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    g = random_element(n, head_budget=6, t_bound=2, seed=rng)
    depth = 2 * g.threshold + 4 + rng.randint(0, 6)
    partial = {p: g.apply(p) for ray in range(1, n + 1) for p in
               (RayPoint(ray, pos) for pos in range(depth))}
    known = [depth] * n
    ray = rng.randint(1, n)
    top = [p for p in partial if p.ray == ray and p.pos >= depth // 2]
    change = rng.choice(["none", "shallow", "shift", "other ray", "hit twice", "ray shift",
                         "drop", "known"])
    if change == "shallow":
        known[ray - 1] = rng.randint(0, 2)
    elif change == "shift":
        p = rng.choice(top)
        partial[p] = RayPoint(partial[p].ray, partial[p].pos + 1)
    elif change == "other ray":
        p = rng.choice(top)
        partial[p] = RayPoint(ray % n + 1, partial[p].pos)
    elif change == "hit twice":
        p, q = rng.sample(sorted(partial), 2)
        partial[p] = partial[q]
    elif change == "ray shift":
        for p in [p for p in partial if p.ray == ray]:
            partial[p] = RayPoint(partial[p].ray, partial[p].pos + 1)
    elif change == "drop":
        for p in rng.sample(sorted(partial), rng.randint(1, 4)):
            del partial[p]
    elif change == "known":
        known = [rng.randint(0, depth) for _ in range(n)]
    return partial, n, tuple(known)


def inference_branch(partial, n, known):
    """The branch the reference inference ends in."""
    got = outcome(reference_inference, partial, n, known)
    if got[0] == "ok":
        return "element"
    message = got[1]
    if message.startswith("cannot read"):
        ray = int(message.rsplit(" ", 1)[1])
        limit = known[ray - 1]
        top = [(p, q) for p, q in partial.items() if p.ray == ray and limit // 2 <= p.pos < limit]
        if len(top) < 2:
            return "fewer than two top pairs"
        if any(q.ray != ray for _, q in top):
            return "top image on another ray"
        return "two shifts"
    if "zero-sum" in message:
        return "nonzero-sum t"
    return "no bijection"


def test_inference_matches_the_per_ray_scan_on_every_branch():
    # derandomized: a fixed range of seeds, whose maps reach every branch
    seen = set()
    for seed in range(300):
        partial, n, known = seeded_partial(seed)
        want = outcome(reference_inference, partial, n, known)
        assert outcome(read_partial, partial, n, known) == want, seed
        seen.add(inference_branch(partial, n, known))
    assert seen == {
        "element",
        "fewer than two top pairs",
        "two shifts",
        "top image on another ray",
        "no bijection",
        "nonzero-sum t",
    }


@pytest.mark.parametrize("label", ["pair-20", "delta_k(3,3)", "triple-30"])
def test_random_words_match_the_letter_by_letter_words(label):
    group = CONTEXTS[label].group
    for max_len in (1, 3, 5):
        rng, ref_rng = random.Random(label), random.Random(label)
        assert random_words(group, 40, max_len, rng) == reference_words(group, 40, max_len, ref_rng)
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("label", ["pair-20", "delta_k(3,3)", "conjugated-3", "triple-30"])
def test_class_index_of_matches_the_scan(label):
    ctx = CONTEXTS[label]
    ref = Reference(ctx)
    q = ctx.quotient
    edge = 2 * q.window_depth
    points = [RayPoint(ray, pos) for ray in range(1, q.n + 2) for pos in range(edge + 2)]
    for p in points:
        assert q.class_index_of(p) == ref.class_index_of(p), p


# -- coset descent against the uncached reference ------------------------------------


def element_words(group, images, max_len):
    """(element, quotient image) of each shortlex-first spelling of an element.

    The search runs over the pairs, so it dedupes by element, as the head
    match did before it searched quotient images alone; 20000 elements at most.
    """
    one, letters = images
    step = lambda v, g: (v[0].compose(g[0]), v[1].compose(g[1]))
    pairs = list(zip(group.symmetric_generators(), letters))
    for _, v in bounded_words((identity(group.n), one), pairs, step, max_len, cap=20000):
        yield v


def reference_candidates(group, images):
    """Class movers, cheapest first: generator powers, pairs of powers, short words."""
    budget = 10
    seen = set()
    gens = group.symmetric_generators()
    quotient_identity, letters = images
    powers = [[(identity(group.n), quotient_identity)] for _ in gens]
    for i, (g, gq) in enumerate(zip(gens, letters)):
        for _ in range(budget):
            w, wq = powers[i][-1]
            powers[i].append((w.compose(g), wq.compose(gq)))
    for i in range(len(gens)):
        for k in range(budget + 1):
            w, wq = powers[i][k]
            if w not in seen:
                seen.add(w)
                yield w, wq
    for i in range(len(gens)):
        for j in range(len(gens)):
            if i == j:
                continue
            for a in range(1, budget + 1):
                for b in range(1, budget + 1 - a):
                    w = powers[i][a][0].compose(powers[j][b][0])
                    if w in seen:
                        continue
                    seen.add(w)
                    yield w, powers[i][a][1].compose(powers[j][b][1])
    for w, wq in element_words(group, images, 4):
        if w not in seen:
            seen.add(w)
            yield w, wq


def reference_descent(alpha, group, ctx, kernel_elements):
    kernel_elements = list(kernel_elements)
    kk_kernel = [kk_embed(f, ctx) for f in kernel_elements]
    supports = [set(k.support()) for k in kk_kernel]
    big_s = set().union(*supports) if supports else set()
    witness = None
    letters = [ctx.quotient.induce(g) for g in group.generators]
    letters += [e.inverse() for e in letters]
    images = (identity(ctx.n), letters)
    for w, wq in element_words(group, images, 10):
        if wq == alpha.head:
            witness = w
            break
    if witness is None:
        return DescentResult(
            "inconclusive", None, None, (), "no word matches the head within the budget"
        )
    psi = alpha.multiply(kk_embed(witness, ctx).inverse())
    if not psi.head.is_identity():
        raise AssertionError("head did not cancel after the word match")
    steps = []
    measure = len(set(psi.support()) - big_s)
    while measure:
        target = min(set(psi.support()) - big_s)
        cleared = False
        for c, cq in reference_candidates(group, images):
            moved_s = {cq.apply(qp) for qp in big_s}
            if not moved_s <= big_s | {target}:
                continue
            for f, kf in zip(kernel_elements, kk_kernel):
                if not {cq.apply(qp) for qp in kf.support()} <= big_s | {target}:
                    continue
                h = c.inverse().compose(f).compose(c)
                try:
                    kh = kk_embed(h, ctx)
                except InconclusiveError:
                    continue
                if not set(kh.support()) <= big_s | {target}:
                    continue
                if kh.base_value(target) != psi.base_value(target):
                    continue
                nxt = psi.multiply(kh.inverse())
                nxt_measure = len(set(nxt.support()) - big_s)
                if nxt_measure >= measure:
                    continue
                psi = nxt
                witness = h.compose(witness)
                steps.append((target, kernel_elements.index(f), nxt_measure))
                measure = nxt_measure
                cleared = True
                break
            if cleared:
                break
        if not cleared:
            return DescentResult(
                "inconclusive",
                psi,
                witness,
                tuple(steps),
                f"no conjugated kernel element clears {target} within the budget",
            )
    return DescentResult("ok", psi, witness, tuple(steps))


PAIR = BlockSystem.from_lists([[(1, 0), (1, 1)]])
TRIPLE = BlockSystem.from_lists([[(1, 0), (1, 1), (1, 2)]])


def alphas(ctx, group, count, seed, values):
    """Seeded kk(word) times a base of one to three off classes near the origin."""
    rng = random.Random(seed)
    near = [qp for qp in ctx.quotient.quotient_points if 1 <= qp.pos <= 6]
    out = []
    for _ in range(count):
        g = random_words(group, 1, 3, rng)[0]
        offs = rng.sample(near, rng.randint(1, 3))
        base = tuple((qp, rng.choice(values)) for qp in offs)
        out.append(kk_embed(g, ctx).multiply(MultiWreathElement(ctx, base, identity(ctx.n))))
    return out


def assert_descents_match(runs):
    """Run (alpha, group, ctx, kernel) descents in order against the reference."""
    statuses = set()
    for alpha, group, ctx, kernel in runs:
        want = outcome(reference_descent, alpha, group, ctx, kernel)
        assert outcome(phi_s_descent, alpha, group, ctx, kernel) == want, alpha.to_json_dict()
        statuses.add(want[1].status if want[0] == "ok" else want[0])
    return statuses


def test_descent_on_a_fresh_context_matches_the_reference():
    group = pair_group()
    runs = []
    for seed in range(6):
        ctx = build_block_context(group, PAIR, 60)
        (alpha,) = alphas(ctx, group, 1, seed, [(1, 0)])
        runs.append((alpha, group, ctx, [group.generators[1]]))
    assert assert_descents_match(runs) == {"ok"}


@pytest.mark.parametrize("order_seed", range(3))
def test_descents_sharing_a_context_match_the_reference_in_any_order(order_seed, monkeypatch):
    group = pair_group()
    ctx = build_block_context(group, PAIR, 60)
    batch = alphas(ctx, group, 12, 40, [(1, 0)])
    random.Random(order_seed).shuffle(batch)
    kernel = [group.generators[1]]
    runs = [(a, group, ctx, kernel) for a in batch]
    assert assert_descents_match(runs) == {"ok"}
    # the same batch again: every clearing step comes from the memo, so the
    # second pass runs no clearing scan, adds no key to the memo and extends
    # no candidate list
    tables = ctx._descent_tables[group]
    memo = tables.steps[tuple(kernel)]
    before = dict(memo), len(tables._candidates)
    assert before[0]
    scans = []
    step = wreath._clearing_step

    def counted(*args):
        scans.append(args)
        return step(*args)

    monkeypatch.setattr(wreath, "_clearing_step", counted)
    assert assert_descents_match(runs) == {"ok"}
    assert scans == []
    assert (dict(memo), len(tables._candidates)) == before


def test_kernels_and_equal_groups_mixed_on_one_context_match_the_reference():
    group, twin = pair_group(), pair_group()
    labelled = GeneratedSubgroup(2, group.generators, ("s", "t", "u"))
    assert group == twin and group is not twin and labelled != group
    ctx = build_block_context(group, PAIR, 60)
    swap, far_swap = group.generators[1], transposition(2, (1, 2), (1, 3))
    # a kernel element on two classes: which candidate clears a class decides
    # which of them the conjugate also flips
    both = swap.compose(far_swap)
    kernels = [[swap], [far_swap, swap], [swap, far_swap], [both]]
    rng = random.Random(7)
    runs = []
    for k, alpha in enumerate(alphas(ctx, group, 24, 41, [(1, 0)])):
        runs.append((alpha, rng.choice([group, twin, labelled]), ctx, kernels[k % 4]))
    assert "ok" in assert_descents_match(runs)
    assert set(ctx._descent_tables) == {group, labelled}


def test_descents_with_three_cycles_and_transpositions_match_the_reference():
    triple = triple_group()
    ctx = build_block_context(triple, TRIPLE, 30)
    kernels = [[triple.generators[2]], [triple.generators[1], triple.generators[2]]]
    values = [(1, 0, 2), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
    runs = [(a, triple, ctx, kernels[k % 2]) for k, a in enumerate(alphas(ctx, triple, 8, 43, values))]
    assert "ok" in assert_descents_match(runs)


@pytest.mark.parametrize("order_seed", range(2))
def test_repeated_descents_on_blocks_of_three_match_the_reference(order_seed):
    # five base values share each target class, so a clearing-step memo keyed
    # by target alone would give one value's step to another; each batch runs
    # twice, the second time wholly from the memo
    triple = triple_group()
    ctx = build_block_context(triple, TRIPLE, 30)
    g1, g2 = triple.generators[1], triple.generators[2]
    values = [(1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]
    batch = alphas(ctx, triple, 12, 46, values)
    random.Random(order_seed).shuffle(batch)
    for kernel in ([g2], [g1], [g1, g2]):
        runs = [(a, triple, ctx, kernel) for a in batch]
        assert "ok" in assert_descents_match(runs + runs)


def reference_step(group, ctx, kernel, target, want):
    """The first (kernel index, h) that clears target with base value want, or None.

    The scan of ``reference_descent`` on its own, from the first candidate.
    """
    kk_kernel = [kk_embed(f, ctx) for f in kernel]
    big_s = set().union(*(kf.support() for kf in kk_kernel))
    allowed = big_s | {target}
    letters = [ctx.quotient.induce(g) for g in group.generators]
    images = (identity(ctx.n), letters + [e.inverse() for e in letters])
    for c, cq in reference_candidates(group, images):
        if not {cq.apply(qp) for qp in big_s} <= allowed:
            continue
        for i, (f, kf) in enumerate(zip(kernel, kk_kernel)):
            if not {cq.apply(qp) for qp in kf.support()} <= allowed:
                continue
            h = c.inverse().compose(f).compose(c)
            try:
                kh = kk_embed(h, ctx)
            except InconclusiveError:
                continue
            if set(kh.support()) <= allowed and kh.base_value(target) == want:
                return i, h
    return None


def test_every_memoized_clearing_step_is_the_scan_from_the_first_candidate():
    pair, triple = pair_group(), triple_group()
    pair_ctx = build_block_context(pair, PAIR, 60)
    triple_ctx = build_block_context(triple, TRIPLE, 30)
    values = [(1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]
    runs = [(a, pair, pair_ctx, [pair.generators[1]]) for a in alphas(pair_ctx, pair, 8, 40, [(1, 0)])]
    for kernel in ([triple.generators[1]], [triple.generators[1], triple.generators[2]]):
        runs += [(a, triple, triple_ctx, kernel) for a in alphas(triple_ctx, triple, 8, 46, values)]
    for alpha, group, ctx, kernel in runs:
        phi_s_descent(alpha, group, ctx, kernel)
    wants = {}  # (context, kernel, target) -> the base values met there
    steps = []
    for group, ctx in ((pair, pair_ctx), (triple, triple_ctx)):
        for kernel, memo in ctx._descent_tables[group].steps.items():
            for (target, want), step in memo.items():
                assert step == reference_step(group, ctx, list(kernel), target, want), (target, want)
                wants.setdefault((id(ctx), kernel, target), set()).add(want)
                steps.append(step)
    # every context and kernel kept steps, some target met two base values,
    # and the steps include a miss and a hit by the second kernel element
    assert len({key[:2] for key in wants}) == 3
    assert max(map(len, wants.values())) > 1
    assert None in steps and any(step and step[0] == 1 for step in steps)


def test_an_unmatched_head_matches_the_reference():
    # the words of <g2^2> induce quotient translations of at most 10, so a
    # head translating by 12 runs the head's word search to its end
    group = GeneratedSubgroup(2, (generator(2, 2) ** 2,))
    ctx = build_block_context(group, PAIR, 60)
    kernel = [transposition(2, (1, 0), (1, 1))]
    far = MultiWreathElement(ctx, (), generator(2, 2) ** 12)
    runs = [(far, group, ctx, kernel)]
    runs += [(a, group, ctx, kernel) for a in alphas(ctx, group, 8, 44, [(1, 0)])]
    assert assert_descents_match(runs) == {"inconclusive", "ok"}
    want = reference_descent(far, group, ctx, kernel)
    assert want.reason == "no word matches the head within the budget"


def test_descents_that_clear_nothing_match_the_reference():
    # a transposition's conjugates never give a three-cycle, and an empty
    # kernel has nothing to conjugate: both run the candidate list to its end
    triple = triple_group()
    ctx = build_block_context(triple, TRIPLE, 30)
    near = next(qp for qp in ctx.quotient.quotient_points if qp.ray == 2 and qp.pos == 1)
    stuck = MultiWreathElement(ctx, ((near, (1, 2, 0)),), identity(2))
    runs = [
        (stuck, triple, ctx, [triple.generators[2]]),
        (stuck, triple, ctx, []),
    ]
    runs += [
        (a, triple, ctx, [triple.generators[2], triple.generators[1]])
        for a in alphas(ctx, triple, 4, 45, [(1, 0, 2), (1, 2, 0)])
    ]
    statuses = assert_descents_match(runs)
    want = reference_descent(stuck, triple, ctx, [triple.generators[2]])
    assert want.reason == f"no conjugated kernel element clears {near} within the budget"
    assert {"ok", "inconclusive"} <= statuses


def test_head_search_over_quotient_images_reaches_past_the_element_cap():
    # on the pair context a search deduping by element spends its 20000 words
    # before it spells the quotient translation g2^-10 (reference_descent
    # ends inconclusive there); the search over quotient images spells it,
    # and returns the reference's witness wherever the reference finds one
    group = pair_group()
    ctx = build_block_context(group, PAIR, 60)
    kernel = [transposition(2, (1, 0), (1, 1))]
    heads = {k: MultiWreathElement(ctx, (), generator(2, 2) ** k) for k in (-10, 10, -9, 12)}
    results = {}
    for k, alpha in heads.items():
        start = time.perf_counter()
        results[k] = phi_s_descent(alpha, group, ctx, kernel)
        assert time.perf_counter() - start < 1.0, k
    far = results[-10]
    assert far.ok and far.residue.multiply(kk_embed(far.witness, ctx)) == heads[-10]
    for k in (10, -9):
        want = reference_descent(heads[k], group, ctx, kernel)
        assert want.ok and results[k] == want
    assert not results[12].ok
    assert results[12].reason == "no word matches the head within the budget"
