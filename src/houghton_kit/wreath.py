"""Restricted multi-wreath products over a block congruence.

The base assigns each congruence class a permutation of its owning block's
point set (identity almost everywhere); the head permutes the quotient ray
system.  The product rule is

    (phi1, a1)(phi2, a2) = (phi1 * phi2^(a1^-1), a1 a2),

evaluated pointwise as phi1(w) followed by phi2(w * a1).  The embedding of a
congruence-preserving element pairs its quotient image with the cocycle of
rank bijections: the base value at a class is how the element shuffles ranks
on the way to the image class, which is the identity exactly when the element
is order preserving there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .blocks import (
    EMBED_MEMO_CAP,
    BlockSystem,
    QuotientStructure,
    _same_rays,
    quotient as build_quotient,
)
from .elements import HoughtonElement, _fold_orbits, identity as houghton_identity
from .errors import DomainError, InconclusiveError
from .finperm import FinitePermGroup, _inv, _is_id, _mul
from .rays import RayPoint, code_of, point_of
from .subgroups import GeneratedSubgroup, bounded_words


class BlockContext:
    """Verified block system, its quotient, orbit typing and rank bijections.

    Orbits of the induced generators on the quotient ray system are exact
    (``elements.FoldedOrbits``); those that meet a kept class are numbered by
    first appearance along ``structure.quotient_points``, one block each.
    """

    def __init__(self, group: GeneratedSubgroup, structure: QuotientStructure):
        self.group = group
        self.quotient = structure
        self.n = structure.n
        self._index = {qp: k for k, qp in enumerate(structure.quotient_points)}
        self._orbits = _fold_orbits(self.n, structure.induced)
        self._orbit_ids = {}  # orbit key -> orbit id
        for qp in structure.quotient_points:
            self._orbit_ids.setdefault(self._orbits.key(qp), len(self._orbit_ids))
        self.block_of_orbit = [None] * len(self._orbit_ids)
        for block in structure.system.blocks:
            k = structure.class_index_of(block[0])
            if k is None:
                raise DomainError("block class fell outside the verified window")
            orbit = self.orbit_of(structure.quotient_points[k])
            if self.block_of_orbit[orbit] is not None:
                raise DomainError(
                    f"orbit {orbit} of classes carries two blocks: "
                    f"{self.block_of_orbit[orbit]} and {tuple(block)}"
                )
            self.block_of_orbit[orbit] = tuple(block)
        if any(b is None for b in self.block_of_orbit):
            raise DomainError("an orbit of classes carries no block")
        # element -> the validated (base, head) of its embedding, for every
        # kk_embed caller; only successes, at most EMBED_MEMO_CAP of them.
        # And group -> phi_s_descent's _DescentTables.  Neither holds a
        # MultiWreathElement, which holds the context, so no reference cycle
        # keeps a context alive once its callers drop it.
        self._embeddings = {}
        self._descent_tables = {}

    # -- typing and transversal ------------------------------------------------

    def orbit_of(self, qpoint) -> int:
        got = self._orbit_ids.get(self._orbits.key(qpoint))
        if got is None:
            raise InconclusiveError(f"the orbit of {qpoint} meets no class kept in the window")
        return got

    def block_size(self, qpoint) -> int:
        return len(self.block_of_orbit[self.orbit_of(qpoint)])

    def class_points(self, qpoint):
        k = self._index.get(qpoint)
        if k is None:
            raise InconclusiveError(f"class of {qpoint} is outside the verified window")
        return self.quotient.classes[k]


def build_block_context(group: GeneratedSubgroup, system: BlockSystem, depth: int) -> BlockContext:
    return BlockContext(group, build_quotient(group, system, depth))


@dataclass(frozen=True, eq=False)
class MultiWreathElement:
    """Base (sparse, identity dropped) together with a head permutation."""

    ctx: BlockContext
    base: tuple  # sorted ((quotient point, rank permutation), ...)
    head: HoughtonElement

    def __post_init__(self):
        cleaned = tuple(
            sorted((qp, tuple(v)) for qp, v in dict(self.base).items() if not _is_id(v))
        )
        object.__setattr__(self, "base", cleaned)
        n = self.ctx.n
        _same_rays(self.head, n)
        for qp, v in cleaned:
            ray, pos = qp
            if not (1 <= ray <= n and pos >= 0):
                raise DomainError(f"base key {qp} is not a point of the quotient ray system")
            if len(v) != self.ctx.block_size(qp):
                raise DomainError(
                    f"base value at {qp} is not a permutation of its block"
                )

    def __eq__(self, other):
        if not isinstance(other, MultiWreathElement):
            return NotImplemented
        if self.ctx is not other.ctx:
            raise DomainError("comparing wreath elements from different contexts")
        return self.base == other.base and self.head == other.head

    def __hash__(self):
        return hash((self.base, self.head))

    @cached_property
    def _values(self) -> dict:
        """The base as a dict, quotient point -> value; built on first use."""
        return dict(self.base)

    def base_value(self, qpoint):
        v = self._values.get(qpoint)
        return tuple(range(self.ctx.block_size(qpoint))) if v is None else v

    def support(self) -> tuple:
        return tuple(qp for qp, _ in self.base)

    def multiply(self, other: "MultiWreathElement") -> "MultiWreathElement":
        # (phi1, a1)(phi2, a2) = (phi1 * phi2^(a1^-1), a1 a2), and
        # phi2^(a1^-1) evaluated at w is phi2(w a1): the shift by the first
        # head is what makes the embedding cocycle telescope.  So the base
        # lives on supp(phi1) and a1^-1 supp(phi2), and where one factor is
        # the identity the value is the other's
        if self.ctx is not other.ctx:
            raise DomainError("wreath elements from different contexts")
        head = self.head.compose(other.head)
        a1, n = self.head, self.ctx.n
        t, mine = a1.t, self._values
        # a1^-1 sends a head image back to its source and any other code c
        # back along its ray to c - n t_ray; base keys are quotient points,
        # so their images need no check
        back = {q: p for p, q in a1._head.items()}
        codes = [(code_of(n, qp), v) for qp, v in other.base]
        pulled = {point_of(n, back.get(c, c - n * t[c % n])): v for c, v in codes}
        base = []
        for qp in mine.keys() | pulled.keys():
            v, w = mine.get(qp), pulled.get(qp)
            value = w if v is None else v if w is None else _mul(v, w)
            if not _is_id(value):
                base.append((qp, value))
        base.sort()
        return MultiWreathElement._trusted(self.ctx, tuple(base), head)

    def inverse(self) -> "MultiWreathElement":
        n = self.ctx.n
        base = sorted(
            (point_of(n, self.head._image(code_of(n, qp))), _inv(v)) for qp, v in self.base
        )
        return MultiWreathElement._trusted(self.ctx, tuple(base), self.head.inverse())

    def __mul__(self, other):
        return self.multiply(other)

    def is_identity(self) -> bool:
        return not self.base and self.head.is_identity()

    def to_json_dict(self) -> dict:
        payload = []
        for qp, v in self.base:
            cls = self.ctx.class_points(qp)
            payload.append([[cls[0].ray, cls[0].pos], list(v)])
        return {"base": payload, "head": self.head.to_json_dict()}

    @classmethod
    def from_json_dict(cls, ctx: BlockContext, data: dict) -> "MultiWreathElement":
        head = HoughtonElement.from_json_dict(data["head"])
        base = []
        for key, images in data["base"]:
            k = ctx.quotient.class_index_of(RayPoint(*key))
            if k is None:
                raise DomainError(f"base key {key} is not a known class minimum")
            base.append((ctx.quotient.quotient_points[k], tuple(images)))
        return cls(ctx, tuple(base), head)

    @classmethod
    def _trusted(cls, ctx: BlockContext, base: tuple, head: HoughtonElement) -> "MultiWreathElement":
        """Wrap a base and head that are already known to be valid.

        The base is in canonical form (sorted, no identity value) and fits
        its blocks, so no second check runs: ``kk_embed``'s memo holds what
        the constructor checked, and ``multiply`` and ``inverse`` build their
        results from elements of the product, whose heads carry each class to
        a class of its orbit, hence of the same block size.
        """
        elt = object.__new__(cls)
        object.__setattr__(elt, "ctx", ctx)
        object.__setattr__(elt, "base", base)
        object.__setattr__(elt, "head", head)
        return elt


# -- the embedding ----------------------------------------------------------------


def kk_embed(g: HoughtonElement, ctx: BlockContext) -> MultiWreathElement:
    """Embed a congruence-preserving element into the multi-wreath product.

    Head: the induced quotient permutation.  Base at a class: the rank
    permutation obtained by following the element from the class to its
    image, both in sorted order; classes on which the element is order
    preserving contribute nothing.  As in ``partial_action``, a class with an
    image past the closure window is skipped even if its other images fall
    in two classes, and raises DomainError otherwise; a skipped class below
    the element's threshold makes the result inconclusive.

    One class-action pass gives every class's target id and the classes
    whose ranks move, which are the base, and one kernel reads the head off
    the targets.  Both start from the action of g's translation vector,
    built once per vector on the quotient, and read again only the classes
    that hold a key of g's head (``QuotientStructure._action`` and
    ``_read``): g's head holds every point off the translation rule, so every
    other class moves exactly as under the translations alone.

    The context keeps each embedding made on it (``EMBED_MEMO_CAP`` at most,
    oldest out first), and an element seen before is rewrapped, not embedded
    again.  Failures are not kept: an element that is inconclusive or does
    not preserve the congruence raises afresh on every call.
    """
    memo = ctx._embeddings
    got = memo.get(g)
    if got is not None:
        return MultiWreathElement._trusted(ctx, *got)
    q = ctx.quotient
    if g.threshold > q.window_depth:
        raise InconclusiveError(
            "element head region exceeds the verified window", hint=g.threshold
        )
    _same_rays(g, q.n)
    targets, moved, corrected, translated = q._action(g)
    head = q._read(targets, corrected, translated)
    if None in targets:
        for k in q._below(g.threshold):
            if targets[k] is None:
                raise InconclusiveError(
                    f"image of class {q.classes[k][0]} is outside the verified window"
                )
    base = tuple((q.quotient_points[k], v) for k, v in moved.items())
    elt = MultiWreathElement(ctx, base, head)
    if len(memo) >= EMBED_MEMO_CAP:
        del memo[next(iter(memo))]
    memo[g] = elt.base, elt.head
    return elt


def order_preserving_on_class(g: HoughtonElement, ctx: BlockContext, qpoint) -> bool:
    _same_rays(g, ctx.n)
    n = ctx.n
    images = [point_of(n, g._image(code_of(n, p))) for p in ctx.class_points(qpoint)]
    return images == sorted(images)


# -- verification -----------------------------------------------------------------


@dataclass(frozen=True)
class KKReport:
    pairs_checked: int
    homomorphism_failures: int
    injectivity_failures: int
    support_mismatches: int
    typing_exceptions: tuple

    @property
    def ok(self) -> bool:
        return (
            self.homomorphism_failures == 0
            and self.injectivity_failures == 0
            and self.support_mismatches == 0
        )


def random_words(group: GeneratedSubgroup, count: int, max_len: int, rng) -> list:
    gens = group.symmetric_generators()
    out = []
    for _ in range(count):
        length = rng.randint(1, max_len)
        w = rng.choice(gens)
        for _ in range(length - 1):
            w = w.compose(rng.choice(gens))
        out.append(w)
    return out


def verify_kk(
    group: GeneratedSubgroup,
    ctx: BlockContext,
    samples: int = 500,
    max_len: int = 5,
    seed: int = 0,
    w_groups_by_orbit=None,
) -> KKReport:
    """Spot-check the embedding on random bounded words.

    Checks the product rule, injectivity on distinct sampled elements and
    the exact support characterization (base support = classes where the
    element fails to preserve order).  When per-orbit induced groups are
    supplied, base values outside them are reported as typing exceptions.
    """
    rng = random.Random(seed)
    q = ctx.quotient
    words = random_words(group, 2 * samples, max_len, rng)
    hom_fail = inj_fail = supp_fail = 0
    typing = []
    by_image: dict[MultiWreathElement, HoughtonElement] = {}
    for i in range(samples):
        g, h = words[2 * i], words[2 * i + 1]
        kg, kh = kk_embed(g, ctx), kk_embed(h, ctx)
        if kk_embed(g.compose(h), ctx) != kg.multiply(kh):
            hom_fail += 1
        prev = by_image.get(kg)
        if prev is not None and prev != g:
            inj_fail += 1
        by_image[kg] = g
        # kk_embed(g) raised for any class reaching below g's threshold with
        # no known image; a class wholly past it moves by translation, and a
        # class of one point has only one order
        supp = set(kg.support())
        for k in q._below(g.threshold):
            qp, cls = q.quotient_points[k], q.classes[k]
            if (qp in supp) == (len(cls) == 1 or order_preserving_on_class(g, ctx, qp)):
                supp_fail += 1
        if w_groups_by_orbit is not None:
            for qp, v in kg.base:
                grp = w_groups_by_orbit[ctx.orbit_of(qp)]
                if not grp.membership(list(v)):
                    typing.append((qp, v))
    return KKReport(samples, hom_fail, inj_fail, supp_fail, tuple(typing))


# -- induced block permutation groups -------------------------------------------


@dataclass(frozen=True)
class WGroupsReport:
    block: tuple
    from_group: FinitePermGroup
    from_finitary: FinitePermGroup
    from_kernel: FinitePermGroup
    kernel_equals_finitary: bool
    finitary_equals_group: bool


def _acts_trivially_on_classes(elt: HoughtonElement, ctx: BlockContext) -> bool:
    """Whether every kept class whose image is known lands on itself."""
    targets, _ = ctx.quotient._class_action(elt)
    return all(j is None or j == k for k, j in enumerate(targets))


def w_groups(
    group: GeneratedSubgroup,
    ctx: BlockContext,
    orbit: int = 0,
) -> WGroupsReport:
    """Permutations of one block induced by words of length at most 4.

    Three nested collections: all words stabilizing the block setwise, the
    finitary ones among them, and those acting trivially on every class.
    A block of one point needs no search: Sym(1) is trivial, and the empty
    word lies in all three, so each is generated by the identity.
    """
    if group.n != ctx.n:
        raise DomainError(f"group acts on {group.n} rays, the block context on {ctx.n}")
    block = ctx.block_of_orbit[orbit]
    if len(block) == 1:
        gens_g = gens_fin = gens_ker = [(0,)]
    else:
        codes = [code_of(group.n, p) for p in block]
        bset = set(codes)
        ranks = {c: i for i, c in enumerate(codes)}
        gens_g, gens_fin, gens_ker = [], [], []
        gens = group.symmetric_generators()
        for _, e in bounded_words(houghton_identity(group.n), gens, HoughtonElement.compose, 4):
            images = list(map(e._image, codes))
            if set(images) != bset:
                continue
            perm = tuple(map(ranks.__getitem__, images))
            gens_g.append(perm)
            if e.is_finitary():
                gens_fin.append(perm)
                if _acts_trivially_on_classes(e, ctx):
                    gens_ker.append(perm)
    domain = tuple(range(len(block)))
    w_g = FinitePermGroup(domain, sorted(set(gens_g)))
    w_fin = FinitePermGroup(domain, sorted(set(gens_fin)))
    w_ker = FinitePermGroup(domain, sorted(set(gens_ker)))
    return WGroupsReport(
        block,
        w_g,
        w_fin,
        w_ker,
        kernel_equals_finitary=w_ker.order() == w_fin.order(),
        finitary_equals_group=w_fin.order() == w_g.order(),
    )


# -- coset descent -----------------------------------------------------------------


@dataclass(frozen=True)
class DescentResult:
    status: str  # "ok" or "inconclusive"
    residue: MultiWreathElement | None  # element of the finite base subgroup Phi_S
    witness: HoughtonElement | None  # group element with alpha = residue * kk(witness)
    steps: tuple
    reason: str = ""

    @property
    def ok(self):
        return self.status == "ok"


def _conjugator_candidates(group: GeneratedSubgroup, letters, n: int):
    """Class movers, cheapest first: generator powers, pairs of powers, short words.

    ``letters`` are the quotient images of ``group.symmetric_generators()`` on
    a quotient of n rays; each mover comes with its quotient image.

    Powers of translating generators sweep a block class along the rays, which
    is what clearing an off-support class needs; the shallow word search at
    the end covers leftovers.
    """
    budget = 10
    seen = set()
    gens = group.symmetric_generators()
    one = (houghton_identity(group.n), houghton_identity(n))
    powers = [[one] for _ in gens]
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
    step = lambda v, g: (v[0].compose(g[0]), v[1].compose(g[1]))
    for _, (w, wq) in bounded_words(one, list(zip(gens, letters)), step, 4, cap=20000):
        if w not in seen:
            seen.add(w)
            yield w, wq


class _DescentTables:
    """The group-level work of ``phi_s_descent`` over one block context.

    Built on a context's first descent with a group and kept on the context:
    the quotient images of the symmetric generators (the head search's
    letters), one lazily extended list of ``_conjugator_candidates``, the
    memo of conjugated kernel elements, each with whether it embeds, and
    where each clearing scan resumes (``resume``).  Their embeddings are in
    the context's memo (``kk_embed``).
    """

    def __init__(self, group: GeneratedSubgroup, ctx: BlockContext):
        letters = [ctx.quotient.induce(g) for g in group.generators]
        self.letters = letters + [e.inverse() for e in letters]
        self._candidate_stream = _conjugator_candidates(group, self.letters, ctx.n)
        self._candidates = []
        self._conjugates = {}  # (candidate index, f) -> c^-1 f c, or None if it does not embed
        # kernel tuple -> {(target, psi's base value there): candidate index}.
        # A clearing scan records the first candidate that passes every test
        # not reading psi: the image tests, the conjugate's embedding, its
        # support and its base value at the target; a scan that finds none
        # records the end of the list.  No earlier candidate passes those
        # tests for that key, so a scan that starts there picks the candidate
        # a scan from 0 would.
        self.resume = {}

    def candidates(self, start: int = 0):
        """(index, c, cq) in ``_conjugator_candidates`` order, from index start on."""
        k = start
        while True:
            if k == len(self._candidates):
                nxt = next(self._candidate_stream, None)
                if nxt is None:
                    return
                self._candidates.append(nxt)
            yield (k, *self._candidates[k])
            k += 1

    def conjugate(self, ctx: BlockContext, k: int, c: HoughtonElement, f: HoughtonElement):
        """c^-1 f c for candidate k, or None if its embedding is inconclusive."""
        key = (k, f)
        if key in self._conjugates:
            return self._conjugates[key]
        h = c.inverse().compose(f).compose(c)
        try:
            kk_embed(h, ctx)
        except InconclusiveError:
            h = None
        self._conjugates[key] = h
        return h


def phi_s_descent(
    alpha: MultiWreathElement,
    group: GeneratedSubgroup,
    ctx: BlockContext,
    kernel_elements,
) -> DescentResult:
    """Write a wreath element as (finite-support residue over S) * kk(g).

    S is the union of the supports of the embedded kernel elements.  After
    matching the head by word search, each off-S base class is cleared by a
    conjugated kernel element whose embedded support stays inside S plus the
    class being cleared; the off-S support size strictly decreases at every
    step.

    Every descent over one context shares its group-level work: the kernel
    elements' embeddings, and every other one, through the context's memo
    (``kk_embed``), and per group (by equality) the quotient letters, the
    conjugator candidates and the conjugated kernel elements
    (``_DescentTables``).  The tables live as long as the context.  The
    20000-word cap of the candidate enumeration bounds the candidate table;
    the conjugate memo holds one entry per candidate and kernel element that
    a descent has used.  A clearing scan does not start afresh: it resumes
    at the first candidate that passed the psi-free tests for its kernel,
    target and base value (``_DescentTables.resume``), and still runs the
    measure test there and after.  The head's search, over quotient images
    and capped at 20000 of them, runs afresh on every descent.

    The kernel elements must act trivially on the classes: DomainError names
    the first whose embedding has a non-identity head.
    """
    kernel_elements = list(kernel_elements)
    kk_kernel = [kk_embed(f, ctx) for f in kernel_elements]
    for i, kf in enumerate(kk_kernel):
        if not kf.head.is_identity():
            raise DomainError(
                f"kernel element {i} moves the classes: its quotient image is not the identity"
            )
    supports = [set(k.support()) for k in kk_kernel]
    big_s = set().union(*supports) if supports else set()
    n = ctx.n
    big_codes = [code_of(n, qp) for qp in big_s]
    kernel_codes = [[code_of(n, qp) for qp in k.support()] for k in kk_kernel]
    tables = ctx._descent_tables.get(group)
    if tables is None:
        tables = ctx._descent_tables[group] = _DescentTables(group, ctx)
    resume = tables.resume.setdefault(tuple(kernel_elements), {})
    one = houghton_identity(ctx.n)
    heads = bounded_words(one, tables.letters, HoughtonElement.compose, 10, cap=20000)
    path = next((p for p, wq in heads if wq == alpha.head), None)
    if path is None:
        return DescentResult(
            "inconclusive", None, None, (), "no word matches the head within the budget"
        )
    witness = group.spell(path)
    psi = alpha.multiply(kk_embed(witness, ctx).inverse())
    if not psi.head.is_identity():
        raise AssertionError("head did not cancel after the word match")
    steps = []
    measure = len(set(psi.support()) - big_s)
    while measure:
        target = min(set(psi.support()) - big_s)
        allowed = big_s | {target}
        allowed_codes = {*big_codes, code_of(n, target)}
        want = psi.base_value(target)
        key = (target, want)
        cleared = False
        for k, c, cq in tables.candidates(resume.get(key, 0)):
            if not all(cq._image(x) in allowed_codes for x in big_codes):
                continue
            for f, kf, support in zip(kernel_elements, kk_kernel, kernel_codes):
                if not all(cq._image(x) in allowed_codes for x in support):
                    continue
                h = tables.conjugate(ctx, k, c, f)
                if h is None:
                    continue
                kh = kk_embed(h, ctx)
                if not set(kh.support()) <= allowed:
                    continue
                if kh.base_value(target) != want:
                    continue
                resume.setdefault(key, k)
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
            resume.setdefault(key, len(tables._candidates))
            return DescentResult(
                "inconclusive",
                psi,
                witness,
                tuple(steps),
                f"no conjugated kernel element clears {target} within the budget",
            )
    return DescentResult("ok", psi, witness, tuple(steps))
