"""Finite block systems for subgroup actions on the ray set.

``find_block_systems`` first tries a proof that no proper non-trivial system
of finite blocks exists (``_finitary_alternating_proof``: every orbit is
infinite and the group contains its finitary alternating group); where it
holds, the empty result is a proof at every window, and its caveat says so.
Otherwise verification and bounded search run on a finite window, so
positive results are certificates while an empty search is only evidence:
the search's caveat says that instead.  The quotient construction orders
congruence classes by least element, ranks them along each ray and rebuilds
the induced generator images as elements of the quotient ray system.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, compress, islice
from operator import ne

from .elements import HoughtonElement, _image_table, _off_translation, _translation_table
from .errors import DomainError, InconclusiveError, InvalidElementError
from .finperm import _classes, _close, _witness_system
from .rays import RayPoint, RaySystem, code_of, point_of
from .subgroups import (
    GeneratedSubgroup,
    TranslationLattice,
    _window_partition,
    bounded_words,
    orbit_windows,
    translation_lattice,
)


@dataclass(frozen=True)
class BlockSystem:
    """Disjoint finite blocks, one per orbit class of the congruence."""

    blocks: tuple

    def __post_init__(self):
        seen = set()
        for k, b in enumerate(self.blocks):
            if not b:
                raise DomainError("empty block")
            if len(set(b)) != len(b):
                raise DomainError(f"block {k} repeats a point: {list(b)}")
            if seen & set(b):
                raise DomainError("blocks overlap")
            seen.update(b)

    @classmethod
    def from_lists(cls, blocks) -> "BlockSystem":
        """Blocks given as lists of [ray, pos] integer pairs.

        DomainError on any other shape; range checks against a window are
        left to the computations that use one.
        """
        if not isinstance(blocks, (list, tuple)):
            raise DomainError("a block system must be a list of blocks")
        for k, b in enumerate(blocks):
            if not isinstance(b, (list, tuple)) or not all(
                isinstance(p, (list, tuple)) and len(p) == 2 and all(type(x) is int for x in p)
                for p in b
            ):
                raise DomainError(f"block {k} is not a list of [ray, pos] integer pairs")
        return cls(tuple(tuple(sorted(RayPoint(*p) for p in b)) for b in blocks))

    def to_json_list(self):
        return [[[p.ray, p.pos] for p in b] for b in self.blocks]

    @property
    def max_block_size(self) -> int:
        return max(len(b) for b in self.blocks)


def block_size_bound(lattice: TranslationLattice) -> int:
    """Upper bound on finite block sizes: the index of the translation image."""
    e = lattice.index_in_zero_sum()
    if e is None:
        raise DomainError("block size bound needs a full-rank translation lattice")
    return e


def _generator_margin(group: GeneratedSubgroup) -> int:
    """Largest threshold plus shift over the generators.

    Window data closer than this to the window's edge may depend on points
    beyond it.
    """
    return max((g.threshold + g.max_shift() for g in group.generators), default=1)


def _require_margin(group: GeneratedSubgroup, depth: int) -> int:
    """The generator margin; InconclusiveError when half the depth is below it."""
    margin = _generator_margin(group)
    if depth // 2 < margin:
        raise InconclusiveError(
            f"window depth {depth} is too shallow to verify blocks "
            f"against generators of margin {margin}",
            hint=2 * margin,
        )
    return margin


def _same_rays(element: HoughtonElement, n: int) -> None:
    """DomainError unless the element acts on n rays."""
    if element.n != n:
        raise DomainError(f"element acts on {element.n} rays, the block system on {n}")


# -- congruence closure --------------------------------------------------------


def _check_in_window(blocks, n: int, depth: int) -> None:
    """DomainError unless every point of every block lies in the window."""
    for block in blocks:
        for ray, pos in block:
            if not (1 <= ray <= n and 0 <= pos < depth):
                raise DomainError(f"block point outside the window of depth {depth}")


def _window_action(group: GeneratedSubgroup, depth: int) -> tuple:
    """Image tables (``_image_table``) of ``symmetric_generators()`` on the window of this depth."""
    return tuple(_image_table(g, depth) for g in group.symmetric_generators())


def congruence_classes(group: GeneratedSubgroup, system: BlockSystem, depth: int):
    """Window classes of the equivalence generated by the blocks.

    Merging two points forces the merge of their images under every
    generator and inverse, propagated to a fixpoint inside the window.
    """
    n, blocks = group.n, system.blocks
    _check_in_window(blocks, n, depth)
    pairs = [(code_of(n, a), code_of(n, b)) for block in blocks for a, b in zip(block, block[1:])]
    roots = _close(n * depth, pairs, _window_action(group, depth))
    return _window_partition(roots, n, depth)


# -- verification ------------------------------------------------------------


@dataclass(frozen=True)
class BlockVerification:
    valid: bool
    orbit_axiom: bool
    block_axiom: bool
    witnesses: tuple
    multi_ray_translate_count: int

    def __bool__(self):
        return self.valid


def verify_block_system(
    group: GeneratedSubgroup,
    system: BlockSystem,
    depth: int,
) -> BlockVerification:
    """Check the block-system axioms against window data.

    Orbit axiom: every window orbit class meets exactly one block.  Block
    axiom: no image of a block under a word of length <= 3 lies in the window
    and meets the block without equalling it.  The search runs over each
    block's image sets; a witness is the shortlex-least word to the block's
    first violating image.  Raises InconclusiveError when the orbit report,
    taken at half the depth, is shallower than the generator margin, and
    DomainError when a block point lies outside the window.
    """
    _require_margin(group, depth)
    n = group.n
    _check_in_window(system.blocks, n, depth)
    witnesses = []
    report = orbit_windows(group, depth // 2)
    orbit_ok = True
    for cls in report.classes:
        hits = [i for i, b in enumerate(system.blocks) if set(b) & set(cls)]
        if len(hits) != 1:
            orbit_ok = False
            witnesses.append(("orbit", cls[0], tuple(hits)))
    image_set = lambda s, g: frozenset(map(g._image, s))
    violations = {}  # block index -> (path, image codes) of the first violating word
    for i, block in enumerate(system.blocks):
        bset = frozenset(code_of(n, p) for p in block)
        for path, img in bounded_words(bset, group.symmetric_generators(), image_set, 3):
            if img & bset and img != bset and max(img) < n * depth:
                violations[i] = (path, img)
                break
    k = len(group.generators)
    labels = [f"gen{i}" for i in range(k)] + [f"gen{i}^-1" for i in range(k)]
    for i, (path, img) in sorted(violations.items()):
        image = tuple(sorted(point_of(n, c) for c in img))
        witnesses.append(("block", i, "*".join(labels[j] for j in path), image))
    block_ok = not violations
    multi_ray = 0
    for cls in congruence_classes(group, system, depth):
        if len(cls) > 1 and len({p.ray for p in cls}) > 1:
            multi_ray += 1
    return BlockVerification(
        valid=orbit_ok and block_ok,
        orbit_axiom=orbit_ok,
        block_axiom=block_ok,
        witnesses=tuple(witnesses),
        multi_ray_translate_count=multi_ray,
    )


# -- search ------------------------------------------------------------------


@dataclass(frozen=True)
class BlockSearchResult:
    systems: tuple
    caveat: str


def _edge_weights(n: int, depth: int, cap: int, edge: int) -> list:
    """Pair-closure weights per code: 1, and ``cap + 1`` from position ``edge`` on."""
    return [1] * (n * edge) + [cap + 1] * (n * (depth - edge))


def _search_block_systems(group: GeneratedSubgroup, depth: int) -> BlockSearchResult:
    """The window-bounded search of ``find_block_systems``, without the proof.

    Seeds are pairs of a fixed representative per orbit class with the first
    4 * bound window points, where bound is the block size bound of the
    translation lattice.  A seed's closure stops as soon as the block of the
    representative exceeds the bound or reaches the last generator-margin
    positions of the window, where its data may depend on points beyond it;
    classes only grow, so such a closure could not have yielded a candidate.
    The closure is the least congruence holding its seed pair, so a later
    seed whose closure pulls a failed seed into the representative's block
    contains the failed closure and fails too: each failed seed weighs like
    a point past the edge for the representative's later seeds, and seeds
    that weigh that much are skipped.  Every candidate that survives is
    verified before being returned, unless an earlier verified closure has
    the same classes in the whole window.  Raises InconclusiveError when
    half the depth is below the generator margin, since no candidate could
    then be verified.
    """
    bound = block_size_bound(translation_lattice(group))
    margin = _require_margin(group, depth)
    n = group.n
    report = orbit_windows(group, depth // 2)
    tables = _window_action(group, depth)
    seeds = [code_of(n, q) for q in islice(RaySystem(n).window(depth), 4 * bound)]
    found = []
    seen_keys = set()
    for cls in report.classes:
        ip = code_of(n, cls[0])
        weights = _edge_weights(n, depth, bound, depth - margin)
        for iq in seeds:
            if iq == ip or weights[iq] > bound:
                continue
            roots = _close(n * depth, [(ip, iq)], tables, (ip, bound, weights))
            if roots is None:
                weights[iq] = bound + 1
                continue
            block = tuple(sorted(point_of(n, c) for c, r in enumerate(roots) if r == roots[ip]))
            if any(set(c) <= set(block) for c in report.classes):
                continue
            key = frozenset(tuple(c) for c in _classes(roots))
            if key in seen_keys:
                continue
            covered = [c for c in report.classes if set(c) & set(block)]
            system = BlockSystem(_witness_system(block, report.classes, covered))
            verdict = verify_block_system(group, system, depth)
            if verdict.valid:
                seen_keys.add(key)
                found.append(system)
    found.sort(key=lambda s: s.blocks[0][0])
    return BlockSearchResult(tuple(found), WINDOW_CAVEAT)


def find_block_systems(group: GeneratedSubgroup, depth: int) -> BlockSearchResult:
    """Proper non-trivial block systems: none by proof, or a bounded search.

    When the finitary alternating proof holds (``_alternating_components``,
    read without its points), the result is empty with ``PROOF_CAVEAT``: no
    proper non-trivial system of finite blocks exists, so neither the window
    nor the translation lattice is read.  Otherwise the window-bounded search
    runs (``_search_block_systems``) and its caveat is ``WINDOW_CAVEAT``: an
    empty result is then evidence only, never a proof of strong orbit
    primitivity.  The search raises DomainError when the translation lattice
    is not of full rank, since the block size bound needs it, and
    InconclusiveError when half the depth is below the generator margin.
    """
    if _alternating_components(group) is not None:
        return BlockSearchResult((), PROOF_CAVEAT)
    return _search_block_systems(group, depth)


# -- the finitary alternating proof ----------------------------------------------

PROOF_CAVEAT = (
    "proof: every orbit is infinite and the group contains its finitary "
    "alternating group, so no proper non-trivial block system exists"
)
WINDOW_CAVEAT = (
    "window-bounded search: an empty result is not a proof that no proper "
    "non-trivial block system exists"
)


def _small_cycle(moved: dict):
    """The cycle, as a tuple of codes, of a permutation moving 2 or 3 points.

    ``moved`` maps each moved code to its image.  A permutation moving
    exactly 3 points fixes none of them, so it is a 3-cycle.  None for any
    other number of moved points.  The cycle starts at its least code.
    """
    if len(moved) not in (2, 3):
        return None
    p = min(moved)
    cycle = [p]
    q = moved[p]
    while q != p:
        cycle.append(q)
        q = moved[q]
    return tuple(cycle)


def _letters(group: GeneratedSubgroup) -> list:
    """The generators, then their inverses, as (head, steps) on codes.

    The order is that of ``symmetric_generators()``.  A letter sends the code
    c to ``head.get(c, c + steps[c % n])``.  An inverse's head is the
    reversed head ``{q: p for p, q in g._items}``, which is the head of
    ``g.inverse()``, and its steps are negated: no inverse element is built.
    """
    n, gens = group.n, group.generators
    forward = [(g._head, tuple(n * x for x in g.t)) for g in gens]
    inverse = [({q: p for p, q in g._items}, tuple(-n * x for x in g.t)) for g in gens]
    return forward + inverse


def _commutator_cycle(a, b, a_inv, b_inv):
    """``_small_cycle`` of the commutator "a, then b, then a^-1, then b^-1", on ``_letters``.

    Reads the commutator's moved points without building it.  If b is
    finitary with support F, the commutator is a b a^-1, which moves only
    a^-1(F), then b^-1, which moves only F; if a is, it is a, moving only F,
    then b a^-1 b^-1, moving only b^-1(F).  So 2|F| candidates suffice.
    Otherwise x moves only where b(a(x)) != a(b(x)): with x off both heads,
    a(x) off b's head and b(x) off a's, both are x + t_a + t_b along x's ray,
    so the candidates are the two heads and their preimages under a and b.
    Stops as soon as a fourth point moves.
    """
    (a_head, a_steps), (b_head, b_steps) = a, b
    (ai_head, ai_steps), (bi_head, bi_steps) = a_inv, b_inv
    n = len(a_steps)
    if not any(b_steps):
        candidates = {*b_head, *(ai_head.get(p, p + ai_steps[p % n]) for p in b_head)}
    elif not any(a_steps):
        candidates = {*a_head, *(bi_head.get(p, p + bi_steps[p % n]) for p in a_head)}
    else:
        candidates = {*a_head, *b_head}
        candidates.update(ai_head.get(p, p + ai_steps[p % n]) for p in b_head)
        candidates.update(bi_head.get(p, p + bi_steps[p % n]) for p in a_head)
    moved = {}
    for x in candidates:
        y = a_head.get(x, x + a_steps[x % n])
        y = b_head.get(y, y + b_steps[y % n])
        y = ai_head.get(y, y + ai_steps[y % n])
        y = bi_head.get(y, y + bi_steps[y % n])
        if y != x:
            if len(moved) == 3:
                return None
            moved[x] = y
    return _small_cycle(moved)


def _witness_cycles(group: GeneratedSubgroup):
    """The candidate witness cycles of ``_finitary_alternating_proof``, on codes, lazily.

    Stages: the finitary generators; the commutators of generator pairs,
    finitary since translation vectors commute; then two rounds of new
    conjugates a^-1 w a of the last stage by the symmetric generators, whose
    cycle is w's cycle moved by a, so they need no element product.  The
    generators are read as ``_letters``, so no inverse element is built.  The
    proof stops reading at the first cycle that certifies every orbit.
    """
    n, gens = group.n, group.generators
    cycles = [c for g in gens if not any(g.t) and (c := _small_cycle(g._head))]
    yield from cycles
    letters, k = _letters(group), len(gens)
    for i, j in combinations(range(k), 2):
        if c := _commutator_cycle(letters[i], letters[j], letters[k + i], letters[k + j]):
            cycles.append(c)
            yield c
    seen = {frozenset(c) for c in cycles}
    for _ in range(2):
        conjugates = {}
        for c in cycles:
            for head, steps in letters:
                image = tuple(head.get(p, p + steps[p % n]) for p in c)
                conjugates.setdefault(frozenset(image), image)
        cycles = [c for key, c in conjugates.items() if key not in seen]
        seen.update(conjugates)
        yield from cycles


def _finitary_alternating_proof(group: GeneratedSubgroup):
    """Per orbit, a set S with the witnesses that prove Alt(S) <= G; else None.

    The result holds one (S, witnesses) pair per orbit of G, in order of
    least point: S is a sorted tuple of points of the orbit, and each witness
    is the cycle, as a tuple of points, of a transposition or 3-cycle in G.
    They are the components of ``_alternating_components`` read as points.
    It proves that G preserves no partition into finite blocks other than
    the partition into points:

    - Every orbit is infinite.  The exact orbit certificate
      (``GeneratedSubgroup.orbits``) has no run fixed by every generator,
      and every closure class holds a node of some ray's infinite tail.
    - Alt(S) <= G, with |S| >= 3, when the witnesses' supports connect S.
      Add the witnesses one at a time, each meeting the union U of those
      before it: the group they generate holds Sym(U) while |U| = 2 and
      Alt(U) after.  Overlapping alternating groups on 3 or more points
      generate the alternating group of their union, and a transposition
      (a b) with a in U, b outside U, conjugates a 3-cycle (a c d) on U or
      on the new support to (b c d).
    - FAlt(O) <= G for the orbit O of S, since S meets a(S) for every
      generator a.  Then w(S) meets w(a(S)) for every w in G, so along a
      word every translate w(S) chains to S by overlapping translates, each
      with Alt(w(S)) = w Alt(S) w^-1 <= G.  The translates cover O, so every
      finite subset of O lies in a finite connected union of them.
    - A finite block is a point.  Let p != q lie in a block B, with q in the
      orbit O.  The elements of FAlt(O) that fix p fix B and move q to every
      point of O other than p, so B is infinite.
    """
    found = _alternating_components(group)
    if found is None:
        return None
    n = group.n
    points = lambda codes: tuple(point_of(n, c) for c in codes)
    return tuple(sorted((tuple(sorted(points(c))), tuple(map(points, w))) for c, w in found))


def _alternating_components(group: GeneratedSubgroup):
    """The proof of ``_finitary_alternating_proof`` on codes: per orbit, (codes, witnesses); else None.

    Each cycle of ``_witness_cycles`` joins the components it meets, and a
    component is tested again only when it gains a point: both conditions
    survive growth, so the answer is the one the whole stream would give.
    """
    orbits = group.orbits
    tails = orbits.tail_roots()
    if orbits.has_fixed_run() or not tails.issuperset(orbits.roots):
        return None  # a fixed point, or a class without a tail node, is a finite orbit
    n, gens = group.n, group.generators
    part = {}  # code -> the (codes, witnesses) pair of its component, shared by its codes
    found = {}  # orbit key -> its certified component
    for cycle in _witness_cycles(group):
        parts = {id(c): c for p in cycle if (c := part.get(p))}.values()
        codes, witnesses = joined = max(parts, key=lambda c: len(c[0]), default=(set(), []))
        if codes.issuperset(cycle):
            continue  # no new point
        for other_codes, other_witnesses in (c for c in parts if c is not joined):
            codes |= other_codes
            witnesses += other_witnesses
            part.update(dict.fromkeys(other_codes, joined))
        codes.update(cycle)
        witnesses.append(cycle)
        part.update(dict.fromkeys(cycle, joined))
        if len(codes) >= 3 and all(any(a._image(c) in codes for c in codes) for a in gens):
            found[orbits.key(point_of(n, cycle[0]))] = joined
        if len(found) == len(tails):
            return list(found.values())
    return None


# -- quotient structure ----------------------------------------------------------


# Most entries each memo keeps, oldest out first: a quotient's translation
# actions and a block context's embeddings.  A pass of the wreath-descent
# benchmark embeds 100-130 distinct elements per context, so every repeat
# there is a hit.
EMBED_MEMO_CAP = 4096


def _remember(memo: dict, key, value):
    """Keep value under key; a memo at ``EMBED_MEMO_CAP`` entries drops its oldest first."""
    if len(memo) >= EMBED_MEMO_CAP:
        del memo[next(iter(memo))]
    memo[key] = value
    return value


@dataclass(frozen=True)
class _Translated:
    """How the translations of one vector act on the kept classes, and the quotient read of it."""

    targets: list  # per kept class, as in QuotientStructure._action; None also where it splits
    split: tuple  # ids of the kept classes whose images fall in two classes
    moved: dict  # as in QuotientStructure._action
    shifts: tuple | None  # the translation read off _top, None where the read fails
    failure: tuple | None  # (message, hint) of a failed read
    pairs: dict  # class id -> (code, image code), where the image is off the shifts


@dataclass(eq=False)
class QuotientStructure:
    """Window classes ordered by least element, with induced generator images.

    Kept class k is the quotient point of code _codes[k], and an element acts
    on the kept classes as a list of target class ids (``_action``), which
    ``_read_element`` reads.  ``_read`` gives that action with the quotient
    element it pins down: ``induce`` and ``wreath.kk_embed`` both call it.

    An element g acts on the kept classes as its translation vector t does,
    except on the classes that hold a key of its head.  The head is in
    canonical form and holds every point off the translation rule, every
    point below -t_j included, so every point of any other kept class moves
    by p + n * t[ray]: that class has the same images, target, ranks and
    split status under g as under the plain translation table of t.  The
    whole-window pass therefore runs once per vector (``_translation``, at
    most ``EMBED_MEMO_CAP`` vectors, oldest out first), and each element
    reads again only the kept classes that hold a head key (``_action``).
    """

    system: BlockSystem
    n: int
    window_depth: int
    classes: tuple  # complete-in-window classes, sorted by min point
    quotient_points: tuple  # per class, its point of the quotient ray system
    induced: tuple  # per subgroup generator, a HoughtonElement on the quotient
    kernel_generators: tuple  # indices of generators acting trivially on classes
    _closure_depth: int  # depth of the closure window
    _class_of: dict  # per code of the closure window, its class id (kept classes first)
    _rank_of: dict  # per code of the closure window, its rank inside its sorted class
    _target_of: dict  # per kept class id, itself
    _members: tuple  # codes of the kept classes' points, class by class
    _member_class: tuple  # per entry of _members, its kept class id
    _member_rank: list  # per entry of _members, its rank inside its class
    _lead: tuple  # per entry of _members, the start of its class in _members
    _starts: tuple  # per kept class, the start of its points in _members
    _codes: tuple  # per kept class, the code of its quotient point
    _least_pos: tuple  # per kept class, the least position of its points (on any ray)
    _top: tuple  # per ray, the kept class ids in the top half of its complete rank prefix
    _top_ids: frozenset  # the ids in _top
    _translations: dict  # translation vector -> its _Translated

    def class_index_of(self, p) -> int | None:
        ray, pos = p
        if not (1 <= ray <= self.n and 0 <= pos):
            return None
        return self._target_of.get(self._class_of.get(code_of(self.n, p)))

    def _below(self, threshold: int) -> list:
        """The ids of the kept classes with a point below the threshold, in id order."""
        return [k for k, low in enumerate(self._least_pos) if low < threshold]

    def _translation(self, t: tuple) -> _Translated:
        """The class action of the translation table of t, and its quotient read.

        One comparison over the whole window shows that every kept class
        lands in one class, and one that no rank moves; only the classes
        that fail a comparison are read one by one.  A read that fails keeps
        its message and hint, not the exception, whose frames it would keep.
        """
        got = self._translations.get(t)
        if got is not None:
            return got
        table = _translation_table(self.n, t, self._closure_depth)
        images = list(map(table.__getitem__, self._members))
        # an image past the closure window or below position 0 has no class and no rank: None
        classes = list(map(self._class_of.get, images))
        ranks = list(map(self._rank_of.get, images))
        targets = list(map(self._target_of.get, map(classes.__getitem__, self._starts)))
        leads = list(map(classes.__getitem__, self._lead))
        split = []
        if leads != classes:
            for k in sorted(set(compress(self._member_class, map(ne, leads, classes)))):
                start = self._starts[k]
                if None not in classes[start:start + len(self.classes[k])]:
                    split.append(k)
                targets[k] = None
        moved = {}
        if ranks != self._member_rank:
            for k in sorted(set(compress(self._member_class, map(ne, ranks, self._member_rank)))):
                if targets[k] is not None:
                    start = self._starts[k]
                    moved[k] = tuple(ranks[start:start + len(self.classes[k])])
        codes, shifts, failure, pairs = self._codes, None, None, {}
        try:
            shifts = _read_shifts(self.n, codes, targets, self._top)
        except InconclusiveError as exc:
            failure = (str(exc), exc.hint)
        else:
            off = _off_translation(self.n, shifts, _pairs(codes, targets))
            pairs = {k: (a, off[a]) for k, a in enumerate(codes) if a in off}
        return _remember(
            self._translations, t, _Translated(targets, tuple(split), moved, shifts, failure, pairs)
        )

    def _action(self, element: HoughtonElement):
        """(targets, moved, corrected, translated): how the element acts on the kept classes.

        ``targets[k]`` is the id of the kept class that class k lands in, or
        None where an image leaves the closure window, even if the other
        images fall in two classes, and where the images land in a class that
        crosses the depth.  Images in two classes raise DomainError, naming
        the least id that splits.  ``moved`` maps each class with a target
        whose image ranks are not the identity to those ranks, in class-id
        order.  Only the kept classes that hold a head key (``corrected``) are
        read again; every other class keeps what the translation vector's
        action (``translated``) gives it.
        """
        translated = self._translation(element.t)
        class_of, target_of = self._class_of, self._target_of
        corrected = set(map(target_of.get, map(class_of.get, element._head)))
        corrected.discard(None)
        targets = translated.targets.copy()
        moved = {k: v for k, v in translated.moved.items() if k not in corrected}
        split = [k for k in translated.split if k not in corrected]
        for k in corrected:
            start = self._starts[k]
            images = list(map(element._image, self._members[start:start + len(self.classes[k])]))
            classes = set(map(class_of.get, images))
            if len(classes) > 1:
                if None not in classes:
                    split.append(k)
                targets[k] = None
                continue
            targets[k] = target_of.get(classes.pop())
            ranks = tuple(map(self._rank_of.get, images))
            if targets[k] is not None and ranks != tuple(range(len(ranks))):
                moved[k] = ranks
        if split:
            raise DomainError(
                f"element does not preserve the congruence near {self.classes[min(split)][0]}"
            )
        if corrected:
            moved = dict(sorted(moved.items()))
        return targets, moved, corrected, translated

    def _read(self, element: HoughtonElement):
        """``_action``'s targets and moved, and the head ``_read_element`` reads off the targets.

        While no corrected class lies in ``_top``, the translation's shift
        vector (or failed read) holds, and so do its pairs off that vector
        outside the corrected classes; the constructor reads them with the
        corrected classes' pairs in class-id order, as ``_read_element`` would.
        """
        targets, moved, corrected, translated = self._action(element)
        if not corrected.isdisjoint(self._top_ids):
            return targets, moved, _read_element(self.n, self._codes, targets, self._top)
        if translated.shifts is None:
            raise InconclusiveError(*translated.failure)
        pairs = {k: p for k, p in translated.pairs.items() if k not in corrected}
        codes = self._codes
        for k in corrected:
            if (j := targets[k]) is not None:
                pairs[k] = (codes[k], codes[j])
        return targets, moved, _element_of(self.n, translated.shifts, map(pairs.get, sorted(pairs)))

    def partial_action(self, element: HoughtonElement) -> dict:
        """Partial map on quotient points induced by an element of the group.

        A class is left out when one of its images leaves the closure window,
        even if its other images fall in two classes, and when its images land
        in a class that crosses the depth.  Raises DomainError when the element
        acts on another number of rays or when the images of a remaining class
        fall in two classes.
        """
        _same_rays(element, self.n)
        qps = self.quotient_points
        targets = self._action(element)[0]
        return {qps[k]: qps[j] for k, j in enumerate(targets) if j is not None}

    def induce(self, element: HoughtonElement) -> HoughtonElement:
        """The permutation the element induces on the quotient ray system."""
        _same_rays(element, self.n)
        return self._read(element)[2]


def _top_half(points, known_ranks) -> tuple:
    """Per ray, the ids of the points in the top half of its known ranks.

    ``points`` are (ray, rank) pairs and ``known_ranks`` caps, per ray, the
    ranks a partial map is complete up to; a translation is read off the
    pairs whose source rank r has known_ranks[i] // 2 <= r < known_ranks[i].
    """
    top = tuple([] for _ in known_ranks)
    for k, (ray, rank) in enumerate(points):
        limit = known_ranks[ray - 1]
        if limit // 2 <= rank < limit:
            top[ray - 1].append(k)
    return top


def _pairs(codes, targets):
    """(code, image code) of each source with a target."""
    return ((a, codes[j]) for a, j in zip(codes, targets) if j is not None)


def _read_element(n: int, codes, targets: list, top) -> HoughtonElement:
    """The element of n rays that a partial map on points pins down.

    Point k has code codes[k].  Source k is point k, and maps to point
    targets[k], or to nothing where that is None.  ``top[i]`` lists the
    sources in the top half of ray i + 1's known ranks (``_top_half``).  The
    translation on each ray is read off them (``_read_shifts``).  The
    validating constructor keeps every source whose image differs from the
    translation, reading the pairs as they are made, and checks that the
    result is a bijection.  Raises InconclusiveError when the data does not
    pin the element down.
    """
    return _element_of(n, _read_shifts(n, codes, targets, top), _pairs(codes, targets))


def _read_shifts(n: int, codes, targets: list, top) -> tuple:
    """The translation vector of ``_read_element``'s partial map.

    On each ray the pairs of the sources in ``top`` with a target must be at
    least two, stay on the ray and share one shift; InconclusiveError if not.
    """
    t = []
    for ray, ids in enumerate(top, start=1):
        pairs = [(codes[k], codes[j]) for k in ids if (j := targets[k]) is not None]
        # a pair whose image leaves the ray has no shift: None
        shifts = {(b - a) // n if b % n == ray - 1 else None for a, b in pairs}
        if len(pairs) < 2 or len(shifts) != 1 or None in shifts:
            raise InconclusiveError(
                f"cannot read an eventual translation on quotient ray {ray}",
                hint="increase the window depth",
            )
        t.append(shifts.pop())
    return tuple(t)


def _element_of(n: int, t: tuple, pairs) -> HoughtonElement:
    """The validating constructor on (code, image code) pairs; InconclusiveError if no bijection."""
    try:
        return HoughtonElement._from_codes(n, t, pairs)
    except InvalidElementError as exc:
        raise InconclusiveError(
            f"partial quotient data does not close to a bijection: {exc}",
            hint="increase the window depth",
        ) from None


def quotient(group: GeneratedSubgroup, system: BlockSystem, depth: int) -> QuotientStructure:
    """Congruence quotient with its least-element order and induced images.

    Classes bucket by the ray of their least element and rank within the
    bucket; the resulting map to the quotient ray system is the order
    isomorphism used everywhere downstream.  Kernel generators (trivial on
    every class) must be finitary.  Raises DomainError when a block point
    lies outside the window of this depth.
    """
    n = group.n
    _check_in_window(system.blocks, n, depth)
    closure_depth = 2 * depth
    deeper = congruence_classes(group, system, 2 * closure_depth)
    classes_all = congruence_classes(group, system, closure_depth)

    def kept(classes):
        return tuple(c for c in classes if all(p.pos < depth for p in c))

    if kept(classes_all) != kept(deeper):
        raise InconclusiveError(
            "congruence classes did not stabilize under window doubling",
            hint=closure_depth * 2,
        )
    ranks_per_ray = [0] * n
    qpoints: dict[int, RayPoint] = {}
    # ranks the partial quotient data is contiguously complete up to, per ray
    known_ranks = [0] * n
    prefix_broken = [False] * n
    for k, cls in enumerate(classes_all):
        ray = cls[0].ray
        if all(p.pos < depth for p in cls):
            qpoints[k] = RayPoint(ray, ranks_per_ray[ray - 1])
            if not prefix_broken[ray - 1]:
                known_ranks[ray - 1] = ranks_per_ray[ray - 1] + 1
        else:
            prefix_broken[ray - 1] = True
        ranks_per_ray[ray - 1] += 1
    kept_indices = list(qpoints)
    # kept classes take ids 0..K-1 in their order, the classes crossing the depth follow
    order = kept_indices + [k for k in range(len(classes_all)) if k not in qpoints]
    class_of, rank_of = {}, {}
    for cid, k in enumerate(order):
        for rank, p in enumerate(classes_all[k]):
            c = code_of(n, p)
            class_of[c] = cid
            rank_of[c] = rank
    members, member_class, member_rank, lead, starts = [], [], [], [], []
    for cid, k in enumerate(kept_indices):
        start, size = len(members), len(classes_all[k])
        members.extend(code_of(n, p) for p in classes_all[k])
        member_class.extend([cid] * size)
        member_rank.extend(range(size))
        lead.extend([start] * size)
        starts.append(start)
    quotient_points = tuple(qpoints[k] for k in kept_indices)
    least_pos = tuple(min(p.pos for p in classes_all[k]) for k in kept_indices)
    top = _top_half(quotient_points, known_ranks)
    structure = QuotientStructure(
        system=system,
        n=n,
        window_depth=depth,
        classes=tuple(classes_all[k] for k in kept_indices),
        quotient_points=quotient_points,
        induced=(),
        kernel_generators=(),
        _closure_depth=closure_depth,
        _class_of=class_of,
        _rank_of=rank_of,
        _target_of={cid: cid for cid in range(len(kept_indices))},
        _members=tuple(members),
        _member_class=tuple(member_class),
        _member_rank=member_rank,
        _lead=tuple(lead),
        _starts=tuple(starts),
        _codes=tuple(code_of(n, qp) for qp in quotient_points),
        _least_pos=least_pos,
        _top=top,
        _top_ids=frozenset(chain.from_iterable(top)),
        _translations={},
    )
    induced = []
    kernel = []
    for gi, g in enumerate(group.generators):
        elt = structure.induce(g)
        induced.append(elt)
        if elt.is_identity():
            if any(g.translation_vector()):
                raise DomainError(
                    f"generator {gi} is trivial on the quotient but not finitary"
                )
            kernel.append(gi)
    structure.induced = tuple(induced)
    structure.kernel_generators = tuple(kernel)
    return structure
