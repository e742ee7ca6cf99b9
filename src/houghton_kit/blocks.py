"""Finite block systems for subgroup actions on the ray set.

Verification and bounded search run on a finite window, so positive results
are certificates while an empty search is only evidence: the caveat string on
search results says so.  The quotient construction orders congruence classes
by least element, ranks them along each ray and rebuilds the induced
generator images as elements of the quotient ray system.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .elements import HoughtonElement, _image_table
from .errors import DomainError, InconclusiveError
from .finperm import _close
from .rays import RayPoint, RaySystem
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
        for b in self.blocks:
            if not b:
                raise DomainError("empty block")
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


def _index(p, depth: int) -> int:
    """Window index of a point: (ray - 1) * depth + pos."""
    ray, pos = p
    return (ray - 1) * depth + pos


@lru_cache(maxsize=8)
def _window_action(group: GeneratedSubgroup, depth: int) -> tuple:
    """Image tables of the symmetric generators on the window of this depth.

    Point (ray, pos) has index (ray - 1) * depth + pos, so index order is the
    lexicographic order of points.  Tables follow ``symmetric_generators()``:
    a forward table is read from the generator's head table and translation
    vector, and the inverse's table is the forward table read backwards.
    """
    forward = [_image_table(g, depth) for g in group.generators]
    inverse = []
    for table in forward:
        back = [-1] * len(table)
        for i, j in enumerate(table):
            if j >= 0:
                back[j] = i
        inverse.append(tuple(back))
    return tuple(forward + inverse)


def _congruence(group: GeneratedSubgroup, blocks, depth: int):
    """Closure root list of the equivalence generated by the blocks."""
    n = group.n
    _check_in_window(blocks, n, depth)
    pairs = [
        (_index(a, depth), _index(b, depth)) for block in blocks for a, b in zip(block, block[1:])
    ]
    return _close(n * depth, pairs, _window_action(group, depth))


def congruence_classes(group: GeneratedSubgroup, system: BlockSystem, depth: int):
    """Window classes of the equivalence generated by the blocks.

    Merging two points forces the merge of their images under every
    generator and inverse, propagated to a fixpoint inside the window.
    """
    roots = _congruence(group, system.blocks, depth)
    return _window_partition(roots, group.n, depth)


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

    Orbit axiom: every window orbit class meets exactly one
    block.  Block axiom: for words up to length 3 whose action on a block
    stays inside the window, a partial overlap with the original block is a
    violation.  Raises InconclusiveError when the orbit report, taken at half
    the depth, is shallower than the generator margin, and DomainError when
    a block point lies outside the window.
    """
    _require_margin(group, depth)
    _check_in_window(system.blocks, group.n, depth)
    witnesses = []
    report = orbit_windows(group, depth // 2)
    orbit_ok = True
    for cls in report.classes:
        hits = [i for i, b in enumerate(system.blocks) if set(b) & set(cls)]
        if len(hits) != 1:
            orbit_ok = False
            witnesses.append(("orbit", cls[0], tuple(hits)))
    window = RaySystem(group.n).window(depth)
    bsets = [set(b) for b in system.blocks]
    violations = {}  # block index -> (path, image) of the first violating word
    for path, w, _ in bounded_words(group, 3):
        for i, bset in enumerate(bsets):
            if i in violations:
                continue
            img = {w._image(p) for p in bset}
            if any(q not in window for q in img):
                continue
            if img & bset and img != bset:
                violations[i] = (path, img)
        if len(violations) == len(bsets):
            break
    k = len(group.generators)
    labels = [f"gen{i}" for i in range(k)] + [f"gen{i}^-1" for i in range(k)]
    for i, (path, img) in sorted(violations.items()):
        witnesses.append(("block", i, "*".join(labels[j] for j in path), tuple(sorted(img))))
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
    """Pair-closure weights: 1 per window point, ``cap + 1`` from ``edge`` on."""
    return ([1] * edge + [cap + 1] * (depth - edge)) * n


def _closure_class_of_pair(group, tables, p, q, depth, cap, weights):
    """(class of p, all classes) in the congruence generated by p ~ q.

    ``tables`` is ``_window_action(group, depth)`` and ``weights`` holds an
    int per window index, as from ``_edge_weights``.  None as soon as the
    weights in the class of p add up to more than ``cap``: classes only grow
    during the closure, so its final class would break the same limit.
    """
    ip = _index(p, depth)
    roots = _close(group.n * depth, [(ip, _index(q, depth))], tables, (ip, cap, weights))
    if roots is None:
        return None
    classes = _window_partition(roots, group.n, depth)
    for cls in classes:
        if p in cls:
            return cls, classes
    raise AssertionError("point lost by closure")


def find_block_systems(group: GeneratedSubgroup, depth: int) -> BlockSearchResult:
    """Bounded search for proper non-trivial block systems.

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
    verified before being returned.  An empty result is evidence only,
    never a proof of strong orbit primitivity.  Raises InconclusiveError
    when half the depth is below the generator margin, since no candidate
    could then be verified.
    """
    bound = block_size_bound(translation_lattice(group))
    margin = _require_margin(group, depth)
    report = orbit_windows(group, depth // 2)
    tables = _window_action(group, depth)
    seeds_q = list(RaySystem(group.n).window(depth))[: 4 * bound]
    found = []
    seen_keys = set()
    for cls in report.classes:
        p = cls[0]
        weights = _edge_weights(group.n, depth, bound, depth - margin)
        for q in seeds_q:
            iq = _index(q, depth)
            if q == p or weights[iq] > bound:
                continue
            closed = _closure_class_of_pair(group, tables, p, q, depth, bound, weights)
            if closed is None:
                weights[iq] = bound + 1
                continue
            block, classes = closed
            if any(set(c) <= set(block) for c in report.classes):
                continue
            interior = frozenset(
                frozenset(c)
                for c in classes
                if all(pt.pos < depth // 2 for pt in c)
            )
            if interior in seen_keys:
                continue
            covered = [c for c in report.classes if set(c) & set(block)]
            blocks = [block]
            for other in report.classes:
                if other not in covered:
                    blocks.append((other[0],))
            system = BlockSystem(tuple(blocks))
            verdict = verify_block_system(group, system, depth)
            if verdict.valid:
                seen_keys.add(interior)
                found.append(system)
    caveat = (
        "window-bounded search: an empty result is not a proof that no proper "
        "non-trivial block system exists"
    )
    found.sort(key=lambda s: s.blocks[0][0])
    return BlockSearchResult(tuple(found), caveat)


def finitary_class_transitivity(group: GeneratedSubgroup, depth: int):
    """Window evidence for finitary transitivity on each orbit class.

    Connects window points by finitary words of length at most 3 and
    reports, per orbit class, how many pieces the class interior falls into.
    Evidence only: a count above one says nothing at larger word lengths.
    """
    report = orbit_windows(group, depth)
    finitary = tuple(
        w
        for _, w, _ in bounded_words(group, 3)
        if w.is_finitary() and w.threshold <= depth
    )
    pieces = orbit_windows(GeneratedSubgroup(group.n, finitary), depth).classes
    piece_of = {p: k for k, piece in enumerate(pieces) for p in piece}
    return [
        (idx, len(cls), len({piece_of[p] for p in cls}))
        for idx, cls in enumerate(report.classes)
    ]


# -- quotient structure ----------------------------------------------------------


@dataclass(eq=False)
class QuotientStructure:
    """Window classes ordered by least element, with induced generator images.

    The action on classes runs over int indices of the closure window: point
    (ray, pos) has index (ray - 1) * closure_depth + pos, the layout of
    ``elements._image_table``.
    """

    system: BlockSystem
    n: int
    window_depth: int
    classes: tuple  # complete-in-window classes, sorted by min point
    quotient_points: tuple  # per class, its point of the quotient ray system
    induced: tuple  # per subgroup generator, a HoughtonElement on the quotient
    kernel_generators: tuple  # indices of generators acting trivially on classes
    _closure_depth: int  # depth of the closure window the tables cover
    _class_of: list  # per window index its class id (kept classes first), then -1
    _rank_of: list  # per window index its rank inside its sorted class, then 0
    _members: tuple  # window indices of the kept classes' points, class by class
    _bounds: tuple  # per kept class, the (start, stop) of its points in _members
    _lead: tuple  # per entry of _members, the start of its class in _members
    _identity: tuple  # per kept class, the identity rank tuple of its size
    _known_ranks: tuple  # per ray, contiguous rank prefix with complete data

    def class_index_of(self, p) -> int | None:
        ray, pos = p
        if not (1 <= ray <= self.n and 0 <= pos < self._closure_depth):
            return None
        k = self._class_of[(ray - 1) * self._closure_depth + pos]
        return k if k < len(self.classes) else None

    def _act(self, element: HoughtonElement) -> list:
        """Per kept class, (target class, ranks of the images in it) or None.

        None where an image leaves the closure window, even if the other
        images fall in two classes, and where the images land in a class that
        crosses the depth.  Images in two classes raise DomainError.  One
        comparison over the whole window shows that every kept class lands in
        one class; only when it fails does the per-class diagnosis run.
        """
        table = _image_table(element, self._closure_depth)
        # an image -1 (past the window) reads the trailing entries: class -1
        images = list(map(table.__getitem__, self._members))
        classes = list(map(self._class_of.__getitem__, images))
        ranks = list(map(self._rank_of.__getitem__, images))
        kept = len(self.classes)
        if list(map(classes.__getitem__, self._lead)) == classes:
            return [
                (target, tuple(ranks[start:stop])) if 0 <= (target := classes[start]) < kept
                else None
                for start, stop in self._bounds
            ]
        out = []
        for k, (start, stop) in enumerate(self._bounds):
            found = classes[start:stop]
            target = found[0]
            if found.count(target) != stop - start:
                if -1 in found:
                    out.append(None)
                    continue
                raise DomainError(
                    f"element does not preserve the congruence near {self.classes[k][0]}"
                )
            out.append((target, tuple(ranks[start:stop])) if 0 <= target < kept else None)
        return out

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
        return {qps[k]: qps[acted[0]] for k, acted in enumerate(self._act(element)) if acted}

    def induce(self, element: HoughtonElement) -> HoughtonElement:
        """The permutation the element induces on the quotient ray system."""
        return infer_eventual_translation(
            self.partial_action(element), self.n, self._known_ranks
        )


def infer_eventual_translation(partial: dict, n: int, known_ranks) -> HoughtonElement:
    """Build an element from a partial map on the points of n rays.

    ``known_ranks`` caps, per ray, the ranks the partial map is complete up
    to.  The translation on each ray is read off the top half of the known
    range: its pairs must be at least two, stay on the ray and share one
    shift.  Every entry that differs from the translation goes into the head
    table.  Raises InconclusiveError when the data does not pin the element
    down.  Two passes over the map, O(|partial| + n).
    """
    halves = [limit // 2 for limit in known_ranks]
    count = [0] * n  # per ray, its top pairs
    t = [None] * n  # per ray, the shift of its last top pair
    clean = [True] * n  # per ray, whether its top pairs stay on it with one shift
    for (ray, pos), (qray, qpos) in partial.items():
        i = ray - 1
        if halves[i] <= pos < known_ranks[i]:
            count[i] += 1
            if qray != ray or t[i] not in (None, qpos - pos):
                clean[i] = False
            t[i] = qpos - pos
    for i in range(n):
        if count[i] < 2 or not clean[i]:
            raise InconclusiveError(
                f"cannot read an eventual translation on quotient ray {i + 1}",
                hint="increase the window depth",
            )
    head = {p: q for p, q in partial.items() if q[0] != p[0] or q[1] != p[1] + t[p[0] - 1]}
    try:
        return HoughtonElement(n, t, head)
    except Exception as exc:
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
    _check_in_window(system.blocks, group.n, depth)
    closure_depth = 2 * depth
    classes_all = congruence_classes(group, system, closure_depth)
    deeper = congruence_classes(group, system, 2 * closure_depth)

    def kept(classes):
        return tuple(c for c in classes if all(p.pos < depth for p in c))

    if kept(classes_all) != kept(deeper):
        raise InconclusiveError(
            "congruence classes did not stabilize under window doubling",
            hint=closure_depth * 2,
        )
    ranks_per_ray = [0] * group.n
    qpoints: dict[int, RayPoint] = {}
    # ranks the partial quotient data is contiguously complete up to, per ray
    known_ranks = [0] * group.n
    prefix_broken = [False] * group.n
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
    class_of = [0] * (group.n * closure_depth) + [-1]
    rank_of = [0] * (group.n * closure_depth + 1)
    for cid, k in enumerate(order):
        for rank, p in enumerate(classes_all[k]):
            i = _index(p, closure_depth)
            class_of[i] = cid
            rank_of[i] = rank
    members = []
    bounds = []
    lead = []
    for k in kept_indices:
        start = len(members)
        members.extend(_index(p, closure_depth) for p in classes_all[k])
        bounds.append((start, len(members)))
        lead.extend([start] * len(classes_all[k]))
    structure = QuotientStructure(
        system=system,
        n=group.n,
        window_depth=depth,
        classes=tuple(classes_all[k] for k in kept_indices),
        quotient_points=tuple(qpoints[k] for k in kept_indices),
        induced=(),
        kernel_generators=(),
        _closure_depth=closure_depth,
        _class_of=class_of,
        _rank_of=rank_of,
        _members=tuple(members),
        _bounds=tuple(bounds),
        _lead=tuple(lead),
        _identity=tuple(tuple(range(stop - start)) for start, stop in bounds),
        _known_ranks=tuple(known_ranks),
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
