"""Exact arithmetic for eventual-translation permutations of the ray set.

An element is stored as a finite head table (the points where it does not act
by pure translation, keyed by point code, ``rays.code_of``) together with a
zero-sum translation vector and the minimal threshold beyond which every ray
translates.  All constructors canonicalise, so structural equality of the
stored data is equality of permutations.

Validity is checked once, at the boundary: the public constructor validates
untrusted data in O(|head| + n) time, naming ``translation-validity`` when a
point below -t_j is missing from the head and ``bijection`` for every other
failure.  ``compose``, ``inverse`` and ``**`` build their results, which are
bijections by construction, without re-validating them, and internal callers
read images of codes with ``_image`` in place of the checked ``apply``.

Composition uses the right-action convention: compose(g, h) means "g then h",
and apply(compose(g, h), p) == apply(h, apply(g, p)).
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, repeat
from math import gcd, inf
from operator import add
from typing import Iterable, Mapping

from .errors import DomainError, InvalidElementError
from .finperm import _classes, _close
from .rays import RayPoint, RaySystem, as_point, code_of, point_of


class HoughtonElement:
    """Permutation of the n-ray set that is eventually a translation on each ray.

    Immutable; hashable; equality is equality of permutations.
    """

    __slots__ = ("n", "t", "threshold", "_head", "_items")

    def __init__(self, n: int, t, head: Mapping | Iterable = ()):
        """Build and canonicalise from a translation vector and head table.

        ``head`` maps points to points; entries that agree with the
        translation rule are dropped.  Raises InvalidElementError when the
        data does not describe a bijection.
        """
        t = tuple(int(x) for x in t)
        if len(t) != n or n < 1:
            raise InvalidElementError("format", f"t must have length n={n}")
        _require_zero_sum(t)
        system = RaySystem(n)
        items = head.items() if isinstance(head, Mapping) else head
        given: dict[int, int] = {}
        for p, q in items:
            p, q = system.check(p), code_of(n, system.check(q))
            if given.setdefault(code_of(n, p), q) != q:
                raise InvalidElementError("format", f"head maps {p} twice")
        table = _off_translation(n, t, given.items())
        self._validate_bijection(n, t, table)
        self._set(n, t, table)

    @classmethod
    def _from_codes(cls, n: int, t: tuple, pairs) -> "HoughtonElement":
        """The validating constructor for (code, image code) head pairs on the n rays."""
        _require_zero_sum(t)
        elt = cls._trusted(n, t, pairs)
        cls._validate_bijection(n, t, elt._head)
        return elt

    @classmethod
    def _trusted(cls, n: int, t: tuple, pairs) -> "HoughtonElement":
        """Canonicalise (code, image code) head pairs with no bijection check.

        For inverses of valid elements, and for ``_from_codes`` before it
        checks: only the canonical form (translation-agreeing entries
        dropped, minimal threshold, sorted items).  ``compose`` builds its
        table in canonical form itself.
        """
        elt = object.__new__(cls)
        elt._set(n, t, _off_translation(n, t, pairs))
        return elt

    def _set(self, n, t, table):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "threshold", _threshold(n, t, table))
        object.__setattr__(self, "_head", table)
        object.__setattr__(self, "_items", tuple(sorted(table.items())))

    @staticmethod
    def _validate_bijection(n, t, table):
        """Check in O(|head| + n) that head and translation form a bijection.

        Below the threshold the domain and the per-ray target segments of
        length threshold + t_j have the same size, and points off the head
        translate injectively, so it suffices that every point below -t_j is
        in the head (else ``translation-validity``), and that head images are
        pairwise distinct and none is the translate of a point off the head
        (else ``bijection``).  The last check also keeps every head image
        inside its target segment.
        """
        for j, tj in enumerate(t):
            for pos in range(-tj):
                if pos * n + j not in table:
                    raise InvalidElementError(
                        "translation-validity",
                        f"{RayPoint(j + 1, pos)} translates to negative position {pos + tj}",
                    )
        seen = set()
        for q in table.values():
            if q in seen:
                raise InvalidElementError("bijection", f"{point_of(n, q)} hit twice")
            seen.add(q)
            p = q - n * t[q % n]
            if p >= 0 and p not in table:
                raise InvalidElementError(
                    "bijection", f"{point_of(n, q)} hit twice: also the translate of {point_of(n, p)}"
                )

    # -- basic protocol ----------------------------------------------------

    def __setattr__(self, *a):
        raise AttributeError("HoughtonElement is immutable")

    def __eq__(self, other):
        if not isinstance(other, HoughtonElement):
            return NotImplemented
        return (self.n, self.t, self._items) == (other.n, other.t, other._items)

    def __hash__(self):
        return hash((self.n, self.t, self._items))

    def __repr__(self):
        return f"HoughtonElement(n={self.n}, t={self.t}, head={list(self.head)})"

    @property
    def head(self) -> tuple:
        """Head table as (point, image) pairs sorted by domain point."""
        return tuple(sorted((point_of(self.n, p), point_of(self.n, q)) for p, q in self._items))

    # -- group operations ---------------------------------------------------

    def apply(self, p) -> RayPoint:
        """Image of a point under this permutation."""
        q = as_point(p)
        if q.ray > self.n:
            raise DomainError(f"ray {q.ray} outside 1..{self.n}")
        return point_of(self.n, self._image(code_of(self.n, q)))

    def _image(self, c: int) -> int:
        """Unchecked ``apply`` on codes: the image code of the code of a point."""
        img = self._head.get(c)
        if img is not None:
            return img
        n = self.n
        return c + n * self.t[c % n]

    def compose(self, other: "HoughtonElement") -> "HoughtonElement":
        """Product "self then other" (right action).

        The product's head lies in self's head and in the preimages under
        self of other's head points; an entry is kept where its image differs
        from the code's translate under the summed vector.
        """
        if not isinstance(other, HoughtonElement) or other.n != self.n:
            raise DomainError("can only compose elements with the same ray count")
        n, g_head, g_t, h_head, h_t = self.n, self._head, self.t, other._head, other.t
        t = tuple(map(add, g_t, h_t))
        head = {}
        for p, mid in g_head.items():
            img = h_head.get(mid)
            if img is None:
                img = mid + n * h_t[mid % n]
            if img != p + n * t[p % n]:
                head[p] = img
        # any other point off the product's translation is the preimage
        # q - t_self of a head point q of other; where that lies below 0 or in
        # self's head, q's preimage is in self's head and was read above
        for q, img in h_head.items():
            ray = q % n
            p = q - n * g_t[ray]
            if p >= 0 and p not in g_head and img != p + n * t[ray]:
                head[p] = img
        out = object.__new__(HoughtonElement)
        out._set(n, t, head)
        return out

    def inverse(self) -> "HoughtonElement":
        head = [(q, p) for p, q in self._items]
        return HoughtonElement._trusted(self.n, tuple(-x for x in self.t), head)

    def __mul__(self, other):
        return self.compose(other)

    def __pow__(self, k: int) -> "HoughtonElement":
        if k < 0:
            return self.inverse() ** (-k)
        acc = identity(self.n)
        base = self
        while k:
            if k & 1:
                acc = acc.compose(base)
            k >>= 1
            if k:
                base = base.compose(base)
        return acc

    # -- structure ----------------------------------------------------------

    def translation_vector(self) -> tuple:
        return self.t

    def is_identity(self) -> bool:
        return not self._items and not any(self.t)

    def is_finitary(self) -> bool:
        """Translation part zero, i.e. finite support."""
        return not any(self.t)

    def support_description(self):
        """(moved points of the head region, rays with nonzero translation)."""
        moved = tuple(p for p, q in self.head)
        rays = frozenset(j for j, tj in enumerate(self.t, start=1) if tj)
        return moved, rays

    def max_shift(self) -> int:
        return max((abs(x) for x in self.t), default=0)

    # -- serialization --------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "t": list(self.t),
            "threshold": self.threshold,
            "head": [[[p.ray, p.pos], [q.ray, q.pos]] for p, q in self.head],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "HoughtonElement":
        """Parse and validate; rejects non-canonical input.

        Every invariant is checked and a violation raises
        InvalidElementError naming the failed invariant.  Numbers must be
        ints (not floats, strings or booleans) and each head entry a pair of
        [ray, pos] pairs of points on the n rays; anything else is a
        ``format`` error naming the field.
        """
        if not isinstance(data, dict):
            raise InvalidElementError("format", "element data must be a JSON object")
        for key in ("n", "t", "threshold", "head"):
            if key not in data:
                raise InvalidElementError("format", f"element field {key!r} is missing")
        n, t, threshold, head = data["n"], data["t"], data["threshold"], data["head"]
        if type(n) is not int:
            raise InvalidElementError("format", f"element field 'n' must be an integer, not {n!r}")
        if not _is_int_list(t):
            raise InvalidElementError("format", f"element field 't' must be a list of integers, not {t!r}")
        if type(threshold) is not int:
            raise InvalidElementError(
                "format", f"element field 'threshold' must be an integer, not {threshold!r}"
            )
        if not isinstance(head, (list, tuple)):
            raise InvalidElementError("format", f"element field 'head' must be a list, not {head!r}")
        for entry in head:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2
                    and all(_is_int_list(p) and len(p) == 2 for p in entry)):
                raise InvalidElementError(
                    "format", f"element field 'head' has {entry!r}, not a pair of [ray, pos] pairs"
                )
        head = [(tuple(p), tuple(q)) for p, q in head]
        try:
            elt = cls(n, t, head)
        except DomainError as exc:
            # only a head point off the n rays gets past the checks above
            raise InvalidElementError(
                "format", f"element field 'head' has a point off the {n} rays: {exc}"
            ) from None
        if len(elt._items) != len(head):
            raise InvalidElementError(
                "canonical-form", "head table contains points that act by translation"
            )
        if elt.threshold != threshold:
            raise InvalidElementError(
                "canonical-form",
                f"threshold {threshold} is not minimal (expected {elt.threshold})",
            )
        return elt


def _is_int_list(value) -> bool:
    return isinstance(value, (list, tuple)) and all(type(x) is int for x in value)


def _require_zero_sum(t: tuple) -> None:
    if sum(t) != 0:
        raise InvalidElementError("zero-sum", f"translation vector {t} has nonzero sum")


def _off_translation(n: int, t: tuple, pairs) -> dict:
    """The head of the (code, image code) pairs that differ from the translation rule."""
    return {p: q for p, q in pairs if q != p + n * t[p % n]}


def _threshold(n: int, t: tuple, table: dict) -> int:
    """Least position from which every ray acts by its translation."""
    threshold = max(0, -min(t))
    if table:
        threshold = max(threshold, 1 + max(table) // n)
    return threshold


def identity(n: int) -> HoughtonElement:
    return HoughtonElement(n, (0,) * n)


def generator(n: int, j: int) -> HoughtonElement:
    """The standard generator shifting ray 1 up and ray j down.

    Sends (1, m) to (1, m+1), (j, 0) to (1, 0) and (j, m) to (j, m-1); its
    support is rays 1 and j and its translation vector is e_1 - e_j.
    """
    if n < 2:
        raise DomainError("generators need at least two rays")
    if not 2 <= j <= n:
        raise DomainError(f"generator index {j} outside 2..{n}")
    t = [0] * n
    t[0] = 1
    t[j - 1] = -1
    return HoughtonElement(n, t, {RayPoint(j, 0): RayPoint(1, 0)})


def transposition(n: int, p, q) -> HoughtonElement:
    p, q = as_point(p), as_point(q)
    if p == q:
        raise DomainError("transposition needs two distinct points")
    return HoughtonElement(n, (0,) * n, {p: q, q: p})


def from_cycles(n: int, cycles: Iterable[Iterable]) -> HoughtonElement:
    """Finitary element given by disjoint cycles of points."""
    head: dict[RayPoint, RayPoint] = {}
    for cycle in cycles:
        pts = [as_point(p) for p in cycle]
        if len(set(pts)) != len(pts):
            raise DomainError("cycle repeats a point")
        for a, b in zip(pts, pts[1:] + pts[:1]):
            if a in head:
                raise DomainError("cycles are not disjoint")
            head[a] = b
    return HoughtonElement(n, (0,) * n, head)


def houghton_generators(n: int) -> list[HoughtonElement]:
    """A standard finite generating family of the whole group on n rays."""
    if n < 2:
        raise DomainError("n=1 is the finitary group; no finite generating set")
    gens = [generator(n, j) for j in range(2, n + 1)]
    if n == 2:
        gens.append(transposition(2, (1, 1), (1, 2)))
    return gens


def commutator(a: HoughtonElement, b: HoughtonElement) -> HoughtonElement:
    return a.compose(b).compose(a.inverse()).compose(b.inverse())


# -- cycle structure ---------------------------------------------------------


@dataclass(frozen=True)
class CycleStructure:
    """Finite cycles listed exactly; infinite cycles counted.

    ``runs`` holds each finite cycle as ``_cycle_runs`` gives it: its runs
    (ray, positions) from its least point, cycles in order of least point.
    ``finite_cycles`` lists the same cycles as tuples of ``RayPoint``s; it is
    built from the runs on first read, so a caller that only counts or
    prints cycles never builds a point.  ``window_checked`` records that an
    independent recount reproduced both counts (``_folded_cycle_counts``):
    the orbits of <g> closed on folded nodes, one per point near the head and
    one per residue of each longer run, so its cost does not grow with the
    threshold.  The field keeps its name, which is a key of the
    ``houghton-kit/1`` CLI schema.
    """

    runs: tuple
    infinite_cycle_count: int
    window_checked: bool

    @cached_property
    def finite_cycles(self) -> tuple:
        return _run_points(self.runs)


def _cycle_runs(g: HoughtonElement) -> tuple:
    """The finite cycles of g as runs; every finite cycle meets the head table.

    Pure translation steps never change ray and move monotonically, so a
    cycle that avoids the head table entirely cannot close up.

    Run lemma: off the head, ray i acts by pos -> pos + t_i, so an orbit that
    leaves the head at (i, p) runs through p, p + t_i, p + 2 t_i, ... inside
    one residue class mod |t_i| until it meets the next head point of that
    class in the direction of t_i.  If t_i > 0 and no such point lies ahead,
    every later step is a translation and the orbit escapes.  If t_i < 0, a
    valid element has every position below -t_i in its head, so a stop always
    lies below; and with t_i = 0 a point off the head is fixed, so a
    bijection never reaches it from the head.

    So the walk indexes the head once by (ray, pos mod |t_i|) and finds each
    stop by bisection.  An orbit that reaches a head point of an escaping
    orbit escapes with it.  A cycle is a tuple of runs (ray, positions), a
    head point being a run of one position, listed from the cycle's least
    point, and cycles are sorted by least point.  The least point starts its
    run: a run going down stops just above the cycle's next point, a head
    point below it on its ray, and a run going up starts at its least point.
    The walk costs O(log |head|) per run and never touches a cycle's points
    one by one.  Revisiting a head point, or stepping where a bijection
    cannot go, raises AssertionError.  That also rejects a run that re-enters
    its cycle: a run holds no head point and ends just before the next head
    point along its line, so two runs of one cycle that share a point end at
    the same head point.  That point is not the start, which would have
    closed the cycle after the earlier run, so the later run revisits it.
    """
    n, head, t = g.n, g._head, g.t
    stops: dict[int, list[int]] = {}  # code mod n|t_i| names (ray, pos mod |t_i|)
    for p, _ in g._items:
        step = n * t[p % n]
        if step:
            stops.setdefault(p % abs(step), []).append(p)
    in_cycle: set[int] = set()
    escaping: set[int] = set()
    cycles = []
    for start, img in g._items:
        if start in in_cycle or start in escaping or img == start:
            continue
        visited = {start}
        runs = [(start % n + 1, range(start // n, start // n + 1))]  # (ray, positions)
        p = img
        escaped = False
        while p != start:
            if p in head:
                if p in escaping:
                    escaped = True
                    break
                if p in visited or p in in_cycle:
                    raise AssertionError("orbit re-entered off its start; not a bijection")
                visited.add(p)
                runs.append((p % n + 1, range(p // n, p // n + 1)))
                p = head[p]
                continue
            step = n * t[p % n]
            if not step:
                raise AssertionError(
                    f"orbit reaches {point_of(n, p)}, fixed off the head; not a bijection"
                )
            line = stops.get(p % abs(step), ())
            if step > 0:
                k = bisect_right(line, p)
                if k == len(line):
                    escaped = True
                    break
            else:
                k = bisect_left(line, p) - 1
                if k < 0:
                    raise AssertionError(
                        f"orbit runs down from {point_of(n, p)} past position 0; not a bijection"
                    )
            runs.append((p % n + 1, range(p // n, line[k] // n, step // n)))
            p = line[k]
        if escaped:
            escaping.update(visited)
            continue
        in_cycle.update(visited)
        firsts = [(ray, run[0]) for ray, run in runs]
        k = firsts.index(min(firsts))
        cycles.append(tuple(runs[k:] + runs[:k]))
    cycles.sort(key=lambda c: (c[0][0], c[0][1][0]))  # by least point
    return tuple(cycles)


def _run_points(cycles: tuple) -> tuple:
    """Cycles given as runs, as tuples of ``RayPoint``s; the points are built in C."""
    point = partial(tuple.__new__, RayPoint)
    return tuple(
        tuple(chain.from_iterable(map(point, zip(repeat(ray), run)) for ray, run in cycle))
        for cycle in cycles
    )


def _cycle_lengths(cycles: tuple) -> list:
    """The length of each cycle given as runs."""
    return [sum(len(run) for _, run in cycle) for cycle in cycles]


def _finite_cycles(g: HoughtonElement) -> tuple:
    """The finite cycles of g as tuples of ``RayPoint``s, from its least point, by least point."""
    return _run_points(_cycle_runs(g))


def _image_table(g: HoughtonElement, depth: int) -> list:
    """The image code under g of each code of the window of depth D.

    An image of code n * D or more lies outside the window.
    """
    table = _translation_table(g.n, g.t, depth)
    size = len(table)
    # a translate below position 0 is a head point
    for p, q in g._items:
        if p < size:
            table[p] = q
    return table


def _translation_table(n: int, t: tuple, depth: int) -> list:
    """``_image_table`` of the translations t alone, with no head.

    A point below -t_j translates to a negative code.
    """
    size = n * depth
    table = [0] * size
    for ray, shift in enumerate(t):
        table[ray::n] = range(ray + n * shift, size + n * shift, n)
    return table


class FoldedOrbits:
    """The exact orbit partition of a group, folded to nodes; it owns the segment format.

    On ray i, s_i is the largest |t_i| and m_i the gcd of the translations
    t_i.  A position is touched if it is a head point or head image of some
    generator; others move by translation alone.  Dense stretches are the
    touched positions +- s_i, joined across gaps shorter than 2 s_i, with a
    node per point.  Every other maximal run, the infinite tail included, has
    a node per residue mod m_i, or fixed points if m_i = 0.  A segment (start,
    stop, base, period) sends (ray, pos) to node base + (pos - start) % period,
    or none if the period is 0.  The roots close each dense point p with the
    nodes of g(p) and g^-1(p), for every generator g.  They give the orbits:

    - On a run R each translation t of ray i is a period of the orbit labels
      (x ~ x + t while both lie in R), and R is at least 2 s_i long, so by
      Fine and Wilf's theorem gcd(t, t') is one too: a node lies in one
      orbit, so does each seeded pair, and so does every class.
    - A move from a run point goes at most s_i along its ray, and a dense
      stretch between runs is longer than s_i: it stays at its residue in
      its run, or it enters an adjacent dense stretch and is seeded.  So a
      path of moves stays in one class, and so does every orbit.

    Position 0 is touched when m_i >= 1, so no run starts there.  The nodes
    number O(n max m_i + sum |head| (2s + 1)), whatever the thresholds.
    """

    __slots__ = ("segments", "roots", "_starts")

    def __init__(self, segments: tuple):
        self.segments = segments  # per ray, its segments in order of start
        self.roots = None  # per node, its closure root; set by ``_fold_orbits``
        self._starts = [[seg[0] for seg in segs] for segs in segments]

    def node(self, ray: int, pos: int):
        """The node of (ray, pos), or None where every generator fixes it."""
        start, _, base, period = self.segments[ray - 1][bisect_right(self._starts[ray - 1], pos) - 1]
        return base + (pos - start) % period if period else None

    def key(self, p):
        """The orbit key of p: its node's closure root, or p itself where it is fixed."""
        node = self.node(*p)
        return p if node is None else self.roots[node]

    def tails(self) -> tuple:
        """Per ray, (S, m, keys): the tail from S has period m; keys[r] is S + r + k m's orbit key."""
        return tuple(
            (start, period, self.roots[base:base + period])
            for start, _, base, period in (segs[-1] for segs in self.segments)
        )

    def tail_roots(self) -> set:
        """The closure roots of the nodes of the rays' infinite tails: one per infinite orbit."""
        return {root for *_, keys in self.tails() for root in keys}

    def has_fixed_run(self) -> bool:
        """Whether some run is fixed by every generator (a ray with m_i = 0)."""
        return any(seg[3] == 0 for segs in self.segments for seg in segs)

    def window_keys(self, depth: int) -> list:
        """The orbit key of each point of the window of depth W, in code order."""
        by_ray = []
        for ray, segs in enumerate(self.segments, start=1):
            keys = []
            for start, stop, base, period in segs:
                count = max(min(stop, depth) - start, 0)
                if period:
                    keys += (self.roots[base:base + period] * (count // period + 1))[:count]
                else:
                    keys += [RayPoint(ray, pos) for pos in range(start, start + count)]
            by_ray.append(keys)
        return [key for row in zip(*by_ray) for key in row]

    def window_incidence(self, depth: int) -> tuple:
        """Per orbit class meeting the window of depth W, by least point: the sorted rays it meets.

        Read off the dense stretches and fixed runs, each cut at W: a dense
        stretch gives its nodes' roots, a fixed run one singleton class per
        point.  A periodic run adds no class and no ray.  On a ray with
        m_i >= 1, position 0 is a head point (t < 0) or a head image (t > 0)
        of some generator, so the ray starts with a dense stretch and every
        run follows one.  A generator with t > 0 on the ray joins the last t
        points of that stretch to the first t points of the run (its edge
        moves), and one with t < 0 joins the first |t| points of the run to
        the stretch (its entering pairs).  Every |t| is a multiple of m_i, so
        each residue of the run is joined to a node of the stretch before it,
        which lies wholly inside any window that reaches the run.
        """
        rays: dict = {}  # class key -> rays met, in order of least point
        for ray, segs in enumerate(self.segments, start=1):
            keys = []
            for start, stop, base, period in segs:
                count = min(stop, depth) - start
                if count <= 0:
                    break
                if not period:
                    keys += [(ray, pos) for pos in range(start, start + count)]
                elif period == stop - start:  # a dense stretch
                    keys += self.roots[base:base + count]
            for key in dict.fromkeys(keys):
                rays.setdefault(key, []).append(ray)
        return tuple(map(tuple, rays.values()))


def _fold_orbits(n: int, generators: tuple) -> FoldedOrbits:
    """The ``FoldedOrbits`` of the group the generators span."""
    touched = [set() for _ in range(n)]
    for c in (c for g in generators for pair in g._items for c in pair):
        touched[c % n].add(c // n)
    shifts = list(zip(*(g.t for g in generators))) or [()] * n  # per ray
    segments, size = [], 0
    for ray_shifts, positions in zip(shifts, touched):
        s, m = max(map(abs, ray_shifts), default=0), gcd(*ray_shifts)
        dense: list = []
        for pos in sorted(positions):
            if dense and pos - s - dense[-1][1] < max(2 * s, 1):  # a run is 2s long, not empty
                dense[-1][1] = pos + s + 1
            else:
                dense.append([max(pos - s, 0), pos + s + 1])
        segs, cuts = [], [0, *(x for stretch in dense for x in stretch), inf]
        for k, (lo, hi) in enumerate(zip(cuts, cuts[1:])):  # a run, a dense stretch, ..., a run
            if lo < hi:
                segs.append((lo, hi, size, hi - lo if k % 2 else m))
                size += segs[-1][3]
        segments.append(tuple(segs))
    orbits = FoldedOrbits(tuple(segments))
    node = orbits.node
    stretches = [[seg for seg in segs if seg[3] == seg[1] - seg[0]] for segs in segments]
    pairs = []
    for g in generators:
        moves = {}  # node -> node of its image, where a translation or the head moves it
        for ray, dense in enumerate(stretches, start=1):  # a run's moves stay at their nodes
            t = g.t[ray - 1]
            for start, stop, base, _ in dense if t else ():
                lo, hi = start + max(-t, 0), stop - max(t, 0)  # x + t stays in the stretch
                moves.update((i, i + t) for i in range(base + lo - start, base + hi - start))
                # x + t < 0 only for a head point, whose entry the head loop sets
                edge = (*range(start, lo), *range(hi, stop))
                moves.update((base + x - start, node(ray, x + t)) for x in edge if x + t >= 0)
                # run points x with g(x) = x + t in the stretch: g^-1 of its dense points
                entering = range(max(start - t, 0), start) if t > 0 else range(stop, stop - t)
                pairs.extend((node(ray, x), node(ray, x + t)) for x in entering)
        for p, q in g._items:
            moves[node(p % n + 1, p // n)] = node(q % n + 1, q // n)
        pairs.extend(moves.items())
    orbits.roots = _close(size, pairs)
    return orbits


def _folded_cycle_counts(g: HoughtonElement):
    """(finite cycle sizes sorted, infinite cycle count) from the folded orbits of <g>.

    Each node weighs the points it stands for: 1 in a dense stretch, the
    positions of its residue in a finite run, infinitely many in the tail.
    The orbits of <g> are the cycles of g, so a finite class weighing more
    than 1 is a finite cycle of that size, and a class holding a tail node is
    an infinite cycle.  The cost follows the head and the shifts, not the
    threshold.
    """
    orbits = _fold_orbits(g.n, (g,))
    roots, tails = orbits.roots, orbits.tail_roots()
    weight = [1] * len(roots)
    for segs in orbits.segments:
        for start, stop, base, period in segs:
            if period and stop != inf and period != stop - start:  # a finite run
                for node in range(base, base + period):
                    weight[node] = len(range(start + node - base, stop, period))
    sizes: dict[int, int] = {}
    for node, root in enumerate(roots):
        sizes[root] = sizes.get(root, 0) + weight[node]
    finite = sorted(w for root, w in sizes.items() if w > 1 and root not in tails)
    return finite, len(tails)


def window_cycle_counts(g: HoughtonElement, depth: int | None = None):
    """Count cycles by tracing orbits inside a finite window.

    Window classes that cross the window boundary (in either direction) are
    strands of infinite cycles; complete classes of moved points are finite
    cycles.  Returns (finite cycle sizes sorted, infinite strand count).
    """
    if depth is None:
        depth = g.threshold + 3 * max(1, g.max_shift())
    table = _image_table(g, depth)
    size = len(table)
    roots = _close(size, ((i, j) for i, j in enumerate(table) if j < size))
    finite_sizes = []
    infinite = 0
    for members in _classes(roots):
        # g is injective, so each class is a cycle or a path, and the last
        # point of a path leaves the window: exits alone mark the strands
        if any(table[i] >= size for i in members):
            infinite += 1
        elif len(members) > 1:
            finite_sizes.append(len(members))
    return sorted(finite_sizes), infinite


def cycle_structure(g: HoughtonElement) -> CycleStructure:
    """Disjoint cycle data: exact finite cycles plus the infinite-cycle count.

    The infinite count is half the total absolute translation.  A recount on
    the folded orbits of <g> (``_folded_cycle_counts``), which shares nothing
    with the walk's head index, cross-checks both counts, and the result
    records that it agreed.
    """
    runs = _cycle_runs(g)
    infinite = sum(abs(x) for x in g.t) // 2
    sizes, strands = _folded_cycle_counts(g)
    checked = sizes == sorted(_cycle_lengths(runs)) and strands == infinite
    return CycleStructure(runs, infinite, checked)


# -- almost order preserving ---------------------------------------------


def _violation_window_depth(g: HoughtonElement) -> int:
    return g.threshold + 2 * max(1, g.max_shift())


def order_violations(g: HoughtonElement, depth: int | None = None):
    """All pairs p < q inside the window whose images compare the wrong way."""
    if depth is None:
        depth = _violation_window_depth(g)
    pts = sorted(RaySystem(g.n).window(depth))
    images = {p: g.apply(p) for p in pts}
    out = []
    for i, p in enumerate(pts):
        gp = images[p]
        for q in pts[i + 1:]:
            if images[q] < gp:
                out.append((p, q))
    return out


def _min_vertex_cover(edges):
    """Smallest vertex cover of a tiny graph, lexicographically least on ties."""
    verts = sorted({v for e in edges for v in e})
    best: list | None = None

    def rec(edges, chosen):
        nonlocal best
        if best is not None and len(chosen) >= len(best):
            return
        if not edges:
            cand = sorted(chosen)
            if best is None or (len(cand), cand) < (len(best), best):
                best = cand
            return
        p, q = edges[0]
        for v in (p, q):
            rest = [e for e in edges if v not in e]
            rec(rest, chosen + [v])

    rec(list(edges), [])
    return [] if best is None else best


def aop_exceptional_set(g: HoughtonElement) -> frozenset:
    """Minimal finite set outside which the element preserves the lex order.

    Points whose image changes ray violate the order against an entire ray
    tail and are forced into the set; the remaining violations form a finite
    graph and a minimum vertex cover of it completes the answer.  The result
    is inclusion-minimal: dropping any member re-exposes a violation.
    """
    forced = {p for p, q in g.head if p.ray != q.ray}
    depth = _violation_window_depth(g)
    edges = [
        (p, q)
        for p, q in order_violations(g, depth)
        if p not in forced and q not in forced
    ]
    cover = _min_vertex_cover(edges)
    return frozenset(forced | set(cover))


def is_order_preserving_outside(g: HoughtonElement, excluded, depth: int | None = None) -> bool:
    """Window check that all pairs avoiding ``excluded`` are order preserved."""
    excluded = set(excluded)
    return all(p in excluded or q in excluded for p, q in order_violations(g, depth))


# -- random elements ----------------------------------------------------------


def random_zero_sum(n: int, bound: int, rng: random.Random) -> tuple:
    """Uniform zero-sum integer vector with every entry in [-bound, bound]."""
    if bound == 0 or n == 1:
        return (0,) * n
    while True:
        head = [rng.randint(-bound, bound) for _ in range(n - 1)]
        last = -sum(head)
        if abs(last) <= bound:
            return tuple(head + [last])


def random_element(
    n: int,
    head_budget: int = 6,
    t_bound: int = 2,
    seed: int | random.Random = 0,
) -> HoughtonElement:
    """Deterministic random element: finitary scramble times a translation.

    The translation part realises a uniform zero-sum vector via products of
    generator powers; the scramble permutes at most ``head_budget`` window
    points.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    t = random_zero_sum(n, t_bound, rng)
    trans = identity(n)
    for j in range(2, n + 1):
        k = -t[j - 1]
        if k:
            trans = trans.compose(generator(n, j) ** k)
    depth = max(4, 2 * t_bound + 2, head_budget)
    pool = [RayPoint(ray, pos) for ray in range(1, n + 1) for pos in range(depth)]
    k = rng.randint(0, head_budget)
    pts = rng.sample(pool, min(k, len(pool)))
    images = pts[:]
    rng.shuffle(images)
    scramble = HoughtonElement(n, (0,) * n, dict(zip(pts, images)))
    return scramble.compose(trans)
