"""Finite permutation groups at desk scale (degree <= 30).

Orbits, deterministic Schreier-Sims stabilizer chains, membership, minimal
blocks and the strongly-orbit-primitive test.  The module is an exact oracle
for small degrees, not a high-performance CGT system; the cap keeps usage
honest.

Permutations are stored internally as tuples of images over domain indices
and compose as a right action: x^(g*h) = (x^g)^h.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain
from typing import Hashable, Iterable, Sequence

from .errors import DegreeCapError, DomainError

DEGREE_CAP = 30
BRUTE_FORCE_CAP = 10


def _mul(p, q):
    return tuple(q[i] for i in p)


def _inv(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def _is_id(p):
    return all(i == j for i, j in enumerate(p))


def _close(size: int, pairs, tables=(), watch=None):
    """Array union-find congruence closure over the indices 0..size-1.

    Returns the root of each index in the least equivalence that holds the
    seed pairs and is closed under each table: whenever two indices are
    equivalent and both have an image, their images are equivalent.  An
    entry of ``size`` or more is no image, and a table may run past ``size``.
    Every class is rooted at its least index.

    Each class keeps, per table, one image of some member (a dict keyed by
    root, the root's own table entry by default).  A merge of two classes
    merges their two stored images when both exist, and otherwise keeps the
    one that does; so a class whose least point leaves through a table still
    passes merges on through its other members (Downey-Sethi-Tarjan).  The
    result is the least such equivalence whatever the merge order, and it
    grows with the seed pairs.

    ``watch`` is an (index, cap, weights) triple, ``weights`` a list with an
    int per index: the closure returns None as soon as the weights in the
    class of that index add up to more than ``cap``, the watched index itself
    included.  With unit weights that is a size cap; an index weighing more
    than ``cap`` stops the closure as soon as it joins the class.  Classes
    only grow, so the class at the fixpoint would break the same limit:
    stopping early changes no result a caller keeps.
    """
    parent = list(range(size))
    if watch is None:
        watched, cap = -1, size
        count = [1] * size
    else:
        watched, cap, weights = watch
        count = list(weights)
        if count[watched] > cap:
            return None
    work = []
    stored = [(table, {}) for table in tables]

    def images():
        while work:
            yield work.pop()

    for a, b in chain(pairs, images()):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            continue
        if b < a:
            a, b = b, a
        parent[b] = a
        count[a] += count[b]
        for table, image in stored:
            y = image.get(b, table[b])
            if y < size:
                x = image.get(a, table[a])
                if x < size:
                    work.append((x, y))
                else:
                    image[a] = y
        if b == watched:
            watched = a
        if a == watched and count[a] > cap:
            return None
    for i, j in enumerate(parent):
        parent[i] = parent[j]  # j <= i, and every entry below i already holds its root
    return parent


def _classes(roots) -> list[list[int]]:
    """Classes of a closure's root list, each sorted, in order of least index."""
    buckets: dict[int, list[int]] = {}
    for i, r in enumerate(roots):
        buckets.setdefault(r, []).append(i)
    return list(buckets.values())


def _schreier_transversal(base: int, gens, ident: tuple) -> dict:
    """Point -> permutation taking base to it, over the orbit of base, breadth first."""
    transversal = {base: ident}
    queue = [base]
    for x in queue:
        for g in gens:
            y = g[x]
            if y not in transversal:
                transversal[y] = _mul(transversal[x], g)
                queue.append(y)
    return transversal


def _schreier_generators(transversal: dict, gens):
    """Non-identity Schreier generators of the base point's stabilizer."""
    for x in sorted(transversal):
        ux = transversal[x]
        for h in gens:
            s = _mul(_mul(ux, h), _inv(transversal[h[x]]))
            if not _is_id(s):
                yield s


@dataclass
class _Level:
    base: int
    gens: list
    transversal: dict


class FinitePermGroup:
    """Group generated by permutations of a finite ordered point set."""

    def __init__(self, domain: Sequence[Hashable], generators: Iterable):
        domain = tuple(domain)
        if len(set(domain)) != len(domain):
            raise DomainError("domain points must be distinct")
        if len(domain) > DEGREE_CAP:
            raise DegreeCapError(f"degree {len(domain)} exceeds cap {DEGREE_CAP}")
        self.domain = domain
        self._index = {p: i for i, p in enumerate(domain)}
        self.gens = [self.coerce(g) for g in generators]
        self._levels: list[_Level] | None = None
        self._stab_gens_cache: dict[int, list] = {}

    # -- permutation coercion ---------------------------------------------

    def coerce(self, perm) -> tuple:
        """Accept a point mapping or an image array of points (DomainError names a stray point)."""
        d = len(self.domain)
        try:
            if isinstance(perm, dict):
                images = list(range(d))
                for src, dst in perm.items():
                    images[self._index[src]] = self._index[dst]
            else:
                seq = list(perm)
                if len(seq) != d:
                    raise DomainError("image array length differs from the domain")
                images = [self._index[p] for p in seq]
        except KeyError as exc:
            raise DomainError(f"point {exc.args[0]!r} is outside the domain") from None
        if sorted(images) != list(range(d)):
            raise DomainError("not a permutation of the domain")
        return tuple(images)

    def image_array(self, perm) -> list:
        """Serialize an internal permutation as [img(0), img(1), ...]."""
        return [self.domain[i] for i in perm]

    def identity(self) -> tuple:
        return tuple(range(len(self.domain)))

    # -- orbits ----------------------------------------------------------------

    def orbits(self) -> list[tuple]:
        """Partition of the domain into orbits, ordered by first point."""
        d = len(self.domain)
        roots = _close(d, ((i, g[i]) for g in self.gens for i in range(d)))
        return [tuple(self.domain[i] for i in orbit) for orbit in _classes(roots)]

    def orbit_of(self, p) -> tuple:
        for orbit in self.orbits():
            if p in orbit:
                return orbit
        raise DomainError(f"{p!r} not in the domain")

    # -- stabilizer chain ------------------------------------------------------

    def _chain(self) -> list[_Level]:
        if self._levels is None:
            self._levels = []
            for g in self.gens:
                if not _is_id(g):
                    self._add_gen(0, g)
        return self._levels

    def _sift(self, perm, start=0):
        levels = self._levels
        for idx in range(start, len(levels)):
            lvl = levels[idx]
            img = perm[lvl.base]
            rep = lvl.transversal.get(img)
            if rep is None:
                return perm, idx
            perm = _mul(perm, _inv(rep))
        return perm, len(levels)

    def _add_gen(self, level_idx, g):
        levels = self._levels
        if level_idx == len(levels):
            base = next(i for i in range(len(g)) if g[i] != i)
            levels.append(_Level(base, [], {}))
        lvl = levels[level_idx]
        lvl.gens.append(g)
        lvl.transversal = _schreier_transversal(lvl.base, lvl.gens, self.identity())
        for schreier in _schreier_generators(lvl.transversal, lvl.gens):
            residue, _ = self._sift(schreier, level_idx + 1)
            if not _is_id(residue):
                # residues must enter the very next level so that each
                # level's generators keep generating its stabilizer
                self._add_gen(level_idx + 1, residue)

    def order(self) -> int:
        return reduce(lambda a, lvl: a * len(lvl.transversal), self._chain(), 1)

    def membership(self, perm) -> bool:
        """Exact membership via sifting through the stabilizer chain."""
        return self._member_internal(self.coerce(perm))

    def _member_internal(self, perm: tuple) -> bool:
        self._chain()
        residue, _ = self._sift(perm)
        return _is_id(residue)

    def elements(self, cap: int = 10000) -> list[tuple]:
        """All elements by closure; refuses to enumerate past ``cap``."""
        seen = {self.identity()}
        queue = [self.identity()]
        while queue:
            x = queue.pop()
            for g in self.gens:
                y = _mul(x, g)
                if y not in seen:
                    if len(seen) >= cap:
                        raise DegreeCapError(f"group has more than {cap} elements")
                    seen.add(y)
                    queue.append(y)
        return sorted(seen)

    # -- stabilizers ------------------------------------------------------------

    def stabilizer_schreier_gens(self, p) -> list[tuple]:
        """Schreier generators of the point stabilizer of p (within G)."""
        i = self._index[p]
        if i in self._stab_gens_cache:
            return self._stab_gens_cache[i]
        transversal = _schreier_transversal(i, self.gens, self.identity())
        out = sorted(set(_schreier_generators(transversal, self.gens)))
        self._stab_gens_cache[i] = out
        return out

    def stabilizers_equal(self, p, q) -> bool:
        """Whether the stabilizers of two points coincide as subgroups.

        Schreier generators of each stabilizer already lie in the group, so
        mutual containment reduces to fixing the other point.
        """
        ip, iq = self._index[p], self._index[q]
        return all(s[iq] == iq for s in self.stabilizer_schreier_gens(p)) and all(
            s[ip] == ip for s in self.stabilizer_schreier_gens(q)
        )

    # -- blocks -------------------------------------------------------------------

    def minimal_block(self, p, q) -> frozenset:
        """Smallest block of the orbit action containing both points.

        Union-find closure: merging two points forces the merge of their
        images under every generator, to a fixpoint.
        """
        if q not in self.orbit_of(p) or p == q:
            raise DomainError("need two distinct points of one orbit")
        roots = _close(len(self.domain), [(self._index[p], self._index[q])], self.gens)
        root = roots[self._index[p]]
        return frozenset(x for x, r in zip(self.domain, roots) if r == root)


# -- invariant partitions ------------------------------------------------------


def is_invariant_partition(group: FinitePermGroup, parts) -> bool:
    sets = {frozenset(group._index[p] for p in part) for part in parts}
    for g in group.gens:
        for part in sets:
            if frozenset(g[x] for x in part) not in sets:
                return False
    return True


@dataclass(frozen=True)
class SOPVerdict:
    is_sop: bool
    witness: tuple | None = None
    reason: str = ""

    def __bool__(self):
        return self.is_sop


def _witness_system(block, all_orbits, covered_orbits):
    blocks = [tuple(sorted(block))]
    for orbit in all_orbits:
        if orbit not in covered_orbits:
            blocks.append((orbit[0],))
    return tuple(blocks)


def is_strongly_orbit_primitive(group: FinitePermGroup) -> SOPVerdict:
    """Decide strong orbit primitivity, with a witness block system on failure.

    True iff every orbit restriction is primitive and points from distinct
    orbits have distinct stabilizers.  A failing orbit yields its proper
    minimal block; a cross-orbit stabilizer clash yields the two-point block
    pairing the orbits.
    """
    orbits = group.orbits()
    for orbit in orbits:
        if len(orbit) < 2:
            continue
        p0 = orbit[0]
        for q in orbit[1:]:
            block = group.minimal_block(p0, q)
            if block != frozenset(orbit):
                return SOPVerdict(
                    False,
                    _witness_system(block, orbits, {orbit}),
                    f"orbit {orbit} is imprimitive",
                )
    for i, o1 in enumerate(orbits):
        for o2 in orbits[i + 1:]:
            for p in o1:
                for q in o2:
                    if group.stabilizers_equal(p, q):
                        return SOPVerdict(
                            False,
                            _witness_system((p, q), orbits, {o1, o2}),
                            f"points {p!r} and {q!r} of distinct orbits share a stabilizer",
                        )
    return SOPVerdict(True)


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in _set_partitions(rest):
        for k in range(len(smaller)):
            yield smaller[:k] + [[first] + smaller[k]] + smaller[k + 1:]
        yield [[first]] + smaller


def brute_force_partition_check(group: FinitePermGroup) -> SOPVerdict:
    """Exhaustive oracle over all invariant partitions of the domain.

    A partition witnesses failure when some part is neither a singleton nor
    contains a non-singleton orbit in full.  (Parts made of several fixed
    points count as failures; that convention is what the stabilizer-based
    test decides as well.)
    """
    if len(group.domain) > BRUTE_FORCE_CAP:
        raise DegreeCapError(
            f"brute force capped at {BRUTE_FORCE_CAP} points, got {len(group.domain)}"
        )
    orbits = [frozenset(o) for o in group.orbits()]
    big_orbits = [o for o in orbits if len(o) > 1]
    for parts in _set_partitions(list(group.domain)):
        if not is_invariant_partition(group, parts):
            continue
        for part in parts:
            if len(part) == 1:
                continue
            pset = set(part)
            if not any(o <= pset for o in big_orbits):
                witness = tuple(tuple(sorted(p, key=group.domain.index)) for p in parts)
                return SOPVerdict(
                    False, witness, f"invariant partition with bad part {sorted(pset)}"
                )
    return SOPVerdict(True)


# -- fixtures ----------------------------------------------------------------


def symmetric_group(points: Sequence) -> FinitePermGroup:
    pts = tuple(points)
    if len(pts) < 2:
        return FinitePermGroup(pts, [])
    swap = {pts[0]: pts[1], pts[1]: pts[0]}
    cycle = {p: pts[(i + 1) % len(pts)] for i, p in enumerate(pts)}
    return FinitePermGroup(pts, [swap, cycle])


def direct_product_on_disjoint_sets(a: FinitePermGroup, b: FinitePermGroup) -> FinitePermGroup:
    domain = a.domain + b.domain
    gens = [dict(zip(a.domain, a.image_array(g))) for g in a.gens]
    gens += [dict(zip(b.domain, b.image_array(g))) for g in b.gens]
    return FinitePermGroup(domain, gens)
