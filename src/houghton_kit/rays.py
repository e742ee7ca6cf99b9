"""The n-ray set with its lexicographic well-order.

Points are pairs (ray, pos) with rays numbered 1..n and positions 0-based.
The lexicographic order (ray first, then position) well-orders the set with
order type omega * n.  Tuple comparison realises the order directly, so
RayPoint values sort correctly with no extra machinery.

Inside the package a point is its code pos * n + ray - 1 (``code_of`` and
``point_of`` convert).  The window of depth D is then the prefix 0..nD - 1 at
every D, and a translation by t_i moves the code c of a point of ray i to
c + n * t_i.  Code order is position first, so it is not the lexicographic
order; ``RayPoint`` stays at the boundary, where points are read or printed.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .errors import DomainError


class RayPoint(NamedTuple):
    ray: int
    pos: int

    def __repr__(self):
        return f"({self.ray}:{self.pos})"


def as_point(p) -> RayPoint:
    """Coerce a (ray, pos) pair of ints to a RayPoint, checking basic validity."""
    if type(p[0]) is not int or type(p[1]) is not int:
        raise DomainError(f"point coordinates must be integers, got {p!r}")
    q = RayPoint(p[0], p[1])
    if q.ray < 1:
        raise DomainError(f"ray index must be >= 1, got {q.ray}")
    if q.pos < 0:
        raise DomainError(f"position must be >= 0, got {q.pos}")
    return q


def code_of(n: int, p) -> int:
    """The code of the point (ray, pos) on n rays: pos * n + ray - 1."""
    ray, pos = p
    return pos * n + ray - 1


def point_of(n: int, c: int) -> RayPoint:
    """The point of a code on n rays."""
    # RayPoint's own __new__ is a Python function; tuple.__new__ is what it calls
    return tuple.__new__(RayPoint, (c % n + 1, c // n))


@dataclass(frozen=True)
class RaySystem:
    """The set {1..n} x N of n rays."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"need at least one ray, got n={self.n}")

    def check(self, p) -> RayPoint:
        q = as_point(p)
        if q.ray > self.n:
            raise DomainError(f"ray {q.ray} outside 1..{self.n}")
        return q

    def window(self, depth: int) -> "Window":
        return Window(self.n, depth)


@dataclass(frozen=True)
class Window:
    """All points with pos < depth, on every ray; size is n * depth."""

    n: int
    depth: int

    def __contains__(self, p) -> bool:
        ray, pos = p
        return 1 <= ray <= self.n and 0 <= pos < self.depth

    def __iter__(self) -> Iterator[RayPoint]:
        for ray in range(1, self.n + 1):
            for pos in range(self.depth):
                yield RayPoint(ray, pos)

    def __len__(self) -> int:
        return self.n * self.depth


def lex_compare(p, q, system: RaySystem | None = None) -> int:
    """Compare two points lexicographically: -1, 0 or +1.

    Ray index dominates; positions break ties within a ray.
    """
    a = system.check(p) if system is not None else as_point(p)
    b = system.check(q) if system is not None else as_point(q)
    if a < b:
        return -1
    if a > b:
        return 1
    return 0


class DeletionIso:
    """Order isomorphism from the ray set minus a finite set back to the ray set.

    On each ray a surviving point drops by the number of deleted points below
    it; this is the unique order isomorphism, ray by ray.
    """

    def __init__(self, n: int, deleted: Iterable):
        self.n = n
        system = RaySystem(n)
        by_ray: dict[int, list[int]] = {}
        for p in deleted:
            q = system.check(p)
            by_ray.setdefault(q.ray, []).append(q.pos)
        self._deleted = {ray: sorted(set(ps)) for ray, ps in by_ray.items()}

    def forward(self, p) -> RayPoint:
        q = as_point(p)
        dels = self._deleted.get(q.ray, ())
        k = bisect_left(dels, q.pos)
        if k < len(dels) and dels[k] == q.pos:
            raise DomainError(f"{q} was deleted; not in the domain")
        return RayPoint(q.ray, q.pos - k)

    def inverse(self, p) -> RayPoint:
        q = as_point(p)
        dels = self._deleted.get(q.ray, ())
        pos = q.pos
        for d in dels:
            if d <= pos:
                pos += 1
            else:
                break
        return RayPoint(q.ray, pos)

    __call__ = forward


def deletion_order_iso(n: int, deleted: Iterable) -> DeletionIso:
    """Build the order isomorphism R_n minus a finite set -> R_n."""
    return DeletionIso(n, deleted)
