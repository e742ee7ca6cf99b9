"""Subdirect-product bookkeeping for intransitive actions.

Each infinite orbit, read exactly from ``elements.FoldedOrbits``, carries an
order isomorphism onto a fresh ray system (rank along each ray), so the
restriction of the subgroup to an orbit becomes a subgroup of the same kind
and every element-level tool applies per factor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .elements import HoughtonElement, identity
from .errors import DomainError
from .rays import RayPoint, RaySystem, point_of
from .subgroups import (
    GeneratedSubgroup,
    TranslationLattice,
    bounded_words,
    is_level,
    translation_lattice,
)


@dataclass(frozen=True)
class FactorRestriction:
    """Restriction of the subgroup to one orbit, in intrinsic coordinates."""

    orbit_index: int
    least: RayPoint  # the orbit's least point
    points: tuple  # orbit points inside the window, sorted
    generators: tuple  # induced elements on the intrinsic ray system
    lattice: TranslationLattice
    full_hirsch: bool
    level: bool | None  # None when n = 2 (no lattice criterion)


@dataclass(frozen=True)
class SubdirectDecomposition:
    n: int
    window_depth: int
    factors: tuple

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "window_depth": self.window_depth,
            "factors": [
                {
                    "orbit_index": f.orbit_index,
                    "lattice": [list(r) for r in f.lattice.basis],
                    "full_hirsch": f.full_hirsch,
                    "level": f.level,
                    "generators": [g.to_json_dict() for g in f.generators],
                }
                for f in self.factors
            ],
        }


def induce_on_orbit(group: GeneratedSubgroup, point, g: HoughtonElement) -> HoughtonElement:
    """The restriction of a group element to the orbit O of a point, in rank coordinates.

    Ray i's tail from S_i has period m_i, the gcd of the generators' t_i, and
    O meets r_i of its residues (``FoldedOrbits.tails``).  g translates ray i
    by a multiple of m_i, so for p in O with p >= threshold(g) and p, p + t_i
    >= S_i, the positions from p to g(p) hold |t_i| / m_i of each residue:
    g(p) ranks t_i r_i / m_i above p.  So the head lies among O's points
    below max S_i + threshold(g) + max shift, whose ranks and images' ranks
    the orbit keys give; ``_from_codes`` checks the bijection.  Raises
    DomainError when O meets some ray finitely, or g sends a point of O off it.
    """
    n, orbits = group.n, group.orbits
    if g.n != n:
        raise DomainError(f"element acts on {g.n} rays, the group on {n}")
    point = RaySystem(n).check(point)
    key, tails = orbits.key(point), orbits.tails()
    keys = orbits.window_keys(_edge(tails, g) + g.max_shift())
    return _induce(n, point, key, tails, _ranks(n, keys, key), g)


def _edge(tails: tuple, g: HoughtonElement) -> int:
    """max S_i + threshold(g) + max shift: g's head on an orbit lies below this position."""
    return max(start for start, *_ in tails) + g.threshold + g.max_shift()


def _ranks(n: int, keys: list, key) -> dict:
    """Code -> rank code for the points of the orbit ``key`` among the window ``keys``.

    The r-th point of the orbit on ray i, in order of position, gets the code
    r n + i: the orbit's intrinsic copy of the ray system.
    """
    ranks = {}
    for ray in range(n):
        codes = [c for c in range(ray, len(keys), n) if keys[c] == key]  # O's points on the ray
        ranks.update((c, rank * n + ray) for rank, c in enumerate(codes))
    return ranks


def _induce(n: int, point, key, tails: tuple, ranks: dict, g: HoughtonElement) -> HoughtonElement:
    """``induce_on_orbit`` on the orbit's tails and ``_ranks`` to at least ``_edge`` + max shift.

    A wider rank table gives the same element: its codes below the edge come
    in the same order, and g maps them below the edge plus its max shift.
    """
    t, edge = [], _edge(tails, g)
    for ray, (shift, (_, period, tail)) in enumerate(zip(g.t, tails), start=1):
        ours = {r for r, k in enumerate(tail) if k == key}
        if not ours:
            raise DomainError(f"the orbit of {point} meets ray {ray} in finitely many points")
        if {(r + shift) % period for r in ours} != ours:
            raise DomainError(f"the element moves the tail of ray {ray} off the orbit of {point}")
        t.append(shift * len(ours) // period)
    pairs = []
    for c in (c for c in ranks if c < n * edge):
        if (image := g._image(c)) not in ranks:
            raise DomainError(f"the element sends {point_of(n, c)} off its orbit")
        pairs.append((ranks[c], ranks[image]))
    return HoughtonElement._from_codes(n, tuple(t), pairs)


def decompose(group: GeneratedSubgroup, depth: int = 40) -> SubdirectDecomposition:
    """Split the action along its exact orbits, ordered by least point (``induce_on_orbit``).

    Every factor of a full-Hirsch subgroup lands on an intrinsic copy of the
    ray system: an orbit meeting only the rays R would add the relation
    sum_R t_i r_i / m_i = 0 to the lattice.  A finite orbit raises
    DomainError naming its least point.  ``depth`` sets only the window of
    each factor's ``points``.  The tails, the window keys and each orbit's
    rank table are built once and read by every generator.
    """
    if not translation_lattice(group).rank == group.n - 1:
        raise DomainError("decompose needs a subgroup of full Hirsch length")
    n, orbits, gens = group.n, group.orbits, group.generators
    tails = orbits.tails()
    # every orbit has a point below the edge
    edge = max(start + max(period, 1) for start, period, _ in tails)
    reach = max((_edge(tails, g) + g.max_shift() for g in gens), default=0)
    keys, least, infinite = orbits.window_keys(max(depth, edge, reach)), {}, orbits.tail_roots()
    rank_keys = keys[:n * reach]
    for ray in range(n):
        for pos, key in enumerate(keys[ray:n * edge:n]):
            least.setdefault(key, RayPoint(ray + 1, pos))
    factors = []
    for idx, (key, where) in enumerate(least.items()):
        if key not in infinite:
            raise DomainError(f"the orbit of {where} is finite")
        cls = tuple(sorted(point_of(n, c) for c in range(n * depth) if keys[c] == key))
        ranks = _ranks(n, rank_keys, key)
        induced = tuple(_induce(n, where, key, tails, ranks, g) for g in gens)
        lattice = TranslationLattice.from_vectors(
            group.n, [e.translation_vector() for e in induced]
        )
        full = lattice.rank == group.n - 1
        level = None
        if group.n >= 3:
            level = bool(is_level(lattice))
        factors.append(
            FactorRestriction(idx, where, cls, induced, lattice, full, level)
        )
    return SubdirectDecomposition(group.n, depth, tuple(factors))


# -- kernel intersection probes ----------------------------------------------------


@dataclass(frozen=True)
class ProbeResult:
    status: str  # "found", "trivial-full-factor" or "inconclusive"
    element: HoughtonElement | None
    word_length: int | None

    @property
    def found(self):
        return self.element is not None


def kernel_intersection_probe(
    group: GeneratedSubgroup,
    decomposition: SubdirectDecomposition,
    factor_index: int,
) -> ProbeResult:
    """Search for a nontrivial element moving only the chosen orbit.

    Words of length at most 4 are tried.  Only finitary words are eligible
    (an element trivial on the other orbits must have zero translation since
    every orbit meets every ray).  Their supports are exact, and each moved
    point is tested by its exact orbit key, so a hit is a certificate at any
    ``decompose`` depth.  A miss is inconclusive.
    """
    if not 0 <= factor_index < len(decomposition.factors):
        raise DomainError("no such factor")
    if len(decomposition.factors) == 1:
        for g in group.generators:
            if not g.is_identity():
                return ProbeResult("trivial-full-factor", g, None)
        return ProbeResult("inconclusive", None, None)
    orbits = group.orbits
    key = orbits.key(decomposition.factors[factor_index].least)
    gens = group.symmetric_generators()
    for path, e in bounded_words(identity(group.n), gens, HoughtonElement.compose, 4, cap=20000):
        if not e.is_finitary() or e.is_identity():
            continue
        if all(orbits.key(p) == key for p, _ in e.head):
            return ProbeResult("found", e, len(path))
    return ProbeResult("inconclusive", None, None)
