"""Subdirect-product bookkeeping for intransitive actions.

Each orbit class of the window (the exact orbit partition cut to it, from
``orbit_windows``) carries an order isomorphism onto a fresh ray system (rank
along each ray), so the restriction of the subgroup to an orbit becomes a
subgroup of the same kind and every element-level tool applies per factor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import infer_eventual_translation
from .elements import HoughtonElement, identity
from .errors import DomainError, InconclusiveError
from .rays import RayPoint
from .subgroups import (
    GeneratedSubgroup,
    OrbitWindowReport,
    TranslationLattice,
    bounded_words,
    is_level,
    orbit_windows,
    translation_lattice,
)


@dataclass(frozen=True)
class FactorRestriction:
    """Restriction of the subgroup to one orbit, in intrinsic coordinates."""

    orbit_index: int
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
    report: OrbitWindowReport

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


def _contiguous_prefix(partial: dict, n: int) -> tuple:
    limits = []
    for ray in range(1, n + 1):
        r = 0
        while RayPoint(ray, r) in partial:
            r += 1
        limits.append(r)
    return tuple(limits)


def induce_on_orbit(orbit_points, g: HoughtonElement, n: int) -> HoughtonElement:
    """Image of an element under restriction to an orbit, via rank coordinates."""
    pts = sorted(orbit_points)
    pset = set(pts)
    by_ray = {ray: [p for p in pts if p.ray == ray] for ray in range(1, n + 1)}
    rank = {}
    for ray, lst in by_ray.items():
        for r, p in enumerate(lst):
            rank[p] = RayPoint(ray, r)
    partial = {}
    for p in pts:
        q = g.apply(p)
        if q in pset:
            partial[rank[p]] = rank[q]
    return infer_eventual_translation(partial, n, _contiguous_prefix(partial, n))


def decompose(group: GeneratedSubgroup, depth: int = 40) -> SubdirectDecomposition:
    """Split the action along its window orbit classes.

    Every factor of a full-Hirsch subgroup lands on an intrinsic copy of the
    ray system because each infinite orbit meets each ray infinitely often;
    the induced generators, lattices and flags are computed per factor.
    """
    report = orbit_windows(group, depth)
    if not translation_lattice(group).rank == group.n - 1:
        raise DomainError("decompose needs a subgroup of full Hirsch length")
    factors = []
    for idx, cls in enumerate(report.classes):
        if report.ray_incidence[idx] != tuple(range(1, group.n + 1)):
            raise InconclusiveError(
                f"orbit class {idx} misses a ray inside the window",
                hint=2 * report.window_depth,
            )
        induced = tuple(induce_on_orbit(cls, g, group.n) for g in group.generators)
        lattice = TranslationLattice.from_vectors(
            group.n, [e.translation_vector() for e in induced]
        )
        full = lattice.rank == group.n - 1
        level = None
        if group.n >= 3:
            level = bool(is_level(lattice))
        factors.append(
            FactorRestriction(idx, cls, induced, lattice, full, level)
        )
    return SubdirectDecomposition(group.n, report.window_depth, tuple(factors), report)


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
    every orbit meets every ray), and their supports are exact, so a hit is a
    certificate.  A miss is inconclusive.
    """
    if not 0 <= factor_index < len(decomposition.factors):
        raise DomainError("no such factor")
    if len(decomposition.factors) == 1:
        for g in group.generators:
            if not g.is_identity():
                return ProbeResult("trivial-full-factor", g, None)
        return ProbeResult("inconclusive", None, None)
    orbit = set(decomposition.factors[factor_index].points)
    depth = decomposition.report.window_depth
    gens = group.symmetric_generators()
    for path, e in bounded_words(identity(group.n), gens, HoughtonElement.compose, 4, cap=20000):
        if not e.is_finitary() or e.is_identity() or e.threshold > depth:
            continue
        moved, _ = e.support_description()
        if set(moved) <= orbit:
            return ProbeResult("found", e, len(path))
    return ProbeResult("inconclusive", None, None)
