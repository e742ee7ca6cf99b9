"""Analysis of finitely generated subgroups: translation lattice, Hirsch
length, the level and congruence-lifting criteria, window orbits, the
finitary commutator construction and the residue-class stabilizer family.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, combinations
from math import gcd, lcm, prod
from typing import Iterable

from . import intlattice as la
from .elements import (
    FoldedOrbits,
    HoughtonElement,
    _cycle_lengths,
    _cycle_runs,
    _fold_orbits,
    commutator,
    from_cycles,
    generator,
    identity,
)
from .errors import DomainError, InconclusiveError, UnsupportedCaseError
from .rays import RayPoint, RaySystem


# -- subgroups and their lattices -------------------------------------------------


@dataclass(frozen=True)
class GeneratedSubgroup:
    """A subgroup given by a finite list of generating elements.

    Equality and the hash compare every field.  Two things are built from
    the generators on first use and kept on the group: the symmetric
    generators and the exact orbit partition (``orbits``).  Nothing else
    holds them, so they go with the group.  The symmetric generators are
    built by the code that spells or applies words in them: the window
    search in ``blocks``, ``wreath`` and ``subdirect``.  The finitary
    alternating proof reads the generators' reversed heads instead and
    builds no inverse.
    """

    n: int
    generators: tuple
    labels: tuple = ()

    def __post_init__(self):
        for g in self.generators:
            if g.n != self.n:
                raise DomainError("generators must share the ray count")
        if self.labels and len(self.labels) != len(self.generators):
            raise DomainError("labels must match generators one to one")

    @classmethod
    def from_elements(cls, n: int, gens: Iterable[HoughtonElement]):
        return cls(n, tuple(gens))

    @cached_property
    def _symmetric(self) -> tuple:
        return self.generators + tuple(g.inverse() for g in self.generators)

    def symmetric_generators(self) -> tuple:
        """The generators, then their inverses in the same order."""
        return self._symmetric

    @cached_property
    def orbits(self) -> FoldedOrbits:
        """The exact orbit partition, ``elements.FoldedOrbits``, built on first use."""
        return _fold_orbits(self.n, self.generators)

    def spell(self, path) -> HoughtonElement:
        """The element of a path of indices into ``symmetric_generators()``."""
        gens = self._symmetric
        return reduce(HoughtonElement.compose, (gens[k] for k in path), identity(self.n))

    def to_json_dict(self) -> dict:
        data = {"n": self.n, "generators": [g.to_json_dict() for g in self.generators]}
        if self.labels:
            data["labels"] = list(self.labels)
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "GeneratedSubgroup":
        """Parse the subgroup wrapper; DomainError names a malformed field."""
        if not isinstance(data, dict):
            raise DomainError("subgroup data must be a JSON object")
        n, gens, labels = data.get("n"), data.get("generators"), data.get("labels", [])
        if type(n) is not int or n < 1:
            raise DomainError(f"subgroup field 'n' must be a positive integer, not {n!r}")
        if not isinstance(gens, list):
            raise DomainError("subgroup field 'generators' must be a list")
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise DomainError("subgroup field 'labels' must be a list of strings")
        return cls(n, tuple(HoughtonElement.from_json_dict(g) for g in gens), tuple(labels))


@dataclass(frozen=True)
class TranslationLattice:
    """Canonical basis (Hermite form rows) of the translation image."""

    n: int
    basis: tuple

    @classmethod
    def from_vectors(cls, n: int, vectors: Iterable) -> "TranslationLattice":
        vecs = [tuple(int(x) for x in v) for v in vectors]
        for v in vecs:
            if len(v) != n:
                raise DomainError("vector length differs from the ray count")
            if sum(v) != 0:
                raise DomainError(f"{v} is not zero-sum")
        return cls(n, tuple(la.hnf_rows(vecs, n)))

    @classmethod
    def zero_sum(cls, n: int) -> "TranslationLattice":
        """The full lattice of zero-sum integer vectors."""
        vecs = [[0] * n for _ in range(n - 1)]
        for i in range(n - 1):
            vecs[i][i], vecs[i][-1] = 1, -1
        return cls.from_vectors(n, vecs)

    @classmethod
    def congruence(cls, n: int, m: int) -> "TranslationLattice":
        """Zero-sum vectors with every entry divisible by m."""
        if m < 1:
            raise DomainError("modulus must be positive")
        return cls.from_vectors(n, [[m * x for x in v] for v in cls.zero_sum(n).basis])

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, vec) -> bool:
        return la.in_row_span(self.basis, vec)

    @cached_property
    def _quotient(self) -> tuple:
        """(moduli, images): Z^n_0 / L as the sum of the Z / d, d in moduli.

        Truncation to the first n-1 entries sends Z^n_0 to Z^(n-1), e_k - e_n
        to e_k and L to the row span of the truncated basis H.  If U H V is
        diagonal (``intlattice.diagonal_form``), x -> x V carries the quotient
        onto the sum of the Z / d_j, so row k of V is e_k - e_n's image.  Only
        the coordinates with d_j != 1 are kept; d_j = 0 is a free coordinate,
        past the rank.  ``images[k]`` is reduced mod d_j; ``images[n-1]`` is 0.
        """
        d, v = la.diagonal_form([row[:-1] for row in self.basis], self.n - 1)
        keep = [j for j, a in enumerate(d) if a != 1]
        images = tuple(tuple(row[j] % d[j] if d[j] else row[j] for j in keep) for row in v)
        return tuple(d[j] for j in keep), images + ((0,) * len(keep),)

    def order(self, vec) -> int | None:
        """Least a >= 1 with a * vec in the lattice, or None if there is none.

        The order of vec's image in the quotient: the lcm of d / gcd(d, u)
        over its coordinates u mod d; None off the zero-sum vectors or if u
        is nonzero on a free coordinate (d = 0).
        """
        moduli, images = self._quotient
        terms = [(c, row) for c, row in zip(vec, images) if c]
        x = [sum(c * row[j] for c, row in terms) for j in range(len(moduli))]
        if sum(vec) or any(u for d, u in zip(moduli, x) if not d):
            return None
        return lcm(*(d // gcd(d, u) for d, u in zip(moduli, x) if d))

    def index_in_zero_sum(self) -> int | None:
        """Index in the zero-sum lattice: the product of the moduli, or None if one is 0."""
        return prod(self._quotient[0]) or None


def translation_lattice(group: GeneratedSubgroup) -> TranslationLattice:
    return TranslationLattice.from_vectors(
        group.n, [g.translation_vector() for g in group.generators]
    )


def hirsch_length(group: GeneratedSubgroup) -> tuple[int, bool]:
    """(rank of the translation lattice, whether it is n - 1)."""
    rank = translation_lattice(group).rank
    return rank, rank == group.n - 1


# -- level and congruence lifting --------------------------------------------------


@dataclass(frozen=True)
class LevelVerdict:
    is_level: bool
    witness: tuple | None = None  # (i, j, vector) on failure

    def __bool__(self):
        return self.is_level


def is_level(lattice: TranslationLattice) -> LevelVerdict:
    """Lattice form of the level criterion for n >= 3.

    For each ordered ray pair (i, j) the j-th coordinate projection of the
    sublattice vanishing on ray i must equal the projection of the whole
    lattice.  The witness names the first failing pair (scanned by target
    ray j, then zero ray i) and a vector whose j-component is unmatched.

    Let g_k be the gcd of basis column k, M = {(v_i, v_j) : v in L} and d
    its index in Z^2 (0 below rank 2).  Then d is the gcd of the 2 x 2
    minors of basis columns i and j, and M's first coordinates span g_i Z.
    So if g_i != 0, the j-th coordinates of the vectors with v_i = 0 span
    (d / g_i) Z; if g_i = 0 they span g_j Z.  Either way (i, j) passes iff
    d = g_i g_j, which is symmetric: the scan tests each unordered pair once,
    when it first meets it.  Every minor is a multiple of g_i g_j, so the
    running gcd stops once it reaches g_i g_j.
    """
    n = lattice.n
    if n < 3:
        raise UnsupportedCaseError("the lattice criterion needs n >= 3")
    basis = lattice.basis
    g = [gcd(*(row[k] for row in basis)) for k in range(n)]
    for j in range(n):
        for i in range(j + 1, n):
            target = g[i] * g[j]
            rows = [(row[i], row[j]) for row in basis if row[i] or row[j]]
            d = 0
            for (a, b), (c, e) in combinations(rows, 2):
                if d == target:
                    break
                d = gcd(d, a * e - b * c)
            if d != target:
                vec = _vector_with_projection(lattice, j + 1, g[j])
                return LevelVerdict(False, (i + 1, j + 1, vec))
    return LevelVerdict(True)


def _vector_with_projection(lattice: TranslationLattice, j: int, target: int):
    """Lattice vector whose j-th coordinate equals the projection gcd."""
    acc = None
    g = 0
    for row in lattice.basis:
        if row[j - 1] == 0:
            continue
        if acc is None:
            acc, g = list(row), row[j - 1]
        else:
            g2, x, y = la.xgcd(g, row[j - 1])
            acc = [x * a + y * b for a, b in zip(acc, row)]
            g = g2
        if abs(g) == abs(target):
            break
    if g == -target:
        acc = [-a for a in acc]
    return tuple(acc)


@dataclass(frozen=True)
class CongruenceVerdict:
    is_congruence_lifting: bool
    modulus: int | None = None

    def __bool__(self):
        return self.is_congruence_lifting


def congruence_exponent(lattice: TranslationLattice) -> int | None:
    """Smallest m with every m-scaled zero-sum vector in the lattice.

    The exponent of the quotient Z^n_0 / L: the lcm of its moduli, 0 below
    rank n-1.
    """
    return lcm(*lattice._quotient[0]) or None


def _two_support(n: int, i0: int, i1: int) -> tuple:
    """The zero-sum vector e_i1 - e_i0 (1-based rays)."""
    vec = [0] * n
    vec[i1 - 1], vec[i0 - 1] = 1, -1
    return tuple(vec)


def is_congruence_lifting(lattice: TranslationLattice) -> CongruenceVerdict:
    """Whether the lattice is exactly the m-congruence zero-sum lattice.

    The only candidate modulus is the quotient's exponent m.  The lattice
    contains the m-congruence lattice, of index m^(n-1): equal iff the indices are.
    """
    m = congruence_exponent(lattice)
    if m is None or m ** (lattice.n - 1) != lattice.index_in_zero_sum():
        return CongruenceVerdict(False)
    return CongruenceVerdict(True, m)


# -- window orbits -------------------------------------------------------------


@dataclass(frozen=True)
class OrbitWindowReport:
    """The exact orbit partition cut to the window of depth W.

    ``stabilized`` is always True; the key stays in the report schema.
    """

    classes: tuple  # tuples of RayPoint, ordered by least point
    stabilized: bool
    ray_incidence: tuple  # per class: sorted tuple of rays met

    @property
    def class_count(self) -> int:
        return len(self.classes)


def _window_partition(keys: list, n: int, depth: int) -> list:
    """Sorted classes, by least point, of the window points whose codes have equal ``keys``."""
    buckets: dict = {}
    by_ray = (keys[ray:n * depth:n] for ray in range(n))
    for p, key in zip(RaySystem(n).window(depth), chain.from_iterable(by_ray)):
        buckets.setdefault(key, []).append(p)
    return [tuple(v) for v in buckets.values()]


def orbit_windows(group: GeneratedSubgroup, depth: int) -> OrbitWindowReport:
    """The exact orbit partition cut to the window of depth W (``GeneratedSubgroup.orbits``).

    Only the window-bounded block search and its verification read the
    classes; ``orbit_summary`` reads the count and incidence without them.
    """
    orbits = group.orbits
    classes = tuple(_window_partition(orbits.window_keys(depth), group.n, depth))
    return OrbitWindowReport(classes, True, orbits.window_incidence(depth))


def orbit_summary(group: GeneratedSubgroup, depth: int) -> dict:
    """The orbit section of a report: the class count and ray incidence in the
    window of depth W, read off the folded segments with no window point built."""
    incidence = group.orbits.window_incidence(depth)
    return {
        "window": depth,
        "class_count": len(incidence),
        "stabilized": True,
        "ray_incidence": [list(r) for r in incidence],
    }


# -- word search helpers ----------------------------------------------------------


def bounded_words(start, letters, step, max_len: int, cap=None):
    """Breadth-first (path, value) pairs over words of length <= max_len.

    A path holds indices into ``letters``; its value is ``start`` acted on
    by each letter in turn, ``step(value, letter)``.  The empty path comes
    first; after it a path is yielded, and later extended, only when its
    value is new.  So paths arrive in shortlex order, each the shortlex-least
    path to its value, and every prefix of a yielded path was yielded too.
    ``cap`` bounds the number of distinct values.
    """
    yield (), start
    seen = {start}
    frontier = [((), start)]
    for _ in range(max_len):
        nxt = []
        for path, v in frontier:
            for k, g in enumerate(letters):
                e = step(v, g)
                if e in seen:
                    continue
                if cap is not None and len(seen) >= cap:
                    return
                seen.add(e)
                item = (path + (k,), e)
                nxt.append(item)
                yield item
        frontier = nxt


def element_with_translation(group: GeneratedSubgroup, target):
    """An element of the subgroup with the given translation vector.

    Breadth-first search over translation vectors of words of length at most
    8 first; if the target is in the lattice at all, an integer combination
    of generator translations always produces it, so the fallback never misses.
    """
    target = tuple(int(x) for x in target)
    vectors = [g.translation_vector() for g in group.symmetric_generators()]
    add = lambda u, v: tuple(a + b for a, b in zip(u, v))
    for path, t in bounded_words((0,) * group.n, vectors, add, 8):
        if t == target:
            return group.spell(path)
    rows = [g.translation_vector() for g in group.generators]
    coeffs = la.solve_row_combination(rows, target)
    if coeffs is None:
        return None
    powers = (g ** c for c, g in zip(coeffs, group.generators) if c)
    return reduce(HoughtonElement.compose, powers, identity(group.n))


# The most head entries a powered part of ``finitary_commutator`` may have.
# The parts in the tests have at most 2; a power at the cap takes about 0.1 s.
POWER_HEAD_CAP = 10_000


def finitary_commutator(group: GeneratedSubgroup) -> HoughtonElement:
    """A finitary element whose support meets every infinite orbit.

    Finds elements pulling ray 1 down while pushing ray 2 (resp. ray 3) up,
    raises them to powers killing their finite cycles, and returns the
    commutator of the two.  The power h^k translates every point of ray i
    from position threshold(h) + (k - 1) * max(-t_i, 0) on, since such a
    point stays at or above h's threshold for k steps; so its head has at
    most the sum of those positions.  Raises InconclusiveError, before any
    power is built, when that bound passes ``POWER_HEAD_CAP``.
    """
    n = group.n
    if n < 3:
        raise UnsupportedCaseError("needs at least three rays")
    lattice = translation_lattice(group)
    if lattice.rank != n - 1:
        raise DomainError("needs a subgroup of full Hirsch length")
    parts = []
    for j in (2, 3):
        e = _two_support(n, 1, j)
        d = lattice.order(e)
        h = element_with_translation(group, [d * x for x in e])
        k = lcm(*_cycle_lengths(_cycle_runs(h)))
        bound = sum(h.threshold + (k - 1) * max(-x, 0) for x in h.t)
        if bound > POWER_HEAD_CAP:
            raise InconclusiveError(
                f"the power h^{k} of the element pulling ray 1 against ray {j} "
                f"may have {bound} head entries, past the cap of {POWER_HEAD_CAP}",
                hint="a generating set whose translating words have short finite cycles",
            )
        parts.append(h ** k)
    result = commutator(parts[0], parts[1])
    if not result.is_finitary():
        raise AssertionError("commutator of elements is not finitary")
    return result


# -- residue-class stabilizer family ------------------------------------------------


def ray_shift(n: int, j: int, k: int) -> HoughtonElement:
    """Depth-k analogue of the standard generator: moves k-blocks between rays.

    Sends (1, m) to (1, m+k), (j, r) to (1, r) for r < k, and (j, m) to
    (j, m-k) otherwise; it preserves positions modulo k and its translation
    vector is k(e_1 - e_j).
    """
    if k < 1:
        raise DomainError("shift depth must be positive")
    if k == 1:
        return generator(n, j)
    t = [0] * n
    t[0], t[j - 1] = k, -k
    head = {RayPoint(j, r): RayPoint(1, r) for r in range(k)}
    return HoughtonElement(n, t, head)


def delta_k(n: int, k: int) -> GeneratedSubgroup:
    """Generators inside the stabilizer of the position residue classes mod k.

    Every generator maps each residue class Omega_i = {(j, m) : m = i-1 mod k}
    to itself; the translation lattice is the k-congruence lattice.  The
    family certifies containment, not that it generates the full stabilizer.
    """
    if k < 1 or n < 2:
        raise DomainError("need k >= 1 and n >= 2")
    gens = [ray_shift(n, j, k) for j in range(2, n + 1)]
    labels = [f"s{j}" for j in range(2, n + 1)]
    for i in range(1, k + 1):
        gens.append(from_cycles(n, [[(1, i - 1), (1, i - 1 + k)]]))
        labels.append(f"tau{i}")
    return GeneratedSubgroup(n, tuple(gens), tuple(labels))


def preserves_residue_classes(g: HoughtonElement, k: int) -> bool:
    """Whether every point keeps its position's residue mod k under g.

    A point off the head moves by t_i along its ray, and every ray has such
    points, so this holds exactly when k divides every t_i and every head
    entry keeps its position mod k: O(|head| + n).
    """
    return all(x % k == 0 for x in g.t) and all(p.pos % k == q.pos % k for p, q in g.head)


# -- generator words ------------------------------------------------------------

_WORD_TOKEN = re.compile(
    r"\s*(?:(?P<gen>g(?P<gnum>\d+))(?:\^(?P<exp>-?\d+))?"
    r"|(?P<cycle>\((?:\s*\d+:\d+)+\s*\))(?:\^(?P<cexp>-?\d+))?"
    r"|(?P<star>\*))\s*"
)
_CYCLE_POINT = re.compile(r"(\d+):(\d+)")


def parse_word(text: str, n: int) -> HoughtonElement:
    """Parse a word like "g2^2 * (1:0 1:1)" into an element.

    ``gJ`` is the standard generator, ``(r:p r:p ...)`` a cycle of ray
    points; ``*`` separators are optional and ``^`` takes integer powers.
    """
    pos = 0
    out = identity(n)
    matched_any = False
    while pos < len(text):
        m = _WORD_TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise DomainError(f"cannot parse word at: {text[pos:]!r}")
        pos = m.end()
        if m.group("star"):
            continue
        matched_any = True
        if m.group("gen"):
            base = generator(n, int(m.group("gnum")))
            exp = int(m.group("exp") or 1)
        else:
            pts = [(int(a), int(b)) for a, b in _CYCLE_POINT.findall(m.group("cycle"))]
            base = from_cycles(n, [pts])
            exp = int(m.group("cexp") or 1)
        out = out.compose(base ** exp)
    if not matched_any and text.strip():
        raise DomainError(f"cannot parse word: {text!r}")
    return out
