"""Character-sphere computations on the translation functionals.

Characters are rational combinations of the per-ray translation maps, taken
modulo the single relation that the maps sum to zero; canonical
representatives shift the minimum coefficient to zero.  Membership in the
invariant skeleta is a pure support-size predicate, so everything here is
exact rational arithmetic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations
from math import lcm

from . import intlattice as la
from .errors import DomainError, UnsupportedCaseError
from .subgroups import TranslationLattice, _two_support, is_level


@dataclass(frozen=True)
class Character:
    """Canonical coefficient vector: all entries >= 0 with minimum zero."""

    n: int
    coeffs: tuple

    @property
    def support(self) -> tuple:
        return tuple(i + 1 for i, c in enumerate(self.coeffs) if c)

    @property
    def support_size(self) -> int:
        return len(self.support)

    def to_json_dict(self):
        return {"n": self.n, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json_dict(cls, data):
        return canonicalize([Fraction(c) for c in data["coeffs"]])


def canonicalize(coeffs) -> Character:
    """Shift by the relation (the functionals sum to zero) to the canonical form.

    All-equal coefficient vectors are the zero character and are rejected.
    """
    vals = [Fraction(c) for c in coeffs]
    if len(vals) < 2:
        raise DomainError("need at least two rays")
    low = min(vals)
    shifted = tuple(v - low for v in vals)
    if not any(shifted):
        raise DomainError("zero character: all coefficients equal")
    return Character(len(vals), shifted)


def in_sigma(chi: Character, m: int) -> bool:
    """Skeleton membership: inside the m-th invariant iff support exceeds m.

    The complement of the m-th invariant is the (m-1)-skeleton of the
    simplex on the translation functionals, whose faces carry at most m
    nonzero coordinates.
    """
    n = chi.n
    if n < 2:
        raise UnsupportedCaseError("needs at least two rays")
    if not 1 <= m <= n - 1:
        raise DomainError(f"m must lie in 1..{n - 1}")
    return chi.support_size > m


# -- rational linear algebra ---------------------------------------------------


def rational_kernel(rows, n):
    """Basis of {x in Q^n : row . x = 0 for every row}.

    Each row is scaled to integers by the lcm of its denominators; the
    integer left kernel of the transposed rows spans the rational kernel.
    """
    scaled = []
    for row in rows:
        row = [Fraction(v) for v in row]
        denom = lcm(*(v.denominator for v in row))
        scaled.append([int(v * denom) for v in row])
    columns = [[row[c] for row in scaled] for c in range(n)]
    return [tuple(map(Fraction, vec)) for vec in la.kernel_basis(columns)]


def _nonneg_ray_in_span(basis, n):
    """A nonzero nonnegative vector in the span, or None.

    The cone of nonnegative span vectors is pointed, so when it is nonzero
    it has an extreme ray cut out by dim-1 independent coordinate
    hyperplanes; all coordinate subsets of that size are examined.
    """
    d = len(basis)
    if d == 0:
        return None
    for active in combinations(range(n), d - 1):
        constraint_rows = [[basis[k][c] for k in range(d)] for c in active]
        sols = rational_kernel(constraint_rows, d)
        if len(sols) != 1:
            continue
        lam = sols[0]
        vec = tuple(
            sum(lam[k] * basis[k][c] for k in range(d)) for c in range(n)
        )
        if not any(vec):
            continue
        if all(v >= 0 for v in vec):
            return vec
        if all(v <= 0 for v in vec):
            return tuple(-v for v in vec)
    return None


def _normalize_ray(vec):
    lead = next(v for v in vec if v)
    return tuple(v / lead for v in vec)


def vanishing_sphere_min_support(lattice: TranslationLattice):
    """Minimal canonical support over characters vanishing on the lattice.

    Returns (size, representatives); (None, ()) when only the zero character
    vanishes, i.e. the great sphere is empty.  The lattice's vectors sum to
    zero, so the all-ones vector always vanishes on it.  When the vanishing
    vectors span a plane, it is spanned by one character chi and the all-ones
    vector, and the only nonnegative vectors in it with a zero coordinate are
    the positive multiples of canon(chi) and canon(-chi): the answer is read
    off those two.  Larger spans are searched support by support
    (``_min_support_search``).
    """
    n = lattice.n
    solution = rational_kernel(lattice.basis, n)
    if len(solution) <= 1:
        return None, ()
    if len(solution) > 2:
        return _min_support_search(lattice)
    chi = next(v for v in solution if len(set(v)) > 1)
    chars = [canonicalize(v) for v in (chi, [-x for x in chi])]
    size = min(c.support_size for c in chars)
    reps = {_normalize_ray(c.coeffs) for c in chars if c.support_size == size}
    return size, tuple(canonicalize(r) for r in sorted(reps))


def _min_support_search(lattice: TranslationLattice):
    """``vanishing_sphere_min_support`` by trying every support, smallest first.

    Exponential in n; for lattices whose vanishing vectors span more than a
    plane.
    """
    n = lattice.n
    for size in range(1, n):
        reps = []
        for support in combinations(range(n), size):
            constraints = list(lattice.basis)
            for c in range(n):
                if c not in support:
                    unit = [0] * n
                    unit[c] = 1
                    constraints.append(unit)
            sub = rational_kernel(constraints, n)
            ray = _nonneg_ray_in_span(sub, n)
            if ray is not None and sum(1 for v in ray if v) == size:
                reps.append(_normalize_ray(ray))
        if reps:
            return size, tuple(canonicalize(r) for r in sorted(set(reps)))
    return n, ()


@dataclass(frozen=True)
class FinitenessVerdict:
    """Largest certified finiteness degree with its blocking evidence."""

    type_f_max: int
    capped: bool
    blocking: tuple  # characters realizing the minimal support, if any
    note: str = ""

    def has_type_f(self, m: int) -> bool:
        return m <= self.type_f_max


def subgroup_type(n: int, lattice: TranslationLattice) -> FinitenessVerdict:
    """Finiteness type of a subgroup containing the derived subgroup.

    The subgroup is given by its image lattice in the abelianization; the
    vanishing characters form a great sphere, and the verdict is one less
    than the smallest canonical support appearing on it, capped at n - 1.
    """
    if lattice.n != n:
        raise DomainError("lattice dimension differs from the ray count")
    size, reps = vanishing_sphere_min_support(lattice)
    if size is None:
        return FinitenessVerdict(
            n - 1,
            capped=True,
            blocking=(),
            note="finite index: empty great sphere, type capped by the ambient group",
        )
    best = min(size - 1, n - 1)
    return FinitenessVerdict(
        best,
        capped=best == n - 1,
        blocking=reps,
        note=f"minimal vanishing-character support is {size}",
    )


# -- product joins ---------------------------------------------------------------


def meinert_complement_bound(n: int, k: int, grid) -> bool:
    """Whether a product character can lie in the top invariant's complement.

    The complement sits inside the (n-2)-skeleton of the join triangulation,
    and a join point's carrier dimension is the total factor support minus
    one; so the test is: total support over the factors at most n - 1.
    """
    rows = [list(map(Fraction, row)) for row in grid]
    if len(rows) != k or any(len(r) != n for r in rows):
        raise DomainError(f"grid must be {k} factors of {n} coefficients")
    total = 0
    seen_nonzero = False
    for row in rows:
        low = min(row)
        shifted = [v - low for v in row]
        size = sum(1 for v in shifted if v)
        if size:
            seen_nonzero = True
        total += size
    if not seen_nonzero:
        raise DomainError("zero character grid")
    return total <= n - 1


# -- the finiteness certificate -----------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """The level test's verdict on a full-rank lattice, with its witnesses.

    A certified lattice has one two-support witness per ordered ray pair,
    n(n-1) of them (``witness_count``); the vectors are built on first read.
    A full-rank lattice has finite index, so every e_j - e_i has a multiple
    in it and ``two_support_vector`` cannot fail there.
    """

    certified: bool
    offending: tuple | None  # level failure: (zero ray, target ray, vector)
    lattice: TranslationLattice  # the lattice tested, which the witnesses come from

    def __bool__(self):
        return self.certified

    @property
    def witness_count(self) -> int:
        n = self.lattice.n
        return n * (n - 1) if self.certified else 0

    @cached_property
    def witnesses(self) -> tuple:
        """Per ordered ray pair, a two-support lattice vector; () when not certified.

        Each unordered pair is solved once: a (e_i1 - e_i0) lies in the
        lattice iff its negation does.
        """
        if not self.certified:
            return ()
        rays = range(1, self.lattice.n + 1)
        half = {pair: two_support_vector(self.lattice, *pair) for pair in combinations(rays, 2)}
        return tuple(
            half[i0, i1] if i0 < i1 else tuple(-x for x in half[i1, i0])
            for i0, i1 in permutations(rays, 2)
        )


def two_support_vector(lattice: TranslationLattice, i0: int, i1: int):
    """Least positive multiple of e_i1 - e_i0 inside the lattice (``order``)."""
    vec = _two_support(lattice.n, i0, i1)
    a = lattice.order(vec)
    if a is None:
        raise DomainError(f"no multiple of e_{i1} - e_{i0} lies in the lattice")
    return tuple(a * x for x in vec)


def f_certificate(lattice: TranslationLattice) -> Certificate:
    """Top finiteness certificate for a full-rank lattice: the level test.

    When the lattice is level, each support pattern vanishing on one ray and
    positive on another is defeated by a two-support lattice vector pointing
    from the zero ray to the positive one; the witnesses list one such vector
    per ordered ray pair (``Certificate.witnesses``, built on first read).
    """
    if lattice.index_in_zero_sum() is None:
        raise DomainError("the certificate needs a full-rank lattice")
    verdict = is_level(lattice)
    return Certificate(verdict.is_level, verdict.witness, lattice)


# -- parsing ------------------------------------------------------------------------

# Most decimal digits a numerator or denominator of a coefficient may have
# while a character is read from text (per ray, summed over its terms).  It
# bounds the work of each term, and the canonical shift of such coefficients
# prints in at most 2 * 1000 + 1 digits, inside Python's limit on integer
# string conversion.
CHARACTER_DIGIT_BOUND = 1000
_COEFF_LIMIT = 10**CHARACTER_DIGIT_BOUND

_TERM = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:(?P<coef>\d+(?:/\d+)?)\s*\*?\s*)?t(?P<ray>\d+)\s*"
)


def parse_character(text: str, n: int) -> Character:
    """Parse things like "t1 - t2" or "2/3 t1 + t4" into a canonical character."""
    coeffs = [Fraction(0)] * n
    pos = 0
    found = False
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m:
            raise DomainError(f"cannot parse character at: {text[pos:]!r}")
        pos = m.end()
        try:
            ray = int(m.group("ray"))
            coef = Fraction(m.group("coef") or 1)
        except ZeroDivisionError:
            raise DomainError(f"zero denominator in {m.group('coef')!r}") from None
        except ValueError:
            # a digit string past Python's limit on integer string conversion
            raise DomainError("a number in the character has too many digits") from None
        if not 1 <= ray <= n:
            raise DomainError(f"t{ray} outside t1..t{n}")
        if m.group("sign") == "-":
            coef = -coef
        coeffs[ray - 1] += coef
        c = coeffs[ray - 1]
        if abs(c.numerator) >= _COEFF_LIMIT or c.denominator >= _COEFF_LIMIT:
            raise DomainError(
                f"the coefficient of t{ray} has more than {CHARACTER_DIGIT_BOUND} digits"
            )
        found = True
    if not found:
        raise DomainError(f"cannot parse character: {text!r}")
    return canonicalize(coeffs)


def kernel_lattice_of_character(text_or_coeffs, n: int) -> TranslationLattice:
    """Integer lattice of zero-sum vectors annihilated by a character."""
    if isinstance(text_or_coeffs, str):
        coeffs = list(parse_character(text_or_coeffs, n).coeffs)
    else:
        coeffs = [Fraction(c) for c in text_or_coeffs]
    denom = lcm(*(c.denominator for c in coeffs))
    int_coeffs = [int(c * denom) for c in coeffs]
    kernel = la.kernel_basis([[c, 1] for c in int_coeffs])
    return TranslationLattice.from_vectors(n, kernel)
