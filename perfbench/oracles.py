"""Independent reference computations for the benchmark's output checks.

Nothing here calls houghton_kit: every expected value is derived from the
generated inputs with plain integer arithmetic, so a check holds whatever
the implementation under test does internally.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd


def _det(rows) -> int:
    """Exact determinant of a small square integer matrix."""
    m = [[Fraction(x) for x in row] for row in rows]
    size = len(m)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, size):
            f = m[r][col] / m[col][col]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return int(det)


def rank(vectors) -> int:
    rows = [[Fraction(x) for x in v] for v in vectors]
    out = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(out, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[out], rows[pivot] = rows[pivot], rows[out]
        for r in range(len(rows)):
            if r != out and rows[r][col]:
                f = rows[r][col] / rows[out][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[out])]
        out += 1
    return out


def zero_sum_index(vectors, n: int) -> int | None:
    """Index of the span of zero-sum vectors in the zero-sum lattice of Z^n.

    Zero-sum vectors are coordinatised by their first n - 1 entries, so the
    index is the gcd of the maximal minors of the truncated matrix; None when
    the span is not of full rank n - 1.
    """
    truncated = [list(v[:-1]) for v in vectors]
    g = 0
    for rows in combinations(truncated, n - 1):
        g = gcd(g, _det(rows))
    return g or None


def first_level_failure(vectors, n: int):
    """First ordered ray pair (i, j) breaking the level criterion, or None.

    The criterion asks, for every i != j, that the j-th coordinates of the
    lattice vectors vanishing at i generate the same group as the j-th
    coordinates of the whole lattice.  Both sides follow from the 2 x m
    matrix of columns i and j: the first is det / gcd(column i), where det
    is the gcd of its 2 x 2 minors.  Pairs are scanned by j, then by i.
    """
    cols = list(zip(*vectors))
    for j in range(1, n + 1):
        cj = cols[j - 1]
        full = 0
        for x in cj:
            full = gcd(full, x)
        for i in range(1, n + 1):
            if i == j:
                continue
            ci = cols[i - 1]
            gi = 0
            for x in ci:
                gi = gcd(gi, x)
            det = 0
            for a, b in combinations(range(len(ci)), 2):
                det = gcd(det, ci[a] * cj[b] - ci[b] * cj[a])
            if gi == 0:
                sub = full
            elif det == 0:
                sub = 0
            else:
                sub = det // gi
            if sub != full:
                return (i, j)
    return None


def congruence_modulus(vectors, n: int) -> int | None:
    """m when the span is exactly m times the zero-sum lattice, else None."""
    m = 0
    for v in vectors:
        for x in v:
            m = gcd(m, x)
    index = zero_sum_index(vectors, n)
    if m and index == m ** (n - 1):
        return m
    return None


def in_hnf_span(basis, vec) -> bool:
    """Membership of an integer vector in the span of echelon-form rows."""
    v = list(vec)
    for row in basis:
        p = next(k for k, x in enumerate(row) if x)
        if v[p] % row[p]:
            return False
        q = v[p] // row[p]
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def kernel_type(coeffs) -> int:
    """Finiteness degree of the kernel of a nonzero character.

    The characters vanishing on that kernel are the multiples of chi, so the
    great sphere holds chi and -chi.  Their canonical supports count the
    coefficients off the minimum and off the maximum; the degree is the
    smaller support minus one.
    """
    low, high = min(coeffs), max(coeffs)
    return min(sum(c != low for c in coeffs), sum(c != high for c in coeffs)) - 1


# -- elements as plain JSON ------------------------------------------------------


def translation_head(t) -> list:
    """Head table of the canonical translation with vector t.

    The initial segments that rays with t_j < 0 leave uncovered refill the
    gaps that rays with t_i > 0 open, in lexicographic order.
    """
    sources = [(j, m) for j, tj in enumerate(t, 1) if tj < 0 for m in range(-tj)]
    targets = [(i, m) for i, ti in enumerate(t, 1) if ti > 0 for m in range(ti)]
    return list(zip(sources, targets))


def element_json(t, scramble=()) -> dict:
    """Canonical element JSON: a finite scramble followed by a translation.

    ``scramble`` is a list of distinct points, cycled one step; they must lie
    above every translation head point, so the translation acts on them by
    shifting.
    """
    t = list(t)
    head = dict(translation_head(t))
    pts = list(scramble)
    for p, q in zip(pts, pts[1:] + pts[:1]):
        head[p] = (q[0], q[1] + t[q[0] - 1])
    threshold = max([0] + [-x for x in t] + [1 + p[1] for p in head])
    return {
        "n": len(t),
        "t": t,
        "threshold": threshold,
        "head": [[list(p), list(q)] for p, q in sorted(head.items())],
    }


def image_map(data: dict):
    head = {tuple(p): tuple(q) for p, q in data["head"]}
    t = data["t"]

    def image(p):
        q = head.get(p)
        return q if q is not None else (p[0], p[1] + t[p[0] - 1])

    return image


def finite_cycles(data: dict) -> set:
    """Finite cycles of an element given as JSON, as frozensets of points.

    Every finite cycle meets the head table; an orbit that reaches a ray
    with positive translation beyond the threshold never returns.  Fixed
    points are not cycles.
    """
    image = image_map(data)
    t, threshold = data["t"], data["threshold"]
    cycles = set()
    seen = set()
    for p, q in data["head"]:
        start = tuple(p)
        if start in seen or p == q:
            continue
        orbit = [start]
        q = image(start)
        while q != start:
            if q[1] >= threshold and t[q[0] - 1] > 0:
                orbit = None
                break
            orbit.append(q)
            q = image(q)
        if orbit is not None:
            seen.update(orbit)
            cycles.add(frozenset(orbit))
    return cycles
