"""Small exact integer-matrix helpers: Hermite form, kernels, lattice index.

Everything works on tuples of Python ints, so there is no overflow to worry
about at any scale this package reaches.  A lattice is held as its Hermite
basis; membership, least multiples in the lattice and the covolume are read
off that basis in one triangular pass, with no trial division.
"""

from __future__ import annotations

from math import gcd


def xgcd(a: int, b: int):
    """Return (g, x, y) with g = gcd(a, b) = x*a + y*b and g >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def _echelon(rows, cols):
    """Integer row echelon over the first ``cols`` columns.

    Returns (pivot_rows, tail_rows): pivot rows have strictly increasing
    pivot columns with positive pivots and reduced entries above; tail rows
    are zero on the first ``cols`` columns (their remaining columns carry
    any augmentation).
    """
    rows = [list(r) for r in rows if any(r)]
    out: list[list[int]] = []
    col = 0
    while rows and col < cols:
        live = [r for r in rows if r[col]]
        rest = [r for r in rows if not r[col]]
        if not live:
            col += 1
            continue
        piv = live[0]
        for r in live[1:]:
            g, x, y = xgcd(piv[col], r[col])
            a, b = piv[col] // g, r[col] // g
            piv, r[:] = (
                [x * u + y * v for u, v in zip(piv, r)],
                [-b * u + a * v for u, v in zip(piv, r)],
            )
            if any(r):
                rest.append(r)
        if piv[col] < 0:
            piv = [-u for u in piv]
        out.append(piv)
        rows = rest
        col += 1
    tail = rows
    # left-to-right so later reductions cannot disturb finished columns
    for i in range(len(out)):
        p = next(j for j, v in enumerate(out[i]) if v)
        for k in range(i):
            q = out[k][p] // out[i][p]
            if q:
                out[k] = [u - q * v for u, v in zip(out[k], out[i])]
    return out, tail


def hnf_rows(rows, cols: int | None = None):
    """Row-style Hermite normal form with positive pivots.

    Entries above each pivot are reduced into [0, pivot); zero rows are
    dropped.  The result is the unique canonical basis of the row span.
    """
    rows = [tuple(r) for r in rows]
    if cols is None:
        cols = len(rows[0]) if rows else 0
    for r in rows:
        if len(r) != cols:
            raise ValueError("ragged matrix")
    out, _ = _echelon(rows, cols)
    return [tuple(r) for r in out]


def in_row_span(rows_hnf, vec) -> bool:
    """Membership of an integer vector in the lattice spanned by HNF rows."""
    return least_multiple_in_span(rows_hnf, vec) == 1


def least_multiple_in_span(rows_hnf, vec) -> int | None:
    """Least a >= 1 with a * vec in the lattice spanned by HNF rows, or None.

    Row k is the only row from k on that is nonzero at its pivot, so a vector
    of the rational span has forced coefficients c_k, read one pivot at a
    time, and a * vec is in the lattice iff every a * c_k is an integer: the
    least a is the lcm of the denominators of the c_k.  The pass builds it as
    it goes: where pivot p does not divide the residual's entry w, residual
    and a are scaled by p // gcd(p, w), the denominator of w / p.  A residual
    left nonzero means vec is outside the rational span.
    """
    v = list(vec)
    a = 1
    for row in rows_hnf:
        c = next(j for j, x in enumerate(row) if x)
        p = row[c]
        if v[c] % p:
            s = p // gcd(p, v[c])
            a *= s
            v = [s * x for x in v]
        q = v[c] // p
        if q:
            v = [x - q * b for x, b in zip(v, row)]
    return None if any(v) else a


def _augmented_echelon(rows):
    rows = [list(r) for r in rows]
    m = len(rows)
    cols = len(rows[0]) if rows else 0
    work = [rows[i] + [1 if k == i else 0 for k in range(m)] for i in range(m)]
    return _echelon(work, cols), cols, m


def solve_row_combination(rows, target):
    """Integer x with x @ rows == target, or None.

    Tracks the unimodular transform alongside the Hermite reduction.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return None if any(target) else ()
    (pivots, _tail), cols, m = _augmented_echelon(rows)
    v = list(target) + [0] * m
    for row in pivots:
        p = next(j for j, x in enumerate(row[:cols]) if x)
        if v[p]:
            if v[p] % row[p]:
                return None
            q = v[p] // row[p]
            v = [a - q * b for a, b in zip(v, row)]
    if any(v[:cols]):
        return None
    return tuple(-c for c in v[cols:])


def kernel_basis(rows):
    """Canonical basis of the left integer kernel {x : x @ rows == 0}."""
    rows = [list(r) for r in rows]
    if not rows:
        return []
    (_pivots, tail), cols, m = _augmented_echelon(rows)
    return hnf_rows([r[cols:] for r in tail], m)


def lattice_determinant(rows_hnf) -> int:
    """Product of pivots of an HNF basis (covolume when full rank)."""
    det = 1
    for row in rows_hnf:
        det *= next(x for x in row if x)
    return abs(det)
