"""Small exact integer-matrix helpers: Hermite form, kernels, diagonal form.

Everything works on tuples of Python ints, so there is no overflow to worry
about at any scale this package reaches.  A lattice is held as its Hermite
basis, and membership is read off that basis in one triangular pass.  The
quotient by a lattice is read off a diagonal form of the basis, which one
row echelon routine, ``_echelon``, builds by alternating on rows and columns.
"""

from __future__ import annotations


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
    any augmentation; some may be zero rows).  Each column is cleared by
    Euclid's algorithm on its rows: the row with the smallest nonzero entry
    there reduces the others until one is left, which keeps the entries
    near the size of the result.
    """
    rows = [list(r) for r in rows if any(r)]
    out: list[list[int]] = []
    for col in range(cols):
        live = [r for r in rows if r[col]]
        rows = [r for r in rows if not r[col]]
        while len(live) > 1:
            piv = min(live, key=lambda r: abs(r[col]))
            rest = [piv]
            for r in live:
                if r is not piv:
                    q = r[col] // piv[col]
                    r = [u - q * v for u, v in zip(r, piv)]
                    (rest if r[col] else rows).append(r)
            live = rest
        if live:
            piv = live[0] if live[0][col] > 0 else [-u for u in live[0]]
            # piv is 0 at the earlier pivots, so the rows above stay reduced there
            for k, row in enumerate(out):
                q = row[col] // piv[col]
                if q:
                    out[k] = [u - q * v for u, v in zip(row, piv)]
            out.append(piv)
    return out, rows


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
    """Membership of an integer vector in the lattice spanned by HNF rows.

    The coefficients are forced, one pivot at a time; each must be an integer.
    """
    v = list(vec)
    for row in rows_hnf:
        c = next(j for j, x in enumerate(row) if x)
        q, rem = divmod(v[c], row[c])
        if rem:
            return False
        if q:
            v = [x - q * b for x, b in zip(v, row)]
    return not any(v)


def diagonal_form(rows_hnf, cols: int):
    """(d, v): U @ H @ V is diagonal with entries d, v the rows of V.

    H is a Hermite basis of rank r over ``cols`` columns, U and V are
    unimodular, and d is 0 from r on.  Column steps echelon H's transpose
    augmented with V's, which records V; row steps echelon H and change only
    U.  They alternate until a column step leaves a diagonal, which need not
    be the Smith form.
    """
    h = [list(r) for r in rows_hnf]
    r = len(h)
    vt = [[int(i == k) for k in range(cols)] for i in range(cols)]
    while True:
        piv, tail = _echelon([[row[j] for row in h] + t for j, t in enumerate(vt)], r)
        vt = [row[r:] for row in piv + tail]
        if not any(any(row[i + 1:r]) for i, row in enumerate(piv)):
            return [row[i] for i, row in enumerate(piv)] + [0] * (cols - r), list(zip(*vt))
        h, _ = _echelon([[row[i] for row in piv] + [0] * (cols - r) for i in range(r)], cols)


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
        q, rem = divmod(v[p], row[p])
        if rem:
            return None
        if q:
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
