"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the production code paths: spans are computed by
multiplying generators with every monomial through RingElem arithmetic (or,
for flat rows, by moving their coordinates) and row-reducing with a
self-contained pure-Python elimination.
"""

from multicurve.ring import RingElem, RingParams


def _row_reduce_dim(rows, p):
    rows = [list(r) for r in rows if any(r)]
    dim = 0
    col_count = len(rows[0]) if rows else 0
    pivot_rows = []
    for col in range(col_count):
        pivot = None
        for r in rows:
            if r[col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        rows.remove(pivot)
        inv = pow(pivot[col], p - 2, p)
        pivot = [(inv * v) % p for v in pivot]
        pivot_rows.append(pivot)
        reduced = []
        for r in rows:
            c = r[col] % p
            if c:
                r = [(a - c * b) % p for a, b in zip(r, pivot)]
            if any(r):
                reduced.append(r)
        rows = reduced
        dim += 1
    return dim


def _eliminate(row, pivot, col, p):
    """row minus the multiple of the unit-pivot row that clears column col."""
    c = row[col]
    return [(a - c * b) % p for a, b in zip(row, pivot)] if c else row


def rref_rows(rows, p):
    """Reduced row echelon form (nonzero rows, pivots ascending) by a
    self-contained pure-Python Gauss-Jordan elimination."""
    rows = [[v % p for v in r] for r in rows]
    out = []
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in rows if r[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        inv = pow(pivot[col], p - 2, p)
        pivot = [(inv * v) % p for v in pivot]
        out = [_eliminate(r, pivot, col, p) for r in out] + [pivot]
        rows = [_eliminate(r, pivot, col, p) for r in rows]
    return out


def naive_closure(rows, params: RingParams, rank: int):
    """RREF rows of the span of every monomial multiple x^a y^i of the flat
    rows (layout (i*r + c)*N + a), built coordinate by coordinate."""
    n, N = params.n, params.N
    multiples = []
    for row in rows:
        for i in range(n):
            for a in range(N):
                out = [0] * (rank * n * N)
                for c in range(rank):
                    for lev in range(n - i):
                        for x in range(N - a):
                            out[((lev + i) * rank + c) * N + x + a] = int(row[(lev * rank + c) * N + x])
                multiples.append(out)
    return rref_rows(multiples, params.p)


def naive_span_dim(gens, params: RingParams) -> int:
    """Dimension of the A-span of ring elements, by exhaustive multiplication."""
    rows = []
    for g in gens:
        for i in range(params.n):
            for a in range(params.N):
                prod = RingElem.monomial(params, 1, a, i) * g
                row = [c for level in prod.coeffs for c in level]
                if any(row):
                    rows.append(row)
    if not rows:
        return 0
    return _row_reduce_dim(rows, params.p)


def naive_quotient_length(gens_big, gens_small, params: RingParams) -> int:
    return naive_span_dim(gens_big, params) - naive_span_dim(gens_small, params)


# The paper's closed forms for the local Ext^1 length, written out here so the
# tests do not check production code against itself.


def ext1_special_closed_form(n, jump, b):
    return 2 * min(jump, n - jump) * b


def ext1_n3_closed_form(b1, b2):
    return 2 * b2 + 2 * min(b1, b2 - b1)
