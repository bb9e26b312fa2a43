"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the production code paths: spans are computed by
multiplying generators with every monomial through RingElem arithmetic and
row-reducing with a self-contained pure-Python elimination.
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
