"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the production code paths: spans are computed by
multiplying generators with every monomial through RingElem arithmetic (or,
for flat rows, by moving their coordinates) and row-reducing with a
self-contained pure-Python elimination.  `lattice_rows` reads the Howell
rows off an RREF basis, and `general_form_generators` and
`special_form_generators` solve the relations of a normal form by RingElem
arithmetic.  `divide_by_x_power`,
`x_scaled_copy` and the `special_stalks` strategy are the builders here:
they make stalks and isomorphic copies through the production span.

`span`, `nullspace`, `fp_equal` and `fp_leq` are F_p references on the
package's own elimination (`linalg.Subspace`, `linalg._rref`), and
`linalg`'s tests check them against the pure-Python elimination here.
"""

import numpy as np
from hypothesis import strategies as st

from multicurve import linalg
from multicurve.errors import DomainError
from multicurve.modules import ModuleRep, _span, span_from_generators, unflatten
from multicurve.normal_form import make_special_form, special_ideal
from multicurve.ring import RingElem, RingParams, parse_elem, required_precision


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


def span(mat, p, width=None):
    """The Subspace spanned by the rows of mat, by `Subspace.insert`."""
    mat = np.atleast_2d(np.asarray(mat, dtype=np.int64))
    sub = linalg.Subspace(p, mat.shape[1] if width is None else width)
    sub.insert(mat)
    return sub


def nullspace(mat, p):
    """Basis (as rows) of {x : mat @ x = 0 mod p}, one row per free column."""
    rows, piv = linalg._rref(mat, p)
    k = rows.shape[1]
    free = np.setdiff1d(np.arange(k), piv)
    basis = np.zeros((free.size, k), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, piv] = (-rows[:, free].T) % p
    return basis


def fp_equal(a, b):
    """Whether two Subspaces are equal: their RREF bases are identical."""
    return (a.p, a.width) == (b.p, b.width) and np.array_equal(a.rows(), b.rows())


def fp_leq(a, b):
    """Whether the Subspace a lies in b: b leaves no residue of a's rows."""
    return not b.reduce(a.rows()).any()


# The paper's closed forms for the local Ext^1 length, written out here so the
# tests do not check production code against itself.


def ext1_special_closed_form(n, jump, b):
    return 2 * min(jump, n - jump) * b


def ext1_n3_closed_form(b1, b2):
    return 2 * b2 + 2 * min(b1, b2 - b1)


def lattice_rows(sub, params: RingParams):
    """The RREF rows at the first pivot of each (y-level, component) block
    of an x-closed space: at most n*r rows, read off with no elimination.
    x moves a leading column one step along its block, so a block's pivots
    run from some v_b to its end, and the x-multiples of these rows have dim
    distinct leading columns: they form a basis."""
    block = np.asarray(sub.pivots, dtype=np.int64) // params.N
    return sub.rows()[np.flatnonzero(np.diff(block, prepend=-1))]


def _x_power(e, c):
    """x^c * e, by moving e's coefficients c places up in x."""
    N = e.params.N
    return RingElem(e.params, [(0,) * min(c, N) + row[: max(N - c, 0)] for row in e.coeffs])


def _y_quotient(e):
    """e / y, for e in yA: its levels moved down one."""
    assert not any(e.coeffs[0])
    return RingElem(e.params, e.coeffs[1:])


def _x_poly(coeffs, params, level=0):
    """sum_a coeffs[a] x^a y^level."""
    grid = [()] * params.n
    grid[level] = tuple(coeffs)
    return RingElem(params, grid)


def general_form_generators(form, params):
    """(g_n, ..., g_1) of a GeneralNormalForm, solved by RingElem `*` and
    `+`: g_1 = y^(n-1), g_i = (x^(beta_(n-i+1) - beta_(n-i)) g_(i-1)
    + sum_j alpha_(i,j) g_j) / y."""
    n, beta, alpha = form.n, (0,) + form.beta, dict(form.alpha)
    gens = [RingElem.monomial(params, 1, 0, n - 1)]
    for i in range(2, n + 1):
        rhs = _x_power(gens[-1], beta[n - i + 1] - beta[n - i])
        for j in range(1, i - 1):
            if (i, j) in alpha:
                rhs = rhs + _x_poly(alpha[i, j], params) * gens[j - 1]
        gens.append(_y_quotient(rhs))
    return gens[::-1]


def special_form_generators(form, params):
    """(x^b + sum_h z_h y^h, y^j) of a SpecialNormalForm, by RingElem `+`."""
    lead = RingElem.monomial(params, 1, form.b, 0)
    for h, row in enumerate(form.z, start=1):
        lead = lead + _x_poly(row, params, h)
    return [lead, RingElem.monomial(params, 1, 0, form.j)]


def divide_by_x_power(M, s):
    """x^(-s) * M, with no remembered generators, for a module all of whose
    elements x^s divides: the span of its lattice rows shifted down by s."""
    if s == 0:
        return M
    params, rank = M.params, M.ambient_rank
    # every element is an F_p-combination of x-multiples of the lattice rows
    rows = M.H.reshape(-1, params.n, rank, params.N)
    if rows[..., :s].any():
        raise DomainError(f"module is not divisible by x^{s}")
    out = np.zeros_like(rows)
    out[..., : params.N - s] = rows[..., s:]
    return ModuleRep(params, rank, _span(out.reshape(len(rows), M.width), params, rank))


def x_scaled_copy(M, t_text):
    """(t / x^k) * M for the largest k such that x^k divides t * M: a copy of
    M whose generators are neither its lattice rows nor x-reduced.  A module
    with no remembered generators is scaled through its lattice rows."""
    par = M.params
    t = parse_elem(t_text, par)
    gens = M.gens or [unflatten(h, par, 1) for h in M.H]
    tM = span_from_generators([t * g[0] for g in gens], params=par)
    rows = tM.H.reshape(-1, par.n, par.N)
    k = min(int(np.flatnonzero(row.any(axis=0))[0]) for row in rows)
    return divide_by_x_power(tM, k)


@st.composite
def special_stalks(draw, with_partner=False):
    """A single-jump stalk at N_min, as built, times x, x-scaled, or without
    generators; with_partner adds a built stalk of the same shape and a
    drawn z-grid (the same grid at times)."""
    n, b = draw(st.integers(2, 5)), draw(st.integers(1, 2))
    j, p = draw(st.integers(1, n - 1)), draw(st.sampled_from([2, 3]))
    rows = min(j, n - j) - 1
    grid = st.lists(st.lists(st.integers(0, p - 1), min_size=b, max_size=b),
                    min_size=rows, max_size=rows)
    par = RingParams(n, required_precision(n, b), p)
    M = special_ideal(make_special_form(n, b, j, draw(grid)), par)
    kind = draw(st.sampled_from(["built", "shifted", "scaled", "bare"]))
    if kind == "scaled":
        copy = x_scaled_copy(M, draw(st.sampled_from(["x^2+y", "x^3+y"])))
    elif kind == "shifted":
        x = parse_elem("x", par)
        copy = span_from_generators([x * g[0] for g in M.gens], params=par)
    else:
        copy = ModuleRep(par, 1, M.H) if kind == "bare" else M
    if not with_partner:
        return copy
    return copy, special_ideal(make_special_form(n, b, j, draw(grid)), par)
