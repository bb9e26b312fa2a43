"""Finitely generated A-modules as F_p[[x]]-lattices in Howell form.

A module M is a submodule of A^r stored as its lattice rows H: the reduced
Howell form over F_p[x]/(x^N) (`linalg.howell`) of the y-multiples y^i g
(i < n) of its generators, one row h_b per (y-level, component) block b
that holds a lead.  h_b is x^(v_b) in block b, zero before it, and of
x-degree below v_c in each later block c that holds a lead.  The
x-multiples of the rows are an F_p-basis of M, so its length is the sum of
N - v_b, and v is the valuation vector of its F_p[[x]]-lattice basis
(`_valuations`).  H is unique to M; equality and hashing compare it.

Coordinate layout: y-level i, component c, x-degree a  ->  (i*r + c)*N + a,
so the y-levels are consecutive blocks of r*N columns.

Every product of a ring element with flat rows goes through one kernel:
`_shift` multiplies rows by a monomial x^a y^i, and `_mul_rows` multiplies
them by g as the sum of c * `_shift`(rows, a, i) over the nonzero terms of g,
reduced mod p once at the end.  With rows and g in [0, p) that sum has at
most L = n*N terms, each below p^2 < 2^32, so it is exact in int64.

Lifts (`lift_module`, kept in `ModuleRep.lifts`), the dual and the pure
quotients are Howell forms too.  `num`, the RREF of M over F_p, is built
on first use and kept: the x-multiples of h_b, reduced against the rows of
the later blocks, are its rows at the pivots of block b, and its rows at
each block's first pivot are H (`_lattice_rows`).  Only the filtrations,
`indices_by_definition`, `validate` and the F_p queries read it.

Length-valued outputs (graded ranks/torsions, indices, dual indices) are
certified by recomputing at precision N+2 and demanding agreement; the
x-truncation is an artifact and this is the stabilization check for it.

Both filtrations are slices of the RREF, read off with no elimination
(`_filtration`).  ann_M(y^k), the part of M in y^(n-k) A^r, is spanned by
the rows whose pivot lies at level n - k or later, and y^k M by the
y^k-shifts of the other rows, which are still in RREF.  The graded pieces
of a submodule of A, hence its indices, are read off v;
`indices_by_definition` recomputes the indices from the filtrations.  In
ambient rank >= 2 they raise DomainError.

The isomorphism oracle reads Hom(M, M') off the matrix factorization
(f, M1, M2) that `ext.build_resolution` reads off H: a map is its values
u_k on the generators f_k, written in the coordinates of H'
(`_lattice_coords`, one triangular pass), and it is well defined exactly
when u.M1 = 0.  That makes Hom the kernel of an (r*n)-square matrix Phi
over F_p[x]/(x^K) (`_hom_matrix`), which `linalg.poly_eliminate` returns
as exactly n rows (`_hom_kernel`); `ext.local_ext1_length` sums the
valuations of the same elimination for M' = M.  Both calls certify at
W = max(N, n*(v_0 + v'_0)) (`_working_precision`) and W + 2, and
K = W - v'_0 keeps every coordinate exact.  A basis row is onto exactly
when the images of the F_p[[x]]-basis y^t f_k of M span M'/xM' (Nakayama):
one n x n rank test mod x, with y acting on M'/xM' in lattice coordinates.
M and M' are isomorphic exactly when some basis row passes (`_iso_at`),
and that row is confirmed as a map.  The dual Hom(M, A) is spanned by a
column of the same factorization (`dual_module_oracle`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    ContainmentError,
    DomainError,
    NotInvertibleError,
    ParameterMismatch,
    PrecisionError,
    VerificationError,
)
from .ring import RingElem, RingParams, format_elem, parse_elem, parse_terms


# -- flat-vector plumbing ----------------------------------------------


def _as_vector(v, rank: int):
    if isinstance(v, RingElem):
        v = (v,)
    v = tuple(v)
    if len(v) != rank:
        raise ParameterMismatch(f"expected ambient rank {rank}, got vector of length {len(v)}")
    return v


def flatten(vec, params: RingParams, rank: int) -> np.ndarray:
    vec = _as_vector(vec, rank)
    out = np.zeros((params.n, rank, params.N), dtype=np.int64)
    for c, elem in enumerate(vec):
        if elem.params != params:
            raise ParameterMismatch("generator component has mismatched ring parameters")
        out[:, c] = elem.coeffs
    return out.ravel()


def unflatten(row: np.ndarray, params: RingParams, rank: int) -> tuple[RingElem, ...]:
    grid = row.reshape(params.n, rank, params.N)
    return tuple(RingElem(params, grid[:, c].tolist()) for c in range(rank))


def _shift(rows: np.ndarray, params: RingParams, rank: int, dx: int, dy: int) -> np.ndarray:
    """Every row times x^dx * y^dy (zero once dx >= N or dy >= n)."""
    n, N = params.n, params.N
    arr = rows.reshape(-1, n, rank, N)
    out = np.zeros_like(arr)
    if dx < N and dy < n:
        out[:, dy:, :, dx:] = arr[:, : n - dy, :, : N - dx]
    return out.reshape(rows.shape)


def _mul_rows(g: np.ndarray, rows: np.ndarray, params: RingParams, rank: int) -> np.ndarray:
    """Every row times the ring element g (a flat row of A), mod p."""
    grid = g.reshape(params.n, params.N)
    out = np.zeros_like(rows)
    for i, a in zip(*grid.nonzero()):
        out += grid[i, a] * _shift(rows, params, rank, a, i)
    return out % params.p


def _lattice_rows(sub: linalg.Subspace, params: RingParams) -> np.ndarray:
    """The RREF rows at the first pivot of each (y-level, component) block
    of an x-closed space: at most n*r rows, read off with no elimination.
    x moves a leading column one step along its block, so a block's pivots
    run from some v_b to its end, and the x-multiples of these rows have dim
    distinct leading columns: they form a basis."""
    block = np.asarray(sub.pivots, dtype=np.int64) // params.N
    return sub.rows()[np.flatnonzero(np.diff(block, prepend=-1))]


# -- the module representation ------------------------------------------


def _span(rows: np.ndarray, params: RingParams, rank: int) -> np.ndarray:
    """The lattice rows of the A-span of flat rows: the Howell form of their
    y-multiples y^i g (i < n), whose F_p[x]-span it is."""
    ys = np.vstack([_shift(rows, params, rank, 0, i) for i in range(params.n)])
    return linalg.howell(ys, params.p, params.N)


def _leads(H: np.ndarray) -> np.ndarray:
    return (H != 0).argmax(axis=1)


class ModuleRep:
    """A submodule of A^r stored as its lattice rows H (`linalg.howell`)."""

    __slots__ = ("params", "ambient_rank", "H", "gens", "lifts", "_num")

    def __init__(self, params, ambient_rank, H, gens=None):
        self.params = params
        self.ambient_rank = ambient_rank
        self.H = linalg._frozen(H)
        self.gens = gens
        self.lifts = {}  # precision -> lift, filled by `lift_module`
        self._num = None  # the RREF, built by `num` on first use

    @property
    def num(self) -> linalg.Subspace:
        """The RREF basis of the F_p-span, built on first use and kept: the
        x-multiples of each lattice row, reduced from the last block on
        against the rows already built, which they leave in RREF."""
        if self._num is None:
            N, p = self.params.N, self.params.p
            sub = linalg.Subspace(p, self.width)
            for h, v in zip(self.H[::-1], _leads(self.H)[::-1] % N):
                # x^a h for a < N - v: windows over h's blocks, N zeros in front
                blocks = np.pad(h.reshape(-1, N), ((0, 0), (N, 0)))
                xs = np.lib.stride_tricks.sliding_window_view(blocks, N, axis=1)[:, N - np.arange(N - v)]
                xs = xs.transpose(1, 0, 2).reshape(N - v, -1)
                sub = linalg.from_rref(np.vstack([sub.reduce(xs), sub.rows()]), p)
            self._num = sub
        return self._num

    # -- basic invariants ------------------------------------------

    @property
    def width(self) -> int:
        return self.ambient_rank * self.params.n * self.params.N

    def length(self) -> int:
        return int(np.sum(self.params.N - _leads(self.H) % self.params.N))

    def is_zero(self) -> bool:
        return not len(self.H)

    def basis_vectors(self) -> list[tuple[RingElem, ...]]:
        return [unflatten(r, self.params, self.ambient_rank) for r in self.num.rows()]

    def contains(self, vec) -> bool:
        return self.num.contains(flatten(vec, self.params, self.ambient_rank))

    def validate(self) -> None:
        """Check x,y-closure of the span (used by tests and parsers)."""
        rows = self.num.rows()
        shifted = np.vstack([_shift(rows, self.params, self.ambient_rank, 1, 0),
                             _shift(rows, self.params, self.ambient_rank, 0, 1)])
        if self.num.reduce(shifted).any():
            raise ContainmentError("subspace is not closed under the ring action")

    def __repr__(self):
        return (f"<module of A^{self.ambient_rank} over {self.params}, "
                f"length {self.length()}>")

    def __eq__(self, other):
        if not isinstance(other, ModuleRep):
            return NotImplemented
        return (self.params == other.params and self.ambient_rank == other.ambient_rank
                and np.array_equal(self.H, other.H))

    def __hash__(self):
        return hash((self.params, self.ambient_rank, self.H.tobytes()))


def span_from_generators(gens, params: RingParams | None = None, ambient_rank: int | None = None) -> ModuleRep:
    """Smallest x,y-closed subspace of A^r containing the generators."""
    norm = [(g,) if isinstance(g, RingElem) else tuple(g) for g in gens]
    if not norm and params is None:
        raise ParameterMismatch("params are required to build the zero module")
    rank = ambient_rank or (len(norm[0]) if norm else 1)
    par = params or norm[0][0].params
    rows = np.array([flatten(v, par, rank) for v in norm], dtype=np.int64).reshape(len(norm), rank * par.n * par.N)
    return ModuleRep(par, rank, _span(rows, par, rank), gens=tuple(tuple(v) for v in norm))


def zero_module(params: RingParams, ambient_rank: int = 1) -> ModuleRep:
    return span_from_generators([], params=params, ambient_rank=ambient_rank)


def full_ring(params: RingParams) -> ModuleRep:
    return span_from_generators([RingElem.one(params)])


def lift_module(M: ModuleRep, N_new: int) -> ModuleRep:
    """Reinstantiate M at a higher x-precision.

    The lift is the span of `_generator_rows`(M) (the remembered generators,
    which are carried over, else the lattice rows), padded with zero top
    x-degrees that the x-action regains.  In rank 1 this is the span of the
    whole padded basis: every block with a pivot gains exactly the new top
    degrees.  At M's own precision this is M itself; a lower precision
    raises DomainError.

    Each lift is kept in M.lifts, with no eviction, and returned again, so
    certified calls repeated on one module build it at N+2 once.  Sharing is
    safe: the arrays are read-only and no ModuleRep field is reassigned.
    """
    if N_new < M.params.N:
        raise DomainError(f"cannot lift a module at N={M.params.N} down to N={N_new}")
    if N_new == M.params.N:
        return M
    if N_new in M.lifts:
        return M.lifts[N_new]
    par, rank = M.params, M.ambient_rank
    big = par.with_precision(N_new)
    rows = np.pad(_generator_rows(M).reshape(-1, par.n * rank, par.N), ((0, 0), (0, 0), (0, N_new - par.N)))
    H = _span(rows.reshape(len(rows), rank * big.n * N_new), big, rank)
    gens = None if M.gens is None else tuple(tuple(e.lift(big) for e in vec) for vec in M.gens)
    M.lifts[N_new] = lift = ModuleRep(big, rank, H, gens)
    return lift


# -- filtrations --------------------------------------------------------


def _filtration(M: ModuleRep, which: str, k: int) -> linalg.Subspace:
    """The span of y^k M ('first') or ann_M(y^k) ('second'), sliced off M's
    RREF with no elimination.

    y^k kills exactly the part of M in y^(n-k) A^r, which the RREF rows with
    a pivot at level n - k or later span.  The other rows map to rows whose
    pivots move k levels on: still an RREF basis, now of y^k M.
    """
    par, rank, rows = M.params, M.ambient_rank, M.num.rows()
    # the number of rows whose pivot lies below y-level n - k
    cut = np.searchsorted(M.num.pivots, (par.n - k) * rank * par.N)
    if which == "first":
        block = _shift(rows[:cut], par, rank, 0, k)
    elif which == "second":
        block = rows[cut:]
    else:
        raise DomainError(f"unknown filtration {which!r}; use 'first' or 'second'")
    return linalg.from_rref(block, par.p)


def first_filtration(M: ModuleRep) -> list[ModuleRep]:
    """The chain M = M_0 >= yM >= ... >= y^(n-1)M >= M_n = 0."""
    return [ModuleRep(M.params, M.ambient_rank, _lattice_rows(_filtration(M, "first", k), M.params))
            for k in range(M.params.n + 1)]


def second_filtration(M: ModuleRep) -> list[ModuleRep]:
    """The chain 0 = M^(0) <= M^(1) <= ... <= M^(n) = M, M^(i) = ann_M(y^i)."""
    return [ModuleRep(M.params, M.ambient_rank, _lattice_rows(_filtration(M, "second", k), M.params))
            for k in range(M.params.n + 1)]


def quotient_length(M: ModuleRep, Msub: ModuleRep) -> int:
    """Length of M/Msub; Msub must be contained in M."""
    if M.params != Msub.params or M.ambient_rank != Msub.ambient_rank:
        raise ParameterMismatch("quotient operands live in different ambients")
    if not Msub.num.leq(M.num):
        raise ContainmentError("second module is not a submodule of the first")
    return M.length() - Msub.length()


def pure_quotient(M: ModuleRep, i: int) -> ModuleRep:
    """M / M^(n-i), the unique torsion-free quotient living in depth i, as
    y^(n-i) M: multiplying by y^(n-i) has kernel ann_M(y^(n-i)) = M^(n-i).
    Its lattice rows are the y^(n-i)-shifts of M's below level i, as the
    y^(n-i)-shifts of M's RREF rows below level i are its RREF (`_filtration`)."""
    par, n, rank = M.params, M.params.n, M.ambient_rank
    if not 1 <= i <= n:
        raise DomainError(f"pure quotient depth must be in [1, {n}], got {i}")
    gens = None
    if M.gens is not None:
        y = RingElem.monomial(par, 1, 0, n - i)
        gens = tuple(tuple(y * e for e in vec) for vec in M.gens)
    H = M.H[_leads(M.H) < i * rank * par.N]
    return ModuleRep(par, rank, _shift(H, par, rank, 0, n - i), gens)


# -- graded pieces, ranks, torsion --------------------------------------


@dataclass(frozen=True)
class GradedReport:
    """Per-level (rank, torsion_length) of a graded object on the reduced curve."""

    levels: tuple[tuple[int, int], ...]

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(r for r, _ in self.levels)

    @property
    def torsions(self) -> tuple[int, ...]:
        return tuple(t for _, t in self.levels)


def _valuations(M: ModuleRep) -> tuple[int, ...]:
    """The x-degree of the lead of each lattice row, lowest level first: the
    valuations v of M's F_p[[x]]-lattice basis.  y maps a row led by x^a at
    level l into M led by x^a at level l + 1, so the occupied levels are
    n - m .. n - 1 and v never grows."""
    _require_rank1(M, "a graded report or index vector")
    return tuple(int(a) for a in _leads(M.H) % M.params.N)


def _generator_levels(v) -> list[int]:
    """The levels of `ext.build_resolution`'s generators: 0 and each level where v drops."""
    return [0] + [l for l in range(1, len(v)) if v[l] < v[l - 1]]


def _graded_single(M: ModuleRep, which: str) -> GradedReport:
    # y^(k+1) M tensor F_p((x)) is the span of the levels above n - m + k, so
    # y^(k+1) M is saturated in y^k M cut to those levels: for k < m, G_k has
    # rank 1 and torsion v[0] - v[m-1-k] (the drops telescope).  ann_M(y^k) is
    # M cut to the levels from n - k on, saturated: the second pieces are free.
    v, n = _valuations(M), M.params.n
    m = len(v)
    if which == "first":
        levels = [(1, v[0] - v[m - 1 - k]) for k in range(m)]
    elif which == "second":
        levels = [(1, 0)] * m
    else:
        raise DomainError(f"unknown filtration {which!r}; use 'first' or 'second'")
    return GradedReport(tuple(levels) + ((0, 0),) * (n - m))


def _certified(N: int, compute, key=None):
    """compute(N), once it agrees with compute(N + 2) (compared through key,
    if given); else PrecisionError."""
    first, again = compute(N), compute(N + 2)
    a, b = (first, again) if key is None else (key(first), key(again))
    if a != b:
        raise PrecisionError(f"result not stable under N -> N+2 at N={N}: {a} vs {b}")
    return first


def graded_report(M: ModuleRep, which: str = "first") -> GradedReport:
    """(rank, torsion) of each graded piece y^k M / y^(k+1) M ('first') or
    M^(k+1) / M^(k) ('second') of a submodule of A, read off the lattice
    valuations v and certified at N and N+2: (1, v[0] - v[m-1-k]), resp.
    (1, 0), for k < m, the depth of M's subcurve, and (0, 0) after."""
    return _certified(M.params.N, lambda N: _graded_single(lift_module(M, N), which))


def _support_depth(v: tuple[int, ...]) -> int:
    """The number m of occupied y-levels: every nonzero submodule of A is
    generalized invertible on the depth-m subcurve; the zero module raises."""
    if not v:
        raise NotInvertibleError("the zero module is not generalized invertible")
    return len(v)


def _indices_single(M: ModuleRep) -> tuple[int, ...]:
    # beta_i is the torsion of G_(m-1-i), v[0] - v[i]
    v = _valuations(M)
    return tuple(v[0] - v[i] for i in range(1, _support_depth(v)))


def indices(M: ModuleRep) -> tuple[int, ...]:
    """(beta_1, ..., beta_(m-1)) of a nonzero submodule of A: the torsion
    v[0] - v[i] of G_(m-1-i), read off the valuations; certified."""
    return _certified(M.params.N, lambda N: _indices_single(lift_module(M, N)))


def _indices_by_definition_single(M: ModuleRep) -> tuple[int, ...]:
    # With M-bar = M / M^(m-i-1), taken on preimages in M: (M-bar)^(1) is
    # M^(m-i), and y^i M-bar is y^i M + M^(m-i-1).  One shifted copy of the
    # RREF (y^i M) is alive at a time.
    m = _support_depth(_valuations(M))
    out = []
    for i in range(1, m):
        s2 = _filtration(M, "second", m - i - 1)
        s2.insert(_filtration(M, "first", i).rows())
        beta = _filtration(M, "second", m - i).dim - s2.dim
        if beta < 0:
            raise PrecisionError("definitional index extraction unstable; raise N")
        out.append(beta)
    return tuple(out)


def indices_by_definition(M: ModuleRep) -> tuple[int, ...]:
    """beta_i = length( (M-bar_{i+1})^(1) / y^i * M-bar_{i+1} ), certified: the
    definition on the filtrations, a check on `indices` (m is read off v)."""
    return _certified(M.params.N, lambda N: _indices_by_definition_single(lift_module(M, N)))


# -- generators and nonzerodivisors -------------------------------------


def _generator_rows(M: ModuleRep) -> np.ndarray:
    """Flat rows of M's remembered generators, else its lattice rows (at most
    n*r rows that generate num even as an F_p[[x]]-module)."""
    if M.gens is None:
        return M.H
    return np.array([flatten(g, M.params, M.ambient_rank) for g in M.gens],
                    dtype=np.int64).reshape(-1, M.width)


# -- dual oracle ---------------------------------------------------------


def _require_rank1(M: ModuleRep, what: str) -> None:
    if M.ambient_rank != 1:
        raise DomainError(f"{what} is defined for submodules of A only")


def _require_full_invertible(M: ModuleRep, what: str) -> None:
    _require_rank1(M, what)
    if len(_valuations(M)) != M.params.n:
        raise NotInvertibleError(f"{what} needs a module supported on the whole curve")


def dual_module_oracle(M: ModuleRep) -> ModuleRep:
    """The module of A-linear maps M -> A, realized as a submodule of A: the
    ideal spanned by column 0 of M2 in the matrix factorization (f, M1, M2)
    of `ext.build_resolution`.

    Why: phi -> phi(f_0) identifies Hom(M, R) with (f_0 R : M), f_0 the first
    lattice row, a nonzerodivisor x^v + y*h of minimal valuation v.  A map
    is its values u = (phi(f_i)), and Hom(M, R) = {u : u.M1 = 0}.  Over
    S = F_p[[x]][y], u.M1 = y^n w = w.M2.M1, and M1 is injective (det M1 =
    y^n != 0 in a domain), so u = w.M2: phi(f_0) runs over the ideal spanned
    by column 0 of M2, which lies in A.

    Precision: multiplication by f_0 on R, free over F_p[[x]] with basis
    1, y, ..., y^(n-1), is triangular with determinant x^(n*v), so R/f_0 R
    has length n*v and x^(n*v) R <= f_0 R <= (f_0 R : M): the dual is the
    preimage of its image mod x^W for every W >= n*v.  The factorization is
    read off M lifted to W = max(N, n*v), the precision at which the colon
    (f_0 R : M) is exact, and its column is truncated to N; W is N for a
    normal form at N_min (v <= beta_(n-1)).  Read at N < n*v instead, the
    column of (x^4 + y, y^2) at n = 3, N = 5, p = 3 spans a dual with indices
    (3, 4), not (4, 4).  Computed independently at N and N+2, whose index
    vectors must agree.
    """
    from .ext import build_resolution  # ext imports modules
    _require_full_invertible(M, "dual_module_oracle")
    n, v = M.params.n, _valuations(M)[0]

    def dual_at(N: int) -> ModuleRep:
        par = M.params.with_precision(N)
        col = build_resolution(lift_module(M, max(N, n * v)))[2][:, 0]
        # truncation is a ring map, so the truncated column spans the image
        rows = col.reshape(len(col), n, -1)[..., :N].reshape(len(col), n * N)
        return ModuleRep(par, 1, _span(rows, par, 1))

    return _certified(M.params.N, dual_at, key=_indices_single)


# -- isomorphism oracle ---------------------------------------------------


def _lattice_coords(rows: np.ndarray, H: np.ndarray, v, K: int, p: int) -> np.ndarray:
    """Coordinates mod x^K, shape (len(rows), n, K), of flat rows of A that
    lie in M', in the basis of M''s lattice rows H.

    h'_l has level-l entry exactly x^(v'_l) and nothing below level l, so
    the coordinate c_l of w is its level-l entry over x^(v'_l) once the
    c_k h'_k of the levels k < l are subtracted: one triangular pass.  Above
    level l, h'_l vanishes at the RREF's pivot columns, so its entries there
    have x-degree below v'_(l+1), and a level subtracts at most v'_0 shifts.
    Each c_l is exact to degree W - v'_l >= K for K <= W - v'_0.
    """
    n, W = len(H), H.shape[1] // len(H)
    w, h = rows.reshape(-1, n, W) % p, H.reshape(n, n, W)
    out = np.zeros((len(w), n, K), dtype=np.int64)
    for l in range(n):
        w[:, l] %= p
        if w[:, l, : v[l]].any():
            raise VerificationError("the image of a map into M' does not lie in M'")
        c = w[:, l, v[l]:]
        out[:, l] = c[:, :K]
        for a in np.flatnonzero(h[l, l + 1:].any(axis=0)):
            m = min(W - a, W - v[l])
            w[:, l + 1:, a:a + m] -= h[l, l + 1:, a, None] * c[:, None, :m]
    return out


def _from_lattice_coords(c: np.ndarray, H: np.ndarray, p: int) -> np.ndarray:
    """The flat rows sum_m c[:, m] h'_m of A: the inverse of `_lattice_coords`."""
    n, W = len(H), H.shape[1] // len(H)
    h, K = H.reshape(n, n, W), c.shape[2]
    out = np.zeros((len(c), n, W), dtype=np.int64)
    for m in range(n):
        for a in np.flatnonzero(h[m].any(axis=0)):
            k = min(K, W - a)
            out[:, :, a:a + k] += h[m, :, a, None] * c[:, m, None, :k]
    return out.reshape(len(c), n * W) % p


def _working_precision(M: ModuleRep, Mp: ModuleRep) -> int:
    """W = max(N, n*(v_0 + v'_0)), at which Hom(M, M') = (u*M' : M) is exact,
    u the first lattice row of M: u*M' has n lattice pivots of valuation
    <= v_0 + v'_0, so x^W R lies in it.  W = N at N_min; read at N = 9, the
    golden n = 4, p = 3 pair has a kernel of rank 6, not 4."""
    return max(M.params.N, M.params.n * (_valuations(M)[0] + _valuations(Mp)[0]))


def _hom_matrix(A: ModuleRep, B: ModuleRep):
    """(Phi, M1, H, K): the matrix Phi over F_p[x]/(x^K), K = W - v'_0, of
    u -> u.M1 on B^r in the lattice coordinates of B (rows H), M1 from A's
    factorization (`ext.build_resolution`).  A map A -> B is its values u_k
    on the generators f_k, well defined exactly when u.M1 = 0; writing
    u_k = sum_m c_(k,m) h'_m, block (k, i) of Phi holds the coordinates of
    h'_m * M1[k, i], so Hom(A, B) is the left kernel of Phi."""
    from .ext import build_resolution  # ext imports modules
    par, n = A.params, A.params.n
    H, v = B.H, _valuations(B)
    K = par.N - v[0]
    M1 = build_resolution(A)[1]
    r = len(M1)
    images = np.vstack([_mul_rows(g, H, par, 1) for g in M1.reshape(r * r, -1)])
    coords = _lattice_coords(images, H, v, K, par.p).reshape(r, r, n, n, K)
    return coords.transpose(0, 2, 1, 3, 4).reshape(r * n, r * n, K), M1, H, K


def _hom_kernel(phi: np.ndarray, K: int, params: RingParams):
    """`linalg.poly_eliminate`(Phi) with n kernel rows, else PrecisionError:
    Hom has rank n over F_p[[x]] (free of rank 1 over R (x) F_p((x))), so
    more rows mean an invariant of valuation >= K, i.e. too little precision."""
    u, valuations = linalg.poly_eliminate(phi, params.p, K)
    if len(u) != params.n:
        raise PrecisionError(f"Hom(M, M') has rank {len(u)} modulo x^{K}, not {params.n}: raise N")
    return u, valuations


def _iso_at(A: ModuleRep, B: ModuleRep) -> str:
    from .ext import _matmul  # ext imports modules
    n, p, W = A.params.n, A.params.p, A.params.N
    phi, M1, H, K = _hom_matrix(A, B)
    u = _hom_kernel(phi, K, A.params)[0].reshape(n, len(M1), n, K)
    gaps = np.diff(_generator_levels(_valuations(A)) + [n])
    # y on B / xB in lattice coordinates, and its powers below n
    Y = _lattice_coords(_shift(H, A.params, 1, 0, 1), H, _valuations(B), 1, p)[..., 0]
    powers = [np.eye(n, dtype=np.int64)]
    for _ in range(1, n):
        powers.append(powers[-1] @ Y % p)
    # The y^t f_k (t < d_k) are an F_p[[x]]-basis of M, so by Nakayama the
    # map u is onto exactly when their images (u_k mod x) Y^t span B / xB.
    # The maps that are not onto form a subspace of Hom: all of it if M and
    # M' are not isomorphic (a surjection between torsion-free F_p[[x]]-modules
    # of equal rank n is bijective), else phi*J for an isomorphism phi and the
    # radical J of End(M), which holds x.  End(M) is local: it is finite over
    # F_p[[x]] inside K[y]/(y^n), K = F_p((x)), whose only idempotents are 0
    # and 1.  A proper subspace that holds x*Hom misses a row of every basis
    # modulo x, so M and M' are isomorphic exactly when some row of u is onto.
    for row in u:
        top = np.array([row[k, :, 0] @ powers[t] % p for k in range(len(gaps)) for t in range(gaps[k])])
        if linalg.rank(top, p) == n:
            # confirmed as a map: u.M1 = 0 below x-degree K, as the elimination guarantees
            image = _matmul(_from_lattice_coords(row, H, p)[None], M1, A.params)
            if image.reshape(-1, n, W)[..., :K].any():
                raise VerificationError("a basis row of Hom(M, M') does not map the relations of M to 0")
            return "yes"
    return "no"


def is_isomorphic_oracle(M: ModuleRep, Mp: ModuleRep) -> str:
    """'yes' if M and M' are isomorphic, else 'no': exactly when some row of
    an F_p[[x]]-basis of Hom(M, M') is onto (n rank tests mod x at most),
    the first onto row confirmed as a map.  Computed on both modules lifted
    to the working precision W (`_working_precision`) and to W + 2, which
    must agree."""
    if M.params != Mp.params:
        raise ParameterMismatch("isomorphism oracle needs identical ring parameters")
    _require_full_invertible(M, "is_isomorphic_oracle")
    _require_full_invertible(Mp, "is_isomorphic_oracle")
    return _certified(_working_precision(M, Mp), lambda N: _iso_at(lift_module(M, N), lift_module(Mp, N)))


# -- module-spec files ----------------------------------------------------


def _parse_exact(text: str, params: RingParams) -> RingElem:
    """The ring element written in text, refusing any term that the ring
    would change: a coefficient c with |c| >= p, or an x-degree >= N."""
    for c, xdeg, _ in parse_terms(text):
        if abs(c) >= params.p or xdeg >= params.N:
            raise DomainError(f"{text.strip()!r}: coefficient {c} or x-degree {xdeg} does not fit {params}")
    return parse_elem(text, params)


def parse_module_text(text: str) -> ModuleRep:
    """Module-spec format: header `ring n=<n> N=<N> p=<p> rank=<r>`, then one
    generator per line in the ring text syntax (components comma-separated
    when rank > 1).  Blank lines and '#' comments are skipped.  A term whose
    coefficient is not a residue (|c| >= p) or whose x-degree reaches N raises
    DomainError instead of being reduced or cut, and so does a header whose
    first token is not `ring`, a header key that is unknown or repeated, or a
    rank below 1."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0].split()[0] != "ring":
        raise DomainError("module spec must start with a 'ring n=.. N=.. p=.. rank=..' header")
    header = dict()
    for tok in lines[0].split()[1:]:
        key, eq, val = tok.partition("=")
        if not eq or key not in ("n", "N", "p", "rank") or key in header:
            raise DomainError(f"bad header token {tok!r}: keys are n, N, p and rank, once each")
        header[key] = int(val)
    try:
        params = RingParams(header["n"], header["N"], header["p"])
    except KeyError as exc:
        raise DomainError(f"module spec header is missing {exc}") from exc
    rank = header.get("rank", 1)
    if rank < 1:
        raise DomainError(f"module spec rank must be at least 1, got {rank}")
    gens = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != rank:
            raise DomainError(f"generator {ln!r} has {len(parts)} components, expected {rank}")
        gens.append(tuple(_parse_exact(part, params) for part in parts))
    return span_from_generators(gens, params=params, ambient_rank=rank)


def format_module(params: RingParams, rank: int, gens) -> str:
    out = [f"ring n={params.n} N={params.N} p={params.p} rank={rank}"]
    for vec in gens:
        vec = _as_vector(vec, rank)
        out.append(", ".join(format_elem(e) for e in vec))
    return "\n".join(out) + "\n"
