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

A module built from generators keeps them as flat rows too (`gen_rows`,
read-only); `gens` unflattens them into ring elements only when asked.

Lifts (`lift_module`), the dual and the pure quotients are Howell forms too.
What depends on M alone is built on first use and kept on M: its lifts, its
matrix factorization (`build_resolution`) and y on M/xM (`_y_powers`).
Membership, submodule and closure checks (`contains`, `quotient_length`,
`validate`) are one Howell form each (`_holds`): H is unique to its span, so
rows lie in M exactly when adding them leaves H as it is.  The RREF over F_p
(`_fp_basis`) is built only for the definitional check
`indices_by_definition` and for `basis_vectors`: the x-multiples of h_b,
reduced against the rows of the later blocks, are its rows at the pivots of
block b.

Length-valued outputs (graded ranks/torsions, indices, dual indices) are
certified by recomputing at precision N+2 and demanding agreement; the
x-truncation is an artifact and this is the stabilization check for it.

Both filtrations are slices of H, read off with no elimination (`_piece`).
ann_M(y^k), the part of M in y^(n-k) A^r, is spanned by the rows of H led at
level n - k or later, and y^k M by the y^k-shifts of the other rows, which
are still in reduced Howell form.  `indices_by_definition` slices the RREF
the same way (`_filtration`), so the definitional check does not rest on the
lattice.  The graded pieces of a submodule of A, hence its indices, are read
off v; `indices_by_definition` recomputes the indices from the filtrations.
In ambient rank >= 2 they raise DomainError.

A stalk on the whole curve is presented by the matrix factorization
(f, M1, M2) of y^n that `build_resolution` reads off H and proves exact.
The isomorphism oracle reads Hom(M, M') off it: a map is its values u_k on
the generators f_k, written in the coordinates of H' (`_lattice_coords`,
the one level-by-level division, which also gives M1), and it is well
defined exactly when u.M1 = 0.  That makes Hom the kernel of an
(r*n)-square matrix Phi over F_p[x]/(x^K) (`_hom_matrix`), which
`linalg.poly_eliminate` returns as exactly n rows (`_hom_kernel`);
`ext.local_ext1_length` sums the valuations of the same elimination for
M' = M.  Both calls certify at W = max(N, n*(v_0 + v'_0))
(`_working_precision`) and W + 2, and K = W - v'_0 keeps every coordinate
exact.  A basis row is onto exactly when the images of the F_p[[x]]-basis
y^t f_k of M span M'/xM' (Nakayama): one n x n rank test mod x, with y
acting on M'/xM' in lattice coordinates.  M and M' are isomorphic exactly
when some basis row passes (`_iso_at`), and that row is confirmed as a map.
The dual Hom(M, A) is spanned by a column of the same factorization
(`dual_module_oracle`).
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


# -- the module representation ------------------------------------------


def _span(rows: np.ndarray, params: RingParams, rank: int) -> np.ndarray:
    """The lattice rows of the A-span of flat rows: the Howell form of their
    y-multiples y^i g (i < n), whose F_p[x]-span it is."""
    ys = np.vstack([_shift(rows, params, rank, 0, i) for i in range(params.n)])
    return linalg.howell(ys, params.p, params.N)


def _leads(H: np.ndarray) -> np.ndarray:
    return (H != 0).argmax(axis=1)


def _holds(M: ModuleRep, rows: np.ndarray) -> bool:
    """Whether flat rows lie in the F_p[x]-span of M's lattice rows H: the
    reduced Howell form is unique to its span, so adding the rows leaves H
    as it is exactly when they lie in it (and H is a reduced Howell form)."""
    return np.array_equal(linalg.howell(np.vstack([M.H, rows]), M.params.p, M.params.N), M.H)


class ModuleRep:
    """A submodule of A^r stored as its lattice rows H (`linalg.howell`),
    with the flat rows of its generators when it was built from them."""

    __slots__ = ("params", "ambient_rank", "H", "gen_rows", "lifts", "resolution", "y_powers")

    def __init__(self, params, ambient_rank, H, gen_rows=None):
        self.params = params
        self.ambient_rank = ambient_rank
        self.H = linalg._frozen(H)
        self.gen_rows = None if gen_rows is None else linalg._frozen(gen_rows)
        self.lifts = {}  # precision -> lift, filled by `lift_module`
        self.resolution = self.y_powers = None  # filled by `build_resolution`, `_y_powers`

    @property
    def gens(self) -> tuple[tuple[RingElem, ...], ...] | None:
        """The generators as vectors of ring elements, or None."""
        if self.gen_rows is None:
            return None
        return tuple(unflatten(g, self.params, self.ambient_rank) for g in self.gen_rows)

    # -- basic invariants ------------------------------------------

    @property
    def width(self) -> int:
        return self.ambient_rank * self.params.n * self.params.N

    def length(self) -> int:
        return int(np.sum(self.params.N - _leads(self.H) % self.params.N))

    def is_zero(self) -> bool:
        return not len(self.H)

    def basis_vectors(self) -> list[tuple[RingElem, ...]]:
        return [unflatten(r, self.params, self.ambient_rank) for r in _fp_basis(self).rows()]

    def contains(self, vec) -> bool:
        return _holds(self, flatten(vec, self.params, self.ambient_rank))

    def validate(self) -> None:
        """Check that H is the reduced Howell form of an A-submodule: the
        Howell form of H and its y-multiples is H itself.  x-closure is
        automatic for an F_p[x]-span.  ModuleRep takes H as it is given, so
        this is the check for lattice rows built by hand."""
        if not _holds(self, _shift(self.H, self.params, self.ambient_rank, 0, 1)):
            raise ContainmentError("lattice rows are not the reduced Howell form of an A-submodule")

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
    return _from_rows(rows, par, rank)


def _from_rows(rows: np.ndarray, params: RingParams, rank: int) -> ModuleRep:
    """The module spanned by flat rows of residues, kept as its generators."""
    return ModuleRep(params, rank, _span(rows, params, rank), rows)


def zero_module(params: RingParams, ambient_rank: int = 1) -> ModuleRep:
    return span_from_generators([], params=params, ambient_rank=ambient_rank)


def full_ring(params: RingParams) -> ModuleRep:
    return span_from_generators([RingElem.one(params)])


def lift_module(M: ModuleRep, N_new: int) -> ModuleRep:
    """Reinstantiate M at a higher x-precision.

    The lift is the span of `_generator_rows`(M) (the generator rows, which
    the lift keeps, else the lattice rows), padded with zero top x-degrees
    that the x-action regains.  In rank 1 this is the span of the
    whole padded basis: every block with a pivot gains exactly the new top
    degrees.  At M's own precision this is M itself; a lower precision
    raises DomainError.

    Each lift is kept in M.lifts, with no eviction, and returned again, so
    certified calls repeated on one module build it at N+2 once.  Sharing is
    safe: the arrays are read-only, and each kept field is filled once.
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
    rows = rows.reshape(len(rows), rank * big.n * N_new)
    M.lifts[N_new] = lift = ModuleRep(big, rank, _span(rows, big, rank), None if M.gen_rows is None else rows)
    return lift


# -- filtrations --------------------------------------------------------


def _piece(M: ModuleRep, which: str, k: int) -> np.ndarray:
    """The lattice rows of y^k M ('first') or ann_M(y^k) ('second'), sliced
    off H with no elimination.

    y^k kills exactly the part of M in y^(n-k) A^r, the span of the rows of H
    led at level n - k or later (a Howell form spans every element of M that
    vanishes before a block with the rows led from that block on).  The other
    rows map to their y^k-shifts, led k levels on, which are still in reduced
    Howell form: they are the RREF rows of y^k M at each block's first pivot
    (`_filtration`).
    """
    par, rank = M.params, M.ambient_rank
    low = _leads(M.H) < (par.n - k) * rank * par.N
    if which == "first":
        return _shift(M.H[low], par, rank, 0, k)
    if which == "second":
        return M.H[~low]
    raise DomainError(f"unknown filtration {which!r}; use 'first' or 'second'")


def _fp_basis(M: ModuleRep) -> linalg.Subspace:
    """The RREF basis of M over F_p, for `indices_by_definition` and
    `basis_vectors`: the x-multiples of each lattice row, reduced from the
    last block on against the rows already built, which they leave in RREF."""
    N, p = M.params.N, M.params.p
    sub = linalg.Subspace(p, M.width)
    for h, v in zip(M.H[::-1], _leads(M.H)[::-1] % N):
        # x^a h for a < N - v: windows over h's blocks, N zeros in front
        blocks = np.pad(h.reshape(-1, N), ((0, 0), (N, 0)))
        xs = np.lib.stride_tricks.sliding_window_view(blocks, N, axis=1)[:, N - np.arange(N - v)]
        xs = xs.transpose(1, 0, 2).reshape(N - v, -1)
        sub = linalg.from_rref(np.vstack([sub.reduce(xs), sub.rows()]), p)
    return sub


def _filtration(M: ModuleRep, basis: linalg.Subspace, which: str, k: int) -> linalg.Subspace:
    """The span of y^k M ('first') or ann_M(y^k) ('second'), sliced off M's
    RREF basis (`_fp_basis`) with no elimination (for `indices_by_definition`).

    y^k kills exactly the part of M in y^(n-k) A^r, which the RREF rows with
    a pivot at level n - k or later span.  The other rows map to rows whose
    pivots move k levels on: still an RREF basis, now of y^k M.
    """
    par, rank, rows = M.params, M.ambient_rank, basis.rows()
    # the number of rows whose pivot lies below y-level n - k
    cut = np.searchsorted(basis.pivots, (par.n - k) * rank * par.N)
    if which == "first":
        block = _shift(rows[:cut], par, rank, 0, k)
    elif which == "second":
        block = rows[cut:]
    else:
        raise DomainError(f"unknown filtration {which!r}; use 'first' or 'second'")
    return linalg.from_rref(block, par.p)


def first_filtration(M: ModuleRep) -> list[ModuleRep]:
    """The chain M = M_0 >= yM >= ... >= y^(n-1)M >= M_n = 0."""
    return [ModuleRep(M.params, M.ambient_rank, _piece(M, "first", k)) for k in range(M.params.n + 1)]


def second_filtration(M: ModuleRep) -> list[ModuleRep]:
    """The chain 0 = M^(0) <= M^(1) <= ... <= M^(n) = M, M^(i) = ann_M(y^i)."""
    return [ModuleRep(M.params, M.ambient_rank, _piece(M, "second", k)) for k in range(M.params.n + 1)]


def quotient_length(M: ModuleRep, Msub: ModuleRep) -> int:
    """Length of M/Msub; Msub must be contained in M."""
    if M.params != Msub.params or M.ambient_rank != Msub.ambient_rank:
        raise ParameterMismatch("quotient operands live in different ambients")
    if not _holds(M, Msub.H):
        raise ContainmentError("second module is not a submodule of the first")
    return M.length() - Msub.length()


def pure_quotient(M: ModuleRep, i: int) -> ModuleRep:
    """M / M^(n-i), the unique torsion-free quotient living in depth i, as
    y^(n-i) M: multiplying by y^(n-i) has kernel ann_M(y^(n-i)) = M^(n-i).
    Its lattice rows are `_piece`(M, 'first', n - i), and its generators the
    y^(n-i)-shifts of M's."""
    par, n, rank = M.params, M.params.n, M.ambient_rank
    if not 1 <= i <= n:
        raise DomainError(f"pure quotient depth must be in [1, {n}], got {i}")
    gen_rows = None if M.gen_rows is None else _shift(M.gen_rows, par, rank, 0, n - i)
    return ModuleRep(par, rank, _piece(M, "first", n - i), gen_rows)


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
    """The levels of `build_resolution`'s generators: 0 and each level where v drops."""
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
    basis = _fp_basis(M)
    out = []
    for i in range(1, m):
        s2 = _filtration(M, basis, "second", m - i - 1)
        s2.insert(_filtration(M, basis, "first", i).rows())
        beta = _filtration(M, basis, "second", m - i).dim - s2.dim
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
    """M's generator rows, else its lattice rows (at most n*r rows that
    generate M even as an F_p[[x]]-module)."""
    return M.H if M.gen_rows is None else M.gen_rows


# -- lattice coordinates and the matrix factorization ---------------------


def _lattice_coords(rows: np.ndarray, B: np.ndarray, v, K: int, p: int) -> np.ndarray:
    """Coordinates mod x^K, shape (len(rows), n, K), of flat rows of A in a
    triangular F_p[[x]]-basis B of a lattice: row l of B vanishes below
    level l, and its level-l entry is exactly x^(v_l).

    The coordinate c_l of a row w is its level-l entry over x^(v_l) once
    the c_k b_k of the levels k < l are subtracted: one triangular pass.  A
    level-l entry that x^(v_l) does not divide means w is not in the
    lattice (VerificationError).  c_l has W - v_l degrees; it is cut or
    zero-padded to K.  For the lattice rows H of a module each c_l is exact
    to degree W - v_l >= K when K <= W - v_0, and above level l, h_l
    vanishes at the RREF's pivot columns, so its entries there have
    x-degree below v_(l+1) and a level subtracts at most v_0 shifts.
    """
    n, W = len(B), B.shape[1] // len(B)
    w, b = rows.reshape(-1, n, W) % p, B.reshape(n, n, W)
    out = np.zeros((len(w), n, K), dtype=np.int64)
    for l in range(n):
        w[:, l] %= p
        if w[:, l, : v[l]].any():
            raise VerificationError(f"a row is not in the lattice: its y-level {l} is not divisible by x^{v[l]}")
        c = w[:, l, v[l]:]
        out[:, l, : W - v[l]] = c[:, :K]
        for a in np.flatnonzero(b[l, l + 1:].any(axis=0)):
            m = min(W - a, W - v[l])
            w[:, l + 1:, a:a + m] -= b[l, l + 1:, a, None] * c[:, None, :m]
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


def _matmul(A: np.ndarray, B: np.ndarray, params: RingParams) -> np.ndarray:
    """The matrix product of (s, r) and (r, t) arrays of flat rows of A."""
    out = np.zeros((A.shape[0],) + B.shape[1:], dtype=np.int64)
    for i, k in np.ndindex(A.shape[:2]):
        out[i] += _mul_rows(A[i, k], B[k], params, 1)
    return out % params.p


def _check_complex(f: np.ndarray, M1: np.ndarray, M2: np.ndarray, params: RingParams) -> None:
    """f.M1 = M1.M2 = M2.M1 = 0 exactly, else VerificationError."""
    for name, prod in (("f.M1", _matmul(f[None], M1, params)),
                       ("M1.M2", _matmul(M1, M2, params)),
                       ("M2.M1", _matmul(M2, M1, params))):
        if prod.any():
            raise VerificationError(f"resolution is not a complex: {name} != 0")


def build_resolution(I: ModuleRep) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f, M1, M2) of the periodic resolution of a stalk on the whole curve,
    as flat rows of A of shapes (r, n*N), (r, r, n*N) and (r, r, n*N); a
    free stalk gives (f_0, [[y^n]] = 0, [[1]]).  The complex identities are
    checked exactly, once: the read-only arrays are kept in I.resolution.

    I's lattice rows h_l lead with x^(v_l) y^l, and v never grows
    (`_valuations`).  The generators f_i are the rows h_(g_i) at level
    g_0 = 0 and at each level g_i where v drops; d_i = g_(i+1) - g_i
    (g_r = n).  The rows y^(l - g_k) f_k, g_k <= l < g_(k+1), lead with
    x^(v_l) y^l too, so they are a triangular basis of I.  Each y^(d_i) f_i
    lies in I and vanishes below level g_(i+1): its coordinates in that
    basis (`_lattice_coords`) give y^(d_i) f_i = sum_(k > i) a[k, i] f_k,
    and with

        M1 = diag(y^(d_i)) - a,    M2 = adj(M1) = y^n M1^(-1),

        ... -> A^r --M2--> A^r --M1--> A^r --f--> I -> 0

    is the resolution.  Why it is exact: over S = F_p[[x]][y], M1 is lower
    triangular with diagonal y^(d_i), so coker(M1) is spanned over F_p[[x]]
    by the n elements y^t e_i, t < d_i.  Their images y^t f_i are the basis
    above, so coker(M1) maps onto I, free of rank n, by an isomorphism, and
    M1 presents I.  det M1 = y^n, so (M1, adj M1) is a matrix factorization
    of y^n and gives a 2-periodic resolution over R = S/(y^n) (Eisenbud
    1980, "Homological algebra on a complete intersection").  For a free
    stalk this is r = 1; for a single-jump stalk (x^b + alpha*y, y^j) it is
    r = 2, and for an n = 3 two-jump stalk r = 3.
    """
    if I.resolution is not None:
        return I.resolution
    _require_full_invertible(I, "build_resolution")
    par = I.params
    n, N, p = par.n, par.N, par.p
    v = _valuations(I)
    gens = _generator_levels(v)
    ends = gens[1:] + [n]
    r = len(gens)
    f = I.H[gens]
    one = np.zeros(n * N, dtype=np.int64)
    one[0] = 1

    basis = np.vstack([_shift(f[k], par, 1, 0, t) for k in range(r) for t in range(ends[k] - gens[k])])
    ys = np.vstack([_shift(f[i], par, 1, 0, ends[i] - gens[i]) for i in range(r)])
    c = _lattice_coords(ys, basis, v, N, p)
    M1 = np.zeros((r, r, n * N), dtype=np.int64)
    for k in range(r):
        # a[k, i] at level t is c[i, g_k + t]; c[k] vanishes there, so the diagonal goes in after
        M1[k, :, : (ends[k] - gens[k]) * N] = -c[:, gens[k]:ends[k]].reshape(r, -1)
        M1[k, k] = _shift(one, par, 1, 0, ends[k] - gens[k])
    M1 %= p

    # column i of adj(M1) = y^n M1^(-1): M2[j, i] = y^(n - d_i - ... - d_j) P_j
    # with P_i = 1 and P_j = sum_(i <= c < j) a[j, c] y^(d_(c+1) + ... + d_(j-1)) P_c
    M2 = np.zeros_like(M1)
    for i in range(r):
        P = {i: one}
        for j in range(i, r):
            if j > i:
                P[j] = -sum(_shift(_mul_rows(M1[j, c], P[c], par, 1), par, 1, 0, gens[j] - ends[c])
                            for c in range(i, j)) % p
            M2[j, i] = _shift(P[j], par, 1, 0, n - ends[j] + gens[i])
    _check_complex(f, M1, M2, par)
    I.resolution = tuple(linalg._frozen(a) for a in (f, M1, M2))
    return I.resolution


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
    of `build_resolution`, kept as its generators.

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

    Lifts: D keeps the r rows of the truncated column, so `lift_module`
    pads r rows, not n.  A lift of generators of D truncates onto D, so its
    valuations are at least D's, and it lies in the lift of D's lattice rows,
    the preimage of D (`lift_module`); it is that preimage once each level l
    holds a y-multiple of a generator led there by D's valuation w_l.  Over
    S, Hom(M, R) = im(.M2) is coker(.M1) on row vectors, spanned over
    F_p[[x]] by the y^t e_j (t < d_j): the n rows y^t M2[j, 0] span D, one
    at each level, so (F_p[[x]] is a domain) each leads with x^(w_l) times
    a unit.  For N >= n*v (W = N, as at N_min) D is exact mod x^N, every
    w_l is below N and the cut rows keep their leads: the two lifts are one
    module, with the same certified indices.  Below n*v a cut may move a
    lead; the tests compare the two lifts there.
    """
    _require_full_invertible(M, "dual_module_oracle")
    n, v = M.params.n, _valuations(M)[0]

    def dual_at(N: int) -> ModuleRep:
        par = M.params.with_precision(N)
        col = build_resolution(lift_module(M, max(N, n * v)))[2][:, 0]
        # truncation is a ring map, so the truncated column spans the image
        rows = col.reshape(len(col), n, -1)[..., :N].reshape(len(col), n * N)
        return _from_rows(rows, par, 1)

    return _certified(M.params.N, dual_at, key=_indices_single)


# -- isomorphism oracle ---------------------------------------------------


def _working_precision(M: ModuleRep, Mp: ModuleRep) -> int:
    """W = max(N, n*(v_0 + v'_0)), at which Hom(M, M') = (u*M' : M) is exact,
    u the first lattice row of M: u*M' has n lattice pivots of valuation
    <= v_0 + v'_0, so x^W R lies in it.  W = N at N_min; read at N = 9, the
    golden n = 4, p = 3 pair has a kernel of rank 6, not 4."""
    return max(M.params.N, M.params.n * (_valuations(M)[0] + _valuations(Mp)[0]))


def _hom_matrix(A: ModuleRep, B: ModuleRep):
    """(Phi, M1, H, K): the matrix Phi over F_p[x]/(x^K), K = W - v'_0, of
    u -> u.M1 on B^r in the lattice coordinates of B (rows H), M1 from A's
    factorization (`build_resolution`).  A map A -> B is its values u_k
    on the generators f_k, well defined exactly when u.M1 = 0; writing
    u_k = sum_m c_(k,m) h'_m, block (k, i) of Phi holds the coordinates of
    h'_m * M1[k, i], so Hom(A, B) is the left kernel of Phi."""
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


def _y_powers(B: ModuleRep) -> np.ndarray:
    """Y^t (t < n), Y = y on B / xB in lattice coordinates; kept in B.y_powers."""
    if B.y_powers is None:
        n, p = B.params.n, B.params.p
        Y = _lattice_coords(_shift(B.H, B.params, 1, 0, 1), B.H, _valuations(B), 1, p)[..., 0]
        powers = [np.eye(n, dtype=np.int64)]
        for _ in range(1, n):
            powers.append(powers[-1] @ Y % p)
        B.y_powers = linalg._frozen(np.array(powers))
    return B.y_powers


def _iso_at(A: ModuleRep, B: ModuleRep) -> str:
    n, p, W = A.params.n, A.params.p, A.params.N
    phi, M1, H, K = _hom_matrix(A, B)
    u = _hom_kernel(phi, K, A.params)[0].reshape(n, len(M1), n, K)
    gaps = np.diff(_generator_levels(_valuations(A)) + [n])
    powers = _y_powers(B)
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
