"""Finitely generated A-modules as explicit F_p-subspaces of A^r.

A module is a plain submodule of A^r, stored as the echelonized subspace
`num` of the flat space F_p^(n*r*N) that it spans, closed under the x- and
y-shift actions.  Every quantity computed here is a length, i.e. a
difference of subspace dimensions.

Length-valued outputs (graded ranks/torsions, indices, dual indices) are
certified by recomputing at precision N+2 and demanding agreement; the
x-truncation is an artifact and this is the stabilization check for it.

Coordinate layout: y-level i, component c, x-degree a  ->  (i*r + c)*N + a,
so the y-levels are consecutive blocks of r*N columns.

Every product of a ring element with flat rows goes through one kernel:
`_shift` multiplies rows by a monomial x^a y^i, and `_mul_rows` multiplies
them by g as the sum of c * `_shift`(rows, a, i) over the nonzero terms of g,
reduced mod p once at the end.  With rows and g in [0, p) that sum has at
most L = n*N terms, each below p^2 < 2^32, so it is exact in int64.  A whole
multiplication matrix is `_mul_rows(g, eye(L))`: row k is g times the k-th
grid monomial.

Modules built from rows (generators, lifts, x-division, the dual) are
closed by `_close_rows`.  A stalk is presented by at most n generators, so
the module they span is the F_p-span of the monomial multiples x^a y^i g.
`_close_rows` builds it in three eliminations, with no round loop: the span
S of the rows, the echelon basis E of the residues mod S of x*S and y*S,
and S plus the multiples of E, one y-level per insert (its docstring has
the argument).  The RREF of a space is unique, so the result does not
depend on how the space was reached.

That RREF is already the module's F_p[[x]]-lattice (Hermite, Howell) basis:
in an x-closed space the pivots of each (y-level, component) block run from
some v_b to the block's end, so the rows at each block's first pivot
(`_lattice_rows`, at most n*r) and their x-multiples form a basis.  Lifts,
x-division and colons over a module with no remembered generators start
from these rows, never from the whole basis.

Both filtrations are slices of the RREF, read off with no elimination
(`_filtration`).  ann_M(y^k), the part of M in y^(n-k) A^r, is spanned by
the rows whose pivot lies at level n - k or later, and y^k M by the
y^k-shifts of the other rows, which are still in RREF.  The pure quotient
M / M^(n-i) is realized as its isomorphic image y^(n-i) M.

Both Hom computations are transporters ("colons") built by `_colon`: the
dual Hom(M, A) = (sA : M), and the isomorphism oracle's Hom(M, M') =
(uM' : M).  Every elimination, the oracle's rank test on each
candidate map included, goes through `linalg`.
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


def _close_rows(rows: np.ndarray, params: RingParams, rank: int) -> linalg.Subspace:
    """Smallest x,y-closed subspace containing the given rows, with no round loop.

    With S the span of the rows and E an echelon basis of the residues mod S
    of the x- and y-shifts of S's basis, the closure is S plus the monomial
    multiples x^a y^i e of E: x*s and y*s lie in S + span(E) for s in S, the
    multiples of E are closed, and E lies in the closure.  Levels i <= n - 2
    already suffice when n >= 2: applying the y-steps of x^a y^k (k < n)
    first, x^a y^k s is s_k in S plus multiples x^a y^(k-j) e_j, j >= 1, from
    the y-steps and x^(a-l) f_l from the x-steps, with e_j, f_l in span(E).

    One insert per level: level 0 is every x^a e (len(E) * N rows), and
    level i is y times the basis rows that level i - 1 added.  With V_i the
    space after level i, y * S lies in V_0 and, by induction, y * V_(i-1) in
    V_i (V_(i-1) is V_(i-2) plus the rows level i - 1 added), so
    x^a y^i e = y * x^a y^(i-1) e lies in V_i.  A level that adds nothing
    leaves a y-closed space holding every multiple of E, so the closure is
    reached.  Later levels thus shrink with the rows still missing, and a
    closure makes at most 1 + max(n - 1, 1) inserts.
    """
    width = rank * params.n * params.N
    sub = linalg.span(rows, params.p, width)
    basis = sub.rows()
    shifts = np.vstack([_shift(basis, params, rank, 1, 0), _shift(basis, params, rank, 0, 1)])
    extra = linalg.echelon(sub.reduce(shifts), params.p)
    if not len(extra):  # S is closed already
        return sub
    block = np.vstack([_shift(extra, params, rank, a, 0) for a in range(params.N)])
    for _ in range(max(params.n - 1, 1)):
        before = sub.pivots
        if not sub.insert(block):
            break
        added = sub.rows()[~np.isin(sub.pivots, before)]
        block = _shift(added, params, rank, 0, 1)
    return sub


def _lattice_rows(sub: linalg.Subspace, params: RingParams) -> np.ndarray:
    """The RREF rows at the first pivot of each (y-level, component) block
    of an x-closed space: at most n*r rows, read off with no elimination.
    x moves a leading column one step along its block, so a block's pivots
    run from some v_b to its end, and the x-multiples of these rows have dim
    distinct leading columns: they form a basis."""
    block = np.asarray(sub.pivots, dtype=np.int64) // params.N
    return sub.rows()[np.flatnonzero(np.diff(block, prepend=-1))]


def _pad_rows(rows: np.ndarray, params: RingParams, rank: int, big: RingParams) -> np.ndarray:
    arr = rows.reshape(-1, params.n, rank, params.N)
    out = np.zeros(arr.shape[:3] + (big.N,), dtype=np.int64)
    out[..., : params.N] = arr
    return out.reshape(arr.shape[0], params.n * rank * big.N)


# -- the module representation ------------------------------------------


class ModuleRep:
    """A submodule of A^r presented by the echelon basis of its span."""

    __slots__ = ("params", "ambient_rank", "num", "gens")

    def __init__(self, params, ambient_rank, num, gens=None):
        self.params = params
        self.ambient_rank = ambient_rank
        self.num = num
        self.gens = gens

    # -- basic invariants ------------------------------------------

    @property
    def width(self) -> int:
        return self.ambient_rank * self.params.n * self.params.N

    def length(self) -> int:
        return self.num.dim

    def is_zero(self) -> bool:
        return self.length() == 0

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
                and self.num == other.num)

    def __hash__(self):
        return hash((self.params, self.ambient_rank, self.num))


def span_from_generators(gens, params: RingParams | None = None, ambient_rank: int | None = None) -> ModuleRep:
    """Smallest x,y-closed subspace of A^r containing the generators."""
    norm = []
    for g in gens:
        vec = (g,) if isinstance(g, RingElem) else tuple(g)
        norm.append(vec)
    if norm:
        rank = ambient_rank or len(norm[0])
        par = params or norm[0][0].params
    else:
        if params is None:
            raise ParameterMismatch("params are required to build the zero module")
        rank = ambient_rank or 1
        par = params
    rows = np.array([flatten(v, par, rank) for v in norm], dtype=np.int64) if norm else np.zeros((0, rank * par.n * par.N), dtype=np.int64)
    num = _close_rows(rows, par, rank)
    return ModuleRep(par, rank, num, gens=tuple(tuple(v) for v in norm))


def zero_module(params: RingParams, ambient_rank: int = 1) -> ModuleRep:
    return span_from_generators([], params=params, ambient_rank=ambient_rank)


def full_ring(params: RingParams) -> ModuleRep:
    return span_from_generators([RingElem.one(params)])


def lift_module(M: ModuleRep, N_new: int) -> ModuleRep:
    """Reinstantiate M at a higher x-precision.

    The lift is the closure of `_generator_rows`(M) (the remembered
    generators, which are carried over, else the lattice rows), padded with
    zero top x-degrees that the x-action regains.  In rank 1 this is the
    closure of the whole padded basis: every block with a pivot gains
    exactly the new top degrees.  At M's own precision this is M itself.
    """
    if N_new == M.params.N:
        return M
    par, rank = M.params, M.ambient_rank
    big = par.with_precision(N_new)
    num = _close_rows(_pad_rows(_generator_rows(M), par, rank, big), big, rank)
    gens = None if M.gens is None else tuple(tuple(e.lift(big) for e in vec) for vec in M.gens)
    return ModuleRep(big, rank, num, gens)


# -- filtrations --------------------------------------------------------


def _filtration(M: ModuleRep, which: str) -> list[linalg.Subspace]:
    """The spans of a filtration for k = 0..n, sliced off M's RREF with no
    elimination: y^k M ('first') or ann_M(y^k) ('second').

    y^k kills exactly the part of M in y^(n-k) A^r, which the RREF rows with
    a pivot at level n - k or later span.  The other rows map to rows whose
    pivots move k levels on: still an RREF basis, now of y^k M.
    """
    par, rank = M.params, M.ambient_rank
    n, rows = par.n, M.num.rows()
    # cut[l]: the number of rows whose pivot lies below y-level l
    cut = np.searchsorted(M.num.pivots, np.arange(n + 1) * rank * par.N)
    if which == "first":
        blocks = [_shift(rows[: cut[n - k]], par, rank, 0, k) for k in range(n + 1)]
    elif which == "second":
        blocks = [rows[cut[n - k]:] for k in range(n + 1)]
    else:
        raise DomainError(f"unknown filtration {which!r}; use 'first' or 'second'")
    return [linalg.from_rref(b, par.p) for b in blocks]


def first_filtration(M: ModuleRep) -> list[ModuleRep]:
    """The chain M = M_0 >= yM >= ... >= y^(n-1)M >= M_n = 0."""
    return [ModuleRep(M.params, M.ambient_rank, sub) for sub in _filtration(M, "first")]


def second_filtration(M: ModuleRep) -> list[ModuleRep]:
    """The chain 0 = M^(0) <= M^(1) <= ... <= M^(n) = M, M^(i) = ann_M(y^i)."""
    return [ModuleRep(M.params, M.ambient_rank, sub) for sub in _filtration(M, "second")]


def quotient_length(M: ModuleRep, Msub: ModuleRep) -> int:
    """Length of M/Msub; Msub must be contained in M."""
    if M.params != Msub.params or M.ambient_rank != Msub.ambient_rank:
        raise ParameterMismatch("quotient operands live in different ambients")
    if not Msub.num.leq(M.num):
        raise ContainmentError("second module is not a submodule of the first")
    return M.num.dim - Msub.num.dim


def divide_by_x_power(M: ModuleRep, s: int) -> ModuleRep:
    """x^(-s) * M for a module all of whose elements x^s divides."""
    if s == 0:
        return M
    params, rank = M.params, M.ambient_rank
    # every element is an F_p-combination of x-multiples of the lattice rows
    rows = _lattice_rows(M.num, params).reshape(-1, params.n, rank, params.N)
    if rows[..., :s].any():
        raise DomainError(f"module is not divisible by x^{s}")
    out = np.zeros_like(rows)
    out[..., : params.N - s] = rows[..., s:]
    return ModuleRep(params, rank, _close_rows(out.reshape(-1, M.width), params, rank))


def pure_quotient(M: ModuleRep, i: int) -> ModuleRep:
    """M / M^(n-i), the unique torsion-free quotient living in depth i, as
    y^(n-i) M: multiplying by y^(n-i) has kernel ann_M(y^(n-i)) = M^(n-i)."""
    par, n = M.params, M.params.n
    if not 1 <= i <= n:
        raise DomainError(f"pure quotient depth must be in [1, {n}], got {i}")
    gens = None
    if M.gens is not None:
        y = RingElem.monomial(par, 1, 0, n - i)
        gens = tuple(tuple(y * e for e in vec) for vec in M.gens)
    return ModuleRep(par, M.ambient_rank, _filtration(M, "first")[n - i], gens)


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


def _piece_x_len(num: linalg.Subspace, den: linalg.Subspace, params, rank, k: int) -> int:
    """Length of x^k * (num/den)."""
    sub = den.copy()
    sub.insert(_shift(num.rows(), params, rank, k, 0))
    return sub.dim - den.dim


def _rank_torsion(num: linalg.Subspace, den: linalg.Subspace, params, rank) -> tuple[int, int]:
    # Image differencing at depth T = N//2: free generators keep contributing
    # exactly one dimension per x-power there, torsion is long dead.
    T = params.N // 2
    l0 = num.dim - den.dim
    lT = _piece_x_len(num, den, params, rank, T)
    lT1 = _piece_x_len(num, den, params, rank, T + 1)
    rk = lT - lT1
    tors = l0 - lT - rk * T
    if rk < 0 or tors < 0:
        raise PrecisionError("graded rank/torsion extraction unstable; raise N")
    return rk, tors


def _graded_single(M: ModuleRep, which: str) -> GradedReport:
    chain = _filtration(M, which)
    # the pieces are y^i M / y^(i+1) M, or M^(i+1) / M^(i) of the increasing chain
    pairs = zip(chain, chain[1:]) if which == "first" else zip(chain[1:], chain)
    return GradedReport(tuple(_rank_torsion(num, den, M.params, M.ambient_rank) for num, den in pairs))


def _certified(N: int, compute, key=None):
    """compute(N), once it agrees with compute(N + 2) (compared through key,
    if given); else PrecisionError."""
    first, again = compute(N), compute(N + 2)
    a, b = (first, again) if key is None else (key(first), key(again))
    if a != b:
        raise PrecisionError(f"result not stable under N -> N+2 at N={N}: {a} vs {b}")
    return first


def graded_report(M: ModuleRep, which: str = "first") -> GradedReport:
    """Ranks and torsion lengths of the graded pieces, certified at N and N+2."""
    return _certified(M.params.N, lambda N: _graded_single(lift_module(M, N), which))


def _support_depth(rep: GradedReport) -> int:
    """Depth m when the module is generalized invertible on C_m, else raise.

    A generalized line bundle stalk supported on the depth-m subcurve has
    first graded ranks (1, ..., 1, 0, ..., 0) with m ones and no torsion in
    the vanishing levels.
    """
    ranks, torsions = rep.ranks, rep.torsions
    m = 0
    while m < len(ranks) and ranks[m] == 1:
        m += 1
    if m == 0 or any(ranks[m:]) or any(torsions[m:]):
        raise NotInvertibleError(
            f"module is not generalized invertible: first graded ranks {ranks}")
    return m


def _indices_single(M: ModuleRep) -> tuple[int, ...]:
    rep = _graded_single(M, "first")
    m = _support_depth(rep)
    return tuple(rep.torsions[m - 1 - i] for i in range(1, m))


def indices(M: ModuleRep) -> tuple[int, ...]:
    """(beta_1, ..., beta_{n-1}): torsion of G_{n-1-i}(M), certified."""
    return _certified(M.params.N, lambda N: _indices_single(lift_module(M, N)))


def _indices_by_definition_single(M: ModuleRep) -> tuple[int, ...]:
    # With M-bar = M / M^(m-i-1), taken on preimages in M: (M-bar)^(1) is
    # M^(m-i), and y^i M-bar is y^i M + M^(m-i-1).
    m = _support_depth(_graded_single(M, "first"))
    images, kernels = _filtration(M, "first"), _filtration(M, "second")
    out = []
    for i in range(1, m):
        s2 = kernels[m - i - 1].copy()
        s2.insert(images[i].rows())
        beta = kernels[m - i].dim - s2.dim
        if beta < 0:
            raise PrecisionError("definitional index extraction unstable; raise N")
        out.append(beta)
    return tuple(out)


def indices_by_definition(M: ModuleRep) -> tuple[int, ...]:
    """beta_i = length( (M-bar_{i+1})^(1) / y^i * M-bar_{i+1} ), certified."""
    return _certified(M.params.N, lambda N: _indices_by_definition_single(lift_module(M, N)))


# -- generators and nonzerodivisors -------------------------------------


def _generator_rows(M: ModuleRep) -> np.ndarray:
    """Flat rows of M's remembered generators, else its lattice rows (at most
    n*r rows that generate num even as an F_p[[x]]-module)."""
    if M.gens is None:
        return _lattice_rows(M.num, M.params)
    return np.array([flatten(g, M.params, M.ambient_rank) for g in M.gens],
                    dtype=np.int64).reshape(-1, M.width)


def _min_valuation_element(M: ModuleRep) -> tuple[np.ndarray, int]:
    """Basis element whose y-degree-0 part has minimal x-valuation.

    In the RREF with level-0 coordinates first, that is the first row,
    provided its pivot sits inside level 0.
    """
    if M.ambient_rank != 1:
        raise DomainError("nonzerodivisor search requires ambient rank 1")
    pivs = M.num.pivots
    if not pivs or pivs[0] >= M.params.N:
        raise NotInvertibleError("module has no nonzerodivisor (zero y-degree-0 part)")
    return M.num.rows()[0], int(pivs[0])


# -- dual oracle ---------------------------------------------------------


def _require_rank1(M: ModuleRep, what: str) -> None:
    if M.ambient_rank != 1:
        raise DomainError(f"{what} is defined for submodules of A only")


def _require_full_invertible(M: ModuleRep) -> None:
    rep = _graded_single(M, "first")
    if _support_depth(rep) != M.params.n:
        raise NotInvertibleError("module is supported on a proper subcurve")


def _colon(target: linalg.Subspace, M: ModuleRep) -> np.ndarray:
    """Basis rows of the transporter {t in A : t*M <= target}.

    Row k of `_mul_rows(g, eye(L))` is g times the k-th grid monomial, so the
    transposed residues mod target map t to the residue of g*t; the colon is
    the common nullspace of these maps over M's generators g.
    """
    par = M.params
    grid = np.eye(par.n * par.N, dtype=np.int64)
    blocks = [target.reduce(_mul_rows(g, grid, par, 1)).T for g in _generator_rows(M)]
    return linalg.nullspace(np.vstack(blocks), par.p)


def _dual_rows_at(M: ModuleRep, N_target: int) -> linalg.Subspace:
    """Dual of M realized inside A at precision N_target.

    Hom(M, A) = (sA : M) via evaluation at a nonzerodivisor s of minimal
    valuation.  Computed at precision 2*N_target and truncated back: the
    transporter junk created by x-truncation lives in the top half and the
    truncation kills it.
    """
    work = M.params.with_precision(2 * N_target)
    M2 = lift_module(M, work.N)
    s_row, _ = _min_valuation_element(M2)
    sol = _colon(_close_rows(s_row.reshape(1, -1), work, 1), M2)
    # truncation is a ring map, so the image of the colon ideal is an ideal
    keep = np.concatenate([np.arange(i * work.N, i * work.N + N_target) for i in range(work.n)])
    return linalg.span(sol[:, keep], work.p, work.n * N_target)


def dual_module_oracle(M: ModuleRep) -> ModuleRep:
    """The module of A-linear maps M -> A, realized as a submodule of A.

    Certified: the realization is computed independently at N and N+2 and
    the two index vectors must agree.
    """
    _require_rank1(M, "dual_module_oracle")
    _require_full_invertible(M)
    return _certified(
        M.params.N,
        lambda N: ModuleRep(M.params.with_precision(N), 1, _dual_rows_at(M, N)),
        key=_indices_single)


# -- isomorphism oracle ---------------------------------------------------

YES = "yes"
NO = "no"
INCONCLUSIVE = "inconclusive"


def _iso_single(M: ModuleRep, Mp: ModuleRep, N_target: int, budget: int, samples: int, seed: int) -> str:
    par = M.params.with_precision(N_target)
    A = lift_module(M, N_target)
    B = lift_module(Mp, N_target)
    p, L = par.p, par.n * par.N

    u_row, _ = _min_valuation_element(A)
    W = linalg.span(_mul_rows(u_row, B.num.rows(), par, 1), p, L)
    Wm = linalg.span(np.vstack([_shift(W.rows(), par, 1, 1, 0),
                                _shift(W.rows(), par, 1, 0, 1)]), p, L)
    c = W.dim - Wm.dim
    v_pivots = list(linalg.span(Wm.reduce(W.rows()), p, L).pivots)

    # T = (uM' : M) is Hom(M, M') via t -> (m -> t*m / u).  T lies in M'
    # once N >= n*(v + v'), v and v' the y-degree-0 valuations of M and M'
    # (a normal form with indices <= B has v <= B, so N_min suffices).  In
    # the untruncated ring R = F_p[[x]][y]/(y^n) the lattice uM' has n pivots
    # of valuation <= v + v', so its colength is <= n*(v + v') and
    # x^N R <= uM'.  Then t*M <= uM' holds in R, so t*u = u*m' with m' in M',
    # and u (nonzero y-degree-0 part) is a nonzerodivisor of R: t = m'.
    # Below that precision the N/N+2 certification guards the verdict.
    T_rows = _colon(W, A)
    d = T_rows.shape[0]
    if d == 0:
        return NO

    # top[g][i]: g * t_i mod m*(u M'), in coordinates of W / m*(u M').  By
    # Nakayama (m is nilpotent) t maps M onto u M' exactly when the images of
    # the generators span W / m*(u M'), i.e. when lam @ top has rank c.  That
    # only depends on t mod T0 = {t : every image lies in m*(u M')}, so
    # exhausting T/T0 is exhaustive over Hom.
    imgs = np.stack([Wm.reduce(_mul_rows(g, T_rows, par, 1)) for g in _generator_rows(A)])
    top = imgs[:, :, v_pivots]
    T0_sub = linalg.span(linalg.nullspace(np.hstack(top).T, p), p, d)
    free = np.setdiff1d(np.arange(d), T0_sub.pivots)
    d_eff = free.size

    def surjects(lam_mat: np.ndarray, rows: np.ndarray) -> bool:
        # lam_mat: (K x len(rows)) coordinates of K candidates t on `rows` of T
        per = (lam_mat @ top[:, rows, :]) % p  # (g, K, c)
        for k in range(lam_mat.shape[0]):
            if linalg.rank(per[:, k, :], p) == c:
                t = (lam_mat[k] @ T_rows[rows]) % p
                if linalg.span(_mul_rows(t, A.num.rows(), par, 1), p, L) != W:
                    raise VerificationError("a map onto W / m*W does not map M onto u*M'")
                return True
        return False

    chunk = 4096
    if p**d_eff <= budget:
        # candidate k has the base-p digits of k as its coordinates on T/T0
        total = p**d_eff
        weights = p ** np.arange(d_eff, dtype=np.int64)
        for lo in range(0, total, chunk):
            k = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
            if surjects((k[:, None] // weights) % p, free):
                return YES
        return NO

    rng = np.random.default_rng(seed)
    remaining = samples
    while remaining > 0:
        K = min(chunk, remaining)
        remaining -= K
        if surjects(rng.integers(0, p, size=(K, d), dtype=np.int64), np.arange(d)):
            return YES
    return INCONCLUSIVE


def is_isomorphic_oracle(M: ModuleRep, Mp: ModuleRep, budget: int = 2**16,
                         samples: int = 10**4, seed: int = 0) -> str:
    """Decide existence of an A-linear surjection M -> M' (hence isomorphism).

    Exhaustive over Hom(M, M') modulo maps that are not onto mod the maximal
    ideal whenever that quotient has at most `budget` elements; randomized
    above (then a failed search is only 'inconclusive').  The verdict is
    computed at N and N+2 and must agree.
    """
    if M.params != Mp.params:
        raise ParameterMismatch("isomorphism oracle needs identical ring parameters")
    _require_rank1(M, "is_isomorphic_oracle")
    _require_rank1(Mp, "is_isomorphic_oracle")
    _require_full_invertible(M)
    _require_full_invertible(Mp)
    return _certified(M.params.N, lambda N: _iso_single(M, Mp, N, budget, samples, seed))


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
    DomainError instead of being reduced or cut, and so does a header key
    that is unknown or repeated, or a rank below 1."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("ring"):
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
