"""Finitely generated A-modules as explicit F_p-subspaces of A^r.

A module (or subquotient) is stored as a pair of echelonized subspaces
num >= den of the ambient flat space F_p^(r*n*N), each closed under the
x- and y-shift actions.  Every quantity computed here is a length, i.e. a
difference of subspace dimensions.

Length-valued outputs (graded ranks/torsions, indices, dual indices) are
certified by recomputing at precision N+2 and demanding agreement; the
x-truncation is an artifact and this is the stabilization check for it.

Coordinate layout: component c, y-level i, x-degree a  ->  (c*n + i)*N + a.
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
)
from .ring import RingElem, RingParams


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
    out = np.zeros(rank * params.n * params.N, dtype=np.int64)
    for c, elem in enumerate(vec):
        if elem.params != params:
            raise ParameterMismatch("generator component has mismatched ring parameters")
        block = np.array(elem.coeffs, dtype=np.int64).ravel()
        out[c * params.n * params.N : (c + 1) * params.n * params.N] = block
    return out


def unflatten(row: np.ndarray, params: RingParams, rank: int) -> tuple[RingElem, ...]:
    n, N = params.n, params.N
    out = []
    for c in range(rank):
        block = row[c * n * N : (c + 1) * n * N].reshape(n, N)
        out.append(RingElem(params, [list(r) for r in block]))
    return tuple(out)


def _x_shift(rows: np.ndarray, params: RingParams, rank: int, k: int = 1) -> np.ndarray:
    arr = rows.reshape(-1, rank, params.n, params.N)
    out = np.zeros_like(arr)
    if k < params.N:
        out[..., k:] = arr[..., : params.N - k]
    return out.reshape(rows.shape)


def _y_shift(rows: np.ndarray, params: RingParams, rank: int, k: int = 1) -> np.ndarray:
    arr = rows.reshape(-1, rank, params.n, params.N)
    out = np.zeros_like(arr)
    if k < params.n:
        out[:, :, k:, :] = arr[:, :, : params.n - k, :]
    return out.reshape(rows.shape)


def _close_rows(rows: np.ndarray, params: RingParams, rank: int) -> linalg.Subspace:
    """Smallest x,y-closed subspace containing the given rows.

    Each round inserts the x- and y-shifts of the rows the previous round
    added (the shifts of older rows are already in); a round that adds
    nothing ends the closure.
    """
    sub = linalg.Subspace(params.p, rank * params.n * params.N)
    block = rows
    while True:
        before = sub.pivots
        if not sub.insert(block):
            return sub
        added = sub.rows()[~np.isin(sub.pivots, before)]
        block = np.vstack([_x_shift(added, params, rank), _y_shift(added, params, rank)])


def _pad_rows(rows: np.ndarray, params: RingParams, rank: int, big: RingParams) -> np.ndarray:
    arr = rows.reshape(-1, rank, params.n, params.N)
    out = np.zeros((arr.shape[0], rank, params.n, big.N), dtype=np.int64)
    out[..., : params.N] = arr
    return out.reshape(arr.shape[0], -1)


# -- the module representation ------------------------------------------


class ModuleRep:
    """A submodule or subquotient of A^r presented by echelon bases."""

    __slots__ = ("params", "ambient_rank", "num", "den", "gens")

    def __init__(self, params, ambient_rank, num, den=None, gens=None):
        self.params = params
        self.ambient_rank = ambient_rank
        self.num = num
        self.den = den if den is not None else linalg.Subspace(params.p, num.width)
        self.gens = gens
        if not self.den.leq(self.num):
            raise ContainmentError("denominator is not contained in the numerator")

    # -- basic invariants ------------------------------------------

    @property
    def width(self) -> int:
        return self.ambient_rank * self.params.n * self.params.N

    def length(self) -> int:
        return self.num.dim - self.den.dim

    def is_zero(self) -> bool:
        return self.length() == 0

    def basis_vectors(self) -> list[tuple[RingElem, ...]]:
        return [unflatten(r, self.params, self.ambient_rank) for r in self.num.rows()]

    def contains(self, vec) -> bool:
        return self.num.contains(flatten(vec, self.params, self.ambient_rank))

    def same_space(self, other: "ModuleRep") -> bool:
        return self.num == other.num and self.den == other.den

    def validate(self) -> None:
        """Check x,y-closure of both subspaces (used by tests and parsers)."""
        for sub in (self.num, self.den):
            rows = sub.rows()
            shifted = np.vstack([_x_shift(rows, self.params, self.ambient_rank),
                                 _y_shift(rows, self.params, self.ambient_rank)])
            if sub.reduce(shifted).any():
                raise ContainmentError("subspace is not closed under the ring action")

    def __repr__(self):
        kind = "subquotient" if self.den.dim else "module"
        return (f"<{kind} of A^{self.ambient_rank} over {self.params}, "
                f"length {self.length()}>")

    def __eq__(self, other):
        if not isinstance(other, ModuleRep):
            return NotImplemented
        return (self.params == other.params and self.ambient_rank == other.ambient_rank
                and self.same_space(other))

    def __hash__(self):
        return hash((self.params, self.ambient_rank, self.num, self.den))


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

    Prefers the remembered generators; otherwise pads the echelon basis and
    re-closes (top x-degrees regained by the x-action).
    """
    big = M.params.with_precision(N_new)
    if M.gens is not None:
        lifted = [tuple(e.lift(big) for e in vec) for vec in M.gens]
        out = span_from_generators(lifted, params=big, ambient_rank=M.ambient_rank)
        if M.den.dim:
            den = _close_rows(_pad_rows(M.den.rows(), M.params, M.ambient_rank, big), big, M.ambient_rank)
            out = ModuleRep(big, M.ambient_rank, out.num, den, gens=out.gens)
        return out
    num = _close_rows(_pad_rows(M.num.rows(), M.params, M.ambient_rank, big), big, M.ambient_rank)
    den = None
    if M.den.dim:
        den = _close_rows(_pad_rows(M.den.rows(), M.params, M.ambient_rank, big), big, M.ambient_rank)
    return ModuleRep(big, M.ambient_rank, num, den)


# -- filtrations --------------------------------------------------------


def _y_image_sub(M: ModuleRep, k: int) -> linalg.Subspace:
    """Subspace (y^k * num) + den."""
    sub = M.den.copy()
    sub.insert(_y_shift(M.num.rows(), M.params, M.ambient_rank, k))
    return sub


def _y_kernel_sub(M: ModuleRep, k: int) -> linalg.Subspace:
    """Subspace {m in num : y^k m in den}  (contains den)."""
    if k <= 0:
        return M.den.copy()
    if k >= M.params.n:
        return M.num.copy()
    rows = M.num.rows()
    reduced = M.den.reduce(_y_shift(rows, M.params, M.ambient_rank, k))
    combos = linalg.nullspace(reduced.T, M.params.p)
    sub = M.den.copy()
    sub.insert(combos @ rows)
    return sub


def first_filtration(M: ModuleRep) -> list[ModuleRep]:
    """The chain M = M_0 >= yM >= ... >= y^(n-1)M >= M_n = 0."""
    out = []
    for k in range(M.params.n + 1):
        sub = _y_image_sub(M, k) if k else M.num.copy()
        out.append(ModuleRep(M.params, M.ambient_rank, sub, M.den.copy()))
    return out


def second_filtration(M: ModuleRep) -> list[ModuleRep]:
    """The chain 0 = M^(0) <= M^(1) <= ... <= M^(n) = M, M^(i) = ann_M(y^i)."""
    out = []
    for k in range(M.params.n + 1):
        sub = _y_kernel_sub(M, k)
        out.append(ModuleRep(M.params, M.ambient_rank, sub, M.den.copy()))
    return out


def quotient_length(M: ModuleRep, Msub: ModuleRep) -> int:
    """Length of M/Msub; Msub must be contained in M (same denominator)."""
    if M.params != Msub.params or M.ambient_rank != Msub.ambient_rank:
        raise ParameterMismatch("quotient operands live in different ambients")
    if not (Msub.den == M.den and Msub.num.leq(M.num)):
        raise ContainmentError("second module is not a submodule of the first")
    return M.num.dim - Msub.num.dim


def divide_by_x_power(M: ModuleRep, s: int) -> ModuleRep:
    """x^(-s) * M for a plain module all of whose elements x^s divides."""
    if s == 0:
        return M
    if M.den.dim:
        raise DomainError("x-power division is defined for plain modules only")
    params, rank = M.params, M.ambient_rank
    rows = M.num.rows().reshape(-1, rank, params.n, params.N)
    if rows[..., :s].any():
        raise DomainError(f"module is not divisible by x^{s}")
    out = np.zeros_like(rows)
    out[..., : params.N - s] = rows[..., s:]
    return ModuleRep(params, rank, _close_rows(out.reshape(-1, M.width), params, rank))


def pure_quotient(M: ModuleRep, i: int) -> ModuleRep:
    """M / M^(n-i): the unique torsion-free quotient living in depth i."""
    n = M.params.n
    if not 1 <= i <= n:
        raise DomainError(f"pure quotient depth must be in [1, {n}], got {i}")
    den = _y_kernel_sub(M, n - i)
    return ModuleRep(M.params, M.ambient_rank, M.num.copy(), den)


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
    if k == 0:
        return num.dim - den.dim
    sub = den.copy()
    sub.insert(_x_shift(num.rows(), params, rank, k))
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
    n = M.params.n
    if which == "first":
        chain = [_y_image_sub(M, k) if k else M.num.copy() for k in range(n + 1)]
        pairs = [(chain[i], chain[i + 1]) for i in range(n)]
    elif which == "second":
        chain = [_y_kernel_sub(M, k) for k in range(n + 1)]
        pairs = [(chain[i + 1], chain[i]) for i in range(n)]
    else:
        raise DomainError(f"unknown filtration {which!r}; use 'first' or 'second'")
    return GradedReport(tuple(_rank_torsion(num, den, M.params, M.ambient_rank) for num, den in pairs))


def _certified(M: ModuleRep, compute):
    """Run `compute` at N and N+2; equal results or PrecisionError."""
    first = compute(M)
    again = compute(lift_module(M, M.params.N + 2))
    if first != again:
        raise PrecisionError(
            f"result not stable under N -> N+2 at N={M.params.N}: {first} vs {again}")
    return first


def graded_report(M: ModuleRep, which: str = "first") -> GradedReport:
    """Ranks and torsion lengths of the graded pieces, certified at N and N+2."""
    return _certified(M, lambda mod: _graded_single(mod, which))


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
    return _certified(M, _indices_single)


def _indices_by_definition_single(M: ModuleRep) -> tuple[int, ...]:
    m = _support_depth(_graded_single(M, "first"))
    out = []
    for i in range(1, m):
        ker = _y_kernel_sub(M, m - i - 1)  # M^(m-i-1), the denominator of the pure quotient
        Q = ModuleRep(M.params, M.ambient_rank, M.num.copy(), ker)
        s1 = _y_kernel_sub(Q, 1)
        s2 = _y_image_sub(Q, i)
        beta = s1.dim - s2.dim
        if beta < 0:
            raise PrecisionError("definitional index extraction unstable; raise N")
        out.append(beta)
    return tuple(out)


def indices_by_definition(M: ModuleRep) -> tuple[int, ...]:
    """beta_i = length( (M-bar_{i+1})^(1) / y^i * M-bar_{i+1} ), certified."""
    return _certified(M, _indices_by_definition_single)


# -- multiplication operators -------------------------------------------


def _mult_matrix(row: np.ndarray, params: RingParams) -> np.ndarray:
    """Matrix of a |-> a*g on A (ambient rank 1), columns indexed like the grid."""
    n, N = params.n, params.N
    L = n * N
    cols = np.zeros((L, L), dtype=np.int64)
    base = row.reshape(1, L)
    for i in range(n):
        gi = _y_shift(base, params, 1, i) if i else base
        acc = gi
        for a in range(N):
            cols[:, i * N + a] = acc[0]
            if a + 1 < N:
                acc = _x_shift(acc, params, 1)
    return cols


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


def _require_plain_rank1(M: ModuleRep, what: str) -> None:
    if M.ambient_rank != 1 or M.den.dim:
        raise DomainError(f"{what} is defined for plain submodules of A only")


def _require_full_invertible(M: ModuleRep) -> None:
    rep = _graded_single(M, "first")
    if _support_depth(rep) != M.params.n:
        raise NotInvertibleError("module is supported on a proper subcurve")


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
    sA = _close_rows(s_row.reshape(1, -1), work, 1)
    gen_rows = (np.array([flatten(g, work, 1) for g in M2.gens], dtype=np.int64)
                if M2.gens is not None else M2.num.rows())
    # columns of g*a mod sA, for a running over the grid basis of A
    blocks = [sA.reduce(_mult_matrix(g, work).T).T for g in gen_rows]
    sol = linalg.nullspace(np.vstack(blocks), work.p)
    # truncate coefficients back to x-degree < N_target
    small = M.params.with_precision(N_target)
    keep = np.concatenate([np.arange(i * work.N, i * work.N + N_target) for i in range(work.n)])
    return _close_rows(sol[:, keep], small, 1)


def dual_module_oracle(M: ModuleRep) -> ModuleRep:
    """The module of A-linear maps M -> A, realized as a submodule of A.

    Certified: the realization is computed independently at N and N+2 and
    the two index vectors must agree.
    """
    _require_plain_rank1(M, "dual_module_oracle")
    _require_full_invertible(M)
    N = M.params.N
    dual_N = _dual_rows_at(M, N)
    dual_N2 = _dual_rows_at(M, N + 2)
    rep_N = ModuleRep(M.params, 1, dual_N)
    rep_N2 = ModuleRep(M.params.with_precision(N + 2), 1, dual_N2)
    if _indices_single(rep_N) != _indices_single(rep_N2):
        raise PrecisionError("dual realization not stable under N -> N+2; raise N")
    return rep_N


# -- isomorphism oracle ---------------------------------------------------

YES = "yes"
NO = "no"
INCONCLUSIVE = "inconclusive"


def _batched_rank_is(A: np.ndarray, c: int, p: int) -> np.ndarray:
    """For a stack A of (g x c) matrices, the mask {rank == c}."""
    A = A.copy() % p
    K, g, _ = A.shape
    ok = np.ones(K, dtype=bool)
    inv_table = np.array([0] + [pow(v, p - 2, p) for v in range(1, p)], dtype=np.int64)
    for col in range(c):
        block = A[:, col:, col]
        has = block != 0
        any_piv = has.any(axis=1)
        ok &= any_piv
        piv = np.argmax(has, axis=1) + col
        piv[~any_piv] = col
        idx = np.arange(K)
        swap = A[idx, piv, :].copy()
        A[idx, piv, :] = A[:, col, :]
        A[:, col, :] = swap
        pivval = A[:, col, col]
        factor = inv_table[pivval]
        if col + 1 < g:
            below = A[:, col + 1 :, col]
            coef = (below * factor[:, None]) % p
            A[:, col + 1 :, :] = (A[:, col + 1 :, :] - coef[:, :, None] * A[:, col : col + 1, :]) % p
    return ok


def _iso_single(M: ModuleRep, Mp: ModuleRep, N_target: int, budget: int, samples: int, seed: int) -> str:
    par = M.params.with_precision(N_target)
    A = lift_module(M, N_target)
    B = lift_module(Mp, N_target)
    p, L = par.p, par.n * par.N

    u_row, _ = _min_valuation_element(A)
    MU = _mult_matrix(u_row, par)
    W_rows = (MU @ B.num.rows().T).T % p
    W = linalg.span(W_rows, p, L)
    Wm_rows = np.vstack([_x_shift(W.rows(), par, 1), _y_shift(W.rows(), par, 1)])
    Wm = linalg.span(Wm_rows, p, L)
    c = W.dim - Wm.dim

    v_pivots = list(linalg.span(Wm.reduce(W.rows()), p, L).pivots)

    gen_rows = (np.array([flatten(g, par, 1) for g in A.gens], dtype=np.int64)
                if A.gens is not None else A.num.rows())
    mult_mats = [_mult_matrix(g, par) for g in gen_rows]

    # T = {t in span(M') : t * M  <=  u * M'}
    cond = np.vstack([W.reduce(mg.T).T for mg in mult_mats]
                     + [B.num.reduce(np.eye(L, dtype=np.int64)).T])
    T_rows = linalg.nullspace(cond, p)
    d = T_rows.shape[0]
    if d == 0:
        return NO

    # T0 = {t in T : images already lie in m * (u M')}; the surjectivity test
    # only depends on t mod T0, so exhausting T/T0 is exhaustive over Hom.
    mod_m = [Wm.reduce(mg.T).T for mg in mult_mats]  # t -> t*g mod m*(u M')
    t0_cond = np.vstack([r @ T_rows.T for r in mod_m]) % p
    T0_sub = linalg.span(linalg.nullspace(t0_cond, p), p, d)
    free = [j for j in range(d) if j not in set(T0_sub.pivots)]
    d_eff = len(free)
    top = [r[v_pivots] for r in mod_m]  # the same, in coordinates of W / m*(u M')

    def check_candidates(cand_cols: np.ndarray) -> int | None:
        # cand_cols: (L x K) candidate t's
        K = cand_cols.shape[1]
        if c == 0:
            mask = np.ones(K, dtype=bool)
        else:
            per = np.stack([(r @ cand_cols) % p for r in top]).transpose(2, 0, 1)  # (K, g, c)
            mask = _batched_rank_is(per, c, p)
        for k in np.flatnonzero(mask):
            t = cand_cols[:, k]
            Mt = _mult_matrix(t, par)
            image = linalg.span((Mt @ A.num.rows().T).T % p, p, L)
            if image == W:
                return int(k)
        return None

    chunk = 4096
    if p**d_eff <= budget:
        total = p**d_eff
        lam = np.zeros(d_eff, dtype=np.int64)
        done = 0
        while done < total:
            block = []
            for _ in range(min(chunk, total - done)):
                block.append(lam.copy())
                for j in range(d_eff):  # odometer over F_p^d_eff
                    lam[j] += 1
                    if lam[j] < p:
                        break
                    lam[j] = 0
            done += len(block)
            lam_mat = np.array(block, dtype=np.int64)
            cand = (T_rows[free].T @ lam_mat.T) % p if d_eff else np.zeros((L, len(block)), dtype=np.int64)
            if check_candidates(cand) is not None:
                return YES
        return NO

    rng = np.random.default_rng(seed)
    remaining = samples
    while remaining > 0:
        K = min(chunk, remaining)
        remaining -= K
        lam_mat = rng.integers(0, p, size=(K, d), dtype=np.int64)
        cand = (T_rows.T @ lam_mat.T) % p
        if check_candidates(cand) is not None:
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
    _require_plain_rank1(M, "is_isomorphic_oracle")
    _require_plain_rank1(Mp, "is_isomorphic_oracle")
    _require_full_invertible(M)
    _require_full_invertible(Mp)
    N = M.params.N
    v1 = _iso_single(M, Mp, N, budget, samples, seed)
    v2 = _iso_single(M, Mp, N + 2, budget, samples, seed)
    if v1 != v2:
        raise PrecisionError(f"isomorphism verdict unstable under N -> N+2: {v1} vs {v2}")
    return v1


# -- module-spec files ----------------------------------------------------


def parse_module_text(text: str) -> ModuleRep:
    """Module-spec format: header `ring n=<n> N=<N> p=<p> rank=<r>`, then one
    generator per line in the ring text syntax (components comma-separated
    when rank > 1).  Blank lines and '#' comments are skipped."""
    from .ring import parse_elem

    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("ring"):
        raise DomainError("module spec must start with a 'ring n=.. N=.. p=.. rank=..' header")
    header = dict()
    for tok in lines[0].split()[1:]:
        if "=" not in tok:
            raise DomainError(f"bad header token {tok!r}")
        key, val = tok.split("=", 1)
        header[key] = int(val)
    try:
        params = RingParams(header["n"], header["N"], header["p"])
        rank = header.get("rank", 1)
    except KeyError as exc:
        raise DomainError(f"module spec header is missing {exc}") from exc
    gens = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != rank:
            raise DomainError(f"generator {ln!r} has {len(parts)} components, expected {rank}")
        gens.append(tuple(parse_elem(part, params) for part in parts))
    return span_from_generators(gens, params=params, ambient_rank=rank)


def format_module(params: RingParams, rank: int, gens) -> str:
    from .ring import format_elem

    out = [f"ring n={params.n} N={params.N} p={params.p} rank={rank}"]
    for vec in gens:
        vec = _as_vector(vec, rank)
        out.append(", ".join(format_elem(e) for e in vec))
    return "\n".join(out) + "\n"
