"""Local Ext^1 lengths of generalized invertible stalks via the periodic free
resolution read off their lattice rows, and global Ext^1 / tangent assembly.

A stalk I of A supported on the whole curve is an F_p[[x]]-lattice with
basis rows h_0, ..., h_(n-1), where h_l is x^(v_l) y^l plus higher y-levels
and v never grows (`modules._valuations`).  The generators f_0, ..., f_(r-1)
are the rows h_(g_i) at level g_0 = 0 and at each level g_i where v drops;
d_i = g_(i+1) - g_i is the gap to the next one (g_r = n).  Each y^(d_i) f_i
lies in I and vanishes below level g_(i+1), so it is cleared level by level
by x-polynomial multiples of y^(l - g_k) f_k, g_k <= l < g_(k+1), which lead
with x^(v_l) y^l: each division is exact, as an element of I that vanishes
below level l has a level-l entry of x-valuation >= v_l.  This gives
y^(d_i) f_i = sum_(k > i) a[k, i] f_k, and with

    M1 = diag(y^(d_i)) - a,    M2 = adj(M1) = y^n M1^(-1),

    ... -> A^r --M2--> A^r --M1--> A^r --f--> I -> 0

is the resolution.  Why it is exact: over S = F_p[[x]][y], M1 is lower
triangular with diagonal y^(d_i), so coker(M1) is spanned over F_p[[x]] by
the n elements y^t e_i, t < d_i.  Their images y^t f_i lead with
x^(v_l) y^l at l = g_i + t, like h_l, so they are an F_p[[x]]-basis of I,
which is free of rank n: coker(M1) maps onto I by an isomorphism, and M1
presents I.  det M1 = y^n, so (M1, adj M1) is a matrix factorization of y^n
and gives a 2-periodic resolution over R = S/(y^n) (Eisenbud 1980,
"Homological algebra on a complete intersection").  The identities
f.M1 = M1.M2 = M2.M1 = 0 are checked exactly on construction.

For a free stalk this is r = 1, M1 = (y^n) = 0 and M2 = (1); for a
single-jump stalk (x^b + alpha*y, y^j) it is r = 2, and for an n = 3
two-jump stalk r = 3.

Ext^1(I, I) is the homology ker(.M2)/im(.M1) on Hom(A^r, I) = I^r, free
of rank r*n over F_p[[x]].  It has finite length and ker(.M2) is saturated,
so ker(.M2) = sat(im .M1) and Ext^1 is the torsion of coker(.M1): its
length is the sum of the Smith valuations of the matrix Phi of .M1 in I's
lattice coordinates (`modules._hom_matrix`, `linalg.poly_eliminate`;
Storjohann & Mulders 1998, "Fast algorithms for linear algebra modulo N").
The kernel End(I) has rank n, so exactly n kernel rows certify that each
valuation is below Phi's precision K.  Certified at W = max(N, 2*n*v_0) and
W + 2, and checked against the closed form 2*min(j, n-j)*b, respectively
2*b2 + 2*min(b1, b2 - b1), wherever one applies.
"""

from __future__ import annotations

import numpy as np

from .errors import MissingInput, UnsupportedConfig, VerificationError
from .invariants import CurveParams
from .moduli import LocalConfig, PointIndices, _tangent_term, tangent_dimension
from .modules import (
    ModuleRep,
    _certified,
    _generator_levels,
    _hom_kernel,
    _hom_matrix,
    _indices_single,
    _mul_rows,
    _require_full_invertible,
    _shift,
    _valuations,
    _working_precision,
    lift_module,
)
from .ring import RingParams


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
    checked exactly."""
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

    M1 = np.zeros((r, r, n * N), dtype=np.int64)
    for i in range(r):
        M1[i, i] = _shift(one, par, 1, 0, ends[i] - gens[i])
        e = _shift(f[i], par, 1, 0, ends[i] - gens[i])
        for k in range(i + 1, r):
            for l in range(gens[k], ends[k]):
                level = e[l * N:(l + 1) * N]
                if level[:v[l]].any():
                    raise VerificationError(f"y^{ends[i] - gens[i]} f_{i} is not divisible by x^{v[l]} at y-level {l}")
                c = np.zeros(n * N, dtype=np.int64)
                c[(l - gens[k]) * N:][:N - v[l]] = level[v[l]:]
                e = (e - _mul_rows(c, f[k], par, 1)) % p
                M1[k, i] -= c
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
    return f, M1, M2


# -- Ext^1 ------------------------------------------------------------------


def _ext1_once(I: ModuleRep) -> int:
    if not any(_indices_single(I)):
        return 0
    phi, _, _, K = _hom_matrix(I, I)
    return sum(_hom_kernel(phi, K, I.params)[1])


def local_ext1(I: ModuleRep) -> tuple[int, tuple[int, ...]]:
    """The length of Ext^1(I, I), the sum of the Smith valuations of .M1 on
    I^r, and the indices of I, both at the working precision
    W = max(N, 2*n*v_0): below N_min the indices at N belong to the
    truncated module.  For any stalk supported on the whole curve (else
    NotInvertibleError); both are certified at W and W + 2, and the length
    is checked against the closed form of the indices."""
    _require_full_invertible(I, "local_ext1_length")
    W = _working_precision(I, I)
    val = _certified(W, lambda N: _ext1_once(lift_module(I, N)))
    beta = _certified(W, lambda N: _indices_single(lift_module(I, N)))
    expected = closed_form_ext1(I.params.n, beta)
    if expected is not None and expected != val:
        raise VerificationError(f"resolution Ext^1 length {val} differs from closed form {expected}")
    return val, beta


def local_ext1_length(I: ModuleRep) -> int:
    """Length of Ext^1(I, I) (`local_ext1`)."""
    return local_ext1(I)[0]


def closed_form_ext1(n: int, beta) -> int | None:
    """The applicable closed form, or None when no closed form is known."""
    if not any(beta):
        return 0
    pt = PointIndices(tuple(beta))
    if n != 3 and not pt.special:
        return None
    return 2 * _tangent_term(n, pt)


# -- global assembly ---------------------------------------------------------


def global_ext1_dimension(cp: CurveParams, config: LocalConfig, stable: bool,
                          h0_blowup: int | None = None) -> int:
    """dim Ext^1(F, F) = g_n + (local tilde-b sum) + h^0(blow-up) - 1, i.e. the
    tangent dimension plus h^0(blow-up) - 1.

    For stable F the blow-up has only constant sections, so h^0 = 1;
    otherwise the caller must supply it.
    """
    if config.n != cp.n:
        raise UnsupportedConfig("configuration multiplicity differs from the curve's")
    if stable:
        h0 = 1
    elif h0_blowup is None:
        raise MissingInput("h^0 of the blow-up is required for a non-stable sheaf")
    else:
        h0 = h0_blowup
    return tangent_dimension(cp, config) + h0 - 1
