"""Local Ext^1 lengths of generalized invertible stalks, and the global
Ext^1 / tangent assembly.

A stalk I of A supported on the whole curve has the 2-periodic resolution
... -> A^r --M2--> A^r --M1--> A^r --f--> I -> 0 of its matrix
factorization (f, M1, M2) of y^n (`modules.build_resolution`).  Ext^1(I, I)
is the homology ker(.M2)/im(.M1) on Hom(A^r, I) = I^r, free of rank r*n
over F_p[[x]].  It has finite length and ker(.M2) is saturated, so
ker(.M2) = sat(im .M1) and Ext^1 is the torsion of coker(.M1): its length
is the sum of the Smith valuations of the matrix Phi of .M1 in I's
lattice coordinates (`modules._hom_matrix`, `linalg.poly_eliminate`;
Storjohann & Mulders 1998, "Fast algorithms for linear algebra modulo N").
The kernel End(I) has rank n, so exactly n kernel rows certify that each
valuation is below Phi's precision K.  Certified at W = max(N, 2*n*v_0) and
W + 2, and checked against the closed form 2*min(j, n-j)*b, respectively
2*b2 + 2*min(b1, b2 - b1), wherever one applies.
"""

from __future__ import annotations

from .errors import MissingInput, UnsupportedConfig, VerificationError
from .invariants import CurveParams
from .moduli import LocalConfig, PointIndices, _tangent_term, tangent_dimension
from .modules import (
    ModuleRep,
    _certified,
    _hom_kernel,
    _hom_matrix,
    _indices_single,
    _require_full_invertible,
    _working_precision,
    lift_module,
)


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
