"""Local Ext^1 lengths of generalized invertible stalks via their explicit
periodic free resolutions, and global Ext^1 / tangent assembly.

A single-jump stalk I = (x^b + alpha*y, y^j) has the period-2 resolution

    ... -> A^2 --M2--> A^2 --M1--> A^2 --f--> I -> 0,
    f = (y^j, x^b + alpha*y),
    M1 = [[y^(n-j), -(x^b + alpha*y)], [0, y^j]],
    M2 = [[y^j,      x^b + alpha*y ], [0, y^(n-j)]].

For n = 3 and 0 < b1 < b2 the three-generator stalk
I = (x^b2 + alpha*y, x^(b2-b1)*y, y^2) resolves with

    f  = (y^2, x^(b2-b1)*y, x^b2 + alpha*y),
    M1 = [[y, -x^(b2-b1), -alpha], [0, y, -x^b1], [0, 0, y]],
    M2 = [[y^2, x^(b2-b1)*y, x^b2 + alpha*y], [0, y^2, x^b1*y], [0, 0, y^2]],

after reducing alpha modulo x^min(b1, b2-b1) (an isomorphism of stalks).
Both complexes are verified exactly on construction; Ext^1(I, I) is the
homology ker(.M2)/im(.M1) of the induced maps on Hom(A^r, I) = I^r, and the
computed length must match the closed form 2*min(j, n-j)*b, respectively
2*b2 + 2*min(b1, b2 - b1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import MissingInput, ShapeError, UnsupportedConfig, VerificationError
from .invariants import CurveParams
from .moduli import LocalConfig, PointIndices, _tangent_term, tangent_dimension
from .modules import (
    ModuleRep,
    _certified,
    _indices_single,
    _mul_rows,
    _require_rank1,
    flatten,
    lift_module,
)
from .normal_form import _presentation_lead, jump_position
from .ring import RingElem


@dataclass(frozen=True)
class ResolutionData:
    """Generator images f and the two alternating relation matrices."""

    f: tuple[RingElem, ...]
    M1: tuple[tuple[RingElem, ...], ...]
    M2: tuple[tuple[RingElem, ...], ...]

    @property
    def size(self) -> int:
        return len(self.f)

    def __post_init__(self):
        r = len(self.f)
        params = self.f[0].params
        zero = RingElem.zero(params)
        for col in range(r):
            acc = zero
            for row in range(r):
                acc = acc + self.M1[row][col] * self.f[row]
            if not acc.is_zero():
                raise ShapeError("resolution is not a complex: f o M1 != 0")
        for A, B in ((self.M1, self.M2), (self.M2, self.M1)):
            for i in range(r):
                for j in range(r):
                    acc = zero
                    for k in range(r):
                        acc = acc + A[i][k] * B[k][j]
                    if not acc.is_zero():
                        raise ShapeError("resolution is not a complex: M1*M2 != 0")


# -- shape extraction ------------------------------------------------------


def _n3_shape(I: ModuleRep, beta) -> tuple[RingElem, int, int]:
    """(alpha, b1, b2) for the three-generator multiplicity-3 shape."""
    b1, b2 = beta
    params = I.params
    fixed = [RingElem.monomial(params, 1, b2 - b1, 1), RingElem.monomial(params, 1, 0, 2)]
    lead = _presentation_lead(I, b2, fixed)
    # alpha is only relevant modulo x^(b2-b1) (presentation ambiguity) and
    # modulo x^b1 (an isomorphism of stalks); reduce before resolving.
    cut = min(b1, b2 - b1)
    alpha_row = lead.level(1)[:cut]
    grid = [[0] * params.N for _ in range(params.n)]
    grid[0][: len(alpha_row)] = list(alpha_row)
    return RingElem(params, grid), b1, b2


def build_resolution(I: ModuleRep, beta=None) -> ResolutionData:
    """Periodic free resolution of a single-jump stalk (any n) or any
    multiplicity-3 stalk; the complex identities are checked exactly."""
    _require_rank1(I, "local_ext1_length")
    params = I.params
    n = params.n
    if beta is None:
        beta = _indices_single(I)
    if len(beta) != n - 1:
        raise ShapeError("module is supported on a proper subcurve")
    if not any(beta):
        raise ShapeError("free module: nothing to resolve")
    zero = RingElem.zero(params)

    single_jump = all(v in (0, beta[-1]) for v in beta)
    if single_jump:
        j, b = jump_position(beta)
        yj = RingElem.monomial(params, 1, 0, j)
        lead = _presentation_lead(I, b, [yj])  # I = (x^b + alpha*y, y^j)
        ynj = RingElem.monomial(params, 1, 0, n - j)
        M1 = ((ynj, -lead), (zero, yj))
        M2 = ((yj, lead), (zero, ynj))
        return ResolutionData((yj, lead), M1, M2)

    if n != 3:
        raise ShapeError("general multi-jump resolutions are only available for n = 3")
    alpha, b1, b2 = _n3_shape(I, beta)
    x_b1 = RingElem.monomial(params, 1, b1, 0)
    x_d = RingElem.monomial(params, 1, b2 - b1, 0)
    y = RingElem.monomial(params, 1, 0, 1)
    y2 = RingElem.monomial(params, 1, 0, 2)
    lead = RingElem.monomial(params, 1, b2, 0) + alpha * y
    f = (y2, x_d * y, lead)
    M1 = ((y, -x_d, -alpha), (zero, y, -x_b1), (zero, zero, y))
    M2 = ((y2, x_d * y, lead), (zero, y2, x_b1 * y), (zero, zero, y2))
    return ResolutionData(f, M1, M2)


# -- homology ---------------------------------------------------------------


def _hom_action_matrix(res_mat, I: ModuleRep) -> np.ndarray:
    """Matrix of phi -> phi o M on Hom(A^r, I) = I^r in I-basis coordinates."""
    basis = I.num.rows()
    pivots = list(I.num.pivots)

    def block(e: RingElem) -> np.ndarray:
        # column t: coordinates of e * (basis row t); valid as the basis is in RREF
        return _mul_rows(flatten(e, I.params, 1), basis, I.params, 1)[:, pivots].T

    # block (j, k): component j of phi o M picks (M)_{k j} * v_k
    r = len(res_mat)
    return np.block([[block(res_mat[k][j]) for k in range(r)] for j in range(r)])


def _ext1_once(I: ModuleRep) -> int:
    beta = _indices_single(I)
    if not any(beta):
        return 0
    res = build_resolution(I, beta)
    a1 = _hom_action_matrix(res.M1, I)
    a2 = _hom_action_matrix(res.M2, I)
    p = I.params.p
    d_total = a1.shape[0]
    rank_a1 = linalg.rank(a1, p)
    rank_a2 = linalg.rank(a2, p)
    return (d_total - rank_a2) - rank_a1


def local_ext1_length(I: ModuleRep, enforce_closed_form: bool = True) -> int:
    """Length of Ext^1(I, I) by exact linear algebra on the resolution.

    Certified at N and N+2; checked against the closed form
    (2*min(j, n-j)*b for single-jump shapes, 2*b2 + 2*min(b1, b2-b1) for
    multiplicity 3) unless enforce_closed_form is False.
    """
    val = _certified(I.params.N, lambda N: _ext1_once(lift_module(I, N)))
    if enforce_closed_form:
        expected = closed_form_ext1(I.params.n, _indices_single(I))
        if expected is not None and expected != val:
            raise VerificationError(
                f"resolution Ext^1 length {val} differs from closed form {expected}")
    return val


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
