"""Semistability of a generalized line bundle from its indices, and the
canonical Jordan-Holder filtration of a strictly semistable one.

The test is the exact integer inequality system

    L_i = i * sum_{j>=i} beta_j - (n-i) * sum_{j<i} beta_j
        <=  R_i = i*n*(n-i)/2 * delta      for 1 <= i <= n-1,

semistable iff all hold, stable iff all are strict.  The degree D never
enters the test; it only prices the Jordan-Holder factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, VerificationError
from .invariants import (
    CurveParams,
    deg_second_filtration,
    dual_indices,
    sub_indices,
    validate_indices,
)


@dataclass(frozen=True)
class StabilityVerdict:
    semistable: bool
    stable: bool
    equality_positions: tuple[int, ...]


@dataclass(frozen=True)
class JHFactor:
    multiplicity: int          # depth of the supporting subcurve
    degree: Fraction           # generalized degree
    beta: tuple[int, ...]      # index vector of the factor

    @property
    def slope(self) -> Fraction:
        return self.degree / self.multiplicity


@dataclass(frozen=True)
class JHFiltration:
    positions: tuple[int, ...]         # i_1 < ... < i_k, the equality positions
    steps: tuple[str, ...]             # descriptions of the filtration terms
    graded: tuple[JHFactor, ...]


def stability_bounds(n: int, delta: int) -> tuple[int, ...]:
    # i*n*(n-i) is always even: if n is odd exactly one of i, n-i is even.
    return tuple(i * n * (n - i) * delta // 2 for i in range(1, n))


def lhs_values(beta, n: int) -> tuple[int, ...]:
    beta = validate_indices(beta, n)
    return tuple(
        i * sum(beta[i - 1 :]) - (n - i) * sum(beta[: i - 1]) for i in range(1, n)
    )


def check_stability(cp: CurveParams, beta) -> StabilityVerdict:
    if cp.delta < 0:
        raise DomainError("stability test requires delta >= 0")
    n = cp.n
    beta = validate_indices(beta, n)
    lhs = lhs_values(beta, n)
    rhs = stability_bounds(n, cp.delta)
    semistable = all(l <= r for l, r in zip(lhs, rhs))
    eqs = tuple(i for i, (l, r) in enumerate(zip(lhs, rhs), start=1) if l == r) if semistable else ()
    return StabilityVerdict(semistable, semistable and not eqs, eqs)


def jh_filtration(cp: CurveParams, beta) -> JHFiltration:
    """Jordan-Holder filtration of a strictly semistable generalized line bundle.

    The steps are the second-filtration terms F^(n - i_h) at the equality
    positions; the graded factors all have slope D/n.
    """
    n, D = cp.n, cp.degree
    beta = validate_indices(beta, n)
    verdict = check_stability(cp, beta)
    if not verdict.semistable or not verdict.equality_positions:
        raise DomainError("Jordan-Holder filtration requires a strictly semistable input")
    pos = verdict.equality_positions
    cuts = (0,) + pos + (n,)

    def dsf(i: int) -> Fraction:
        if i == 0:
            return Fraction(0)
        if i == n:
            return Fraction(D)
        return deg_second_filtration(cp, beta, i)

    b = (0,) + beta
    factors = []
    for h in range(len(cuts) - 1):
        lo, hi = cuts[h], cuts[h + 1]
        mult = hi - lo
        degree = dsf(n - lo) - dsf(n - hi)
        fbeta = tuple(b[lo + j] - b[lo] for j in range(1, mult))
        factors.append(JHFactor(mult, degree, fbeta))
    steps = ("F",) + tuple(f"F^({n - i})" for i in pos) + ("0",)
    return JHFiltration(pos, steps, tuple(factors))


def dual_stability_check(cp: CurveParams, beta) -> bool:
    """Assert the dual has the same verdict (with mirrored equality positions);
    return the shared semistability."""
    n = cp.n
    beta = validate_indices(beta, n)
    mine = check_stability(cp, beta)
    dual = check_stability(cp, dual_indices(beta))
    mirrored = tuple(sorted(n - i for i in dual.equality_positions))
    if (mine.semistable, mine.stable, mine.equality_positions) != (
        dual.semistable,
        dual.stable,
        mirrored,
    ):
        raise VerificationError(
            f"stability of beta={beta} disagrees with its dual {dual_indices(beta)}")
    return mine.semistable


__all__ = [
    "StabilityVerdict",
    "JHFactor",
    "JHFiltration",
    "stability_bounds",
    "lhs_values",
    "check_stability",
    "jh_filtration",
    "dual_stability_check",
    "sub_indices",
]
