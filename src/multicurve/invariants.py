"""Exact integer arithmetic on curve parameters and index vectors.

Everything here evaluates the closed formulas: subcurve genera, generalized
degrees of pure quotients and second-filtration terms, index duality and
sub-filtration identities, and rank/degree conversions.  Values that may be
non-integral are returned as exact fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError


@dataclass(frozen=True)
class CurveParams:
    """Multiplicity n, reduced genus g1, conormal degree delta = -deg C, degree D."""

    n: int
    g1: int
    delta: int
    degree: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"multiplicity must be >= 1, got {self.n}")
        if self.g1 < 0:
            raise DomainError(f"reduced genus must be >= 0, got {self.g1}")

    @property
    def genus(self) -> int:
        return genus(self, self.n)


def validate_indices(beta, n: int) -> tuple[int, ...]:
    given = tuple(beta)
    beta = tuple(map(int, given))
    if beta != given:
        raise DomainError(f"indices must be integers: {given}")
    if len(beta) != n - 1:
        raise DomainError(f"index vector must have length n-1 = {n - 1}, got {len(beta)}")
    if any(b < 0 for b in beta):
        raise DomainError(f"indices must be nonnegative: {beta}")
    if any(beta[i] > beta[i + 1] for i in range(len(beta) - 1)):
        raise DomainError(f"indices must be nondecreasing: {beta}")
    return beta


def genus(cp: CurveParams, i: int) -> int:
    """Genus of the depth-i subcurve: g_i = 1 + i(g1-1) + (i(i-1)/2) delta."""
    if not 1 <= i <= cp.n:
        raise DomainError(f"subcurve depth must be in [1, {cp.n}], got {i}")
    return 1 + i * (cp.g1 - 1) + (i * (i - 1) // 2) * cp.delta


def deg_pure_quotient(cp: CurveParams, beta, i: int) -> Fraction:
    """Generalized degree of the depth-i pure quotient."""
    n, D, delta = cp.n, cp.degree, cp.delta
    beta = validate_indices(beta, n)
    if not 1 <= i <= n:
        raise DomainError(f"pure quotient depth must be in [1, {n}], got {i}")
    low = sum(beta[: i - 1])
    high = sum(beta[i - 1 :])
    return Fraction(2 * (i * D + (n - i) * low - i * high) + i * n * (n - i) * delta, 2 * n)


def deg_second_filtration(cp: CurveParams, beta, i: int) -> Fraction:
    """Generalized degree of the second-filtration term F^(i)."""
    n, D, delta = cp.n, cp.degree, cp.delta
    beta = validate_indices(beta, n)
    if not 1 <= i <= n - 1:
        raise DomainError(f"second filtration index must be in [1, {n - 1}], got {i}")
    low = sum(beta[: n - i - 1])
    high = sum(beta[n - i - 1 :])
    return Fraction(2 * (i * D - i * low + (n - i) * high) - i * n * (n - i) * delta, 2 * n)


def dual_indices(beta) -> tuple[int, ...]:
    """Indices of the dual: beta_i^dual = beta_{n-1} - beta_{n-1-i}."""
    n = len(beta) + 1
    b = (0,) + validate_indices(beta, n)
    return tuple(b[n - 1] - b[n - 1 - i] for i in range(1, n))


def sub_indices(beta, i: int) -> tuple[int, ...]:
    """Indices of the second-filtration term F^(i) (a bundle on C_i)."""
    n = len(beta) + 1
    b = (0,) + validate_indices(beta, n)
    if not 2 <= i <= n - 1:
        raise DomainError(f"sub-filtration depth must be in [2, {n - 1}], got {i}")
    return tuple(b[n - i + j] - b[n - i] for j in range(1, i))


def rank_degree_conversion(cp: CurveParams, ordinary_rank, ordinary_deg) -> tuple[Fraction, Fraction]:
    """(Rk, Deg) from ordinary (rk, deg): Rk = n rk, Deg = deg - rk n(n-1)/2 delta."""
    n = cp.n
    rk = Fraction(ordinary_rank)
    dg = Fraction(ordinary_deg)
    return n * rk, dg + rk * Fraction(n * (n - 1), 2) * (-cp.delta)


def deg_tensor(cp: CurveParams, R: int, deg_f: int, m: int, deg_e: int) -> int:
    """Deg(F (x) E) for Rk F = R and E a bundle of rank m, Deg E = deg_e."""
    n = cp.n
    val = Fraction(R, n) * deg_e + m * deg_f + Fraction(R * m * (n - 1), 2) * cp.delta
    if val.denominator != 1:
        raise DomainError(f"tensor degree is not integral: {val}")
    return int(val)
