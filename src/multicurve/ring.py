"""The truncated local model ring A = F_p[x]/(x^N) [y]/(y^n).

Elements are dense n x N coefficient grids over the prime field: the entry
c[i][a] is the coefficient of x^a * y^i.  Multiplication truncates both at
x^N and y^n.  The y-truncation is intrinsic (the ring really is nilpotent of
order n in y); the x-truncation is a precision artifact, which is why every
length-valued computation downstream is certified at two precisions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DomainError, ParameterMismatch

UNIT = "unit"
NONZERODIVISOR = "nonzerodivisor_nonunit"
ZERODIVISOR = "zerodivisor"


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def required_precision(n: int, max_index: int) -> int:
    """Minimal x-precision N_min = 2*n*(B+1) for inputs with indices <= B."""
    return 2 * n * (max_index + 1)


@dataclass(frozen=True)
class RingParams:
    n: int
    N: int
    p: int

    def __post_init__(self):
        if self.n < 1 or self.N < 1:
            raise ParameterMismatch(f"n and N must be >= 1, got n={self.n}, N={self.N}")
        if not (2 <= self.p < 2**16 and is_prime(self.p)):
            raise ParameterMismatch(f"p must be a prime < 2^16, got {self.p}")

    def with_precision(self, N: int) -> "RingParams":
        return RingParams(self.n, N, self.p)

    def __str__(self):
        return f"F{self.p}[x]/(x^{self.N})[y]/(y^{self.n})"


class RingElem:
    """Immutable element of A, a dense grid of n rows (y-degree) by N columns."""

    __slots__ = ("params", "coeffs")

    def __init__(self, params: RingParams, coeffs):
        grid = []
        for i in range(params.n):
            row = coeffs[i] if i < len(coeffs) else ()
            row = tuple(int(c) % params.p for c in row)
            if len(row) < params.N:
                row = row + (0,) * (params.N - len(row))
            elif len(row) > params.N:
                raise ParameterMismatch("coefficient row longer than precision N")
            grid.append(row)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "coeffs", tuple(grid))

    def __setattr__(self, *a):
        raise AttributeError("RingElem is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(params: RingParams) -> "RingElem":
        return RingElem(params, ())

    @staticmethod
    def one(params: RingParams) -> "RingElem":
        return RingElem.monomial(params, 1, 0, 0)

    @staticmethod
    def monomial(params: RingParams, c: int, xdeg: int, ydeg: int) -> "RingElem":
        """c * x^xdeg * y^ydeg; zero once a degree reaches its truncation."""
        if xdeg < 0 or ydeg < 0:
            raise DomainError(f"monomial degrees must be nonnegative, got x^{xdeg} y^{ydeg}")
        if ydeg >= params.n or xdeg >= params.N:
            return RingElem.zero(params)
        grid = [[0] * params.N for _ in range(params.n)]
        grid[ydeg][xdeg] = c % params.p
        return RingElem(params, grid)

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "RingElem"):
        if self.params != other.params:
            raise ParameterMismatch(f"mixed ring parameters: {self.params} vs {other.params}")

    def __add__(self, other: "RingElem") -> "RingElem":
        self._check(other)
        p = self.params.p
        return RingElem(
            self.params,
            [
                [(a + b) % p for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.coeffs, other.coeffs)
            ],
        )

    def __neg__(self) -> "RingElem":
        p = self.params.p
        return RingElem(self.params, [[(-a) % p for a in r] for r in self.coeffs])

    def __sub__(self, other: "RingElem") -> "RingElem":
        return self + (-other)

    def __mul__(self, other: "RingElem") -> "RingElem":
        self._check(other)
        n, N, p = self.params.n, self.params.N, self.params.p
        out = [[0] * N for _ in range(n)]
        for i, row1 in enumerate(self.coeffs):
            if not any(row1):
                continue
            for j, row2 in enumerate(other.coeffs):
                if i + j >= n or not any(row2):
                    continue
                target = out[i + j]
                for a, ca in enumerate(row1):
                    if ca:
                        for b in range(N - a):
                            cb = row2[b]
                            if cb:
                                target[a + b] = (target[a + b] + ca * cb) % p
        return RingElem(self.params, out)

    def __pow__(self, k: int) -> "RingElem":
        if k < 0:
            raise DomainError("negative powers are not defined in A")
        acc = RingElem.one(self.params)
        for _ in range(k):
            acc = acc * self
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingElem):
            return NotImplemented
        return self.params == other.params and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.params, self.coeffs))

    # -- structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(any(r) for r in self.coeffs)

    def y_valuation(self) -> int:
        """Least y-degree with a nonzero coefficient; n for the zero element."""
        for i, row in enumerate(self.coeffs):
            if any(row):
                return i
        return self.params.n

    def level(self, i: int) -> tuple[int, ...]:
        return self.coeffs[i]

    def shift_y(self, k: int = 1) -> "RingElem":
        n = self.params.n
        grid = [[0] * self.params.N for _ in range(n)]
        for i in range(n - k):
            grid[i + k] = list(self.coeffs[i])
        return RingElem(self.params, grid)

    def divide_y(self, k: int = 1) -> "RingElem":
        """Shift y-levels down by k. Requires vanishing below level k."""
        if any(any(self.coeffs[i]) for i in range(min(k, self.params.n))):
            raise DomainError("element is not divisible by y^k")
        grid = [list(r) for r in self.coeffs[k:]] + [[0] * self.params.N] * k
        return RingElem(self.params, grid)

    def truncate_y(self, k: int) -> "RingElem":
        """Kill all y-levels >= k."""
        return RingElem(self.params, [list(r) for r in self.coeffs[:k]])

    def lift(self, params: RingParams) -> "RingElem":
        """Reinterpret at higher x-precision (coefficients are unchanged)."""
        if (params.n, params.p) != (self.params.n, self.params.p):
            raise ParameterMismatch("lift must preserve n and p")
        if params.N < self.params.N:
            raise ParameterMismatch("lift cannot lower the precision")
        return RingElem(params, self.coeffs)

    def __repr__(self):
        return f"RingElem({self!s})"

    def __str__(self):
        return format_elem(self)


def multiply(f: RingElem, g: RingElem) -> RingElem:
    """Product in A with x^N = 0 and y^n = 0 truncation."""
    return f * g


def classify_element(f: RingElem) -> str:
    """Classify a nonzero element of the untruncated model A_1[y]/(y^n).

    unit iff the constant term is nonzero; nonzerodivisor iff the y-degree-0
    part is nonzero (x is a nonzerodivisor there even though the finite
    x-precision truncates it); zerodivisor otherwise.
    """
    if f.is_zero():
        raise DomainError("cannot classify the zero element")
    if f.coeffs[0][0]:
        return UNIT
    if any(f.coeffs[0]):
        return NONZERODIVISOR
    return ZERODIVISOR


def y_valuation(f: RingElem) -> int:
    return f.y_valuation()


# -- text syntax -------------------------------------------------------
#
# Sum of terms  c*x^a*y^i  with '*' and '^1' optional, e.g. "x^2 + 3*x*y + y^2".

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<var>[xy])(?:\s*\^\s*(?P<exp>\d+))?|(?P<op>[+\-*]))")


def parse_terms(text: str):
    """Yield the terms (c, xdeg, ydeg) of text exactly as written: c keeps
    its sign and size, and no degree is truncated."""
    pos = 0
    sign, coef, xdeg, ydeg, in_term = 1, None, 0, 0, False
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise DomainError(f"cannot parse ring element near {text[pos:]!r}")
            break
        pos = m.end()
        if m.group("op"):
            op = m.group("op")
            if op == "*":
                if not in_term:
                    raise DomainError("misplaced '*' in ring element")
                continue
            if in_term:
                yield sign * (1 if coef is None else coef), xdeg, ydeg
            sign, coef, xdeg, ydeg, in_term = (-1 if op == "-" else 1), None, 0, 0, False
        elif m.group("num"):
            if in_term and coef is not None:
                raise DomainError("two numeric factors in one term; use a single coefficient")
            coef = int(m.group("num")) if coef is None else coef
            in_term = True
        else:
            var = m.group("var")
            exp = int(m.group("exp") or 1)
            if var == "x":
                xdeg += exp
            else:
                ydeg += exp
            in_term = True
    if in_term:
        yield sign * (1 if coef is None else coef), xdeg, ydeg


def parse_elem(text: str, params: RingParams) -> RingElem:
    acc = RingElem.zero(params)
    for c, xdeg, ydeg in parse_terms(text):
        acc = acc + RingElem.monomial(params, c, xdeg, ydeg)
    return acc


def format_elem(f: RingElem) -> str:
    terms = []
    for i, row in enumerate(f.coeffs):
        for a, c in enumerate(row):
            if not c:
                continue
            factors = []
            if c != 1 or (a == 0 and i == 0):
                factors.append(str(c))
            if a:
                factors.append("x" if a == 1 else f"x^{a}")
            if i:
                factors.append("y" if i == 1 else f"y^{i}")
            terms.append("*".join(factors))
    return " + ".join(terms) if terms else "0"
