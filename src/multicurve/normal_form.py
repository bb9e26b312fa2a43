"""Normal forms for generalized invertible stalks.

A stalk with index vector beta is presented by generators g_1, ..., g_n
subject to

    y g_1 = 0,    y g_i = x^(beta_{n-i+1} - beta_{n-i}) g_{i-1}
                          + sum_{j<=i-2} alpha_{i,j} g_j,

with beta_0 = beta_n = 0 and each alpha_{i,j} a polynomial in x of degree
less than beta_{n-j} - beta_{n-j-1} (its natural modulus).  The ideal model
is built by solving the relations recursively: g_1 = y^(n-1) and each g_i is
the exact y-quotient of its relation's right hand side.  For all alpha = 0
this gives the monomial ideal (x^(beta_{n-1} - beta_i) y^i).

Single-jump vectors (0 = beta_{j-1} < beta_j = ... = beta_{n-1} = b) have the
two-generator model (x^b + sum_h z_h(x) y^h, y^j) with unique coefficients
z_{h,i} once deg_x z_h < b and h <= jbar = min(j, n-j) - 1.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .errors import DomainError, EnumerationLimit, ParameterMismatch, PrecisionError, ShapeError
from .invariants import validate_indices
from .modules import (
    ModuleRep,
    divide_by_x_power,
    indices,
    is_isomorphic_oracle,
    span_from_generators,
    unflatten,
)
from .ring import RingElem, RingParams, format_elem, parse_elem, parse_terms, required_precision


def jump_position(beta) -> tuple[int, int]:
    """(j, b) for a single-jump index vector, else ShapeError."""
    n = len(beta) + 1
    beta = validate_indices(beta, n)
    b = beta[-1] if beta else 0
    if b == 0:
        raise ShapeError("free module: the index vector has no jump")
    j = next(i for i in range(1, n) if beta[i - 1] > 0)
    if any(v != b for v in beta[j - 1 :]):
        raise ShapeError(f"index vector {beta} has more than one jump")
    return j, b


def jbar(n: int, j: int) -> int:
    return min(j, n - j) - 1


@dataclass(frozen=True)
class GeneralNormalForm:
    """Index vector plus alpha-parameters of the general presentation."""

    n: int
    beta: tuple[int, ...]
    alpha: tuple[tuple[tuple[int, int], tuple[int, ...]], ...] = ()

    def __post_init__(self):
        validate_indices(self.beta, self.n)
        for (i, j), coeffs in self.alpha:
            if not (3 <= i <= self.n and 1 <= j <= i - 2):
                raise DomainError(f"invalid alpha position ({i},{j})")
            if len(coeffs) != self.alpha_degree(j):
                raise DomainError(
                    f"alpha({i},{j}) must have exactly {self.alpha_degree(j)} coefficients")

    def alpha_degree(self, j: int) -> int:
        b = (0,) + self.beta
        return b[self.n - j] - b[self.n - j - 1]

    def to_json(self) -> str:
        alpha = {f"{i},{j}": _alpha_text(coeffs) for (i, j), coeffs in self.alpha}
        return json.dumps({"n": self.n, "beta": list(self.beta), "alpha": alpha})


def _fit(coeffs, size: int, what: str) -> tuple[int, ...]:
    """coeffs zero-padded to size; nonzero entries beyond it are refused."""
    coeffs = tuple(int(c) for c in coeffs)
    if any(coeffs[size:]):
        raise DomainError(f"{what} {coeffs} has nonzero entries beyond its {size} slots")
    return coeffs[:size] + (0,) * (size - len(coeffs))


def make_general_form(n: int, beta, alpha: dict | None = None) -> GeneralNormalForm:
    beta = validate_indices(beta, n)
    b = (0,) + beta
    items = []
    for (i, j), coeffs in sorted((alpha or {}).items()):
        coeffs = _fit(coeffs, b[n - j] - b[n - j - 1], f"alpha({i},{j})")
        if any(coeffs):
            items.append(((i, j), coeffs))
    return GeneralNormalForm(n, beta, tuple(items))


# JSON carries each alpha as a polynomial in F_65521[x]/(x^64), which holds
# every residue of every admitted prime; anything outside it is refused
# rather than reduced or truncated.
_ALPHA_RING = RingParams(1, 64, 65521)


def _alpha_text(coeffs) -> str:
    return format_elem(_poly_elem(coeffs, _ALPHA_RING))


def _alpha_coeffs(text: str) -> tuple[int, ...]:
    coeffs = [0] * _ALPHA_RING.N
    for c, xdeg, ydeg in parse_terms(text):
        if ydeg or xdeg >= _ALPHA_RING.N:
            raise DomainError(f"alpha {text!r} does not fit {_ALPHA_RING}")
        coeffs[xdeg] += c
    if not all(0 <= c < _ALPHA_RING.p for c in coeffs):
        raise DomainError(f"alpha {text!r} does not fit {_ALPHA_RING}")
    deg = max((a for a, c in enumerate(coeffs) if c), default=-1)
    return tuple(coeffs[: deg + 1])


def general_form_from_json(text: str) -> GeneralNormalForm:
    data = json.loads(text)
    alpha = {tuple(int(t) for t in key.split(",")): _alpha_coeffs(val)
             for key, val in data.get("alpha", {}).items()}
    return make_general_form(int(data["n"]), data["beta"], alpha)


@dataclass(frozen=True)
class SpecialNormalForm:
    """Single-jump model (x^b + sum_h z_h(x) y^h, y^j); z has jbar rows, b columns."""

    n: int
    b: int
    j: int
    z: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if self.b < 1:
            raise DomainError(f"jump value must be >= 1, got {self.b}")
        if not 1 <= self.j <= self.n - 1:
            raise DomainError(f"jump position must be in [1, {self.n - 1}], got {self.j}")
        rows = jbar(self.n, self.j)
        if len(self.z) != rows or any(len(r) != self.b for r in self.z):
            raise DomainError(f"z grid must be {rows} x {self.b}")

    @property
    def beta(self) -> tuple[int, ...]:
        return (0,) * (self.j - 1) + (self.b,) * (self.n - self.j)

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "b": self.b, "j": self.j,
                           "z": [list(r) for r in self.z]})


def make_special_form(n: int, b: int, j: int, z=None) -> SpecialNormalForm:
    rows = jbar(n, j)
    z = [_fit(row, b, "z row") for row in z or []]
    if any(any(row) for row in z[rows:]):
        raise DomainError(f"z has nonzero rows beyond its {rows} rows")
    z = z[:rows] + [(0,) * b] * (rows - len(z))
    return SpecialNormalForm(n, b, j, tuple(z))


def special_form_from_json(text: str) -> SpecialNormalForm:
    data = json.loads(text)
    return make_special_form(int(data["n"]), int(data["b"]), int(data["j"]), data.get("z"))


# -- builders ------------------------------------------------------------


def _poly_elem(coeffs, params: RingParams, level: int = 0) -> RingElem:
    """sum_a coeffs[a] x^a y^level; coefficients must be residues in [0, p)
    and degrees below N, so nothing is reduced or cut."""
    if len(coeffs) > params.N or not all(0 <= c < params.p for c in coeffs):
        raise DomainError(f"coefficients {tuple(coeffs)} do not fit {params}")
    grid = [[0] * params.N for _ in range(params.n)]
    grid[level][: len(coeffs)] = [int(c) for c in coeffs]
    return RingElem(params, grid)


def _check_precision(params: RingParams, max_beta: int) -> None:
    need = required_precision(params.n, max_beta)
    if params.N < need:
        raise PrecisionError(
            f"precision N={params.N} below N_min={need} for indices up to {max_beta}")


def ideal_from_indices(nf: GeneralNormalForm, params: RingParams) -> ModuleRep:
    """The ideal model of the presentation; its indices round-trip to nf.beta."""
    if params.n != nf.n:
        raise ParameterMismatch(f"params.n={params.n} but normal form has n={nf.n}")
    n = nf.n
    beta = (0,) + nf.beta  # beta[0] = 0; beta[n] treated as 0 via c_n below
    _check_precision(params, max(nf.beta, default=0))
    alpha = {pos: _poly_elem(coeffs, params) for pos, coeffs in nf.alpha}
    x = parse_elem("x", params)
    gens = [RingElem.monomial(params, 1, 0, n - 1)]  # g_1 = y^(n-1)
    for i in range(2, n + 1):
        c_i = (beta[n - i + 1] if n - i + 1 <= n - 1 else 0) - beta[n - i]
        rhs = (x ** c_i) * gens[i - 2]
        for j in range(1, i - 1):
            a = alpha.get((i, j))
            if a is not None:
                rhs = rhs + a * gens[j - 1]
        gens.append(rhs.divide_y(1))
    return span_from_generators(list(reversed(gens)), params=params)


def special_ideal(nf: SpecialNormalForm, params: RingParams) -> ModuleRep:
    """The two-generator ideal (x^b + sum_h z_h(x) y^h, y^j)."""
    if params.n != nf.n:
        raise ParameterMismatch(f"params.n={params.n} but normal form has n={nf.n}")
    _check_precision(params, nf.b)
    lead = RingElem.monomial(params, 1, nf.b, 0)
    for h, row in enumerate(nf.z, start=1):
        lead = lead + _poly_elem(row, params, level=h)
    return span_from_generators([lead, RingElem.monomial(params, 1, 0, nf.j)], params=params)


# -- normalizer ----------------------------------------------------------


def _poly_inverse(coeffs: tuple[int, ...], N: int, p: int) -> list[int]:
    # power series inverse of a unit polynomial mod x^N
    u0 = coeffs[0] % p
    if u0 == 0:
        raise DomainError("not a unit polynomial")
    inv0 = pow(u0, p - 2, p)
    out = [inv0] + [0] * (N - 1)
    for k in range(1, N):
        acc = 0
        for i in range(1, min(k, len(coeffs) - 1) + 1):
            acc += coeffs[i] * out[k - i]
        out[k] = (-inv0 * acc) % p
    return out


def _max_x_degree(f: RingElem) -> int:
    deg = -1
    for row in f.coeffs:
        for a, c in enumerate(row):
            if c:
                deg = max(deg, a)
    return deg


def _split_x_degree(f: RingElem, b: int) -> tuple[RingElem, RingElem]:
    """f = low + x^b * high with deg_x(low) < b on every level."""
    low_grid, high_grid = [], []
    for row in f.coeffs:
        low_grid.append(list(row[:b]) + [0] * (f.params.N - b))
        high_grid.append(list(row[b:]) + [0] * b)
    return RingElem(f.params, low_grid), RingElem(f.params, high_grid)


def _presentation_lead(M: ModuleRep, b: int, fixed, cut: int) -> RingElem:
    """The lead e of a presentation x^(-s) M = (e, *fixed), or ShapeError.

    s brings the leading y-degree-0 valuation of M down to b, and e is the
    first RREF row of x^(-s) M divided by its unit (so its y-degree-0 part is
    exactly x^b), truncated below y^cut.  x^(-s) M must contain every fixed
    generator and be spanned by e and them.
    """
    params = M.params
    piv = M.num.pivots
    if not piv or piv[0] >= params.N:
        raise ShapeError("module has no nonzerodivisor")
    if piv[0] < b:
        raise ShapeError(f"leading y-degree-0 valuation {piv[0]} is below the index value {b}")
    M = divide_by_x_power(M, piv[0] - b)
    e = unflatten(M.num.rows()[0], params, 1)[0]
    u = e.level(0)[b:]  # the level-0 part is x^b * u(x) with u(0) = 1
    e = (e * _poly_elem(_poly_inverse(u, params.N, params.p), params)).truncate_y(cut)
    missing = [format_elem(g) for g in fixed if not M.contains(g)]
    if missing:
        raise ShapeError(f"module does not contain {' and '.join(missing)}")
    if span_from_generators([e, *fixed], params=params).num != M.num:
        raise ShapeError(f"module is not generated by ({', '.join(map(format_elem, [e, *fixed]))})")
    return e


def normalize_special(M: ModuleRep) -> SpecialNormalForm:
    """Unique (b, j, z) of a single-jump module, via the geometric-series
    elimination of x^b-divisible correction terms."""
    if M.ambient_rank != 1:
        raise ShapeError("normalize_special expects a plain submodule of A")
    params = M.params
    n = params.n
    beta = indices(M)
    if len(beta) != n - 1:
        raise ShapeError(f"module is supported on a proper subcurve (indices {beta})")
    j, b = jump_position(beta)
    # M = (e, y^j), and e has y-degree-0 part exactly x^b
    e = _presentation_lead(M, b, [RingElem.monomial(params, 1, 0, j)], j)
    alpha = (e - RingElem.monomial(params, 1, b, 0)).divide_y(1)
    jb = jbar(n, j)
    alpha = alpha.truncate_y(jb)
    cap = 2 * max(1, (max(jb, 2) - 1).bit_length()) + 2
    rounds = 0
    while _max_x_degree(alpha) >= b:
        if rounds >= cap:
            raise ShapeError("normalize_special failed to converge; shape not reducible")
        rounds += 1
        low, high = _split_x_degree(alpha, b)
        # M(low + x^b high) ~ M(sum_{l>=1} (-high*y)^(l-1) * low)
        term = low
        acc = low
        step = (-high).shift_y(1)
        for _ in range(1, max(jb, 1)):
            term = (term * step).truncate_y(jb)
            if term.is_zero():
                break
            acc = acc + term
        alpha = acc.truncate_y(jb)
    z = [[0] * b for _ in range(jb)]
    for h in range(1, jb + 1):
        row = alpha.level(h - 1)
        for i in range(b):
            z[h - 1][i] = row[i]
    return SpecialNormalForm(n, b, j, tuple(tuple(r) for r in z))


# -- enumeration -----------------------------------------------------------


def iter_monotone_vectors(length: int, top: int):
    """All nondecreasing vectors of the given length with entries in [0, top],
    in lexicographic order."""
    return itertools.combinations_with_replacement(range(top + 1), length)


def iter_normal_forms(n: int, beta_max: int, p: int):
    """All GeneralNormalForm with monotone beta <= beta_max and alpha over F_p
    reduced modulo the presentation's ambiguity, in lexicographic order."""
    pairs = [(i, j) for i in range(3, n + 1) for j in range(1, i - 1)]
    for beta in iter_monotone_vectors(n - 1, beta_max):
        b = (0,) + beta
        grids = [itertools.product(range(p), repeat=b[n - j] - b[n - j - 1]) for (_, j) in pairs]
        block = [make_general_form(n, beta, dict(zip(pairs, coeffs)))
                 for coeffs in itertools.product(*grids)]
        block.sort(key=lambda f: f.alpha)
        yield from block


@dataclass(frozen=True)
class EnumeratedModule:
    form: GeneralNormalForm
    module: ModuleRep
    duplicate_of: int | None  # index of an earlier isomorphic entry, if any


def enumerate_invertible_modules(n: int, beta_max: int, params: RingParams,
                                 ceiling: int = 4096, seed: int = 0) -> list[EnumeratedModule]:
    """All normal-form ideals with beta <= beta_max; oracle-flagged duplicates.

    The alpha-parametrization is only reduced modulo the presentation's
    stated ambiguity, so distinct forms can still be isomorphic; every
    same-beta pair is therefore checked with the isomorphism oracle.
    """
    forms = list(iter_normal_forms(n, beta_max, params.p))
    if len(forms) > ceiling:
        raise EnumerationLimit(f"{len(forms)} normal forms exceed the ceiling {ceiling}")
    out: list[EnumeratedModule] = []
    by_beta: dict[tuple[int, ...], list[int]] = {}
    for form in forms:
        mod = ideal_from_indices(form, params)
        dup = next((prev for prev in by_beta.get(form.beta, [])
                    if is_isomorphic_oracle(mod, out[prev].module, seed=seed) == "yes"), None)
        entry = EnumeratedModule(form, mod, dup)
        by_beta.setdefault(form.beta, []).append(len(out))
        out.append(entry)
    return out
