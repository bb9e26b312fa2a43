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

The builders and the normalizer work on flat rows of A, as `modules` does:
`_shift` multiplies by x^c and y^k, `_mul_rows` by alpha_{i,j}, and
`_from_rows` builds the module.  Ring elements appear only in the text of
an alpha (`to_json`).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EnumerationLimit, ParameterMismatch, PrecisionError, ShapeError
from .invariants import validate_indices
from .modules import ModuleRep, _from_rows, _mul_rows, _shift, build_resolution, indices, is_isomorphic_oracle
from .modules import unflatten
from .ring import RingParams, format_elem, parse_terms, required_precision


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
    return format_elem(unflatten(_poly_row(coeffs, _ALPHA_RING), _ALPHA_RING, 1)[0])


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


def _poly_row(coeffs, params: RingParams) -> np.ndarray:
    """The flat row of sum_a coeffs[a] x^a in A; coefficients must be
    residues in [0, p) and degrees below N, so nothing is reduced or cut."""
    if len(coeffs) > params.N or not all(0 <= c < params.p for c in coeffs):
        raise DomainError(f"coefficients {tuple(coeffs)} do not fit {params}")
    row = np.zeros(params.n * params.N, dtype=np.int64)
    row[: len(coeffs)] = coeffs
    return row


def _check_precision(params: RingParams, max_beta: int) -> None:
    need = required_precision(params.n, max_beta)
    if params.N < need:
        raise PrecisionError(
            f"precision N={params.N} below N_min={need} for indices up to {max_beta}")


def ideal_from_indices(nf: GeneralNormalForm, params: RingParams) -> ModuleRep:
    """The ideal model of the presentation; its indices round-trip to nf.beta.

    Each right hand side lies in y^(n-i+1) A, as g_j does in y^(n-j) A, so
    its y-quotient g_i is its levels moved down one."""
    if params.n != nf.n:
        raise ParameterMismatch(f"params.n={params.n} but normal form has n={nf.n}")
    n, N = nf.n, params.N
    beta = (0,) + nf.beta
    _check_precision(params, max(nf.beta, default=0))
    alpha = {pos: _poly_row(coeffs, params) for pos, coeffs in nf.alpha}
    gens = [_shift(_poly_row((1,), params), params, 1, 0, n - 1)]  # g_1 = y^(n-1)
    for i in range(2, n + 1):
        rhs = _shift(gens[i - 2], params, 1, beta[n - i + 1] - beta[n - i], 0)
        for j in range(1, i - 1):
            if (i, j) in alpha:
                rhs = rhs + _mul_rows(alpha[i, j], gens[j - 1], params, 1)
        gens.append(np.concatenate([rhs[N:] % params.p, np.zeros(N, dtype=np.int64)]))
    return _from_rows(np.array(gens[::-1]), params, 1)


def special_ideal(nf: SpecialNormalForm, params: RingParams) -> ModuleRep:
    """The two-generator ideal (x^b + sum_h z_h(x) y^h, y^j)."""
    if params.n != nf.n:
        raise ParameterMismatch(f"params.n={params.n} but normal form has n={nf.n}")
    _check_precision(params, nf.b)
    one = _poly_row((1,), params)
    lead = _shift(one, params, 1, nf.b, 0)
    for h, row in enumerate(nf.z, start=1):
        lead = lead + _shift(_poly_row(row, params), params, 1, 0, h)
    return _from_rows(np.array([lead, _shift(one, params, 1, 0, nf.j)]), params, 1)


# -- normalizer ----------------------------------------------------------


def normalize_special(M: ModuleRep) -> SpecialNormalForm:
    """Unique (b, j, z) of a single-jump module M, read off J = (a, y^j),
    where a = -M1[1, 0] in the matrix factorization (f, M1, M2) of
    `modules.build_resolution`: y^j f_0 = a f_1, and a leads with x^b, as
    y^j f_0 and f_1 lead at level j with x^(v_0) and x^(v_0 - b).

    J ~ M, with no x-division: a and y^j satisfy the columns of M1
    (y^j a - a y^j = 0 and y^n = 0), so they map coker(M1) = M onto J, and
    the images of the F_p[[x]]-basis y^t e_i of coker(M1), y^t a (t < j) and
    y^t (j <= t < n), lead with x^b y^t, resp. y^t, like J's Hermite basis
    (the argument in `build_resolution`): the map is an isomorphism, and J
    leads with x^b.  Its first lattice row e (`linalg.howell`) is then x^b
    plus y-terms of x-degree below b: each later level's valuation is b or
    lower, and e is reduced modulo it.  z_h is the y^h-coefficient of e, for h = 1..jbar.
    """
    if M.ambient_rank != 1:
        raise ShapeError("normalize_special expects a plain submodule of A")
    params = M.params
    n = params.n
    beta = indices(M)
    if len(beta) != n - 1:
        raise ShapeError(f"module is supported on a proper subcurve (indices {beta})")
    j, b = jump_position(beta)
    a = -build_resolution(M)[1][1, 0] % params.p
    J = _from_rows(np.array([a, _shift(_poly_row((1,), params), params, 1, 0, j)]), params, 1)
    e = J.H[0].reshape(n, params.N)[1 : jbar(n, j) + 1, :b]
    return SpecialNormalForm(n, b, j, tuple(map(tuple, e.tolist())))


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
                                 ceiling: int = 4096) -> list[EnumeratedModule]:
    """All normal-form ideals with beta <= beta_max; oracle-flagged duplicates.

    The alpha-parametrization is only reduced modulo the presentation's
    stated ambiguity, so distinct forms can still be isomorphic; each form
    is checked with the isomorphism oracle against the earlier class
    representatives of its beta, the first entry of each class.
    """
    forms = list(iter_normal_forms(n, beta_max, params.p))
    if len(forms) > ceiling:
        raise EnumerationLimit(f"{len(forms)} normal forms exceed the ceiling {ceiling}")
    out: list[EnumeratedModule] = []
    reps: dict[tuple[int, ...], list[int]] = {}
    for form in forms:
        mod = ideal_from_indices(form, params)
        dup = next((prev for prev in reps.get(form.beta, [])
                    if is_isomorphic_oracle(mod, out[prev].module) == "yes"), None)
        if dup is None:
            reps.setdefault(form.beta, []).append(len(out))
        out.append(EnumeratedModule(form, mod, dup))
    return out
