"""Irreducible components of stable generalized line bundles in the moduli
space of semistable generalized-rank-n sheaves: labels, dimensions, tangent
dimensions, blow-up predicates, deformation moves and the connectivity graph.

Labels are admissible index vectors: monotone, strictly semistable-free
(all stability inequalities strict) and satisfying the degree congruence
n | D + n(n-1)/2 * delta - sum(beta).  Each label is a component of
dimension g_n; its generic member has beta_i - beta_{i-1} single-jump
points of value 1.

Jump convention: a single-jump point with vector (0,...,0,b,...,b) jumping
at position j has local model (x^b + ..., y^j).  Deformation statements
written with the generator y^(n-h) are converted via j = n - h at the API
boundary.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import (
    DomainError,
    MissingInput,
    MoveNotApplicable,
    NoStableObjects,
    UnsupportedConfig,
)
from .invariants import CurveParams, dual_indices, genus, validate_indices
from .stability import check_stability


# -- local configurations -------------------------------------------------


@dataclass(frozen=True)
class PointIndices:
    """Per-point index vector with optional structural knowledge flags.

    monomial: the stalk is the monomial ideal (x^(b_{n-1}-b_i) y^i).
    dual_monomial: the stalk is the dual of a monomial stalk.
    """

    b: tuple[int, ...]
    monomial: bool = False
    dual_monomial: bool = False

    def __post_init__(self):
        validate_indices(self.b, len(self.b) + 1)
        if not any(self.b):
            raise DomainError("a configuration point must have a nonzero index vector")

    @property
    def n(self) -> int:
        return len(self.b) + 1

    @property
    def value(self) -> int:
        return self.b[-1]

    @property
    def special(self) -> bool:
        j = next(i for i, v in enumerate(self.b, start=1) if v)
        return all(v == self.b[-1] for v in self.b[j - 1 :])

    @property
    def jump(self) -> int:
        if not self.special:
            raise DomainError(f"point {self.b} is not single-jump")
        return next(i for i, v in enumerate(self.b, start=1) if v)


def special_point(n: int, jump: int, value: int, monomial: bool = False) -> PointIndices:
    if not 1 <= jump <= n - 1:
        raise DomainError(f"jump must be in [1, {n - 1}], got {jump}")
    return PointIndices((0,) * (jump - 1) + (value,) * (n - jump), monomial=monomial)


@dataclass(frozen=True)
class LocalConfig:
    n: int
    points: tuple[PointIndices, ...] = ()

    def __post_init__(self):
        for pt in self.points:
            if pt.n != self.n:
                raise DomainError("configuration mixes multiplicities")

    def global_indices(self) -> tuple[int, ...]:
        acc = [0] * (self.n - 1)
        for pt in self.points:
            for i, v in enumerate(pt.b):
                acc[i] += v
        return tuple(acc)

    def all_special(self) -> bool:
        return all(pt.special for pt in self.points)

    def canonical(self):
        return (self.n, tuple(sorted((pt.b, pt.monomial, pt.dual_monomial) for pt in self.points)))


def generic_config(n: int, beta) -> LocalConfig:
    """beta_i - beta_{i-1} single-jump points of type i and value 1."""
    beta = validate_indices(beta, n)
    b = (0,) + beta
    pts = []
    for i in range(1, n):
        for _ in range(b[i] - b[i - 1]):
            pts.append(special_point(n, i, 1, monomial=(min(i, n - i) == 1)))
    return LocalConfig(n, tuple(pts))


# -- component descriptors -------------------------------------------------


@dataclass(frozen=True)
class ComponentDescriptor:
    beta: tuple[int, ...]
    dimension: int
    tangent_dim_generic: int
    divisibility_ok: bool
    generic_config: LocalConfig

    def to_json_dict(self) -> dict:
        return {
            "beta": list(self.beta),
            "dimension": self.dimension,
            "tangent_dim": self.tangent_dim_generic,
            "divisibility_ok": self.divisibility_ok,
        }


def degree_congruence_ok(cp: CurveParams, beta) -> bool:
    n = cp.n
    total = cp.degree + (n * (n - 1) // 2) * cp.delta - sum(beta)
    return total % n == 0


def tangent_dim_generic(cp: CurveParams, beta) -> int:
    """Closed form g_n + sum_{i >= floor((n+1)/2)} beta_i - sum_{i <= floor((n-2)/2)} beta_i."""
    n = cp.n
    beta = validate_indices(beta, n)
    b = (0,) + beta
    hi = sum(b[i] for i in range((n + 1) // 2, n))
    lo = sum(b[i] for i in range(1, (n - 2) // 2 + 1))
    return genus(cp, n) + hi - lo


def describe_component(cp: CurveParams, beta) -> ComponentDescriptor:
    beta = validate_indices(beta, cp.n)
    verdict = check_stability(cp, beta)
    if not verdict.stable:
        raise DomainError(f"beta={beta} is not stable, hence labels no component")
    return ComponentDescriptor(
        beta=beta,
        dimension=genus(cp, cp.n),
        tangent_dim_generic=tangent_dim_generic(cp, beta),
        divisibility_ok=degree_congruence_ok(cp, beta),
        generic_config=generic_config(cp.n, beta),
    )


def iter_monotone_sum_below(length: int, strict_bound: int):
    """Nondecreasing nonnegative vectors with sum < strict_bound."""
    vec = [0] * length

    def rec(pos: int, low: int, left: int):
        if pos == length:
            yield tuple(vec)
            return
        v = low
        while v * (length - pos) <= left:
            vec[pos] = v
            yield from rec(pos + 1, v, left - v)
            v += 1

    if length == 0:
        yield ()
    else:
        yield from rec(0, 0, strict_bound - 1)


def enumerate_components(cp: CurveParams) -> list[ComponentDescriptor]:
    """All admissible labels; the i=1 inequality bounds sum(beta) < n(n-1)/2 delta."""
    if cp.delta <= 0:
        raise NoStableObjects("stable generalized line bundles require delta > 0")
    n = cp.n
    bound = n * (n - 1) // 2 * cp.delta
    out = []
    for beta in iter_monotone_sum_below(n - 1, bound):
        if not degree_congruence_ok(cp, beta):
            continue
        if not check_stability(cp, beta).stable:
            continue
        out.append(describe_component(cp, beta))
    out.sort(key=lambda c: c.beta)
    return out


# -- dimension formulas ----------------------------------------------------


def z_locus_dimension(cp: CurveParams, config: LocalConfig) -> int | None:
    """g_n - beta_{n-1} + #points for an all-special configuration.

    Returns None (empty locus) when the degree congruence fails.
    """
    if not config.all_special():
        raise UnsupportedConfig("z-locus dimension needs an all-special configuration")
    beta = config.global_indices()
    if not degree_congruence_ok(cp, beta):
        return None
    top = beta[-1] if beta else 0
    return genus(cp, cp.n) - top + len(config.points)


def _tangent_term(n: int, pt: PointIndices) -> int:
    """A point's share of the tangent dimension: min(j, n-j) * b at a
    single-jump point, else (n = 3 only) b_2 + min(b_1, b_2 - b_1), which
    also gives min(j, 3-j) * b on single-jump points.  It is half the
    point's local Ext^1 length and the genus the blow-up loses there."""
    if pt.special:
        return min(pt.jump, n - pt.jump) * pt.value
    b1, b2 = pt.b
    return b2 + min(b1, b2 - b1)


def tangent_dimension(cp: CurveParams, config: LocalConfig) -> int:
    """Zariski tangent dimension at a stable point with this configuration.

    All-special points: g_n + sum min(h, n-h) * b_{n-1}.  For n = 3 any
    configuration is allowed: g_3 + beta_2 + sum min(b_1, b_2 - b_1).
    """
    n = cp.n
    if config.n != n:
        raise DomainError("configuration multiplicity differs from the curve's")
    if n != 3 and not config.all_special():
        raise UnsupportedConfig(
            "no tangent formula for a non-single-jump point when n != 3")
    return genus(cp, n) + sum(_tangent_term(n, pt) for pt in config.points)


def tangent_dimension_vector_bundle(cp: CurveParams, h0_end_twist: int | None = None) -> int:
    """Tangent dimension at a stable rank-n bundle on the reduced curve."""
    if cp.n < 2:
        raise DomainError("rank-n bundle tangent formula needs n >= 2")
    if cp.delta > 2 * cp.g1 - 2:
        return cp.n**2 * cp.delta + 1
    if h0_end_twist is None:
        raise MissingInput(
            "delta <= 2 g1 - 2: h0(End E tensor the dual conormal) is required")
    return cp.n**2 * (cp.g1 - 1) + 1 + h0_end_twist


@dataclass(frozen=True)
class BlowupFlags:
    direct_image_of_line_bundle: bool
    blowup_is_pmc: bool


def blowup_predicates(n: int, point: PointIndices) -> BlowupFlags:
    """Whether the stalk descends to a line bundle on the blow-up, and whether
    the blow-up is again a primitive multiple curve."""
    b = point.b
    if len(b) != n - 1:
        raise DomainError("point multiplicity differs from n")
    if n == 3:
        return BlowupFlags(2 * b[0] <= b[1], 2 * b[0] >= b[1])
    if point.special:
        h = point.jump
        return BlowupFlags(2 * h >= n, h == 1)
    if point.monomial:
        ext = (0,) + b
        first = all(
            ext[j] + ext[i] <= ext[j + i]
            for j in range(1, n - 1)
            for i in range(j, n - j)
        )
        second = all(i * ext[1] >= ext[i] for i in range(2, n))
        return BlowupFlags(first, second)
    raise UnsupportedConfig(
        "blow-up predicates need n = 3, or a single-jump or monomial point")


def blowup_genus(cp: CurveParams, config: LocalConfig) -> int:
    """Genus of the blow-up along an all-special configuration."""
    if not config.all_special():
        raise UnsupportedConfig("blow-up genus needs an all-special configuration")
    return genus(cp, cp.n) - sum(_tangent_term(cp.n, pt) for pt in config.points)


# -- deformation moves -----------------------------------------------------


@dataclass(frozen=True)
class MoveSpec:
    """kind in {split, shrink, absorb, subtract, pair, dual_pair}; `point` is
    an index into config.points; `jvec` only for subtract."""

    kind: str
    point: int
    jvec: tuple[int, ...] | None = None


def _valid_jvec(b: tuple[int, ...], jvec: tuple[int, ...], n: int) -> bool:
    if len(jvec) != n - 1 or not any(jvec):
        return False
    if any(j < 0 for j in jvec) or any(jvec[i] > jvec[i + 1] for i in range(n - 2)):
        return False
    if sum(jvec) % n != 0:
        return False
    new = [bi - ji for bi, ji in zip(b, jvec)]
    prev = 0
    for v in new:
        if v < prev or v < 0:
            return False
        prev = v
    return True


def apply_move(config: LocalConfig, move: MoveSpec) -> LocalConfig:
    """Configuration of the generization produced by the named deformation."""
    n = config.n
    if not 0 <= move.point < len(config.points):
        raise MoveNotApplicable(f"no point with index {move.point}")
    pt = config.points[move.point]
    rest = list(config.points[: move.point]) + list(config.points[move.point + 1 :])

    if move.kind == "split":
        if pt.special:
            raise MoveNotApplicable("split applies to a point with at least two jumps")
        ext = (0,) + pt.b
        for j in range(1, n):
            d = ext[j] - ext[j - 1]
            if d > 0:
                rest.append(special_point(n, j, d, monomial=pt.monomial))
    elif move.kind == "shrink":
        if not pt.special or pt.value < 2:
            raise MoveNotApplicable("shrink needs a single-jump point of value >= 2")
        h = pt.jump
        rest.append(special_point(n, h, pt.value - 1, monomial=pt.monomial))
        rest.append(special_point(n, h, 1, monomial=pt.monomial))
    elif move.kind == "absorb":
        if not (pt.special and pt.monomial):
            raise MoveNotApplicable("absorb needs a monomial single-jump point")
        h = pt.jump
        k = n // math.gcd(n, h)
        if pt.value < k:
            raise MoveNotApplicable(f"absorb needs value >= n/gcd(n,h) = {k}")
        if pt.value > k:
            rest.append(special_point(n, h, pt.value - k, monomial=True))
    elif move.kind == "subtract":
        if not pt.monomial:
            raise MoveNotApplicable("subtract needs a monomial point")
        if move.jvec is None or not _valid_jvec(pt.b, move.jvec, n):
            raise MoveNotApplicable(f"invalid subtraction vector {move.jvec} for {pt.b}")
        new = tuple(bi - ji for bi, ji in zip(pt.b, move.jvec))
        if any(new):
            rest.append(PointIndices(new, monomial=True))
    elif move.kind == "pair":
        if n < 3 or not pt.monomial or pt.b[0] < 2:
            raise MoveNotApplicable("pair needs n >= 3 and a monomial point with b_1 >= 2")
        new = tuple(v - 2 for v in pt.b)
        if any(new):
            rest.append(PointIndices(new, monomial=True))
        rest.append(special_point(n, 2, 1, monomial=(n == 3)))
    elif move.kind == "dual_pair":
        if n < 3 or not pt.dual_monomial:
            raise MoveNotApplicable("dual_pair needs n >= 3 and the dual of a monomial point")
        if dual_indices(pt.b)[0] < 2:
            raise MoveNotApplicable("dual_pair needs b_{n-1} - b_{n-2} >= 2")
        new = pt.b[:-1] + (pt.b[-1] - 2,)
        if any(new):
            rest.append(PointIndices(new, dual_monomial=True))
        rest.append(special_point(n, n - 2, 1, monomial=(n == 3)))
    else:
        raise MoveNotApplicable(f"unknown move kind {move.kind!r}")

    return LocalConfig(n, tuple(rest))


def _candidate_moves(config: LocalConfig):
    n = config.n
    for k, pt in enumerate(config.points):
        if not pt.special:
            yield MoveSpec("split", k)
        if pt.special and pt.value >= 2:
            yield MoveSpec("shrink", k)
        if pt.special and pt.monomial and pt.value >= n // math.gcd(n, pt.jump):
            yield MoveSpec("absorb", k)
        if pt.monomial:
            for jvec in _iter_jvecs(pt.b, n):
                yield MoveSpec("subtract", k, jvec)
            if n >= 3 and pt.b[0] >= 2:
                yield MoveSpec("pair", k)
        if pt.dual_monomial and n >= 3 and dual_indices(pt.b)[0] >= 2:
            yield MoveSpec("dual_pair", k)


def _iter_jvecs(b: tuple[int, ...], n: int):
    return (jv for jv in itertools.combinations_with_replacement(range(b[-1] + 1), n - 1)
            if _valid_jvec(b, jv, n))


# -- connectivity -----------------------------------------------------------


@dataclass(frozen=True)
class ConnectivityResult:
    labels: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    component_count: int
    components: tuple[tuple[tuple[int, ...], ...], ...]
    truncated: bool  # a new configuration was left unexplored by a cap
    configs_visited: int


def _seed_configs(n: int, beta) -> list[LocalConfig]:
    if not any(beta):
        return [LocalConfig(n, ())]
    seeds = [generic_config(n, beta), LocalConfig(n, (PointIndices(beta, monomial=True),))]
    seeds.append(LocalConfig(n, (PointIndices(beta, dual_monomial=True),)))
    return seeds


# Cap on the configurations `connectivity` visits; the search also stops
# n times the largest index moves away from a seed.
MAX_CONFIGS = 200_000


def connectivity(cp: CurveParams) -> ConnectivityResult:
    """Connected components of the label graph proven by the deformation moves.

    A count above 1 means 'not proven connected by these moves', never a
    disconnectedness proof; `truncated` says whether a cap cut the search.
    """
    comps = enumerate_components(cp)
    labels = [c.beta for c in comps]
    labelset = set(labels)
    if not labels:
        return ConnectivityResult((), (), 0, (), False, 0)

    parent = {lbl: lbl for lbl in labels}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    max_depth = cp.n * max((b[-1] for b in labels if b), default=0)
    edges = set()
    visited = set()
    truncated = False
    queue: list[tuple[LocalConfig, int]] = []
    for lbl in labels:
        for cfg in _seed_configs(cp.n, lbl):
            key = cfg.canonical()
            if key not in visited:
                visited.add(key)
                queue.append((cfg, 0))
    while queue:
        cfg, depth = queue.pop()
        lbl = cfg.global_indices()
        for move in _candidate_moves(cfg):
            try:
                nxt = apply_move(cfg, move)
            except MoveNotApplicable:
                continue
            lbl2 = nxt.global_indices()
            if lbl2 not in labelset:
                continue
            if lbl2 != lbl:
                edges.add(tuple(sorted((lbl, lbl2))))
                union(lbl, lbl2)
            key = nxt.canonical()
            if key in visited:
                continue
            if depth + 1 > max_depth or len(visited) >= MAX_CONFIGS:
                truncated = True
                continue
            visited.add(key)
            queue.append((nxt, depth + 1))

    groups: dict = {}
    for lbl in labels:
        groups.setdefault(find(lbl), []).append(lbl)
    comps_sorted = tuple(tuple(sorted(g)) for g in sorted(groups.values()))
    return ConnectivityResult(tuple(labels), tuple(sorted(edges)), len(groups), comps_sorted,
                              truncated, len(visited))


def write_dot(result: ConnectivityResult) -> str:
    def name(beta):
        return "b_" + "_".join(str(v) for v in beta) if beta else "b_free"

    lines = ["graph components {"]
    for beta in result.labels:
        label = "(" + ",".join(str(v) for v in beta) + ")"
        lines.append(f'  {name(beta)} [label="{label}"];')
    for a, b in result.edges:
        lines.append(f"  {name(a)} -- {name(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- the multiplicity-3 conjecture report -----------------------------------


def rigid_type_pairs(degree: int, delta: int) -> list[tuple[int, int]]:
    """(d0, d1) with d0 + d1 = D and (d0 - 3 delta)/2 < d1 < d0/2."""
    out = []
    lo = degree - 3 * delta  # 3 d1 > D - 3 delta and 3 d1 < D
    for d1 in range(math.floor(lo / 3) + 1, math.ceil(degree / 3)):
        if 3 * d1 > lo and 3 * d1 < degree:
            out.append((degree - d1, d1))
    return out


def conjecture_report_n3(cp: CurveParams) -> dict:
    """Conjectural full component list for multiplicity 3; the proven
    generalized-line-bundle components plus, for small delta, the rank-3
    bundle component and the rigid-type loci (both flagged conjectural)."""
    if cp.n != 3:
        raise DomainError("the conjecture report is specific to multiplicity 3")
    if cp.g1 < 2 or cp.delta <= 0:
        raise DomainError("the conjecture report needs g1 >= 2 and delta > 0")
    comps = enumerate_components(cp)
    small_delta = cp.delta <= 2 * (cp.g1 - 1)
    report = {
        "schema": 1,
        "n": 3,
        "g1": cp.g1,
        "delta": cp.delta,
        "degree": cp.degree,
        "genus": genus(cp, 3),
        "glb_components": [c.to_json_dict() for c in comps],
        "vector_bundle_component": {
            "present": small_delta,
            "dimension": 9 * (cp.g1 - 1) + 1,
            "conjectural": True,
        },
        "rigid_type_loci": [
            {
                "d0": d0,
                "d1": d1,
                "dimension": 1 + 2 * cp.delta + 5 * (cp.g1 - 1),
                "conjectural": True,
            }
            for d0, d1 in (rigid_type_pairs(cp.degree, cp.delta) if small_delta else [])
        ],
    }
    return report
