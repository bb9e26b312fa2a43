"""Property suites behind the `verify` CLI command.

Each suite returns (checks_run, failures); a failure is a short witness
string with enough parameters to replay it.  All randomness is drawn from
an explicit seed for reproducible runs.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import ext as ext_mod
from . import moduli as mo
from . import modules as md
from . import normal_form as nf
from .invariants import (
    CurveParams,
    deg_pure_quotient,
    deg_second_filtration,
    dual_indices,
    genus,
    sub_indices,
)
from .ring import UNIT, RingElem, RingParams, classify_element, required_precision
from .stability import check_stability, dual_stability_check, jh_filtration


def _random_elem(rng: random.Random, params: RingParams) -> RingElem:
    grid = [[rng.randrange(params.p) if rng.random() < 0.4 else 0
             for _ in range(params.N)] for _ in range(params.n)]
    return RingElem(params, grid)


def suite_ring(seed: int) -> tuple[int, list[str]]:
    checks, failures = 0, []
    rng = random.Random(seed)
    for p in (2, 3, 5):
        params = RingParams(3, 8, p)
        one = RingElem.one(params)
        for trial in range(120):
            f, g, h = (_random_elem(rng, params) for _ in range(3))
            checks += 4
            if f * g != g * f:
                failures.append(f"commutativity p={p} trial={trial}")
            if (f * g) * h != f * (g * h):
                failures.append(f"associativity p={p} trial={trial}")
            if f * one != f:
                failures.append(f"identity p={p} trial={trial}")
            if f * (g + h) != f * g + f * h:
                failures.append(f"distributivity p={p} trial={trial}")
            if not f.is_zero() and not g.is_zero():
                checks += 1
                fg = f * g
                both_units = classify_element(f) == UNIT and classify_element(g) == UNIT
                if not fg.is_zero() and (classify_element(fg) == UNIT) != both_units:
                    failures.append(f"unit multiplicativity p={p} trial={trial}")
            checks += 1
            if (f * g).y_valuation() < min(f.y_valuation() + g.y_valuation(), params.n):
                failures.append(f"y-valuation superadditivity p={p} trial={trial}")
    return checks, failures


def suite_indices(seed: int) -> tuple[int, list[str]]:
    checks, failures = 0, []
    for n in (2, 3):
        params = RingParams(n, required_precision(n, 2), 2)
        for form in nf.iter_normal_forms(n, 2, 2):
            I = nf.ideal_from_indices(form, params)
            got = md.indices(I)
            by_def = md.indices_by_definition(I)
            checks += 1
            if not (got == by_def == form.beta):
                failures.append(f"index agreement n={n} form={form} got={got}/{by_def}")
    return checks, failures


def suite_duality(seed: int) -> tuple[int, list[str]]:
    checks, failures = 0, []
    rng = random.Random(seed)
    for n in range(2, 9):
        for _ in range(60):
            beta = tuple(sorted(rng.randrange(9) for _ in range(n - 1)))
            checks += 1
            if dual_indices(dual_indices(beta)) != beta:
                failures.append(f"dual involution beta={beta}")
            for i in range(2, n):
                checks += 1
                dual = (0,) + dual_indices(beta)  # dual[k] = beta_k of the dual
                lhs = sub_indices(beta, i)
                rhs = tuple(dual[i - 1] - dual[i - j - 1] for j in range(1, i))
                if lhs != rhs:
                    failures.append(f"sub/dual compatibility beta={beta} i={i}")
    for n, top in ((2, 2), (3, 2), (4, 1)):
        params = RingParams(n, required_precision(n, top), 2)
        for form in nf.iter_normal_forms(n, top, 2):
            I = nf.ideal_from_indices(form, params)
            dual = md.dual_module_oracle(I)
            checks += 2
            if md.indices(dual) != dual_indices(form.beta):
                failures.append(f"dual oracle n={n} form={form}")
            # maximal Cohen-Macaulay modules over the Gorenstein ring R are reflexive
            if md.is_isomorphic_oracle(I, md.dual_module_oracle(dual)) != "yes":
                failures.append(f"double dual n={n} form={form}")
    return checks, failures


def suite_stability(seed: int) -> tuple[int, list[str]]:
    checks, failures = 0, []
    for n in range(2, 6):
        for delta in range(0, 4):
            bound = max(n * (n - 1) // 2 * delta + n, n + 2)
            for beta in mo.iter_monotone_sum_below(n - 1, bound):
                cp = CurveParams(n, 2, delta, n + sum(beta))
                checks += 1
                try:
                    dual_stability_check(cp, beta)
                except Exception as exc:  # noqa: BLE001 - report as witness
                    failures.append(f"dual stability n={n} delta={delta} beta={beta}: {exc}")
                    continue
                verdict = check_stability(cp, beta)
                if delta == 0 and verdict.semistable != (not any(beta)):
                    failures.append(f"delta=0 degenerate case beta={beta}")
                if verdict.semistable and verdict.equality_positions:
                    D = cp.degree
                    jh = jh_filtration(cp, beta)
                    checks += 1
                    if any(f.slope != Fraction(D, n) for f in jh.graded):
                        failures.append(f"JH slope n={n} delta={delta} beta={beta} D={D}")
                    if sum((f.degree for f in jh.graded), Fraction(0)) != D:
                        failures.append(f"JH degree sum n={n} delta={delta} beta={beta}")
    return checks, failures


def suite_ext(seed: int) -> tuple[int, list[str]]:
    cases = []  # (witness, stalk, whether to compare with the dual's length)
    for n in (2, 3, 4):
        params = RingParams(n, required_precision(n, 2), 2)
        cases += [(f"special n={n} j={j} b={b}", nf.special_ideal(nf.make_special_form(n, b, j), params), False)
                  for j in range(1, n) for b in (1, 2)]
    params = RingParams(3, required_precision(3, 2), 2)
    cases += [(f"n=3 form={form}", nf.ideal_from_indices(form, params), False)
              for form in nf.iter_normal_forms(3, 2, 2) if any(form.beta)]
    # no closed form beyond n = 3: Hom(-, R) is an exact duality on maximal
    # Cohen-Macaulay modules over the Gorenstein ring R, so I and I* agree
    params = RingParams(4, required_precision(4, 1), 2)
    cases += [(f"duality n=4 form={form}", nf.ideal_from_indices(form, params), True)
              for form in nf.iter_normal_forms(4, 1, 2) if any(form.beta)]
    failures = []
    for label, I, dual in cases:
        try:
            length = ext_mod.local_ext1_length(I)
            if dual and length != ext_mod.local_ext1_length(md.dual_module_oracle(I)):
                failures.append(f"ext {label}")
        except Exception as exc:  # noqa: BLE001 - report as witness
            failures.append(f"ext {label}: {exc}")
    return len(cases), failures


def suite_moduli(seed: int) -> tuple[int, list[str]]:
    checks, failures = 0, []
    rng = random.Random(seed)
    # Abel identity: per-point generic tangent == closed form
    for n in range(2, 9):
        for _ in range(40):
            beta = tuple(sorted(rng.randrange(7) for _ in range(n - 1)))
            cp = CurveParams(n, 2, 1, 0)
            cfg = mo.generic_config(n, beta)
            per_point = genus(cp, n) + sum(
                min(pt.jump, n - pt.jump) * pt.value for pt in cfg.points)
            checks += 1
            if per_point != mo.tangent_dim_generic(cp, beta):
                failures.append(f"Abel identity n={n} beta={beta}")
            checks += 1
            if (mo.tangent_dim_generic(cp, beta) == genus(cp, n)) != (not any(beta)):
                failures.append(f"tangent=g_n iff beta=0 fails n={n} beta={beta}")
    # degree additivity
    for _ in range(400):
        n = rng.randrange(2, 9)
        beta = tuple(sorted(rng.randrange(9) for _ in range(n - 1)))
        cp = CurveParams(n, 2, rng.randrange(6), rng.randrange(-12, 13))
        i = rng.randrange(1, n)
        checks += 1
        if deg_pure_quotient(cp, beta, i) + deg_second_filtration(cp, beta, n - i) != cp.degree:
            failures.append(f"degree additivity n={n} beta={beta} i={i}")
    # connectivity bounds
    for n, delta_max in ((2, 3), (3, 2)):
        for delta in range(1, delta_max + 1):
            for D in range(n):
                res = mo.connectivity(CurveParams(n, 2, delta, D))
                checks += 1
                if res.component_count > max(n ** (n - 2), 1):
                    failures.append(f"connectivity bound n={n} delta={delta} D={D}")
                if res.component_count > 1:
                    failures.append(f"n<=3 connectivity n={n} delta={delta} D={D}")
    # generic z-locus dimension
    for n in (2, 3, 4):
        cp = CurveParams(n, 2, 2, n * (n - 1) // 2 * 2)
        for comp in mo.enumerate_components(cp):
            checks += 1
            if mo.z_locus_dimension(cp, comp.generic_config) != genus(cp, n):
                failures.append(f"generic z-locus n={n} beta={comp.beta}")
    return checks, failures


def suite_iso(seed: int) -> tuple[int, list[str]]:
    """The isomorphism oracle against the two canonical keys: z for
    single-jump stalks (`normalize_special`) and the reduced alpha for n = 3,
    alpha_(3,1) cut to min(b1, b2 - b1) coefficients."""
    checks, failures = 0, []
    rng = random.Random(seed)
    for n in (3, 4, 5):
        b, p = (2, 3) if n == 3 else (1, 2 if n == 5 else 3)
        par = RingParams(n, required_precision(n, b), p)

        def elem(unit=False):
            grid = [[rng.randrange(p) for _ in range(par.N)] for _ in range(n)]
            grid[0][0] = grid[0][0] or int(unit)
            return RingElem(par, grid)

        for j in range(1, n):
            def grid():
                return [[rng.randrange(p) for _ in range(b)] for _ in range(nf.jbar(n, j))]

            z, z_partner = grid(), grid()
            source = nf.special_ideal(nf.make_special_form(n, b, j, z), par)
            partner = nf.special_ideal(nf.make_special_form(n, b, j, z_partner), par)
            # generators u1*x*(lead + a*y^j) and u2*x*y^j for units u1, u2
            x, yj = RingElem.monomial(par, 1, 1, 0), RingElem.monomial(par, 1, 0, j)
            lead = source.gens[0][0]
            copy = md.span_from_generators([elem(True) * x * (lead + elem() * yj), elem(True) * x * yj])
            for label, other in (("source", source), ("partner", partner)):
                checks += 1
                iso = md.is_isomorphic_oracle(copy, other) == "yes"
                if iso != (nf.normalize_special(copy) == nf.normalize_special(other)):
                    failures.append(f"iso vs z key n={n} b={b} j={j} p={p} z={z} z'={z_partner} {label} seed={seed}")
    par = RingParams(3, required_precision(3, 2), 3)
    by_beta: dict[tuple[int, ...], list] = {}
    for form in nf.iter_normal_forms(3, 2, 3):
        cut = min(form.beta[0], form.beta[1] - form.beta[0])
        key = dict(form.alpha).get((3, 1), (0,) * cut)[:cut]
        by_beta.setdefault(form.beta, []).append((form, key, nf.ideal_from_indices(form, par)))
    for forms in by_beta.values():
        for (fa, ka, Ia), (fb, kb, Ib) in itertools.combinations(forms, 2):
            checks += 1
            if (md.is_isomorphic_oracle(Ia, Ib) == "yes") != (ka == kb):
                failures.append(f"iso vs reduced alpha n=3 p=3 {fa.to_json()} {fb.to_json()}")
    return checks, failures


SUITES = {
    "ring": suite_ring,
    "indices": suite_indices,
    "duality": suite_duality,
    "stability": suite_stability,
    "ext": suite_ext,
    "moduli": suite_moduli,
    "iso": suite_iso,
}


def run_suites(names, seed: int = 0):
    """Yield (name, checks, failures) for each requested suite."""
    for name in names:
        yield (name, *SUITES[name](seed))
