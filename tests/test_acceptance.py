"""Acceptance criteria, one test per criterion.

Every assertion is exact (integer arithmetic or exact mod-p linear algebra);
the only tolerances are the per-criterion wall-clock budgets, asserted at
the stated limits.  Run with `pytest tests/test_acceptance.py -s` to see one
PASS line per criterion.
"""

import random
import time
from fractions import Fraction

from helpers import ext1_n3_closed_form, ext1_special_closed_form

from multicurve.ext import local_ext1_length
from multicurve.invariants import (
    CurveParams,
    deg_pure_quotient,
    deg_second_filtration,
    dual_indices,
    genus,
)
from multicurve.moduli import (
    connectivity,
    enumerate_components,
    generic_config,
    iter_monotone_sum_below,
    tangent_dim_generic,
    tangent_dimension_vector_bundle,
)
from multicurve.modules import (
    dual_module_oracle,
    indices,
    indices_by_definition,
    is_isomorphic_oracle,
    span_from_generators,
)
from multicurve.normal_form import (
    ideal_from_indices,
    iter_normal_forms,
    make_special_form,
    special_ideal,
)
from multicurve.ring import RingParams, parse_elem, required_precision
from multicurve.stability import check_stability, jh_filtration


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds}s ({elapsed:.1f}s)"
            print(f"PASS {self.name} ({elapsed:.2f}s)")
        else:
            print(f"FAIL {self.name} ({elapsed:.2f}s)")
        return False


def test_criterion_1_component_classification():
    with _Budget("criterion 1: n=3 delta=1 component classification", 1.0):
        for residue, expected in ((1, (0, 1)), (2, (1, 1))):
            for D in (residue, residue + 3, residue - 3):
                comps = enumerate_components(CurveParams(3, 2, 1, D))
                assert [c.beta for c in comps] == [expected]
                assert comps[0].dimension == genus(CurveParams(3, 2, 1, D), 3)


def test_criterion_2_alpha_twist_not_isomorphic():
    with _Budget("criterion 2: alpha-twisted ideal is a distinct class", 10.0):
        for p in (2, 3):
            par = RingParams(3, 14, p)
            twisted = span_from_generators(
                [parse_elem(t, par) for t in ("x^2 + y", "x*y", "y^2")])
            monomial = span_from_generators(
                [parse_elem(t, par) for t in ("x^2", "x*y", "y^2")])
            assert indices(twisted) == indices(monomial) == (1, 2)
            assert is_isomorphic_oracle(twisted, monomial) == "no"


def test_criterion_3_ext_oracle_grid():
    with _Budget("criterion 3: Ext oracle equals closed forms on the grid", 120.0):
        for p in (2, 3):
            for n in (2, 3, 4, 5):
                par = RingParams(n, required_precision(n, 3), p)
                for h in range(1, n):
                    for b in (1, 2, 3):
                        I = special_ideal(make_special_form(n, b, h), par)
                        assert local_ext1_length(I) == ext1_special_closed_form(n, h, b)
        for p in (2, 3):
            par = RingParams(3, required_precision(3, 3), p)
            for form in iter_normal_forms(3, 3, p):
                if not any(form.beta):
                    continue
                I = ideal_from_indices(form, par)
                assert local_ext1_length(I) == ext1_n3_closed_form(*form.beta)


def test_criterion_4_degree_additivity_fuzz():
    with _Budget("criterion 4: pure-quotient/sub-filtration degree additivity", 5.0):
        rng = random.Random(20260810)
        for _ in range(10_000):
            n = rng.randint(2, 8)
            beta = tuple(sorted(rng.randint(0, 8) for _ in range(n - 1)))
            cp = CurveParams(n, rng.randint(0, 4), rng.randint(0, 5), rng.randint(-12, 12))
            for i in range(1, n):
                total = deg_pure_quotient(cp, beta, i) + deg_second_filtration(cp, beta, n - i)
                assert total == cp.degree


def test_criterion_5_index_algorithm_agreement():
    with _Budget("criterion 5: exhaustive two-algorithm index agreement", 180.0):
        count = 0
        for n in (2, 3, 4):
            par = RingParams(n, required_precision(n, 2), 2)
            for form in iter_normal_forms(n, 2, 2):
                I = ideal_from_indices(form, par)
                # indices() and indices_by_definition() each recompute at N+2
                # internally and hard-fail unless stable.
                assert indices(I) == indices_by_definition(I) == form.beta
                count += 1
        assert count == 57


def test_criterion_6_duality():
    with _Budget("criterion 6: dual oracle agreement and involution", 180.0):
        for n in (2, 3, 4):
            par = RingParams(n, required_precision(n, 2), 2)
            for form in iter_normal_forms(n, 2, 2):
                I = ideal_from_indices(form, par)
                assert indices(dual_module_oracle(I)) == dual_indices(form.beta)
        for n in range(2, 9):
            for beta in iter_monotone_sum_below(n - 1, 8 * (n - 1)):
                if beta and max(beta) > 8:
                    continue
                assert dual_indices(dual_indices(beta)) == beta


def test_criterion_7_connectivity():
    with _Budget("criterion 7: connectivity counts", 60.0):
        for delta in (1, 2, 3, 4):
            for D in (0, 1, 2):
                assert connectivity(CurveParams(3, 2, delta, D)).component_count == 1
        for D in range(4):
            assert connectivity(CurveParams(4, 2, 3, D)).component_count == 1
        for delta in (1, 2):
            for D in range(4):
                count = connectivity(CurveParams(4, 2, delta, D)).component_count
                if D % 2 == 0:
                    assert count == 1
                else:
                    assert count <= 2
        for n in (2, 3, 4):
            for delta in (1, 2, 3):
                for D in range(n):
                    count = connectivity(CurveParams(n, 2, delta, D)).component_count
                    assert count <= max(n ** (n - 2), 1)


def test_criterion_8_tangent_abel_identity():
    with _Budget("criterion 8: per-point vs closed-form generic tangent", 5.0):
        for n in range(2, 9):
            cp = CurveParams(n, 2, 1, 0)
            g_n = genus(cp, n)
            for beta in iter_monotone_sum_below(n - 1, 6 * (n - 1) + 1):
                if beta and max(beta) > 6:
                    continue
                cfg = generic_config(n, beta)
                per_point = g_n + sum(min(pt.jump, n - pt.jump) * pt.value
                                      for pt in cfg.points)
                closed = tangent_dim_generic(cp, beta)
                assert per_point == closed
                assert (closed == g_n) == (not any(beta))


def test_criterion_9_jordan_holder_suite():
    with _Budget("criterion 9: Jordan-Holder factors of strictly semistable vectors", 10.0):
        found = 0
        for n in range(2, 7):
            for delta in (1, 2, 3):
                bound = n * (n - 1) // 2 * delta + 1
                for beta in iter_monotone_sum_below(n - 1, bound):
                    probe = check_stability(CurveParams(n, 2, delta, 0), beta)
                    if not (probe.semistable and probe.equality_positions):
                        continue
                    found += 1
                    dual = check_stability(CurveParams(n, 2, delta, 0), dual_indices(beta))
                    assert dual.equality_positions == tuple(
                        sorted(n - i for i in probe.equality_positions))
                    for D in (0, 1, n + 2):
                        cp = CurveParams(n, 2, delta, D)
                        fil = jh_filtration(cp, beta)
                        assert sum((f.degree for f in fil.graded), Fraction(0)) == D
                        assert all(f.slope == Fraction(D, n) for f in fil.graded)
        assert found > 50  # the range genuinely exercises non-trivial filtrations


def test_criterion_10_genus_spot_checks():
    with _Budget("criterion 10: genus and vector-bundle tangent spot checks", 1.0):
        assert genus(CurveParams(3, 2, 1, 0), 3) == 7
        for g1 in (2, 3, 7):
            assert genus(CurveParams(3, g1, 2 * g1 - 2, 0), 3) == 9 * g1 - 8
        for delta in (3, 5, 9):
            cp = CurveParams(3, 2, delta, 0)
            assert delta > 2 * cp.g1 - 2
            assert tangent_dimension_vector_bundle(cp) == 9 * delta + 1
