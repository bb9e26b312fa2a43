import pytest

from multicurve import moduli
from multicurve.errors import (
    DomainError,
    MissingInput,
    MoveNotApplicable,
    NoStableObjects,
    UnsupportedConfig,
)
from multicurve.invariants import CurveParams, dual_indices, genus
from multicurve.moduli import (
    LocalConfig,
    MoveSpec,
    PointIndices,
    apply_move,
    blowup_genus,
    blowup_predicates,
    connectivity,
    conjecture_report_n3,
    degree_congruence_ok,
    describe_component,
    enumerate_components,
    generic_config,
    iter_monotone_sum_below,
    rigid_type_pairs,
    special_point,
    tangent_dim_generic,
    tangent_dimension,
    tangent_dimension_vector_bundle,
    write_dot,
    z_locus_dimension,
)


class TestEnumerateComponents:
    def test_multiplicity_three_delta_one(self):
        for D, beta in ((1, (0, 1)), (2, (1, 1))):
            comps = enumerate_components(CurveParams(3, 2, 1, D))
            assert len(comps) == 1
            c = comps[0]
            assert c.beta == beta
            assert c.dimension == 7
            assert c.tangent_dim_generic == 8
            assert c.divisibility_ok

    def test_ribbon_parity(self):
        comps = enumerate_components(CurveParams(2, 2, 5, 0))
        assert [c.beta for c in comps] == [(1,), (3,)]

    def test_line_bundle_component_presence(self):
        # whenever n | D - n(n-1)/2 delta the zero vector is admissible
        for n, delta in ((3, 2), (4, 1), (5, 2)):
            D = n * (n - 1) // 2 * delta
            comps = enumerate_components(CurveParams(n, 2, delta, D))
            assert (0,) * (n - 1) in [c.beta for c in comps]

    def test_exhaustive_within_sum_bound(self):
        cp = CurveParams(3, 2, 2, 0)
        betas = {c.beta for c in enumerate_components(cp)}
        bound = 3 * 2 // 1 * 2 // 2 * 2  # n(n-1)/2 * delta = 6
        for beta in iter_monotone_sum_below(2, 6):
            from multicurve.stability import check_stability
            expected = check_stability(cp, beta).stable and degree_congruence_ok(cp, beta)
            assert (beta in betas) == expected

    def test_requires_positive_delta(self):
        with pytest.raises(NoStableObjects):
            enumerate_components(CurveParams(3, 2, 0, 0))

    def test_describe_rejects_unstable(self):
        with pytest.raises(DomainError):
            describe_component(CurveParams(3, 2, 1, 0), (0, 4))


class TestZLocus:
    def test_generic_config_has_full_dimension(self):
        cp = CurveParams(3, 2, 1, 1)
        comp = enumerate_components(cp)[0]
        assert z_locus_dimension(cp, comp.generic_config) == genus(cp, 3)

    def test_two_point_example(self):
        cp = CurveParams(3, 2, 3, 4)  # beta = (1,3): divisible (4 + 9 - 4 = 9)
        cfg = LocalConfig(3, (special_point(3, 1, 1), special_point(3, 2, 2)))
        assert degree_congruence_ok(cp, cfg.global_indices())
        assert z_locus_dimension(cp, cfg) == genus(cp, 3) - 3 + 2

    def test_single_point(self):
        cp = CurveParams(4, 2, 3, 2)  # beta = (0,0,2): 2 + 18 - 2 = 18 not div by 4
        cfg = LocalConfig(4, (special_point(4, 3, 2),))
        assert z_locus_dimension(cp, cfg) is None  # empty-locus signal
        cp2 = CurveParams(4, 2, 3, 0)  # 0 + 18 - 2 = 16, divisible
        assert z_locus_dimension(cp2, cfg) == genus(cp2, 4) - 2 + 1

    def test_rejects_non_special(self):
        cp = CurveParams(4, 2, 3, 0)
        with pytest.raises(UnsupportedConfig):
            z_locus_dimension(cp, LocalConfig(4, (PointIndices((1, 2, 3)),)))


class TestTangent:
    def test_generic_closed_form_matches_per_point(self):
        for n in range(2, 9):
            cp = CurveParams(n, 2, 1, 0)
            for beta in iter_monotone_sum_below(n - 1, 7):
                if beta and max(beta, default=0) > 6:
                    continue
                cfg = generic_config(n, beta)
                per_point = genus(cp, n) + sum(
                    min(pt.jump, n - pt.jump) * pt.value for pt in cfg.points)
                assert per_point == tangent_dim_generic(cp, beta)

    def test_reduced_iff_line_bundle(self):
        for n in range(2, 9):
            cp = CurveParams(n, 2, 1, 0)
            for beta in iter_monotone_sum_below(n - 1, 7):
                equal = tangent_dim_generic(cp, beta) == genus(cp, n)
                assert equal == (not any(beta))

    def test_multiplicity_three_general_point(self):
        cp = CurveParams(3, 2, 1, 1)
        cfg = LocalConfig(3, (PointIndices((1, 2)),))
        assert tangent_dimension(cp, cfg) == genus(cp, 3) + 2 + 1

    def test_multiplicity_three_formulas_agree_on_special(self):
        cp = CurveParams(3, 2, 1, 1)
        for j, b in ((1, 1), (1, 3), (2, 1), (2, 4)):
            cfg = LocalConfig(3, (special_point(3, j, b),))
            by_special = genus(cp, 3) + min(j, 3 - j) * b
            assert tangent_dimension(cp, cfg) == by_special

    def test_higher_multiplicity_needs_special(self):
        cp = CurveParams(4, 2, 1, 0)
        with pytest.raises(UnsupportedConfig):
            tangent_dimension(cp, LocalConfig(4, (PointIndices((1, 2, 3)),)))

    def test_vector_bundle_cases(self):
        assert tangent_dimension_vector_bundle(CurveParams(3, 2, 5, 0)) == 46
        assert tangent_dimension_vector_bundle(CurveParams(2, 2, 1, 0), 3) == 8
        with pytest.raises(MissingInput):
            tangent_dimension_vector_bundle(CurveParams(2, 2, 1, 0))
        with pytest.raises(DomainError):
            tangent_dimension_vector_bundle(CurveParams(1, 2, 5, 0))


class TestBlowup:
    def test_multiplicity_three_table(self):
        flags = blowup_predicates(3, PointIndices((0, 2)))
        assert (flags.direct_image_of_line_bundle, flags.blowup_is_pmc) == (True, False)
        flags = blowup_predicates(3, PointIndices((1, 2)))
        assert (flags.direct_image_of_line_bundle, flags.blowup_is_pmc) == (True, True)
        flags = blowup_predicates(3, PointIndices((2, 2)))
        assert (flags.direct_image_of_line_bundle, flags.blowup_is_pmc) == (False, True)

    def test_special_rule(self):
        flags = blowup_predicates(5, special_point(5, 3, 2))
        assert flags.direct_image_of_line_bundle  # 2h = 6 >= 5
        assert not flags.blowup_is_pmc
        flags = blowup_predicates(5, special_point(5, 1, 2))
        assert not flags.direct_image_of_line_bundle
        assert flags.blowup_is_pmc

    def test_monomial_rule(self):
        flags = blowup_predicates(4, PointIndices((1, 2, 3), monomial=True))
        assert flags.direct_image_of_line_bundle  # b_j + b_i <= b_{j+i}
        assert flags.blowup_is_pmc               # i b_1 >= b_i

    def test_unsupported_shape(self):
        with pytest.raises(UnsupportedConfig):
            blowup_predicates(4, PointIndices((1, 2, 3)))

    def test_blowup_genus(self):
        cp = CurveParams(3, 2, 1, 0)
        assert blowup_genus(cp, LocalConfig(3, ())) == genus(cp, 3)
        assert blowup_genus(cp, LocalConfig(3, (special_point(3, 2, 2),))) == genus(cp, 3) - 2
        cp2 = CurveParams(2, 2, 1, 0)
        assert blowup_genus(cp2, LocalConfig(2, (special_point(2, 1, 3),))) == genus(cp2, 2) - 3


class TestMoves:
    def test_split(self):
        cfg = LocalConfig(4, (PointIndices((1, 2, 4), monomial=True),))
        out = apply_move(cfg, MoveSpec("split", 0))
        assert sorted(pt.b for pt in out.points) == [(0, 0, 2), (0, 1, 1), (1, 1, 1)]
        assert all(pt.monomial for pt in out.points)
        assert out.global_indices() == (1, 2, 4)

    def test_split_rejects_single_jump(self):
        cfg = LocalConfig(4, (special_point(4, 2, 3),))
        with pytest.raises(MoveNotApplicable):
            apply_move(cfg, MoveSpec("split", 0))

    def test_shrink(self):
        cfg = LocalConfig(3, (special_point(3, 2, 3),))
        out = apply_move(cfg, MoveSpec("shrink", 0))
        assert sorted(pt.b for pt in out.points) == [(0, 1), (0, 2)]

    def test_absorb(self):
        # monomial single-jump point at j=2 in n=4: k = n/gcd(n,j) = 2
        cfg = LocalConfig(4, (special_point(4, 2, 2, monomial=True),))
        out = apply_move(cfg, MoveSpec("absorb", 0))
        assert [pt.b for pt in out.points] == []  # value 2 - 2 = 0: point vanishes
        cfg2 = LocalConfig(4, (special_point(4, 2, 3, monomial=True),))
        out2 = apply_move(cfg2, MoveSpec("absorb", 0))
        assert [pt.b for pt in out2.points] == [(0, 1, 1)]  # value 3 - 2 = 1

    def test_absorb_preconditions(self):
        cfg = LocalConfig(4, (special_point(4, 2, 1, monomial=True),))
        with pytest.raises(MoveNotApplicable):
            apply_move(cfg, MoveSpec("absorb", 0))  # value 1 < k = 2
        cfg2 = LocalConfig(4, (special_point(4, 2, 2, monomial=False),))
        with pytest.raises(MoveNotApplicable):
            apply_move(cfg2, MoveSpec("absorb", 0))

    def test_subtract(self):
        cfg = LocalConfig(4, (PointIndices((1, 2, 4), monomial=True),))
        out = apply_move(cfg, MoveSpec("subtract", 0, (0, 1, 3)))
        assert [pt.b for pt in out.points] == [(1, 1, 1)]
        with pytest.raises(MoveNotApplicable):
            apply_move(cfg, MoveSpec("subtract", 0, (1, 1, 1)))  # sum not divisible by 4
        with pytest.raises(MoveNotApplicable):
            apply_move(cfg, MoveSpec("subtract", 0, (0, 2, 2)))  # breaks monotone差

    def test_pair_and_dual_pair(self):
        cfg = LocalConfig(3, (PointIndices((2, 3), monomial=True),))
        out = apply_move(cfg, MoveSpec("pair", 0))
        assert sorted(pt.b for pt in out.points) == [(0, 1), (0, 1)]
        dual_cfg = LocalConfig(3, (PointIndices((1, 3), dual_monomial=True),))
        assert dual_indices((1, 3)) == (2, 3)
        out2 = apply_move(dual_cfg, MoveSpec("dual_pair", 0))
        assert sorted(pt.b for pt in out2.points) == [(1, 1), (1, 1)]

    def test_moves_preserve_monotonicity(self):
        cfg = LocalConfig(4, (PointIndices((2, 3, 5), monomial=True),))
        for move in (MoveSpec("split", 0), MoveSpec("pair", 0),
                     MoveSpec("subtract", 0, (1, 1, 2))):
            out = apply_move(cfg, move)
            for pt in out.points:
                assert list(pt.b) == sorted(pt.b)


class TestConnectivity:
    def test_multiplicity_three_always_connected(self):
        for delta in (1, 2, 3, 4):
            for D in (0, 1, 2):
                res = connectivity(CurveParams(3, 2, delta, D))
                assert res.component_count == 1, (delta, D)

    def test_divisible_degree_connected(self):
        for n, delta in ((4, 2), (5, 1)):
            D = n * (n - 1) // 2 * delta
            res = connectivity(CurveParams(n, 2, delta, D))
            assert res.component_count == 1

    def test_multiplicity_four_small_delta(self):
        for delta in (1, 2):
            for D in range(4):
                res = connectivity(CurveParams(4, 2, delta, D))
                if D % 2 == 0:
                    assert res.component_count == 1, (delta, D)
                else:
                    assert res.component_count <= 2, (delta, D)

    def test_multiplicity_four_delta_three_connected(self):
        for D in range(4):
            assert connectivity(CurveParams(4, 2, 3, D)).component_count == 1

    def test_component_count_bound(self):
        for n in (2, 3, 4):
            for delta in (1, 2):
                for D in range(n):
                    res = connectivity(CurveParams(n, 2, delta, D))
                    assert res.component_count <= max(n ** (n - 2), 1)

    def test_complete_search_is_not_truncated(self):
        res = connectivity(CurveParams(4, 2, 2, 0))
        assert not res.truncated
        assert res.configs_visited >= len(res.labels)  # a seed per label at least

    def test_config_cap_reports_truncation(self, monkeypatch):
        cp = CurveParams(4, 2, 2, 0)
        full = connectivity(cp)
        monkeypatch.setattr(moduli, "MAX_CONFIGS", 1)
        res = connectivity(cp)
        assert res.truncated
        assert res.configs_visited < full.configs_visited
        assert res.labels == full.labels

    def test_dot_export(self):
        res = connectivity(CurveParams(3, 2, 2, 0))
        dot = write_dot(res)
        assert dot.startswith("graph components {")
        assert "--" in dot or len(res.labels) <= 1


class TestConjectureReport:
    def test_large_delta_has_no_conjectural_entries(self):
        cp = CurveParams(3, 2, 3, 0)  # delta = 3 > 2(g1-1) = 2
        report = conjecture_report_n3(cp)
        assert not report["vector_bundle_component"]["present"]
        assert report["rigid_type_loci"] == []
        assert report["glb_components"]

    def test_canonical_delta_all_families_same_dimension(self):
        g1 = 3
        cp = CurveParams(3, g1, 2 * g1 - 2, 1)
        report = conjecture_report_n3(cp)
        assert report["genus"] == 9 * g1 - 8
        assert report["vector_bundle_component"]["present"]
        assert report["vector_bundle_component"]["dimension"] == 9 * g1 - 8
        for locus in report["rigid_type_loci"]:
            assert locus["dimension"] == 9 * g1 - 8
            assert locus["conjectural"]
        assert report["rigid_type_loci"]

    def test_window_is_empty_without_conormal_degree(self):
        assert rigid_type_pairs(5, 0) == []

    def test_window_contents(self):
        # D = 0, delta = 2: d1 in (-2, 0) -> d1 = -1
        assert rigid_type_pairs(0, 2) == [(1, -1)]

    def test_requires_multiplicity_three(self):
        with pytest.raises(DomainError):
            conjecture_report_n3(CurveParams(4, 2, 1, 0))
