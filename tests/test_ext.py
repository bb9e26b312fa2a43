import pytest

from helpers import ext1_n3_closed_form, ext1_special_closed_form

from multicurve.errors import DomainError, MissingInput, ShapeError, UnsupportedConfig
from multicurve.ext import (
    ResolutionData,
    build_resolution,
    closed_form_ext1,
    global_ext1_dimension,
    local_ext1_length,
)
from multicurve.invariants import CurveParams, genus
from multicurve.moduli import LocalConfig, PointIndices, special_point
from multicurve.modules import is_isomorphic_oracle, span_from_generators
from multicurve.normal_form import (
    ideal_from_indices,
    make_general_form,
    make_special_form,
    special_ideal,
)
from multicurve.ring import RingElem, RingParams, parse_elem, required_precision


def mod(params, *texts):
    return span_from_generators([parse_elem(t, params) for t in texts])


class TestBuildResolution:
    def test_ribbon_matrix_shape(self):
        par = RingParams(2, 16, 2)
        I = special_ideal(make_special_form(2, 3, 1), par)
        res = build_resolution(I)
        assert res.size == 2
        assert res.M1[0][0] == parse_elem("y", par)
        assert res.M1[0][1] == -parse_elem("x^3", par)
        assert res.M1[1][1] == parse_elem("y", par)
        assert res.f == (parse_elem("y", par), parse_elem("x^3", par))

    def test_jump_two_exponents(self):
        par = RingParams(3, 18, 2)
        I = special_ideal(make_special_form(3, 2, 2), par)
        res = build_resolution(I)
        assert res.M1[0][0] == parse_elem("y", par)    # y^(n-j) with j = 2
        assert res.M1[1][1] == parse_elem("y^2", par)  # y^j

    def test_three_generator_resolution(self):
        par = RingParams(3, 18, 2)
        I = mod(par, "x^2+y", "x*y", "y^2")
        res = build_resolution(I)
        assert res.size == 3
        # complex identities are re-checked on construction; spot the alpha slot
        assert res.M1[0][2] == -parse_elem("1", par)

    def test_complex_property_enforced(self):
        par = RingParams(2, 12, 2)
        y = parse_elem("y", par)
        one = RingElem.one(par)
        with pytest.raises(ShapeError):
            ResolutionData((y, one), ((y, one), (y, y)), ((y, y), (y, y)))

    def test_free_module_rejected(self):
        par = RingParams(3, 18, 2)
        with pytest.raises(ShapeError):
            build_resolution(mod(par, "1"))

    def test_rank_two_rejected(self):
        # x, y and y^2, 0 span a submodule of A^2 (isomorphic to (x, y^2))
        par = RingParams(3, 18, 2)
        x, y, y2 = (parse_elem(t, par) for t in ("x", "y", "y^2"))
        M = span_from_generators([(x, y), (y2, RingElem.zero(par))], params=par, ambient_rank=2)
        with pytest.raises(DomainError):
            build_resolution(M)
        with pytest.raises(DomainError):
            local_ext1_length(M)

    def test_multi_jump_needs_multiplicity_three(self):
        par = RingParams(4, required_precision(4, 3), 2)
        I = ideal_from_indices(make_general_form(4, (1, 2, 3)), par)
        with pytest.raises(ShapeError):
            build_resolution(I)


class TestLocalExtLength:
    def test_ribbon_values(self):
        for b in (1, 2, 3):
            par = RingParams(2, required_precision(2, b), 2)
            I = special_ideal(make_special_form(2, b, 1), par)
            assert local_ext1_length(I) == 2 * b

    def test_multiplicity_three_values(self):
        par = RingParams(3, 18, 2)
        assert local_ext1_length(mod(par, "x^2", "x*y", "y^2")) == 6
        assert local_ext1_length(mod(par, "x^2+y", "x*y", "y^2")) == 6
        for b in (1, 2):
            assert local_ext1_length(mod(par, f"x^{b}", "y^2")) == 2 * b

    def test_free_module(self):
        par = RingParams(3, 18, 2)
        assert local_ext1_length(mod(par, "1")) == 0

    def test_special_grid(self):
        for p in (2, 3):
            for n in (2, 3, 4):
                par = RingParams(n, required_precision(n, 2), p)
                for j in range(1, n):
                    for b in (1, 2):
                        I = special_ideal(make_special_form(n, b, j), par)
                        assert local_ext1_length(I) == ext1_special_closed_form(n, j, b)

    def test_isomorphism_invariance(self):
        par = RingParams(3, 18, 2)
        a = mod(par, "x^2", "x*y", "y^2")
        b = mod(par, "x^3", "x^2*y", "x*y^2")  # shifted embedding of the same class
        assert is_isomorphic_oracle(a, b) == "yes"
        assert local_ext1_length(a) == local_ext1_length(b)

    def test_closed_form_dispatch(self):
        assert closed_form_ext1(4, (0, 0, 0)) == 0
        assert closed_form_ext1(5, (0, 2, 2, 2)) == ext1_special_closed_form(5, 2, 2)
        assert closed_form_ext1(3, (1, 3)) == ext1_n3_closed_form(1, 3)
        assert closed_form_ext1(4, (1, 2, 3)) is None


class TestGlobalExt:
    def test_line_bundle(self):
        cp = CurveParams(4, 2, 2, 0)
        assert global_ext1_dimension(cp, LocalConfig(4, ()), stable=True) == genus(cp, 4)

    def test_multiplicity_three_point(self):
        cp = CurveParams(3, 2, 1, 1)
        cfg = LocalConfig(3, (PointIndices((1, 2)),))
        assert global_ext1_dimension(cp, cfg, stable=True) == genus(cp, 3) + 2 + 1

    def test_special_point_higher_multiplicity(self):
        cp = CurveParams(5, 2, 2, 0)
        cfg = LocalConfig(5, (special_point(5, 2, 3),))
        assert global_ext1_dimension(cp, cfg, stable=True) == genus(cp, 5) + 6

    def test_matches_moduli_tangent(self):
        from multicurve.moduli import generic_config, tangent_dimension
        for n, beta in ((3, (1, 2)), (4, (0, 1, 3)), (5, (1, 1, 2, 2))):
            cp = CurveParams(n, 2, 2, 0)
            cfg = generic_config(n, beta)
            assert global_ext1_dimension(cp, cfg, stable=True) == tangent_dimension(cp, cfg)

    def test_unstable_needs_h0(self):
        cp = CurveParams(3, 2, 1, 1)
        cfg = LocalConfig(3, (PointIndices((1, 2)),))
        with pytest.raises(MissingInput):
            global_ext1_dimension(cp, cfg, stable=False)
        assert global_ext1_dimension(cp, cfg, stable=False, h0_blowup=2) == \
            global_ext1_dimension(cp, cfg, stable=True) + 1

    def test_non_special_rejected_beyond_three(self):
        cp = CurveParams(4, 2, 2, 0)
        with pytest.raises(UnsupportedConfig):
            global_ext1_dimension(cp, LocalConfig(4, (PointIndices((1, 2, 3)),)), stable=True)
