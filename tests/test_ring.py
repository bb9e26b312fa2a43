import pytest
from hypothesis import given, settings, strategies as st

from multicurve.errors import DomainError, ParameterMismatch
from multicurve.ring import (
    NONZERODIVISOR,
    UNIT,
    ZERODIVISOR,
    RingElem,
    RingParams,
    classify_element,
    format_elem,
    multiply,
    parse_elem,
    required_precision,
    y_valuation,
)


def elem(text, params):
    return parse_elem(text, params)


class TestParams:
    def test_rejects_composite_p(self):
        with pytest.raises(ParameterMismatch):
            RingParams(2, 4, 6)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ParameterMismatch):
            RingParams(0, 4, 2)
        with pytest.raises(ParameterMismatch):
            RingParams(2, 0, 2)

    def test_required_precision(self):
        assert required_precision(3, 2) == 18
        assert required_precision(2, 0) == 4


class TestMultiply:
    def test_difference_of_squares_kills_y2(self):
        par = RingParams(2, 8, 5)
        assert multiply(elem("x + y", par), elem("x - y", par)) == elem("x^2", par)

    def test_square_expansion_mod_p(self):
        par = RingParams(3, 8, 5)
        assert multiply(elem("x + y", par), elem("x + y", par)) == elem("x^2 + 2*x*y + y^2", par)
        par2 = RingParams(3, 8, 2)
        assert multiply(elem("x + y", par2), elem("x + y", par2)) == elem("x^2 + y^2", par2)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_nilpotency(self, n):
        par = RingParams(n, 6, 3)
        top = RingElem.monomial(par, 1, 0, n - 1)
        assert multiply(top, elem("y", par)).is_zero()

    def test_x_truncation(self):
        par = RingParams(2, 4, 2)
        assert multiply(elem("x^3", par), elem("x", par)).is_zero()

    def test_mixed_params_rejected(self):
        a = elem("x", RingParams(2, 6, 2))
        b = elem("x", RingParams(2, 8, 2))
        with pytest.raises(ParameterMismatch):
            multiply(a, b)


class TestMonomial:
    @pytest.mark.parametrize("xdeg, ydeg", [(-1, 0), (0, -1), (-2, -1)])
    def test_negative_degree_rejected(self, xdeg, ydeg):
        with pytest.raises(DomainError):
            RingElem.monomial(RingParams(3, 8, 5), 1, xdeg, ydeg)

    def test_truncated_degree_is_zero(self):
        par = RingParams(3, 8, 5)
        assert RingElem.monomial(par, 1, 8, 0).is_zero()
        assert RingElem.monomial(par, 1, 0, 3).is_zero()
        assert RingElem.monomial(par, 5, 1, 1).is_zero()
        assert RingElem.monomial(par, 7, 7, 2) == parse_elem("2*x^7*y^2", par)


class TestClassify:
    def test_examples(self):
        par = RingParams(3, 8, 2)
        assert classify_element(elem("1 + x", par)) == UNIT
        assert classify_element(elem("x", par)) == NONZERODIVISOR
        assert classify_element(elem("y + x*y^2", par)) == ZERODIVISOR

    def test_zero_rejected(self):
        par = RingParams(3, 8, 2)
        with pytest.raises(DomainError):
            classify_element(RingElem.zero(par))


class TestYValuation:
    def test_examples(self):
        par = RingParams(3, 8, 2)
        assert y_valuation(elem("x^2", par)) == 0
        assert y_valuation(elem("x^3*y^2", par)) == 2
        assert y_valuation(RingElem.zero(par)) == 3


small_params = st.sampled_from([RingParams(2, 5, 2), RingParams(3, 4, 3), RingParams(4, 3, 5)])


@st.composite
def ring_elems(draw, params):
    grid = [[draw(st.integers(0, params.p - 1)) for _ in range(params.N)]
            for _ in range(params.n)]
    return RingElem(params, grid)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), params=small_params)
def test_ring_axioms(data, params):
    f = data.draw(ring_elems(params))
    g = data.draw(ring_elems(params))
    h = data.draw(ring_elems(params))
    one = RingElem.one(params)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * one == f
    assert f * (g + h) == f * g + f * h


@settings(max_examples=150, deadline=None)
@given(data=st.data(), params=small_params)
def test_unit_product_iff_both_units(data, params):
    f = data.draw(ring_elems(params))
    g = data.draw(ring_elems(params))
    if f.is_zero() or g.is_zero() or (f * g).is_zero():
        return
    both = classify_element(f) == UNIT and classify_element(g) == UNIT
    assert (classify_element(f * g) == UNIT) == both


@settings(max_examples=150, deadline=None)
@given(data=st.data(), params=small_params)
def test_y_valuation_superadditive(data, params):
    f = data.draw(ring_elems(params))
    g = data.draw(ring_elems(params))
    prod = f * g
    assert prod.y_valuation() >= min(f.y_valuation() + g.y_valuation(), params.n)
    # equality when the leading y-parts multiply to something nonzero
    vf, vg = f.y_valuation(), g.y_valuation()
    if vf + vg < params.n:
        lead = RingElem(params, [f.coeffs[vf]]) * RingElem(params, [g.coeffs[vg]])
        if not lead.is_zero():
            assert prod.y_valuation() == vf + vg


class TestTextSyntax:
    def test_parse_examples(self):
        par = RingParams(3, 8, 5)
        assert parse_elem("x^2 + 3*x*y + y^2", par) == (
            RingElem.monomial(par, 1, 2, 0)
            + RingElem.monomial(par, 3, 1, 1)
            + RingElem.monomial(par, 1, 0, 2)
        )
        assert parse_elem("2x", par) == RingElem.monomial(par, 2, 1, 0)
        assert parse_elem("0", par).is_zero()
        assert parse_elem("x - y", par) == parse_elem("x + 4*y", par)

    def test_coefficients_reduced_mod_p(self):
        par = RingParams(2, 6, 3)
        assert parse_elem("7*x", par) == parse_elem("x", par)

    def test_parse_error(self):
        par = RingParams(2, 6, 3)
        with pytest.raises(DomainError):
            parse_elem("x + $", par)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), params=small_params)
    def test_format_parse_round_trip(self, data, params):
        f = data.draw(ring_elems(params))
        assert parse_elem(format_elem(f), params) == f
