from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from multicurve.errors import DomainError
from multicurve.invariants import (
    CurveParams,
    deg_pure_quotient,
    deg_second_filtration,
    deg_tensor,
    dual_indices,
    genus,
    rank_degree_conversion,
    sub_indices,
    validate_indices,
)


@st.composite
def curve_and_indices(draw, n_max=8, beta_max=8, delta_max=5, d_max=12):
    n = draw(st.integers(2, n_max))
    beta = tuple(sorted(draw(st.integers(0, beta_max)) for _ in range(n - 1)))
    cp = CurveParams(
        n,
        draw(st.integers(0, 5)),
        draw(st.integers(0, delta_max)),
        draw(st.integers(-d_max, d_max)),
    )
    return cp, beta


class TestGenus:
    def test_small_multiplicity_three(self):
        assert genus(CurveParams(3, 2, 1, 0), 3) == 7

    def test_canonical_conormal_degree(self):
        for g1 in (2, 3, 5):
            cp = CurveParams(3, g1, 2 * g1 - 2, 0)
            assert genus(cp, 3) == 9 * g1 - 8

    def test_depth_one_is_reduced_genus(self):
        cp = CurveParams(4, 3, 2, 0)
        assert genus(cp, 1) == 3

    def test_telescoping(self):
        cp = CurveParams(6, 4, 3, 0)
        for i in range(2, 7):
            assert genus(cp, i) - genus(cp, i - 1) == (cp.g1 - 1) + (i - 1) * cp.delta

    def test_range_check(self):
        with pytest.raises(DomainError):
            genus(CurveParams(3, 2, 1, 0), 4)


class TestDegrees:
    def test_pure_quotient_hand_values(self):
        cp = CurveParams(3, 2, 1, 1)
        assert deg_pure_quotient(cp, (0, 1), 1) == 1
        assert deg_pure_quotient(cp, (0, 1), 2) == 1

    def test_full_depth_gives_total_degree(self):
        cp = CurveParams(4, 2, 3, 7)
        assert deg_pure_quotient(cp, (1, 1, 2), 4) == 7

    def test_second_filtration_hand_value(self):
        cp = CurveParams(2, 2, 2, 4)
        assert deg_second_filtration(cp, (2,), 1) == 2

    def test_line_bundle_cross_check(self):
        # beta = 0: Deg F^(i) = iD/n - i(n-i) delta / 2
        cp = CurveParams(4, 2, 2, 8)
        for i in (1, 2, 3):
            expect = Fraction(i * cp.degree, 4) - Fraction(i * (4 - i) * cp.delta, 2)
            assert deg_second_filtration(cp, (0, 0, 0), i) == expect

    @settings(max_examples=300, deadline=None)
    @given(curve_and_indices())
    def test_additivity(self, data):
        cp, beta = data
        for i in range(1, cp.n):
            assert (deg_pure_quotient(cp, beta, i)
                    + deg_second_filtration(cp, beta, cp.n - i)) == cp.degree


class TestDualIndices:
    def test_hand_values(self):
        assert dual_indices((1, 2, 3)) == (1, 2, 3)
        assert dual_indices((0, 2)) == (2, 2)
        assert dual_indices((0, 0, 0)) == (0, 0, 0)

    @settings(max_examples=300, deadline=None)
    @given(curve_and_indices())
    def test_involution_and_monotone(self, data):
        _, beta = data
        dual = dual_indices(beta)
        assert dual == tuple(sorted(dual))
        assert dual_indices(dual) == beta


class TestSubIndices:
    def test_hand_values(self):
        assert sub_indices((1, 2, 3), 3) == (1, 2)
        assert sub_indices((1, 2), 2) == (1,)
        assert sub_indices((2, 2, 2), 3) == (0, 0)

    def test_range_check(self):
        with pytest.raises(DomainError):
            sub_indices((1, 2), 3)

    @settings(max_examples=200, deadline=None)
    @given(curve_and_indices())
    def test_double_dual_identity(self, data):
        # beta_j(F^(i)) = beta_{i-1}(dual) - beta_{i-j-1}(dual), verbatim
        _, beta = data
        n = len(beta) + 1
        dual = (0,) + dual_indices(beta)
        for i in range(2, n):
            assert sub_indices(beta, i) == tuple(
                dual[i - 1] - dual[i - j - 1] for j in range(1, i))


class TestConversions:
    def test_line_bundle(self):
        cp = CurveParams(3, 2, 2, 0)
        rk, deg = rank_degree_conversion(cp, 1, 5)
        assert rk == 3
        assert deg == -1  # deg - n(n-1)/2 * delta = 5 - 6

    def test_torsion_and_trivial_cases(self):
        cp = CurveParams(4, 2, 3, 0)
        assert rank_degree_conversion(cp, 0, 7) == (0, 7)
        cp1 = CurveParams(1, 2, 3, 0)
        assert rank_degree_conversion(cp1, 2, 7) == (2, 7)

    def test_tensor_formula(self):
        cp = CurveParams(3, 2, 2, 0)
        # twisting by the trivial bundle: Deg O = -n(n-1)/2 delta = -6
        assert deg_tensor(cp, 3, 5, 1, -6) == 5
        # line-bundle twist: DegF + DegE + n(n-1)/2 delta
        assert deg_tensor(cp, 3, 5, 1, 4) == 5 + 4 + 6
        # rank 0 torsion
        assert deg_tensor(cp, 0, 9, 2, 4) == 18

    def test_tensor_integrality_error(self):
        cp = CurveParams(3, 2, 1, 0)
        with pytest.raises(DomainError):
            deg_tensor(cp, 1, 0, 1, 1)


class TestValidation:
    def test_non_monotone_rejected(self):
        with pytest.raises(DomainError):
            validate_indices((2, 1), 3)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            validate_indices((-1, 0), 3)

    def test_fractional_rejected(self):
        # int() would cut 1.5 to 1
        with pytest.raises(DomainError):
            validate_indices((0, 1.5), 3)

    def test_booleans_rejected(self):
        # True == 1, so a JSON true would pass as the index 1
        with pytest.raises(DomainError):
            validate_indices((True, 2), 3)
        with pytest.raises(DomainError):
            validate_indices((0, False), 3)

    def test_wrong_length_rejected(self):
        with pytest.raises(DomainError):
            validate_indices((1,), 3)
