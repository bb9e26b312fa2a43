import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import fp_equal, general_form_generators, special_form_generators

from multicurve.errors import DomainError, EnumerationLimit, PrecisionError, ShapeError
from multicurve.modules import (
    _fp_basis, build_resolution, indices, is_isomorphic_oracle, span_from_generators, unflatten,
)
from multicurve.normal_form import (
    EnumeratedModule,
    GeneralNormalForm,
    SpecialNormalForm,
    enumerate_invertible_modules,
    general_form_from_json,
    ideal_from_indices,
    iter_normal_forms,
    jbar,
    jump_position,
    make_general_form,
    make_special_form,
    normalize_special,
    special_form_from_json,
    special_ideal,
)
from multicurve.ring import RingElem, RingParams, parse_elem, required_precision

P3 = RingParams(3, 18, 2)


def mod(params, *texts):
    return span_from_generators([parse_elem(t, params) for t in texts])


class TestIdealFromIndices:
    def test_monomial_shape(self):
        I = ideal_from_indices(make_general_form(3, (1, 2)), P3)
        assert fp_equal(_fp_basis(I), _fp_basis(mod(P3, "x^2", "x*y", "y^2")))
        assert indices(I) == (1, 2)

    def test_ribbon_shape(self):
        par = RingParams(2, 16, 2)
        I = ideal_from_indices(make_general_form(2, (3,)), par)
        assert fp_equal(_fp_basis(I), _fp_basis(mod(par, "x^3", "y")))

    def test_zero_vector_gives_unit_ideal(self):
        I = ideal_from_indices(make_general_form(3, (0, 0)), P3)
        assert I.length() == 3 * P3.N

    def test_alpha_twist(self):
        I = ideal_from_indices(make_general_form(3, (1, 2), {(3, 1): (1,)}), P3)
        assert fp_equal(_fp_basis(I), _fp_basis(mod(P3, "x^2+y", "x*y", "y^2")))

    def test_round_trip_with_alphas(self):
        par = RingParams(4, 24, 3)
        for form in iter_normal_forms(4, 1, 3):
            assert indices(ideal_from_indices(form, par)) == form.beta

    def test_precision_precondition(self):
        with pytest.raises(PrecisionError):
            ideal_from_indices(make_general_form(3, (2, 2)), RingParams(3, 8, 2))


@pytest.mark.parametrize("n, top, p", [(3, 2, 2), (4, 2, 2), (5, 1, 2)])
def test_ideal_from_indices_matches_the_ring_element_recursion(n, top, p):
    par = RingParams(n, required_precision(n, top), p)
    for form in iter_normal_forms(n, top, p):
        gens = general_form_generators(form, par)
        M = ideal_from_indices(form, par)
        assert M.gens == tuple((g,) for g in gens)
        assert np.array_equal(M.H, span_from_generators(gens, params=par).H)


@pytest.mark.parametrize("n", range(2, 7))
def test_special_ideal_matches_the_ring_element_model(n):
    for b, j in itertools.product((1, 2), range(1, n)):
        par = RingParams(n, required_precision(n, b), 2)
        for z in itertools.product((0, 1), repeat=jbar(n, j) * b):
            form = make_special_form(n, b, j, [z[h * b:(h + 1) * b] for h in range(jbar(n, j))])
            gens = special_form_generators(form, par)
            M = special_ideal(form, par)
            assert M.gens == tuple((g,) for g in gens)
            assert np.array_equal(M.H, span_from_generators(gens, params=par).H)


def test_builders_make_no_ring_element_product(monkeypatch):
    # the builders and the normalizer work on flat rows alone
    calls = []
    mul = RingElem.__mul__

    def spy(a, b):
        calls.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(RingElem, "__mul__", spy)
    enumerate_invertible_modules(3, 2, RingParams(3, required_precision(3, 2), 2))
    par = RingParams(5, required_precision(5, 2), 3)
    normalize_special(special_ideal(make_special_form(5, 2, 2, [[1, 2]]), par))
    assert calls == []


class TestSpecialIdeal:
    def test_no_z_slot_cases(self):
        I = special_ideal(make_special_form(3, 2, 2), P3)
        assert fp_equal(_fp_basis(I), _fp_basis(mod(P3, "x^2", "y^2")))
        assert indices(I) == (0, 2)
        par2 = RingParams(2, 16, 2)
        J = special_ideal(make_special_form(2, 3, 1), par2)
        assert indices(J) == (3,)

    def test_z_slot_shape(self):
        par4 = RingParams(4, required_precision(4, 1), 2)
        I = special_ideal(make_special_form(4, 1, 2, [[1]]), par4)
        assert fp_equal(_fp_basis(I), _fp_basis(mod(par4, "x + y", "y^2")))
        assert indices(I) == (0, 1, 1)

    def test_jump_value_layout(self):
        form = make_special_form(5, 2, 3)
        assert form.beta == (0, 0, 2, 2)


class TestNormalizeSpecial:
    def test_identity_on_normal_inputs(self):
        for n, b, j, z in ((3, 2, 2, None), (2, 3, 1, None), (4, 1, 2, [[1]]),
                           (4, 2, 2, [[0, 1]]), (5, 2, 3, [[1, 0]])):
            par = RingParams(n, required_precision(n, b), 2)
            form = make_special_form(n, b, j, z)
            assert normalize_special(special_ideal(form, par)) == form

    def test_unit_rescaled_generator(self):
        par = RingParams(2, 16, 2)
        M = mod(par, "x^3 + x^3*y", "y")
        assert normalize_special(M) == make_special_form(2, 3, 1)

    def test_high_degree_alpha_is_eliminated(self):
        # (x + x*y, y^2) in n=4: alpha = x is divisible by x^b, so z must vanish
        par = RingParams(4, required_precision(4, 1), 2)
        M = mod(par, "x + x*y", "y^2")
        form = normalize_special(M)
        assert form == make_special_form(4, 1, 2)
        assert is_isomorphic_oracle(M, special_ideal(form, par)) == "yes"

    def test_rejects_multi_jump(self):
        with pytest.raises(ShapeError):
            normalize_special(mod(P3, "x^2", "x*y", "y^2"))

    def test_rejects_free_module(self):
        with pytest.raises(ShapeError):
            normalize_special(mod(P3, "1"))

    def test_jump_helper(self):
        assert jump_position((0, 2, 2)) == (2, 2)
        assert jump_position((1, 1)) == (1, 1)
        with pytest.raises(ShapeError):
            jump_position((1, 2))
        with pytest.raises(ShapeError):
            jump_position(())

    @pytest.mark.parametrize("gens", [("y^2",), ("y",), ("x*y", "y^2")])
    def test_rejects_module_on_a_proper_subcurve(self, gens):
        # indices of a stalk on C_m have m - 1 < n - 1 entries
        with pytest.raises(ShapeError):
            normalize_special(mod(P3, *gens))


@st.composite
def disguised_stalks(draw):
    """(source form, a module equal to x^s times its ideal at N_min):
    generated by u1 * x^s * (lead + a * y^j) and u2 * x^s * y^j, for dense
    random units u1, u2 and a random a, so that no generator is its first
    RREF row."""
    n, b = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    j, p = draw(st.integers(1, n - 1)), draw(st.sampled_from([2, 3, 65521]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    par = RingParams(n, required_precision(n, b), p)

    def dense(unit=False):
        grid = rng.integers(0, p, size=(n, par.N))
        if unit:
            grid[0, 0] = grid[0, 0] or 1
        return RingElem(par, grid.tolist())

    form = make_special_form(n, b, j, rng.integers(0, p, size=(jbar(n, j), b)).tolist())
    lead, yj = special_ideal(form, par).gens[0][0], RingElem.monomial(par, 1, 0, j)
    xs = RingElem.monomial(par, 1, draw(st.integers(0, 2)), 0)
    gens = [dense(unit=True) * xs * (lead + dense() * yj), dense(unit=True) * xs * yj]
    return form, span_from_generators(gens)


@settings(max_examples=40, deadline=None)
@given(disguised_stalks())
def test_normal_form_is_the_first_rref_row(case):
    # J = (a, y^j), a = -M1[1, 0] of the factorization, is isomorphic to M and
    # leads with x^b: its first RREF row is x^b on level 0 and x-degree below
    # b on every other level, so z is read off it with no elimination
    form, M = case
    assert normalize_special(M) == form
    par = M.params
    a = unflatten(-build_resolution(M)[1][1, 0] % par.p, par, 1)[0]
    J = span_from_generators([a, RingElem.monomial(par, 1, 0, form.j)])
    assert is_isomorphic_oracle(J, M) == "yes"
    lead = unflatten(_fp_basis(J).rows()[0], par, 1)[0]
    assert lead.level(0) == RingElem.monomial(par, 1, form.b, 0).level(0)
    assert not any(any(lead.level(h)[form.b:]) for h in range(1, form.n))


class TestUniqueness:
    @pytest.mark.parametrize("n,p", [(4, 2), (4, 3), (5, 2), (5, 3)])
    def test_distinct_z_grids_not_isomorphic(self, n, p):
        par = RingParams(n, required_precision(n, 2), p)
        for j in range(2, n - 1):
            if min(j, n - j) - 1 < 1:
                continue
            for b in (1, 2):
                grids = {}
                import itertools
                rows = min(j, n - j) - 1
                for vals in itertools.product(range(p), repeat=rows * b):
                    z = [vals[r * b:(r + 1) * b] for r in range(rows)]
                    grids[vals] = special_ideal(make_special_form(n, b, j, z), par)
                keys = sorted(grids)
                for a_i in range(len(keys)):
                    for b_i in range(a_i + 1, len(keys)):
                        assert is_isomorphic_oracle(grids[keys[a_i]], grids[keys[b_i]]) == "no"
                for vals, M in grids.items():
                    rows_z = min(j, n - j) - 1
                    want = tuple(tuple(vals[r * b:(r + 1) * b]) for r in range(rows_z))
                    assert normalize_special(M).z == want


def _single_jump_pairs():
    """(A, B): single-jump stalks at N_min with n = 3..5 and p in {2, 3, 5},
    A with disguised generators u1*x*(lead + a*y^j), u2*x*y^j (u1, u2 units),
    B built from its normal form.  Where z has a row, six pairs per (n, j, p),
    the first sharing z and the others not; else one pair."""
    rng = np.random.default_rng(29)
    for n, p in itertools.product((3, 4, 5), (2, 3, 5)):
        for j in range(1, n):
            rows, b = jbar(n, j), 2 if n == 3 else 1
            par = RingParams(n, required_precision(n, b), p)
            x, yj = RingElem.monomial(par, 1, 1, 0), RingElem.monomial(par, 1, 0, j)

            def dense(unit=False):
                grid = rng.integers(0, p, size=(n, par.N))
                if unit:
                    grid[0, 0] = grid[0, 0] or 1
                return RingElem(par, grid.tolist())

            def z_grid():
                return rng.integers(0, p, size=(rows, b)).tolist()

            for k in range(6 if rows else 1):
                za = zb = z_grid()
                while k and zb == za:
                    zb = z_grid()
                lead = special_ideal(make_special_form(n, b, j, za), par).gens[0][0]
                A = span_from_generators(
                    [dense(unit=True) * x * (lead + dense() * yj), dense(unit=True) * x * yj])
                yield A, special_ideal(make_special_form(n, b, j, zb), par)


def test_normal_form_is_an_isomorphism_key():
    # z is unique, so normalize_special is a complete invariant of a
    # single-jump stalk: the oracle says yes exactly when the keys agree
    verdicts = [(is_isomorphic_oracle(A, B) == "yes", normalize_special(A) == normalize_special(B))
                for A, B in _single_jump_pairs()]
    assert all(iso == same_key for iso, same_key in verdicts)
    assert sum(not iso for iso, _ in verdicts) >= 40


class TestEnumeration:
    def test_ribbon_classes(self):
        par = RingParams(2, 12, 2)
        entries = enumerate_invertible_modules(2, 1, par)
        assert [e.form.beta for e in entries] == [(0,), (1,)]
        assert all(e.duplicate_of is None for e in entries)

    def test_alpha_classes_are_distinct(self):
        entries = enumerate_invertible_modules(3, 2, P3)
        by_beta = {}
        for e in entries:
            by_beta.setdefault(e.form.beta, []).append(e)
        twisted = by_beta[(1, 2)]
        assert len(twisted) == 2
        assert [e.duplicate_of for e in twisted] == [None, None]

    def test_pure_jump_classes_collapse(self):
        # beta = (0, b): all alpha choices give the single class (x^b, y^2)
        entries = enumerate_invertible_modules(3, 2, P3)
        for b in (1, 2):
            group = [e for e in entries if e.form.beta == (0, b)]
            assert len(group) == 2**b
            assert sum(1 for e in group if e.duplicate_of is None) == 1

    def test_every_entry_is_invertible_and_monotone(self):
        entries = enumerate_invertible_modules(3, 1, P3)
        for e in entries:
            beta = indices(e.module)
            assert beta == e.form.beta
            assert list(beta) == sorted(beta)

    @pytest.mark.parametrize("n,top,p", [(4, 2, 2), (3, 3, 3)])
    def test_representatives_only_match_all_pairs(self, n, top, p, monkeypatch):
        # the reference compares every same-beta pair; the enumeration asks
        # the oracle only about earlier representatives, with the same entries
        calls = []

        def spy(M, Mp):
            calls.append((M, Mp))
            return is_isomorphic_oracle(M, Mp)

        monkeypatch.setattr("multicurve.normal_form.is_isomorphic_oracle", spy)
        entries = enumerate_invertible_modules(n, top, RingParams(n, required_precision(n, top), p))
        iso = {(a, b): is_isomorphic_oracle(entries[a].module, entries[b].module) == "yes"
               for a, b in itertools.combinations(range(len(entries)), 2)
               if entries[a].form.beta == entries[b].form.beta}
        expected, asked = [], 0
        for k, e in enumerate(entries):
            expected.append(next((a for a in range(k) if iso.get((a, k))), None))
            reps = [a for a in range(k) if expected[a] is None and entries[a].form.beta == e.form.beta]
            asked += len(reps) if expected[k] is None else reps.index(expected[k]) + 1
        assert [e.duplicate_of for e in entries] == expected
        assert len(calls) == asked < len(iso)

    def test_ceiling(self):
        with pytest.raises(EnumerationLimit):
            enumerate_invertible_modules(4, 3, RingParams(4, 32, 2), ceiling=10)


class TestSerialization:
    def test_general_round_trip(self):
        # beta = (1, 3, 6) gives alpha_(4,2) two coefficients, so x fits
        form = make_general_form(4, (1, 3, 6), {(3, 1): (1,), (4, 2): (0, 1)})
        assert general_form_from_json(form.to_json()) == form

    def test_special_round_trip(self):
        form = make_special_form(5, 2, 2, [[1, 0]])
        assert special_form_from_json(form.to_json()) == form

    @pytest.mark.parametrize("alpha", [
        "9000 + x^100",  # degree above 64
        "65521",         # coefficient above the carrying prime 65521
        "x^100",
        "1 + y",         # alpha is a polynomial in x alone
        "x*y^5",
        "-1",
        "40000 + 30000",  # each term fits, their sum does not
    ])
    def test_alpha_that_cannot_be_carried_is_rejected(self, alpha):
        text = json.dumps({"n": 4, "beta": [1, 2, 3], "alpha": {"3,1": alpha}})
        with pytest.raises(DomainError):
            general_form_from_json(text)

    def test_alpha_written_out_of_order(self):
        text = json.dumps({"n": 4, "beta": [1, 3, 6], "alpha": {"4,2": "x + 2 + 3*x - 2"}})
        assert general_form_from_json(text) == make_general_form(4, (1, 3, 6), {(4, 2): (0, 4)})

    @pytest.mark.parametrize("coeff", [9000, 65520])
    def test_alpha_below_the_largest_prime_round_trips(self, coeff):
        form = make_general_form(4, (1, 2, 3), {(3, 1): (coeff,)})
        assert general_form_from_json(form.to_json()) == form
        assert form.alpha == (((3, 1), (coeff,)),)


class TestBuildersRefuseLossyInput:
    def test_alpha_above_its_natural_degree(self):
        # alpha_(3,1) has natural degree 1 here, so x^5 cannot be represented
        with pytest.raises(DomainError):
            general_form_from_json('{"n":4,"beta":[1,2,3],"alpha":{"3,1":"x^5"}}')
        with pytest.raises(DomainError):
            make_general_form(4, (1, 2, 3), {(3, 1): (1, 1)})

    def test_z_rows_beyond_jbar(self):
        # jbar(3, 1) = 0: the model has no z row at all
        with pytest.raises(DomainError):
            special_form_from_json('{"n":3,"b":1,"j":1,"z":[[1]]}')

    def test_z_entries_beyond_b(self):
        with pytest.raises(DomainError):
            make_special_form(5, 2, 2, [[1, 0, 1]])

    def test_zero_padding_and_zero_tails_are_kept(self):
        assert make_special_form(5, 2, 2, [[1]]).z == ((1, 0),)
        assert make_special_form(5, 2, 2, [[1, 0, 0], [0]]).z == ((1, 0),)
        assert make_general_form(4, (1, 2, 3), {(3, 1): (1, 0)}).alpha == (((3, 1), (1,)),)

    def test_alpha_coefficient_not_below_p(self):
        form = make_general_form(3, (1, 2), {(3, 1): (5,)})
        with pytest.raises(DomainError):
            ideal_from_indices(form, RingParams(3, 18, 5))

    def test_z_entry_not_below_p(self):
        form = make_special_form(5, 2, 2, [[7, 0]])
        with pytest.raises(DomainError):
            special_ideal(form, RingParams(5, required_precision(5, 2), 7))

    @pytest.mark.parametrize("entry", [-1, 3, 4, 2**70])
    def test_z_entry_outside_the_residues(self, entry):
        form = make_special_form(5, 2, 2, [[0, entry]])
        with pytest.raises(DomainError, match="do not fit"):
            special_ideal(form, RingParams(5, required_precision(5, 2), 3))

    @pytest.mark.parametrize("coeff", [-1, 3, 4, 2**70])
    def test_alpha_coefficient_outside_the_residues(self, coeff):
        form = make_general_form(4, (1, 3, 6), {(4, 2): (1, coeff)})
        with pytest.raises(DomainError, match="do not fit"):
            ideal_from_indices(form, RingParams(4, required_precision(4, 6), 3))

    @pytest.mark.parametrize("coeff", [65521, 70000, -1])
    def test_alpha_that_json_cannot_carry(self, coeff):
        # JSON carries alpha over F_65521; a coefficient outside it is refused
        form = make_general_form(4, (1, 2, 3), {(3, 1): (coeff,)})
        with pytest.raises(DomainError, match="do not fit"):
            form.to_json()


@st.composite
def general_forms(draw):
    n = draw(st.integers(2, 5))
    beta = tuple(sorted(draw(st.lists(st.integers(0, 3), min_size=n - 1, max_size=n - 1))))
    b = (0,) + beta
    alpha = {}
    for i in range(3, n + 1):
        for j in range(1, i - 1):
            d = b[n - j] - b[n - j - 1]
            alpha[(i, j)] = draw(st.lists(st.integers(0, 65520), min_size=d, max_size=d))
    return make_general_form(n, beta, alpha)


@st.composite
def special_forms(draw):
    n = draw(st.integers(2, 7))
    j = draw(st.integers(1, n - 1))
    b = draw(st.integers(1, 4))
    rows = min(j, n - j) - 1
    z = draw(st.lists(st.lists(st.integers(0, 65520), min_size=b, max_size=b),
                      min_size=rows, max_size=rows))
    return make_special_form(n, b, j, z)


@settings(max_examples=100, deadline=None)
@given(form=general_forms())
def test_general_form_json_round_trip(form):
    assert general_form_from_json(form.to_json()) == form


@settings(max_examples=100, deadline=None)
@given(form=special_forms())
def test_special_form_json_round_trip(form):
    assert special_form_from_json(form.to_json()) == form
