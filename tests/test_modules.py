import pytest
from hypothesis import given, settings, strategies as st

from helpers import naive_span_dim

from multicurve import linalg
from multicurve.errors import ContainmentError, DomainError, NotInvertibleError
from multicurve.invariants import dual_indices
from multicurve.modules import (
    ModuleRep,
    _colon,
    _min_valuation_element,
    _mul_rows,
    dual_module_oracle,
    first_filtration,
    format_module,
    full_ring,
    graded_report,
    indices,
    indices_by_definition,
    is_isomorphic_oracle,
    lift_module,
    parse_module_text,
    pure_quotient,
    quotient_length,
    second_filtration,
    span_from_generators,
    zero_module,
)
from multicurve.normal_form import make_special_form, special_ideal
from multicurve.ring import RingElem, RingParams, parse_elem, required_precision

P3 = RingParams(3, 18, 2)
P2 = RingParams(2, 12, 2)


def mod(params, *texts):
    return span_from_generators([parse_elem(t, params) for t in texts])


@pytest.fixture(scope="module")
def monomial_ideal():
    return mod(P3, "x^2", "x*y", "y^2")


class TestSpan:
    def test_unit_generates_everything(self):
        assert full_ring(P3).length() == 3 * P3.N

    def test_two_generator_ideal_length(self):
        # independent oracle first: brute-force span at N and N+2
        for b in (1, 2, 3):
            for N in (12, 14):
                par = RingParams(2, N, 2)
                gens = [parse_elem(f"x^{b}", par), parse_elem("y", par)]
                expect = naive_span_dim(gens, par)
                assert expect == 2 * N - b
                assert span_from_generators(gens).length() == expect

    def test_three_generator_ideal_length(self, monomial_ideal):
        for N in (18, 20):
            par = RingParams(3, N, 2)
            gens = [parse_elem(t, par) for t in ("x^2", "x*y", "y^2")]
            assert naive_span_dim(gens, par) == 3 * N - 3
            assert span_from_generators(gens).length() == 3 * N - 3

    def test_empty_generators_give_zero_module(self):
        z = zero_module(P3)
        assert z.length() == 0 and z.is_zero()

    def test_closure_is_validated(self, monomial_ideal):
        monomial_ideal.validate()


class TestQuotientLength:
    def test_cyclic_quotients(self):
        # A/(x^b, y^(n-h)) has length (n-h)*b, independent of N
        for n, h, b in ((3, 1, 2), (3, 2, 1), (4, 1, 3), (5, 2, 2)):
            for N in (2 * n * (b + 1), 2 * n * (b + 1) + 2):
                par = RingParams(n, N, 2)
                A = full_ring(par)
                I = mod(par, f"x^{b}", f"y^{n - h}")
                assert quotient_length(A, I) == (n - h) * b

    def test_fat_point_quotient(self, monomial_ideal):
        A = full_ring(P3)
        assert quotient_length(A, monomial_ideal) == 3

    def test_self_quotient(self):
        A = full_ring(P3)
        assert quotient_length(A, A) == 0

    def test_non_inclusion_rejected(self, monomial_ideal):
        other = mod(P3, "x")
        with pytest.raises(ContainmentError):
            quotient_length(other, mod(P3, "y"))


class TestFiltrations:
    def test_first_filtration_of_free_module(self):
        A = full_ring(P3)
        assert [m.length() for m in first_filtration(A)] == [54, 36, 18, 0]

    def test_first_filtration_lengths(self, monomial_ideal):
        N = P3.N
        assert [m.length() for m in first_filtration(monomial_ideal)] == [
            3 * N - 3, 2 * N - 3, N - 2, 0]

    def test_first_filtration_two_generators(self):
        M = mod(P2, "x^3", "y")
        assert [m.length() for m in first_filtration(M)] == [2 * P2.N - 3, P2.N - 3, 0]

    def test_second_filtration_of_free_module(self):
        A = full_ring(P3)
        chain = second_filtration(A)
        # M^(i) = y^(n-i) A
        assert [m.length() for m in chain] == [0, 18, 36, 54]

    def test_second_filtration_examples(self, monomial_ideal):
        chain = second_filtration(monomial_ideal)
        assert chain[1].length() == P3.N  # ann(y) = y^2 k[x]
        M = mod(P2, "x^3", "y")
        assert second_filtration(M)[1].length() == P2.N

    def test_filtration_compatibility(self, monomial_ideal):
        n = P3.n
        ff = first_filtration(monomial_ideal)
        sf = second_filtration(monomial_ideal)
        for i in range(n):
            # y * (level i) = level i+1
            step = span_from_generators(
                [parse_elem("y", P3) * e[0] for e in ff[i].basis_vectors()],
                params=P3)
            assert step.num == ff[i + 1].num
            # y^i M is killed by y^(n-i)
            assert ff[i].num.leq(sf[n - i].num)


class TestRankTwo:
    def test_graph_module(self):
        # M = A * (1, x^4) projects injectively onto its first component, so it
        # is free of rank 1: y^k M has length (n - k)*N, ann_M(y^k) = y^(n-k) M
        # has length k*N, and each graded piece is F_p[x]/(x^N), of rank 1
        par = RingParams(2, 6, 3)
        M = span_from_generators([(RingElem.one(par), parse_elem("x^4", par))])
        assert [m.length() for m in first_filtration(M)] == [12, 6, 0]
        assert [m.length() for m in second_filtration(M)] == [0, 6, 12]
        assert graded_report(M, "first").levels == ((1, 0), (1, 0))
        assert graded_report(M, "second").levels == ((1, 0), (1, 0))
        assert indices(M) == indices_by_definition(M) == (0,)

    def test_free_module_is_not_invertible(self):
        one, zero = RingElem.one(P3), RingElem.zero(P3)
        free = span_from_generators([(one, zero), (zero, one)])
        assert [m.length() for m in first_filtration(free)] == [108, 72, 36, 0]
        assert graded_report(free, "first").levels == ((2, 0),) * 3
        assert graded_report(free, "second").levels == ((2, 0),) * 3
        for invariant in (indices, indices_by_definition):
            with pytest.raises(NotInvertibleError):
                invariant(free)


class TestGradedReport:
    def test_monomial_ideal_torsions(self, monomial_ideal):
        rep = graded_report(monomial_ideal, "first")
        assert rep.ranks == (1, 1, 1)
        assert rep.torsions == (2, 1, 0)

    def test_single_jump_torsions(self):
        for b in (1, 2):
            I = mod(P3, f"x^{b}", "y^2")
            rep = graded_report(I, "first")
            assert rep.torsions == (b, 0, 0)
            assert rep.ranks == (1, 1, 1)

    def test_free_module_report(self):
        rep = graded_report(full_ring(P3), "first")
        assert rep.ranks == (1, 1, 1)
        assert rep.torsions == (0, 0, 0)

    def test_second_graded_pieces_are_free(self, monomial_ideal):
        rep = graded_report(monomial_ideal, "second")
        assert rep.ranks == (1, 1, 1)
        assert rep.torsions == (0, 0, 0)


class TestIndices:
    def test_examples(self, monomial_ideal):
        assert indices(monomial_ideal) == (1, 2)
        assert indices(mod(P3, "x", "y")) == (1, 1)
        assert indices(full_ring(P3)) == (0, 0)

    def test_by_definition_examples(self, monomial_ideal):
        for b in (1, 2, 3):
            M = mod(P2, f"x^{b}", "y")
            assert indices_by_definition(M) == (b,)
        assert indices_by_definition(monomial_ideal) == (1, 2)
        assert indices_by_definition(full_ring(P3)) == (0, 0)

    def test_two_algorithms_agree(self, monomial_ideal):
        for M in (monomial_ideal, mod(P3, "x^2+y", "x*y", "y^2"), mod(P3, "x^3", "y^2")):
            assert indices(M) == indices_by_definition(M)

    def test_monotone(self, monomial_ideal):
        beta = indices(monomial_ideal)
        assert all(beta[i] <= beta[i + 1] for i in range(len(beta) - 1))

    def test_depth_drop_is_supported(self):
        # y^2 A is invertible on the reduced subcurve: empty index vector
        assert indices(mod(P3, "y^2")) == ()

    def test_non_invertible_rejected(self):
        free_rank2 = span_from_generators(
            [(RingElem.one(P3), RingElem.zero(P3)),
             (RingElem.zero(P3), RingElem.one(P3))])
        with pytest.raises(NotInvertibleError):
            indices(free_rank2)
        torsion = span_from_generators(
            [parse_elem(f"x^{P3.N - 1}*y^2", P3)])
        with pytest.raises(NotInvertibleError):
            indices(torsion)

    def test_freeness_iff_top_index_zero(self):
        assert indices(mod(P3, "x^0"))[-1] == 0
        assert indices(mod(P3, "x^2", "y^2"))[-1] != 0
        # a principal module generated by a nonzerodivisor is free
        princ = mod(P3, "x^2 + x*y")
        assert indices(princ) == (0, 0)

    def test_stable_under_precision_lift(self, monomial_ideal):
        lifted = lift_module(monomial_ideal, P3.N + 4)
        assert indices(lifted) == indices(monomial_ideal)

    def test_lift_without_generators(self, monomial_ideal):
        # the padded lattice rows are re-closed; the zero module lifts to the zero module
        bare = ModuleRep(P3, 1, monomial_ideal.num)
        assert lift_module(bare, P3.N + 4) == lift_module(monomial_ideal, P3.N + 4)
        zero = ModuleRep(P3, 1, zero_module(P3).num)
        assert lift_module(zero, P3.N + 2).is_zero()

    def test_rank_two_lift_without_generators(self):
        # the module of (1, x^(N-1)) is a graph over its first component; its
        # basis holds (x, 0), the truncation of (x, x^N), which the lift must
        # not keep: the lattice rows lift like the generator
        par = RingParams(2, 5, 3)
        M = span_from_generators([(RingElem.one(par), parse_elem("x^4", par))])
        bare = ModuleRep(par, 2, M.num)
        assert lift_module(bare, par.N + 2) == lift_module(M, par.N + 2)


class TestPureQuotient:
    def test_full_depth_is_identity(self, monomial_ideal):
        Q = pure_quotient(monomial_ideal, 3)
        assert Q.length() == monomial_ideal.length()

    def test_depth_two_indices(self, monomial_ideal):
        assert indices(pure_quotient(monomial_ideal, 2)) == (1,)

    def test_free_module_quotients(self):
        A = full_ring(P3)
        for i in (1, 2, 3):
            Q = pure_quotient(A, i)
            assert Q.length() == i * P3.N
            assert indices(Q) == (0,) * (i - 1)

    def test_out_of_range(self, monomial_ideal):
        with pytest.raises(DomainError):
            pure_quotient(monomial_ideal, 0)
        with pytest.raises(DomainError):
            pure_quotient(monomial_ideal, 4)


class TestDualOracle:
    def test_dual_of_free_is_free(self):
        assert indices(dual_module_oracle(full_ring(P3))) == (0, 0)

    def test_two_generator_duals(self):
        for b in (1, 2, 3):
            M = mod(P2, f"x^{b}", "y")
            assert indices(dual_module_oracle(M)) == (b,)

    def test_index_formula_agreement(self, monomial_ideal):
        for M in (monomial_ideal, mod(P3, "x^2+y", "x*y", "y^2"),
                  mod(P3, "x^2", "y^2"), mod(P3, "x", "y")):
            assert indices(dual_module_oracle(M)) == dual_indices(indices(M))

    def test_works_without_remembered_generators(self, monomial_ideal):
        bare = ModuleRep(P3, 1, monomial_ideal.num)
        assert bare.gens is None
        assert indices(dual_module_oracle(bare)) == (1, 2)

    @pytest.mark.parametrize("n, b, j, z, p", [(6, 1, 3, [[1], [1]], 3), (5, 2, 2, [[1, 2]], 3)])
    def test_wide_stalks_without_generators(self, n, b, j, z, p):
        # the lattice rows stand in for the generators: same dual, same lift
        par = RingParams(n, required_precision(n, b), p)
        M = special_ideal(make_special_form(n, b, j, z), par)
        bare = ModuleRep(par, 1, M.num)
        assert dual_module_oracle(bare) == dual_module_oracle(M)
        assert lift_module(bare, par.N + 2) == lift_module(M, par.N + 2)

    def test_double_dual_isomorphic(self):
        for texts in (("x^2", "x*y", "y^2"), ("x^2+y", "x*y", "y^2"), ("x", "y^2")):
            M = mod(P3, *texts)
            DD = dual_module_oracle(dual_module_oracle(M))
            assert is_isomorphic_oracle(M, DD) == "yes"


class TestIsomorphismOracle:
    def test_reflexive(self, monomial_ideal):
        assert is_isomorphic_oracle(monomial_ideal, monomial_ideal) == "yes"

    def test_distinguishes_alpha_twist(self):
        for p in (2, 3):
            par = RingParams(3, 14, p)
            a = mod(par, "x^2+y", "x*y", "y^2")
            b = mod(par, "x^2", "x*y", "y^2")
            assert is_isomorphic_oracle(a, b) == "no"
            assert is_isomorphic_oracle(b, a) == "no"

    def test_unit_rescaling_is_isomorphism(self):
        a = mod(P2, "x^3+y", "y")
        b = mod(P2, "x^3", "y")
        assert is_isomorphic_oracle(a, b) == "yes"

    def test_shifted_embedding_is_isomorphism(self, monomial_ideal):
        shifted = mod(P3, "x^3", "x^2*y", "x*y^2")
        assert is_isomorphic_oracle(monomial_ideal, shifted) == "yes"

    def test_different_indices_never_isomorphic(self, monomial_ideal):
        assert is_isomorphic_oracle(monomial_ideal, mod(P3, "x^2", "y^2")) == "no"

    def test_hom_colon_lies_in_the_target(self):
        # (uM' : M) <= M' once N >= n*(v + v'), v and v' the y-degree-0
        # valuations: here n = 4, N = 16 and v + v' <= 3
        par = RingParams(4, required_precision(4, 1), 3)
        a, b = mod(par, "x + y", "y^2"), mod(par, "x + 2*y", "y^2")
        for M, Mp in ((a, b), (b, a), (mod(par, "x^2 + x*y", "x*y^2"), a)):
            u = _min_valuation_element(M)[0]
            W = linalg.span(_mul_rows(u, Mp.num.rows(), par, 1), par.p, M.width)
            T = _colon(W, M)
            assert T.shape[0] and not Mp.num.reduce(T).any()

    def test_randomized_path(self, monomial_ideal):
        # budget 1 forces sampling: a failed search is only inconclusive,
        # while positive instances are still found (the solution set is dense)
        twisted = mod(P3, "x^2+y", "x*y", "y^2")
        verdict = is_isomorphic_oracle(monomial_ideal, twisted, budget=1, samples=200)
        assert verdict == "inconclusive"
        assert is_isomorphic_oracle(
            monomial_ideal, monomial_ideal, budget=1, samples=2000) == "yes"

    def test_largest_prime(self):
        # single-jump stalks (x + z*y, y^2) at n = 4: z is unique, so z = 5 and
        # z = 6 are not isomorphic, while unit-disguised generators are
        par = RingParams(4, required_precision(4, 1), 65521)
        a = mod(par, "x + 5*y", "y^2")
        u, v = parse_elem("7 + x + y", par), parse_elem("65520 + 3*x", par)
        disguised = span_from_generators(
            [u * parse_elem("y^2", par), v * parse_elem("x + 5*y", par)])
        assert is_isomorphic_oracle(a, disguised) == "yes"
        assert is_isomorphic_oracle(disguised, a) == "yes"
        twisted = mod(par, "x + 6*y", "y^2")
        assert is_isomorphic_oracle(a, twisted, budget=1, samples=64) != "yes"


class TestModuleFiles:
    def test_round_trip(self, monomial_ideal):
        text = format_module(P3, 1, [(parse_elem(t, P3),) for t in ("x^2", "x*y", "y^2")])
        M = parse_module_text(text)
        assert M.num == monomial_ideal.num

    def test_header_required(self):
        with pytest.raises(DomainError):
            parse_module_text("x^2\ny\n")

    def test_rank_mismatch_rejected(self):
        with pytest.raises(DomainError):
            parse_module_text("ring n=2 N=8 p=2 rank=2\nx^2\n")

    def test_rank_two_vectors(self):
        M = parse_module_text("ring n=2 N=8 p=2 rank=2\nx, y\n0, 1\n")
        assert M.ambient_rank == 2
        # second component is everything (16); modulo that, the first runs over x*A (14)
        assert M.length() == 30

    def test_coefficient_outside_the_field_rejected(self):
        with pytest.raises(DomainError):
            parse_module_text("ring n=2 N=12 p=7 rank=1\n7*x + y\nx^2\n")
        with pytest.raises(DomainError):
            parse_module_text("ring n=2 N=12 p=7 rank=2\nx, -8*y\n")

    def test_x_degree_beyond_precision_rejected(self):
        with pytest.raises(DomainError):
            parse_module_text("ring n=2 N=12 p=7 rank=1\nx^100 + y\nx^2\n")
        with pytest.raises(DomainError):
            parse_module_text("ring n=2 N=12 p=7 rank=1\nx^12\n")

    @pytest.mark.parametrize("text", [
        "ring n=2 N=12 p=7 rank=1 prec=40\nx^2\n",  # an unknown key
        "ring n=2 N=18 N=30 p=7 rank=1\nx^2\n",    # a repeated key
        "ring n=2 N=12 p=7 rank=0\n",               # no ambient module
        "ring n=2 N=12 p=7 rank=-1\n",
    ])
    def test_header_input_that_would_be_ignored_rejected(self, text):
        with pytest.raises(DomainError):
            parse_module_text(text)

    def test_faithful_terms_accepted(self):
        M = parse_module_text("ring n=2 N=12 p=7 rank=1\n6*x^11 - y\n-6*x^2 + y^2\n")
        par = RingParams(2, 12, 7)
        assert M.num == mod(par, "6*x^11 + 6*y", "x^2").num


@st.composite
def module_specs(draw):
    params = RingParams(draw(st.integers(1, 3)), draw(st.integers(1, 6)),
                        draw(st.sampled_from([2, 3, 65521])))
    rank = draw(st.integers(1, 2))
    row = st.lists(st.integers(0, params.p - 1), min_size=params.N, max_size=params.N)
    elem = st.lists(row, min_size=params.n, max_size=params.n).map(lambda g: RingElem(params, g))
    vecs = st.lists(elem, min_size=rank, max_size=rank).map(tuple)
    return params, rank, draw(st.lists(vecs, min_size=1, max_size=3))


@settings(max_examples=60, deadline=None)
@given(spec=module_specs())
def test_module_spec_round_trip(spec):
    params, rank, gens = spec
    M = parse_module_text(format_module(params, rank, gens))
    assert M.num == span_from_generators(gens, params=params, ambient_rank=rank).num

