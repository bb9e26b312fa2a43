import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (
    ext1_special_closed_form, fp_equal, fp_leq, naive_closure, naive_span_dim, nullspace, span, special_stalks,
    x_scaled_copy,
)

from multicurve import linalg
from multicurve.errors import ContainmentError, DomainError, NotInvertibleError, PrecisionError, VerificationError
from multicurve.ext import local_ext1, local_ext1_length
from multicurve.invariants import dual_indices
from multicurve.modules import (
    ModuleRep,
    _certified,
    _fp_basis,
    _from_lattice_coords,
    _generator_rows,
    _hom_kernel,
    _hom_matrix,
    _lattice_coords,
    _mul_rows,
    _shift,
    _span,
    _valuations,
    build_resolution,
    dual_module_oracle,
    first_filtration,
    flatten,
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
    unflatten,
    zero_module,
)
from multicurve.normal_form import (
    ideal_from_indices,
    iter_normal_forms,
    make_general_form,
    make_special_form,
    normalize_special,
    special_ideal,
)
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

    def test_validate_refuses_rows_that_are_not_the_howell_form(self):
        # p = 3, n = 2, N = 2: flat index 2*i + a holds x^a y^i
        par = RingParams(2, 2, 3)
        one, one_plus_y, y = [1, 0, 0, 0], [1, 0, 1, 0], [0, 0, 1, 0]
        ModuleRep(par, 1, np.array([one, y])).validate()
        bad = (
            [one, one_plus_y],  # two rows led in one block
            [one_plus_y, y],  # unreduced: spans A, whose Howell form is (1, y)
            [one],  # not y-closed
        )
        for rows in bad:
            with pytest.raises(ContainmentError, match="reduced Howell form"):
                ModuleRep(par, 1, np.array(rows)).validate()


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
            assert fp_equal(_fp_basis(step), _fp_basis(ff[i + 1]))
            # y^i M is killed by y^(n-i)
            assert fp_leq(_fp_basis(ff[i]), _fp_basis(sf[n - i]))


def _rank_two_invariants_refused(M):
    for which in ("first", "second"):
        with pytest.raises(DomainError):
            graded_report(M, which)
    for invariant in (indices, indices_by_definition):
        with pytest.raises(DomainError):
            invariant(M)


class TestRankTwo:
    # the filtrations are defined in any rank; the graded reports and the
    # indices are read off the valuations of a submodule of A, so rank >= 2
    # is refused
    def test_graph_module(self):
        # M = A * (1, x^4) projects injectively onto its first component, so it
        # is free of rank 1: y^k M has length (n - k)*N, ann_M(y^k) = y^(n-k) M
        # has length k*N
        par = RingParams(2, 6, 3)
        M = span_from_generators([(RingElem.one(par), parse_elem("x^4", par))])
        assert [m.length() for m in first_filtration(M)] == [12, 6, 0]
        assert [m.length() for m in second_filtration(M)] == [0, 6, 12]
        _rank_two_invariants_refused(M)

    def test_free_module_is_not_invertible(self):
        one, zero = RingElem.one(P3), RingElem.zero(P3)
        free = span_from_generators([(one, zero), (zero, one)])
        assert [m.length() for m in first_filtration(free)] == [108, 72, 36, 0]
        _rank_two_invariants_refused(free)

    def test_module_isomorphic_to_an_ideal(self):
        # A(x, y) + A(y^2, 0) is isomorphic to (x, y^2) through its first
        # coordinate, but no valuation formula applies in A^2
        M = span_from_generators(
            [(parse_elem("x", P3), parse_elem("y", P3)), (parse_elem("y^2", P3), RingElem.zero(P3))])
        _rank_two_invariants_refused(M)


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
        with pytest.raises(DomainError):
            indices(free_rank2)
        with pytest.raises(NotInvertibleError):
            indices(zero_module(P3))
        # x^(N-1) y^2 spans a module on the reduced curve, whatever N is
        top = span_from_generators([parse_elem(f"x^{P3.N - 1}*y^2", P3)])
        assert indices(top) == ()

    @pytest.mark.parametrize("N", [18, 20, 34, 36])
    def test_top_level_module_at_every_precision(self, N):
        par = RingParams(3, N, 2)
        assert indices(mod(par, "x^17*y^2")) == ()

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
        bare = ModuleRep(P3, 1, monomial_ideal.H)
        assert lift_module(bare, P3.N + 4) == lift_module(monomial_ideal, P3.N + 4)
        zero = ModuleRep(P3, 1, zero_module(P3).H)
        assert lift_module(zero, P3.N + 2).is_zero()

    def test_lift_to_a_lower_precision_is_refused(self):
        M = mod(RingParams(2, 12, 2), "x^2", "y")
        with pytest.raises(DomainError):
            lift_module(M, 10)

    def test_lifts_are_kept_on_the_module(self):
        # a certified call closes M at N+2 once; the kept lift equals a fresh one
        M = mod(P3, "x^2", "x*y", "y^2")
        indices(M)
        kept = M.lifts[P3.N + 2]
        assert lift_module(M, P3.N + 2) is kept
        graded_report(M, "first")
        assert lift_module(M, P3.N + 2) is kept
        assert kept == lift_module(mod(P3, "x^2", "x*y", "y^2"), P3.N + 2)
        assert lift_module(M, P3.N) is M and P3.N not in M.lifts

    def test_rank_two_lift_without_generators(self):
        # the module of (1, x^(N-1)) is a graph over its first component; its
        # basis holds (x, 0), the truncation of (x, x^N), which the lift must
        # not keep: the lattice rows lift like the generator
        par = RingParams(2, 5, 3)
        M = span_from_generators([(RingElem.one(par), parse_elem("x^4", par))])
        bare = ModuleRep(par, 2, M.H)
        assert lift_module(bare, par.N + 2) == lift_module(M, par.N + 2)


@st.composite
def normal_form_copies(draw):
    """(M, generators of M): a normal-form ideal at N_min as built, times a
    unit, times x, without remembered generators, or its pure quotient
    y^(n-i) M."""
    n, p = draw(st.integers(2, 4)), draw(st.sampled_from([2, 3, 65521]))
    beta = tuple(sorted(draw(st.lists(st.integers(0, 2), min_size=n - 1, max_size=n - 1))))
    b = (0,) + beta
    coeffs = lambda d: st.lists(st.integers(0, p - 1), min_size=d, max_size=d)  # noqa: E731
    alpha = {(i, j): draw(coeffs(b[n - j] - b[n - j - 1]))
             for i in range(3, n + 1) for j in range(1, i - 1)}
    par = RingParams(n, required_precision(n, max(beta)), p)
    M = ideal_from_indices(make_general_form(n, beta, alpha), par)
    gens = [g[0] for g in M.gens]
    kind = draw(st.sampled_from(["built", "unit", "shifted", "bare", "quotient"]))
    if kind == "bare":
        return ModuleRep(par, 1, M.H), gens
    if kind == "quotient":
        i = draw(st.integers(1, n))
        y = RingElem.monomial(par, 1, 0, n - i)
        return pure_quotient(M, i), [y * g for g in gens]
    if kind == "unit":
        grid = [draw(coeffs(3)) + [0] * (par.N - 3) for _ in range(n)]
        grid[0][0] = grid[0][0] or 1
        gens = [RingElem(par, grid) * g for g in gens]
    elif kind == "shifted":
        gens = [RingElem.monomial(par, 1, 1, 0) * g for g in gens]
    return span_from_generators(gens, params=par), gens


@settings(max_examples=40, deadline=None)
@given(normal_form_copies())
def test_graded_pieces_match_brute_force_lengths(case):
    # the lengths of y^k M come from the y^k-multiples of the generators, by
    # brute force: G_k = y^k M / y^(k+1) M is nonzero exactly for k < m, and
    # since the last piece y^(m-1) M is torsion-free, the torsion of G_k is
    # len(G_k) - len(G_(m-1))
    M, gens = case
    par = M.params
    assert indices(M) == indices_by_definition(M)
    y = RingElem.monomial(par, 1, 0, 1)
    lengths = []
    for _ in range(par.n + 1):
        lengths.append(naive_span_dim(gens, par))
        gens = [y * g for g in gens]
    piece = [lengths[k] - lengths[k + 1] for k in range(par.n)]
    m = sum(1 for length in piece if length)
    rep = graded_report(M, "first")
    assert rep.ranks == (1,) * m + (0,) * (par.n - m)
    assert rep.torsions == tuple(piece[k] - piece[m - 1] for k in range(m)) + (0,) * (par.n - m)


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


class TestGeneratorRows:
    @pytest.mark.parametrize("texts", [("x^2 + 2*y", "x*y", "y^2"), ("x, y", "y^2, 0")])
    def test_gens_of_a_lift_and_of_the_pure_quotients(self, texts):
        par = RingParams(3, 18, 3)
        gens = [tuple(parse_elem(t, par) for t in text.split(",")) for text in texts]
        M = span_from_generators(gens, params=par, ambient_rank=len(gens[0]))
        assert M.gens == tuple(gens)
        big = par.with_precision(par.N + 2)
        assert lift_module(M, big.N).gens == tuple(tuple(RingElem(big, e.coeffs) for e in g) for g in gens)
        for i in range(1, par.n + 1):
            y = RingElem.monomial(par, 1, 0, par.n - i)
            assert pure_quotient(M, i).gens == tuple(tuple(y * e for e in g) for g in gens)

    def test_gen_rows_are_read_only(self, monomial_ideal):
        with pytest.raises(ValueError):
            monomial_ideal.gen_rows[0, 0] = 1


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
        bare = ModuleRep(P3, 1, monomial_ideal.H)
        assert bare.gens is None
        assert indices(dual_module_oracle(bare)) == (1, 2)

    @pytest.mark.parametrize("n, b, j, z, p", [(6, 1, 3, [[1], [1]], 3), (5, 2, 2, [[1, 2]], 3)])
    def test_wide_stalks_without_generators(self, n, b, j, z, p):
        # the lattice rows stand in for the generators: same dual, same lift
        par = RingParams(n, required_precision(n, b), p)
        M = special_ideal(make_special_form(n, b, j, z), par)
        bare = ModuleRep(par, 1, M.H)
        assert dual_module_oracle(bare) == dual_module_oracle(M)
        assert lift_module(bare, par.N + 2) == lift_module(M, par.N + 2)

    def test_colon_lifted_to_colength(self):
        # s = x^v + y has colength n*v > N (12 > 9, 12 > 5): the factorization
        # is read at precision n*v; read at N, the second dual comes out (3, 4)
        for n, N, gens, dual in ((4, 9, ("x^3 + y", "y^2"), (0, 3, 3)),
                                 (3, 5, ("x^4 + y", "y^2"), (4, 4))):
            par = RingParams(n, N, 3)
            assert indices(dual_module_oracle(mod(par, *gens))) == dual

    def test_double_dual_isomorphic(self):
        for texts in (("x^2", "x*y", "y^2"), ("x^2+y", "x*y", "y^2"), ("x", "y^2")):
            M = mod(P3, *texts)
            DD = dual_module_oracle(dual_module_oracle(M))
            assert is_isomorphic_oracle(M, DD) == "yes"


def _colon(target, M):
    """Basis rows of the transporter {t in A : t*M <= target}, by F_p linear
    algebra on n*N-square blocks: row k of `_mul_rows(g, eye(L))` is g times
    the k-th grid monomial, so the transposed residues mod target map t to
    the residue of g*t, and the colon is the common nullspace of these maps
    over M's generators g."""
    par = M.params
    grid = np.eye(par.n * par.N, dtype=np.int64)
    blocks = [target.reduce(_mul_rows(g, grid, par, 1)).T for g in _generator_rows(M)]
    return nullspace(np.vstack(blocks), par.p)


def _iso_by_colon(M, Mp, N_target):
    """The isomorphism verdict at one precision from Hom(M, M') as the colon
    T = (uM' : M), u the first lattice row of M, which lies in M' once
    N >= n*(v_0 + v'_0): a row t of a basis of T is onto exactly when the
    images g*t of M's generators span W / m*W, W = uM' and m = (x, y)."""
    par = M.params.with_precision(N_target)
    A, B = lift_module(M, N_target), lift_module(Mp, N_target)
    p, L = par.p, par.n * par.N
    u_row = _fp_basis(A).rows()[0]
    W = span(_mul_rows(u_row, _fp_basis(B).rows(), par, 1), p, L)
    Wm = span(np.vstack([_shift(W.rows(), par, 1, 1, 0), _shift(W.rows(), par, 1, 0, 1)]), p, L)
    c = W.dim - Wm.dim
    top_cols = list(span(Wm.reduce(W.rows()), p, L).pivots)
    T = _colon(W, A)
    images = np.stack([Wm.reduce(_mul_rows(g, T, par, 1)) for g in _generator_rows(A)])
    for t, block in zip(T, images[:, :, top_cols].transpose(1, 0, 2)):
        if linalg.rank(block, p) == c:
            if not fp_equal(span(_mul_rows(t, _fp_basis(A).rows(), par, 1), p, L), W):
                raise VerificationError("a map onto W / m*W does not map M onto u*M'")
            return "yes"
    return "no"


def _dual_rows_by_doubling(M, N):
    """The dual's rows by doubling: the colon at 2N, truncated to N, which
    is exact whenever 2N >= n*v."""
    work = M.params.with_precision(2 * N)
    M2 = lift_module(M, work.N)
    u = np.array(naive_closure(M2.H[:1], work, 1), dtype=np.int64)
    sol = _colon(linalg.from_rref(u, work.p), M2)
    sol = sol.reshape(-1, work.n, work.N)[..., :N].reshape(len(sol), -1)
    return span(sol, work.p, work.n * N)


@settings(max_examples=30, deadline=None)
@given(special_stalks())
def test_dual_precision_rule_matches_doubling(M):
    # the colon at 2N is exact here (2N >= n*v), and the column of the
    # factorization read at max(N, n*v) must span the same space
    for N in (M.params.N, M.params.N + 2):
        assert fp_equal(_fp_basis(dual_module_oracle(lift_module(M, N))), _dual_rows_by_doubling(M, N))


def _dual_cases():
    """Every normal form of (3, 2, 2), (4, 1, 2) and (4, 2, 2) at N_min, the
    single-jump stalks of `verify ext`, and (x^k + y, y^j) below n*k."""
    for n, top, p in ((3, 2, 2), (4, 1, 2), (4, 2, 2)):
        par = RingParams(n, required_precision(n, top), p)
        yield from (ideal_from_indices(form, par) for form in iter_normal_forms(n, top, p))
    for n in (2, 3, 4):
        par = RingParams(n, required_precision(n, 2), 2)
        yield from (special_ideal(make_special_form(n, b, j), par) for j in range(1, n) for b in (1, 2))
    for n, k, j, p in ((3, 2, 1, 2), (3, 4, 2, 3), (4, 2, 2, 2), (4, 3, 1, 3), (4, 3, 3, 2)):
        for N in range(k + 1, n * k, 2):
            yield mod(RingParams(n, N, p), f"x^{k}+y", f"y^{j}")


def test_dual_keeps_the_truncated_column():
    # the dual's generators are column 0 of M2 cut to N, its H is their span
    # as before, and the lift from the column is the lift from H (the
    # argument in `dual_module_oracle`), below n*v too
    checked = 0
    for M in _dual_cases():
        par, v = M.params, _valuations(M)[0]
        try:
            D = dual_module_oracle(M)
        except PrecisionError:
            continue
        col = build_resolution(lift_module(M, max(par.N, par.n * v)))[2][:, 0]
        rows = col.reshape(len(col), par.n, -1)[..., : par.N].reshape(len(col), -1)
        assert D.gens == tuple(unflatten(g, par, 1) for g in rows)
        assert np.array_equal(D.H, _span(rows, par, 1))
        bare = ModuleRep(par, 1, D.H)
        assert np.array_equal(lift_module(D, par.N + 2).H, lift_module(bare, par.N + 2).H)
        checked += 1
    assert checked == 90  # of 91: the dual of (x^2 + y, y^2) at n = 4, N = 3 is refused


class TestLatticeCoords:
    def test_padded_to_the_full_precision(self):
        # K = N > N - v_0: the coordinates of H in itself are the identity,
        # zero-padded past each row's N - v_l exact degrees
        M = mod(P3, "x^2+y", "x*y", "y^2")
        v = _valuations(M)
        assert v == (2, 1, 0)
        c = _lattice_coords(M.H, M.H, v, P3.N, P3.p)
        assert c.shape == (3, 3, P3.N)
        expected = np.zeros_like(c)
        expected[range(3), range(3), 0] = 1
        assert np.array_equal(c, expected)

    def test_a_row_outside_the_lattice_is_refused(self):
        M = mod(P3, "x^2+y", "x*y", "y^2")
        x = flatten(parse_elem("x", P3), P3, 1)[None]
        with pytest.raises(VerificationError, match=r"y-level 0 is not divisible by x\^2"):
            _lattice_coords(x, M.H, _valuations(M), P3.N - 2, P3.p)


@settings(max_examples=40, deadline=None)
@given(st.one_of(special_stalks(), normal_form_copies().map(lambda case: case[0])), st.integers(0, 2**32 - 1))
def test_lattice_coords_round_trip(M, seed):
    # random F_p[x]-combinations of H's rows come back as their coefficients
    # mod x^K, K = N - v_0; at K = N the padded coordinates rebuild the rows
    par, v = M.params, _valuations(M)
    assume(len(v) == par.n)
    K = par.N - v[0]
    c = np.random.default_rng(seed).integers(0, par.p, size=(3, par.n, K))
    rows = _from_lattice_coords(c, M.H, par.p)
    assert np.array_equal(_lattice_coords(rows, M.H, v, K, par.p), c)
    full = _lattice_coords(rows, M.H, v, par.N, par.p)
    assert np.array_equal(full[..., :K], c)
    assert all(not full[:, l, par.N - v[l]:].any() for l in range(par.n))
    assert np.array_equal(_from_lattice_coords(full, M.H, par.p), rows)


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

    def test_hom_basis_rows_are_maps(self):
        # Phi is the matrix of u -> u.M1 on M'^r in M''s lattice coordinates:
        # for drawn coordinates c, c.Phi are those of u.M1 below x^K, by ring
        # arithmetic.  Hom(M, M') has rank n over F_p[[x]]: the kernel has
        # exactly n rows, each row's values u_k lie in M', and u.M1 = 0 in
        # A / x^K A; M -> M holds the identity mod x
        par = RingParams(4, required_precision(4, 1), 3)
        rng = np.random.default_rng(0)
        a, b = mod(par, "x + y", "y^2"), mod(par, "x + 2*y", "y^2")
        for M, Mp in ((a, b), (b, a), (mod(par, "x^2 + x*y", "x*y^2"), a), (a, a)):
            phi, M1, H, K = _hom_matrix(M, Mp)
            r = len(M1)
            assert phi.shape == (r * par.n, r * par.n, K)
            c = rng.integers(0, par.p, size=r * par.n * K).reshape(r * par.n, K)
            image = np.zeros((r * par.n, K), dtype=np.int64)
            for s, t in np.ndindex(phi.shape[:2]):
                image[t] += np.convolve(c[s], phi[s, t])[:K]
            got = _from_lattice_coords(image.reshape(r, par.n, K) % par.p, H, par.p)
            values = [unflatten(g, par, 1)[0] for g in _from_lattice_coords(c.reshape(r, par.n, K), H, par.p)]
            for i in range(r):
                want = sum((g * unflatten(M1[k, i], par, 1)[0] for k, g in enumerate(values)),
                           RingElem.zero(par))
                assert [level[:K] for level in want.coeffs] == \
                    [level[:K] for level in unflatten(got[i], par, 1)[0].coeffs]
            u = _hom_kernel(phi, K, par)[0].reshape(par.n, r, par.n, K)
            f = build_resolution(M)[0]
            for row in u:
                values = [unflatten(g, par, 1)[0] for g in _from_lattice_coords(row, H, par.p)]
                assert all(Mp.contains(g) for g in values)
                for i in range(r):
                    image = sum((g * unflatten(M1[k, i], par, 1)[0] for k, g in enumerate(values)),
                                RingElem.zero(par))
                    assert not any(any(level[:K]) for level in image.coeffs)
            if M is Mp:
                # the identity sends f_k to f_k, the lattice row at its level
                levels = [int(np.flatnonzero(g)[0]) // par.N for g in f]
                ident = np.zeros((len(f), par.n), dtype=np.int64)
                ident[np.arange(len(f)), levels] = 1
                basis = u[:, :, :, 0].reshape(par.n, -1)
                assert linalg.rank(np.vstack([basis, ident.ravel()]), par.p) == par.n

    def test_largest_prime_pair_is_not_isomorphic(self):
        # (x + 5y, y^2) and (x + 6y, y^2) at n = 4, p = 65521: z is unique, so
        # no row of a basis of Hom, in either direction, is onto
        par = RingParams(4, required_precision(4, 1), 65521)
        a, b = mod(par, "x + 5*y", "y^2"), mod(par, "x + 6*y", "y^2")
        assert is_isomorphic_oracle(a, b) == "no"
        assert is_isomorphic_oracle(b, a) == "no"

    def test_an_onto_row_that_is_not_a_map_is_refused(self, monkeypatch):
        # x^(K-1) added to every coordinate leaves each row's onto test as it
        # was, but u.M1 no longer vanishes below x^K
        def perturbed(mat, p, K):
            kernel, valuations = eliminate(mat, p, K)
            kernel[..., K - 1] = (kernel[..., K - 1] + 1) % p
            return kernel, valuations

        eliminate = linalg.poly_eliminate
        monkeypatch.setattr(linalg, "poly_eliminate", perturbed)
        par = RingParams(4, required_precision(4, 1), 3)
        a = mod(par, "x + y", "y^2")
        with pytest.raises(VerificationError):
            is_isomorphic_oracle(a, a)

    def test_largest_prime_matches_the_colon(self):
        par = RingParams(4, required_precision(4, 1), 65521)
        a, b = mod(par, "x + 5*y", "y^2"), mod(par, "x + 6*y", "y^2")
        disguised = span_from_generators(
            [parse_elem("7 + x + y", par) * parse_elem("y^2", par),
             parse_elem("65520 + 3*x", par) * parse_elem("x + 5*y", par)])
        for M, Mp in ((a, b), (disguised, a)):
            for N in (par.N, par.N + 2):
                A, B = lift_module(M, N), lift_module(Mp, N)
                assert is_isomorphic_oracle(A, B) == _certified(N, lambda k: _iso_by_colon(A, B, k))

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
        assert is_isomorphic_oracle(disguised, twisted) == "no"


@settings(max_examples=30, deadline=None)
@given(special_stalks(with_partner=True))
def test_oracle_matches_the_colon_reference(pair):
    # the lattice oracle and the colon oracle agree, in both directions, on
    # every kind of stalk against a z-partner, at N and at N+2
    M, Mp = pair
    for N in (M.params.N, M.params.N + 2):
        A, B = lift_module(M, N), lift_module(Mp, N)
        for S, T in ((A, B), (B, A)):
            assert is_isomorphic_oracle(S, T) == _certified(N, lambda k: _iso_by_colon(S, T, k))


@settings(max_examples=25, deadline=None)
@given(special_stalks(with_partner=True).filter(lambda pair: pair[0].params.n >= 3))
def test_kept_fields_change_no_answer(pair):
    # a stalk and its x-scaled copy, asked twice each, with their lifts,
    # factorizations and y-actions kept, against bare copies that keep nothing
    M, partner = pair
    X = x_scaled_copy(M, "x^2+y")

    def bare(S):
        return ModuleRep(S.params, 1, S.H)

    def answers(S, T, P):
        return (is_isomorphic_oracle(S, T), is_isomorphic_oracle(S, P),
                indices(dual_module_oracle(S)), local_ext1(S), normalize_special(S))

    for S, T in ((M, X), (X, M)):
        first = answers(S, T, partner)
        assert S.resolution is not None
        assert any(L.y_powers is not None for L in (T, *T.lifts.values()))
        assert answers(S, T, partner) == first == answers(bare(S), bare(T), bare(partner))
    assert first[0] == "yes"


def test_a_wide_stalk_at_n_12():
    # (x^12 + y, y^6) at N_min = 312, p = 3, which the F_p closure could not
    # build within a test budget: every certified call meets its closed form
    n, b, j = 12, 12, 6
    par = RingParams(n, required_precision(n, b), 3)
    M = special_ideal(make_special_form(n, b, j, [[1] + [0] * (b - 1)]), par)
    assert indices(M) == (0,) * (j - 1) + (b,) * (n - j)
    assert indices(dual_module_oracle(M)) == (0,) * (n - j - 1) + (b,) * j
    assert local_ext1_length(M) == ext1_special_closed_form(n, j, b)
    x = parse_elem("x", par)
    assert is_isomorphic_oracle(M, span_from_generators([x * g[0] for g in M.gens], params=par)) == "yes"


class TestModuleFiles:
    def test_round_trip(self, monomial_ideal):
        text = format_module(P3, 1, [(parse_elem(t, P3),) for t in ("x^2", "x*y", "y^2")])
        M = parse_module_text(text)
        assert fp_equal(_fp_basis(M), _fp_basis(monomial_ideal))

    def test_header_required(self):
        with pytest.raises(DomainError):
            parse_module_text("x^2\ny\n")

    @pytest.mark.parametrize("header", ["ringo n=2 N=6 p=3 rank=1", "rings n=2 N=6 p=3 rank=1"])
    def test_header_keyword_is_exactly_ring(self, header):
        with pytest.raises(DomainError):
            parse_module_text(header + "\nx\n")

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
        assert fp_equal(_fp_basis(M), _fp_basis(mod(par, "6*x^11 + 6*y", "x^2")))


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
    assert fp_equal(_fp_basis(M), _fp_basis(span_from_generators(gens, params=params, ambient_rank=rank)))

