import numpy as np
import pytest
from hypothesis import given, settings

from helpers import ext1_n3_closed_form, ext1_special_closed_form, special_stalks, x_scaled_copy

from multicurve import linalg
from multicurve.errors import (
    DomainError,
    MissingInput,
    NotInvertibleError,
    UnsupportedConfig,
    VerificationError,
)
from multicurve.ext import closed_form_ext1, global_ext1_dimension, local_ext1, local_ext1_length
from multicurve.invariants import CurveParams, dual_indices, genus
from multicurve.moduli import LocalConfig, PointIndices, special_point
from multicurve.modules import (
    ModuleRep,
    _certified,
    _check_complex,
    _fp_basis,
    _generator_levels,
    _lattice_coords,
    _mul_rows,
    _valuations,
    build_resolution,
    dual_module_oracle,
    flatten,
    indices,
    is_isomorphic_oracle,
    lift_module,
    span_from_generators,
    unflatten,
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


def mod(params, *texts):
    return span_from_generators([parse_elem(t, params) for t in texts])


def elems(arr, par):
    """Flat rows of A, in an array of any leading shape, as nested RingElem lists."""
    if arr.ndim == 1:
        return unflatten(arr, par, 1)[0]
    return [elems(a, par) for a in arr]


def ring_matmul(A, B, par):
    """Product of RingElem matrices (lists of rows) by RingElem arithmetic."""
    zero = RingElem.zero(par)
    out = []
    for row in A:
        out.append([sum((row[k] * B[k][j] for k in range(len(B))), zero)
                    for j in range(len(B[0]))])
    return out


def _hom_action_matrix(res_mat, I):
    """Matrix of phi -> phi o M on Hom(A^r, I) = I^r in I-basis coordinates."""
    fp = _fp_basis(I)
    basis, pivots = fp.rows(), list(fp.pivots)

    def block(e):
        # column t: coordinates of e * (basis row t); valid as the basis is in RREF
        return _mul_rows(e, basis, I.params, 1)[:, pivots].T

    # block (j, k): component j of phi o M picks (M)_{k j} * v_k
    r = len(res_mat)
    return np.block([[block(res_mat[k, j]) for k in range(r)] for j in range(r)])


def _ext1_by_homology(I: ModuleRep) -> int:
    """dim ker(.M2) - dim im(.M1) on Hom(A^r, I) = I^r, by two F_p ranks of
    (r*dim I)-square matrices: the reference for the Smith valuations."""
    _, M1, M2 = build_resolution(I)
    a1, a2 = _hom_action_matrix(M1, I), _hom_action_matrix(M2, I)
    return a1.shape[0] - linalg.rank(a2, I.params.p) - linalg.rank(a1, I.params.p)


def _certified_homology(I: ModuleRep) -> int:
    return _certified(I.params.N, lambda k: _ext1_by_homology(lift_module(I, k)))


FACTORIZATION_CASES = [
    (2, (2,), {}, 3),
    (3, (1, 3), {(3, 1): (1, 1)}, 2),
    (4, (1, 2, 3), {}, 2),
    (4, (1, 2, 3), {(3, 1): (1,), (4, 2): (1,)}, 3),
    (4, (0, 1, 2), {(4, 1): (1,)}, 5),
    (5, (0, 1, 1, 2), {(5, 3): (2,)}, 3),
]


class TestBuildResolution:
    def test_ribbon_matrix_shape(self):
        # (x^3, y): y*x^3 = x^3*y, so M1 = [[y, 0], [-x^3, y]] and adj(M1) = [[y, 0], [x^3, y]]
        par = RingParams(2, 16, 2)
        I = special_ideal(make_special_form(2, 3, 1), par)
        f, M1, M2 = build_resolution(I)
        assert f.shape == (2, 2 * 16) and M1.shape == M2.shape == (2, 2, 2 * 16)
        y, x3, zero = (parse_elem(t, par) for t in ("y", "x^3", "0"))
        assert elems(f, par) == [x3, y]
        assert elems(M1, par) == [[y, zero], [-x3, y]]
        assert elems(M2, par) == [[y, zero], [x3, y]]

    def test_jump_two_exponents(self):
        # (x^2, y^2) at n = 3: generators at levels 0 and 2, gaps 2 and 1
        par = RingParams(3, 18, 2)
        I = special_ideal(make_special_form(3, 2, 2), par)
        _, M1, M2 = build_resolution(I)
        M1, M2 = elems(M1, par), elems(M2, par)
        assert (M1[0][0], M1[1][1]) == (parse_elem("y^2", par), parse_elem("y", par))
        assert (M2[0][0], M2[1][1]) == (parse_elem("y", par), parse_elem("y^2", par))

    def test_three_generator_resolution(self):
        # y*(x^2 + y) = x*(x*y) + 1*y^2: the alpha slot of M1 is -1
        par = RingParams(3, 18, 2)
        f, M1, _ = build_resolution(mod(par, "x^2+y", "x*y", "y^2"))
        assert elems(f, par) == [parse_elem(t, par) for t in ("x^2+y", "x*y", "y^2")]
        assert elems(M1, par)[2][0] == -parse_elem("1", par)

    @pytest.mark.parametrize("n,beta,alpha,p", FACTORIZATION_CASES)
    def test_matrix_factorization(self, n, beta, alpha, p):
        # checked by RingElem arithmetic, not by the production product kernel
        par = RingParams(n, required_precision(n, max(beta)), p)
        I = ideal_from_indices(make_general_form(n, beta, alpha), par)
        f, M1, M2 = (elems(a, par) for a in build_resolution(I))
        r, zero = len(f), RingElem.zero(par)
        assert r == 1 + sum(1 for a, b in zip((0,) + beta, beta) if b > a)
        assert span_from_generators(f, params=par) == I
        for prod in (ring_matmul([f], M1, par), ring_matmul(M1, M2, par), ring_matmul(M2, M1, par)):
            assert all(e.is_zero() for row in prod for e in row)
        # M1 is lower triangular with diagonal y^(d_i), sum d_i = n, so det M1 = y^n
        assert all(M1[i][k] == zero for i in range(r) for k in range(i + 1, r))
        d = [M1[i][i].y_valuation() for i in range(r)]
        assert [M1[i][i] for i in range(r)] == [RingElem.monomial(par, 1, 0, e) for e in d]
        assert sum(d) == n

    @pytest.mark.parametrize("n,beta,alpha,p", FACTORIZATION_CASES)
    def test_m1_is_read_off_the_basis_y_t_f_k(self, n, beta, alpha, p):
        # the coordinates of y^(d_i) f_i in the triangular basis y^t f_k
        # (not H) rebuild it by RingElem arithmetic, and minus the ones at
        # the levels of f_k are M1[k, i] below the diagonal
        par = RingParams(n, required_precision(n, max(beta)), p)
        I = ideal_from_indices(make_general_form(n, beta, alpha), par)
        f, M1, _ = build_resolution(I)
        v = _valuations(I)
        gens = _generator_levels(v)
        gaps = np.diff(gens + [n])
        ys = [RingElem.monomial(par, 1, 0, t) for t in range(n + 1)]
        basis = [ys[t] * elems(f[k], par) for k, d in enumerate(gaps) for t in range(d)]
        targets = [ys[d] * elems(f[i], par) for i, d in enumerate(gaps)]
        c = _lattice_coords(np.array([flatten(g, par, 1) for g in targets]),
                            np.array([flatten(g, par, 1) for g in basis]), v, par.N, p)
        for i, target in enumerate(targets):
            polys = [RingElem(par, [row.tolist()] + [[0] * par.N] * (n - 1)) for row in c[i]]
            assert sum((a * g for a, g in zip(polys, basis)), RingElem.zero(par)) == target
            for k in range(i + 1, len(gens)):
                entry = M1[k, i].reshape(n, par.N)
                assert np.array_equal(entry[: gaps[k]], -c[i, gens[k]:gens[k] + gaps[k]] % p)
                assert not entry[gaps[k]:].any()

    def test_complex_property_enforced(self):
        par = RingParams(2, 12, 2)
        y, one = (flatten(parse_elem(t, par), par, 1) for t in ("y", "1"))
        f = np.array([y, one])
        with pytest.raises(VerificationError):
            _check_complex(f, np.array([[y, one], [y, y]]), np.array([[y, y], [y, y]]), par)

    def test_free_module_has_the_trivial_factorization(self):
        # r = 1, M1 = (y^n) = 0 and M2 = (1): the dual of a free stalk is A
        par = RingParams(3, 18, 2)
        I = mod(par, "x^2 + y")
        f, M1, M2 = build_resolution(I)
        assert span_from_generators(elems(f, par), params=par) == I
        assert elems(M1, par) == [[RingElem.zero(par)]]
        assert elems(M2, par) == [[RingElem.one(par)]]

    def test_rank_two_rejected(self):
        # x, y and y^2, 0 span a submodule of A^2 (isomorphic to (x, y^2))
        par = RingParams(3, 18, 2)
        x, y, y2 = (parse_elem(t, par) for t in ("x", "y", "y^2"))
        M = span_from_generators([(x, y), (y2, RingElem.zero(par))], params=par, ambient_rank=2)
        with pytest.raises(DomainError):
            build_resolution(M)
        with pytest.raises(DomainError):
            local_ext1_length(M)

    @pytest.mark.parametrize("gens", [("y",), ("x*y", "y^2")])
    def test_proper_subcurve_rejected(self, gens):
        # (y) lives on C_2 only and its Ext^1 has infinite length; it used to pass
        # as a free module and report 0
        par = RingParams(3, 12, 2)
        with pytest.raises(NotInvertibleError):
            build_resolution(mod(par, *gens))
        with pytest.raises(NotInvertibleError):
            local_ext1_length(mod(par, *gens))


class TestKeptFactorization:
    def test_kept_and_read_only(self):
        M = mod(RingParams(3, 18, 2), "x^2+y", "x*y", "y^2")
        res = build_resolution(M)
        assert build_resolution(M) is res and M.resolution is res
        for a in res:
            with pytest.raises(ValueError):
                a[...] = 0

    def test_a_lift_has_its_own(self):
        par = RingParams(3, 18, 2)
        M = mod(par, "x^2+y", "x*y", "y^2")
        res = build_resolution(M)
        lift = lift_module(M, par.N + 2)
        assert build_resolution(lift) is lift.resolution is not res
        assert lift.resolution[0].shape == (3, 3 * (par.N + 2)) and res[0].shape == (3, 3 * par.N)
        assert M.resolution is res

    def test_a_failed_check_is_not_kept(self, monkeypatch):
        def failing(*args):
            raise VerificationError("resolution is not a complex")

        monkeypatch.setattr("multicurve.modules._check_complex", failing)
        M = mod(RingParams(3, 18, 2), "x^2+y", "x*y", "y^2")
        for _ in range(2):
            with pytest.raises(VerificationError):
                build_resolution(M)
        assert M.resolution is None

    def test_one_check_per_module(self, monkeypatch):
        # the dual, Ext^1, the oracle both ways and the normal form, twice:
        # each module (M, its partner, their lifts) is checked exactly once
        checked = []

        def spy(f, M1, M2, params):
            checked.append(f)
            _check_complex(f, M1, M2, params)

        monkeypatch.setattr("multicurve.modules._check_complex", spy)
        par = RingParams(4, required_precision(4, 2), 3)
        M = special_ideal(make_special_form(4, 2, 2, [[1, 1]]), par)
        x = parse_elem("x", par)
        partner = span_from_generators([x * g[0] for g in M.gens], params=par)
        for _ in range(2):
            dual_module_oracle(M)
            local_ext1(M)
            assert is_isomorphic_oracle(M, partner) == is_isomorphic_oracle(partner, M) == "yes"
            normalize_special(M)
        kept = [S for T in (M, partner) for S in (T, *T.lifts.values()) if S.resolution is not None]
        assert len(kept) >= 4 and len(checked) == len(kept)
        assert all(any(S.resolution[0] is f for f in checked) for S in kept)


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

    def test_multi_jump_beyond_multiplicity_three(self):
        # no closed form: the monomial (1, 2, 3) stalk at n = 4
        par = RingParams(4, required_precision(4, 3), 2)
        I = ideal_from_indices(make_general_form(4, (1, 2, 3)), par)
        assert local_ext1_length(I) == 12

    def test_free_module(self):
        par = RingParams(3, 18, 2)
        assert local_ext1_length(mod(par, "1")) == 0

    @pytest.mark.parametrize("n,N,b,j,value", [
        (3, 5, 4, 2, 8),
        (4, 3, 2, 3, 4),
        (4, 7, 4, 3, 8),
        (3, 3, 2, 2, 4),
    ])
    def test_below_n_min_equals_the_lift_to_n_min(self, n, N, b, j, value):
        # (x^b + y, y^j) below N_min: read at N and N+2, the first three gave
        # 10, 6 and 14, certified, as both truncations had the same wrong
        # closed form, and the last raised PrecisionError; read at
        # W = max(N, 2*n*v_0), each equals the same generators at N_min
        I = mod(RingParams(n, N, 2), f"x^{b} + y", f"y^{j}")
        big = lift_module(I, required_precision(n, b))
        assert local_ext1_length(I) == local_ext1_length(big) == value
        # the indices come at W too: those of the module, not of its truncation
        assert local_ext1(I) == (value, indices(big))

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

    def test_copy_whose_lead_is_not_x_reduced(self):
        # (x^2 + y, x*y) = ((x^2 + y) / x) * (x, y) at n = 2; it used to be
        # refused as "not divisible by x^1"
        par = RingParams(2, 8, 2)
        I = mod(par, "x^2+y", "x*y")
        assert is_isomorphic_oracle(I, mod(par, "x", "y")) == "yes"
        assert local_ext1_length(I) == 2

    @pytest.mark.parametrize("t", ["x^2+y", "x^2+x*y+y^2", "x^3+y"])
    def test_invariance_under_scaled_copies(self, t):
        # (t / x^k) * M is isomorphic to M; most of these copies used to be
        # refused, by Ext^1 and, for single-jump M, by the normalizer
        cases = [(3, (1, 2), {}, 2), (3, (1, 3), {(3, 1): (0, 1)}, 3), (4, (0, 1, 1), {}, 2),
                 (4, (1, 1, 1), {}, 3), (4, (1, 2, 2), {(4, 2): (1,)}, 2)]
        for n, beta, alpha, p in cases:
            par = RingParams(n, required_precision(n, max(beta)), p)
            M = ideal_from_indices(make_general_form(n, beta, alpha), par)
            copy = x_scaled_copy(M, t)
            assert indices(copy) == beta
            assert local_ext1_length(copy) == local_ext1_length(M)
            if PointIndices(beta).special:
                assert normalize_special(copy) == normalize_special(M)
                assert indices(dual_module_oracle(copy)) == dual_indices(beta)

    def test_dual_has_the_same_length(self):
        # Hom(-, R) is an exact duality on maximal Cohen-Macaulay modules over the
        # Gorenstein ring R, so Ext^1(I, I) and Ext^1(I*, I*) have equal length
        for n, top, p, step in ((3, 2, 3, 1), (4, 2, 2, 2), (5, 1, 3, 3)):
            par = RingParams(n, required_precision(n, top), p)
            forms = [f for f in iter_normal_forms(n, top, p) if any(f.beta)]
            for form in forms[::step]:
                I = ideal_from_indices(form, par)
                assert local_ext1_length(dual_module_oracle(I)) == local_ext1_length(I), form

    def test_closed_form_dispatch(self):
        assert closed_form_ext1(4, (0, 0, 0)) == 0
        assert closed_form_ext1(5, (0, 2, 2, 2)) == ext1_special_closed_form(5, 2, 2)
        assert closed_form_ext1(3, (1, 3)) == ext1_n3_closed_form(1, 3)
        assert closed_form_ext1(4, (1, 2, 3)) is None


@settings(max_examples=30, deadline=None)
@given(special_stalks())
def test_ext1_matches_the_homology_reference(I):
    # every kind of single-jump stalk (built, shifted, scaled, bare), p in {2, 3}
    assert local_ext1_length(I) == _certified_homology(I)


def test_ext1_matches_the_homology_reference_beyond_the_closed_forms():
    # a stalk at the largest prime, and the n = 4, beta = (1, 2, 3), p = 2
    # forms, which have no closed form and split into 10 and 12
    I = mod(RingParams(4, required_precision(4, 1), 65521), "x + 5*y", "y^2")
    assert local_ext1_length(I) == _certified_homology(I) == 4
    par = RingParams(4, required_precision(4, 3), 2)
    values = []
    for form in iter_normal_forms(4, 3, 2):
        if form.beta == (1, 2, 3):
            I = ideal_from_indices(form, par)
            values.append(local_ext1_length(I))
            assert values[-1] == _certified_homology(I), form
    assert sorted(values) == [10] * 4 + [12] * 4


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


@pytest.mark.parametrize("p", [2, 3])
def test_n3_reduced_alpha_is_an_isomorphism_key(p):
    # every n = 3 normal form with b2 <= 3, bucketed by beta and by alpha_(3,1)
    # cut to min(b1, b2 - b1) coefficients: each form is isomorphic to the first
    # of its key class, and the first forms of distinct classes are not, so by
    # transitivity the key and the oracle agree on every same-beta pair
    par = RingParams(3, required_precision(3, 3), p)
    buckets = {}
    for form in iter_normal_forms(3, 3, p):
        b1, b2 = form.beta
        cut = min(b1, b2 - b1)
        key = tuple(dict(form.alpha).get((3, 1), (0,) * cut)[:cut])
        I = ideal_from_indices(form, par)
        buckets.setdefault(form.beta, {}).setdefault(key, []).append(I)
    assert any(len(classes) > 1 for classes in buckets.values())
    for classes in buckets.values():
        firsts = [members[0] for members in classes.values()]
        for members in classes.values():
            assert all(is_isomorphic_oracle(members[0], I) == "yes" for I in members[1:])
        for k, a in enumerate(firsts):
            assert all(is_isomorphic_oracle(a, b) == "no" for b in firsts[k + 1:])
