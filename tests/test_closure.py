"""Parity of the modules that `span_from_generators` and `lift_module` build
from the Howell form (`linalg.howell`) with the independent closure of
tests/helpers.py (the span of every monomial multiple, reduced by a
pure-Python elimination), of the lattice rows (`helpers.lattice_rows`) that
regenerate a closed space, and of the two filtrations of a closed space with
their definitions.

The RREF of a space is unique, so the F_p basis of a module (`_fp_basis`)
must match the naive closure row for row, and its lattice rows must be the
Howell rows.
p = 65521 is the largest prime RingParams admits.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multicurve import linalg
from multicurve.errors import ContainmentError
from multicurve.modules import (
    ModuleRep, _fp_basis, _shift, first_filtration, flatten, lift_module, quotient_length, second_filtration,
    span_from_generators, unflatten,
)
from multicurve.ring import RingElem, RingParams

from helpers import fp_equal, fp_leq, lattice_rows, naive_closure, rref_rows, span

PRIMES = [2, 3, 65521]


@st.composite
def blocks(draw, max_rows=4, sparse=True):
    """(params, ambient rank, a block of flat rows)."""
    p = draw(st.sampled_from(PRIMES))
    params = RingParams(draw(st.integers(1, 3)), draw(st.integers(1, 5)), p)
    rank = draw(st.sampled_from([1, 2]))
    width = rank * params.n * params.N
    entry = st.integers(0, p - 1)
    if sparse:  # mostly zero, like ring elements that generate stalks
        entry = st.one_of(st.just(0), st.just(0), st.just(0), entry)
    k = draw(st.integers(0, max_rows))
    cells = draw(st.lists(entry, min_size=k * width, max_size=k * width))
    return params, rank, np.array(cells, dtype=np.int64).reshape(k, width)


def span_of(rows, params, rank):
    gens = [unflatten(row, params, rank) for row in rows]
    return span_from_generators(gens, params=params, ambient_rank=rank)


def naive(rows, params, rank):
    return np.array(naive_closure(rows, params, rank), dtype=np.int64).reshape(-1, rank * params.n * params.N)


def assert_is_closure(rows, params, rank):
    M = span_of(rows, params, rank)
    expected = naive(rows, params, rank)
    assert np.array_equal(_fp_basis(M).rows(), expected)
    assert M.length() == len(expected)
    return M


def pad(rows, params, rank, big):
    arr = rows.reshape(-1, params.n * rank, params.N)
    return np.pad(arr, ((0, 0), (0, 0), (0, big.N - params.N))).reshape(len(arr), rank * big.n * big.N)


@settings(max_examples=150, deadline=None)
@given(blocks())
def test_closure_of_generators(block):
    params, rank, rows = block
    assert_is_closure(rows, params, rank)


@settings(max_examples=80, deadline=None)
@given(blocks(max_rows=7, sparse=False))
def test_closure_of_dense_non_closed_blocks(block):
    params, rank, rows = block
    assert_is_closure(rows, params, rank)


@settings(max_examples=80, deadline=None)
@given(blocks(), st.integers(1, 3))
def test_closure_of_a_padded_lift(block, extra):
    # a module with no remembered generators, lifted to N + extra: the span
    # of its lattice rows at N, padded with zero top x-degrees; in rank 1
    # also the span of its whole padded basis
    params, rank, rows = block
    M = span_of(rows, params, rank)
    bare = ModuleRep(params, rank, M.H)
    big = params.with_precision(params.N + extra)
    lift = lift_module(bare, big.N)
    assert np.array_equal(_fp_basis(lift).rows(), naive(pad(M.H, params, rank, big), big, rank))
    if rank == 1:
        assert np.array_equal(_fp_basis(lift).rows(), naive(pad(_fp_basis(M).rows(), params, rank, big), big, rank))


@settings(max_examples=100, deadline=None)
@given(blocks(max_rows=5))
def test_howell_matches_the_naive_lattice_rows(block):
    # over F_p[x]/(x^N), the Howell form of the y-multiples of the rows is
    # the lattice rows of the naive closure's RREF
    params, rank, rows = block
    ys = np.vstack([rows] + [_shift(rows, params, rank, 0, i) for i in range(1, params.n)])
    expected = linalg.from_rref(naive(rows, params, rank), params.p)
    assert np.array_equal(linalg.howell(ys, params.p, params.N), lattice_rows(expected, params))


def test_y_residues_are_needed():
    # 1 and x: x-shifts stay in level 0, so only y-shifts reach the other levels
    params = RingParams(3, 4, 2)
    rows = np.zeros((2, 12), dtype=np.int64)
    rows[0, 0] = rows[1, 1] = 1
    assert assert_is_closure(rows, params, 1).length() == 12


def test_middle_y_level_is_needed():
    # 1 + x with n = 3, N = 2: y^2 is reached only through y * (y + x*y)
    params = RingParams(3, 2, 2)
    rows = np.array([[1, 1, 0, 0, 0, 0]], dtype=np.int64)
    assert_is_closure(rows, params, 1)


def test_a_single_level_when_n_is_1():
    params = RingParams(1, 4, 3)
    rows = np.array([[1, 2, 0, 0]], dtype=np.int64)
    assert assert_is_closure(rows, params, 1).length() == 4


@settings(max_examples=120, deadline=None)
@given(blocks(max_rows=3))
def test_lattice_rows_regenerate_a_closed_space(block):
    params, rank, rows = block
    M = span_of(rows, params, rank)
    sub = _fp_basis(M)
    lattice = lattice_rows(sub, params)
    assert np.array_equal(lattice, M.H)
    # one row per (y-level, component) block that holds a pivot, at its first pivot
    blocks_hit = sorted({piv // params.N for piv in sub.pivots})
    assert len(lattice) == len(blocks_hit) <= params.n * rank
    firsts = [min(piv for piv in sub.pivots if piv // params.N == b) for b in blocks_hit]
    assert [int(np.flatnonzero(row)[0]) for row in lattice] == firsts
    # their x-multiples alone span the space, so their span gives it back
    xs = np.vstack([_shift(lattice, params, rank, a, 0) for a in range(params.N)])
    assert fp_equal(span(xs, params.p, sub.width), sub)
    assert span_of(lattice, params, rank) == M
    assert np.array_equal(sub.rows(), naive(lattice, params, rank))


@settings(max_examples=100, deadline=None)
@given(blocks(max_rows=3))
def test_filtrations_match_their_definitions(block):
    params, rank, rows = block
    M = span_of(rows, params, rank)
    first, second = first_filtration(M), second_filtration(M)
    for k in range(params.n + 1):
        # y^k M is the span of the y^k-multiples of M's basis
        y_k = RingElem.monomial(params, 1, 0, k)
        multiples = rref_rows([flatten(tuple(y_k * e for e in v), params, rank).tolist()
                               for v in M.basis_vectors()], params.p)
        assert _fp_basis(first[k]).rows().tolist() == multiples
        # ann_M(y^k) lies in M, is killed by y^k, and is the kernel of y^k on M
        ann = second[k]
        assert fp_leq(_fp_basis(ann), _fp_basis(M))
        assert all((y_k * e).is_zero() for v in ann.basis_vectors() for e in v)
        assert ann.length() == M.length() - len(multiples)



def _fp_holds(sub, rows):
    """Whether flat rows lie in the F_p-span `sub`, by reducing against its RREF."""
    return not sub.reduce(np.atleast_2d(rows)).any()


@settings(max_examples=150, deadline=None)
@given(blocks(max_rows=2), st.data())
def test_lattice_checks_match_the_fp_reference(block, data):
    # contains, quotient_length's submodule check and validate, which read H
    # alone, against the RREF over F_p; k = 0 rows gives the zero module
    params, rank, rows = block
    p, M = params.p, span_of(rows, params, rank)
    fp = _fp_basis(M)
    cells = data.draw(st.lists(st.integers(0, p - 1), min_size=2 * M.width, max_size=2 * M.width))
    extra = np.array(cells, dtype=np.int64).reshape(2, M.width)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    members = rng.integers(0, p, (2, fp.dim)) @ fp.rows() % p  # elements of M, not generators
    for vec in np.vstack([rows, extra, members, (members + extra) % p]):
        assert M.contains(unflatten(vec, params, rank)) == _fp_holds(fp, vec)
    for gens in (members, rows[: len(rows) // 2], np.vstack([members, extra[:1]])):
        sub = _fp_basis(span_of(gens, params, rank))
        if _fp_holds(fp, sub.rows()):
            assert quotient_length(M, span_of(gens, params, rank)) == fp.dim - sub.dim
        else:
            with pytest.raises(ContainmentError, match="not a submodule"):
                quotient_length(M, span_of(gens, params, rank))
    # validate passes exactly when H is the lattice rows of an x,y-closed F_p-span
    for H in (M.H, rows, np.vstack([M.H, extra[:1]]), M.H[1:], M.H[::-1], (M.H + extra[0]) % p):
        span_H = span(np.vstack([_shift(H, params, rank, a, 0) for a in range(params.N)]), p, M.width)
        closed = _fp_holds(span_H, _shift(span_H.rows(), params, rank, 0, 1))
        expected = closed and np.array_equal(lattice_rows(span_H, params), H)
        try:
            ModuleRep(params, rank, H.copy()).validate()
            assert expected
        except ContainmentError:
            assert not expected
