"""Parity of the x,y-closure `modules._close_rows` with the independent
closure of tests/helpers.py (the span of every monomial multiple, reduced by
a pure-Python elimination), of the lattice rows `modules._lattice_rows`
that regenerate a closed space, and of the two filtrations of a closed
space with their definitions.

The RREF of a space is unique, so the closure must match it row for row.
p = 65521 is the largest prime RingParams admits.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from multicurve import linalg
from multicurve.modules import (
    ModuleRep, _close_rows, _lattice_rows, _pad_rows, _shift, first_filtration, flatten,
    second_filtration,
)
from multicurve.ring import RingElem, RingParams

from helpers import naive_closure, rref_rows

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


def assert_is_closure(rows, params, rank):
    sub = _close_rows(rows, params, rank)
    expected = np.array(naive_closure(rows, params, rank), dtype=np.int64)
    assert np.array_equal(sub.rows(), expected.reshape(-1, rank * params.n * params.N))


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
    # the basis of a closed module at N, padded with zero top x-degrees at N + extra
    params, rank, rows = block
    closed = _close_rows(rows, params, rank).rows()
    big = params.with_precision(params.N + extra)
    assert_is_closure(_pad_rows(closed, params, rank, big), big, rank)


def test_y_residues_are_needed():
    # 1 and x: x-shifts stay in level 0, so only y-shifts reach the other levels
    params = RingParams(3, 4, 2)
    rows = np.zeros((2, 12), dtype=np.int64)
    rows[0, 0] = rows[1, 1] = 1
    sub = _close_rows(rows, params, 1)
    assert sub.dim == 12
    assert_is_closure(rows, params, 1)


def test_middle_y_level_is_needed():
    # 1 + x with n = 3, N = 2: E = (x, y + x*y), and y^2 is reached only
    # through the level-1 multiple y * (y + x*y)
    params = RingParams(3, 2, 2)
    rows = np.array([[1, 1, 0, 0, 0, 0]], dtype=np.int64)
    assert_is_closure(rows, params, 1)


def test_a_single_level_when_n_is_1():
    params = RingParams(1, 4, 3)
    rows = np.array([[1, 2, 0, 0]], dtype=np.int64)
    sub = _close_rows(rows, params, 1)
    assert sub.dim == 4
    assert_is_closure(rows, params, 1)


@settings(max_examples=120, deadline=None)
@given(blocks(max_rows=3))
def test_lattice_rows_regenerate_a_closed_space(block):
    params, rank, rows = block
    sub = _close_rows(rows, params, rank)
    lattice = _lattice_rows(sub, params)
    # one row per (y-level, component) block that holds a pivot, at its first pivot
    blocks_hit = sorted({piv // params.N for piv in sub.pivots})
    assert len(lattice) == len(blocks_hit) <= params.n * rank
    firsts = [min(piv for piv in sub.pivots if piv // params.N == b) for b in blocks_hit]
    assert [int(np.flatnonzero(row)[0]) for row in lattice] == firsts
    # their x-multiples alone span the space, so closing them gives it back
    xs = np.vstack([_shift(lattice, params, rank, a, 0) for a in range(params.N)])
    assert linalg.span(xs, params.p, sub.width) == sub
    assert _close_rows(lattice, params, rank) == sub
    expected = np.array(naive_closure(lattice, params, rank), dtype=np.int64)
    assert np.array_equal(sub.rows(), expected.reshape(-1, sub.width))


@settings(max_examples=100, deadline=None)
@given(blocks(max_rows=3))
def test_filtrations_match_their_definitions(block):
    params, rank, rows = block
    M = ModuleRep(params, rank, _close_rows(rows, params, rank))
    first, second = first_filtration(M), second_filtration(M)
    for k in range(params.n + 1):
        # y^k M is the span of the y^k-multiples of M's basis
        y_k = RingElem.monomial(params, 1, 0, k)
        multiples = rref_rows([flatten(tuple(y_k * e for e in v), params, rank).tolist()
                               for v in M.basis_vectors()], params.p)
        assert first[k].num.rows().tolist() == multiples
        # ann_M(y^k) lies in M, is killed by y^k, and is the kernel of y^k on M
        ann = second[k]
        assert ann.num.leq(M.num)
        assert all((y_k * e).is_zero() for v in ann.basis_vectors() for e in v)
        assert ann.length() == M.length() - len(multiples)
