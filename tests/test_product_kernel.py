"""Property tests of the product kernel of `modules` (`_shift`, `_mul_rows`)
against the pure-Python product `RingElem.__mul__`.

p = 65521 is the largest prime RingParams admits, so the int64 sums inside
`_mul_rows` are as large as the package ever makes them.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from multicurve.modules import _mul_rows, _shift, flatten, unflatten
from multicurve.ring import RingElem, RingParams

PRIMES = [2, 3, 65521]


@st.composite
def setups(draw):
    """(params, ambient rank, g as a flat row, a block of flat rows)."""
    p = draw(st.sampled_from(PRIMES))
    params = RingParams(draw(st.integers(1, 4)), draw(st.integers(1, 6)), p)
    rank = draw(st.sampled_from([1, 2]))
    L = params.n * params.N
    # mostly-zero entries, like the near-monomial rows of closed subspaces
    entry = st.one_of(st.just(0), st.just(0), st.integers(0, p - 1))
    g = np.array(draw(st.lists(entry, min_size=L, max_size=L)), dtype=np.int64)
    k = draw(st.integers(0, 5))
    cells = draw(st.lists(entry, min_size=k * rank * L, max_size=k * rank * L))
    rows = np.array(cells, dtype=np.int64).reshape(k, rank * L)
    return params, rank, g, rows


def products(g, rows, params, rank):
    """Row by row, through RingElem arithmetic."""
    elem = unflatten(g, params, 1)[0]
    out = [flatten(tuple(elem * e for e in unflatten(r, params, rank)), params, rank)
           for r in rows]
    return np.array(out, dtype=np.int64).reshape(rows.shape)


@settings(max_examples=150, deadline=None)
@given(setups())
def test_mul_rows_agrees_with_ring_products(setup):
    params, rank, g, rows = setup
    assert np.array_equal(_mul_rows(g, rows, params, rank), products(g, rows, params, rank))


@settings(max_examples=60, deadline=None)
@given(setups())
def test_multiplication_matrix_rows_are_monomial_products(setup):
    # row k of _mul_rows(g, eye) is g times the k-th grid monomial
    params, rank, g, _ = setup
    grid = np.eye(rank * params.n * params.N, dtype=np.int64)
    assert np.array_equal(_mul_rows(g, grid, params, rank), products(g, grid, params, rank))


@settings(max_examples=100, deadline=None)
@given(setups(), st.integers(0, 8), st.integers(0, 6))
def test_shift_is_the_monomial_product(setup, dx, dy):
    params, rank, _, rows = setup
    shifted = _shift(rows, params, rank, dx, dy)
    monomial = flatten(RingElem.monomial(params, 1, dx, dy), params, 1)
    assert np.array_equal(shifted, products(monomial, rows, params, rank))
    if dx >= params.N or dy >= params.n:
        assert not shifted.any()
