"""Property tests of the mod-p elimination kernel against the independent
pure-Python elimination of tests/helpers.py.

p = 65521 is the largest prime below 2^16, the largest modulus RingParams
admits, so accumulated products are as large as the package ever makes them.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multicurve.linalg import Subspace, nullspace, rank, span

from helpers import _row_reduce_dim

PRIMES = [2, 3, 65521]


@st.composite
def matrices(draw, p, max_rows=7, cols=None):
    """A matrix over F_p whose later rows are often combinations of earlier
    ones, so that rank deficiency also occurs at large p."""
    m = draw(st.integers(0, max_rows))
    k = cols or draw(st.integers(1, 12))
    entry = st.integers(0, p - 1)
    rows = []
    for _ in range(m):
        if rows and draw(st.booleans()):
            coefs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[i] for c, r in zip(coefs, rows)) % p for i in range(k)])
        else:
            rows.append(draw(st.lists(entry, min_size=k, max_size=k)))
    return np.array(rows, dtype=np.int64).reshape(m, k)


def ref_dim(rows, p):
    return _row_reduce_dim([[int(v) for v in r] for r in rows], p)


def in_span(vec, rows, p):
    return ref_dim(list(rows) + [vec], p) == ref_dim(rows, p)


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rank(p, data):
    mat = data.draw(matrices(p))
    assert rank(mat, p) == ref_dim(mat, p)


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_nullspace(p, data):
    mat = data.draw(matrices(p))
    basis = nullspace(mat, p)
    k = mat.shape[1]
    assert basis.shape == (k - ref_dim(mat, p), k)
    assert not ((mat @ basis.T) % p).any()
    assert ref_dim(basis, p) == basis.shape[0]


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_block_insert_matches_row_by_row_in_any_order(p, data):
    mat = data.draw(matrices(p))
    block = Subspace(p, mat.shape[1])
    grew = block.insert(mat)
    assert grew == (ref_dim(mat, p) > 0)
    assert block.dim == ref_dim(mat, p)

    order = data.draw(st.permutations(range(mat.shape[0])))
    single = Subspace(p, mat.shape[1])
    for i in order:
        before = single.dim
        assert single.insert(mat[i]) == (single.dim > before)
    assert single.pivots == block.pivots
    assert np.array_equal(single.rows(), block.rows())
    assert single == block and hash(single) == hash(block)

    # reduced row echelon: unit pivots, increasing, zero elsewhere in their columns
    piv = list(block.pivots)
    assert piv == sorted(set(piv))
    assert np.array_equal(block.rows()[:, piv], np.eye(len(piv), dtype=np.int64))


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reduce_and_contains(p, data):
    mat = data.draw(matrices(p))
    k = mat.shape[1]
    sub = span(mat, p, k)
    vecs = data.draw(matrices(p, max_rows=5, cols=k))
    vecs = np.vstack([vecs, mat[:2]])  # some vectors of the space itself
    res = sub.reduce(vecs)
    assert res.shape == vecs.shape and ((0 <= res) & (res < p)).all()
    assert not res[:, list(sub.pivots)].any()
    for v, r in zip(vecs, res):
        assert np.array_equal(sub.reduce(v), r)
        assert in_span((v - r) % p, mat, p)
        assert sub.contains(v) == in_span(v, mat, p) == (not r.any())


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_leq_and_eq(p, data):
    a = data.draw(matrices(p))
    k = a.shape[1]
    b = data.draw(matrices(p, cols=k))
    small, big = span(a, p, k), span(np.vstack([a, b]), p, k)
    assert small.leq(big)
    same = ref_dim(np.vstack([a, b]), p) == ref_dim(a, p)
    assert big.leq(small) == same
    assert (small == big) == same
    assert span(a[::-1], p, k) == small
    assert Subspace(p, k).leq(small)


@pytest.mark.parametrize("p", PRIMES)
def test_largest_residues(p):
    # entries p - 1 and p - 2: the largest products the kernel accumulates
    k = 48
    mat = np.full((k, k), p - 1, dtype=np.int64) - np.diag(np.arange(k) % 2)
    sub = span(mat, p, k)
    assert sub.dim == rank(mat, p) == ref_dim(mat, p)
    vec = np.full(k, p - 1, dtype=np.int64)
    assert sub.contains(vec)
    assert not ((mat @ nullspace(mat, p).T) % p).any()
