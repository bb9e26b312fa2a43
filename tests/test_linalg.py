"""Property tests of the mod-p elimination kernel against the independent
pure-Python elimination of tests/helpers.py, and of both paths of its
product `_subtract_product` against exact integer products.  The F_p
references of tests/helpers.py (`span`, `nullspace`, `fp_equal`, `fp_leq`)
are checked here too, as the other tests compare against them.

p = 65521 is the largest prime below 2^16, the largest modulus RingParams
admits, so accumulated products are as large as the package ever makes them.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multicurve import linalg
from multicurve.linalg import Subspace, _subtract_product, rank

from helpers import _row_reduce_dim, fp_equal, fp_leq, nullspace, span

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
    assert fp_equal(single, block)

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
        assert in_span(v, mat, p) == (not r.any())


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_leq_and_eq(p, data):
    a = data.draw(matrices(p))
    k = a.shape[1]
    b = data.draw(matrices(p, cols=k))
    small, big = span(a, p, k), span(np.vstack([a, b]), p, k)
    assert fp_leq(small, big)
    same = ref_dim(np.vstack([a, b]), p) == ref_dim(a, p)
    assert fp_leq(big, small) == same
    assert fp_equal(small, big) == same
    assert fp_equal(span(a[::-1], p, k), small)
    assert fp_leq(Subspace(p, k), small)


@pytest.mark.parametrize("p", PRIMES)
def test_largest_residues(p):
    # entries p - 1 and p - 2: the largest products the kernel accumulates
    k = 48
    mat = np.full((k, k), p - 1, dtype=np.int64) - np.diag(np.arange(k) % 2)
    sub = span(mat, p, k)
    assert sub.dim == rank(mat, p) == ref_dim(mat, p)
    vec = np.full(k, p - 1, dtype=np.int64)
    assert not sub.reduce(vec).any()
    assert not ((mat @ nullspace(mat, p).T) % p).any()


def plain_difference(out, coef, basis, p):
    """(out - coef @ basis) mod p in Python integers."""
    return (out.astype(object) - coef.astype(object) @ basis.astype(object)) % p


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_subtract_product_matches_the_plain_product(p, data):
    # densities up to 1.0; small chunks split rows between chunks
    m, k, width = (data.draw(st.integers(0, 8)) for _ in range(3))
    density = data.draw(st.sampled_from([0.0, 0.05, 0.2, 0.3, 0.6, 1.0]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    coef = rng.integers(1, p, (m, k)) * (rng.random((m, k)) < density)
    basis = rng.integers(0, p, (k, width))
    out = rng.integers(0, p, (m, width))
    chunk = data.draw(st.sampled_from([1, 2, 3, 1 << 16]))
    expected = plain_difference(out, coef, basis, p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "GATHER_ENTRIES", chunk * max(1, width))
        _subtract_product(out, coef, basis, p)
    assert np.array_equal(out, expected.astype(np.int64))


@pytest.mark.parametrize("p", PRIMES)
def test_gather_with_a_row_split_between_chunks(p, monkeypatch):
    # 6 nonzeros in 3 x 12 coefficients, three per chunk: row 1 has one
    # nonzero in the first chunk and two in the second
    coef = np.zeros((3, 12), dtype=np.int64)
    coef[0, [1, 5]] = p - 1
    coef[1, [0, 6, 11]] = [p - 2, 1, p - 1]
    coef[2, 3] = p - 1
    basis = (np.arange(12 * 7).reshape(12, 7) * 7919) % p
    out = np.full((3, 7), p - 1, dtype=np.int64)
    expected = plain_difference(out, coef, basis, p)
    monkeypatch.setattr(linalg, "GATHER_ENTRIES", 3 * 7)
    _subtract_product(out, coef, basis, p)
    assert np.array_equal(out, expected.astype(np.int64))


def poly_product(a, b, p, K):
    """(R, S, K) times (S, C, K) polynomial matrices mod (p, x^K), in Python
    integers with np.convolve."""
    out = np.zeros((a.shape[0], b.shape[1], K), dtype=object)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            for s in range(a.shape[1]):
                out[i, j] += np.convolve(a[i, s].astype(object), b[s, j].astype(object))[:K]
    return out % p


def unimodular(rng, size, p, K):
    """A random invertible polynomial matrix mod x^K: lower times upper
    triangular, unit diagonals."""
    lo, up = (rng.integers(0, p, (size, size, K)) for _ in range(2))
    for tri, keep in ((lo, np.tril), (up, np.triu)):
        tri *= keep(np.ones((size, size), dtype=np.int64))[..., None]
        tri[np.arange(size), np.arange(size)] = 0
        tri[np.arange(size), np.arange(size), 0] = rng.integers(1, p, size)
    return poly_product(lo, up, p, K).astype(np.int64)


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_poly_eliminate_reads_the_smith_valuations(p, data):
    # mat = P.D.Q with P, Q invertible and D = diag(x^e_i) (a zero for e_i >= K):
    # the pivot valuations are the e_i below K, in order, and the kernel rows
    # are independent mod x and killed by mat mod x^K
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    R, C, K = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
    e = sorted(data.draw(st.lists(st.integers(0, K + 1), min_size=min(R, C), max_size=min(R, C))))
    D = np.zeros((R, C, K), dtype=np.int64)
    for i, ei in enumerate(e):
        if ei < K:
            D[i, i, ei] = 1
    mat = poly_product(poly_product(unimodular(rng, R, p, K), D, p, K), unimodular(rng, C, p, K), p, K)
    kernel, valuations = linalg.poly_eliminate(mat.astype(np.int64), p, K)
    assert valuations == [ei for ei in e if ei < K]
    assert len(kernel) == R - len(valuations)
    assert not poly_product(kernel, mat, p, K).any()
    assert rank(kernel[..., 0], p) == len(kernel)
