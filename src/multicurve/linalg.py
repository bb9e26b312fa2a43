"""Exact linear algebra over a prime field F_p, backed by int64 numpy arrays.

Everything here derives from one Gauss-Jordan routine, `_rref`: `Subspace`
keeps its basis in the reduced row echelon form that `_rref` returns (or
that `from_rref` is handed), and `nullspace` and `rank` read their answers
off it.

Exactness: all matrices hold residues in [0, p), and p < 2^16 (RingParams
enforces it).  The largest intermediate value is an accumulated product of
K residues, at most K * (p - 1)^2 < K * 2^32, which is exact in int64 for
every inner dimension K < 2^31.  Products are therefore taken in int64,
never in float64 (exact only while K * (p - 1)^2 < 2^53, i.e. K < 2^21 at
p = 65521), so no computation here ever rounds.

Every product with a basis, `out - coef @ basis` in `_subtract_product`,
takes one of two paths, chosen by the density of coef (its nonzeros over
its entries):
- below DENSE_FROM (0.25), a gather: the basis rows that the nonzero
  coefficients touch are scaled and summed per target row, in chunks of at
  most GATHER_ENTRIES temporary entries.  A target row then holds a residue
  minus at most K products, each below 2^32, so it stays above -K * 2^32;
  exact for K < 2^31.
- from DENSE_FROM on, the plain int64 product coef @ basis, whose entries
  are sums of K products below 2^32; exact for the same K < 2^31.
The gather costs per nonzero and the product per entry.  Measured with
int64 numpy on 2 cores, the gather stops being faster at a density of about
0.1 on 150 x 150 coefficients against 300 columns and at 0.35-0.45 on
300-1,000 rows; at 0.25 neither path is more than 2.5x slower than the
other.  Both paths give the same residues, so the choice moves time only.
"""

from __future__ import annotations

import numpy as np


def mod_inv(a: int, p: int) -> int:
    # p prime, a != 0 mod p
    return pow(int(a) % p, p - 2, p)


def _rref(mat, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form of mat over F_p: (nonzero rows, pivot columns).

    The rows have unit pivots in strictly increasing columns and zeros in
    every other row's pivot column, so the result depends only on the row
    space of mat.
    """
    a = np.atleast_2d(np.asarray(mat, dtype=np.int64)) % p
    m = a.shape[0]
    pivots: list[int] = []
    # row operations never fill a zero column, so only these can hold a pivot
    for c in a.any(axis=0).nonzero()[0]:
        r = len(pivots)
        if r == m:
            break
        below = a[r:, c].nonzero()[0]
        if below.size == 0:
            continue
        i = r + int(below[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        # rows r.. vanish left of c, so the updates start at column c
        if a[r, c] != 1:
            a[r, c:] = (a[r, c:] * mod_inv(a[r, c], p)) % p
        col = a[:, c].copy()
        col[r] = 0
        hit = col.nonzero()[0]
        if hit.size:
            a[hit, c:] = (a[hit, c:] - np.outer(col[hit], a[r, c:])) % p
        pivots.append(int(c))
    return a[: len(pivots)], np.array(pivots, dtype=np.int64)


GATHER_ENTRIES = 1 << 16  # entries of the gather temporary in `_subtract_product` (512 KB)
DENSE_FROM = 0.25  # density of the coefficients from which the plain product is cheaper


def _subtract_product(out: np.ndarray, coef: np.ndarray, basis: np.ndarray, p: int) -> None:
    """out <- (out - coef @ basis) mod p, in place.

    The coefficients are mostly zero (basis rows of x,y-closed spaces are
    nearly monomial), so below DENSE_FROM nonzeros per entry only the basis
    rows they touch are gathered and summed per target row, in chunks of at
    most GATHER_ENTRIES temporary entries; a target row split between two
    chunks gets its two partial sums subtracted in turn.  Denser blocks take
    the plain int64 product, whose cost does not depend on the zeros.
    """
    i, j = coef.nonzero()
    if i.size > DENSE_FROM * coef.size:
        out -= coef @ basis
    else:
        step = max(1, GATHER_ENTRIES // max(1, basis.shape[1]))
        for lo in range(0, i.size, step):
            ci, cj = i[lo : lo + step], j[lo : lo + step]
            first = np.flatnonzero(np.diff(ci, prepend=-1))  # ci is sorted
            out[ci[first]] -= np.add.reduceat(coef[ci, cj, None] * basis[cj], first)
    out %= p


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class Subspace:
    """A subspace of F_p^width stored as a reduced row echelon basis.

    Rows are kept with strictly increasing pivot columns, unit pivots and
    zeros above each pivot, so equal subspaces have identical `rows` arrays.
    The arrays are read-only and replaced, never changed, by `insert`; copies
    share them.
    """

    __slots__ = ("p", "width", "_rows", "_pivots")

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self._rows = _frozen(np.zeros((0, width), dtype=np.int64))
        self._pivots = _frozen(np.zeros(0, dtype=np.int64))

    @property
    def dim(self) -> int:
        return self._rows.shape[0]

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(self._pivots.tolist())

    def rows(self) -> np.ndarray:
        return self._rows

    def copy(self) -> "Subspace":
        dup = Subspace(self.p, self.width)
        dup._rows, dup._pivots = self._rows, self._pivots
        return dup

    def reduce(self, rows) -> np.ndarray:
        """Residues of a vector or a block of rows modulo the row space.

        With the basis in RREF the residue is one product: subtract the
        basis rows weighted by the entries at their pivot columns.
        """
        rows = np.asarray(rows, dtype=np.int64)
        out = np.atleast_2d(rows) % self.p
        _subtract_product(out, out[:, self._pivots], self._rows, self.p)
        return out.reshape(rows.shape)

    def contains(self, vec) -> bool:
        return not self.reduce(vec).any()

    def insert(self, rows) -> bool:
        """Add a block of rows to the space. Returns True if the dimension grew."""
        new, piv = _rref(self.reduce(np.atleast_2d(rows)), self.p)
        if not piv.size:
            return False
        # the new rows vanish at the old pivots; clear the new pivots in the old rows
        old = self._rows
        if old[:, piv].any():
            old = old.copy()
            _subtract_product(old, old[:, piv], new, self.p)
        at = np.searchsorted(self._pivots, piv)
        self._rows = _frozen(np.insert(old, at, new, axis=0))
        self._pivots = _frozen(np.insert(self._pivots, at, piv))
        return True

    def leq(self, other: "Subspace") -> bool:
        return not other.reduce(self._rows).any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        if (self.p, self.width, self.dim) != (other.p, other.width, other.dim):
            return False
        return bool(np.array_equal(self._rows, other._rows))

    def __hash__(self):
        return hash((self.p, self.width, self._rows.tobytes()))


def span(mat, p: int, width: int | None = None) -> Subspace:
    mat = np.atleast_2d(np.asarray(mat, dtype=np.int64))
    sub = Subspace(p, mat.shape[1] if width is None else width)
    sub.insert(mat)
    return sub


def from_rref(rows: np.ndarray, p: int) -> Subspace:
    """The Subspace with basis `rows`, taken as they are, with no elimination.

    The rows must already be in reduced row echelon form.  They are when
    they are a subset of the rows of an RREF basis, since each keeps its unit
    pivot and its zeros at the other rows' pivots, and still are when every
    column of such a subset moves right by one offset, as long as no pivot
    moves past the last column.
    """
    sub = Subspace(p, rows.shape[1])
    sub._rows = _frozen(rows)
    sub._pivots = _frozen((rows != 0).argmax(axis=1))
    return sub


def nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis (as rows) of {x : mat @ x = 0 mod p}, one row per free column."""
    rows, piv = _rref(mat, p)
    k = rows.shape[1]
    free = np.setdiff1d(np.arange(k), piv)
    basis = np.zeros((free.size, k), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, piv] = (-rows[:, free].T) % p
    return basis


def echelon(mat, p: int) -> np.ndarray:
    """The nonzero rows of the reduced row echelon form of mat over F_p."""
    return _rref(mat, p)[0]


def rank(mat, p: int) -> int:
    return _rref(mat, p)[1].size
