"""Exact linear algebra over a prime field F_p, backed by int64 numpy arrays.

Everything over F_p derives from one Gauss-Jordan routine, `_rref`:
`Subspace` keeps its basis in the reduced row echelon form that `_rref`
returns (or that `from_rref` is handed), and `rank` reads its answer off
it.  Over F_p[x]/(x^K) there are two routines, both minimal-valuation
pivoting: `poly_eliminate` (Smith valuations and the kernel) and `howell`
(the reduced Howell form of a span); their docstrings have their exactness
arguments.

Exactness: all matrices hold residues in [0, p), and p < 2^16 (RingParams
enforces it).  The largest intermediate value is an accumulated product of
K residues, at most K * (p - 1)^2 < K * 2^32, which is exact in int64 for
every inner dimension K < 2^31.  Products are therefore taken in int64,
never in float64 (exact only while K * (p - 1)^2 < 2^53, i.e. K < 2^21 at
p = 65521), so no computation here ever rounds.

Every product with a basis, `out - coef @ basis` in `_subtract_product`,
takes one path, a gather: the basis rows that the nonzero coefficients
touch are scaled and summed per target row, in chunks of at most
GATHER_ENTRIES temporary entries.  A target row then holds a residue minus
at most K products, each below 2^32, so it stays above -K * 2^32; exact for
K < 2^31.  Its cost grows with the nonzeros, and the coefficients it gets
(residues against the RREF of an x,y-closed space) are mostly zero.
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


def _subtract_product(out: np.ndarray, coef: np.ndarray, basis: np.ndarray, p: int) -> None:
    """out <- (out - coef @ basis) mod p, in place.

    The coefficients are mostly zero (basis rows of x,y-closed spaces are
    nearly monomial), so only the basis rows they touch are gathered and
    summed per target row, in chunks of at most GATHER_ENTRIES temporary
    entries; a target row split between two chunks gets its two partial sums
    subtracted in turn.
    """
    i, j = coef.nonzero()
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

    def reduce(self, rows) -> np.ndarray:
        """Residues of a vector or a block of rows modulo the row space.

        With the basis in RREF the residue is one product: subtract the
        basis rows weighted by the entries at their pivot columns.
        """
        rows = np.asarray(rows, dtype=np.int64)
        out = np.atleast_2d(rows) % self.p
        _subtract_product(out, out[:, self._pivots], self._rows, self.p)
        return out.reshape(rows.shape)

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


def rank(mat, p: int) -> int:
    return _rref(mat, p)[1].size


# -- matrices over F_p[x]/(x^K) ---------------------------------------------


def _poly_mul(q: np.ndarray, rows: np.ndarray, K: int) -> np.ndarray:
    """The products q[s] * rows[c] of polynomials, truncated at x^K, not
    reduced mod p: (s, L) and (c, K) arrays of coefficients give (s, c, K).
    Each entry is a sum of at most L products below 2^32."""
    out = np.zeros((q.shape[0],) + rows.shape, dtype=np.int64)
    for d in np.flatnonzero(q.any(axis=0)):
        out[:, :, d:] += q[:, d, None, None] * rows[None, :, : K - d]
    return out


def _series_inverse(w: np.ndarray, p: int) -> np.ndarray:
    """The inverse of the unit w (w[0] != 0) in F_p[x]/(x^len(w))."""
    inv = np.zeros(len(w), dtype=np.int64)
    inv[0] = mod_inv(w[0], p)
    if w[1:].any():
        for t in range(1, len(w)):
            inv[t] = (-inv[0] * ((w[1 : t + 1] @ inv[t - 1 :: -1]) % p)) % p
    return inv


def poly_eliminate(mat, p: int, K: int) -> tuple[np.ndarray, list[int]]:
    """Minimal-valuation elimination of a matrix over F_p[x]/(x^K).

    mat has shape (R, C, K): entry (i, j) is sum_a mat[i, j, a] x^a.  Each
    step takes an entry x^e * w (w a unit) of least valuation e among the
    rows and columns not yet used, and clears its column in the other
    unused rows: row i' -= q * row i, q = (mat[i', j] / x^e) * w^(-1) mod
    x^(K - e), which is exact since every unused entry has valuation >= e.
    The same operations act on the identity, so the tracked transform U
    keeps U.mat = (the reduced matrix) mod x^K.  The steps end when every
    unused entry vanishes mod x^K.

    Returns (kernel, valuations): the rows of U whose image vanishes mod
    x^K, shape (z, R, K), and the pivot valuations in the order taken.
    They never decrease, and they are the valuations of the Smith invariants of
    mat mod x^K.  So if mat has rank R - z over F_p((x)) and its invariants
    have valuation below K, the kernel rows are a basis of the saturated
    kernel modulo x^(K - max valuation), in particular modulo x.

    Exactness: entries stay residues in [0, p), p < 2^16, between steps; a
    product of two polynomials truncated at x^K sums at most K products
    below 2^32, exact in int64 for K < 2^31.
    """
    a = np.asarray(mat, dtype=np.int64) % p
    R, C = a.shape[:2]
    eye = np.zeros((R, R, K), dtype=np.int64)
    eye[np.arange(R), np.arange(R), 0] = 1
    aug = np.concatenate([a, eye], axis=1)
    rows, cols, valuations = list(range(R)), list(range(C)), []
    while rows and cols:
        nz = aug[np.ix_(rows, cols)] != 0
        val = np.where(nz.any(axis=2), nz.argmax(axis=2), K)
        ri, ci = np.unravel_index(val.argmin(), val.shape)
        e = int(val[ri, ci])
        if e == K:
            break
        i, j = rows.pop(ri), cols.pop(ci)
        hit = [h for h in rows if aug[h, j].any()]
        if hit:
            inv = _series_inverse(aug[i, j, e:], p)
            q = _poly_mul(aug[hit, j, e:], inv[None], K - e)[:, 0] % p
            # the used columns vanish in row i, and column j is cleared exactly
            live = np.array(cols + list(range(C, C + R)), dtype=np.int64)
            block = np.ix_(hit, live)
            aug[block] = (aug[block] - _poly_mul(q, aug[i, live], K)) % p
            aug[hit, j] = 0
        valuations.append(e)
    return aug[rows, C:], valuations


def howell(rows, p: int, N: int) -> np.ndarray:
    """The reduced Howell form of the F_p[x]-span of flat rows over F_p[x]/(x^N),
    each row holding C polynomial columns of N coefficients.

    Column by column, the live row of least valuation e in the column is the
    pivot: scaled by the inverse of its unit part, it leads with x^e, and the
    other live rows drop their multiples of it (exact, as they have valuation
    >= e there).  It leaves the row x^(N-e) * pivot, which vanishes in the
    column, live (Howell 1986, "Spans in the module (Z_m)^s"), so the live
    rows span every element of the span that vanishes in the columns done.
    Last, each entry above a pivot x^(v_k) is reduced modulo x^(v_k).

    Returns one flat row per column that holds a pivot, in column order: x^(v_k)
    in its column, zero before it, of degree below v_m in each later pivot
    column m.  That form is unique to the span; for an x,y-closed span it is
    the RREF's rows at each column's first pivot.  Exactness: entries are
    residues between steps, and a product of polynomials truncated at x^N
    sums at most N products below 2^32, exact in int64 for N < 2^31.
    """
    rows = np.asarray(rows, dtype=np.int64)
    C = rows.shape[1] // N
    live = rows.reshape(len(rows), C, N) % p
    live, pivots, H = live[live.any(axis=(1, 2))], [], []
    for c in range(C):
        nz = live[:, c] != 0
        hit = nz.any(axis=1)
        if not hit.any():
            continue
        val = np.where(hit, nz.argmax(axis=1), N)
        i = int(val.argmin())
        e = int(val[i])
        pivot = _poly_mul(_series_inverse(live[i, c, e:], p)[None], live[i], N)[0] % p
        hit[i] = False
        if hit.any():
            live[hit] = (live[hit] - _poly_mul(live[hit, c, e:], pivot, N)) % p
        live[i] = 0
        live[i, :, N - e :] = pivot[:, :e]  # x^(N-e) * pivot
        live = live[live.any(axis=(1, 2))]
        pivots.append((c, e))
        H.append(pivot)
    H = np.array(H, dtype=np.int64).reshape(len(H), C, N)
    for k, (c, e) in enumerate(pivots):
        if H[:k, c, e:].any():
            H[:k] = (H[:k] - _poly_mul(H[:k, c, e:], H[k], N)) % p
    return H.reshape(len(H), C * N)
