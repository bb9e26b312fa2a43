"""Expected answers, computed without importing multicurve.

Every value the benchmark checks comes from a closed form stated in the
package documentation or from plain enumeration here, so a defect in the
library cannot also hide in its own expected value.
"""

from __future__ import annotations

from fractions import Fraction


def required_precision(n: int, max_index: int) -> int:
    """The documented minimal x-precision N_min = 2*n*(B+1)."""
    return 2 * n * (max_index + 1)


def jbar(n: int, j: int) -> int:
    return min(j, n - j) - 1


def single_jump_beta(n: int, b: int, j: int) -> tuple[int, ...]:
    return (0,) * (j - 1) + (b,) * (n - j)


def jump_of(beta) -> tuple[int, int] | None:
    """(j, b) when beta is a nonzero single-jump vector, else None."""
    beta = tuple(beta)
    if not any(beta):
        return None
    b = beta[-1]
    j = next(i for i, v in enumerate(beta, start=1) if v)
    if any(v != b for v in beta[j - 1:]):
        return None
    return j, b


# -- stalks ---------------------------------------------------------------


def ideal_length(n: int, N: int, beta) -> int:
    """F_p-dimension of the normal-form ideal at precision N.

    The colength of the model ideal is sum_{i=0}^{n-1} (beta_{n-1} - beta_i)
    with beta_0 = 0, so the ideal has dimension n*N minus that.
    """
    beta = tuple(beta)
    return n * N - (n * beta[-1] - sum(beta))


def dual_indices(beta) -> tuple[int, ...]:
    """beta_i^dual = beta_{n-1} - beta_{n-1-i}."""
    n = len(beta) + 1
    b = (0,) + tuple(beta)
    return tuple(b[n - 1] - b[n - 1 - i] for i in range(1, n))


def second_graded(n: int) -> tuple[tuple[int, int], ...]:
    """(rank, torsion) of the second-filtration pieces of a full-support ideal.

    ann_I(y^k) / ann_I(y^(k-1)) embeds into the y-level n-k of A, a
    torsion-free F_p[x]-module, so every piece has rank 1 and no torsion.
    """
    return ((1, 0),) * n


def ext1_length(n: int, beta) -> int | None:
    """Closed form of length Ext^1(I, I), or None where none is known."""
    beta = tuple(beta)
    if not any(beta):
        return 0
    jump = jump_of(beta)
    if jump is not None:
        j, b = jump
        return 2 * min(j, n - j) * b
    if n == 3:
        b1, b2 = beta
        return 2 * b2 + 2 * min(b1, b2 - b1)
    return None


def class_count(n: int, beta, p: int) -> int | None:
    """Number of isomorphism classes of stalks with index vector beta over F_p."""
    beta = tuple(beta)
    if not any(beta):
        return 1
    if n == 3:
        b1, b2 = beta
        return p ** min(b1, b2 - b1)
    jump = jump_of(beta)
    if jump is None:
        return None
    j, b = jump
    return p ** (jbar(n, j) * b)


def monotone_vectors(length: int, top: int, below: int | None = None) -> list[tuple[int, ...]]:
    """Nondecreasing vectors with entries in [0, top] (and sum < below, if given)."""
    limit = below - 1 if below is not None else top * length
    out = []

    def rec(prefix: tuple[int, ...], low: int, left: int):
        if len(prefix) == length:
            out.append(prefix)
            return
        v = low
        while v <= top and v * (length - len(prefix)) <= left:
            rec(prefix + (v,), v, left - v)
            v += 1

    rec((), 0, limit)
    return out


# -- curves -----------------------------------------------------------------


def genus(n: int, g1: int, delta: int) -> int:
    return 1 + n * (g1 - 1) + n * (n - 1) // 2 * delta


def stability(n: int, delta: int, beta) -> tuple[bool, bool, tuple[int, ...]]:
    """(semistable, stable, equality positions) from L_i <= i*n*(n-i)*delta/2."""
    beta = tuple(beta)
    lhs = [i * sum(beta[i - 1:]) - (n - i) * sum(beta[: i - 1]) for i in range(1, n)]
    rhs = [i * n * (n - i) * delta // 2 for i in range(1, n)]
    semistable = all(l <= r for l, r in zip(lhs, rhs))
    eqs = tuple(i for i, (l, r) in enumerate(zip(lhs, rhs), start=1) if l == r)
    if not semistable:
        eqs = ()
    return semistable, semistable and not eqs, eqs


def component_labels(n: int, delta: int, degree: int) -> list[tuple[int, ...]]:
    """Stable, degree-congruent index vectors; sum(beta) < n(n-1)/2 * delta."""
    bound = n * (n - 1) // 2 * delta
    out = []
    for beta in monotone_vectors(n - 1, bound, below=bound):
        if (degree + bound - sum(beta)) % n:
            continue
        if stability(n, delta, beta)[1]:
            out.append(beta)
    return sorted(out)


def generic_tangent(n: int, g1: int, delta: int, beta) -> int:
    """g_n + sum_{i >= floor((n+1)/2)} beta_i - sum_{i <= floor((n-2)/2)} beta_i."""
    b = (0,) + tuple(beta)
    hi = sum(b[i] for i in range((n + 1) // 2, n))
    lo = sum(b[i] for i in range(1, (n - 2) // 2 + 1))
    return genus(n, g1, delta) + hi - lo


def connectivity_ok(n: int, labels: int, count: int) -> bool:
    """The proven bounds: 1 <= count <= min(labels, max(n^(n-2), 1)); connected for n <= 3."""
    if labels == 0:
        return count == 0
    if n <= 3:
        return count == 1
    return 1 <= count <= min(labels, max(n ** (n - 2), 1))


def jh_factors(n: int, degree: int, beta, positions) -> list[tuple[int, Fraction, tuple[int, ...]]]:
    """(multiplicity, degree, index vector) of each Jordan-Holder factor.

    The cuts are the equality positions; every factor has slope D/n.
    """
    cuts = (0,) + tuple(positions) + (n,)
    b = (0,) + tuple(beta)
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        mult = hi - lo
        out.append((mult, Fraction(degree * mult, n), tuple(b[lo + j] - b[lo] for j in range(1, mult))))
    return out
