"""Inversion statistics on alternating sign matrices.

An inversion of A is a quadruple (i, j, k, l) with i < j, k < l and
a_jk * a_il != 0: a nonzero entry with another nonzero entry strictly
north-east of it.  The signed count I, its dual I*, the -1 count N, the
weak inversion number H = I - N/2 and the lattice rank beta all live here,
with their records, the named tuples ``Inversion`` and ``StatRecord``.
:func:`stat_record`, ``enumeration``'s row table and its generating
polynomial DP read I, N and beta off one rule, checked against the pair
sums: :func:`_entry_shares`, each position's share of I and N, and
:func:`_row_beta`, each row's share of beta.

Half-integers are kept exact: H is exposed both as a Fraction and as the
integer 2H; the local contributions H_pq are quarter-integer Fractions.
No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from typing import Iterator, NamedTuple

from .core import Asm, _records, _require_position, _sums, minus_count


class Inversion(NamedTuple):
    """One inversion quadruple with its sign and column weight."""

    i: int
    j: int
    k: int
    l: int
    sign: int   # a_jk * a_il, in {-1, 1}
    weight: int  # l - k


class StatRecord(NamedTuple):
    """The five statistics of one matrix, bundled.

    ``weak2`` stores 2*H so the record stays integer-valued.
    """

    inv: int
    dual_inv: int
    minus: int
    weak2: int
    beta: int

    @property
    def weak(self) -> Fraction:
        return Fraction(self.weak2, 2)

    def to_json_dict(self) -> dict:
        return {
            "I": self.inv,
            "Istar": self.dual_inv,
            "N": self.minus,
            "H2": self.weak2,
            "beta": self.beta,
        }


def _inversions(a: Asm) -> Iterator[tuple[int, int, int, int, int]]:
    """(i, j, k, l, a_jk * a_il) for each nonzero a_jk and each nonzero
    a_il strictly north-east of it (i < j, k < l), unsorted.  Each pair
    of nonzero entries is visited once, in row-major order, which puts
    the north-east one first."""
    return (
        (i, j, k, l, v1 * v2)
        for (i, l, v2), (j, k, v1) in combinations(a.nonzeros(), 2)
        if i < j and k < l
    )


def inversion_list(a: Asm) -> list[Inversion]:
    """All inversions with nonzero product, in lexicographic (i, j, k, l) order."""
    return [Inversion(i, j, k, l, s, l - k) for i, j, k, l, s in sorted(_inversions(a))]


def inversion_number(a: Asm) -> int:
    """I(A): the signed sum over all i<j, k<l of a_jk * a_il.

    Including the zero products changes nothing, so the sum effectively
    runs over all index pairs; only nonzero entries are visited.
    For a permutation matrix this is the classical inversion count.
    """
    return sum(s for _, _, _, _, s in _inversions(a))


def dual_inversion_number(a: Asm) -> int:
    """I*(A): the signed sum of a_ik * a_jl over i<j, k<l.

    Equals the inversion number of the row-reversed matrix.  Each pair
    of nonzero entries is visited once, in row-major order, which puts
    the north-west one first.
    """
    return sum(
        v1 * v2
        for (i, k, v1), (j, l, v2) in combinations(a.nonzeros(), 2)
        if i < j and k < l
    )


def beta_weighted(a: Asm) -> int:
    """Rank via column-weighted inversions: sum of (l - k) * a_jk * a_il."""
    return sum((l - k) * s for _, _, k, l, s in _inversions(a))


def beta_row_weighted(a: Asm) -> int:
    """Rank via row-weighted inversions: sum of (j - i) * a_jk * a_il."""
    return sum((j - i) * s for i, j, _, _, s in _inversions(a))


def beta_corner(a: Asm) -> int:
    """Rank in O(n^2) terms: sum of (delta_ij - a_ij)(n-i+1)(n-j+1).

    The definitional oracle that ``verify`` reads, beside the weighted
    sums above; :func:`stat_record` is the entry point for beta.
    """
    n = a.n
    total = 0
    for i in range(1, n + 1):
        row = a.entries[i - 1]
        for j in range(1, n + 1):
            d = (1 if i == j else 0) - row[j - 1]
            if d:
                total += d * (n - i + 1) * (n - j + 1)
    return total


beta = beta_corner


def weak_inversion_twice(a: Asm) -> int:
    """2*H(A) = 2*I(A) - N(A), always an integer."""
    return 2 * inversion_number(a) - minus_count(a)


def weak_inversion(a: Asm) -> Fraction:
    """H(A) = I(A) - N(A)/2, exact."""
    return Fraction(weak_inversion_twice(a), 2)


@cache
def _quarter(k: int) -> Fraction:
    """k/4, one shared Fraction per value of k."""
    return Fraction(k, 4)


def local_weak_contribution(a: Asm, p: int, q: int) -> Fraction:
    """The local share H_pq of the weak inversion number at position (p, q).

    Zero wherever a_pq = 0; summed over all positions it gives H(A).  It
    is a_pq times half the entries strictly south-west and north-east of
    (p, q) plus a quarter of those above it in its column and right of it
    in its row, each read off the corner sums c(i, j), with
    c(0, .) = c(., 0) = 0, in O(1); ``verify.scanned_local_weak_contribution``
    counts the entries instead.
    """
    _require_position(a.n, p, q)
    apq = a.entries[p - 1][q - 1]
    if apq == 0:
        return _quarter(0)
    sums = _sums(a)
    row = sums[p - 1]
    up = sums[p - 2] if p > 1 else (0,) * a.n
    left, up_left = (row[q - 2], up[q - 2]) if q > 1 else (0, 0)
    # c(n, j) = j and c(i, n) = i give the south-west and north-east blocks
    sw_ne = (q - 1) - left + (p - 1) - up[q - 1]
    above = up[q - 1] - up_left
    right = 1 - row[q - 1] + up[q - 1]
    return _quarter(apq * (2 * sw_ne + above + right))


def _entry_shares(before: int, above: int, minus: int) -> tuple[int, int]:
    """What a run of positions in one row adds to I and N, given three
    masks with one bit per position: ``before``, the row's running sum
    just before the position, ``above``, its column sum over the rows
    above, and ``minus``, its -1s.

    I sums a_jk * a_il over i < j, k < l; the terms with j and l fixed add
    up to the product of the row sum left of (j, l) and the column sum
    above it, whatever the entry at (j, l) is.  N counts the -1s.  In an
    ASM both sums are 0 or 1, and a -1 has both at 1, so no position's
    share of I, N or 2H = 2I - N is negative, and only a position with
    both sums at 1 has a share at all.
    """
    return (before & above).bit_count(), minus.bit_count()


def _row_beta(i: int, n: int, corners: int) -> int:
    """What row i of a size-n matrix adds to beta, given ``corners``,
    the sum of its corner sums c(i, 1..n): sum_j (min(i, j) - c(i, j)),
    which over all rows is :func:`beta_corner`.

    sum_j min(i, j) is i(2n - i + 1)/2.  A prefix sum is 0 or 1, so
    c(i, j) <= min(i, j) and the share is never negative.
    """
    return i * (2 * n - i + 1) // 2 - corners


def _record(n: int, inv: int, minus: int, beta: int) -> StatRecord:
    """The record of a size-n matrix with the given I, N and beta:
    I* = C(n, 2) - I + N (the duality identity) and 2H = 2I - N."""
    return StatRecord(inv, n * (n - 1) // 2 - inv + minus, minus, 2 * inv - minus, beta)


def stat_record(a: Asm) -> StatRecord:
    """All five statistics in one pass over the row records, each adding
    its positions' :func:`_entry_shares` and its :func:`_row_beta`,
    completed by :func:`_record`.  Row i's corner sums add up to the
    running sums R of rows 1..i, each counted by a popcount.  The
    definitional functions above are its oracles."""
    n = a.n
    col = inv = minus = corners = rank = 0  # col: the column sums of the rows above
    for i, m in enumerate(_records(a), 1):
        d_inv, d_minus = _entry_shares(m.run << 1, col, m.minus)
        col ^= m.nonzero
        corners += m.run.bit_count()
        inv, minus, rank = inv + d_inv, minus + d_minus, rank + _row_beta(i, n, corners)
    return _record(n, inv, minus, rank)


def classical_beta(images: tuple[int, ...]) -> int:
    """The 2011 permutation formula: sum of w(i) - w(j) over inversions."""
    n = len(images)
    return sum(
        images[i] - images[j]
        for i in range(n)
        for j in range(i + 1, n)
        if images[i] > images[j]
    )
