"""The lattice order on alternating sign matrices.

A <= B iff the corner-sum table of A dominates that of B entrywise.  The
order tests read each matrix's order code (see asmlat.core), in which
that domination is a subset test on bits: compare and leq are and-not
tests, and b covers a iff b's code adds exactly one bit to a's, so the
corner sums differ at one position (r, s) only, by one.  Covering pairs
differ by a single 2x2 block exchange adding [[-1, 1], [1, -1]]; the
sixteen possible block contents classify every cover and determine how
I, N and H move along the edge; each cover is a ``CoverEdge``, a named
tuple like ``CoverType`` and the Hasse records.  Join and meet are the
entrywise min and max of the corner sums, that is the OR and AND of the
two codes, which the distributive-lattice structure guarantees to be the
code of an ASM.
When that code is one operand's own, the operands are comparable and
that operand is returned as it is; otherwise core decodes the entries
straight from the code, unchecked, and the result keeps it as its order
code.

One exchange rule, :func:`_exchanges`, finds the covers.  The block at
rows r, r + 1 and columns s, s + 1 moves only the corner sum c(r, s),
so it gives an ASM again iff the four unit steps around c(r, s) stay in
{0, 1}.  Those steps are edge states of the six-vertex model: R_r(s),
the running sum of row r through column s, and B_r(s), the column prefix
sum of column s after row r.  With one byte per column, B the mask of
B_r and R_r, R_(r+1) the masks of the two rows' running sums, an up
exchange is at ``B & R_r & ~(B >> 8) & ~R_(r+1)`` and a down exchange at
``~B & ~R_r & (B >> 8) & R_(r+1)``: a few word operations per pair of
rows, read off core's row records, with no corner-sum table.  The
covers build a matrix at each position it gives, the join-irreducible
test reads the lower positions up to the second, and ``enumeration``'s
cover table reads it on the masks of a column state and two steps.
Bigrassmannian permutations are built directly as block swaps.  This
module's brute-force oracles, the corner-sum walk for the cover
positions among them, live in asmlat.verify.
"""

from __future__ import annotations

import enum
import functools
import itertools
from typing import Iterator, NamedTuple, Optional, Sequence

from .core import (
    Asm,
    AsmError,
    Permutation,
    SizeMismatch,
    _code,
    _field_position,
    _from_code,
    _records,
    _require_size,
)

class NotAnExchangeBlock(AsmError):
    pass


class Ordering(enum.Enum):
    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


class CoverType(NamedTuple):
    """One row of the cover classification table."""

    index: int    # 1..16
    star: int     # index of the dual type
    d_inv: int    # change in I along the cover
    d_minus: int  # change in N
    d_weak2: int  # change in 2H


# The sixteen cover types, keyed by the lower matrix's 2x2 block at the
# exchange position; the upper block is that plus [[-1, 1], [1, -1]].
# Columns: type index, dual type, delta I, delta N, delta 2H.
_TYPE_ROWS: list[tuple[tuple[int, int, int, int], CoverType]] = [
    ((1, 0, 0, 1), CoverType(1, 1, 1, 0, 2)),
    ((1, -1, 0, 1), CoverType(2, 5, 0, -1, 1)),
    ((1, 0, -1, 1), CoverType(3, 9, 0, -1, 1)),
    ((1, -1, -1, 1), CoverType(4, 13, -1, -2, 0)),
    ((1, 0, 0, 0), CoverType(5, 2, 1, 1, 1)),
    ((1, -1, 0, 0), CoverType(6, 6, 0, 0, 0)),
    ((1, 0, -1, 0), CoverType(7, 10, 0, 0, 0)),
    ((1, -1, -1, 0), CoverType(8, 14, -1, -1, -1)),
    ((0, 0, 0, 1), CoverType(9, 3, 1, 1, 1)),
    ((0, -1, 0, 1), CoverType(10, 7, 0, 0, 0)),
    ((0, 0, -1, 1), CoverType(11, 11, 0, 0, 0)),
    ((0, -1, -1, 1), CoverType(12, 15, -1, -1, -1)),
    ((0, 0, 0, 0), CoverType(13, 4, 1, 2, 0)),
    ((0, -1, 0, 0), CoverType(14, 8, 0, 1, -1)),
    ((0, 0, -1, 0), CoverType(15, 12, 0, 1, -1)),
    ((0, -1, -1, 0), CoverType(16, 16, -1, 0, -2)),
]

_TYPE_BY_LOWER_BLOCK = {block: row for block, row in _TYPE_ROWS}
COVER_TYPES = tuple(row for _, row in _TYPE_ROWS)


class CoverEdge(NamedTuple):
    """A covering pair lower <| upper with its exchange data.

    The two matrices agree outside the 2x2 block at (r, s), (r, s+1),
    (r+1, s), (r+1, s+1), where upper minus lower is [[-1, 1], [1, -1]].
    The deltas are the statistic changes upper-minus-lower; d_weak2 is
    twice the change of H so everything stays integral.
    """

    lower: Asm
    upper: Asm
    r: int
    s: int
    cover_type: int
    d_inv: int
    d_minus: int
    d_weak2: int

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "s": self.s,
            "type": self.cover_type,
            "dI": self.d_inv,
            "dN2x": self.d_minus,
            "dH2x": self.d_weak2,
        }


def compare(a: Asm, b: Asm) -> Ordering:
    """Order two matrices by entrywise domination of corner sums, read as
    subset tests on their order codes."""
    if a.n != b.n:
        raise SizeMismatch(f"sizes {a.n} and {b.n} differ")
    x, y = _code(a), _code(b)
    if x == y:
        return Ordering.EQUAL
    if not x & ~y:
        return Ordering.LESS
    if not y & ~x:
        return Ordering.GREATER
    return Ordering.INCOMPARABLE


def leq(a: Asm, b: Asm) -> bool:
    if a.n != b.n:
        raise SizeMismatch(f"sizes {a.n} and {b.n} differ")
    return not _code(a) & ~_code(b)


def _block_entries(block: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The 2x2 block's entries, row-major; each must be an int (a bool is
    not)."""
    if len(block) != 2 or any(len(row) != 2 for row in block):
        raise NotAnExchangeBlock("blocks must be 2x2")
    entries = tuple(x for row in block for x in row)
    for x in entries:
        if type(x) is not int:
            raise NotAnExchangeBlock(f"block entry {x!r} is not an integer")
    return entries


def classify_cover_type(
    a_block: Sequence[Sequence[int]], b_block: Sequence[Sequence[int]]
) -> CoverType:
    """Look up the table row for a cover's 2x2 blocks.

    ``b_block - a_block`` must be [[-1, 1], [1, -1]] and both blocks must
    consist of matrix entries in {-1, 0, 1}; an entry that is not an int
    (a float or a bool) is rejected, not coerced.
    """
    a, b = _block_entries(a_block), _block_entries(b_block)
    if tuple(y - x for x, y in zip(a, b)) != (-1, 1, 1, -1):
        raise NotAnExchangeBlock("block difference is not [[-1, 1], [1, -1]]")
    row = _TYPE_BY_LOWER_BLOCK.get(a)
    if row is None:
        raise NotAnExchangeBlock(f"lower block {a} has entries outside the table")
    return row


# The fields of a cover edge after its ends and position, keyed by the
# lower matrix's 2x2 block.
_EDGE_TAIL = {block: (t.index, t.d_inv, t.d_minus, t.d_weak2) for block, t in _TYPE_ROWS}
# tuple.__new__ skips the named tuple's constructor written in Python
_new_edge = functools.partial(tuple.__new__, CoverEdge)


def _edge(lower: Asm, upper: Asm, r: int, s: int) -> CoverEdge:
    top, bottom = lower.entries[r - 1 : r + 1]
    return _new_edge((lower, upper, r, s) + _EDGE_TAIL[top[s - 1 : s + 1] + bottom[s - 1 : s + 1]])


def try_cover(a: Asm, b: Asm) -> Optional[CoverEdge]:
    """The cover edge a <| b, or None when b does not cover a.

    b covers a exactly when their corner sums differ at one position
    (r, s) only, where a's is the larger by one: b's code holds a's and
    one bit more, and that bit's field is (r, s).
    """
    if a.n != b.n:
        raise SizeMismatch(f"sizes {a.n} and {b.n} differ")
    x, y = _code(a), _code(b)
    d = y & ~x
    if x & ~y or not d or d & (d - 1):
        return None
    return _edge(a, b, *_field_position(a.n, d.bit_length() - 1))


def _exchanges(col: int, run: int, below: int, up: bool) -> int:
    """The exchange rule (see the module docstring): each column s where
    the block at rows r, r + 1 and columns s, s + 1 gives an ASM again,
    upward or downward, as bit 0 of byte s - 1, given B_r as ``col`` and
    R_r and R_(r+1) as ``run`` and ``below``, bit 0 of byte j - 1 for
    column j.  Going up the steps B_r(s), R_r(s), B_r(s + 1), R_(r+1)(s)
    must read 1, 1, 0, 0 and going down 0, 0, 1, 1; column n never
    passes, as B_r(n + 1) reads 0 and R_(r+1)(n) reads 1.
    """
    if up:
        return col & run & ~(col >> 8) & ~below
    return ~col & ~run & col >> 8 & below


def _cover_positions(a: Asm, up: bool) -> Iterator[tuple[int, int]]:
    """Each (r, s) of a cover at a, upward or downward, in order: the
    exchange rule on the records of each two adjacent rows."""
    records, col = _records(a), 0
    for r, (top, bottom) in enumerate(zip(records, records[1:]), start=1):
        col ^= top.nonzero
        found = _exchanges(col, top.run, bottom.run, up)
        while found:
            low = found & -found
            found ^= low
            yield r, low.bit_length() // 8 + 1


def _covers(a: Asm, up: bool) -> list[CoverEdge]:
    """Every cover edge at a, upward or downward, in (r, s) order: the
    exchange at each of :func:`_cover_positions`, which adds sign times
    [[-1, 1], [1, -1]] to rows r and r + 1 at columns s and s + 1."""
    n, e, sign = a.n, a.entries, 1 if up else -1
    out = []
    for r, s in _cover_positions(a, up):
        rows, top, bottom = list(e), list(e[r - 1]), list(e[r])
        top[s - 1] -= sign
        top[s] += sign
        bottom[s - 1] += sign
        bottom[s] -= sign
        rows[r - 1], rows[r] = tuple(top), tuple(bottom)
        b = Asm(n, tuple(rows))
        out.append(_edge(a, b, r, s) if up else _edge(b, a, r, s))
    return out


def covers_up(a: Asm) -> list[CoverEdge]:
    """All edges a <| b, in (r, s) order."""
    return _covers(a, up=True)


def covers_down(b: Asm) -> list[CoverEdge]:
    """All edges a <| b, in (r, s) order."""
    return _covers(b, up=False)


def join(a: Asm, b: Asm) -> Asm:
    """Least upper bound: entrywise minimum of corner sums, the OR of the
    order codes.  When one code holds the other the operands are
    comparable and the larger one is returned itself, not rebuilt."""
    if a.n != b.n:
        raise SizeMismatch(f"sizes {a.n} and {b.n} differ")
    x, y = _code(a), _code(b)
    k = x | y
    if k == x:
        return a
    if k == y:
        return b
    return _from_code(a.n, k)


def meet(a: Asm, b: Asm) -> Asm:
    """Greatest lower bound: entrywise maximum of corner sums, the AND of
    the order codes.  When one code holds the other the operands are
    comparable and the smaller one is returned itself, not rebuilt."""
    if a.n != b.n:
        raise SizeMismatch(f"sizes {a.n} and {b.n} differ")
    x, y = _code(a), _code(b)
    k = x & y
    if k == x:
        return a
    if k == y:
        return b
    return _from_code(a.n, k)


def is_bigrassmannian(w: Permutation) -> bool:
    """True iff w has exactly one descent and its inverse has exactly one."""
    return len(w.descents()) == 1 and len(w.inverse().descents()) == 1


def enumerate_bigrassmannians(n: int) -> list[Permutation]:
    """All bigrassmannian permutations of S_n, in one-line lexicographic order.

    They are the C(n+1, 3) block swaps 1..a, b+1..c, a+1..b, c+1..n with
    0 <= a < b < c <= n.  A longer fixed prefix 1..a comes first, then
    the smaller b + 1 at position a + 1, then the earlier a + 1 (the
    smaller c), so a falls while b and c rise.
    """
    _require_size(n)
    return [
        Permutation(
            n, (*range(1, a + 1), *range(b + 1, c + 1), *range(a + 1, b + 1), *range(c + 1, n + 1))
        )
        for a in range(n - 2, -1, -1)
        for b in range(a + 1, n)
        for c in range(b + 1, n + 1)
    ]


def is_join_irreducible(a: Asm) -> bool:
    """True iff a covers exactly one element: the exchange rule's lower
    positions, read up to the second, and no lower matrix is built."""
    return len(list(itertools.islice(_cover_positions(a, False), 2))) == 1
