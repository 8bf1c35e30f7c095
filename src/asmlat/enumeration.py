"""Exhaustive generation of all size-n alternating sign matrices.

Generation runs row by row.  The search state is the vector of column
prefix sums, each 0 or 1 (a row of the matrix's monotone triangle), held
as a mask in ``core._Row``'s layout, one byte per column.  One
row-transition table per size, cached, lists each state (every 0/1
vector) with its legal rows in the canonical order, row-major
lexicographic (entry order -1 < 0 < 1), and what each adds to I, N and
beta; a row may follow a state by ``core.validate``'s own mask test.

Also here: the closed-form count, walked from |A_k| to |A_(k+1)| by
one ratio of binomials; generating polynomials of the
statistics and the signed permutation identity, by a vertex DP that
adds one position at a time, updating each pair of states once and in
place, builds no table, lists no matrix and packs each state's
polynomial into one integer, a fixed-width field per exponent (for the
signed identity, (-1)^I by subtraction, a signed int); and
the full cover graph.  The graph comes from one walk of
the row table that carries each matrix's I, N and beta, and from a second
table, cached per size as well (:func:`_cover_table`), that lists for
each two-row path the covers exchanging a block inside those rows and
how far each moves the canonical index.  It finds them by ``poset``'s
exchange rule on the column state between the two rows and each row's
running sums, so it builds no corner sums.  The walk gives the graph in
the one plain form ``io``'s writers take: each node as its rows, its
shared record and its join-irreducible flag, and each edge as an exact
tuple of ints, which the cyclic collector stops scanning.  The
``hasse`` command writes from it directly; ``build_hasse`` wraps it in
named tuples and ``Asm`` objects.  The table and the DP read their
shares of I, N and beta off one rule in ``stats``, as
``stats.stat_record`` does.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import math
import operator
import os
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional

from .core import Asm, AsmError, _require_size, _Row
from .io import _Edge, _Node, _Rows, _dot_chunks, read_int
from .poset import _TYPE_BY_LOWER_BLOCK, _exchanges
from .polynomials import BivariatePolynomial, HalfIntPolynomial
from .stats import StatRecord, _entry_shares, _record, _row_beta

DEFAULT_GUARD = 10**7


class TooLarge(AsmError):
    pass


def resolve_guard(limit_guard: Optional[int] = None) -> int:
    """The guard to apply: ``limit_guard`` if given, else ASMLAT_GUARD,
    else 10^7; a negative or non-integer guard is a domain error."""
    source, guard = "guard ", limit_guard
    if guard is None:
        env = os.environ.get("ASMLAT_GUARD")
        if not env:
            return DEFAULT_GUARD
        try:
            source, guard = "ASMLAT_GUARD=", read_int(env)
        except ValueError:
            raise AsmError(f"ASMLAT_GUARD={env!r} is not an integer") from None
    elif type(guard) is not int:
        raise AsmError(f"guard {guard!r} is not an integer")
    if guard < 0:
        raise AsmError(f"{source}{guard} is negative")
    return guard


def count_formula(n: int) -> int:
    """|A_n| by the closed-form product, exact: the n-th value of
    :func:`_asm_counts`, the walk that :func:`_check_size` reads too."""
    _require_size(n)
    if n > sys.maxsize:
        # |A_n| >= n! has more digits than any int can hold
        raise AsmError(f"|A_{n}| has more than {sys.maxsize} digits, too many to compute")
    return next(itertools.islice(_asm_counts(), n - 1, None))


class _Step(NamedTuple):
    """One legal next row from a column state, with its record, the state
    it leads to and what it adds to I, N and beta."""

    row: tuple[int, ...]
    record: _Row
    new: int
    d_inv: int
    d_minus: int
    d_beta: int


@functools.cache
def _row_table(n: int) -> dict[int, tuple[_Step, ...]]:
    """Every column state of size n with its legal next rows, in
    canonical order.

    A state is the column prefix sums of the rows so far as a mask in
    ``core._Row``'s layout, column j's as bit 0 of byte j - 1: every 0/1
    vector, straight from ``itertools.product``.  A row is the first
    difference of its running sums, any 0/1 vector that ends at 1, and
    these vectors in lexicographic order give the rows in canonical
    order.  A state's steps are the rows that ``core._checked`` lets
    follow it, each to the state ``col ^ nonzero``.  The state before
    row i has sum i - 1; a row adds to I and N the
    :func:`stats._entry_shares` of its positions and to beta its
    :func:`stats._row_beta`, as :func:`stats.stat_record` adds them.
    """
    rows = []
    for run in itertools.product((0, 1), repeat=n - 1):
        run += (1,)
        rows.append((tuple(map(operator.sub, run, (0,) + run)), _Row(bytes(run))))
    # one int per state, each new state looked up among the keys: a fresh
    # int per step took the peak at n = 12 from 44 to 56 MiB
    states = [int.from_bytes(bytes(c), "little") for c in itertools.product((0, 1), repeat=n)]
    state = dict(zip(states, states))
    table = {}
    for col in states:
        # corners: the sum of the corner sums that the rows so far make
        i, corners = 1 + col.bit_count(), sum(itertools.accumulate(col.to_bytes(n, "little")))
        table[col] = tuple(
            _Step(
                row, m, state[col ^ m.nonzero], *_entry_shares(m.run << 8, col, m.minus),
                _row_beta(i, n, corners + m.run.bit_count()),
            )
            for row, m in rows
            if not (m.plus & col or m.minus & ~col)
        )
    return table


@functools.cache
def _cover_table(n: int) -> dict[int, tuple[tuple[tuple[tuple[int, int], ...], ...], ...]]:
    """The up covers inside every two-row path through the row table.

    ``_cover_table(n)[p][k1][k2]`` is for the path that takes step k1
    from state p to q, then step k2 to q2.  It lists (rank delta, cover
    type) for each column s, ascending, that passes
    :func:`poset._exchanges`, the exchange rule, on state q and the two
    steps' running sums; the exchanged rows are the steps p -> qx -> q2,
    qx being q with column s's 1 moved to s + 1.  A matrix's canonical
    index is the sum over its rows of off[state, next state], the number
    of paths that leave the state by an earlier step, so the exchange
    moves the index by the change in those two terms alone: the rank
    delta.
    """
    table = _row_table(n)
    paths = {int.from_bytes(b"\x01" * n, "little"): 1}  # paths from each state to the last
    for col in sorted(table, key=int.bit_count, reverse=True)[1:]:
        paths[col] = sum(paths[step.new] for step in table[col])
    off = {}
    for col, steps in table.items():
        before = 0
        for step in steps:
            off[col, step.new] = before
            before += paths[step.new]
    cover = {}
    for p, steps in table.items():
        from_p = []
        for first in steps:
            q, top = first.new, first.record.run
            from_q = []
            for second in table[q]:
                q2, found = second.new, []
                at = _exchanges(q, top, second.record.run, True)
                while at:
                    low = at & -at
                    at ^= low
                    s = low.bit_length() // 8 + 1
                    qx = q ^ low * 0x101
                    delta = off[p, qx] + off[qx, q2] - off[p, q] - off[q, q2]
                    block = first.row[s - 1 : s + 1] + second.row[s - 1 : s + 1]
                    found.append((delta, _TYPE_BY_LOWER_BLOCK[block].index))
                from_q.append(tuple(found))
            from_p.append(tuple(from_q))
        cover[p] = tuple(from_p)
    return cover


# The one list of the generating polynomials' names, which the genfun
# command's choices and verify's suites read: each statistic as weights
# on I, N and beta, and the factor that puts its exponents in half-units
# (2H = 2I - N already is), each pair, and each universe
_STATS = {"I": ((1, 0, 0), 2), "H": ((2, -1, 0), 1), "beta": ((0, 0, 1), 2)}
_PAIRS = ("I:beta", "H:beta")
_UNIVERSES = ("asm", "perm")


def _vertex_sums(n: int, minus: bool, w_inv: int, w_minus: int, w_beta: int, signed: bool = False) -> dict[int, int]:
    """{exponent: number of matrices} over the ASMs of size n, or the
    permutation matrices when not ``minus``, for the exponent
    w_inv * I + w_minus * N + w_beta * beta; no position's or row's share
    of it may be negative.  When ``signed``, each matrix counts (-1)^I,
    not 1, and the values may be negative.

    Lists no matrix.  The DP adds one position at a time, row by row, left
    to right, in the six-vertex model's states: one int holding the
    column sums of the rows so far as bits 0..n-1 and the current row's
    running sum as bit n, each 0 or 1.  The entry is 0, or 1 where both
    bits are 0, or -1 where both are 1 (ASMs only); a nonzero entry flips
    both.  Shares come from the rule of ``stats``: each position's
    :func:`stats._entry_shares`, and each row's :func:`stats._row_beta`
    from the new column state, once the row ends in a state with running
    sum 1.  Each state carries its paths' polynomial as one int, x^e's
    coefficient in field e of ``width`` bytes.  A position updates each
    pair of states, both bits at 0 and both at 1, once and in place, by a
    shift and an add; a state with one bit at 1 is not touched.  Only the
    moves out of a state with both bits at 1 add to I, 1 each, so the
    signed DP subtracts their shifted polynomials instead of adding them.
    """
    # no carry: a coefficient counts partial matrices into one state, and
    # where the state can be completed each extends to a distinct matrix,
    # so its absolute value, signed or not, is at most |A_n| (n!) <
    # 2^(8 * width - 1); a state that cannot (running sum 0, only columns
    # at 1 left) never merges into one that can, and the row's end drops
    # it.  So adding half a field's range to every field leaves each in
    # 0..2^(8 * width) - 1, to be read unsigned
    width = (count_formula(n) if minus else math.factorial(n)).bit_length() // 8 + 1
    unit = 8 * width

    def shift(entry: int) -> int:
        d_inv, d_minus = _entry_shares(1, 1, int(entry == -1))
        return unit * (w_inv * d_inv + w_minus * d_minus)

    # only a position entered with both bits at 1 has a share: its 0 stays,
    # its -1 turns both bits to 0
    stay, down = shift(0), shift(-1)
    row_bit = 1 << n
    # corners[state]: the sum of the corner sums its column sums make,
    # column k + 1 (bit k) adding 1 to each of c(i, k + 1..n)
    corners = [0]
    for k in range(n if w_beta else 0):
        corners += [c + n - k for c in corners]
    layer = {0: 1}
    for i in range(1, n + 1):
        for k in range(n):
            flip = row_bit | 1 << k
            # a state with both bits at 0 and its partner with both at 1
            # reach each other by 1 and -1, and each keeps itself by 0; a
            # state with one bit at 1 keeps its 0 and is not touched.  A
            # state with both bits at 1 always has its partner in the layer,
            # so each pair is updated once, in place: the partner has row
            # bit 0 and column sum i - 1, rows 1..i-1 of a permutation leave
            # any such column vector, and row i's 0s up to k keep it.  The
            # sign is tested once per position: a test per pair cost the
            # unsigned sums 2-4% at n = 6
            low = [s for s in layer if not s & flip]
            if signed:
                for state in low:
                    poly, high = layer[state], layer.get(state | flip, 0)
                    layer[state | flip] = poly - (high << stay)
                    if minus:
                        layer[state] = poly - (high << down)
                continue
            for state in low:
                poly, high = layer[state], layer.get(state | flip, 0)
                layer[state | flip] = poly + (high << stay)
                if minus:
                    layer[state] = poly + (high << down)
        ended = {}
        for state, poly in layer.items():
            if state & row_bit:
                state ^= row_bit
                if w_beta:
                    poly <<= unit * w_beta * _row_beta(i, n, corners[state])
                ended[state] = poly
        layer = ended
    # the one decode, signed or not: every field up to the top one raised
    # by half, read unsigned and lowered again
    poly = layer[row_bit - 1]
    fields, half = abs(poly).bit_length() // unit + 1, 1 << unit - 1
    data = (poly + half * ((1 << unit * fields) - 1) // ((1 << unit) - 1)).to_bytes(fields * width, "little")
    coeffs = (int.from_bytes(data[k : k + width], "little") - half for k in range(0, len(data), width))
    return {e: c for e, c in enumerate(coeffs) if c}


# a size at or past this is refused as at least this bound, on a lower
# bound past it, and neither made nor printed in full: printing takes time
# quadratic in the digits
_SHOWN = 10**10000


def _raise_over_guard(what: str, sizes: Iterable[int], limit_guard: Optional[int]) -> None:
    """Refuse a size above :func:`resolve_guard`.  ``sizes`` are rising
    lower bounds on it, the last the size itself; they are read until
    one is above both the guard and ``_SHOWN``.  The refusal names
    ``--guard N`` only to a caller that passed a guard, as every command
    with that flag does; one that passed none, such as ``verify``, is
    told of ASMLAT_GUARD alone."""
    guard = resolve_guard(limit_guard)
    for size in sizes:
        if size > guard and size >= _SHOWN:
            break
    if size > guard:
        shown = f"= {decimal.Decimal(size)}" if size < _SHOWN else ">= 10^10000"
        flag = "" if limit_guard is None else "--guard N or "
        raise TooLarge(f"{what} {shown} exceeds guard {decimal.Decimal(guard)}; raise it with {flag}ASMLAT_GUARD")


def _asm_counts() -> Iterator[int]:
    """|A_1|, |A_2|, ..., each from the last by the ratio of the count
    formula's products: |A_(k+1)| = |A_k| C(3k + 1, k) / C(2k, k)."""
    count, k = 1, 1
    while True:
        yield count
        count = count * math.comb(3 * k + 1, k) // math.comb(2 * k, k)
        k += 1


def _check_size(n: int, limit_guard: Optional[int]) -> None:
    """Refuse a size that is not a positive int, or |A_n| above
    :func:`resolve_guard`: the bound for listing A_n.  |A_k| rises with
    k, so the walk to |A_n| stops early for a large n."""
    _require_size(n)
    # zip, not islice: islice refuses a stop past sys.maxsize
    counts = (count for _, count in zip(range(n), _asm_counts()))
    _raise_over_guard(f"|A_{n}|", counts, limit_guard)


def _check_dp(n: int, over: str, limit_guard: Optional[int]) -> bool:
    """Refuse an unknown universe, a size that is not a positive int, or
    more DP steps than :func:`resolve_guard` allows: n^2 positions, each
    over at most 2^(n + 1) states.  True for ASMs, False for
    permutations."""
    if over not in _UNIVERSES:
        raise AsmError(f"unknown universe {over!r}; expected 'asm' or 'perm'")
    _require_size(n)

    def steps() -> Iterator[int]:
        # first a lower bound cheap to make: 2^(n + 1), capped just past _SHOWN
        yield 1 << min(n + 1, _SHOWN.bit_length())
        yield n * n << n + 1

    _raise_over_guard(f"{n}^2 * 2^{n + 1} DP steps", steps(), limit_guard)
    return over == "asm"


def iter_asms(n: int) -> Iterator[Asm]:
    """Yield every ASM of size n, canonical order, no guard, by walking
    the row table depth first from state 0, but only once the whole
    table is built: 2^(2n - 1) tests of a state and a row for (3^n - 1)/2
    steps, so the first item takes 0.8 s and 44 MiB at n = 12, 11 s and
    261 MiB at n = 14 (2-vCPU VM).  The walk stops at row n - 1: the state
    after it has n - 1 columns at 1, so the last row is that state's one
    step, and each matrix is yielded straight from it, with no generator
    frame of its own."""
    _require_size(n)
    table = _row_table(n)

    if n == 1:  # the one matrix, (1): its row is forced from the start
        return (Asm(1, (step.row,)) for step in table[0])
    last = n - 1  # the rows the walk chooses

    def rec(rows: list[tuple[int, ...]], col: int) -> Iterator[Asm]:
        for step in table[col]:
            rows.append(step.row)
            if len(rows) < last:
                yield from rec(rows, step.new)
            else:
                yield Asm(n, (*rows, table[step.new][0].row))
            rows.pop()
    return rec([], 0)


def enumerate_asms(n: int, limit_guard: Optional[int] = None) -> list[Asm]:
    """All ASMs of size n as a list, canonical order.

    Refuses to run when the predicted count exceeds the guard
    (``limit_guard`` argument, ASMLAT_GUARD env var, or 10^7).
    """
    _check_size(n, limit_guard)
    return list(iter_asms(n))


def genfun_stat(
    n: int,
    stat: str,
    over: str = "asm",
    limit_guard: Optional[int] = None,
) -> HalfIntPolynomial:
    """Sum of λ^stat(A) over all ASMs (or permutation matrices) of size n.

    stat is one of "I", "H", "beta"; H produces half-integer exponents.
    Computed by the vertex DP, without listing the matrices; the guard
    bounds the DP's steps, n^2 * 2^(n + 1).
    """
    if stat not in _STATS:
        raise AsmError(f"unknown statistic {stat!r}; expected I, H or beta")
    weights, scale = _STATS[stat]
    coeffs = _vertex_sums(n, _check_dp(n, over, limit_guard), *weights)
    return HalfIntPolynomial({scale * e: c for e, c in coeffs.items()})


def bivariate_genfun(
    n: int,
    pair: str = "I:beta",
    over: str = "asm",
    limit_guard: Optional[int] = None,
) -> BivariatePolynomial:
    """Sum of λ^s1 q^s2 over the chosen universe, by the vertex DP."""
    if pair not in _PAIRS:
        raise AsmError(f"unknown pair {pair!r}; expected one of {sorted(_PAIRS)}")
    minus = _check_dp(n, over, limit_guard)
    # one exponent: s1 times a stride above beta's top, C(n + 1, 3), plus beta
    (w_inv, w_minus, _), scale = _STATS[pair.split(":")[0]]
    stride = math.comb(n + 1, 3) + 1
    coeffs = _vertex_sums(n, minus, w_inv * stride, w_minus * stride, 1)
    return BivariatePolynomial({(scale * (e // stride), e % stride): c for e, c in coeffs.items()})


def _signed_beta(n: int, minus: bool) -> HalfIntPolynomial:
    """The sum of (-1)^I q^beta over the ASMs of size n, or the
    permutation matrices when not ``minus``, by the signed vertex DP with
    beta alone as the exponent; no guard."""
    coeffs = _vertex_sums(n, minus, 0, 0, 1, signed=True)
    return HalfIntPolynomial({2 * b: c for b, c in coeffs.items()}, var="q")


def signed_identity_check(n: int, limit_guard: Optional[int] = None) -> tuple[bool, HalfIntPolynomial, HalfIntPolynomial]:
    """Compare the signed rank sum over S_n with its product form: left,
    the sum of (-1)^I(w) q^beta(w); right, the product over k < n of
    (1 - q^k)^(n - k).  Returns (equal, left, right).

    The left side is the signed vertex DP over permutations with beta
    alone as the exponent: each state holds one field per value of beta,
    not one per value of (I, beta)."""
    _check_dp(n, "perm", limit_guard)
    lhs = _signed_beta(n, False)
    factors = (HalfIntPolynomial({0: 1, 2 * k: -1}, var="q") ** (n - k) for k in range(1, n))
    rhs = math.prod(factors, start=HalfIntPolynomial.one(var="q"))
    return lhs == rhs, lhs, rhs


class HasseNode(NamedTuple):
    matrix: Asm
    record: StatRecord
    join_irreducible: bool


class HasseEdge(NamedTuple):
    lower: int  # node indices into HasseGraph.nodes
    upper: int
    cover_type: int


@dataclass(frozen=True)
class HasseGraph:
    """The full cover graph of A_n, graded by beta."""

    n: int
    nodes: tuple[HasseNode, ...]
    edges: tuple[HasseEdge, ...]

    def to_dot(self, highlight_ji: bool = True) -> str:
        """DOT text, join-irreducible nodes filled unless ``highlight_ji`` is
        False; ``asmlat hasse`` fills them only with ``--highlight-ji``."""
        nodes = ((a.entries, record, ji) for a, record, ji in self.nodes)
        return "".join(_dot_chunks(self.n, nodes, self.edges, highlight_ji))

    def to_json_dict(self) -> dict:
        """The dict whose ``json.dumps`` plus a newline is the text of
        ``asmlat hasse --output json``, which ``io`` writes in chunks."""
        return {
            "n": self.n,
            "nodes": [
                {"matrix": a.to_json_dict(), "stats": record.to_json_dict(), "join_irreducible": ji}
                for a, record, ji in self.nodes
            ],
            "edges": [{"lower": lower, "upper": upper, "type": t} for lower, upper, t in self.edges],
        }


def _walk_hasse(n: int, limit_guard: Optional[int]) -> tuple[Iterator[_Node], list[_Edge]]:
    """The cover graph of A_n as plain data, from one depth-first walk of
    the row table: an iterator, to be read once, of the nodes in
    canonical order as ``io``'s writers take them, each (rows,
    ``StatRecord``, join-irreducible) with equal statistics sharing one
    record; and every edge as an exact (lower, upper, cover type) tuple.
    A node is join-irreducible when it has exactly one lower cover.

    The walk carries the sums of I, N and beta along each path and, for
    each pair of adjacent rows, the :func:`_cover_table` entry of their
    two steps: node i's up edges go to i + delta.  No upper matrix is
    built or looked up, and ``covers_up`` and ``stat_record`` are not
    called (``verify.scanned_hasse``, which calls them, is the oracle).
    Row n is forced: the state before it has n - 1 columns at 1, and its
    one step is a single +1 in the column at 0.  So the walk does not
    recurse into row n but finishes each node at row n - 1, adding that
    step's shares to the sums; the covers exchanging rows n - 1 and n are
    the entry for the last row's step, step 0.
    An exchange at rows r, r + 1 keeps rows 1..r - 1 and makes row r
    lexicographically smaller, so read in (r, s) order the upper ends
    come out ascending and the edges need no sort.  Nothing kept per
    node or edge is an object the cyclic collector keeps scanning: a
    tuple of ints, or of such tuples, drops out of its scans at the
    first collection, which an ``Asm`` or a named tuple never does, and
    each node's tuple is made only as it is read.
    """
    _check_size(n, limit_guard)
    table, cover = _row_table(n), _cover_table(n)
    # every upper end is an object of this list, not a fresh int per edge
    ids = list(range(count_formula(n)))
    lower_covers = [0] * len(ids)
    matrices: list[_Rows] = []
    records: list[StatRecord] = []
    known: dict[tuple[int, int, int], StatRecord] = {}
    edges: list[_Edge] = []
    rows: list[tuple[int, ...]] = [()] * n
    # exchanges[r]: (delta, type) of the covers exchanging rows r - 1 and
    # r (0-based) on the current path; exchanges[0] stays empty
    exchanges: list[tuple[tuple[int, int], ...]] = [()] * n

    last = n - 2  # the 0-based row at which each node is finished

    def walk(r: int, col: int, above, inv: int, minus: int, rank: int) -> None:
        below = cover[col]
        for k, step in enumerate(table[col]):
            rows[r] = step.row
            if r:
                exchanges[r] = above[k]
            if r < last:
                walk(r + 1, step.new, below[k], inv + step.d_inv, minus + step.d_minus, rank + step.d_beta)
                continue
            end = table[step.new][0]
            rows[-1] = end.row
            exchanges[-1] = below[k][0]
            sums = (
                inv + step.d_inv + end.d_inv, minus + step.d_minus + end.d_minus, rank + step.d_beta + end.d_beta
            )
            i = len(matrices)
            matrices.append(tuple(rows))
            # equal statistics share one record
            record = known.get(sums)
            if record is None:
                record = known[sums] = _record(n, *sums)
            records.append(record)
            lower = ids[i]
            for found in exchanges:
                for delta, cover_type in found:
                    upper = ids[i + delta]
                    lower_covers[upper] += 1
                    edges.append((lower, upper, cover_type))

    if n > 1:
        walk(0, 0, None, 0, 0, 0)
    else:  # the one matrix, (1): its row is forced from the start
        (end,) = table[0]
        matrices.append((end.row,))
        records.append(_record(1, end.d_inv, end.d_minus, end.d_beta))
    # walk reaches itself through its closure: without this the cycle keeps
    # every list here alive until a full collection
    del walk
    return zip(matrices, records, map((1).__eq__, lower_covers)), edges


def build_hasse(n: int, limit_guard: Optional[int] = None) -> HasseGraph:
    """Enumerate A_n with its statistics and wire up every cover edge: the
    nodes and edges of :func:`_walk_hasse`, which the ``hasse`` command
    writes from directly, with each matrix as an ``Asm``, each node as a
    ``HasseNode`` and each edge as a ``HasseEdge``."""
    nodes, edges = _walk_hasse(n, limit_guard)
    # the rebinding drops the walk's node lists before the edges are
    # converted, which is the peak
    nodes = tuple(HasseNode(Asm(n, rows), record, ji) for rows, record, ji in nodes)
    # in place, so the plain and the named edges are never both held whole;
    # tuple.__new__ skips the named tuple's constructor written in Python
    named = functools.partial(tuple.__new__, HasseEdge)
    for k, edge in enumerate(edges):
        edges[k] = named(edge)
    return HasseGraph(n, nodes, tuple(edges))
