"""Exhaustive generation of all size-n alternating sign matrices.

Generation runs row by row.  The search state is the vector of column
prefix sums, each 0 or 1 (a row of the matrix's monotone triangle); a
candidate row is any {-1, 0, 1} vector whose running prefix sums stay in
{0, 1}, whose total is 1, and which keeps all column prefix sums in
{0, 1}.  One row-transition table per size, cached, lists each state
(every 0/1 vector) with its legal rows in the canonical order, row-major
lexicographic (entry order -1 < 0 < 1), and what each adds to I, N and
beta; a state's rows come from one sweep over its columns.

Also here: the closed-form count, walked from |A_k| to |A_(k+1)| by
one ratio of binomials; generating polynomials of the
statistics and the signed permutation identity, by a vertex DP that
adds one position at a time, updating each pair of states once and in
place, builds no table, lists no matrix and packs each state's
polynomial into one integer, a fixed-width field per exponent; and the
full cover graph.  The graph comes from one walk of
the row table that carries each matrix's I, N and beta, and from a second
table, cached per size as well, that lists for each two-row path the
covers exchanging a block inside those rows, found by ``poset``'s
exchange rule, and how far each moves the canonical index.  Its nodes
and edges are named tuples, and its DOT and JSON texts come as a stream
of pieces, one per node or edge, built from the text of each distinct
row and record, made once.  The table and the DP read their shares of
I, N and beta off one rule in ``stats``.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional

from .core import Asm, AsmError, _require_size
from .poset import _TYPE_BY_LOWER_BLOCK, _exchange_positions
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
            source, guard = "ASMLAT_GUARD=", int(env)
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
    return next(itertools.islice(_asm_counts(), n - 1, None))


def _next_rows(col: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All legal next rows for the given column prefix-sum vector, as
    (row, new column vector) in ascending lexicographic row order.

    One sweep over the columns, left to right, keeps every partial row
    with its new column prefix sums and its running sum; each extends by
    -1, 0, then 1 where that keeps both sums in {0, 1}, so the partial
    rows stay in lexicographic order.
    """
    partial = [((), (), 0)]
    for c in col:
        nxt = []
        for row, new, prefix in partial:
            if c and prefix:
                nxt.append((row + (-1,), new + (0,), 0))
            nxt.append((row + (0,), new + (c,), prefix))
            if not (c or prefix):
                nxt.append((row + (1,), new + (1,), 1))
        partial = nxt
    return [(row, new) for row, new, prefix in partial if prefix]


class _Step(NamedTuple):
    """One legal next row from a column prefix state, with what it adds
    to I, N and beta."""

    row: tuple[int, ...]
    new: tuple[int, ...]
    d_inv: int
    d_minus: int
    d_beta: int


@functools.lru_cache(maxsize=None)
def _row_table(n: int) -> dict[tuple[int, ...], tuple[_Step, ...]]:
    """Every column prefix state of size n with its legal next rows, in
    canonical order.

    The state before row i has sum i - 1; a row adds to I and N the
    :func:`stats._entry_shares` of its positions and to beta its
    :func:`stats._row_beta`.
    """
    table: dict[tuple[int, ...], tuple[_Step, ...]] = {}
    # one object per distinct row or state: all tables for n <= 10 then
    # take about 6 MiB, not 18
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    for col in itertools.product((0, 1), repeat=n):
        col, i = shared.setdefault(col, col), 1 + sum(col)
        steps = []
        for row, new in _next_rows(col):
            row, new = shared.setdefault(row, row), shared.setdefault(new, new)
            steps.append(_Step(row, new, *_entry_shares(0, col, row), _row_beta(i, new)))
        table[col] = tuple(steps)
    return table


@functools.lru_cache(maxsize=None)
def _cover_table(n: int) -> dict[tuple[int, ...], tuple[tuple[tuple[tuple[int, int], ...], ...], ...]]:
    """The up covers inside every two-row path through the row table.

    ``_cover_table(n)[p][k1][k2]`` is for the path that takes step k1
    from state p to q, then step k2 to q2.  It lists (rank delta, cover
    type) for each column s, ascending, that passes
    :func:`poset._exchange_positions` on the corner sums of p, q and q2;
    the exchanged rows are the steps p -> qx -> q2, qx being q with column
    s's 1 moved to s + 1.  A matrix's canonical index is the sum over its
    rows of off[state, next state], the number of paths that leave the
    state by an earlier step, so the exchange moves the index by the
    change in those two terms alone: the rank delta.
    """
    table = _row_table(n)
    paths = {(1,) * n: 1}  # paths from each state to the last
    for col in sorted(table, key=sum, reverse=True)[1:]:
        paths[col] = sum(paths[step.new] for step in table[col])
    off = {}
    for col, steps in table.items():
        before = 0
        for step in steps:
            off[col, step.new] = before
            before += paths[step.new]
    corner = {col: (0, *itertools.accumulate(col)) for col in table}
    cover = {}
    for p, steps in table.items():
        from_p = []
        for first in steps:
            q = first.new
            from_q = []
            for second in table[q]:
                q2, found = second.new, []
                for _, s in _exchange_positions((corner[p], corner[q], corner[q2]), up=True):
                    qx = q[: s - 1] + (0, 1) + q[s + 1 :]
                    delta = off[p, qx] + off[qx, q2] - off[p, q] - off[q, q2]
                    block = first.row[s - 1 : s + 1] + second.row[s - 1 : s + 1]
                    found.append((delta, _TYPE_BY_LOWER_BLOCK[block].index))
                from_q.append(tuple(found))
            from_p.append(tuple(from_q))
        cover[p] = tuple(from_p)
    return cover


# each statistic as weights on I, N and beta, and the factor that puts
# its exponents in half-units: 2H = 2I - N already is
_STATS = {"I": ((1, 0, 0), 2), "H": ((2, -1, 0), 1), "beta": ((0, 0, 1), 2)}
_PAIRS = ("I:beta", "H:beta")


def _vertex_sums(n: int, minus: bool, w_inv: int, w_minus: int, w_beta: int) -> dict[int, int]:
    """{exponent: number of matrices} over the ASMs of size n, or the
    permutation matrices when not ``minus``, for the exponent
    w_inv * I + w_minus * N + w_beta * beta; no position's or row's share
    of it may be negative.

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
    shift and an add; a state with one bit at 1 is not touched.
    """
    # no carry: a coefficient counts partial matrices into one state, and
    # where the state can be completed each extends to a distinct matrix,
    # so it is at most |A_n| (n!) < 2^(8 * width); a state that cannot
    # (running sum 0, only columns at 1 left) never merges into one that
    # can, and the row's end drops it
    width = (count_formula(n) if minus else math.factorial(n)).bit_length() // 8 + 1
    unit = 8 * width

    def shift(entry: int) -> int:
        d_inv, d_minus = _entry_shares(1, (1,), (entry,))
        return unit * (w_inv * d_inv + w_minus * d_minus)

    # only a position entered with both bits at 1 has a share: its 0 stays,
    # its -1 turns both bits to 0
    stay, down = shift(0), shift(-1)
    row_bit = 1 << n
    cols: list[tuple[int, ...]] = [()]  # cols[state]: its column sums
    for _ in range(n if w_beta else 0):
        cols = [c + (0,) for c in cols] + [c + (1,) for c in cols]
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
            # any such column vector, and row i's 0s up to k keep it
            for state in [s for s in layer if not s & flip]:
                poly, high = layer[state], layer.get(state | flip, 0)
                layer[state | flip] = poly + (high << stay)
                if minus:
                    layer[state] = poly + (high << down)
        ended = {}
        for state, poly in layer.items():
            if state & row_bit:
                state ^= row_bit
                if w_beta:
                    poly <<= unit * w_beta * _row_beta(i, cols[state])
                ended[state] = poly
        layer = ended
    poly = layer[row_bit - 1]
    data = poly.to_bytes((poly.bit_length() + 7) // 8, "little")
    fields = (int.from_bytes(data[k : k + width], "little") for k in range(0, len(data), width))
    return {e: c for e, c in enumerate(fields) if c}


# a size at or past this is refused as at least this bound, on a lower
# bound past it, and neither made nor printed in full: printing takes time
# quadratic in the digits
_SHOWN = 10**10000


def _raise_over_guard(what: str, sizes: Iterable[int], limit_guard: Optional[int]) -> None:
    """Refuse a size above :func:`resolve_guard`.  ``sizes`` are rising
    lower bounds on it, the last the size itself; they are read until
    one is above both the guard and ``_SHOWN``."""
    guard = resolve_guard(limit_guard)
    for size in sizes:
        if size > guard and size >= _SHOWN:
            break
    if size > guard:
        shown = f"= {decimal.Decimal(size)}" if size < _SHOWN else ">= 10^10000"
        raise TooLarge(
            f"{what} {shown} exceeds guard {decimal.Decimal(guard)}; "
            "raise it with --guard N or ASMLAT_GUARD"
        )


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
    _raise_over_guard(f"|A_{n}|", itertools.islice(_asm_counts(), n), limit_guard)


def _check_dp(n: int, over: str, limit_guard: Optional[int]) -> bool:
    """Refuse an unknown universe, a size that is not a positive int, or
    more DP steps than :func:`resolve_guard` allows: n^2 positions, each
    over at most 2^(n + 1) states.  True for ASMs, False for
    permutations."""
    if over not in ("asm", "perm"):
        raise AsmError(f"unknown universe {over!r}; expected 'asm' or 'perm'")
    _require_size(n)

    def steps() -> Iterator[int]:
        # first a lower bound cheap to make: 2^(n + 1), capped just past _SHOWN
        yield 1 << min(n + 1, _SHOWN.bit_length())
        yield n * n << n + 1

    _raise_over_guard(f"{n}^2 * 2^{n + 1} DP steps", steps(), limit_guard)
    return over == "asm"


def iter_asms(n: int) -> Iterator[Asm]:
    """Stream every ASM of size n, canonical order, no guard, by walking
    the row table depth first."""
    _require_size(n)
    table = _row_table(n)

    def rec(rows: list[tuple[int, ...]], col: tuple[int, ...]) -> Iterator[Asm]:
        if len(rows) == n:
            yield Asm(n, tuple(rows))
            return
        for step in table[col]:
            rows.append(step.row)
            yield from rec(rows, step.new)
            rows.pop()
    return rec([], (0,) * n)


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


def signed_identity_check(n: int, limit_guard: Optional[int] = None) -> tuple[bool, HalfIntPolynomial, HalfIntPolynomial]:
    """Compare the signed rank sum over S_n with its product form: left,
    the sum of (-1)^I(w) q^beta(w), the permutation I:beta polynomial at
    λ = -1; right, the product over k < n of (1 - q^k)^(n - k).  Returns
    (equal, left, right)."""
    lhs = bivariate_genfun(n, "I:beta", "perm", limit_guard).specialize_first(-1)
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


class _Texts(dict):
    """Each key's text, made by ``make`` on first use and kept: a graph's
    nodes share a few distinct rows and records."""

    def __init__(self, make) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key) -> str:
        text = self[key] = self.make(key)
        return text


def _listed(items: Iterator[str]) -> Iterator[str]:
    """The items of a JSON list as pieces, each after the first behind
    its ", "."""
    for first in items:
        yield first
        # the rest: the loop ends with them
        yield from map(", ".__add__, items)


@dataclass(frozen=True)
class HasseGraph:
    """The full cover graph of A_n, graded by beta."""

    n: int
    nodes: tuple[HasseNode, ...]
    edges: tuple[HasseEdge, ...]

    def to_dot(self, highlight_ji: bool = True) -> str:
        return "".join(self._dot_lines(highlight_ji))

    def _dot_lines(self, highlight_ji: bool) -> Iterator[str]:
        """The DOT text line by line, each with its newline, so a writer
        need not hold the whole text.  A node's label is a permutation in
        one-line notation, as ``core.Permutation`` prints it, or any other
        matrix row by row."""
        yield f"digraph asm_lattice_{self.n} {{\n  rankdir=BT;\n  node [shape=box];\n"
        digit = _Texts(lambda row: str(row.index(1) + 1)).__getitem__
        entries = _Texts(lambda row: " ".join(map(str, row))).__getitem__
        comma = "," if self.n > 9 else ""
        filled = ", style=filled" if highlight_ji else ""
        for idx, (matrix, record, join_irreducible) in enumerate(self.nodes):
            if record.minus:
                label = "|".join(map(entries, matrix.entries))
            else:
                label = comma.join(map(digit, matrix.entries))
            yield '  a%d [label="%s"%s];\n' % (idx, label, filled if join_irreducible else "")
        yield from map('  a%d -> a%d [label="t%d"];\n'.__mod__, self.edges)
        yield "}\n"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "nodes": [
                {
                    "matrix": node.matrix.to_json_dict(),
                    "stats": node.record.to_json_dict(),
                    "join_irreducible": node.join_irreducible,
                }
                for node in self.nodes
            ],
            "edges": [
                {"lower": e.lower, "upper": e.upper, "type": e.cover_type}
                for e in self.edges
            ],
        }

    def _json_chunks(self) -> Iterator[str]:
        """The text of ``json.dumps(self.to_json_dict())`` in pieces, one
        per node and one per edge, so a writer need not hold it whole;
        each distinct row's and record's text is made once."""
        rows = _Texts(lambda row: json.dumps(list(row))).__getitem__
        stats = _Texts(lambda record: json.dumps(record.to_json_dict())).__getitem__
        matrix = '{"matrix": {"n": %d, "entries": [' % self.n
        yield '{"n": %d, "nodes": [' % self.n
        yield from _listed(
            f'{matrix}{", ".join(map(rows, a.entries))}]}}, "stats": {stats(record)}, '
            f'"join_irreducible": {"true" if join_irreducible else "false"}}}'
            for a, record, join_irreducible in self.nodes
        )
        yield '], "edges": ['
        yield from _listed(map('{"lower": %d, "upper": %d, "type": %d}'.__mod__, self.edges))
        yield "]}"


def build_hasse(n: int, limit_guard: Optional[int] = None) -> HasseGraph:
    """Enumerate A_n with its statistics and wire up every cover edge, in
    one depth-first walk of the row table.

    The walk carries the sums of I, N and beta along each path and, for
    each pair of adjacent rows, the :func:`_cover_table` entry of their
    two steps: node i's up edges go to i + delta.  No upper matrix is
    built or looked up, and ``covers_up`` and ``stat_record`` are not
    called (``verify.scanned_hasse``, which calls them, is the oracle).
    An exchange at rows r, r + 1 keeps rows 1..r - 1 and makes row r
    lexicographically smaller, so read in (r, s) order the upper ends
    come out ascending and the edges need no sort.
    """
    _check_size(n, limit_guard)
    table, cover = _row_table(n), _cover_table(n)
    # every upper end is an object of this list, not a fresh int per edge
    ids = list(range(count_formula(n)))
    lower_covers = [0] * len(ids)
    matrices: list[Asm] = []
    records: list[StatRecord] = []
    known: dict[tuple[int, int, int], StatRecord] = {}
    edges: list[HasseEdge] = []
    rows: list[tuple[int, ...]] = [()] * n
    # exchanges[r]: (delta, type) of the covers exchanging rows r - 1 and
    # r (0-based) on the current path; exchanges[0] stays empty
    exchanges: list[tuple[tuple[int, int], ...]] = [()] * n

    def walk(r: int, col: tuple[int, ...], above, inv: int, minus: int, rank: int) -> None:
        for k, step in enumerate(table[col]):
            rows[r] = step.row
            if r:
                exchanges[r] = above[k]
            sums = (inv + step.d_inv, minus + step.d_minus, rank + step.d_beta)
            if r + 1 < n:
                walk(r + 1, step.new, cover[col][k], *sums)
                continue
            i = len(matrices)
            matrices.append(Asm(n, tuple(rows)))
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
                    edges.append(HasseEdge(lower, upper, cover_type))

    walk(0, (0,) * n, None, 0, 0, 0)
    nodes = tuple(
        HasseNode(a, record, join_irreducible=k == 1)
        for a, record, k in zip(matrices, records, lower_covers)
    )
    return HasseGraph(n, nodes, tuple(edges))
