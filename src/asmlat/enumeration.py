"""Exhaustive generation of all size-n alternating sign matrices.

Generation runs row by row.  The search state is the vector of column
prefix sums, each 0 or 1 (a row of the matrix's monotone triangle); a
candidate row is any {-1, 0, 1} vector whose running prefix sums stay in
{0, 1}, whose total is 1, and which keeps all column prefix sums in
{0, 1}.  One row-transition table per size and universe, cached, lists
every state's legal rows in row-major lexicographic order (entry order
-1 < 0 < 1), which is the package's canonical order, and what each row
adds to I, N and beta.  A state's rows come from one sweep over its
columns; the permutation table never makes a -1 branch.

Also here: the closed-form count; generating polynomials of the
statistics and the signed permutation identity, by a DP over that table
that lists no matrix and packs each state's polynomial into one integer,
a fixed-width field per exponent; and the full cover graph with DOT and
JSON export.  The graph comes from one walk of the table that
carries each matrix's I, N and beta, and from a second table, cached
per size as well, that lists for each two-row path the covers
exchanging a block inside those rows and how far each moves the
canonical index.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional

from .core import Asm, AsmError, _require_size
from .poset import _TYPE_BY_LOWER_BLOCK, _exchange
from .polynomials import BivariatePolynomial, HalfIntPolynomial
from .stats import StatRecord, _record, _row_deltas

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
    """The closed-form product for |A_n|, exact."""
    _require_size(n)
    num = den = 1
    for i in range(n):
        num *= math.factorial(3 * i + 1)
        den *= math.factorial(n + i)
    # the product is an integer even though single factors are not
    assert num % den == 0
    return num // den


def _next_rows(
    col: tuple[int, ...], perm_only: bool
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All legal next rows for the given column prefix-sum vector, as
    (row, new column vector) in ascending lexicographic row order.

    One sweep over the columns, left to right, keeps every partial row
    with its new column prefix sums and its running sum; each extends by
    -1, 0, then 1 where that keeps both sums in {0, 1}, so the partial
    rows stay in lexicographic order.  ``perm_only`` never makes a -1.
    """
    partial = [((), (), 0)]
    for c in col:
        nxt = []
        for row, new, prefix in partial:
            if c and prefix and not perm_only:
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
def _row_table(n: int, perm_only: bool) -> dict[tuple[int, ...], tuple[_Step, ...]]:
    """Every column prefix state of size n with its legal next rows, in
    canonical order; ``perm_only`` makes only the rows with no -1.

    The state before row i has sum i - 1; what a row adds to I, N and
    beta is :func:`stats._row_deltas`.
    """
    table: dict[tuple[int, ...], tuple[_Step, ...]] = {}
    # one object per distinct row or state: all tables for n <= 10 then
    # take about 6 MiB, not 18
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    todo = [(0,) * n]
    while todo:
        col = todo.pop()
        if col in table:
            continue
        i = 1 + sum(col)
        steps = []
        for row, new in _next_rows(col, perm_only):
            row, new = shared.setdefault(row, row), shared.setdefault(new, new)
            steps.append(_Step(row, new, *_row_deltas(i, col, row)))
            todo.append(new)
        table[col] = tuple(steps)
    return table


@functools.lru_cache(maxsize=None)
def _cover_table(n: int) -> dict[tuple[int, ...], tuple[tuple[tuple[tuple[int, int], ...], ...], ...]]:
    """The up covers inside every two-row path through the row table.

    ``_cover_table(n)[p][k1][k2]`` is for the path that takes step k1
    from state p and then step k2 from the state it reaches.  It lists
    (rank delta, cover type) for each column s, ascending, where adding
    [[-1, 1], [1, -1]] at columns s, s + 1 of the two rows gives two rows
    that are again steps of the table; the state after them is unchanged.
    A matrix's canonical index is the sum over its rows of
    off[state][k], the number of paths that leave the state by an
    earlier step, so the exchange moves the index by the change in those
    two terms alone: the rank delta.
    """
    table = _row_table(n, False)
    paths = {(1,) * n: 1}  # paths from each state to the last
    for col in sorted(table, key=sum, reverse=True)[1:]:
        paths[col] = sum(paths[step.new] for step in table[col])
    off = {
        col: list(itertools.accumulate((paths[step.new] for step in steps), initial=0))
        for col, steps in table.items()
    }
    at = {col: {step.row: k for k, step in enumerate(steps)} for col, steps in table.items()}
    cover = {}
    for p, steps in table.items():
        from_p = []
        for k1, first in enumerate(steps):
            q = first.new
            from_q = []
            for k2, second in enumerate(table[q]):
                found = []
                for j in range(n - 1):
                    x1 = at[p].get(_exchange(first.row, j, -1))
                    if x1 is None:
                        continue
                    qx = steps[x1].new
                    x2 = at[qx].get(_exchange(second.row, j, 1))
                    if x2 is None:
                        continue
                    delta = off[p][x1] + off[qx][x2] - off[p][k1] - off[q][k2]
                    block = first.row[j : j + 2] + second.row[j : j + 2]
                    found.append((delta, _TYPE_BY_LOWER_BLOCK[block].index))
                from_q.append(tuple(found))
            from_p.append(tuple(from_q))
        cover[p] = tuple(from_p)
    return cover


# the exponent of λ each row adds, in half-units, never negative: each -1
# and the 1 left of it add at least 1 to I (a 1 sits above the -1): ΔI >= ΔN
_KEYS: dict[str, Callable[[_Step], int]] = {
    "I": lambda s: 2 * s.d_inv,
    "H": lambda s: 2 * s.d_inv - s.d_minus,
    "beta": lambda s: 2 * s.d_beta,
}
_PAIRS = ("I:beta", "H:beta")


def _path_sums(n: int, perm_only: bool, key: Callable[[_Step], int]) -> dict[int, int]:
    """{exponent: number of matrices} over every path through the table,
    ``key`` giving each step's share of the exponent, >= 0.  Lists no
    matrix: each state carries its paths' polynomial as one int, x^e's
    coefficient in field e of ``width`` bytes; a step is a shift and an add."""
    table = _row_table(n, perm_only)
    # no carry: a coefficient counts paths into one state, each extends
    # to a distinct matrix, so it is at most |A_n| (n!) < 2^(8 * width)
    width = (math.factorial(n) if perm_only else count_formula(n)).bit_length() // 8 + 1
    layer = {(0,) * n: 1}
    for _ in range(n):
        nxt: dict[tuple[int, ...], int] = {}
        for col, poly in layer.items():
            for step in table[col]:
                nxt[step.new] = nxt.get(step.new, 0) + (poly << 8 * width * key(step))
        layer = nxt
    poly = layer[(1,) * n]
    data = poly.to_bytes((poly.bit_length() + 7) // 8, "little")
    fields = (int.from_bytes(data[k : k + width], "little") for k in range(0, len(data), width))
    return {e: c for e, c in enumerate(fields) if c}


def _check_size(n: int, over: str, limit_guard: Optional[int]) -> bool:
    """Refuse an unknown universe, a size that is not a positive int, or
    |A_n| (n! for permutations) above :func:`resolve_guard`; True for them."""
    if over not in ("asm", "perm"):
        raise AsmError(f"unknown universe {over!r}; expected 'asm' or 'perm'")
    _require_size(n)
    perm_only = over == "perm"
    what, size = ("n!", math.factorial(n)) if perm_only else (f"|A_{n}|", count_formula(n))
    guard = resolve_guard(limit_guard)
    if size > guard:
        raise TooLarge(
            f"{what} = {decimal.Decimal(size)} exceeds guard {guard}; "
            "raise it with --guard N or ASMLAT_GUARD"
        )
    return perm_only


def iter_asms(n: int) -> Iterator[Asm]:
    """Stream every ASM of size n, canonical order, no guard, by walking
    the row table depth first."""
    _require_size(n)
    table = _row_table(n, False)

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
    _check_size(n, "asm", limit_guard)
    return list(iter_asms(n))


def genfun_stat(
    n: int,
    stat: str,
    over: str = "asm",
    limit_guard: Optional[int] = None,
) -> HalfIntPolynomial:
    """Sum of λ^stat(A) over all ASMs (or permutation matrices) of size n.

    stat is one of "I", "H", "beta"; H produces half-integer exponents.
    Computed by the row-table DP, without listing the matrices.
    """
    if stat not in _KEYS:
        raise AsmError(f"unknown statistic {stat!r}; expected I, H or beta")
    return HalfIntPolynomial(_path_sums(n, _check_size(n, over, limit_guard), _KEYS[stat]))


def bivariate_genfun(
    n: int,
    pair: str = "I:beta",
    over: str = "asm",
    limit_guard: Optional[int] = None,
) -> BivariatePolynomial:
    """Sum of λ^s1 q^s2 over the chosen universe, by the row-table DP."""
    if pair not in _PAIRS:
        raise AsmError(f"unknown pair {pair!r}; expected one of {sorted(_PAIRS)}")
    perm_only = _check_size(n, over, limit_guard)
    # one exponent: s1's half-units times a stride above beta's top, C(n + 1, 3)
    first, stride = _KEYS[pair.split(":")[0]], math.comb(n + 1, 3) + 1
    coeffs = _path_sums(n, perm_only, lambda s: first(s) * stride + s.d_beta)
    return BivariatePolynomial({divmod(e, stride): c for e, c in coeffs.items()})


def signed_identity_check(n: int, limit_guard: Optional[int] = None) -> tuple[bool, HalfIntPolynomial, HalfIntPolynomial]:
    """Compare the signed rank sum over S_n with its product form: left,
    the sum of (-1)^I(w) q^beta(w), the permutation I:beta polynomial at
    λ = -1; right, the product over k < n of (1 - q^k)^(n - k).  Returns
    (equal, left, right)."""
    lhs = bivariate_genfun(n, "I:beta", "perm", limit_guard).specialize_first(-1)
    factors = (HalfIntPolynomial({0: 1, 2 * k: -1}, var="q") ** (n - k) for k in range(1, n))
    rhs = math.prod(factors, start=HalfIntPolynomial.one(var="q"))
    return lhs == rhs, lhs, rhs


@dataclass(frozen=True)
class HasseNode:
    matrix: Asm
    record: StatRecord
    join_irreducible: bool


@dataclass(frozen=True)
class HasseEdge:
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
        return "".join(self._dot_lines(highlight_ji))

    def _dot_lines(self, highlight_ji: bool) -> Iterator[str]:
        """The DOT text line by line, each with its newline, so a writer
        need not hold the whole text."""
        yield f"digraph asm_lattice_{self.n} {{\n  rankdir=BT;\n  node [shape=box];\n"
        for idx, node in enumerate(self.nodes):
            attrs = [f'label="{_node_label(node)}"']
            if highlight_ji and node.join_irreducible:
                attrs.append("style=filled")
            yield f"  a{idx} [{', '.join(attrs)}];\n"
        for e in self.edges:
            yield f'  a{e.lower} -> a{e.upper} [label="t{e.cover_type}"];\n'
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


def _node_label(node: HasseNode) -> str:
    """A permutation in one-line notation, as ``core.Permutation`` prints
    it; any other matrix row by row."""
    rows = node.matrix.entries
    if node.record.minus == 0:
        return ("," if len(rows) > 9 else "").join(str(row.index(1) + 1) for row in rows)
    return "|".join([" ".join(map(str, row)) for row in rows])


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
    _check_size(n, "asm", limit_guard)
    table, cover = _row_table(n, False), _cover_table(n)
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
