"""Exhaustive generation of all size-n alternating sign matrices.

Generation runs row by row.  The search state is the vector of column
prefix sums, each 0 or 1; a candidate row is any {-1, 0, 1} vector whose
running prefix sums stay in {0, 1}, whose total is 1, and which keeps all
column prefix sums in {0, 1}.  Matrices come out in row-major
lexicographic order (entry order -1 < 0 < 1), which is the package's
canonical order.

Also here: the closed-form count, generating polynomials of the
statistics by brute-force enumeration, the signed permutation identity,
and the full cover graph with DOT export.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .core import Asm, AsmError, iter_permutations, to_permutation
from .poset import covers_up
from .polynomials import BivariatePolynomial, HalfIntPolynomial
from .stats import (
    StatRecord,
    beta_corner,
    classical_beta,
    classical_inversions,
    stat_record,
    weak_inversion_twice,
    inversion_number,
)

DEFAULT_GUARD = 10**7


class TooLarge(AsmError):
    pass


def resolve_guard(limit_guard: Optional[int] = None) -> int:
    """The guard to apply: ``limit_guard`` if given, else ASMLAT_GUARD,
    else 10^7; a negative or non-integer guard is a domain error."""
    if limit_guard is not None:
        if limit_guard < 0:
            raise AsmError(f"guard {limit_guard} is negative")
        return limit_guard
    env = os.environ.get("ASMLAT_GUARD")
    if not env:
        return DEFAULT_GUARD
    try:
        guard = int(env)
    except ValueError:
        raise AsmError(f"ASMLAT_GUARD={env!r} is not an integer") from None
    if guard < 0:
        raise AsmError(f"ASMLAT_GUARD={guard} is negative")
    return guard


def _check_guard(what: str, predicted: int, limit_guard: Optional[int]) -> None:
    """Refuse a workload of predicted size above :func:`resolve_guard`."""
    guard = resolve_guard(limit_guard)
    if predicted > guard:
        raise TooLarge(
            f"{what} = {predicted} exceeds guard {guard}; "
            "raise it with --guard N or ASMLAT_GUARD"
        )


def count_formula(n: int) -> int:
    """The closed-form product for |A_n|, exact."""
    if n < 1:
        raise AsmError(f"size {n} must be positive")
    num = den = 1
    for i in range(n):
        num *= math.factorial(3 * i + 1)
        den *= math.factorial(n + i)
    # the product is an integer even though single factors are not
    assert num % den == 0
    return num // den


def _next_rows(col: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All legal next rows for the given column prefix-sum vector.

    Yields (row, new column vector) in ascending lexicographic row order.
    """
    n = len(col)
    row = [0] * n
    new = list(col)

    def rec(j: int, prefix: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        if j == n:
            if prefix == 1:
                yield tuple(row), tuple(new)
            return
        c = col[j]
        # options in entry order -1 < 0 < 1 for lexicographic output
        if c == 1 and prefix == 1:
            row[j], new[j] = -1, 0
            yield from rec(j + 1, 0)
            row[j], new[j] = 0, c
        yield from rec(j + 1, prefix)
        if c == 0 and prefix == 0:
            row[j], new[j] = 1, 1
            yield from rec(j + 1, 1)
            row[j], new[j] = 0, c
    return rec(0, 0)


def iter_asms(n: int) -> Iterator[Asm]:
    """Stream every ASM of size n, canonical order, no guard."""
    if n < 1:
        raise AsmError(f"size {n} must be positive")

    def rec(rows: list[tuple[int, ...]], col: tuple[int, ...]) -> Iterator[Asm]:
        if len(rows) == n:
            yield Asm(n, tuple(rows))
            return
        for row, new_col in _next_rows(col):
            rows.append(row)
            yield from rec(rows, new_col)
            rows.pop()
    return rec([], (0,) * n)


def enumerate_asms(n: int, limit_guard: Optional[int] = None) -> list[Asm]:
    """All ASMs of size n as a list, canonical order.

    Refuses to run when the predicted count exceeds the guard
    (``limit_guard`` argument, ASMLAT_GUARD env var, or 10^7).
    """
    _check_guard(f"|A_{n}|", count_formula(n), limit_guard)
    return list(iter_asms(n))


_STATS = {
    "I": lambda a: Fraction(inversion_number(a)),
    "H": lambda a: Fraction(weak_inversion_twice(a), 2),
    "beta": lambda a: Fraction(beta_corner(a)),
}


def genfun_stat(
    n: int,
    stat: str,
    over: str = "asm",
    limit_guard: Optional[int] = None,
) -> HalfIntPolynomial:
    """Sum of λ^stat(A) over all ASMs (or permutation matrices) of size n.

    stat is one of "I", "H", "beta".  Pure brute force over the
    enumeration; H produces half-integer exponents.
    """
    if stat not in _STATS:
        raise AsmError(f"unknown statistic {stat!r}; expected I, H or beta")
    value = _STATS[stat]
    out = HalfIntPolynomial.zero()
    for a in _universe(n, over, limit_guard):
        out.add_term(1, value(a))
    return out


def _universe(n: int, over: str, limit_guard: Optional[int]) -> Iterator[Asm]:
    if over == "asm":
        _check_guard(f"|A_{n}|", count_formula(n), limit_guard)
        return iter_asms(n)
    if over == "perm":
        _check_guard("n!", math.factorial(n), limit_guard)
        from .core import from_permutation

        return (from_permutation(w) for w in iter_permutations(n))
    raise AsmError(f"unknown universe {over!r}; expected 'asm' or 'perm'")


_PAIRS = {
    "I:beta": ("I", "beta"),
    "H:beta": ("H", "beta"),
}


def bivariate_genfun(
    n: int,
    pair: str = "I:beta",
    over: str = "asm",
    limit_guard: Optional[int] = None,
) -> BivariatePolynomial:
    """Sum of λ^s1 q^s2 over the chosen universe, by enumeration.

    This is the brute-force reference computation, nothing cleverer.
    """
    if pair not in _PAIRS:
        raise AsmError(f"unknown pair {pair!r}; expected one of {sorted(_PAIRS)}")
    s1, s2 = _PAIRS[pair]
    f1, f2 = _STATS[s1], _STATS[s2]
    out = BivariatePolynomial()
    for a in _universe(n, over, limit_guard):
        e2 = f2(a)
        out.add_term(1, f1(a), int(e2))
    return out


def signed_identity_check(n: int, limit_guard: Optional[int] = None) -> tuple[bool, HalfIntPolynomial, HalfIntPolynomial]:
    """Compare the signed rank sum over S_n with its product form.

    Left side: sum over permutations of (-1)^I(w) q^beta(w).
    Right side: product over k < n of (1 - q^k)^(n - k).
    Returns (equal, left, right).
    """
    _check_guard("n!", math.factorial(n), limit_guard)
    lhs = HalfIntPolynomial.zero(var="q")
    for w in iter_permutations(n):
        sign = -1 if classical_inversions(w.images) % 2 else 1
        lhs.add_term(sign, classical_beta(w.images))
    rhs = HalfIntPolynomial.one(var="q")
    for k in range(1, n):
        factor = HalfIntPolynomial({0: 1, 2 * k: -1}, var="q")
        rhs = rhs * factor ** (n - k)
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
        lines = [f"digraph asm_lattice_{self.n} {{", "  rankdir=BT;", "  node [shape=box];"]
        for idx, node in enumerate(self.nodes):
            attrs = [f'label="{_node_label(node.matrix)}"']
            if highlight_ji and node.join_irreducible:
                attrs.append("style=filled")
            lines.append(f"  a{idx} [{', '.join(attrs)}];")
        for e in self.edges:
            lines.append(f'  a{e.lower} -> a{e.upper} [label="t{e.cover_type}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

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


def _node_label(a: Asm) -> str:
    if a.is_permutation():
        return str(to_permutation(a))
    return "|".join(" ".join(str(v) for v in row) for row in a.entries)


def build_hasse(n: int, limit_guard: Optional[int] = None) -> HasseGraph:
    """Enumerate A_n and wire up every cover edge."""
    matrices = enumerate_asms(n, limit_guard)
    index = {a: i for i, a in enumerate(matrices)}
    # each edge is found once, from its lower end, so this counts lower covers
    lower_covers = [0] * len(matrices)
    edges = []
    for i, a in enumerate(matrices):
        for e in covers_up(a):
            j = index[e.upper]
            lower_covers[j] += 1
            edges.append(HasseEdge(i, j, e.cover_type))
    edges.sort(key=lambda e: (e.lower, e.upper))
    nodes = tuple(
        HasseNode(a, stat_record(a), join_irreducible=k == 1)
        for a, k in zip(matrices, lower_covers)
    )
    return HasseGraph(n, nodes, tuple(edges))
