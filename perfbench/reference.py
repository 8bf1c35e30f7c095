"""Independent reference answers for the benchmark's correctness gates.

Nothing here imports asmlat.  Random matrices come from local moves on
corner-sum tables, and every answer is computed from the definitions, so
a defect shared by asmlat and its own tests cannot pass the gates.
Matrices are tuples of row tuples; coordinates in results are 1-based.
"""

from __future__ import annotations

import math


def corner_sums(rows) -> list[list[int]]:
    """(n+1) x (n+1) prefix-sum table with a zero first row and column."""
    n = len(rows)
    c = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        acc = 0
        for j in range(1, n + 1):
            acc += rows[i - 1][j - 1]
            c[i][j] = c[i - 1][j] + acc
    return c


def from_corner_sums(c) -> tuple[tuple[int, ...], ...]:
    n = len(c) - 1
    return tuple(
        tuple(c[i][j] - c[i - 1][j] - c[i][j - 1] + c[i - 1][j - 1] for j in range(1, n + 1))
        for i in range(1, n + 1)
    )


def _steps_ok(c, r: int, s: int, v: int) -> bool:
    """Would setting c[r][s] = v keep all four neighbouring steps in {0, 1}?"""
    return (
        v - c[r][s - 1] in (0, 1)
        and c[r][s + 1] - v in (0, 1)
        and v - c[r - 1][s] in (0, 1)
        and c[r + 1][s] - v in (0, 1)
    )


def random_asm(n: int, rng) -> tuple[tuple[int, ...], ...]:
    """A random n x n ASM: a random permutation moved by 2n^2 local flips."""
    perm = list(range(n))
    rng.shuffle(perm)
    c = corner_sums([[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)])
    rand = rng.random
    for _ in range(2 * n * n if n > 1 else 0):
        r, s = 1 + int(rand() * (n - 1)), 1 + int(rand() * (n - 1))
        v = c[r][s] + (1 if rand() < 0.5 else -1)
        if _steps_ok(c, r, s, v):
            c[r][s] = v
    return from_corner_sums(c)


def is_asm(rows) -> bool:
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        return False
    cols = [0] * n
    for row in rows:
        acc = 0
        for j, v in enumerate(row):
            if v not in (-1, 0, 1):
                return False
            acc += v
            cols[j] += v
            if acc not in (0, 1) or cols[j] not in (0, 1):
                return False
        if acc != 1:
            return False
    return all(x == 1 for x in cols)


def _nonzeros(rows):
    return [(i, j, v) for i, row in enumerate(rows, 1) for j, v in enumerate(row, 1) if v]


def inversions(rows) -> int:
    """I: sum of a_jk * a_il over i < j, k < l."""
    nz = _nonzeros(rows)
    return sum(v1 * v2 for (j, k, v1) in nz for (i, l, v2) in nz if i < j and k < l)


def stat_record(rows) -> dict:
    """The StatRecord JSON schema: I, I*, N, 2H and beta."""
    nz = _nonzeros(rows)
    inv = inversions(rows)
    dual = sum(v1 * v2 for (i, k, v1) in nz for (j, l, v2) in nz if i < j and k < l)
    minus = sum(1 for (_, _, v) in nz if v < 0)
    # beta as the column-weighted inversion sum, not the corner formula asmlat uses
    beta = sum((l - k) * v1 * v2 for (j, k, v1) in nz for (i, l, v2) in nz if i < j and k < l)
    return {"I": inv, "Istar": dual, "N": minus, "H2": 2 * inv - minus, "beta": beta}


def covers(rows, up: bool) -> list[tuple]:
    """Cover edges in (r, s) scan order, as (edge JSON dict, lower, upper).

    Going up from A lowers the single corner sum c(r, s) by one; the move
    exists iff the four neighbouring steps stay in {0, 1}.
    """
    n = len(rows)
    c = corner_sums(rows)
    out = []
    for r in range(1, n):
        for s in range(1, n):
            old = c[r][s]
            v = old - 1 if up else old + 1
            if not _steps_ok(c, r, s, v):
                continue
            c[r][s] = v
            other = from_corner_sums(c)
            c[r][s] = old
            lower, upper = (rows, other) if up else (other, rows)
            a, b, d, e = lower[r - 1][s - 1], lower[r - 1][s], lower[r][s - 1], lower[r][s]
            cover_type = 1 - b - 2 * d + 4 * (1 - e) + 8 * (1 - a)
            d_inv = inversions(upper) - inversions(lower)
            d_minus = sum(x < 0 for row in upper for x in row) - sum(x < 0 for row in lower for x in row)
            edge = {"r": r, "s": s, "type": cover_type, "dI": d_inv,
                    "dN2x": d_minus, "dH2x": 2 * d_inv - d_minus}
            out.append((edge, lower, upper))
    return out


def compare(x, y) -> str:
    """The Ordering value: x < y iff x's corner sums dominate y's."""
    cx, cy = corner_sums(x), corner_sums(y)
    x_below = any(p > q for rx, ry in zip(cx, cy) for p, q in zip(rx, ry))
    y_below = any(p < q for rx, ry in zip(cx, cy) for p, q in zip(rx, ry))
    if x_below and y_below:
        return "incomparable"
    return "less" if x_below else "greater" if y_below else "equal"


def join(x, y):
    cx, cy = corner_sums(x), corner_sums(y)
    return from_corner_sums([[min(p, q) for p, q in zip(rx, ry)] for rx, ry in zip(cx, cy)])


def meet(x, y):
    cx, cy = corner_sums(x), corner_sums(y)
    return from_corner_sums([[max(p, q) for p, q in zip(rx, ry)] for rx, ry in zip(cx, cy)])


def count_asms(n: int) -> int:
    """|A_n| = prod_{i<n} (3i+1)! / (n+i)!."""
    num = math.prod(math.factorial(3 * i + 1) for i in range(n))
    den = math.prod(math.factorial(n + i) for i in range(n))
    return num // den


def coefficient_sum(printed: str) -> int:
    """Value at 1 of a polynomial in asmlat's printed form, e.g. "1 - 2*q + q^3"."""
    total, sign = 0, 1
    for tok in printed.split():
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -1, tok[1:]
        head = tok.split("*", 1)[0]
        total += sign * (int(head) if head.isdigit() else 1)
    return total
