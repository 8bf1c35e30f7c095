import functools
import itertools
import random

import pytest

from asmlat import (
    Permutation,
    core,
    covers_up,
    from_corner_sum,
    from_permutation,
    identity,
    io,
    iter_asms,
    join,
    meet,
    validate,
)

# The running 4x4 example with two -1 entries: I=5, I*=3, N=2, H=4, beta=7.
EXAMPLE_A_ROWS = [
    [0, 0, 1, 0],
    [0, 1, -1, 1],
    [1, -1, 1, 0],
    [0, 1, 0, 0],
]

# The 3x3 matrix with a single -1, the unique non-permutation of size 3.
MIDDLE_3_ROWS = [
    [0, 1, 0],
    [1, -1, 1],
    [0, 1, 0],
]


@pytest.fixture
def example_a():
    return validate(EXAMPLE_A_ROWS)


@pytest.fixture
def example_b():
    return from_permutation(Permutation.from_images([3, 4, 1, 2]))


@pytest.fixture
def middle3():
    return validate(MIDDLE_3_ROWS)


@pytest.fixture(scope="session")
def pools():
    """All matrices of sizes 1..5, read from ``walked_asms``."""
    return {n: walked_asms(n) for n in range(1, 6)}


def clear_row_memos():
    """Empty the row memos of core and io, as in a fresh process."""
    for memo in (core._ROWS, io._LINES):
        memo.clear()


def _cover_walk(n, steps, rng):
    # a seeded walk up from the identity, one random up cover a step
    a = identity(n)
    for _ in range(steps):
        up = covers_up(a)
        if not up:
            break
        a = rng.choice(up).upper
    return a


def _site_walk(n, draws, rng):
    # a seeded walk up from the identity by its corner sums, c(i, j) =
    # min(i, j): each draw picks an inner position and lowers its sum by
    # one, an up cover, where the four unit steps around it stay in {0, 1}
    c = [[min(i, j) for j in range(n + 1)] for i in range(n + 1)]  # row and column 0 read 0
    for _ in range(draws):
        r, s = rng.randrange(1, n), rng.randrange(1, n)
        v = c[r][s] - 1
        if {v - c[r][s - 1], c[r][s + 1] - v, v - c[r - 1][s], c[r + 1][s] - v} <= {0, 1}:
            c[r][s] = v
    return from_corner_sum([row[1:] for row in c[1:]])


@functools.lru_cache(maxsize=None)
def walked_asms(n):
    """All of A_n for n <= 6; past that seeded walks up from the identity,
    each of a random length up to the longest chain: 300 walks by random
    up covers for n <= 10, and past that 12 walks by random positions
    whose corner sum can fall, each of up to 8 draws per step of the
    longest chain."""
    if n <= 6:
        return list(iter_asms(n))
    rng = random.Random(n)
    top = n * (n * n - 1) // 6  # beta of the reversal, the longest chain
    if n <= 10:
        return [_cover_walk(n, rng.randrange(top + 1), rng) for _ in range(300)]
    return [_site_walk(n, rng.randrange(8 * top + 1), rng) for _ in range(12)]


@functools.lru_cache(maxsize=None)
def joined_permutations(n):
    """Seeded random permutation matrices of size n, six of them (four
    past n = 255), then the join and the meet of each pair, most of which
    have -1 entries."""
    rng = random.Random(n)
    perms = []
    for _ in range(6 if n < 256 else 4):
        images = list(range(1, n + 1))
        rng.shuffle(images)
        perms.append(from_permutation(Permutation.from_images(images)))
    return perms + [f(x, y) for x, y in itertools.combinations(perms, 2) for f in (join, meet)]
