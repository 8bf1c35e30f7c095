import pytest

from asmlat import Permutation, core, enumerate_asms, from_permutation, io, validate

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
    """All matrices of sizes 1..5, enumerated once per test session."""
    return {n: enumerate_asms(n) for n in range(1, 6)}


def clear_row_memos():
    """Empty the row memos of core and io, as in a fresh process."""
    for memo in (core._ROWS, core._FIELDS, io._LINES):
        memo.clear()
