import functools
import itertools
import math
import random

import pytest

from asmlat import (
    Asm,
    Ordering,
    Permutation,
    beta_corner,
    beta_poset_oracle,
    classify_cover_type,
    compare,
    corner_sum,
    covers_down,
    covers_up,
    enumerate_bigrassmannians,
    from_corner_sum,
    from_permutation,
    identity,
    is_bigrassmannian,
    is_join_irreducible,
    join,
    meet,
    minus_count,
    rank_by_chain,
    to_permutation,
    try_cover,
)
from asmlat import core
from asmlat.core import SizeMismatch, iter_permutations
from asmlat.poset import COVER_TYPES, NotAnExchangeBlock, leq
from asmlat.verify import bigrassmannians_below, dominance_compare, scanned_cover_positions, scanned_try_cover

from conftest import joined_permutations, walked_asms


def perm(*images):
    return from_permutation(Permutation.from_images(list(images)))


def test_compare_bottom(pools):
    for a in pools[4]:
        assert compare(identity(4), a) in (Ordering.LESS, Ordering.EQUAL)


def test_compare_example_pair(example_a, example_b):
    assert compare(example_a, example_b) is Ordering.LESS
    assert compare(example_b, example_a) is Ordering.GREATER
    assert compare(example_a, example_a) is Ordering.EQUAL


def test_compare_incomparable():
    assert compare(perm(1, 3, 4, 2), perm(1, 4, 2, 3)) is Ordering.INCOMPARABLE


@pytest.mark.parametrize("pair_function", [compare, leq, try_cover, join, meet], ids=lambda f: f.__name__)
def test_compare_size_mismatch(pair_function):
    with pytest.raises(SizeMismatch):
        pair_function(identity(3), identity(4))


def test_try_cover_golden(example_a, example_b):
    e = try_cover(example_a, example_b)
    assert e is not None
    assert (e.r, e.s, e.cover_type) == (2, 2, 4)
    assert (e.d_inv, e.d_minus, e.d_weak2) == (-1, -2, 0)
    assert e.to_json_dict() == {
        "r": 2, "s": 2, "type": 4, "dI": -1, "dN2x": -2, "dH2x": 0,
    }


def test_try_cover_simplest():
    e = try_cover(identity(2), perm(2, 1))
    assert (e.r, e.s, e.cover_type) == (1, 1, 1)


def test_try_cover_rejects_rank_gap():
    assert try_cover(identity(3), perm(3, 2, 1)) is None
    assert try_cover(perm(2, 1, 3), identity(3)) is None  # wrong direction


def test_covers_up_identity3():
    edges = covers_up(identity(3))
    assert len(edges) == 2
    uppers = {to_permutation(e.upper).images for e in edges}
    assert uppers == {(1, 3, 2), (2, 1, 3)}


def test_covers_up_top():
    assert covers_up(from_permutation(Permutation.longest(4))) == []


def test_covers_middle3(middle3):
    up = covers_up(middle3)
    assert {to_permutation(e.upper).images for e in up} == {(2, 3, 1), (3, 1, 2)}
    down = covers_down(middle3)
    assert {to_permutation(e.lower).images for e in down} == {(1, 3, 2), (2, 1, 3)}


def test_covers_down_example(example_a, example_b):
    assert covers_down(identity(5)) == []
    lowers = [e.lower for e in covers_down(example_b)]
    assert example_a in lowers


def test_classify_cover_type_goldens():
    t1 = classify_cover_type([[1, 0], [0, 1]], [[0, 1], [1, 0]])
    assert (t1.index, t1.d_inv, t1.d_weak2) == (1, 1, 2)
    t4 = classify_cover_type([[1, -1], [-1, 1]], [[0, 0], [0, 0]])
    assert (t4.index, t4.d_inv, t4.d_weak2) == (4, -1, 0)
    t16 = classify_cover_type([[0, -1], [-1, 0]], [[-1, 0], [0, -1]])
    assert (t16.index, t16.d_inv, t16.d_weak2) == (16, -1, -2)


def test_classify_cover_type_rejects():
    with pytest.raises(NotAnExchangeBlock):
        classify_cover_type([[1, 0], [0, 1]], [[1, 0], [0, 1]])
    with pytest.raises(NotAnExchangeBlock):
        classify_cover_type([[2, 0], [0, 2]], [[1, 1], [1, 1]])
    # a ragged or 1x4 block is not 2x2, though it has four entries
    with pytest.raises(NotAnExchangeBlock, match="2x2"):
        classify_cover_type([[1, 0, 0], [1]], [[0, 1, 1], [0]])
    with pytest.raises(NotAnExchangeBlock, match="2x2"):
        classify_cover_type([[1, 0, 0, 1]], [[0, 1, 1, 0]])
    # entries are not coerced: int(1.9) and int(True) would read as 1
    with pytest.raises(NotAnExchangeBlock, match="not an integer"):
        classify_cover_type([[1.9, 0], [0, 1]], [[0, 1], [1, 0]])
    with pytest.raises(NotAnExchangeBlock, match="not an integer"):
        classify_cover_type([[True, 0], [0, 1]], [[0, 1], [1, 0]])


def test_cover_table_consistency():
    # within each table row: 2*dI - dN = 2*dH, the deltas stay in range,
    # and the starred involution is an involution
    by_index = {t.index: t for t in COVER_TYPES}
    assert sorted(by_index) == list(range(1, 17))
    for t in COVER_TYPES:
        assert 2 * t.d_inv - t.d_minus == t.d_weak2
        assert t.d_inv in (-1, 0, 1)
        assert t.d_weak2 in (-2, -1, 0, 1, 2)
        assert by_index[t.star].star == t.index


def test_join_meet_examples(middle3):
    a, b = perm(1, 3, 2), perm(2, 1, 3)
    assert join(a, b) == middle3
    assert meet(middle3, middle3) == middle3
    for x in (a, b, middle3):
        assert join(identity(3), x) == x
        assert meet(identity(3), x) == identity(3)


def test_join_meet_are_bounds(pools):
    rng = random.Random(7)
    universe = pools[4]
    for _ in range(300):
        a, b = rng.choice(universe), rng.choice(universe)
        j, m = join(a, b), meet(a, b)
        assert leq(a, j) and leq(b, j)
        assert leq(m, a) and leq(m, b)
        # least/greatest among the bounds
        for c in (rng.choice(universe) for _ in range(10)):
            if leq(a, c) and leq(b, c):
                assert leq(j, c)
            if leq(c, a) and leq(c, b):
                assert leq(c, m)


# sizes past A_6, with order-code fields of 1, 2, 3 and 33 bytes
WIDE_SIZES = (7, 8, 9, 15, 16, 17, 260)


@functools.lru_cache(maxsize=None)
def _join_meet_sweep(n):
    # the pairs both join/meet tests below check, with their join and meet,
    # built once per n: every pair for n <= 4, 10,000 seeded draws for 5 and
    # 6, and above that, where nothing is enumerated, pairs from the joined
    # permutations
    universe = walked_asms(n) if n <= 6 else joined_permutations(n)
    if n <= 4:
        pairs = itertools.product(universe, repeat=2)
    else:
        rng = random.Random(n)
        draws = 10_000 if n <= 6 else 100 if n < 256 else 4
        pairs = ((rng.choice(universe), rng.choice(universe)) for _ in range(draws))
    return [(a, b, join(a, b), meet(a, b)) for a, b in pairs]


@pytest.mark.parametrize("n", [*range(1, 7), *WIDE_SIZES])
def test_join_meet_match_checked_rebuild(n):
    # join/meet skip the checks that from_corner_sum makes on the same table
    for a, b, j, m in _join_meet_sweep(n):
        ca, cb = corner_sum(a).sums, corner_sum(b).sums
        assert j == from_corner_sum([list(map(min, x, y)) for x, y in zip(ca, cb)])
        assert m == from_corner_sum([list(map(max, x, y)) for x, y in zip(ca, cb)])


@pytest.mark.parametrize("n", [*range(1, 7), *WIDE_SIZES])
def test_join_meet_memo_matches_fresh_corner_sums(n):
    # join/meet decode their entries from the OR/AND of the codes and keep
    # it as the result's order code; the corner-sum table is built on first
    # use.  A fresh instance with the same entries, and no memos, must agree
    # on both
    for _, _, j, m in _join_meet_sweep(n):
        for x in (j, m):
            assert corner_sum(x) == corner_sum(Asm(x.n, x.entries))
            assert core._code(x) == core._code(Asm(x.n, x.entries))


def test_corner_sum_memo_is_not_a_field(example_a, example_b):
    for x in (join(example_a, example_b), meet(example_a, example_b), example_a):
        corner_sum(x)
        fresh = Asm(x.n, x.entries)
        assert vars(x) != vars(fresh)  # x holds the memo, fresh does not
        assert x == fresh and hash(x) == hash(fresh)
        assert repr(x) == repr(fresh)
        assert x.to_json_dict() == fresh.to_json_dict()


def test_is_bigrassmannian():
    assert is_bigrassmannian(Permutation.from_images([3, 4, 1, 2]))
    assert not is_bigrassmannian(Permutation.identity(4))
    assert not is_bigrassmannian(Permutation.from_images([3, 2, 1]))


def test_enumerate_bigrassmannians():
    assert len(enumerate_bigrassmannians(3)) == 4
    assert len(enumerate_bigrassmannians(4)) == 10
    assert enumerate_bigrassmannians(1) == []


def test_beta_poset_oracle(example_a, example_b):
    assert beta_poset_oracle(example_a) == 7
    assert {str(w) for w in bigrassmannians_below(example_a)} == {
        "1342", "1423", "3124", "2314", "1243", "1324", "2134",
    }
    assert beta_poset_oracle(example_b) == 8
    assert beta_poset_oracle(identity(4)) == 0


@pytest.mark.parametrize("n", range(1, 6))
def test_order_code_bits_are_the_bigrassmannians_below(n):
    # each bit of code(A) that the identity's code lacks is one
    # bigrassmannian w <= A: the bit at level t of field (r, s) is the
    # block swap 1..a, b+1..c, a+1..b, c+1..n with (a, b, c) = (t, s,
    # r - t + s), and there are beta(A) of them
    f, bottom = core._field_bits(n), core._code(identity(n))
    bigrassmannians = [from_permutation(w) for w in enumerate_bigrassmannians(n)]
    for a in walked_asms(n):
        found, bits = [], core._code(a) & ~bottom
        while bits:
            bit = (bits & -bits).bit_length() - 1
            bits ^= 1 << bit
            (r, s), t = core._field_position(n, bit), bit % f
            found.append(perm(*range(1, t + 1), *range(s + 1, r + s - t + 1), *range(t + 1, s + 1),
                              *range(r + s - t + 1, n + 1)))
        below = {m for m in bigrassmannians if dominance_compare(m, a) in (Ordering.LESS, Ordering.EQUAL)}
        assert len(found) == len(set(found)) == beta_corner(a)
        assert set(found) == below


@pytest.mark.parametrize("n", range(1, 6))
def test_each_matrix_is_the_join_below_and_the_meet_above_it_of_permutations(n):
    permutations = [from_permutation(w) for w in iter_permutations(n)]
    for a in walked_asms(n):
        assert functools.reduce(join, [w for w in permutations if leq(w, a)]) == a
        assert functools.reduce(meet, [w for w in permutations if leq(a, w)]) == a


def test_is_join_irreducible(middle3, pools):
    assert not is_join_irreducible(middle3)
    assert is_join_irreducible(perm(1, 3, 2))
    assert sum(1 for a in pools[4] if is_join_irreducible(a)) == 10


def _covers_match_the_scan(universe):
    """The exact guard of the exchange rule past n = 6, where the
    registry's cover-positions suite stops: each cover's position, in
    order, against the corner-sum walk, each edge against the corner-sum cover test and
    try_cover both ways, and join-irreducibility against the lower
    positions counted.  Returns the up edges and the down edges found."""
    held = {a: a for a in universe}  # an end read from here keeps its memos
    found = {True: set(), False: set()}
    for a in universe:
        for up, cover in ((True, covers_up), (False, covers_down)):
            edges, positions = cover(a), scanned_cover_positions(a, up)
            assert [(e.r, e.s) for e in edges] == positions
            found[up].update(edges)
        assert is_join_irreducible(a) == (len(positions) == 1)  # the lower ones, scanned last
    for e in found[True] | found[False]:
        lower, upper = held.get(e.lower, e.lower), held.get(e.upper, e.upper)
        assert scanned_try_cover(lower, upper) == e == try_cover(lower, upper)
        assert try_cover(upper, lower) is None
    return found[True], found[False]


@pytest.mark.parametrize("n", range(1, 7))
def test_covers_match_brute_force(n):
    # the covers against verify's scan of every position, on all of A_n,
    # where each edge is found once from either end
    up, down = _covers_match_the_scan(walked_asms(n))
    assert up == down


@pytest.mark.parametrize("n", [8, 10, 20, 30])
def test_cover_mask_rule_matches_the_corner_sum_walk(n):
    # the same past the sizes enumerated, on walks with -1 entries, past
    # 8 and 16 columns
    universe = walked_asms(n)
    assert sum(minus_count(a) for a in universe) >= len(universe)
    _covers_match_the_scan(universe)


@pytest.mark.parametrize("n", [*range(1, 7), 8, 10])
def test_is_join_irreducible_counts_lower_covers(n):
    # the position count, stopped at the second, agrees with the edges
    for a in walked_asms(n):
        assert is_join_irreducible(a) == (len(covers_down(a)) == 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_join_irreducible_count_is_binomial(n):
    # the join-irreducibles are the C(n+1, 3) bigrassmannians
    assert sum(map(is_join_irreducible, walked_asms(n))) == math.comb(n + 1, 3)


@pytest.mark.parametrize("n", range(1, 5))
def test_join_meet_of_comparable_pair_is_an_operand(n):
    # a <= b: the join is b itself and the meet a itself, not rebuilt
    universe = walked_asms(n)
    for a, b in itertools.product(universe, repeat=2):
        if leq(a, b):
            assert join(a, b) is b and join(b, a) is b
            assert meet(a, b) is a and meet(b, a) is a


def test_rank_by_chain(example_a):
    assert rank_by_chain(identity(5)) == 0
    assert rank_by_chain(example_a) == 7
    assert rank_by_chain(from_permutation(Permutation.longest(4))) == 10


def test_rank_by_chain_matches_beta(pools):
    for a in pools[4]:
        assert rank_by_chain(a) == beta_corner(a)
