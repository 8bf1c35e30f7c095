import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from asmlat import (
    Permutation,
    beta_corner,
    beta_row_weighted,
    beta_weighted,
    dual_inversion_number,
    from_permutation,
    identity,
    inversion_list,
    inversion_number,
    local_weak_contribution,
    minus_count,
    stat_record,
    validate,
    weak_inversion,
    weak_inversion_twice,
)
from asmlat.core import IndexOutOfRange
from asmlat.stats import StatRecord, classical_beta
from asmlat.verify import scanned_local_weak_contribution

from conftest import joined_permutations, walked_asms


# Quadruple-loop reference implementations, deliberately independent of the
# nonzero-pair code paths in the package.

def brute_inversions(a):
    n = a.n
    return sum(
        a.entry(j, k) * a.entry(i, l)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        for k in range(1, n + 1)
        for l in range(k + 1, n + 1)
    )


def brute_dual_inversions(a):
    n = a.n
    return sum(
        a.entry(i, k) * a.entry(j, l)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        for k in range(1, n + 1)
        for l in range(k + 1, n + 1)
    )


def brute_beta_col(a):
    n = a.n
    return sum(
        (l - k) * a.entry(j, k) * a.entry(i, l)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        for k in range(1, n + 1)
        for l in range(k + 1, n + 1)
    )


def brute_beta_row(a):
    n = a.n
    return sum(
        (j - i) * a.entry(j, k) * a.entry(i, l)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        for k in range(1, n + 1)
        for l in range(k + 1, n + 1)
    )


def test_inversion_number_example_a(example_a):
    assert inversion_number(example_a) == 5
    assert brute_inversions(example_a) == 5


def test_inversion_number_permutations(example_b):
    assert inversion_number(example_b) == 4
    assert inversion_number(from_permutation(Permutation.longest(4))) == 6
    assert inversion_number(identity(5)) == 0


def test_inversion_list_trivial():
    assert inversion_list(identity(4)) == []
    lst = inversion_list(from_permutation(Permutation.from_images([2, 1])))
    assert len(lst) == 1
    t = lst[0]
    assert (t.i, t.j, t.k, t.l, t.sign, t.weight) == (1, 2, 1, 2, 1, 1)


def test_inversion_list_example_a(example_a):
    lst = inversion_list(example_a)
    assert sum(t.sign for t in lst) == 5
    assert sum(t.sign * t.weight for t in lst) == 7
    assert lst == sorted(lst, key=lambda t: (t.i, t.j, t.k, t.l))
    for t in lst:
        assert t.sign == example_a.entry(t.j, t.k) * example_a.entry(t.i, t.l) != 0
        assert t.weight == t.l - t.k


def brute_inversion_quadruples(a):
    n = a.n
    return [
        (i, j, k, l, a.entry(j, k) * a.entry(i, l), l - k)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        for k in range(1, n + 1)
        for l in range(k + 1, n + 1)
        if a.entry(j, k) * a.entry(i, l)
    ]


def test_pair_scans_match_four_index_loops(pools):
    # each scan visits an unordered pair of nonzero entries once
    for n in range(1, 6):
        for a in pools[n]:
            assert inversion_list(a) == brute_inversion_quadruples(a)
            assert dual_inversion_number(a) == brute_dual_inversions(a)


def test_dual_inversion_number(example_a):
    assert dual_inversion_number(example_a) == 3
    assert brute_dual_inversions(example_a) == 3
    assert dual_inversion_number(identity(4)) == 6
    assert dual_inversion_number(from_permutation(Permutation.longest(5))) == 0


def test_beta_three_ways(example_a, example_b):
    for a, want in ((example_a, 7), (example_b, 8)):
        assert beta_weighted(a) == want
        assert beta_row_weighted(a) == want
        assert beta_corner(a) == want
    assert beta_weighted(identity(6)) == 0
    assert beta_corner(identity(6)) == 0
    assert beta_row_weighted(from_permutation(Permutation.longest(4))) == 10


def test_beta_matches_brute_force(pools):
    for a in pools[3] + pools[4]:
        assert beta_weighted(a) == brute_beta_col(a)
        assert beta_row_weighted(a) == brute_beta_row(a)
        assert inversion_number(a) == brute_inversions(a)
        assert dual_inversion_number(a) == brute_dual_inversions(a)


def test_weak_inversion(example_a, middle3):
    assert weak_inversion(example_a) == 4
    assert weak_inversion(middle3) == Fraction(3, 2)
    a = validate([[0, 1, 0, 0], [1, -1, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]])
    assert weak_inversion(a) == Fraction(7, 2)
    assert weak_inversion_twice(a) == 7


def test_local_weak_contribution(example_a):
    n = example_a.n
    total = sum(
        local_weak_contribution(example_a, p, q)
        for p in range(1, n + 1)
        for q in range(1, n + 1)
    )
    assert total == weak_inversion(example_a) == 4
    assert local_weak_contribution(example_a, 1, 1) == 0  # zero entry
    for p in range(1, 5):
        assert local_weak_contribution(identity(4), p, p) == 0
    with pytest.raises(IndexOutOfRange):
        local_weak_contribution(example_a, 0, 1)
    with pytest.raises(IndexOutOfRange):
        local_weak_contribution(example_a, 1, 5)


def test_local_weak_contribution_matches_scan():
    # the corner-sum reading against the entry scan at every position:
    # all of A_n for n <= 5, then the joined permutations at n = 8..20
    matrices = [a for n in range(1, 6) for a in walked_asms(n)]
    matrices += [a for n in (8, 9, 10, 13, 16, 20) for a in joined_permutations(n)]
    assert sum(minus_count(a) > 0 for a in matrices if a.n >= 8) > 30
    for a in matrices:
        for p in range(1, a.n + 1):
            for q in range(1, a.n + 1):
                got = local_weak_contribution(a, p, q)
                assert got == scanned_local_weak_contribution(a, p, q), (a, p, q)


def test_stat_record(example_a, example_b):
    rec = stat_record(example_a)
    assert (rec.inv, rec.dual_inv, rec.minus, rec.weak, rec.beta) == (5, 3, 2, 4, 7)
    assert rec.to_json_dict() == {"I": 5, "Istar": 3, "N": 2, "H2": 8, "beta": 7}
    assert stat_record(identity(4)).to_json_dict() == {
        "I": 0, "Istar": 6, "N": 0, "H2": 0, "beta": 0,
    }
    rec_b = stat_record(example_b)
    assert (rec_b.inv, rec_b.dual_inv, rec_b.minus, rec_b.weak, rec_b.beta) == (4, 2, 0, 4, 8)


@pytest.mark.parametrize("n", [8, 10, 20, 30])
def test_stat_record_matches_the_definitions_past_the_suite(n):
    # the pass over the row records against the definitional pair sums and
    # beta_corner, past the sizes stat-record-vs-definitions reaches (6)
    # and past 8 and 16 columns
    universe = walked_asms(n)
    assert sum(minus_count(a) for a in universe) >= len(universe)
    for a in universe:
        inv, minus = inversion_number(a), minus_count(a)
        want = StatRecord(inv, dual_inversion_number(a), minus, 2 * inv - minus, beta_corner(a))
        assert stat_record(a) == want


@given(st.permutations(list(range(1, 9))))
def test_permutation_statistics_match_classical(images):
    a = from_permutation(Permutation.from_images(images))
    n = len(images)
    classical = sum(images[i] > images[j] for i in range(n) for j in range(i + 1, n))
    assert inversion_number(a) == classical
    assert beta_weighted(a) == classical_beta(tuple(images))
    assert minus_count(a) == 0


def test_beta_formulas_thousand_random_permutations():
    rng = random.Random(20240817)
    for _ in range(1000):
        n = rng.randint(1, 50)
        images = list(range(1, n + 1))
        rng.shuffle(images)
        a = from_permutation(Permutation.from_images(images))
        b1, b2, b3 = beta_weighted(a), beta_row_weighted(a), beta_corner(a)
        assert b1 == b2 == b3 == classical_beta(tuple(images))
