"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
all); every comparison is exact, no tolerances anywhere.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from asmlat import (
    Ordering,
    Permutation,
    beta_corner,
    beta_poset_oracle,
    beta_row_weighted,
    beta_weighted,
    compare,
    count_formula,
    covers_up,
    dual_inversion_number,
    enumerate_bigrassmannians,
    from_permutation,
    genfun_stat,
    identity,
    inversion_number,
    is_join_irreducible,
    iter_asms,
    join,
    meet,
    minus_count,
    signed_identity_check,
    try_cover,
    validate,
    weak_inversion,
    weak_inversion_twice,
)
from asmlat.enumeration import bfs_cover_closure
from asmlat.poset import COVER_TYPES, bigrassmannians_below, leq

from conftest import EXAMPLE_A_ROWS


@pytest.fixture(scope="module")
def asms():
    return {n: list(iter_asms(n)) for n in range(1, 7)}


def _report(name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{name}{tail}"


def test_criterion_1_counting(asms):
    expected = [1, 2, 7, 42, 429, 7436, 218348]
    ok = [count_formula(n) for n in range(1, 8)] == expected
    ok = ok and all(len(asms[n]) == expected[n - 1] for n in range(1, 7))
    start = time.monotonic()
    n7 = sum(1 for _ in iter_asms(7))
    elapsed = time.monotonic() - start
    ok = ok and n7 == 218348 and elapsed < 60.0
    _report("1-counting", ok, f"n=7 in {elapsed:.1f}s")


def test_criterion_2_beta_three_way(asms):
    ok = True
    for n in range(1, 6):
        for a in asms[n]:
            b = beta_corner(a)
            ok = ok and b == beta_weighted(a) == beta_row_weighted(a)
    for n in range(1, 5):
        for a in asms[n]:
            ok = ok and beta_poset_oracle(a) == beta_corner(a)
    _report("2-beta-three-way", ok, "formulas n<=5, join-irreducible count n<=4")


def test_criterion_3_golden_examples():
    a = validate(EXAMPLE_A_ROWS)
    b = from_permutation(Permutation.from_images([3, 4, 1, 2]))
    ok = inversion_number(a) == 5 and beta_corner(a) == 7
    ok = ok and {str(w) for w in bigrassmannians_below(a)} == {
        "1342", "1423", "3124", "2314", "1243", "1324", "2134",
    }
    ok = ok and inversion_number(b) == 4 and beta_corner(b) == 8
    edge = try_cover(a, b)
    ok = ok and edge is not None and (edge.r, edge.s, edge.cover_type) == (2, 2, 4)
    _report("3-golden-examples", ok)


def test_criterion_4_duality_identity(asms):
    ok = True
    for n in range(1, 7):
        target = n * (n - 1) // 2
        for a in asms[n]:
            got = inversion_number(a) + dual_inversion_number(a) - minus_count(a)
            ok = ok and got == target
    _report("4-duality-identity", ok, "exhaustive n<=6")


def test_criterion_5_cover_deltas(asms):
    by_index = {t.index: t for t in COVER_TYPES}
    ok = True
    edges = 0
    for n in range(1, 6):
        for a in asms[n]:
            for e in covers_up(a):
                edges += 1
                d_inv = inversion_number(e.upper) - inversion_number(e.lower)
                d_weak2 = weak_inversion_twice(e.upper) - weak_inversion_twice(e.lower)
                d_minus = minus_count(e.upper) - minus_count(e.lower)
                row = by_index[e.cover_type]
                ok = ok and d_inv in (-1, 0, 1)
                ok = ok and d_weak2 in (-2, -1, 0, 1, 2)
                ok = ok and beta_corner(e.upper) - beta_corner(e.lower) == 1
                ok = ok and (d_inv, d_minus, d_weak2) == (row.d_inv, row.d_minus, row.d_weak2)
    _report("5-cover-deltas", ok, f"{edges} edges, n<=5")


def test_criterion_6_generating_polynomials(asms):
    ok = str(genfun_stat(3, "I")) == "1 + 2*λ + 3*λ^2 + λ^3"
    ok = ok and str(genfun_stat(3, "H")) == "1 + 2*λ + λ^3/2 + 2*λ^2 + λ^3"
    ok = ok and str(genfun_stat(4, "H")) == (
        "1 + 3*λ + 2*λ^3/2 + 6*λ^2 + 6*λ^5/2 + 6*λ^3 + 6*λ^7/2"
        " + 6*λ^4 + 2*λ^9/2 + 3*λ^5 + λ^6"
    )
    for n in range(1, 7):
        gh = genfun_stat(n, "H")
        ok = ok and gh.is_monic() and gh.is_palindromic()
        ok = ok and gh.degree2() == n * (n - 1)
    _report("6-generating-polynomials", ok)


def test_criterion_7_signed_identity():
    ok = all(signed_identity_check(n)[0] for n in range(1, 7))
    _report("7-signed-identity", ok, "n<=6, exact polynomial equality")


def test_criterion_8_max_weak_inversion(asms):
    ok = True
    for n in range(1, 6):
        top = Fraction(n * (n - 1), 2)
        w0 = from_permutation(Permutation.longest(n))
        winners = [a for a in asms[n] if weak_inversion(a) == top]
        ok = ok and winners == [w0]
        ok = ok and max(weak_inversion(a) for a in asms[n]) == top
        ok = ok and all(weak_inversion(a) >= 0 for a in asms[n])
    _report("8-max-weak-inversion", ok, "exhaustive n<=5")


def test_criterion_9_structural_oracles(asms):
    ok = True
    # local cover criterion vs generic no-intermediate oracle
    for n in range(1, 5):
        universe = asms[n]
        for a, b in itertools.product(universe, universe):
            local = try_cover(a, b) is not None
            generic = compare(a, b) is Ordering.LESS and not any(
                compare(a, c) is Ordering.LESS and compare(c, b) is Ordering.LESS
                for c in universe
            )
            ok = ok and local == generic
    # cover closure reaches everything
    for n in range(1, 6):
        ok = ok and bfs_cover_closure(n) == sorted(asms[n], key=lambda a: a.entries)
    # join-irreducibles are exactly the bigrassmannian permutations
    expected_counts = {3: 4, 4: 10}
    for n in range(1, 6):
        ji = {a for a in asms[n] if is_join_irreducible(a)}
        bg = {from_permutation(w) for w in enumerate_bigrassmannians(n)}
        ok = ok and ji == bg
        if n in expected_counts:
            ok = ok and len(ji) == expected_counts[n]
    _report("9-structural-oracles", ok)


def test_criterion_10_lattice_laws(asms):
    ok = True
    for a, b, c in itertools.product(asms[3], repeat=3):
        ok = ok and _laws_hold(a, b, c)
    rng = random.Random(421)
    for _ in range(10_000):
        a, b, c = (rng.choice(asms[4]) for _ in range(3))
        ok = ok and _laws_hold(a, b, c)
    _report("10-lattice-laws", ok, "all of size 3 plus 10^4 random size-4 triples")


def _laws_hold(a, b, c):
    j_ab, m_ab = join(a, b), meet(a, b)
    # join/meet rebuild their result from a corner sum table through
    # validate, so the results are ASMs
    if meet(a, join(b, c)) != join(meet(a, b), meet(a, c)):
        return False
    if join(a, meet(b, c)) != meet(j_ab, join(a, c)):
        return False
    if join(a, m_ab) != a or meet(a, j_ab) != a:
        return False
    if not (leq(a, j_ab) and leq(b, j_ab) and leq(m_ab, a) and leq(m_ab, b)):
        return False
    return True
