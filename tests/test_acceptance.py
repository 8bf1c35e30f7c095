"""End-to-end acceptance: every registry suite at every size up to its cap.

``asmlat.verify.SUITES`` is the one statement of each property, run
here by ``run_suite`` as ``verify`` runs it, and must check exactly the
items pinned for its cap (``CHECKED_AT_CAP``); each prints a single
ACCEPTANCE line (run pytest with -s to see them all).  Beside it stay only 10^4 random size-4 lattice triples and
the time bound on streaming A_7.  Every comparison is exact.
"""

import random
import time

import pytest

from asmlat import iter_asms
from asmlat.verify import SUITES, lattice_law_failure, run_suite

from conftest import walked_asms


# what each suite checks at its cap: a suite that silently checks fewer
# items fails here, not only one that checks nothing
CHECKED_AT_CAP = {
    "corner-sum-round-trip": 481,
    "transpose-dual-involutions": 481,
    "permutation-embedding-valid": 873,
    "corner-sum-invariants": 481,
    "beta-three-way-equivalence": 7_917,
    "duality-identity": 7_917,
    "stat-record-vs-definitions": 7_917,
    "inversion-le-beta": 7_917,
    "dual-inversion-via-dual": 481,
    "local-weak-sum": 481,
    "permutation-beta-formula": 5_913,
    "max-weak-inversion": 481,
    "cover-local-vs-generic": 1_818,
    "order-code-vs-dominance": 21_818,
    "beta-order-code-popcount": 7_917,
    "grading-and-reachability": 1_418,
    "cover-deltas-table": 1_413,
    "duality-anti-automorphism": 883,
    "cover-type-duality": 93,
    "transpose-order-isomorphism": 883,
    "beta-join-irreducible-count": 481,
    "lattice-laws": 552,
    "bigrassmannian-join-irreducible": 481,
    "bigrassmannian-construction": 5_920,
    "count-matches-formula": 7,
    "genfun-symmetries": 21,
    "perm-inversion-genfun": 7,
    "genfun-at-one": 30,
    "two-enumeration": 12,
    "signed-identity": 14,
    "genfun-dp-vs-enumeration": 72,
    "hasse-vs-cover-scan": 41_886,
}


@pytest.mark.parametrize("name, cap, suite", SUITES, ids=[name for name, _, _ in SUITES])
def test_registry_suite(name, cap, suite):
    checked, failures = run_suite(suite, cap)
    print(f"\nACCEPTANCE {name}: {'FAIL' if failures else 'PASS'} (n<={cap}, checked={checked})")
    assert not failures, failures[:5]
    assert checked == CHECKED_AT_CAP[name]


def test_criterion_1_counting():
    start = time.monotonic()
    n7 = sum(1 for _ in iter_asms(7))
    elapsed = time.monotonic() - start
    assert n7 == 218348 and elapsed < 60.0, f"n=7: {n7} matrices in {elapsed:.1f}s"


def test_criterion_10_lattice_laws():
    universe = walked_asms(4)
    rng = random.Random(421)
    for _ in range(10_000):
        a, b, c = (rng.choice(universe) for _ in range(3))
        assert lattice_law_failure(a, b, c) is None, (a, b, c)
