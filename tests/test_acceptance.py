"""End-to-end acceptance: every registry suite at every size up to its cap.

``asmlat.verify.SUITES`` is the one statement of each property, run
here by ``run_suite`` as ``verify`` runs it (a suite that checks nothing
fails); each prints a single ACCEPTANCE line (run pytest with -s to see
them all).  Beside it stay only 10^4 random size-4 lattice triples and
the time bound on streaming A_7.  Every comparison is exact.
"""

import random
import time

import pytest

from asmlat import iter_asms
from asmlat.verify import SUITES, lattice_law_failure, run_suite


@pytest.mark.parametrize("name, cap, suite", SUITES, ids=[name for name, _, _ in SUITES])
def test_registry_suite(name, cap, suite):
    checked, failures = run_suite(suite, cap)
    print(f"\nACCEPTANCE {name}: {'FAIL' if failures else 'PASS'} (n<={cap}, checked={checked})")
    assert not failures, failures[:5]


def test_criterion_1_counting():
    start = time.monotonic()
    n7 = sum(1 for _ in iter_asms(7))
    elapsed = time.monotonic() - start
    assert n7 == 218348 and elapsed < 60.0, f"n=7: {n7} matrices in {elapsed:.1f}s"


def test_criterion_10_lattice_laws():
    universe = list(iter_asms(4))
    rng = random.Random(421)
    for _ in range(10_000):
        a, b, c = (rng.choice(universe) for _ in range(3))
        assert lattice_law_failure(a, b, c) is None, (a, b, c)
