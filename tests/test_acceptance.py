"""End-to-end acceptance: every registry suite at every size up to its cap.

``asmlat.verify.SUITES`` is the one statement of each property; each
suite prints a single ACCEPTANCE line (run pytest with -s to see them
all).  Beside it stay only the checks no suite states: 10^4 random
size-4 lattice triples and the time bound on streaming A_7.  Every
comparison is exact, no tolerances anywhere.
"""

import random
import time

import pytest

from asmlat import iter_asms
from asmlat.verify import SUITES, lattice_law_failure


@pytest.mark.parametrize("name, cap, suite", SUITES, ids=[name for name, _, _ in SUITES])
def test_registry_suite(name, cap, suite):
    checked, failures = 0, []
    for n in range(1, cap + 1):
        c, f = suite(n)
        checked += c
        failures += f
    # a pass that checked nothing is a failure
    ok = not failures and checked > 0
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} (n<={cap}, checked={checked})")
    assert ok, failures[:5] or "checked nothing"


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
