import functools
import importlib
import random
from fractions import Fraction

import pytest

from asmlat import (
    Permutation,
    build_hasse,
    cli,
    enumeration,
    from_permutation,
    minus_count,
    poset,
    stats,
    verify,
)
from asmlat.core import Asm, AsmError
from asmlat.enumeration import _walk_hasse
from asmlat.verify import SUITES, generic_covers, run_suite

from conftest import walked_asms

# the module, not the function asmlat.verify that shadows it
verify_module = importlib.import_module("asmlat.verify")


@pytest.fixture
def fresh_covers(monkeypatch):
    # a fresh memo, so a test finds its own covers, not ones kept before
    fresh = functools.cache(verify_module._covers_up.__wrapped__)
    monkeypatch.setattr(verify_module, "_covers_up", fresh)


@pytest.fixture
def fresh_definitions(monkeypatch):
    # a fresh memo, so a test measures its own statistics, not ones kept before
    fresh = functools.cache(verify_module._definitions.__wrapped__)
    monkeypatch.setattr(verify_module, "_definitions", fresh)


def test_asmlat_verify_stays_the_function():
    # importing the submodule binds it as the package attribute; the
    # function is bound after it, so a lazy module __getattr__ alone
    # would lose it once anything imports asmlat.verify
    import asmlat

    module = importlib.import_module("asmlat.verify")
    from asmlat import verify as imported

    assert asmlat.verify is imported is module.verify
    assert callable(imported)


@pytest.mark.parametrize("n_max", [0, -2])
def test_verify_rejects_max_below_one(n_max):
    # a run of zero checks must not report "all checks passed"
    with pytest.raises(AsmError):
        verify(n_max)


def test_verify_passes_small():
    report = verify(3)
    assert report.ok
    assert "all checks passed" in str(report)


def test_report_has_one_line_per_suite():
    report = verify(2)
    names = [line.split(":")[0] for line in report.lines]
    assert names == [name for name, _, _ in SUITES]
    assert len(names) == len(set(names))


def test_report_counts_format():
    report = verify(2)
    for line in report.lines:
        passed, checked = line.split(": ")[1].split("/")
        assert int(passed) == int(checked) >= 1


def test_a_suite_that_checks_nothing_fails(capsys):
    # A_1 has no cover edge and no pair of distinct matrices
    assert cli.run(["verify", "--max", "1"]) == cli.EXIT_VERIFY
    empty = ("cover-deltas-table", "duality-anti-automorphism", "cover-type-duality",
             "transpose-order-isomorphism")
    block = "".join(f"  {name}: checked nothing for n <= 1\n" for name in empty)
    assert capsys.readouterr().out.endswith(f"\nFAILURES:\n{block}\nverification FAILED\n")


def test_count_formula_keeps_no_matrices(monkeypatch):
    # the count suite streams A_n, so verify --max 7 never keeps A_7
    fresh = functools.cache(verify_module._listed.__wrapped__)
    monkeypatch.setattr(verify_module, "_listed", fresh)
    assert verify_module.check_count_formula(7) == (1, [])
    assert fresh.cache_info().currsize == 0


def test_count_formula_is_refused_by_the_guard(monkeypatch):
    # the streamed count is refused where a listed A_n is, before its table
    # is built: A_1 and A_2 are counted, |A_3| = 7 is above the guard
    listed = functools.cache(verify_module._listed.__wrapped__)
    tables = functools.cache(enumeration._row_table.__wrapped__)
    monkeypatch.setattr(verify_module, "_listed", listed)
    monkeypatch.setattr(enumeration, "_row_table", tables)
    monkeypatch.setenv("ASMLAT_GUARD", "5")
    with pytest.raises(enumeration.TooLarge) as info:
        run_suite(verify_module.check_count_formula, 7)
    assert str(info.value) == "|A_3| = 7 exceeds guard 5; raise it with ASMLAT_GUARD"
    assert listed.cache_info().currsize == 0 and tables.cache_info().currsize == 2


def test_pass_counts_stay_in_range_when_covers_are_wrong(monkeypatch, fresh_covers):
    # every up edge sent to the reversal: an edge can break several claims
    # of one suite at once, but it is one checked item, so it adds at most
    # one failure and no line may report a negative or excess pass count
    covers_up = poset.covers_up
    def broken(a):
        top = from_permutation(Permutation.longest(a.n))
        return [e._replace(upper=top) for e in covers_up(a)]
    monkeypatch.setattr(poset, "covers_up", broken)
    report = verify(4)
    counts = {}
    for line in report.lines:
        name, result = line.split(": ")
        passed, checked = map(int, result.split("/"))
        assert 0 <= passed <= checked, line
        counts[name] = (passed, checked)
    assert not report.ok
    for name in ("cover-deltas-table", "cover-type-duality", "grading-and-reachability"):
        assert counts[name][0] < counts[name][1], name


def test_a_suite_that_raises_is_reported_as_a_failure(monkeypatch, fresh_covers, capsys):
    # every up edge sent to the zero matrix, outside A_n: a suite that
    # looks the upper end up raises, and that is one failed check in the
    # report, not a traceback
    covers_up = poset.covers_up
    def outside(a):
        zero = Asm(a.n, ((0,) * a.n,) * a.n)
        return [e._replace(upper=zero) for e in covers_up(a)]
    monkeypatch.setattr(poset, "covers_up", outside)
    assert cli.run(["verify", "--max", "3"]) == cli.EXIT_VERIFY
    lines = capsys.readouterr().out.splitlines()
    assert "hasse-vs-cover-scan: 1/2" in lines
    block = lines[lines.index("FAILURES:") :]
    assert lines[-2:] == ["", "verification FAILED"]
    assert "  hasse-vs-cover-scan: n=2: KeyError: " + repr(Asm(2, ((0, 0), (0, 0)))) in block


def test_run_suite_lets_the_guard_refusal_through(monkeypatch):
    # a size above the guard is refused, not counted as a failed check
    def refused(n):
        enumeration.enumerate_asms(n, limit_guard=1)
        return 1, []
    with pytest.raises(enumeration.TooLarge, match="exceeds guard 1"):
        run_suite(refused, 3)
    monkeypatch.setenv("ASMLAT_GUARD", "5")
    with pytest.raises(enumeration.TooLarge, match="exceeds guard 5"):
        verify(3)


def test_verify_applies_the_guard_on_every_call(monkeypatch):
    # A_3 kept from the first call is still refused once the guard is
    # below |A_3|, with the text a fresh process prints
    monkeypatch.delenv("ASMLAT_GUARD", raising=False)
    assert verify(3).ok
    monkeypatch.setenv("ASMLAT_GUARD", "5")
    with pytest.raises(enumeration.TooLarge) as info:
        verify(3)
    assert str(info.value) == "|A_3| = 7 exceeds guard 5; raise it with ASMLAT_GUARD"


def test_verify_finds_each_matrix_up_covers_once(monkeypatch, fresh_covers):
    calls = []
    covers_up = poset.covers_up
    def counted(a):
        calls.append(a)
        return covers_up(a)
    monkeypatch.setattr(poset, "covers_up", counted)
    assert verify(5).ok
    # once per matrix of A_1 ... A_5: 1 + 2 + 7 + 42 + 429
    assert len(calls) == len(set(calls)) == 481


def test_verify_measures_each_matrix_once(monkeypatch, fresh_definitions):
    names = ("inversion_number", "dual_inversion_number", "beta_weighted",
             "beta_row_weighted", "beta_corner")
    calls = {name: [] for name in names}
    def counted(name):
        measure = getattr(stats, name)
        def call(a):
            calls[name].append(a)
            return measure(a)
        return call
    for name in names:
        monkeypatch.setattr(stats, name, counted(name))
    assert verify(5).ok
    universe = {a for n in range(1, 6) for a in verify_module._asms(n)}
    for name, seen in calls.items():
        assert set(seen) == universe, name
        # permutation-beta-formula measures each permutation of S_1 ... S_5
        # (1 + 2 + 6 + 24 + 120) by beta_weighted itself, not through the memo
        assert len(seen) == 481 + (153 if name == "beta_weighted" else 0), name


def test_a_broken_dual_inversion_number_fails_its_suites(monkeypatch, fresh_definitions):
    # off by one on the one matrix of A_3 with a -1
    dual_inversion_number = stats.dual_inversion_number
    monkeypatch.setattr(
        stats, "dual_inversion_number", lambda a: dual_inversion_number(a) + (minus_count(a) > 0)
    )
    suites = {name: suite for name, _, suite in SUITES}
    for name in ("duality-identity", "dual-inversion-via-dual", "stat-record-vs-definitions"):
        checked, failures = suites[name](3)
        assert (checked, len(failures)) == (7, 1), name


def test_a_share_that_is_not_a_quarter_fails_local_weak_sum(monkeypatch, fresh_definitions):
    share = stats.local_weak_contribution
    monkeypatch.setattr(
        stats,
        "local_weak_contribution",
        lambda a, p, q: Fraction(1, 3) if (p, q) == (1, 1) else share(a, p, q),
    )
    checked, failures = verify_module.check_local_weak_sum(3)
    assert checked == 7
    assert failures == [
        f"H_11 = 1/3 is not a quarter-integer on\n{a}" for a in verify_module._asms(3)
    ]


@pytest.mark.parametrize("n", range(1, 6))
def test_generic_covers_are_the_hasse_edges(n):
    graph = build_hasse(n)
    want = {(e.lower, e.upper) for e in graph.edges}
    assert generic_covers([node.matrix for node in graph.nodes]) == want


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("shuffle", ["reversed", "seeded"])
def test_generic_covers_in_any_order(n, shuffle):
    # in canonical order a matrix comes before every matrix below it, so
    # only another order makes compare answer LESS for a pair (i < j)
    canonical = walked_asms(n)
    order = list(range(len(canonical)))[::-1]
    if shuffle == "seeded":
        random.Random(n).shuffle(order)
    found = generic_covers([canonical[k] for k in order])
    assert {(order[i], order[j]) for i, j in found} == generic_covers(canonical)


@pytest.mark.parametrize("n", range(1, 7))
def test_hasse_vs_cover_scan_on_tuple_nodes_and_edges(n):
    checked, failures = verify_module.check_hasse_vs_cover_scan(n)
    nodes, edges = _walk_hasse(n, None)
    assert failures == [] and checked == len(list(nodes)) + len(edges)


@pytest.mark.parametrize("n", range(1, 6))
def test_kept_up_covers_end_at_the_matrices_of_a_n(n, fresh_covers):
    # each kept edge equals poset's, and its upper end is the matrix of
    # A_n itself, not a fresh equal one
    universe = verify_module._asms(n)
    ids = {id(a) for a in universe}
    for a in universe:
        kept = verify_module._covers_up(a)
        assert list(kept) == poset.covers_up(a)
        assert all(e.lower is a and id(e.upper) in ids for e in kept)
