import dataclasses
import importlib
import random

import pytest

from asmlat import Permutation, build_hasse, cli, enumerate_asms, from_permutation, poset, verify
from asmlat.core import Asm, AsmError
from asmlat.verify import SUITES, generic_covers

# the module, not the function asmlat.verify that shadows it
verify_module = importlib.import_module("asmlat.verify")


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
        assert int(passed) == int(checked)


def test_pass_counts_stay_in_range_when_covers_are_wrong(monkeypatch):
    # every up edge sent to the reversal: an edge can break several claims
    # of one suite at once, but it is one checked item, so it adds at most
    # one failure and no line may report a negative or excess pass count
    covers_up = poset.covers_up
    def broken(a):
        top = from_permutation(Permutation.longest(a.n))
        return [dataclasses.replace(e, upper=top) for e in covers_up(a)]
    monkeypatch.setattr(poset, "covers_up", broken)
    # a fresh memo, so the suites find the broken covers, not kept ones
    monkeypatch.setattr(verify_module, "_up", {})
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


def test_a_suite_that_raises_is_reported_as_a_failure(monkeypatch, capsys):
    # every up edge sent to the zero matrix, outside A_n: a suite that
    # looks the upper end up raises, and that is one failed check in the
    # report, not a traceback
    covers_up = poset.covers_up
    def outside(a):
        zero = Asm(a.n, ((0,) * a.n,) * a.n)
        return [dataclasses.replace(e, upper=zero) for e in covers_up(a)]
    monkeypatch.setattr(poset, "covers_up", outside)
    monkeypatch.setattr(verify_module, "_up", {})
    assert cli.run(["verify", "--max", "3"]) == cli.EXIT_VERIFY
    lines = capsys.readouterr().out.splitlines()
    assert "hasse-vs-cover-scan: 1/2" in lines
    block = lines[lines.index("FAILURES:") :]
    assert lines[-2:] == ["", "verification FAILED"]
    assert "  hasse-vs-cover-scan: n=2: KeyError: " + repr(Asm(2, ((0, 0), (0, 0)))) in block


def test_verify_finds_each_matrix_up_covers_once(monkeypatch):
    calls = []
    covers_up = poset.covers_up
    def counted(a):
        calls.append(a)
        return covers_up(a)
    monkeypatch.setattr(poset, "covers_up", counted)
    monkeypatch.setattr(verify_module, "_up", {})
    assert verify(5).ok
    # once per matrix of A_1 ... A_5: 1 + 2 + 7 + 42 + 429
    assert len(calls) == len(set(calls)) == 481


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
    canonical = enumerate_asms(n)
    order = list(range(len(canonical)))[::-1]
    if shuffle == "seeded":
        random.Random(n).shuffle(order)
    found = generic_covers([canonical[k] for k in order])
    assert {(order[i], order[j]) for i, j in found} == generic_covers(canonical)


@pytest.mark.parametrize("n", range(1, 7))
def test_hasse_vs_cover_scan_on_tuple_nodes_and_edges(n):
    checked, failures = verify_module.check_hasse_vs_cover_scan(n)
    graph = build_hasse(n)
    assert failures == [] and checked == len(graph.nodes) + len(graph.edges)


@pytest.mark.parametrize("n", range(1, 6))
def test_kept_up_covers_end_at_the_matrices_of_a_n(n, monkeypatch):
    # each kept edge equals poset's, and its upper end is the matrix of
    # A_n itself, not a fresh equal one
    monkeypatch.setattr(verify_module, "_up", {})
    universe = verify_module._asms(n)
    ids = {id(a) for a in universe}
    for a in universe:
        kept = verify_module._covers_up(a)
        assert list(kept) == poset.covers_up(a)
        assert all(e.lower is a and id(e.upper) in ids for e in kept)
