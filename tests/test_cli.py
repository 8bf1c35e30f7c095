import decimal
import json
import math
import os
import hashlib
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from asmlat import cli, enumeration, io
from asmlat.cli import run
from asmlat.enumeration import build_hasse, count_formula

from conftest import EXAMPLE_A_ROWS, MIDDLE_3_ROWS

ROOT = Path(__file__).resolve().parents[1]
SRC, DEMOS = ROOT / "src", ROOT / "demos"
A_TEXT = "n 4\n" + "\n".join(" ".join(str(v) for v in row) for row in EXAMPLE_A_ROWS) + "\n"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count(capsys):
    code, out, _ = invoke(capsys, "count", "--size", "3")
    assert code == 0 and out.strip() == "7"


def test_count_enumerate(capsys):
    code, out, _ = invoke(capsys, "count", "--size", "4", "--method", "enumerate")
    assert code == 0 and out.strip() == "42"


def test_count_past_the_int_str_digit_limit(capsys):
    # |A_200| has 4,545 digits, more than str(int) allows by default;
    # the guard message prints the same number
    want = count_formula(200)
    code, out, _ = invoke(capsys, "count", "--size", "200")
    assert code == 0 and len(out.strip()) == 4545
    assert decimal.Decimal(out) == want
    code, out, err = invoke(capsys, "enumerate", "--size", "200")
    assert (code, out) == (3, "") and f"|A_200| = {decimal.Decimal(want)} exceeds" in err


def test_count_at_size_1000(capsys):
    # the count is walked by ratios, not multiplied out of 2n factorials;
    # its length and leading digits are checked against log10 of the product
    start = time.perf_counter()
    code, out, _ = invoke(capsys, "count", "--size", "1000")
    assert time.perf_counter() - start < 10
    digits = out.strip()
    log10 = sum(math.lgamma(3 * i + 2) - math.lgamma(1000 + i + 1) for i in range(1000)) / math.log(10)
    assert code == 0 and len(digits) == math.floor(log10) + 1 == 113_622
    assert digits.startswith(str(10 ** (log10 % 1)).replace(".", "")[:6])


def test_stats_from_file(capsys, tmp_path):
    f = tmp_path / "a.txt"
    f.write_text(A_TEXT)
    code, out, _ = invoke(capsys, "stats", "--matrix", str(f), "--format", "json")
    assert code == 0
    assert json.loads(out) == {"I": 5, "Istar": 3, "N": 2, "H2": 8, "beta": 7}


def test_stats_human(capsys):
    code, out, _ = invoke(capsys, "stats", "--perm", "3412")
    assert code == 0
    assert out.strip() == "I=4 I*=2 N=0 H=4 beta=8"


def test_stats_from_json_file(capsys, tmp_path):
    f = tmp_path / "a.json"
    f.write_text(json.dumps({"n": 4, "entries": EXAMPLE_A_ROWS}))
    code, out, _ = invoke(capsys, "stats", "--matrix", str(f), "--format", "json")
    assert code == 0 and json.loads(out)["beta"] == 7


def test_genfun_golden(capsys):
    code, out, _ = invoke(capsys, "genfun", "--size", "3", "--stat", "I")
    assert code == 0 and out.strip() == "1 + 2*λ + 3*λ^2 + λ^3"


def test_genfun_bivariate(capsys):
    code, out, _ = invoke(capsys, "genfun", "--size", "2", "--bivariate", "I:beta")
    assert code == 0 and out.strip() == "1 + λ*q"


def test_genfun_json(capsys):
    code, out, _ = invoke(
        capsys, "genfun", "--size", "3", "--stat", "H", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["var"] == "lambda" and obj["half_units"] is True
    assert [3, 1] in obj["terms"]


def test_enumerate_json(capsys):
    code, out, _ = invoke(capsys, "enumerate", "--size", "3", "--format", "json")
    assert code == 0
    matrices = json.loads(out)
    assert len(matrices) == 7
    assert all(m["n"] == 3 for m in matrices)


def test_covers_json(capsys, tmp_path):
    f = tmp_path / "a.txt"
    f.write_text(A_TEXT)
    code, out, _ = invoke(
        capsys, "covers", "--matrix", str(f), "--up", "--format", "json"
    )
    assert code == 0
    edges = json.loads(out)
    assert {"r": 2, "s": 2, "type": 4, "dI": -1, "dN2x": -2, "dH2x": 0} in edges


def test_covers_stdin(capsys, monkeypatch):
    import io as _io

    monkeypatch.setattr("sys.stdin", _io.StringIO(A_TEXT))
    code, out, _ = invoke(capsys, "covers", "--matrix", "-", "--down", "--format", "json")
    assert code == 0 and json.loads(out)


@pytest.mark.parametrize("highlight", [[], ["--highlight-ji"]])
def test_hasse_dot_written_in_batches_equals_to_dot(capsys, highlight):
    # 39,996 lines at size 6, so the command writes more than one batch
    code, out, _ = invoke(capsys, "hasse", "--size", "6", "--output", "dot", *highlight)
    assert code == 0
    assert out == build_hasse(6).to_dot(highlight_ji=bool(highlight))


# sha256 of `hasse --size n` as DOT, DOT with --highlight-ji and JSON
# (with or without the flag), recorded before the DOT and JSON writers
# were rewritten to stream
HASSE_SHA256 = {
    1: (
        "0c94d8e5233d3846aac585048d3270ec952a402f2d01ba9b45b340630185fd7f",
        "0c94d8e5233d3846aac585048d3270ec952a402f2d01ba9b45b340630185fd7f",
        "b65689ec4b7afebc4de69e4d2ef267bffa5eb385059a63254910b77781688c44",
    ),
    2: (
        "3da256f2dd13ee834999f7861dce4845acd61ae52cc7c2bd9edaea850b080f70",
        "881cbf5e5aed85c9e29b7c99563b01a323216a24a8653de0acf0b6d071a33dbe",
        "2be6c92003a0ad501694a903b0ee0f2c205b9d63af58a4f476658fca53c8ecb5",
    ),
    3: (
        "240b75622fbe353854520d86ee4e668cb268a1ad6daef50d66edea8f5e8f6b4e",
        "f55285fe33f5e5eae89b530ca568d3a7addc53d93fa57d2dbac3d4eb981e8182",
        "80e223668fac86918048ef7a786ec68d189068800199149d158054c1905aae87",
    ),
    4: (
        "321dac9dd727cd8dba53c0bf37899de95615f44a45993ef143a7cf6c9f003ec2",
        "17491dac464730501952b461140aae88b57b72bd621bde3548525c0161c17a90",
        "2de799b386c8a1316766aa9b42b3de1b481e53dca6dafae6c7f10a262671b7ff",
    ),
    5: (
        "beffcbc2006f2c54e0749f5e7673fac43081676cae47b1ecb0a346ef7c6131b0",
        "f043495db8853a4916814e34d7364c33c0c69705efd4f143b77b82d5d2b88729",
        "a304936e5cc71f8ed78b1c1a6870a8f926edfdde9af1587ac0f2e014830961d1",
    ),
    6: (
        "8ba0c7da7474e1e6938368df4c3b2209045bf4e715dd13dfd4d46e42347d637f",
        "efb2d681de402a136ed96ce2ef5948c46b0e1df8aa3461c9d9dfcf3d78cbdee8",
        "e317c346ee8ea087b192cd1537602cdeee57e2b1cb0a9208a9617811cd34a0e1",
    ),
}


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize(
    "fmt, highlight, column",
    [("dot", [], 0), ("dot", ["--highlight-ji"], 1), ("json", [], 2), ("json", ["--highlight-ji"], 2)],
)
def test_hasse_output_bytes_pinned(capsys, n, fmt, highlight, column):
    code, out, _ = invoke(capsys, "hasse", "--size", str(n), "--output", fmt, *highlight)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == HASSE_SHA256[n][column]


def test_hasse_json_streams(monkeypatch):
    # the JSON text is 1.7 times the DOT text, and neither is held whole:
    # both peaks are mostly the graph
    enumeration._cover_table(6)  # the cached tables stay out of both peaks

    class Sink:
        size = 0

        def write(self, text):
            self.size += len(text)

    peaks, sizes = {}, {}
    for fmt in ("dot", "json"):
        monkeypatch.setattr(sys, "stdout", Sink())
        tracemalloc.start()
        try:
            assert run(["hasse", "--size", "6", "--output", fmt]) == 0
            peaks[fmt] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sizes[fmt] = sys.stdout.size
    assert sizes["json"] > 1.5 * sizes["dot"]
    assert peaks["json"] <= 1.5 * peaks["dot"]


def test_hasse_writes_are_bounded(monkeypatch):
    # the edges are formatted a block at a time, and no write holds more
    # than 16,384 DOT lines or JSON nodes and edges: a block is never
    # joined with further blocks.  The writes are the pinned bytes
    for fmt, column, items in (("dot", 0, ("\n",)), ("json", 2, ('"lower"', '"join_irreducible"'))):
        writes = []
        monkeypatch.setattr(sys, "stdout", type("Sink", (), {"write": staticmethod(writes.append)})())
        assert run(["hasse", "--size", "6", "--output", fmt]) == 0
        assert max(sum(map(text.count, items)) for text in writes) <= 16384
        assert hashlib.sha256("".join(writes).encode()).hexdigest() == HASSE_SHA256[6][column]


# sha256 of `enumerate --size n` as lines and as JSON, recorded before
# the command streamed its output
ENUMERATE_SHA256 = {
    1: (
        "5a0a2b76858bf8cc147613f783d84cd22c0047d142ba0d9ce13fcedf953b57ed",
        "b52a868b1ad8c37fd598a86bcc70316650ad83332b9f0bdff6fe81686db90771",
    ),
    2: (
        "d13d169a33448d9853f5d3e6924ce4c4d2056b86476b7551ca936c461b518a0b",
        "f44027b24ba6338bacfaee249e5603793bae06c35f5590c304780d915601f45d",
    ),
    3: (
        "f9868aa26bcd8085d20b6a7cba248f76e9046a18a08c74db000f7b639bdb0294",
        "8fed57bf9fbbb6a013dda44d3ff4a5ec33aea39d23f98633173cc24376a35bfe",
    ),
    4: (
        "7679314187db7fd1b345ab56edbaf7ba19a30acf39e2aa077f84cff4102b2f78",
        "0c26b7dd144367e9139b5b85e04087671e4a63002a46e757bd7e04b86ab27699",
    ),
    5: (
        "91d8b96b12b862b6c90b17279c4d1153771e4a0624ec869b266851c3e77646e8",
        "743b6b6950ffbf1bae76d14aa9f5689501eb415e88291693b01729a04ed1b09d",
    ),
    6: (
        "de8bd33e691ead98b1c726ba83b6c895c054b0cb048b0d866811e0f78caceb1a",
        "00ac2a533f0a8c5a4df82f9056729a0401e12254feb6c20d60765ff6ada29883",
    ),
}


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("fmt, column", [("lines", 0), ("json", 1)])
def test_enumerate_output_bytes_pinned(capsys, n, fmt, column):
    code, out, _ = invoke(capsys, "enumerate", "--size", str(n), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_SHA256[n][column]


def test_write_joins_pieces_in_batches(monkeypatch):
    writes = []
    monkeypatch.setattr(sys, "stdout", type("Sink", (), {"write": staticmethod(writes.append)})())
    pieces = [f"{i}\n" for i in range(40_000)]
    io._write(io._batched(pieces))
    assert len(writes) == 3 and "".join(writes) == "".join(pieces)


def test_verify_small(capsys):
    code, out, _ = invoke(capsys, "verify", "--max", "2")
    assert code == 0
    assert "all checks passed" in out
    assert "beta-three-way-equivalence" in out


def test_exit_usage(capsys):
    code, _, err = invoke(capsys, "count")
    assert code == 1 and err


def test_parser_reused_across_calls(capsys, monkeypatch, tmp_path):
    # one parser per command serves every call of a process: after a
    # usage error, a leftover argument, a domain error and a guard error,
    # each call answers as a fresh one
    monkeypatch.delenv("ASMLAT_GUARD", raising=False)
    bad = tmp_path / "bad.txt"
    bad.write_text("1 -1\n0 1\n")
    calls = [
        (["count"], 1),
        (["genfun", "--size", "3", "--stat", "I"], 0),
        (["genfun", "--size", "3", "--stat", "I", "--bogus"], 1),
        (["stats", "--matrix", str(bad)], 2),
        (["genfun", "--size", "15", "--stat", "I"], 3),
        (["genfun", "--size", "3", "--stat", "I"], 0),
    ]
    for argv, code in calls:
        parser = cli._build_parser(argv[0])
        reused = invoke(capsys, *argv)
        assert cli._build_parser(argv[0]) is parser
        cli._build_parser.cache_clear()
        fresh = invoke(capsys, *argv)
        assert reused == fresh and reused[0] == code
        assert cli._build_parser() is cli._build_parser()


def test_a_command_builds_only_its_own_parser(capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counted(self, **kwargs):
        built.append(kwargs["prog"])
        init(self, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    full = ["asmlat", *(f"asmlat {name}" for name in cli._COMMANDS)]
    cli._build_parser.cache_clear()
    assert run_pinned(capsys, ["genfun", "--size", "3", "--stat", "I"])[0] == 0
    assert run_pinned(capsys, ["genfun", "--size", "4", "--stat", "I"])[0] == 0
    assert built == ["asmlat genfun"]
    # leftover arguments are reported by the full parser
    assert run_pinned(capsys, ["genfun", "--size", "3", "--stat", "I", "--bogus"])[0] == 1
    assert built[1:] == full
    for argv in (["-h"], ["bogus"]):
        built.clear()
        cli._build_parser.cache_clear()
        run_pinned(capsys, argv)
        assert built == full


CLI_TEXT = json.loads((ROOT / "tests" / "golden" / "cli_text.json").read_text())


def run_pinned(capsys, argv):
    """(exit code, raised SystemExit, stdout, stderr) of one command."""
    try:
        code, raised = run(list(argv)), False
    except SystemExit as exc:
        code, raised = exc.code, True
    captured = capsys.readouterr()
    return code, raised, captured.out, captured.err


# stdout, stderr and exit code of usage errors, help and a few commands,
# recorded when one full parser served every command; help wraps at the
# terminal width, so the width is fixed
@pytest.mark.parametrize("case", CLI_TEXT, ids=lambda case: " ".join(case["argv"]) or repr(case["argv"]))
def test_cli_text_pinned(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("ASMLAT_GUARD", raising=False)
    want = (case["exit"], case["system_exit"], case["out"], case["err"])
    assert run_pinned(capsys, case["argv"]) == want


def test_readme_json_examples_are_real_output(capsys, tmp_path):
    # each JSON example in README's JSON section is the output of the first
    # command quoted between the example before it and this one
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## JSON output") :]
    section = section[: section.index("\n## ", 1)]
    m3 = tmp_path / "m3.txt"
    m3.write_text("\n".join(" ".join(map(str, row)) for row in MIDDLE_3_ROWS) + "\n")
    commands, start = set(), 0
    for block in re.finditer(r"```json\n(.*?)\n```", section, re.S):
        command = re.findall(
            r"`((?:stats|covers|genfun|hasse|enumerate) --[^`]*)`", section[start : block.start()]
        )[0]
        start = block.end()
        commands.add(command.split()[0])
        argv = [str(m3) if word == "m3.txt" else word for word in command.split()]
        assert invoke(capsys, *argv)[:2] == (0, block.group(1) + "\n"), command
    assert commands == {"stats", "covers", "genfun", "hasse", "enumerate"}


def test_genfun_choices_are_the_names_enumeration_knows():
    # the parser reads enumeration's own lists, not copies of them
    choices = {a.dest: a.choices for a in cli._build_parser("genfun")._actions}
    assert choices["stat"] is enumeration._STATS
    assert choices["bivariate"] is enumeration._PAIRS
    assert choices["over"] is enumeration._UNIVERSES


def test_genfun_needs_one_of_stat_and_bivariate(capsys):
    for what in ([], ["--stat", "I", "--bivariate", "I:beta"]):
        code, out, err = invoke(capsys, "genfun", "--size", "3", *what)
        assert (code, out) == (1, "") and "--stat" in err and "--bivariate" in err


def test_exit_domain_bad_matrix(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("1 -1\n0 1\n")
    code, _, err = invoke(capsys, "stats", "--matrix", str(f))
    assert code == 2 and "sums to" in err


def test_exit_domain_missing_file(capsys, tmp_path):
    code, _, err = invoke(capsys, "stats", "--matrix", str(tmp_path / "nope.txt"))
    assert code == 2 and err


@pytest.mark.parametrize("command", ["stats", "covers"])
def test_exit_domain_matrix_file_not_utf8(capsys, tmp_path, command):
    f = tmp_path / "bad.txt"
    f.write_bytes(b"\xff\xfe\n")
    code, out, err = invoke(capsys, command, "--matrix", str(f))
    assert (code, out) == (2, "") and "not UTF-8" in err


# a strict stdin raises on a bad byte; a surrogateescape one (the POSIX
# locale's) turns it into a surrogate and lets it through as text
@pytest.mark.parametrize("encoding, errors", [("utf-8", "strict"), ("ascii", "surrogateescape")])
def test_exit_domain_stdin_not_utf8(capsys, monkeypatch, encoding, errors):
    import io as _io

    stdin = _io.TextIOWrapper(_io.BytesIO(b"\xff\xfe\n"), encoding=encoding, errors=errors)
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = invoke(capsys, "stats", "--matrix", "-")
    assert (code, out, err) == (2, "", "asmlat: stdin: byte 0 is not UTF-8 text\n")


def test_exit_guard(capsys, monkeypatch):
    monkeypatch.setenv("ASMLAT_GUARD", "10")
    code, _, err = invoke(capsys, "enumerate", "--size", "4")
    assert code == 3 and "guard" in err


def test_exit_guard_message(capsys):
    # count --method enumerate streams A_n but checks the same guard first
    for argv in (["hasse", "--size", "4", "--output", "dot"], ["count", "--size", "4", "--method", "enumerate"]):
        code, out, err = invoke(capsys, *argv, "--guard", "10")
        assert code == 3 and out == ""
        assert "|A_4| = 42 exceeds guard 10" in err
        assert "--guard N" in err and "ASMLAT_GUARD" in err


def test_verify_refused_by_the_guard_exits_3(capsys, monkeypatch):
    # verify has no --guard but obeys ASMLAT_GUARD: a refused size is the
    # one guard line and exit 3, not a failed check of every suite
    monkeypatch.setenv("ASMLAT_GUARD", "5")
    code, out, err = invoke(capsys, "verify", "--max", "3")
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and "exceeds guard 5" in err


@pytest.mark.parametrize(
    "argv, err",
    [
        # verify takes no --guard: its refusal names the variable alone
        (["verify", "--max", "3"], "asmlat: |A_3| = 7 exceeds guard 5; raise it with ASMLAT_GUARD\n"),
        (["enumerate", "--size", "3"],
         "asmlat: |A_3| = 7 exceeds guard 5; raise it with --guard N or ASMLAT_GUARD\n"),
        (["hasse", "--size", "3", "--output", "json"],
         "asmlat: |A_3| = 7 exceeds guard 5; raise it with --guard N or ASMLAT_GUARD\n"),
        (["genfun", "--size", "2", "--stat", "I"],
         "asmlat: 2^2 * 2^3 DP steps = 32 exceeds guard 5; raise it with --guard N or ASMLAT_GUARD\n"),
    ],
)
def test_guard_refusal_text_pinned(capsys, monkeypatch, argv, err):
    monkeypatch.setenv("ASMLAT_GUARD", "5")
    assert invoke(capsys, *argv) == (3, "", err)


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--size", "20000"],
        ["count", "--method", "enumerate", "--size", "3000"],
        ["genfun", "--size", "1000000", "--stat", "I"],
        # past sys.maxsize, which itertools.islice refuses as a stop
        ["hasse", "--size", "9223372036854775808", "--output", "dot"],
        ["enumerate", "--size", "9223372036854775808"],
        ["count", "--method", "enumerate", "--size", "9223372036854775808"],
    ],
)
def test_guard_refuses_a_huge_size_at_once(capsys, monkeypatch, argv):
    # the refusal compares a bound: the exact size would take minutes to
    # compute or to print
    monkeypatch.delenv("ASMLAT_GUARD", raising=False)
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert (code, out) == (3, "")
    assert ">= 10^10000 exceeds guard 10000000; raise it with --guard N or ASMLAT_GUARD" in err


def test_count_formula_refuses_a_size_past_maxsize(capsys):
    # |A_n| of a size past sys.maxsize has more digits than an int holds
    code, out, err = invoke(capsys, "count", "--size", "9223372036854775809")
    assert (code, out) == (2, "")
    assert err == "asmlat: |A_9223372036854775809| has more than 9223372036854775807 digits, too many to compute\n"


def test_genfun_guard_bounds_dp_steps(capsys, monkeypatch):
    # |A_8| is above the default guard, the DP's 8^2 * 2^9 steps are not
    monkeypatch.delenv("ASMLAT_GUARD", raising=False)
    code, out, _ = invoke(capsys, "genfun", "--size", "8", "--stat", "I", "--format", "json")
    assert code == 0
    assert sum(c for _, c in json.loads(out)["terms"]) == count_formula(8) > 10**7
    code, out, err = invoke(capsys, "genfun", "--size", "15", "--stat", "I")
    assert (code, out) == (3, "")
    assert "15^2 * 2^16 DP steps = 14745600 exceeds guard 10000000" in err
    assert "--guard N" in err and "ASMLAT_GUARD" in err


def test_exit_domain_bad_guard(capsys, monkeypatch):
    # every subcommand that takes --guard checks it, even one that
    # enumerates nothing (count by formula)
    commands = [
        ["enumerate", "--size", "3"],
        ["count", "--size", "3"],
        ["count", "--size", "3", "--method", "enumerate"],
        ["hasse", "--size", "2", "--output", "dot"],
        ["genfun", "--size", "2", "--stat", "I"],
    ]
    for argv in commands:
        code, _, err = invoke(capsys, *argv, "--guard", "-1")
        assert code == 2 and "negative" in err
    for env in ("abc", "-1"):
        monkeypatch.setenv("ASMLAT_GUARD", env)
        for argv in commands:
            code, _, err = invoke(capsys, *argv)
            assert code == 2 and "ASMLAT_GUARD" in err


def test_exit_domain_verify_max_below_one(capsys):
    for n_max in ("0", "-2"):
        code, out, err = invoke(capsys, "verify", "--max", n_max)
        assert code == 2 and err
        assert "all checks passed" not in out


@pytest.mark.parametrize("size", ["-1", "0"])
@pytest.mark.parametrize("what", [["--stat", "I"], ["--bivariate", "I:beta"]])
def test_exit_domain_perm_size_not_positive(capsys, size, what):
    # over permutations as over matrices: a domain error, no traceback, no "1"
    code, out, err = invoke(capsys, "genfun", "--size", size, "--over", "perm", *what)
    assert (code, out) == (2, "")
    assert f"size {size} must be positive" in err


def test_exit_domain_non_int_entry(capsys, tmp_path):
    f = tmp_path / "a.json"
    for entries in ("[[1.9]]", "[[true]]"):
        f.write_text('{"n": 1, "entries": %s}' % entries)
        code, _, err = invoke(capsys, "stats", "--matrix", str(f))
        assert code == 2 and "not an integer" in err


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


def test_python_dash_m():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "asmlat", "count", "--size", "3"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "7\n", "")


@pytest.mark.parametrize("argv", ["hasse --size 6 --output dot", "enumerate --size 7", "count --size 3"])
def test_stdout_closed_by_its_reader_exits_141_silently(argv):
    # stdout buffered, as in a shell: count's line is written only as main flushes
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="")
    pipe = subprocess.PIPE
    proc = subprocess.Popen([sys.executable, "-m", "asmlat", *argv.split()], env=env, stdout=pipe, stderr=pipe)
    proc.stdout.close()
    assert (proc.wait(timeout=60), proc.stderr.read()) == (141, b"")


@pytest.mark.parametrize("argv", [["genfun", "-h"], ["genfun", "--size", "3", "--stat", "I", "--bogus"]], ids=" ".join)
def test_python_dash_m_text_pinned(argv):
    case = next(case for case in CLI_TEXT if case["argv"] == argv)
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    proc = subprocess.run(
        [sys.executable, "-m", "asmlat", *argv], env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (case["exit"], case["out"], case["err"])


def test_output_determinism(capsys):
    runs = set()
    for _ in range(2):
        code, out, _ = invoke(capsys, "genfun", "--size", "4", "--stat", "H")
        assert code == 0
        runs.add(out)
    assert len(runs) == 1
