import contextlib
import io
import json
import random

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from asmlat import Permutation, from_permutation, validate
from asmlat import io as asmlat_io
from asmlat.cli import run
from asmlat import core
from asmlat.core import AsmError, EntryOutOfRange, NotSquare
from asmlat.io import (
    ParseError,
    matrix_from_json,
    matrix_to_json,
    matrix_to_text,
    parse_matrix,
    parse_matrix_text,
    parse_permutation,
)

from conftest import EXAMPLE_A_ROWS, clear_row_memos, outcome, walked_asms


def text_of(rows):
    return "\n".join(" ".join(str(v) for v in row) for row in rows)


def test_matrix_from_json_entries_must_be_ints():
    assert matrix_from_json('{"n": 2, "entries": [[0, 1], [1, 0]]}') == validate([[0, 1], [1, 0]])
    for entries in ("[[1.9]]", "[[1.0]]", "[[true]]"):
        with pytest.raises(EntryOutOfRange):
            matrix_from_json('{"entries": %s}' % entries)


def test_matrix_from_json_malformed_shape():
    for text in ('{"entries": 5}', '{"entries": [1]}', '{"n": "x", "entries": [[1]]}',
                 '{"n": 1.0, "entries": [[1]]}', '{"n": 2, "entries": [[1]]}'):
        with pytest.raises(NotSquare):
            matrix_from_json(text)


def test_parse_matrix_plain():
    assert parse_matrix_text(text_of(EXAMPLE_A_ROWS)) == validate(EXAMPLE_A_ROWS)


def test_parse_matrix_with_header():
    assert parse_matrix_text("n 4\n" + text_of(EXAMPLE_A_ROWS)) == validate(EXAMPLE_A_ROWS)


def test_parse_matrix_header_mismatch():
    with pytest.raises(ParseError):
        parse_matrix_text("n 3\n" + text_of(EXAMPLE_A_ROWS))


@pytest.mark.parametrize("header", ["n", "n 3 4", "n x", "n 0_4"])
def test_parse_matrix_bad_header(header):
    with pytest.raises(ParseError, match="bad size header"):
        parse_matrix_text(header + "\n" + text_of(EXAMPLE_A_ROWS))


def test_parse_matrix_underscore():
    # int() reads "0_1" as 1; a matrix entry may not
    with pytest.raises(ParseError, match="bad matrix line"):
        parse_matrix_text("0_1 0\n0 1")
    with pytest.raises(ParseError, match="bad matrix line"):
        parse_matrix_text("n 2\n0 1\n1 0_0")


@pytest.mark.parametrize("text", ["+1 0\n0 1", "\u0661 0\n0 1", "n 2\n0 1\n1 \uff10"])
def test_parse_matrix_refuses_non_ascii_integers(text):
    # int() reads "+1", the Arabic-Indic "\u0661" and the fullwidth "\uff10"
    with pytest.raises(ParseError, match="bad matrix line"):
        parse_matrix_text(text)


@pytest.mark.parametrize("header", ["n +2", "n \u0662"])
def test_parse_matrix_refuses_non_ascii_size(header):
    with pytest.raises(ParseError, match="bad size header"):
        parse_matrix_text(header + "\n0 1\n1 0")


@pytest.mark.parametrize("blank", ["", " ", "\t", " \t \x0b\x0c", "\u3000"])
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_parse_matrix_skips_blank_lines(blank, end):
    # a line of whitespace alone is skipped, under a header too, and is
    # not a row the header counts
    rows = [" ".join(map(str, row)) for row in EXAMPLE_A_ROWS]
    lines = [blank, "n 4", blank, rows[0] + " \t", blank, *rows[1:], blank]
    assert parse_matrix_text(end.join(lines)) == validate(EXAMPLE_A_ROWS)
    assert parse_matrix_text(end.join(lines[3:])) == validate(EXAMPLE_A_ROWS)
    with pytest.raises(ParseError, match="header says 4 rows, got 3"):
        parse_matrix_text(end.join(lines[:-2]))
    with pytest.raises(ParseError, match="empty matrix input"):
        parse_matrix_text(end.join([blank, blank]))


@pytest.mark.parametrize(
    "text, message",
    [
        ("  n 3 4\t\r\n0 1\n1 0", "bad size header: '  n 3 4\\t'"),
        ("\tn x \n0 1\n1 0", "bad size header: '\\tn x '"),
        (" 0 1\n\t1  0_0 \r\n", "bad matrix line: '\\t1  0_0 '"),
        ("n 2\n 0\t+1\n1 0", "bad matrix line: ' 0\\t+1'"),
    ],
)
def test_parse_matrix_messages_quote_the_line_as_given(text, message):
    with pytest.raises(ParseError) as info:
        parse_matrix_text(text)
    assert str(info.value) == message


def test_parse_matrix_garbage():
    with pytest.raises(ParseError):
        parse_matrix_text("1 x\n0 1")
    with pytest.raises(ParseError):
        parse_matrix_text("   \n")


def test_parse_permutation_forms():
    w = Permutation.from_images([3, 4, 1, 2])
    assert parse_permutation("3412") == w
    assert parse_permutation("perm:3412") == w
    assert parse_permutation("perm:3,4,1,2") == w
    # comma form is required beyond one digit per value
    assert parse_permutation("perm:10,2,3,4,5,6,7,8,9,1").n == 10


def test_parse_permutation_bad():
    with pytest.raises(ParseError):
        parse_permutation("perm:")
    with pytest.raises(ParseError):
        parse_permutation("perm:3x12")
    for token in ("2,0_1", "perm:1_0,2,3,4,5,6,7,8,9,1", "1_2",
                  "\u0662\u0661", "+2,1", "2,+1", "\u0662,1", "perm:\uff12\uff11"):
        with pytest.raises(ParseError, match="bad permutation"):
            parse_permutation(token)


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["stats", "--perm", "2,0_1"], ""),
        (["stats", "--matrix", "-"], "0_1 0\n0 1\n"),
        (["stats", "--matrix", "-"], "n 0_2\n0 1\n1 0\n"),
    ],
    ids=["perm", "entry", "header"],
)
def test_cli_refuses_underscore_numbers(capsys, monkeypatch, argv, stdin):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert not out and "bad" in err


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["stats", "--perm", "\u0662\u0661"], ""),
        (["stats", "--perm", "+2,1"], ""),
        (["stats", "--matrix", "-"], "\u0661 0\n0 1\n"),
        (["stats", "--matrix", "-"], "+1 0\n0 1\n"),
    ],
    ids=["perm-digits", "perm-plus", "entry-digit", "entry-plus"],
)
def test_cli_refuses_non_ascii_integers(capsys, monkeypatch, argv, stdin):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert not out and "bad" in err


@pytest.mark.parametrize("value", ["\u0665", "+5", "5_0", "\uff15"])
def test_cli_int_options_are_ascii(capsys, value):
    # argparse's usage error, with its own text
    assert run(["count", "--size", value]) == 1
    out, err = capsys.readouterr()
    assert not out and err.endswith(f"asmlat: argument --size: invalid int value: {value!r}\n")


@pytest.mark.parametrize("value", ["+9", "\u0669", "9_0"])
def test_guard_variable_is_ascii(capsys, monkeypatch, value):
    monkeypatch.setenv("ASMLAT_GUARD", value)
    assert run(["enumerate", "--size", "2"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"asmlat: ASMLAT_GUARD={value!r} is not an integer\n")


def test_matrix_text_round_trip(capsys, pools):
    # enumerate writes each matrix of A_1..A_5 as matrix_to_text does
    for n, pool in pools.items():
        assert run(["enumerate", "--size", str(n)]) == 0
        assert capsys.readouterr().out == "".join(matrix_to_text(a) + "\n" for a in pool)
        assert all(parse_matrix(matrix_to_text(a)) == a == parse_matrix(matrix_to_text(a, header=True)) for a in pool)


def test_matrix_json_round_trip(capsys, pools):
    # enumerate lists each matrix of A_1..A_5 as matrix_to_json writes it
    for n, pool in pools.items():
        assert run(["enumerate", "--size", str(n), "--format", "json"]) == 0
        assert capsys.readouterr().out == "[" + ", ".join(map(matrix_to_json, pool)) + "]\n"
        assert all(parse_matrix(matrix_to_json(a)) == a for a in pool)


def test_matrix_json_bad():
    with pytest.raises(ParseError):
        matrix_from_json("[1, 2]")
    with pytest.raises(ParseError):
        matrix_from_json("{not json")


# Fuzzing: every input gives a valid matrix or a domain error, never
# another exception.
_rows = st.lists(st.lists(st.integers(-2, 2), max_size=4), max_size=4)
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "entries", "x"]), kids, max_size=3),
    max_leaves=20,
)
_tokens = st.text(max_size=12) | st.text("0123456789,-_+\u0661: perm", max_size=12)


def _valid_or_domain_error(parse, arg):
    try:
        a = parse(arg)
    except AsmError:
        return
    assert validate(a.entries) == a


@settings(deadline=None)
@given(
    st.text(max_size=40)
    | st.text("01-_+\u0661 \nn", max_size=40)
    | st.tuples(st.integers(-1, 5), _rows).map(lambda t: f"n {t[0]}\n" + text_of(t[1]))
)
def test_fuzz_parse_matrix_text(text):
    _valid_or_domain_error(parse_matrix_text, text)


@settings(deadline=None)
@given(st.text(max_size=40) | _json.map(json.dumps))
@example("1" * 5000)
@example("[" * 100_000)
def test_fuzz_matrix_from_json(text):
    _valid_or_domain_error(matrix_from_json, text)


@settings(deadline=None)
@given(_tokens)
@example("²")
def test_fuzz_parse_permutation(token):
    _valid_or_domain_error(lambda t: from_permutation(parse_permutation(t)), token)


@settings(deadline=None)
@given(st.sampled_from(["stats", "covers"]), _tokens)
@example("stats", "²")
def test_fuzz_cli_perm(command, token):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert run([command, "--perm", token]) in (0, 1, 2)


# The ASCII reader against the int() reader it replaced: on text made of
# ASCII digits, "-", spaces, newlines and "n" headers, int() reads exactly
# the tokens -?[0-9]+, so both give the same matrix or the same error.

def int_reader(text):
    """parse_matrix_text as it was with int() for every entry and size."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty matrix input")
    first = lines[0].split()
    if first and first[0] == "n":
        if len(first) != 2:
            raise ParseError(f"bad size header: {lines[0]!r}")
        try:
            n = int(first[1])
        except ValueError:
            raise ParseError(f"bad size header: {lines[0]!r}") from None
        lines = lines[1:]
        if len(lines) != n:
            raise ParseError(f"header says {n} rows, got {len(lines)}")
    rows = []
    for ln in lines:
        try:
            rows.append(list(map(int, ln.split())))
        except ValueError:
            raise ParseError(f"bad matrix line: {ln!r}") from None
    return validate(rows)


_POOL = {n: walked_asms(n) for n in range(1, 5)}
_SPELLINGS = {0: ["0", "00", "-0"], 1: ["1", "01"], -1: ["-1", "-01"]}
_ascii_token = st.text("0123456789-", min_size=1, max_size=3)
_replacement = st.sampled_from(["-1", "0", "1"]) | _ascii_token


@st.composite
def _ascii_matrix_texts(draw):
    """An ASM of size <= 4 spelled in ASCII tokens, about one entry in ten
    replaced by another entry or any token, under no header or a header of
    any token."""
    rows = draw(st.sampled_from(_POOL[draw(st.integers(1, 4))])).entries
    lines = [
        draw(st.sampled_from([" ", "  "])).join(
            draw(st.sampled_from(_SPELLINGS[v]) if draw(st.integers(0, 9)) else _replacement)
            for v in row
        )
        for row in rows
    ]
    header = draw(st.none() | st.integers(0, 5).map(str) | _ascii_token)
    if header is not None:
        lines.insert(0, f"n {header}")
    return draw(st.sampled_from(["\n", "\n \n"])).join(lines)


@seed(2019)
@settings(deadline=None, max_examples=400)
@given(
    _ascii_matrix_texts()
    | st.text("0123456789- \n", max_size=40)
    | st.text("01- \n", max_size=40).map(lambda t: "n 2\n" + t)
)
def test_parse_matrix_text_matches_int_reader(text):
    assert outcome(parse_matrix_text, text) == outcome(int_reader, text)


def _malformed_texts(rng, count):
    """Texts of ASMs of size <= 4 in ASCII: about one token in eight
    replaced, a line sometimes dropped or doubled, under no header, a true
    one or a false one, with blank lines and spacing that vary."""
    tokens = ["0", "1", "-1", "2", "-2", "01", "-0", "00", "1-", "-", "n"]
    for _ in range(count):
        rows = rng.choice(_POOL[rng.randint(1, 4)]).entries
        lines = [
            rng.choice([" ", "  ", "\t"]).join(
                rng.choice(tokens) if rng.random() < 0.125 else str(v) for v in row
            )
            for row in rows
        ]
        if rng.random() < 0.2:
            i = rng.randrange(len(lines))
            lines[i:i + 1] = rng.choice([[], [lines[i]] * 2])
        header = rng.choice([None, None, str(len(rows)), str(len(rows) + 1), "x", "2 2"])
        if header is not None:
            lines.insert(0, f"n {header}")
        if rng.random() < 0.2:
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", " ", "\t"]))
        yield "\n".join(lines) + rng.choice(["", "\n"])


def test_parse_matrix_text_answers_alike_with_a_cold_or_warm_memo():
    # the int() reader's matrix or its exact error, whether the line and
    # row memos are emptied before each text, hold the lines of the same
    # text, or hold those of every text before
    texts = list(_malformed_texts(random.Random(30), 3000))
    want = [outcome(int_reader, text) for text in texts]
    assert sum(isinstance(w, tuple) for w in want) > 1000
    assert sum(not isinstance(w, tuple) for w in want) > 500
    for text, w in zip(texts, want):
        clear_row_memos()
        assert outcome(parse_matrix_text, text) == w, text
        assert outcome(parse_matrix_text, text) == w, text
    for text, w in zip(texts, want):
        assert outcome(parse_matrix_text, text) == w, text
    # only lines of entry tokens were stored, each with its own row
    assert asmlat_io._LINES
    for line, row in asmlat_io._LINES.items():
        assert set(line.split()) <= {"0", "1", "-1"} and row == tuple(map(int, line.split()))


def test_line_memo_stays_within_its_bound():
    # 2^13 distinct lines of 14 tokens, more entries than the bound
    clear_row_memos()
    seen = []
    for k in range(1 << 13):
        tokens = ["1" if k >> j & 1 else "0" for j in range(14)]
        asmlat_io._row(" ".join(tokens), tokens)
        seen.append(len(asmlat_io._LINES))
        assert asmlat_io._LINES.held <= core._HELD
    assert max(seen) == core._HELD // 14
    # a header, a blank line and a line with a token that is not an entry
    # are never stored
    clear_row_memos()
    parse_matrix_text("n 2\n1 0\n \n0 1\n")
    with pytest.raises(EntryOutOfRange):
        parse_matrix_text("1 02\n0 1\n")
    with pytest.raises(ParseError):
        parse_matrix_text("1 0\n0 x\n")
    assert set(asmlat_io._LINES) == {"1 0", "0 1"}
