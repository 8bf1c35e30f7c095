import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asmlat import Permutation, from_permutation, validate
from asmlat.cli import run
from asmlat.core import AsmError, EntryOutOfRange, NotSquare
from asmlat.io import (
    ParseError,
    matrix_from_json,
    matrix_to_json,
    matrix_to_text,
    parse_matrix_or_perm,
    parse_matrix_text,
    parse_permutation,
)

from conftest import EXAMPLE_A_ROWS


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
    for token in ("2,0_1", "perm:1_0,2,3,4,5,6,7,8,9,1", "1_2"):
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


def test_parse_matrix_or_perm():
    assert parse_matrix_or_perm("perm:3412") == from_permutation(
        Permutation.from_images([3, 4, 1, 2])
    )
    assert parse_matrix_or_perm(text_of(EXAMPLE_A_ROWS)) == validate(EXAMPLE_A_ROWS)


def test_matrix_text_round_trip():
    a = validate(EXAMPLE_A_ROWS)
    assert parse_matrix_text(matrix_to_text(a)) == a
    assert parse_matrix_text(matrix_to_text(a, header=True)) == a


def test_matrix_json_round_trip():
    a = validate(EXAMPLE_A_ROWS)
    assert matrix_from_json(matrix_to_json(a)) == a


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
_tokens = st.text(max_size=12) | st.text("0123456789,-_: perm", max_size=12)


def _valid_or_domain_error(parse, arg):
    try:
        a = parse(arg)
    except AsmError:
        return
    assert validate(a.entries) == a


@settings(deadline=None)
@given(
    st.text(max_size=40)
    | st.text("01-_ \nn", max_size=40)
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
