import pytest

from asmlat import Permutation, from_permutation, validate
from asmlat.core import EntryOutOfRange, NotSquare
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
