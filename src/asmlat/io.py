"""Text and JSON formats for matrices, permutations and cover graphs.

Matrix text format: an optional first line "n <size>", then n lines of n
whitespace-separated integers.  Permutation shorthand: "perm:<images>"
with comma-separated images, or a digits-only string when n <= 9
(e.g. "perm:3412").  JSON: {"n": int, "entries": [[int]]}.

Every integer in a text, whether an entry, a size or an image, is an
ASCII token ``-?[0-9]+`` (:func:`read_int`): ``int()`` alone would also
read "+1", "0_1" and non-ASCII digits such as "١".  A matrix line whose
tokens are all ``0``, ``1`` or ``-1`` is kept with its row in a bounded
memo (``_LINES``, a ``core._RowMemo``), so the reader does not split a
line it has seen; any other line is split and read each time.

Every writer spells a row one way, as text and as JSON, and the commands'
writers stream, each write bounded: ``enumerate`` joins its matrices and
a hasse writer its nodes 16,384 to a write, and a hasse writer formats
its edges a block of up to 16,384 at a time, one ``%`` per block, each
block a write of its own.
"""

from __future__ import annotations

import json
import re
import sys
from itertools import chain, islice
from typing import TYPE_CHECKING, Iterable, Iterator

from .core import Asm, AsmError, NotSquare, Permutation, _checked, _RowMemo, validate

if TYPE_CHECKING:  # for _Node alone: io needs nothing of stats at run time
    from .stats import StatRecord


class ParseError(AsmError):
    pass


_INT = re.compile(r"-?[0-9]+")

# The tokens of a well-formed matrix line; any other token sends the line
# to read_int, which reads it or rejects it.
_ENTRY = {"0": 0, "1": 1, "-1": -1}
# Each matrix line of entry tokens alone, as given, keyed to its row;
# bounded like core's row memo.
_LINES = _RowMemo()


def read_int(token: str) -> int:
    """``token``, surrounding whitespace aside, as an ASCII integer
    ``-?[0-9]+``; ValueError for anything else."""
    t = token.strip()
    if not _INT.fullmatch(t):
        raise ValueError(f"not an ASCII integer: {token!r}")
    return int(t)  # ValueError too past sys.get_int_max_str_digits()


def parse_matrix(text: str) -> Asm:
    """A matrix in JSON if its first non-space character is "{", else in the text format."""
    if text.lstrip().startswith("{"):
        return matrix_from_json(text)
    return parse_matrix_text(text)


def parse_matrix_text(text: str) -> Asm:
    """A matrix in the text format.  A line with no tokens is skipped,
    and the messages quote a line as given: a bad header is reported
    first, then a row count other than the header's, then the first bad
    line.  A line seen before whose tokens are all entries is read from
    ``_LINES`` unsplit; any other line is split once, and its tokens go
    through ``_ENTRY``, else through :func:`read_int`."""
    rows, n, bad = [], None, None
    known = _LINES.get
    for ln in text.splitlines():
        row = known(ln)
        if row is None:
            tokens = ln.split()
            if not tokens:
                continue
            if tokens[0] == "n" and n is None and not rows:  # the first line with tokens
                n = _size(ln, tokens)
                continue
            row = _row(ln, tokens)
            if row is None and bad is None:
                bad = ln
        rows.append(row)
    if n is None and not rows:
        raise ParseError("empty matrix input")
    if n is not None and len(rows) != n:
        raise ParseError(f"header says {n} rows, got {len(rows)}")
    if bad is not None:
        raise ParseError(f"bad matrix line: {bad!r}")
    # the rows are tuples of ints already: only the matrix checks are left
    return _checked(tuple(rows))


def _size(line: str, tokens: list[str]) -> int:
    """The size a header line ``n <size>`` gives."""
    if len(tokens) != 2:
        raise ParseError(f"bad size header: {line!r}")
    try:
        return read_int(tokens[1])
    except ValueError:
        raise ParseError(f"bad size header: {line!r}") from None


def _row(line: str, tokens: list[str]) -> tuple[int, ...] | None:
    """A matrix line's row, kept in ``_LINES`` when every token is an
    entry; None for a line with a token that is not an integer."""
    try:
        return _LINES.keep(line, tuple(map(_ENTRY.__getitem__, tokens)), len(tokens))
    except KeyError:
        try:
            return tuple(map(read_int, tokens))
        except ValueError:
            return None


def parse_permutation(token: str) -> Permutation:
    """Parse "3412", "3,4,1,2" or the prefixed form "perm:3412"."""
    body = token.removeprefix("perm:").strip()
    if not body:
        raise ParseError("empty permutation")
    if "," in body:
        try:
            images = [read_int(x) for x in body.split(",")]
        except ValueError:
            raise ParseError(f"bad permutation {token!r}") from None
    elif body.isascii() and body.isdigit():
        images = [int(ch) for ch in body]
    else:
        raise ParseError(f"bad permutation {token!r}")
    return Permutation.from_images(images)


def matrix_from_json(text: str) -> Asm:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # over-long integers, deep nesting
        raise ParseError(f"bad JSON: {exc}") from None
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ParseError('JSON matrix must be {"n": int, "entries": [[int]]}')
    a = validate(obj["entries"])
    if "n" in obj and (type(obj["n"]) is not int or obj["n"] != a.n):
        raise NotSquare(f'JSON "n" = {obj["n"]} but matrix has size {a.n}')
    return a


_JSON_HEAD = '{"n": %d, "entries": ['  # a matrix's JSON: this, its _json_rows joined by ", ", "]}"


def _json_row(row: tuple[int, ...]) -> str:
    return json.dumps(list(row))


def _row_text(row: tuple[int, ...]) -> str:  # as str(Asm) prints it
    return " ".join(map(str, row))


def matrix_to_text(a: Asm, header: bool = False) -> str:
    return (f"n {a.n}\n" if header else "") + f"{a}\n"


def matrix_to_json(a: Asm) -> str:
    return _JSON_HEAD % a.n + ", ".join(map(_json_row, a.entries)) + "]}"


class _Texts(dict):
    """Each key's text, made by ``make`` on first use and kept: a graph's
    nodes share a few distinct rows and records."""

    def __init__(self, make) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key) -> str:
        text = self[key] = self.make(key)
        return text


def _listed(items: Iterator[str]) -> Iterator[str]:
    """The items of a JSON list as pieces, each after the first behind
    its ", "."""
    for first in items:
        yield first
        # the rest: the loop ends with them
        yield from map(", ".__add__, items)


# the most pieces, lines or list items one write holds
_BATCH = 16384


def _batched(pieces: Iterable[str]) -> Iterator[str]:
    """The pieces joined ``_BATCH`` at a time: one write per piece is
    slower than one per batch."""
    pieces = iter(pieces)
    while chunk := "".join(islice(pieces, _BATCH)):
        yield chunk


def _blocks(fmt: str, edges: Iterable[_Edge]) -> Iterator[str]:
    """The edges, each formatted by ``fmt``, ``_BATCH`` at a time with one
    ``%`` per block: one ``%`` per edge is slower."""
    edges = iter(edges)
    while block := tuple(islice(edges, _BATCH)):
        yield (fmt * len(block)) % tuple(chain.from_iterable(block))


def _write(chunks: Iterable[str]) -> None:
    """Write the chunks to stdout one by one, each already bounded: the
    whole text of a large output outweighs what it is made from."""
    write = sys.stdout.write
    for chunk in chunks:
        write(chunk)


def _write_matrices(n: int, matrices: Iterable[Asm], fmt: str) -> None:
    """``enumerate``'s output: a JSON list of matrix_to_json texts, or matrix_to_text blocks."""
    if fmt == "json":
        rows, item = _Texts(_json_row).__getitem__, _JSON_HEAD % n + "%s]}"
        items = (item % ", ".join(map(rows, a.entries)) for a in matrices)
        _write(_batched(chain(("[",), _listed(items), ("]\n",))))
    else:
        rows = _Texts(lambda row: _row_text(row) + "\n").__getitem__
        _write(_batched("".join(map(rows, a.entries)) + "\n" for a in matrices))


# a matrix's rows, and a node and an edge as the graph writers take them
_Rows = tuple[tuple[int, ...], ...]
_Node = tuple[_Rows, "StatRecord", bool]  # rows, record, join_irreducible
_Edge = tuple[int, int, int]  # lower, upper, cover type


def _write_hasse(n: int, nodes: Iterable[_Node], edges: Iterable[_Edge], fmt: str, highlight_ji: bool) -> None:
    """``hasse``'s output, DOT or JSON."""
    _write(_dot_chunks(n, nodes, edges, highlight_ji) if fmt == "dot" else _json_chunks(n, nodes, edges))


def _dot_chunks(n: int, nodes: Iterable[_Node], edges: Iterable[_Edge], highlight_ji: bool) -> Iterator[str]:
    """The DOT text of a size-n cover graph in chunks of at most
    ``_BATCH`` lines, so a writer need not hold the whole text.  ``nodes``
    are (rows, record, join_irreducible) in index order, ``edges`` are
    (lower, upper, cover type)."""
    yield from _batched(_dot_nodes(n, nodes, highlight_ji))
    yield from _blocks('  a%d -> a%d [label="t%d"];\n', edges)
    yield "}\n"


def _dot_nodes(n: int, nodes: Iterable[_Node], highlight_ji: bool) -> Iterator[str]:
    """The DOT graph's head, then one line per node, each with its
    newline.  A node's label is a permutation in one-line notation, as
    ``core.Permutation`` prints it, or any other matrix row by row."""
    yield f"digraph asm_lattice_{n} {{\n  rankdir=BT;\n  node [shape=box];\n"
    digit = _Texts(lambda row: str(row.index(1) + 1)).__getitem__
    entries = _Texts(_row_text).__getitem__
    comma = "," if n > 9 else ""
    filled = ", style=filled" if highlight_ji else ""
    for idx, (rows, record, join_irreducible) in enumerate(nodes):
        if record.minus:
            label = "|".join(map(entries, rows))
        else:
            label = comma.join(map(digit, rows))
        yield '  a%d [label="%s"%s];\n' % (idx, label, filled if join_irreducible else "")


def _json_chunks(n: int, nodes: Iterable[_Node], edges: Iterable[_Edge]) -> Iterator[str]:
    """The text of ``json.dumps(HasseGraph.to_json_dict())`` and a newline
    for the same nodes and edges as :func:`_dot_chunks` takes, in chunks
    of at most ``_BATCH`` nodes or edges, so a writer need not hold it
    whole; each distinct row's and record's text is made once."""
    rows_text = _Texts(_json_row).__getitem__
    stats = _Texts(lambda record: json.dumps(record.to_json_dict())).__getitem__
    matrix = '{"matrix": ' + _JSON_HEAD % n
    nodes = _listed(
        f'{matrix}{", ".join(map(rows_text, rows))}]}}, "stats": {stats(record)}, '
        f'"join_irreducible": {"true" if join_irreducible else "false"}}}'
        for rows, record, join_irreducible in nodes
    )
    yield from _batched(chain(('{"n": %d, "nodes": [' % n,), nodes, ('], "edges": [',)))
    blocks = _blocks(', {"lower": %d, "upper": %d, "type": %d}', edges)
    for first in blocks:
        yield first[2:]  # the first edge has no ", " before it
        yield from blocks
    yield "]}\n"
