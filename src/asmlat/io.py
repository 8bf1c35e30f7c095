"""Text and JSON formats for matrices and permutations.

Matrix text format: an optional first line "n <size>", then n lines of n
whitespace-separated integers.  Permutation shorthand: "perm:<images>"
with comma-separated images, or a digits-only string when n <= 9
(e.g. "perm:3412").  JSON: {"n": int, "entries": [[int]]}.

Every integer in a text, whether an entry, a size or an image, is an
ASCII token ``-?[0-9]+`` (:func:`read_int`): ``int()`` alone would also
read "+1", "0_1" and non-ASCII digits such as "١".
"""

from __future__ import annotations

import json
import re

from .core import Asm, AsmError, NotSquare, Permutation, from_permutation, validate


class ParseError(AsmError):
    pass


_INT = re.compile(r"-?[0-9]+")

# The tokens of a well-formed matrix line; any other token sends the line
# to read_int, which reads it or rejects it.
_ENTRY = {"0": 0, "1": 1, "-1": -1}


def read_int(token: str) -> int:
    """``token``, surrounding whitespace aside, as an ASCII integer
    ``-?[0-9]+``; ValueError for anything else."""
    t = token.strip()
    if not _INT.fullmatch(t):
        raise ValueError(f"not an ASCII integer: {token!r}")
    return int(t)  # ValueError too past sys.get_int_max_str_digits()


def parse_matrix_text(text: str) -> Asm:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty matrix input")
    first = lines[0].split()
    if first and first[0] == "n":
        if len(first) != 2:
            raise ParseError(f"bad size header: {lines[0]!r}")
        try:
            n = read_int(first[1])
        except ValueError:
            raise ParseError(f"bad size header: {lines[0]!r}") from None
        lines = lines[1:]
        if len(lines) != n:
            raise ParseError(f"header says {n} rows, got {len(lines)}")
    rows = []
    for ln in lines:
        try:
            rows.append(tuple(map(_ENTRY.__getitem__, ln.split())))
        except KeyError:
            try:
                rows.append(tuple(map(read_int, ln.split())))
            except ValueError:
                raise ParseError(f"bad matrix line: {ln!r}") from None
    return validate(rows)


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


def parse_matrix_or_perm(token: str) -> Asm:
    if token.startswith("perm:"):
        return from_permutation(parse_permutation(token))
    return parse_matrix_text(token)


def matrix_to_text(a: Asm, header: bool = False) -> str:
    lines = [f"n {a.n}"] if header else []
    lines += [" ".join(str(v) for v in row) for row in a.entries]
    return "\n".join(lines) + "\n"


def matrix_to_json(a: Asm) -> str:
    return json.dumps(a.to_json_dict())


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
