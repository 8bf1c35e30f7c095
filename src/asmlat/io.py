"""Text and JSON formats for matrices and permutations.

Matrix text format: an optional first line "n <size>", then n lines of n
whitespace-separated integers.  Permutation shorthand: "perm:<images>"
with comma-separated images, or a digits-only string when n <= 9
(e.g. "perm:3412").  JSON: {"n": int, "entries": [[int]]}.
"""

from __future__ import annotations

import json

from .core import Asm, AsmError, NotSquare, Permutation, from_permutation, validate


class ParseError(AsmError):
    pass


def _plain(text: str) -> str:
    """``text``; ValueError if it holds "_", which int() skips: "0_1" is 1."""
    if "_" in text:
        raise ValueError(text)
    return text


def parse_matrix_text(text: str) -> Asm:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty matrix input")
    first = lines[0].split()
    if first and first[0] == "n":
        if len(first) != 2:
            raise ParseError(f"bad size header: {lines[0]!r}")
        try:
            n = int(_plain(first[1]))
        except ValueError:
            raise ParseError(f"bad size header: {lines[0]!r}") from None
        lines = lines[1:]
        if len(lines) != n:
            raise ParseError(f"header says {n} rows, got {len(lines)}")
    rows = []
    for ln in lines:
        try:
            rows.append(list(map(int, _plain(ln).split())))
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
            images = [int(x) for x in _plain(body).split(",")]
        except ValueError:
            raise ParseError(f"bad permutation {token!r}") from None
    elif body.isdecimal():  # not isdigit: int() rejects "²"
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
