"""Command line front end.

Subcommands: enumerate, count, stats, covers, hasse, genfun, verify.
Exit codes: 0 success, 1 usage error, 2 domain error (invalid matrix or
arguments out of domain), 3 enumeration guard exceeded, 4 verification
failure, 141 stdout closed by its reader.  Each command loads its input,
makes one library call and hands the result to its writer in ``io``,
which spells every line: human-readable by default, or with --format
json the JSON schemas listed in README.md.
``run`` builds only the parser of the command it runs, on that command's
first call, and reuses it for the rest of the process.  The full parser,
with every command as a subparser, is built only when the arguments do
not start with a command, or to report leftover arguments in its words.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Callable, NamedTuple, Optional

from . import enumeration, io, poset
from .verify import verify as run_verify
from .core import Asm, AsmError, from_permutation
from .enumeration import TooLarge
from .stats import stat_record

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_GUARD = 3
EXIT_VERIFY = 4
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a pipe closed early


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors -> exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


@functools.cache
def _build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """One command's parser, or with no command the full parser, each
    command a subparser; both add their arguments from ``_COMMANDS``."""
    if command is not None:
        p = _Parser(prog=f"asmlat {command}")
        _COMMANDS[command].add_arguments(p)
        p.set_defaults(command=command)
        return p
    p = _Parser(prog="asmlat", description=__doc__.strip().splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return p


def _int(text: str) -> int:
    return io.read_int(text)


_int.__name__ = "int"  # argparse names the type in "invalid int value: ..."


def _enumerate_args(sp) -> None:
    sp.add_argument("--size", type=_int, required=True)
    sp.add_argument("--format", choices=["lines", "json"], default="lines")
    sp.add_argument("--guard", type=_int, default=None)


def _count_args(sp) -> None:
    sp.add_argument("--size", type=_int, required=True)
    sp.add_argument("--method", choices=["formula", "enumerate"], default="formula")
    sp.add_argument("--guard", type=_int, default=None)


def _stats_args(sp) -> None:
    _add_matrix_args(sp)
    sp.add_argument("--format", choices=["human", "json"], default="human")


def _covers_args(sp) -> None:
    _add_matrix_args(sp)
    direction = sp.add_mutually_exclusive_group()
    direction.add_argument("--up", action="store_true")
    direction.add_argument("--down", action="store_true")
    sp.add_argument("--format", choices=["human", "json"], default="human")


def _hasse_args(sp) -> None:
    sp.add_argument("--size", type=_int, required=True)
    sp.add_argument("--output", choices=["dot", "json"], required=True)
    sp.add_argument("--highlight-ji", action="store_true")
    sp.add_argument("--guard", type=_int, default=None)


def _genfun_args(sp) -> None:
    sp.add_argument("--size", type=_int, required=True)
    what = sp.add_mutually_exclusive_group(required=True)
    what.add_argument("--stat", choices=enumeration._STATS)
    what.add_argument("--bivariate", choices=enumeration._PAIRS)
    sp.add_argument("--over", choices=enumeration._UNIVERSES, default="asm")
    sp.add_argument("--format", choices=["human", "json"], default="human")
    sp.add_argument("--guard", type=_int, default=None)


def _verify_args(sp) -> None:
    sp.add_argument("--max", type=_int, required=True, dest="n_max")


def _add_matrix_args(sp) -> None:
    src = sp.add_mutually_exclusive_group(required=True)
    src.add_argument("--matrix", help="file path, or - for stdin")
    src.add_argument("--perm", help="one-line permutation, e.g. 3412 or 3,4,1,2")


def _load_matrix(args) -> Asm:
    if args.perm is not None:
        return from_permutation(io.parse_permutation(args.perm))
    return io.parse_matrix(io._read_utf8(args.matrix))


def _cmd_enumerate(args) -> int:
    enumeration._check_size(args.size, args.guard)
    io._write_matrices(args.size, enumeration.iter_asms(args.size), args.format)
    return EXIT_OK


def _cmd_count(args) -> int:
    if args.method == "formula":
        count = enumeration.count_formula(args.size)
    else:
        # stream the matrices: counting needs none of them kept
        enumeration._check_size(args.size, args.guard)
        count = sum(1 for _ in enumeration.iter_asms(args.size))
    io._write_count(count)
    return EXIT_OK


def _cmd_stats(args) -> int:
    io._write_stats(stat_record(_load_matrix(args)), args.format)
    return EXIT_OK


def _cmd_covers(args) -> int:
    a = _load_matrix(args)
    # with neither flag, both directions
    up = poset.covers_up(a) if args.up or not args.down else []
    down = poset.covers_down(a) if args.down or not args.up else []
    io._write_covers(up, down, args.format)
    return EXIT_OK


def _cmd_hasse(args) -> int:
    # written from the walk's plain node and edge tuples: no Asm, HasseNode
    # or HasseEdge is made
    nodes, edges = enumeration._walk_hasse(args.size, args.guard)
    io._write_hasse(args.size, nodes, edges, args.output, args.highlight_ji)
    return EXIT_OK


def _cmd_genfun(args) -> int:
    # argparse lets exactly one of --stat and --bivariate through
    genfun = enumeration.bivariate_genfun if args.bivariate else enumeration.genfun_stat
    poly = genfun(args.size, args.bivariate or args.stat, over=args.over, limit_guard=args.guard)
    io._write_genfun(poly, args.format)
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = run_verify(args.n_max)
    io._write_report(report)
    return EXIT_OK if report.ok else EXIT_VERIFY


class _Command(NamedTuple):
    help: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    handler: Callable[[argparse.Namespace], int]


_COMMANDS = {
    "enumerate": _Command("list all matrices of one size", _enumerate_args, _cmd_enumerate),
    "count": _Command("how many matrices of one size", _count_args, _cmd_count),
    "stats": _Command("statistics of one matrix", _stats_args, _cmd_stats),
    "covers": _Command("covering neighbours of one matrix", _covers_args, _cmd_covers),
    "hasse": _Command("full cover graph of one size", _hasse_args, _cmd_hasse),
    "genfun": _Command("generating polynomial of a statistic", _genfun_args, _cmd_genfun),
    "verify": _Command("run every structural check", _verify_args, _cmd_verify),
}


def run(argv: list[str]) -> int:
    try:
        if argv and argv[0] in _COMMANDS:
            args, extra = _build_parser(argv[0]).parse_known_args(argv[1:])
            if extra:
                # reported as argparse reports them, under the full usage line
                _build_parser().error("unrecognized arguments: " + " ".join(extra))
        else:
            args = _build_parser().parse_args(argv)
        if "guard" in vars(args):
            args.guard = enumeration.resolve_guard(args.guard)
        return _COMMANDS[args.command].handler(args)
    except _UsageError as exc:
        print(f"asmlat: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_PIPE
    except TooLarge as exc:
        print(f"asmlat: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (AsmError, OSError) as exc:
        print(f"asmlat: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:  # else the exit-time flush fails too and prints "Exception ignored"
        code = EXIT_PIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
