"""The four workloads, each a list of operations that make one pass.

An operation is one call into asmlat: a CLI command through
asmlat.cli.run with its output captured, a library call, or one query
request.  Each carries a check against the seed commit's recorded output
(expected.json) or against the independent reference in reference.py.
Operations are built without asmlat and take the asmlat modules when
called, so every pass can run on a fresh import, and asmlat functions are
looked up on their modules at call time, so the traced pass calls the
tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import reference as ref

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Sizes per scale.  "full" is what the benchmark measures; "small" keeps
# every n <= 4 for the smoke test.
SIZES = {
    "full": {"hasse": 5, "genfun": 6, "perm": 7, "queries": (6, 8, 10), "verify": 5, "per_kind": 30, "table": 6},
    "small": {"hasse": 4, "genfun": 4, "perm": 4, "queries": (2, 3, 4), "verify": 4, "per_kind": 10, "table": 4},
}
GENFUN_ARGS = {
    "I": ["--stat", "I"],
    "H": ["--stat", "H"],
    "beta": ["--stat", "beta"],
    "I:beta": ["--bivariate", "I:beta"],
}
QUERY_KINDS = ("parse", "stat_record", "covers_up", "covers_down", "compare", "join", "meet")
PAIR_KINDS = ("compare", "join", "meet")
MALFORMED_SHARE = 10  # one request in ten carries a malformed matrix


class WrongOutput(Exception):
    pass


@dataclass
class Op:
    label: str
    # takes the asmlat modules as one namespace (m.core, m.poset, ...)
    call: Callable[[object], object]
    # returns the work units done (see items_per_s) or raises WrongOutput
    check: Callable[[object], int]
    # the name of the asmlat.core exception the call must raise
    expect_error: Optional[str] = None
    # operations with one group are reported as one (a suite over its sizes)
    group: Optional[str] = None


def run_cli(m, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = m.cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_output(res) -> str:
    code, out, err = res
    if code != 0:
        raise WrongOutput(f"exit code {code}: {err.strip()[:200]}")
    return out


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise WrongOutput(msg)


def load_expected(path=EXPECTED_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


# -- hasse ---------------------------------------------------------------

_DOT_NODE = re.compile(r"^  a\d+ \[", re.M)


def hasse_ops(seed, scale, expected):
    n = SIZES[scale]["hasse"]
    want = expected[scale]["hasse"]
    nodes = ref.count_asms(n)

    def check(fmt):
        def run(res):
            out = _cli_output(res)
            digest = hashlib.sha256(out.encode()).hexdigest()
            _require(digest == want[fmt], f"hasse {fmt} digest {digest} != {want[fmt]}")
            got = len(_DOT_NODE.findall(out)) if fmt == "dot" else out.count('"join_irreducible":')
            _require(got == nodes, f"hasse {fmt} has {got} nodes, expected {nodes}")
            return got
        return run

    return [
        Op(f"hasse-{fmt}", lambda m, fmt=fmt: run_cli(m, ["hasse", "--size", str(n), "--output", fmt]),
           check(fmt))
        for fmt in ("dot", "json")
    ]


# -- genfun --------------------------------------------------------------

def genfun_ops(seed, scale, expected):
    n, p = SIZES[scale]["genfun"], SIZES[scale]["perm"]
    want = expected[scale]["genfun"]

    def check(key, total):
        def run(res):
            out = _cli_output(res).strip()
            _require(out == want[key], f"genfun {key} printed {out[:80]!r}...")
            _require(ref.coefficient_sum(out) == total, f"genfun {key} coefficients do not sum to {total}")
            return total
        return run

    def check_signed(res):
        ok, lhs, _ = res
        _require(ok is True, "signed identity reported False")
        _require(str(lhs) == want["signed"], "signed identity left side differs")
        _require(p < 2 or ref.coefficient_sum(str(lhs)) == 0, "signed sum at q=1 is not 0")
        return math.factorial(p)

    ops = [
        Op(f"genfun-{key}", lambda m, a=args: run_cli(m, ["genfun", "--size", str(n), *a]),
           check(key, ref.count_asms(n)))
        for key, args in GENFUN_ARGS.items()
    ]
    ops.append(Op("genfun-perm-beta",
                  lambda m: run_cli(m, ["genfun", "--size", str(p), "--over", "perm", "--stat", "beta"]),
                  check("perm-beta", math.factorial(p))))
    ops.append(Op("signed-identity", lambda m: m.enumeration.signed_identity_check(p), check_signed))
    return ops


# -- verify --------------------------------------------------------------

def _suite(m, name):
    return next(fn for suite, _, fn in m.verify.SUITES if suite == name)


def verify_ops(seed, scale, expected):
    """One operation per registry suite and size, as verify(n_max) runs them."""

    def check(name, n, want):
        def run(res):
            checked, failures = res
            if failures:
                raise WrongOutput(f"{name} at n={n} failed: {str(failures[0])[:200]}")
            _require(checked == want, f"{name} at n={n} checked {checked}, expected {want}")
            return checked
        return run

    return [
        Op(f"{name}-n{n}", lambda m, name=name, n=n: _suite(m, name)(n), check(name, n, want), group=name)
        for name, counts in expected[scale]["verify"].items()
        for n, want in enumerate(counts, 1)
    ]


# -- queries -------------------------------------------------------------

def _text(rows, rng, header_n=None) -> str:
    lines = [" ".join(str(v) for v in row) for row in rows]
    if header_n is not None or rng.random() < 0.5:
        lines.insert(0, f"n {header_n if header_n is not None else len(rows)}")
    return "\n".join(lines) + "\n"


def _malformed(rows, rng) -> str:
    """An integer matrix that is not an ASM, or a text whose header lies."""
    rows = [list(row) for row in rows]
    kind = rng.randrange(3)
    if kind == 2:
        return _text(rows, rng, header_n=len(rows) + 1)
    i = rng.randrange(len(rows))
    if kind == 0:
        j = rng.randrange(len(rows))
        rows[i][j] = rng.choice([v for v in (-1, 0, 1, 2) if v != rows[i][j]])
    else:
        rows[i].pop()
    if ref.is_asm(rows):
        raise AssertionError("malformed-matrix generator produced an ASM")
    return _text(rows, rng)


def _answer(kind, x, y):
    if kind == "parse":
        return x
    if kind == "stat_record":
        return ref.stat_record(x)
    if kind in ("covers_up", "covers_down"):
        return ref.covers(x, up=kind == "covers_up")
    return getattr(ref, kind)(x, y)


def _result_view(kind, res):
    """The parts of asmlat's answer that the reference predicts."""
    if kind == "stat_record":
        return res.to_json_dict()
    if kind in ("covers_up", "covers_down"):
        return [(e.to_json_dict(), e.lower.entries, e.upper.entries) for e in res]
    if kind == "compare":
        return res.value
    return res.entries


def handle(m, kind, texts):
    """Serve one request: parse the matrix text(s), then answer."""
    a = m.io.parse_matrix_text(texts[0])
    if kind == "parse":
        return a
    if kind == "stat_record":
        return m.stats.stat_record(a)
    if kind == "covers_up":
        return m.poset.covers_up(a)
    if kind == "covers_down":
        return m.poset.covers_down(a)
    b = m.io.parse_matrix_text(texts[1])
    return getattr(m.poset, kind)(a, b)


def _query_plan(seed, scale):
    """The requests as (n, kind, malformed, x, y, texts), in seeded order:
    per_kind of every kind at every size, one in ten malformed.  The mix is
    equal because nothing in asmlat or its callers fixes one.  x and y are
    drawn independently, so whether a pair is comparable is left to chance
    (see comparable_share)."""
    rng = random.Random(seed)
    per_kind = SIZES[scale]["per_kind"]
    plan = []
    for n in SIZES[scale]["queries"]:
        for kind in QUERY_KINDS:
            bad = set(rng.sample(range(per_kind), per_kind // MALFORMED_SHARE))
            plan += [(n, kind, k in bad) for k in range(per_kind)]
    rng.shuffle(plan)
    out = []
    for n, kind, bad in plan:
        x, y = ref.random_asm(n, rng), None
        texts = [_text(x, rng)]
        if kind in PAIR_KINDS:
            y = ref.random_asm(n, rng)
            texts.append(_text(y, rng))
        if bad:
            texts[rng.randrange(len(texts))] = _malformed(x, rng)
        out.append((n, kind, bad, x, y, texts))
    return out


def query_ops(seed, scale, expected):
    ops = []
    for n, kind, bad, x, y, texts in _query_plan(seed, scale):
        if bad:
            ops.append(Op(f"{kind}-n{n}-malformed", lambda m, k=kind, t=texts: handle(m, k, t),
                          lambda res: 1, expect_error="AsmError"))
            continue
        want = _answer(kind, x, y)

        def check(res, kind=kind, want=want, n=n):
            _require(_result_view(kind, res) == want, f"{kind} on n={n} differs from the reference")
            return 1

        ops.append(Op(f"{kind}-n{n}", lambda m, k=kind, t=texts: handle(m, k, t), check))
    return ops


def comparable_share(seed, scale) -> dict:
    """Per size, the share of well-formed compare/join/meet pairs that are
    comparable, by the reference."""
    pairs = {}
    for n, kind, bad, x, y, _ in _query_plan(seed, scale):
        if kind in PAIR_KINDS and not bad:
            pairs.setdefault(n, []).append(ref.compare(x, y) != "incomparable")
    return {str(n): sum(v) / len(v) for n, v in sorted(pairs.items())}


WORKLOADS = {"hasse": hasse_ops, "genfun": genfun_ops, "queries": query_ops, "verify": verify_ops}
# workloads whose operations are single requests, so that per-request
# latency percentiles apply
REQUEST_WORKLOADS = {"queries"}


# -- the ROADMAP baseline table ------------------------------------------

def baseline_rows(fresh, scale, seed) -> dict:
    """Untraced timings of the ROADMAP baseline rows, each on a fresh
    import of asmlat that fresh() returns, so no row finds another's
    caches warm; None where the function a row times no longer exists."""
    n = SIZES[scale]["table"]
    rows = {}
    entries = [a.entries for a in fresh().enumeration.iter_asms(n)]
    rng = random.Random(seed)
    pairs = [(rng.randrange(len(entries)), rng.randrange(len(entries))) for _ in range(2000)]

    def timed(name, layer, fn_name, body, on_universe=False):
        m = fresh()
        fn = getattr(getattr(m, layer), fn_name, None)
        if fn is None:
            rows[name] = None
            return
        # A_n as matrices of this import, made before the clock starts
        args = ([m.core.validate(e) for e in entries],) if on_universe else ()
        t0 = time.perf_counter()
        body(fn, *args)
        rows[name] = time.perf_counter() - t0

    timed("baseline.iter_asms_s", "enumeration", "iter_asms", lambda f: list(f(n)))
    timed("baseline.stat_record_all_s", "stats", "stat_record", lambda f, u: [f(a) for a in u], True)
    timed("baseline.covers_up_all_s", "poset", "covers_up", lambda f, u: [f(a) for a in u], True)
    timed("baseline.genfun_I_s", "enumeration", "genfun_stat", lambda f: f(n, "I"))
    timed("baseline.join_s", "poset", "join", lambda f, u: [f(u[i], u[j]) for i, j in pairs], True)
    timed("baseline.compare_s", "poset", "compare", lambda f, u: [f(u[i], u[j]) for i, j in pairs], True)
    timed("baseline.build_hasse_s", "enumeration", "build_hasse", lambda f: f(n))
    timed("baseline.verify_s", "verify", "verify", lambda f: f(SIZES[scale]["verify"]))
    return rows
