"""Benchmark of asmlat: one workload per process, stdlib only.

    python3 perfbench/run.py --workload hasse --seed 1 --seconds 20 --trace 0

Imports asmlat from src/ next to this directory, builds the workload's
inputs from --seed and the reference answers (setup, repeated and timed),
then runs passes over the workload's operations until --seconds have
passed, each on a fresh import of asmlat, checking every output.  With
--trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of one traced pass, made after
untraced passes for half of --seconds, and the ROADMAP baseline rows
timed untraced.  The line before it is a JSON
report with sample counts, tail percentiles and the environment.
--workload all runs every workload, each in a fresh process.

Exit status: 0 when every output was right, 1 when one was wrong, 2 when
the benchmark could not run at all (then no result line is printed).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import operator
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# The machine this was tuned on runs at two speeds about 45% apart that
# switch every second or so, and for minutes at a time everything runs up
# to twice as slow.  So every operation is timed against a fixed probe run
# just before it (at most PROBE_EVERY_S earlier): an operation's time is
# the median over the passes of its time over the probe's, times
# PROBE_REF_S, the probe's undisturbed time on that machine.  Set-up
# repeats span at least SETUP_SECONDS and are timed the same way.
PROBE_REF_S = 0.0021
PROBE_EVERY_S = 0.05
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 50
SETUP_SECONDS = 2.0
MAX_FAILURE_LOGS = 5


# A fixed 6 x 6 ASM with three -1 entries.
PROBE_MATRIX = (
    (0, 1, 0, 0, 0, 0),
    (1, -1, 0, 1, 0, 0),
    (0, 1, 0, -1, 1, 0),
    (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, -1, 1),
    (0, 0, 0, 0, 1, 0),
)


def probe() -> float:
    """Seconds taken by fixed pure-Python work in asmlat's style that does
    not touch asmlat: the reference's cover scan of PROBE_MATRIX."""
    t0 = time.perf_counter()
    for _ in range(9):
        reference.covers(PROBE_MATRIX, up=True)
    return time.perf_counter() - t0


def import_asmlat():
    """A fresh import of asmlat from the checkout, so each setup repeat pays
    it and no pass finds state that asmlat kept from an earlier one."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    for name in [k for k in sys.modules if k == "asmlat" or k.startswith("asmlat.")]:
        del sys.modules[name]
    pkg = importlib.import_module("asmlat")
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / "asmlat":
        raise ImportError(f"asmlat imported from {pkg.__file__}, not from {ROOT / 'src'}")
    mods = {}
    for layer in layers.LAYERS:
        try:
            mods[layer] = importlib.import_module(f"asmlat.{layer}")
        except ModuleNotFoundError:
            pass
    return pkg, mods


def fresh_modules():
    """The asmlat modules of a fresh import, as one namespace."""
    return SimpleNamespace(**import_asmlat()[1])


def setup(name, seed, scale, expected_path):
    t0 = time.perf_counter()
    import_asmlat()
    ops = workloads.WORKLOADS[name](seed, scale, workloads.load_expected(expected_path))
    return time.perf_counter() - t0, ops


def run_pass(ops, m, tracer=None, probes=None):
    """One pass of ops on the asmlat modules m: per-op wall and CPU
    seconds, and the results.  With a probes list, appends for each op the
    probe time it is measured against."""
    latencies, cpus, results = [], [], []
    probed_at, last = float("-inf"), None
    gc.collect()
    for rid, op in enumerate(ops):
        if probes is not None:
            if time.perf_counter() - probed_at >= PROBE_EVERY_S:
                last, probed_at = probe(), time.perf_counter()
            probes.append(last)
        if tracer is not None:
            tracer.set_request(rid)
        c, s = time.process_time(), time.perf_counter()
        try:
            res = op.call(m)
        except Exception as exc:  # judged by check_pass, never fatal
            res = exc
        latencies.append(time.perf_counter() - s)
        cpus.append(time.process_time() - c)
        results.append(res)
    if tracer is not None:
        tracer.set_request(-1)
    return latencies, cpus, results


class Tally:
    def __init__(self):
        self.attempted = self.failed = self.logged = 0

    def check_pass(self, ops, results, m) -> int:
        """Check one pass's results on the asmlat modules m; returns the
        work units done."""
        items = 0
        for op, res in zip(ops, results):
            self.attempted += 1
            try:
                if op.expect_error is not None:
                    cls = getattr(m.core, op.expect_error, None)
                    if not (isinstance(cls, type) and isinstance(res, cls)):
                        raise workloads.WrongOutput(f"expected {op.expect_error}, got {res!r:.200}")
                    items += 1
                elif isinstance(res, Exception):
                    tb = "".join(traceback.format_exception(res))
                    raise workloads.WrongOutput(f"unexpected exception\n{tb}")
                else:
                    items += op.check(res)
            except workloads.WrongOutput as exc:
                self.failed += 1
                if self.logged < MAX_FAILURE_LOGS:
                    self.logged += 1
                    print(f"perfbench: {op.label}: {exc}", file=sys.stderr)
        return items


def percentile(sorted_values, q):
    """Linear interpolation between closest ranks, q in [0, 100]."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = (len(sorted_values) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def summary(values) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    s = sorted(values)
    out = {"n": len(s), "median": statistics.median(s), "tail": None}
    for q in (99.9, 99, 95, 90, 75):
        if len(s) * (100 - q) / 100 >= 10:
            out["tail"] = {"q": q, "value": percentile(s, q)}
            break
    return out


def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "asmlat").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure(args):
    env = {
        "python": platform.python_version(), "commit": commit(), "src_sha256": source_digest(),
        "nproc": os.cpu_count(), "seed": args.seed, "workload": args.workload,
        "scale": args.scale, "seconds": args.seconds, "trace": args.trace,
        "loadavg_start": loadavg(),
    }
    setup_times, setup_probes = [], []
    first = time.perf_counter()
    while len(setup_times) < SETUP_MIN_REPEATS or time.perf_counter() - first < SETUP_SECONDS:
        elapsed, ops = setup(args.workload, args.seed, args.scale, args.expected)
        setup_times.append(elapsed)
        setup_probes.append(probe())
        gc.collect()  # drop the previous import's modules before the next
        if len(setup_times) == SETUP_MAX_REPEATS:
            break

    tally = Tally()
    walls, probe_times = [], array("d")
    lat_ratios, cpu_ratios = [array("d") for _ in ops], [array("d") for _ in ops]
    budget = args.seconds / 2 if args.trace else args.seconds
    start = time.perf_counter()
    while True:
        probes = []
        m = fresh_modules()
        lat, op_cpu, results = run_pass(ops, m, probes=probes)
        items = tally.check_pass(ops, results, m)
        del results
        walls.append(sum(lat))
        probe_times.extend(probes)
        for i, p in enumerate(probes):
            lat_ratios[i].append(lat[i] / p)
            cpu_ratios[i].append(op_cpu[i] / p)
        if time.perf_counter() - start >= budget:
            break
    # read before the summaries below allocate in proportion to the passes
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # An operation's time is its median over the passes; wall_s sums them.
    wall_s = sum(statistics.median(r) for r in lat_ratios) * PROBE_REF_S
    if args.workload in workloads.REQUEST_WORKLOADS:
        # per-request latency: every request of every pass
        latencies = [r * PROBE_REF_S for ratios in lat_ratios for r in ratios]
    else:
        # An operation here is a command or a suite of a few ms to 0.5 s, long
        # enough for a speed change of the machine to move one sample by up
        # to 45%: percentiles over the operations' medians, the operations
        # of one group (a suite at every size) counted as one.
        grouped = {}
        for i, (op, ratios) in enumerate(zip(ops, lat_ratios)):
            key = op.group or i
            grouped[key] = grouped.get(key, 0.0) + statistics.median(ratios) * PROBE_REF_S
        latencies = list(grouped.values())
    latencies.sort()
    report = {"env": env, "passes": len(walls), "ops_per_pass": len(ops), "items_per_pass": items,
              "setup_s": summary(setup_times), "setup_probe_s": summary(setup_probes),
              "pass_wall_s": summary(walls), "probe_s": summary(probe_times),
              "speed_factor": PROBE_REF_S / statistics.median(probe_times),
              "op_latency_s": summary(latencies)}
    if args.workload == "queries":
        report["comparable_share"] = workloads.comparable_share(args.seed, args.scale)
    if args.trace:
        metrics, extra = traced(args, ops, tally, statistics.median(walls))
        report.update(extra)
    else:
        metrics = {
            "wall_s": (wall_s, "s"),
            "cpu_s": (sum(statistics.median(r) for r in cpu_ratios) * PROBE_REF_S, "s"),
            "items_per_s": (items / wall_s, "1/s"),
            "op_p50_us": (percentile(latencies, 50) * 1e6, "us"),
            "op_p99_us": (percentile(latencies, 99) * 1e6, "us"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
            "setup_s": (statistics.median(map(operator.truediv, setup_times, setup_probes)) * PROBE_REF_S, "s"),
        }
    env["loadavg_end"] = loadavg()
    report["fail_ratio"] = tally.failed / tally.attempted
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(report))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": report["metrics"]}))
    return 0 if tally.failed == 0 else 1


def traced(args, ops, tally, untraced_wall):
    pkg, mods = import_asmlat()
    m = SimpleNamespace(**mods)
    tracer = Tracer()
    tracer.install(pkg, mods, layers.make_hooks(tracer))
    try:
        lat, _, results = run_pass(ops, m, tracer)
        wall = sum(lat)
    finally:
        tracer.uninstall()
    tally.check_pass(ops, results, m)
    del results
    agg = tracer.aggregate()
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{args.workload}.spans",
                 {"workload": args.workload, "seed": args.seed, "scale": args.scale})
    suites = list(workloads.load_expected(args.expected)["full"]["verify"])
    baseline = workloads.baseline_rows(fresh_modules, args.scale, args.seed)
    metrics, absent = layers.derive(agg, tracer.counters, tracer.wrapped, suites, baseline,
                                    wall, untraced_wall)
    top = sorted(agg["per_name"].items(), key=lambda kv: -kv[1][2])[:25]
    build = {child: round(t, 6) for (parent, child), t in agg["edges"].items()
             if parent == layers.BUILD}
    extra = {"traced_wall_s": wall, "absent": absent, "counters": tracer.counters,
             "top_self": {name: {"calls": c, "incl_s": round(i, 6), "self_s": round(s, 6)}
                          for name, (c, i, s) in top},
             "build_hasse_children_s": build}
    return metrics, extra


def run_all(args):
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
        if args.expected:
            cmd += ["--expected", str(args.expected)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode == 2 or not lines:
            return 2
        result = json.loads(lines[-1])
        print(f"{name}: " + ", ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()))
        status = max(status, proc.returncode)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", choices=sorted(workloads.SIZES), default="full",
                   help="'small' keeps every size at 4 or less (smoke test)")
    p.add_argument("--expected", type=Path, default=workloads.EXPECTED_PATH,
                   help="recorded seed outputs to check against")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "asmlat" / "__init__.py").is_file():
        print(f"perfbench: no asmlat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
