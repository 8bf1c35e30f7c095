"""Smoke test of the benchmark itself, at sizes n <= 4.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced and checks that the
result line names every metric of BENCHMARK.json with its unit; checks
that a corrupted expected digest makes the run fail; and checks that the
benchmark refuses to run without the asmlat sources.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("hasse", "genfun", "queries", "verify")


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--scale", "small", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in WORKLOADS:
            proc = run(workload, trace)
            assert proc.returncode == 0, (workload, trace, proc.stderr)
            res = result(proc)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())
            print(f"ok: {workload} --trace {trace}: {len(got)} metrics")

    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        expected = json.loads((HERE / "expected.json").read_text())
        expected["small"]["hasse"]["dot"] = "0" * 64
        corrupted = Path(tmp) / "expected.json"
        corrupted.write_text(json.dumps(expected))
        proc = run("hasse", 0, "--expected", str(corrupted))
        res = result(proc)
        assert proc.returncode == 1 and res["correct"] is False and res["failed"] >= 1, proc.stdout
        print("ok: a corrupted digest fails the run")

        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("hasse", 0, cwd=tmp)
        assert proc.returncode not in (0, 1) and "correct" not in proc.stdout, proc.stdout
        print("ok: refuses to run without src/asmlat")


if __name__ == "__main__":
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    main()
