"""Record the outputs the benchmark's correctness gates compare against.

    python3 perfbench/record_expected.py > perfbench/expected.json

Run it on the commit whose outputs are the reference; every later commit
must reproduce them byte for byte.
"""

import hashlib
import json
import sys
from types import SimpleNamespace

from run import import_asmlat
from workloads import GENFUN_ARGS, SIZES, run_cli


def record(m, sizes) -> dict:
    def out(argv):
        code, text, err = run_cli(m, argv)
        if code != 0:
            sys.exit(f"{argv} exited {code}: {err}")
        return text

    hasse = {fmt: hashlib.sha256(out(["hasse", "--size", str(sizes["hasse"]), "--output", fmt]).encode()).hexdigest()
             for fmt in ("dot", "json")}
    genfun = {key: out(["genfun", "--size", str(sizes["genfun"]), *args]).strip()
              for key, args in GENFUN_ARGS.items()}
    genfun["perm-beta"] = out(["genfun", "--size", str(sizes["perm"]), "--over", "perm", "--stat", "beta"]).strip()
    genfun["signed"] = str(m.enumeration.signed_identity_check(sizes["perm"])[1])
    verify = {}
    for name, cap, suite in m.verify.SUITES:
        verify[name] = []
        for n in range(1, min(cap, sizes["verify"]) + 1):
            checked, failures = suite(n)
            if failures:
                sys.exit(f"{name} fails at n={n}: {failures[0]}")
            verify[name].append(checked)
    return {"hasse": hasse, "genfun": genfun, "verify": verify}


if __name__ == "__main__":
    _, mods = import_asmlat()
    m = SimpleNamespace(**mods)
    print(json.dumps({scale: record(m, sizes) for scale, sizes in SIZES.items()}, indent=1, ensure_ascii=False))
