"""Self-check of the benchmark harness; runs in about four minutes.

    python3 perfbench/selfcheck.py

Runs every workload for a fixed number of operations, untraced and then
traced twice, and checks that:

* every metric named in ``BENCHMARK.json`` is emitted with its unit, and
  every per-layer metric is non-zero on the workloads ``spec.json``
  names for it (``layers``);
* the per-layer ``.calls`` counts repeat exactly across the two traced
  runs;
* the traced wall time not attributed to any span is at most 5%, and
  tracing makes operations at most 20% slower;
* a tampered pinned digest makes the harness exit non-zero;
* without ``src/`` the harness exits non-zero and prints no result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Enough operations for a steady overhead reading (half of them traced).
OPS = {"small_grid": 1000, "large_t_d": 8, "large_t_ab": 8, "served_cold": 400,
       "served_warm": 1000, "campaign": 16}
MAX_UNATTRIBUTED = 0.05
MAX_OVERHEAD = 0.20


def run(argv, harness=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(harness), *argv], capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


def check(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"selfcheck FAILED: {message}")


def emitted(result, wanted, what):
    check(result is not None and result["correct"], f"{what}: no correct result")
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        check(got is not None and got["unit"] == metric["unit"],
              f"{what}: {metric['name']} missing or not in {metric['unit']}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    scratch = ROOT / ".perfbench_tmp" / "selfcheck"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        for workload, ops in OPS.items():
            base = ["--workload", workload, "--ops", str(ops)]
            status, result = run(base)
            check(status == 0, f"{workload}: untraced run exited {status}")
            emitted(result, bench["end_to_end"], workload)
            traced, overheads = [], []
            for attempt in range(2):
                out = scratch / f"{workload}-{attempt}.json"
                status, result = run(base + ["--trace", "1", "--out", str(out)])
                check(status == 0, f"{workload}: traced run exited {status}")
                emitted(result, bench["per_layer"], f"{workload} traced")
                for metric in bench["per_layer"]:
                    if workload in spec["layers"][metric["name"]]["on"]:
                        check(result["metrics"][metric["name"]]["value"] > 0,
                              f"{workload}: per-layer {metric['name']} is zero")
                detail = json.loads(out.read_text())["workloads"][workload]["repeats"][0]["detail"]
                share = detail["trace.unattributed_share"]
                check(share <= MAX_UNATTRIBUTED,
                      f"{workload}: {share:.1%} of traced wall time unattributed")
                overheads.append(detail["trace.overhead"])
                traced.append(result["metrics"])
            overhead = sum(overheads) / len(overheads)
            check(overhead <= MAX_OVERHEAD, f"{workload}: tracing overhead {overhead:.1%}")
            for name in traced[0]:
                if name.endswith(".calls"):
                    check(traced[0][name] == traced[1][name],
                          f"{workload}: {name} differs across traced runs")
            print(f"selfcheck ok: {workload} (trace overhead {overhead:.1%})")

        # A copy of the benchmark with one pinned digest tampered with.
        tampered = scratch / "tampered"
        shutil.copytree(HERE, tampered / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tampered)
        spec["workloads"]["small_grid"]["digest"] = "0" * 64
        (tampered / "perfbench" / "spec.json").write_text(json.dumps(spec))
        argv = ["--workload", "small_grid", "--ops", "2", "--seed", str(spec["default_seed"])]
        status, result = run(argv + ["--src", str(ROOT / "src")],
                             tampered / "perfbench" / "run.py")
        check(status != 0 and result is not None and not result["correct"],
              "a tampered digest did not fail the run")
        print("selfcheck ok: tampered digest fails the run")

        # The same copy without src/: no result, non-zero exit.
        status, result = run(argv, tampered / "perfbench" / "run.py")
        check(status != 0 and result is None, "the benchmark ran without src/")
        print("selfcheck ok: no src/ means no result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # a benchmark run is using it
    return 0


if __name__ == "__main__":
    sys.exit(main())
