"""Paired A/B comparison of two source trees with one copy of the harness.

    python3 perfbench/compare.py --base ../parent --head . [--pairs 10]
                                 [--workload W] [--seed N]

Each pair runs ``run.py`` once against ``<base>/src`` and once against
``<head>/src`` with the same seed and the run length ``BENCHMARK.json``
fixes, alternating which side goes first; pair ``i`` uses seed ``N + i``.
For every end-to-end metric of every workload, and for the tail latency
(the highest of p90/p99/p99.9 with ten samples beyond it, held to
``op_ms_p50``'s bound), it prints both sides' median and quartiles, the
share of pairs head won (ties count for neither), and a verdict:

* ``improved``: head won at least nine tenths of the pairs and the
  medians differ by more than the distance between base's quartiles;
* ``regressed``: head's median is worse than base's by more than the
  metric's bound in ``BENCHMARK.json``;
* ``unresolved``: the run-to-run spread is wider than the bound, so a
  regression within it cannot be ruled out (unless every head run beat
  every base run);
* ``within bound``: otherwise.

Metrics are never combined into one score.  Exit status 1 when any
metric regressed or any run failed its output checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from run import quantile_summary

HERE = Path(__file__).resolve().parent


def run_side(tree: Path, workload: str, seed: int) -> dict:
    """One run of ``workload`` against ``tree``: ``{metric: value}``,
    the tail included when the run had one."""
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "run.json"
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                str(seed), "--src", str(tree / "src"), "--out", str(out)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        if proc.returncode not in (0, 1) or not out.exists():
            raise SystemExit(f"compare: {' '.join(argv)} exited {proc.returncode}\n{proc.stderr}")
        repeat = json.loads(out.read_text())["workloads"][workload]["repeats"][0]
    values = dict(repeat["metrics"])
    values.update((name, value) for name, value in repeat["detail"].items()
                  if name.startswith("op_ms_p9"))
    values["correct"] = not repeat["problems"]
    return values


def verdict(base, head, better: str, bound: float, wins: int, pairs: int) -> str:
    sign = 1 if better == "higher" else -1  # sign * (head - base) > 0 means head is better
    b, h = quantile_summary(base), quantile_summary(head)
    if wins >= 0.9 * pairs and sign * (h["median"] - b["median"]) > b["q3"] - b["q1"]:
        return "improved"
    worse = -sign * (h["median"] - b["median"]) / b["median"]
    spread = max((b["q3"] - b["q1"]) / b["median"], (h["q3"] - h["q1"]) / h["median"])
    if spread > bound:
        head_always_better = all(sign * (h - b) > 0 for h in head for b in base)
        return "within bound" if head_always_better else "unresolved"
    return "regressed" if worse > bound else "within bound"


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="parent source tree")
    parser.add_argument("--head", type=Path, required=True, help="changed source tree")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    args = parser.parse_args(argv)
    workloads = [args.workload] if args.workload else list(spec["workloads"])
    metrics = [(m["name"], m["better"], m["bound"]) for m in bench["end_to_end"]]
    p50_bound = next(bound for name, _, bound in metrics if name == "op_ms_p50")
    status = 0
    for workload in workloads:
        runs = {"base": [], "head": []}
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                tree = args.base if side == "base" else args.head
                result = run_side(tree.resolve(), workload, args.seed + pair)
                if not result["correct"]:
                    print(f"{workload} pair {pair} {side}: output checks FAILED")
                    status = 1
                runs[side].append(result)
        tails = sorted(name for name in runs["base"][0] if name.startswith("op_ms_p9")
                       and all(name in run for side in runs.values() for run in side))
        print(f"\n{workload}: {args.pairs} pairs")
        print(f"  {'metric':12} {'base median [q1, q3]':30} {'head median [q1, q3]':30} "
              f"{'head wins':10} verdict")
        for name, better, bound in metrics + [(tail, "lower", p50_bound) for tail in tails]:
            base = [run[name] for run in runs["base"]]
            head = [run[name] for run in runs["head"]]
            sign = 1 if better == "higher" else -1
            wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
            result = verdict(base, head, better, bound, wins, args.pairs)
            status |= result == "regressed"
            cells = ["{median:.4g} [{q1:.4g}, {q3:.4g}]".format(**quantile_summary(side))
                     for side in (base, head)]
            print(f"  {name:12} {cells[0]:30} {cells[1]:30} {f'{wins}/{args.pairs}':10} {result}")
    return status


if __name__ == "__main__":
    sys.exit(main())
