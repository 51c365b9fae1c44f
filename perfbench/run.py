"""One command for the whole benchmark.

    python3 perfbench/run.py [--workload W] [--seed N] [--seconds S]
                             [--trace {0,1}] [--repeat K] [--out F]

Runs each workload (all six when ``--workload`` is omitted) in fresh
child processes, checks the outputs, and prints every metric by name and
unit, then one JSON line::

    {"correct": true, "attempted": 6012, "failed": 0,
     "metrics": {"setup_s": {"value": 0.81, "unit": "s"}, ...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced operations with operations timed by
layer spans, and reports the per-layer metrics (per traced operation).
Times are stated at the reference host speed of ``spec.json``
(``probe.py`` explains how); the wall-clock values print as detail
lines.  ``--seconds`` is the length of the timed window; the benchmark
fixes it in ``BENCHMARK.json`` (``run_seconds``, the default) and
passes it as ``--seconds <run_seconds>``.  ``--repeat K`` makes K runs
with seeds N, N+1, ..., N+K-1; every value is then their median, and
the quartiles are printed.  ``--src`` points the harness at another
source tree (``compare.py`` uses it); ``--ops N`` runs exactly N
operations instead of a time window (``selfcheck.py`` uses it).

Exit status: 0 when every output checked out, 1 when a check failed
(including a digest that differs from the one pinned in ``spec.json``
for the default seed), 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUPS = 3  # setups per run; setup_s is their median


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    # One thread per busy process; a fixed hash seed removes one source of
    # run-to-run variance in set and dict iteration.
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def run_child(argv, timeout: float):
    """Run one worker: ``(setup seconds, probe seconds, result dict or None)``."""
    began = time.time()
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv],
                            stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(argv[:4])} timed out after {timeout:g}s")
    lines = out.splitlines()
    ready = [line.split() for line in lines if line.startswith("READY ")]
    if proc.returncode != 0 or not ready:
        raise BenchError(f"worker {' '.join(argv[:4])} exited with status {proc.returncode}")
    _, ready_at, probe = ready[0]
    result = json.loads(lines[-1]) if not lines[-1].startswith("READY ") else None
    return float(ready_at) - began, float(probe), result


def quantile_summary(values):
    values = sorted(values)
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def tail(latencies):
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for label, share in (("p90", 0.90), ("p99", 0.99), ("p99.9", 0.999)):
        if len(latencies) * (1 - share) >= 10:
            best = (label, statistics.quantiles(latencies, n=1000)[round(share * 1000) - 1])
    return best


class Reference:
    """Scales times to the reference host speed of ``spec.json``.

    A time measured while the probe took ``probe_s`` is multiplied by
    ``(probe_ref / probe_s) ** exponent``.  The exponent is below one
    because contention from another tenant slows the probe's tight loop
    about twice as much, in log terms, as it slows the workloads.
    """

    def __init__(self, spec):
        self.probe_s = spec["probe_ref_ms"] / 1e3
        self.exponent = spec["probe_exponent"]

    def factor(self, probe_s: float) -> float:
        return (self.probe_s / probe_s) ** self.exponent

    def latencies(self, result):
        """Each operation's time scaled by the mean of the two probes
        around it (the worker probes between operations)."""
        probes = result["probes"]  # [operations done before the probe, seconds], in order
        scaled, after = [], 1
        for index, latency in enumerate(result["latencies"]):
            while probes[after][0] <= index:
                after += 1
            scaled.append(latency * self.factor((probes[after - 1][1] + probes[after][1]) / 2))
        return scaled

    def host_speed(self, result) -> float:
        """The reference probe time over the run's median probe time."""
        return self.probe_s / statistics.median(probe for _, probe in result["probes"])


# ---------------------------------------------------------------------
# one run of one workload
# ---------------------------------------------------------------------


def _window(args):
    return ["--ops", str(args.ops)] if args.ops is not None else ["--seconds", repr(args.seconds)]


def _timeout(args):
    return 600.0 if args.ops is not None else 60.0 + 3 * args.seconds


def _common(args, workload, seed, workdir):
    return ["--src", str(args.src), "--workload", workload, "--seed", str(seed),
            "--workdir", str(workdir)]


def measure_e2e(args, reference, workload, seed, workdir):
    common = _common(args, workload, seed, workdir)
    children = [run_child(common + ["--setup-only"], 60.0) for _ in range(SETUPS - 1)]
    children.append(run_child(common + _window(args), _timeout(args)))
    result = children[-1][2]
    setups = [setup * reference.factor(probe) for setup, probe, _ in children]
    latencies = reference.latencies(result)
    server = result.get("server")
    metrics = {
        "setup_s": statistics.median(setups),
        "op_ms_p50": statistics.median(latencies) * 1e3,
        "runs_per_s": result["runs"] / sum(latencies),
        "peak_rss_mb": server["peak_rss_mb"] if server else result["peak_rss_mb"],
    }
    detail = {"ops": len(latencies)}
    found = tail(latencies)
    if found:
        detail[f"op_ms_{found[0]}"] = found[1] * 1e3
    detail.update({
        "host_speed": reference.host_speed(result),
        "wall.setup_s": statistics.median(setup for setup, _, _ in children),
        "wall.op_ms_p50": statistics.median(result["latencies"]) * 1e3,
        "wall.runs_per_s": result["runs"] / sum(result["latencies"]),
    })
    if server:
        detail["client.peak_rss_mb"] = result["peak_rss_mb"]
    return result, metrics, detail


def _per_op(spans, ops, factor):
    layers = {}
    for name, (calls, total_ns, self_ns) in spans.items():
        layers[f"{name}.ms"] = total_ns / 1e6 / ops * factor
        layers[f"{name}.self_ms"] = self_ns / 1e6 / ops * factor
        layers[f"{name}.calls"] = calls / ops
    return layers


def measure_layers(args, reference, workload, seed, workdir):
    _, _, result = run_child(_common(args, workload, seed, workdir) + _window(args)
                             + ["--trace"], _timeout(args))
    latencies = reference.latencies(result)
    on = [lat for lat, traced in zip(latencies, result["traced"]) if traced]
    off = [lat for lat, traced in zip(latencies, result["traced"]) if not traced]
    if not on:
        raise BenchError("a traced run needs at least two operations")
    spans = dict(result["trace"]["spans"])
    server = result.get("server")
    if server:
        for name, row in server["trace"]["spans"].items():
            spans[name] = [a + b for a, b in zip(spans.get(name, [0, 0, 0]), row)]
    # Layer times at the reference host speed, like the end-to-end times.
    layers = _per_op(spans, len(on), reference.host_speed(result) ** reference.exponent)
    layers["core.useful_work_ratio"] = result["units"] / result["work"]
    layers["sim.messages_per_run"] = result["messages"] / result["runs"]
    # Client latency not spent busy in the server: HTTP, JSON, queueing
    # and the long-poll wake-up (zero where nothing is served).
    layers["server.wait_ms"] = sum(
        sign * layers.get(f"{name}.ms", 0.0) for sign, name in (
            (1, "client.submit"), (1, "client.wait"),
            (-1, "server.jobstore_submit"), (-1, "server.execute"))
    )
    lookups = layers.get("cache.get_payload.calls", 0.0)
    if lookups:
        layers["cache.hit_ratio"] = 1 - layers.get("cache.put.calls", 0.0) / lookups
    if server:
        stats = server["stats"]
        layers["cache.journal_bytes_per_entry"] = server["journal_bytes"] / max(1, stats["misses"])
        layers["server.retried"] = stats["retried"]
        layers["server.quarantined"] = stats["quarantined"]
    if "ledger_bytes" in result:
        layers["campaign.ledger_bytes"] = result["ledger_bytes"]
    detail = {
        "ops": result["ops"],
        "traced_ops": len(on),
        "host_speed": reference.host_speed(result),
        "trace.overhead": statistics.mean(on) / statistics.mean(off) - 1,
        "trace.unattributed_share": 1 - result["trace"]["top_ns"] / 1e9 / sum(
            lat for lat, traced in zip(result["latencies"], result["traced"]) if traced),
    }
    return result, layers, detail


# ---------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------


def host_facts():
    commit = os.environ.get("REPRO_COMMIT", "unknown")
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                                    capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None  # the program falls back to its pure-python paths
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0], "numpy": numpy,
            "commit": commit}


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(args, bench, spec, workload, workdir):
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in wanted}
    measure = measure_layers if args.trace else measure_e2e
    reference = Reference(spec)
    repeats = []
    for repeat in range(args.repeat):
        seed = args.seed + repeat
        result, metrics, detail = measure(args, reference, workload, seed, workdir)
        # Spans outside BENCHMARK.json print as detail.
        detail.update(sorted((k, v) for k, v in metrics.items() if k not in units))
        problems, failed = list(result["problems"]), result["failed"]
        pinned = spec["workloads"][workload].get("digest")
        if seed == spec["default_seed"] and pinned and result["digest"] != pinned:
            problems.append(f"digest {result['digest']} differs from the pinned {pinned}")
            failed += 1
        repeats.append({
            "seed": seed, "ops": result["ops"], "failed": failed, "problems": problems,
            "digest": result["digest"],
            # A layer the workload does not use reads zero.
            "metrics": {name: metrics.get(name, 0.0) for name in units}, "detail": detail,
        })
        print(f"{workload} seed={seed} repeat={repeat + 1}/{args.repeat} ops={result['ops']} "
              f"failed={failed} digest={result['digest'][:16]}")
        for problem in problems:
            print(f"  PROBLEM {problem}")
        for name, value in detail.items():
            print(f"  {name:34} {_fmt(value)}")
    summary = {}
    for name in units:
        summary[name] = quantile_summary([repeat["metrics"][name] for repeat in repeats])
        stats = summary[name]
        print(f"  {name:34} {_fmt(stats['median'])} {units[name]}  "
              f"[q1 {_fmt(stats['q1'])}, q3 {_fmt(stats['q3'])}, runs {stats['n']}]")
    return {"repeats": repeats, "summary": summary, "units": units}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help="length of the timed window (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, with seeds N, N+1, ...")
    parser.add_argument("--ops", type=int, help="run exactly this many operations")
    parser.add_argument("--out", type=Path, help="write every measurement here as JSON")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the source tree to measure (default: ./src)")
    args = parser.parse_args(argv)
    args.src = args.src.resolve()
    if not (args.src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {args.src}", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(spec["workloads"])
    host = host_facts()
    print(f"# host nproc={host['nproc']} python={host['python']} numpy={host['numpy']} "
          f"commit={host['commit']} seed={args.seed} trace={args.trace}")
    workdir = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    report = {"host": host, "seed": args.seed, "trace": args.trace, "workloads": {}}
    try:
        for workload in workloads:
            report["workloads"][workload] = run_workload(args, bench, spec, workload, workdir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    repeats = [r for entry in report["workloads"].values() for r in entry["repeats"]]
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    metrics = {}
    for workload, entry in report["workloads"].items():
        prefix = "" if len(workloads) == 1 else f"{workload}."
        for name, stats in entry["summary"].items():
            metrics[prefix + name] = {"value": stats["median"], "unit": entry["units"][name]}
    correct = all(not r["problems"] for r in repeats)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["ops"] for r in repeats),
        "failed": min(sum(r["ops"] for r in repeats),
                      sum(r["failed"] for r in repeats)),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
