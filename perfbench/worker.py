"""Child process of the benchmark: one workload, or the served workloads' server.

Workload mode sets the workload up, times the host-speed probe, prints
``READY <unix time> <probe seconds>`` (the parent takes set-up time from
it), runs the timed window, checks the outputs and prints one JSON line
with the raw measurements::

    python3 perfbench/worker.py --workload small_grid --seed 1 \\
        --src src --workdir .perfbench_tmp/x --seconds 10 [--ops N] [--trace]

Between operations, at least every :data:`PROBE_EVERY` seconds and
after the last one, the worker times the probe (``probe.py``); the
parent scales each operation by the probes on either side of it.

With ``--trace`` the operations alternate: odd-numbered ones run with
the layer spans enabled, even-numbered ones without, so the traced and
untraced halves see the same inputs under the same machine load.

Server mode (``--serve``) runs a ``ReproServer`` with the CLI defaults
and a journal-backed cache, prints its URL, and answers commands on
stdin: ``on`` and ``off`` enable and disable the layer spans, ``rss``
prints its peak memory so far, ``quit`` drains the server and prints
its counters, peak memory and spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

#: Longest stretch of operations between two probes, in seconds.
PROBE_EVERY = 0.1


def _peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _import_repro(src: Path) -> None:
    """Import ``repro`` from ``src`` and nowhere else."""
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro package under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def serve(args) -> None:
    """The served workloads' server child."""
    from repro.server.app import ReproServer

    from spans import Spans, install

    spans = None
    server = ReproServer(port=0, job_workers=4, cache_path=args.cache_path).start()
    print(json.dumps({"url": server.url}), flush=True)
    for line in sys.stdin:
        command = line.strip()
        if command == "quit":
            break
        if command == "rss":
            print(json.dumps({"peak_rss_mb": _peak_rss_mb()}), flush=True)
            continue
        if spans is None:
            spans = Spans()
            install(spans)
        if command == "on":
            spans.enable()
        else:
            spans.disable()
        print("{}", flush=True)
    report = server.shutdown()
    stats = server.store.stats()
    journal = Path(args.cache_path)
    print(json.dumps({
        "stats": {
            "retried": stats["retried"],
            "quarantined": stats["quarantined"],
            "hits": stats["cache"]["hits"],
            "misses": stats["cache"]["misses"],
            "leaked_jobs": len(report["leaked_jobs"]),
        },
        "journal_bytes": journal.stat().st_size if journal.exists() else 0,
        "peak_rss_mb": _peak_rss_mb(),
        "trace": spans.snapshot() if spans is not None else None,
    }), flush=True)


def measure(args) -> None:
    """Set up one workload, run its window, check it, print the result."""
    from probe import probe_seconds
    from workloads import WORKLOADS

    from spans import Spans, install

    # A directory of its own: no child may see another's cache or ledgers.
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir))
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        workload.setup()
        ready = time.time()
        print(f"READY {ready!r} {probe_seconds()!r}", flush=True)
        if args.setup_only:
            return
        spans = None
        if args.trace:
            spans = Spans(threaded=False)
            install(spans)
        latencies, traced, problems = [], [], []
        probes = []  # [operations done before it, seconds]
        failed = 0
        clock = time.perf_counter
        start = clock()
        last_probe = None
        index = 0
        while (index < args.ops) if args.ops is not None else (clock() - start < args.seconds):
            if last_probe is None or clock() - last_probe >= PROBE_EVERY:
                probes.append([index, probe_seconds()])
                last_probe = clock()
            tracing = spans is not None and index % 2 == 1
            if tracing:
                spans.enable()
                workload.set_tracing(True)
            began = clock()
            try:
                outcome = workload.op(index)
            except Exception as exc:  # a failed operation is data, not a crash
                outcome = exc
            latencies.append(clock() - began)
            if tracing:
                spans.disable()
                workload.set_tracing(False)
            if isinstance(outcome, Exception):
                found = [f"op {index}: {type(outcome).__name__}: {outcome}"]
            else:
                found = workload.verify(index, outcome)
            failed += bool(found)
            problems += found
            traced.append(tracing)
            index += 1
        probes.append([index, probe_seconds()])
        trace = spans.snapshot() if spans is not None else None
        final = workload.finish()
        failed += len(final["problems"])
        problems += final["problems"]
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "ops": index,
            "failed": failed,
            "problems": problems[:20],
            "digest": final["digest"],
            "latencies": latencies,
            "probes": probes,
            "traced": traced,
            "runs": workload.runs,
            "units": workload.units,
            "work": workload.work,
            "messages": workload.messages,
            "peak_rss_mb": _peak_rss_mb(),
            "trace": trace,
        }
        for key in ("server", "ledger_bytes"):
            if key in final:
                result[key] = final[key]
        print(json.dumps(result), flush=True)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--serve", action="store_true")
    parser.add_argument("--cache-path")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--workdir")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--ops", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    _import_repro(args.src)
    if args.serve:
        serve(args)
    else:
        measure(args)


if __name__ == "__main__":
    main()
