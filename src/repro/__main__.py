"""Command-line interface: ``python -m repro ...``

Subcommands:

* ``run`` - simulate one protocol execution and print its accounting::

      python -m repro run B --n 256 --t 16 --crashes 8 --seed 7
      python -m repro run a-async --n 128 --t 16 --json
      python -m repro run B --adversary "kill-active:7,actions_before_kill=3"
      python -m repro run --scenario scenario.json --json

* ``compare`` - run several protocols on the same workload and print the
  comparison table::

      python -m repro compare --n 256 --t 16 --crashes 8 [--json]

* ``report`` - regenerate EXPERIMENTS.md (same as
  ``python -m repro.analysis.report``)::

      python -m repro report --quick

* ``list`` - list registered protocols with engine kind and description.

* ``adversaries`` - list adversary spec kinds with their required and
  optional parameters (``--json`` for machine-readable rows).

* ``serve`` - run the simulation-as-a-service daemon (see
  ``docs/serve.md``): an HTTP/JSON server that executes submitted
  Scenario/Sweep/Suite documents and memoizes results in a
  content-addressed cache, so duplicate submissions cost one run::

      python -m repro serve --port 8123 --job-workers 4
      python -m repro serve --cache-file cache.jsonl --cache-size 10000

* ``submit`` - send scenario/sweep/suite JSON files to a running server
  and wait for the (possibly cached) results::

      python -m repro submit scenario.json --server http://127.0.0.1:8123
      python -m repro submit scenarios/paper_battery.json --json

* ``campaign`` - sharded, resumable large-grid experiment campaigns
  (see ``docs/campaigns.md``): plan a grid spec into deterministic
  chunks, execute them with per-chunk ledger checkpoints, resume after
  an interruption by skipping checkpointed chunks, and merge everything
  into one per-cell worst/mean report::

      python -m repro campaign plan campaigns/paper_grid.json
      python -m repro campaign run campaigns/paper_grid.json --ledger grid.ledger
      python -m repro campaign resume campaigns/paper_grid.json --ledger grid.ledger
      python -m repro campaign status campaigns/paper_grid.json --ledger grid.ledger
      python -m repro campaign report campaigns/paper_grid.json --ledger grid.ledger

  ``run`` accepts ``--workers N`` (local pool), ``--cache-file PATH``
  (shared content-addressed cache), ``--server URL`` (execute on a
  remote ``repro serve`` so shards share one memo), ``--shard i/k``
  (this invocation only runs chunks with ``index % k == i``) and
  ``--max-chunks N`` (deliberate interruption).  ``resume`` is ``run``
  that *requires* an existing ledger.  ``status`` exits 0 only when the
  grid is complete; ``report`` accepts several ``--ledger`` files (one
  per shard) and exits 1 when campaign pins fail.

* ``cache`` - maintain content-addressed result-cache journals::

      python -m repro cache compact cache.jsonl
      python -m repro cache verify cache.jsonl

  ``compact`` rewrites an append-only journal to its live entries
  (atomically), dropping dead lines left by re-stores and evictions;
  ``verify`` audits a journal's checksums without loading it and exits
  1 on corrupt lines.

* ``suite`` - versioned, regression-pinned scenario suites (see
  ``docs/suites.md``)::

      python -m repro suite list                                  # shipped suites
      python -m repro suite run scenarios/paper_battery.json --workers 4
      python -m repro suite check scenarios/*.json --out report.json
      python -m repro suite diff old-report.json new-report.json

  ``run`` executes a suite and prints/exports the per-entry worst-case
  report (exit 1 if any run fails to complete); ``check`` additionally
  enforces the regression pins exactly (``--update-pins`` rewrites them
  from the observed values instead).  ``--workers N`` pools each
  entry's runs on a multiprocessing pool (per-entry ``workers`` hints
  in the suite file override it; single-scenario entries run
  in-process); metrics are bit-identical to ``--workers 1``.
  ``diff`` compares two ``--out`` report artifacts -
  typically from two commits - printing per-entry metric deltas and
  exiting 1 on any regression (a metric increased, an entry vanished,
  or completion flipped; wall-clock ``seconds`` never counts).

Adversaries come from declarative specs (``--adversary KIND:ARGS``, see
``docs/api.md``); ``--crashes`` and ``--kill-active`` remain as
shorthands and *compose* when both are given.  ``--json`` emits the
machine-readable :meth:`RunResult.to_dict` payload (metrics, completion,
scenario config echo) instead of the table.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import List, Optional

from repro import codec
from repro.analysis.tables import render_table
from repro.api import Scenario
from repro.core.registry import available_protocols, get_entry
from repro.errors import AdversaryError, ConfigurationError
from repro.sim.metrics import MEASURES


def _adversary_spec(args):
    """Merge ``--adversary`` with the ``--crashes``/``--kill-active``
    shorthands into one spec (composing when several are given)."""
    specs = []
    if getattr(args, "adversary", None):
        specs.append(args.adversary)
    if getattr(args, "kill_active", 0):
        specs.append(
            {
                "kind": "kill-active",
                "budget": args.kill_active,
                "actions_before_kill": args.actions_before_kill,
            }
        )
    if getattr(args, "crashes", 0):
        specs.append(
            {
                "kind": "random",
                "count": args.crashes,
                "max_action_index": args.max_action_index,
            }
        )
    if not specs:
        return None
    if len(specs) == 1:
        return specs[0]
    return {"kind": "compose", "parts": specs}


def _scenario_from_args(args, protocol: str) -> Scenario:
    options = {}
    if getattr(args, "schedule", None):
        options["schedule"] = args.schedule
    return Scenario(
        protocol=protocol,
        n=args.n,
        t=args.t,
        seed=args.seed,
        adversary=_adversary_spec(args),
        delay=getattr(args, "delay", None),
        congestion=getattr(args, "congestion", None),
        options=options,
    )


def _emit_result(result, as_json: bool) -> None:
    if as_json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return
    rows = sorted(result.summary().items())
    print(render_table(["measure", "value"], [[k, _fmt(v)] for k, v in rows]))


def _cmd_run(args) -> int:
    if args.scenario:
        if args.protocol:
            print(
                "error: give either a protocol name or --scenario FILE, not both",
                file=sys.stderr,
            )
            return 2
        scenario = Scenario.from_file(args.scenario)
    else:
        if not args.protocol:
            print(
                "error: a protocol name (or --scenario FILE) is required",
                file=sys.stderr,
            )
            return 2
        scenario = _scenario_from_args(args, args.protocol)
    result = scenario.run()
    _emit_result(result, args.json)
    return 0 if result.completed else 1


def _fmt(value):
    if isinstance(value, dict):
        return ", ".join(f"{k}={v}" for k, v in sorted(value.items())) or "-"
    return value


def _cmd_compare(args) -> int:
    rows = []
    payload = []
    failures = 0
    for protocol in args.protocols:
        result = _scenario_from_args(args, protocol).run()
        payload.append(result.to_dict())
        rows.append(
            [
                protocol,
                *result.metrics.measures().values(),
                "yes" if result.completed else "NO",
            ]
        )
        failures += 0 if result.completed else 1
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_table(["protocol", *MEASURES, "completed"], rows))
    return 0 if failures == 0 else 1


def _cmd_report(args) -> int:
    from repro.analysis.report import main as report_main

    forwarded = []
    if args.quick:
        forwarded.append("--quick")
    if args.out:
        forwarded.extend(["--out", args.out])
    return report_main(forwarded)


def _cmd_list(_args) -> int:
    for name in available_protocols():
        entry = get_entry(name)
        suffix = f"  [{entry.engine}]"
        if entry.description:
            suffix += f"  {entry.description}"
        print(f"{name}{suffix}")
    return 0


def _cmd_adversaries(args) -> int:
    from repro.sim.adversary import adversary_kind_info

    rows = adversary_kind_info()
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    table = []
    for row in rows:
        required = ", ".join(row["required"]) or "-"
        optional = ", ".join(row["optional"]) or "-"
        table.append([row["kind"], required, optional, row["summary"]])
    print(render_table(["kind", "required", "optional", "summary"], table))
    return 0


def _raise_interrupt(signum, frame):
    raise KeyboardInterrupt


def _cmd_serve(args) -> int:
    from repro.server import MAX_BODY_BYTES, ReproServer

    max_body = (
        args.max_body_bytes if args.max_body_bytes is not None else MAX_BODY_BYTES
    )
    server = ReproServer(
        host=args.host,
        port=args.port,
        cache_entries=args.cache_size,
        cache_path=args.cache_file,
        job_workers=args.job_workers,
        max_body_bytes=max_body,
        rate_limit=args.rate_limit,
        rate_burst=args.rate_burst,
        client_quota=args.client_quota,
        request_deadline=args.request_deadline,
        retries=args.retries,
        retry_backoff=args.retry_backoff,
        chaos=args.chaos,
    )
    # SIGTERM (docker stop, systemd) drains exactly as Ctrl-C does, from
    # the moment the banner shows; a second signal during the drain gets
    # the default disposition.
    previous = signal.signal(signal.SIGTERM, _raise_interrupt)
    try:
        cache = server.store.cache
        print(
            f"repro serve listening on {server.url}  "
            f"(job workers: {args.job_workers}, "
            f"cache: {len(cache)} entries"
            + (f", journal {cache.path}" if cache.path else "")
            + (f", rate limit {args.rate_limit}/s" if args.rate_limit else "")
            + (", chaos ON" if args.chaos else "")
            + ")",
            file=sys.stderr,
        )
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down (draining in-flight jobs)", file=sys.stderr)
    finally:
        signal.signal(signal.SIGTERM, previous)
        report = server.shutdown()
        print(
            f"drained: {report['drained_jobs']} jobs resolved, "
            f"{len(report['leaked_jobs'])} interrupted, "
            f"cache holds {report['cache']['size']} entries",
            file=sys.stderr,
        )
    return 0


def _cmd_submit(args) -> int:
    from repro.client import Client
    from repro.errors import ServerError

    client = Client(args.server, timeout=args.http_timeout)
    payloads = []
    rows = []
    failures = 0
    # This submission's slots: a cache hit, or a miss that ran (or
    # joined a run already in flight); the server's counters are
    # cumulative over every client.
    hits = misses = 0
    for path in args.files:
        document = codec.read(path, "document")
        try:
            final = client.settle(document, timeout=args.timeout)
        except ServerError as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
        payloads.append({"file": str(path), **final})
        for source, result in zip(final["sources"], final["results"]):
            if source == "cache":
                hits += 1
            else:
                misses += 1
            metrics = result["metrics"]
            completed = result["completed"]
            failures += 0 if completed else 1
            rows.append(
                [
                    str(path),
                    result.get("config", {}).get("protocol", "?"),
                    source,
                    *(metrics[measure] for measure in MEASURES),
                    "yes" if completed else "NO",
                ]
            )
    if args.json:
        print(json.dumps(payloads, indent=2, sort_keys=True))
    else:
        print(
            render_table(["file", "protocol", "source", *MEASURES, "completed"], rows)
        )
        print(
            f"cache: {hits} hits, {misses} misses, "
            f"{payloads[-1]['cache']['size']} entries",
            file=sys.stderr,
        )
    return 0 if failures == 0 else 1


def _cmd_suite_list(args) -> int:
    from repro.suites import discover_suites, load_suite

    paths = discover_suites(args.directory)
    if not paths:
        print(f"no suite files found under {args.directory}/", file=sys.stderr)
        return 1
    invalid = 0
    for path in paths:
        try:
            suite = load_suite(path)
        except Exception as exc:  # surface broken files instead of hiding them
            print(f"{path}: INVALID ({exc})")
            invalid += 1
            continue
        pinned = sum(1 for entry in suite.entries if entry.pins)
        print(
            f"{path}  [{suite.name} v{suite.version}]  "
            f"{len(suite.entries)} entries ({pinned} pinned)"
            + (f"  {suite.description}" if suite.description else "")
        )
    return 1 if invalid else 0


def _run_suites(args, *, enforce_pins: bool) -> int:
    from repro.suites import load_suite

    if getattr(args, "update_pins", False):
        # Fail before running anything: pins are written back as JSON.
        for path in args.files:
            if not str(path).lower().endswith(".json"):
                raise ConfigurationError(
                    f"--update-pins writes the suite back as JSON and cannot "
                    f"rewrite {path}; convert the suite to .json first"
                )
    reports = []
    failed = False
    for path in args.files:
        suite = load_suite(path)
        report = suite.run(workers=args.workers)
        reports.append(report)
        if getattr(args, "update_pins", False):
            incomplete = [e.name for e in report.entries if not e.all_completed]
            if incomplete:
                raise ConfigurationError(
                    f"refusing to rebaseline {path}: {incomplete} did not "
                    "complete every run; pins must come from healthy runs"
                )
            updated = suite.with_pins_from(report)
            updated.save()
            # Re-diff the observations against the pins that now exist,
            # so --json/--out artifacts reflect the rebaselined state.
            reports[-1] = report.repinned(updated)
            print(f"rewrote pins of {path} from observed values")
            continue
        if not args.json:
            print(report.table())
        if enforce_pins:
            messages = report.failures()
        else:  # ``run`` reports pins but only completion is fatal
            messages = [
                f"{report.suite}/{entry.name}: not every run completed its work"
                for entry in report.entries
                if not entry.all_completed
            ]
        for message in messages:
            print(f"FAIL {message}", file=sys.stderr)
            failed = True
    if args.json:
        payload = [report.as_dict() for report in reports]
        print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        payload = [report.as_dict() for report in reports]
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_suite_run(args) -> int:
    return _run_suites(args, enforce_pins=False)


def _cmd_suite_check(args) -> int:
    return _run_suites(args, enforce_pins=True)


def _cmd_suite_diff(args) -> int:
    from repro.suites import diff_reports

    diff = diff_reports(
        codec.read(args.old, "report artifact"),
        codec.read(args.new, "report artifact"),
        old_label=args.old,
        new_label=args.new,
    )
    if args.json:
        print(json.dumps(diff.as_dict(), indent=2, sort_keys=True))
    else:
        print(diff.table())
        for note in diff.informational:
            print(f"note: {note}")
    for message in diff.regressions():
        print(f"REGRESSION {message}", file=sys.stderr)
    return 0 if diff.passed else 1


def _load_campaign(args):
    from repro.campaign import load_campaign

    return load_campaign(args.file)


def _cmd_campaign_plan(args) -> int:
    spec = _load_campaign(args)
    summary = spec.plan_summary()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(f"campaign {spec.name}  (digest {spec.digest()[:12]})")
    if spec.description:
        print(f"  {spec.description}")
    for axis in ("protocols", "adversaries", "n", "t"):
        values = summary["axes"][axis]
        print(f"  {axis}: {', '.join(str(v) for v in values)}")
    print(f"  seeds: {summary['axes']['seeds']}")
    print(
        f"  {summary['runs']} runs = {summary['cells']} cells x "
        f"{summary['axes']['seeds']} seeds, in {summary['chunks']} chunks of "
        f"<= {spec.chunk_size}"
    )
    if spec.pins:
        print(f"  pins: {', '.join(sorted(spec.pins))}")
    return 0


def _run_or_resume_campaign(args, *, require_ledger: bool) -> int:
    from pathlib import Path

    from repro.campaign import parse_shard, run_campaign
    from repro.cache import ResultCache

    spec = _load_campaign(args)
    if require_ledger and not Path(args.ledger).exists():
        raise ConfigurationError(
            f"cannot resume: ledger {args.ledger} does not exist yet "
            "(use 'campaign run' to start a campaign)"
        )
    cache = None
    if args.cache_file:
        cache = ResultCache(path=args.cache_file)
    shard = parse_shard(args.shard) if args.shard else None
    outcome = run_campaign(
        spec,
        args.ledger,
        workers=args.workers,
        cache=cache,
        server=args.server,
        timeout=args.timeout,
        shard=shard,
        max_chunks=args.max_chunks,
        progress=lambda line: print(line, file=sys.stderr),
    )
    if not outcome.complete:
        status = outcome.status_dict()
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
        else:
            print(
                f"campaign {spec.name}: {status['chunks']['done']}/"
                f"{status['chunks']['total']} chunks checkpointed "
                f"({status['runs']['done']}/{status['runs']['total']} runs); "
                "resume to continue",
                file=sys.stderr,
            )
        return 1
    report = outcome.report()
    if args.json:
        print(report.to_json())
    else:
        print(report.table())
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(report.to_json() + "\n")
        print(f"wrote {args.report}", file=sys.stderr)
    for message in report.failures():
        print(f"FAIL {message}", file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_campaign_run(args) -> int:
    return _run_or_resume_campaign(args, require_ledger=False)


def _cmd_campaign_resume(args) -> int:
    return _run_or_resume_campaign(args, require_ledger=True)


def _cmd_campaign_status(args) -> int:
    from repro.campaign import campaign_status

    spec = _load_campaign(args)
    state = campaign_status(spec, args.ledger)
    status = state.status_dict()
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
    else:
        print(
            f"campaign {spec.name}: {status['chunks']['done']}/"
            f"{status['chunks']['total']} chunks checkpointed "
            f"({status['runs']['done']}/{status['runs']['total']} runs)"
            + ("  COMPLETE" if state.complete else "")
        )
        if state.torn_tails:
            print(
                f"  {state.torn_tails} torn ledger tail(s) discarded "
                "(interrupted mid-append; the chunk re-runs)"
            )
    return 0 if state.complete else 1


def _cmd_campaign_report(args) -> int:
    from repro.campaign import build_report, campaign_status

    spec = _load_campaign(args)
    state = campaign_status(spec, args.ledger)
    report = build_report(spec, state, partial=args.partial)
    if args.json:
        print(report.to_json())
    else:
        print(report.table())
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report.to_json() + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    for message in report.failures():
        print(f"FAIL {message}", file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_cache_compact(args) -> int:
    from repro.cache import ResultCache

    from pathlib import Path

    if not Path(args.file).exists():
        raise ConfigurationError(f"cache journal {args.file} does not exist")
    cache = ResultCache(max_entries=args.max_entries, path=args.file)
    stats = cache.compact()
    print(
        f"{args.file}: {stats['lines_before']} -> {stats['lines_after']} "
        f"lines ({stats['bytes_before']} -> {stats['bytes_after']} bytes, "
        f"{stats['entries']} live entries)"
    )
    return 0


def _cmd_cache_verify(args) -> int:
    from repro.cache import verify_journal

    audit = verify_journal(args.file)
    if args.json:
        print(json.dumps(audit, indent=2, sort_keys=True))
    else:
        print(
            f"{audit['path']}: {audit['lines']} lines, "
            f"{audit['live']} live, {audit['stale']} stale, "
            f"{audit['corrupt']} corrupt, "
            f"{audit['unchecksummed']} unchecksummed"
        )
        if not audit["ok"]:
            print(
                f"FAIL {audit['corrupt']} corrupt line(s); a replay would "
                "skip them (run 'repro cache compact' to drop them for "
                "good)",
                file=sys.stderr,
            )
    return 0 if audit["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Do-All protocols from Dwork-Halpern-Waarts 1992"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--n", type=int, default=256, help="work units")
        p.add_argument("--t", type=int, default=16, help="processes")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--adversary",
            default=None,
            metavar="SPEC",
            help="adversary spec, e.g. 'random:8,max_action_index=25' or "
            "'kill-active:7' (see docs/api.md for the grammar)",
        )
        p.add_argument(
            "--delay",
            default=None,
            metavar="SPEC",
            help="async delay model spec, e.g. 'uniform:0.5,4.0' or 'fixed:1'",
        )
        p.add_argument(
            "--congestion",
            default=None,
            metavar="SPEC",
            help="per-process per-round message budget spec, e.g. "
            "'budget:send=4,receive=8' (both engines; see docs/faults.md)",
        )
        p.add_argument(
            "--schedule",
            default=None,
            metavar="SPEC",
            help="arrival-schedule spec for dynamic-workload protocols "
            "(D-dynamic), e.g. 'arrivals:0x8,3x4' or 'uniform:every=2'",
        )
        p.add_argument(
            "--crashes",
            type=int,
            default=0,
            help="shorthand for the random-crashes adversary (composes with "
            "--kill-active and --adversary)",
        )
        p.add_argument(
            "--max-action-index",
            type=int,
            default=25,
            help="latest action at which a --crashes victim may die",
        )
        p.add_argument(
            "--kill-active",
            type=int,
            default=0,
            help="shorthand for the kill-the-active-process adversary (budget)",
        )
        p.add_argument(
            "--actions-before-kill",
            type=int,
            default=2,
            help="how many actions each active victim survives (--kill-active)",
        )
        p.add_argument(
            "--json",
            action="store_true",
            help="emit machine-readable JSON instead of the table",
        )

    run_p = sub.add_parser("run", help="simulate one protocol execution")
    run_p.add_argument(
        "protocol",
        nargs="?",
        default=None,
        type=str.lower,  # registry names are case-insensitive
        choices=[None] + available_protocols(),
        help="registered protocol name (omit when using --scenario)",
    )
    run_p.add_argument(
        "--scenario",
        default=None,
        metavar="FILE",
        help="run a serialized Scenario JSON file instead of CLI flags",
    )
    add_common(run_p)
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare", help="compare protocols on one workload")
    cmp_p.add_argument(
        "--protocols",
        nargs="+",
        default=["replicate", "naive", "a", "b", "c", "d"],
    )
    add_common(cmp_p)
    cmp_p.set_defaults(func=_cmd_compare)

    rep_p = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    rep_p.add_argument("--quick", action="store_true")
    rep_p.add_argument("--out", default=None)
    rep_p.set_defaults(func=_cmd_report)

    list_p = sub.add_parser("list", help="list registered protocols")
    list_p.set_defaults(func=_cmd_list)

    adv_p = sub.add_parser(
        "adversaries", help="list adversary spec kinds and their parameters"
    )
    adv_p.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable rows instead of the table",
    )
    adv_p.set_defaults(func=_cmd_adversaries)

    serve_p = sub.add_parser(
        "serve", help="run the HTTP simulation service (see docs/serve.md)"
    )
    serve_p.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_p.add_argument("--port", type=int, default=8123, help="bind port (0 = ephemeral)")
    serve_p.add_argument(
        "--job-workers",
        type=int,
        default=4,
        help="threads executing submitted jobs concurrently",
    )
    serve_p.add_argument(
        "--cache-size",
        type=int,
        default=None,
        metavar="N",
        help="LRU capacity of the result cache (default: unbounded)",
    )
    serve_p.add_argument(
        "--cache-file",
        default=None,
        metavar="PATH",
        help="append-only JSONL journal; replayed on restart so the "
        "memo survives",
    )
    serve_p.add_argument(
        "--max-body-bytes",
        type=int,
        default=None,
        metavar="N",
        help="cap on submission body size (HTTP 413 beyond it)",
    )
    serve_p.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        metavar="R",
        help="per-client submissions per second (HTTP 429 + Retry-After "
        "beyond the burst)",
    )
    serve_p.add_argument(
        "--rate-burst",
        type=int,
        default=None,
        metavar="N",
        help="token-bucket burst size (default: ceil of the rate)",
    )
    serve_p.add_argument(
        "--client-quota",
        type=int,
        default=None,
        metavar="N",
        help="lifetime submissions per client (429 with no Retry-After "
        "once spent)",
    )
    serve_p.add_argument(
        "--request-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="bound on how long one request may hold a handler thread",
    )
    serve_p.add_argument(
        "--retries",
        type=int,
        default=3,
        metavar="N",
        help="attempts per job before quarantine (unexpected worker "
        "crashes only; scenario errors never retry)",
    )
    serve_p.add_argument(
        "--retry-backoff",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="base of the doubling delay between job retries",
    )
    serve_p.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="deterministic fault injection, e.g. "
        "'journal_write=0.02,worker=0.01,seed=7' (see docs/chaos.md)",
    )
    serve_p.set_defaults(func=_cmd_serve)

    submit_p = sub.add_parser(
        "submit", help="submit scenario/sweep/suite files to a run server"
    )
    submit_p.add_argument(
        "files", nargs="+", metavar="FILE", help="scenario/sweep/suite JSON file(s)"
    )
    submit_p.add_argument(
        "--server",
        default="http://127.0.0.1:8123",
        metavar="URL",
        help="base URL of a running 'repro serve'",
    )
    submit_p.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="seconds to wait for each job to finish",
    )
    submit_p.add_argument(
        "--http-timeout",
        type=float,
        default=30.0,
        help="per-request HTTP timeout in seconds",
    )
    submit_p.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable job payloads instead of the table",
    )
    submit_p.set_defaults(func=_cmd_submit)

    suite_p = sub.add_parser(
        "suite", help="run, list and check versioned scenario suites"
    )
    suite_sub = suite_p.add_subparsers(dest="suite_command", required=True)

    def add_suite_common(p):
        p.add_argument(
            "files", nargs="+", metavar="FILE", help="suite file(s) (.json/.toml)"
        )
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            help="multiprocessing pool size (1 = serial; metrics are "
            "bit-identical either way)",
        )
        p.add_argument(
            "--json",
            action="store_true",
            help="emit the machine-readable report instead of tables",
        )
        p.add_argument(
            "--out",
            default=None,
            metavar="PATH",
            help="also write the JSON report to PATH (CI artifact)",
        )

    suite_run_p = suite_sub.add_parser(
        "run", help="execute suites and report observed worst-case metrics"
    )
    add_suite_common(suite_run_p)
    suite_run_p.set_defaults(func=_cmd_suite_run, update_pins=False)

    suite_check_p = suite_sub.add_parser(
        "check", help="execute suites and enforce their regression pins"
    )
    add_suite_common(suite_check_p)
    suite_check_p.add_argument(
        "--update-pins",
        action="store_true",
        help="rewrite each suite file's pins from the observed values "
        "instead of enforcing them (rebaselining)",
    )
    suite_check_p.set_defaults(func=_cmd_suite_check)

    suite_list_p = suite_sub.add_parser("list", help="list shipped suite files")
    suite_list_p.add_argument(
        "directory", nargs="?", default="scenarios", help="suite directory"
    )
    suite_list_p.set_defaults(func=_cmd_suite_list)

    suite_diff_p = suite_sub.add_parser(
        "diff",
        help="compare two suite report artifacts (exit 1 on regressions)",
    )
    suite_diff_p.add_argument(
        "old", metavar="OLD", help="baseline report JSON (from --out)"
    )
    suite_diff_p.add_argument(
        "new", metavar="NEW", help="candidate report JSON (from --out)"
    )
    suite_diff_p.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable diff instead of the table",
    )
    suite_diff_p.set_defaults(func=_cmd_suite_diff)

    campaign_p = sub.add_parser(
        "campaign",
        help="plan, run, resume and report large-grid campaigns "
        "(see docs/campaigns.md)",
    )
    campaign_sub = campaign_p.add_subparsers(dest="campaign_command", required=True)

    def add_campaign_file(p):
        p.add_argument("file", metavar="FILE", help="campaign spec JSON file")
        p.add_argument(
            "--json",
            action="store_true",
            help="emit machine-readable JSON instead of tables",
        )

    campaign_plan_p = campaign_sub.add_parser(
        "plan", help="show the grid, chunking and digest without running"
    )
    add_campaign_file(campaign_plan_p)
    campaign_plan_p.set_defaults(func=_cmd_campaign_plan)

    def add_campaign_run(p):
        add_campaign_file(p)
        p.add_argument(
            "--ledger",
            required=True,
            metavar="PATH",
            help="chunk-checkpoint ledger file (created if absent)",
        )
        p.add_argument(
            "--workers",
            type=int,
            default=None,
            help="multiprocessing pool size per chunk (local mode; "
            "metrics are bit-identical either way)",
        )
        p.add_argument(
            "--cache-file",
            default=None,
            metavar="PATH",
            help="shared content-addressed cache journal consulted "
            "before executing and filled after",
        )
        p.add_argument(
            "--server",
            default=None,
            metavar="URL",
            help="execute chunks on a running 'repro serve' instead of "
            "locally (shards then share the server's cache)",
        )
        p.add_argument(
            "--timeout",
            type=float,
            default=600.0,
            help="seconds to wait for each remote chunk (with --server)",
        )
        p.add_argument(
            "--shard",
            default=None,
            metavar="I/K",
            help="only run chunks with index %% K == I (one ledger per shard)",
        )
        p.add_argument(
            "--max-chunks",
            type=int,
            default=None,
            metavar="N",
            help="stop after executing N chunks (deliberate interruption; "
            "resume later)",
        )
        p.add_argument(
            "--report",
            default=None,
            metavar="PATH",
            help="when the campaign completes, also write the JSON report "
            "to PATH (CI artifact)",
        )

    campaign_run_p = campaign_sub.add_parser(
        "run", help="execute the remaining chunks, checkpointing each"
    )
    add_campaign_run(campaign_run_p)
    campaign_run_p.set_defaults(func=_cmd_campaign_run)

    campaign_resume_p = campaign_sub.add_parser(
        "resume", help="like run, but requires an existing ledger"
    )
    add_campaign_run(campaign_resume_p)
    campaign_resume_p.set_defaults(func=_cmd_campaign_resume)

    campaign_status_p = campaign_sub.add_parser(
        "status", help="replay ledgers and show progress (exit 0 iff complete)"
    )
    add_campaign_file(campaign_status_p)
    campaign_status_p.add_argument(
        "--ledger",
        required=True,
        nargs="+",
        metavar="PATH",
        help="ledger file(s); several shards' ledgers merge",
    )
    campaign_status_p.set_defaults(func=_cmd_campaign_status)

    campaign_report_p = campaign_sub.add_parser(
        "report",
        help="merge ledgers into the per-cell worst/mean report "
        "(exit 1 on pin failures)",
    )
    add_campaign_file(campaign_report_p)
    campaign_report_p.add_argument(
        "--ledger",
        required=True,
        nargs="+",
        metavar="PATH",
        help="ledger file(s); several shards' ledgers merge",
    )
    campaign_report_p.add_argument(
        "--partial",
        action="store_true",
        help="report the checkpointed chunks even if the grid is incomplete",
    )
    campaign_report_p.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the JSON report to PATH (CI artifact)",
    )
    campaign_report_p.set_defaults(func=_cmd_campaign_report)

    cache_p = sub.add_parser(
        "cache", help="maintain content-addressed result-cache journals"
    )
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    cache_compact_p = cache_sub.add_parser(
        "compact",
        help="rewrite an append-only cache journal to its live entries",
    )
    cache_compact_p.add_argument(
        "file", metavar="PATH", help="cache journal (JSONL) to compact"
    )
    cache_compact_p.add_argument(
        "--max-entries",
        type=int,
        default=None,
        metavar="N",
        help="replay through an LRU of N entries first (keeps only the "
        "N most recently stored results)",
    )
    cache_compact_p.set_defaults(func=_cmd_cache_compact)
    cache_verify_p = cache_sub.add_parser(
        "verify",
        help="audit a cache journal's checksums without loading it "
        "(exit 1 on corruption)",
    )
    cache_verify_p.add_argument(
        "file", metavar="PATH", help="cache journal (JSONL) to audit"
    )
    cache_verify_p.add_argument(
        "--json", action="store_true", help="emit the audit as JSON"
    )
    cache_verify_p.set_defaults(func=_cmd_cache_verify)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, AdversaryError) as exc:
        # Misconfiguration, or an adversary the protocol cannot take, is
        # a user error: one named line, exit 2 (the same code argparse
        # uses), never a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
