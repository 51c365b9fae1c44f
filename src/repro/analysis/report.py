"""EXPERIMENTS.md generator.

Usage::

    python -m repro.analysis.report            # every experiment (seconds)
    python -m repro.analysis.report --out PATH # write elsewhere

Runs every experiment in the registry and writes a paper-vs-measured
report; the exit status is 1 if any paper claim fails.  Each experiment
has one grid: ``tests/test_experiment_pins.py`` pins its rows, and CI's
``experiments`` job regenerates the report and uploads it.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.analysis.experiments import ExperimentResult, run_all
from repro.analysis.tables import render_dict_rows

HEADER = """# EXPERIMENTS - paper vs measured

Reproduction report for Dwork, Halpern & Waarts, *Performing Work
Efficiently in the Presence of Faults* (PODC 1992 / SIAM J. Computing).

The paper's evaluation is analytic: worst-case bounds per protocol.  Each
section below corresponds to one theorem-level claim (the experiment ids
are the keys of `REGISTRY` in `repro/analysis/experiments.py`), showing
the paper's bound next to the worst measurement over that experiment's
adversary battery and seeds.  `ok` means two things held.  Every run of
the row passed `verify_run`: each execution with a survivor did all the
work, and each run stayed within every bound the paper proves for its
protocol, judged on that run's own crash count.  And the experiment's
own claim held: an ordering, an exact count or a growth shape.  E10's
Byzantine agreement runs check their own message bound.

Absolute round counts depend on timeout constants; the implementation
uses the paper's constants plus a small slack (documented in
`repro/core/deadlines.py`).  Each time bound carries that slack as its
own `Bound.slack` (4t rounds), which `verify_run` allows; the round
columns show the paper's formula.

Regenerate with: `python -m repro.analysis.report`
"""


def render_report(results: List[ExperimentResult], elapsed: float) -> str:
    parts = [HEADER]
    ok_count = sum(1 for result in results if result.all_ok)
    parts.append(
        f"**Summary: {ok_count}/{len(results)} experiments reproduce their "
        f"paper claim.**  (Generated in {elapsed:.1f}s.)\n"
    )
    for result in results:
        parts.append(f"## {result.exp_id}: {result.title}\n")
        parts.append(f"*Paper claim:* {result.claim}\n")
        parts.append(render_dict_rows(result.columns, result.rows))
        parts.append("")
        if result.notes:
            parts.append(f"*Notes:* {result.notes}\n")
        status = "reproduced" if result.all_ok else "NOT fully reproduced - see rows"
        parts.append(f"*Status:* **{status}**\n")
    return "\n".join(parts)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parents[3] / "EXPERIMENTS.md",
        help="output path (default: repository EXPERIMENTS.md)",
    )
    args = parser.parse_args(argv)
    start = time.perf_counter()
    results = run_all()
    elapsed = time.perf_counter() - start
    report = render_report(results, elapsed)
    args.out.write_text(report)
    print(f"wrote {args.out} ({len(results)} experiments, {elapsed:.1f}s)")
    for result in results:
        status = "ok" if result.all_ok else "CHECK"
        print(f"  [{status:>5}] {result.exp_id}: {result.title}")
    return 0 if all(result.all_ok for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
