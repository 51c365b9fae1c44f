"""Pin the numbers of every paper experiment, row for row as
EXPERIMENTS.md publishes them.

Each row of ``run_all()`` is a pure function of the code, so a refactor
of how runs execute or reduce must leave them byte-identical.  E13's
wall-clock columns are the only cells that vary between runs and are
dropped before comparing.  After an intended accounting change,
regenerate the pin (and justify its diff) with::

    PYTHONPATH=src python tests/test_experiment_pins.py > tests/data/experiments.json
"""

import json
from pathlib import Path

from repro.analysis import experiments
from repro.analysis.experiments import run_all
from repro.analysis.verify import Check, VerificationReport

PIN = Path(__file__).parent / "data" / "experiments.json"
WALL_CLOCK = ("wall seconds", "rounds/sec")


def rendered_rows() -> str:
    document = [
        {
            "exp_id": result.exp_id,
            "columns": [c for c in result.columns if c not in WALL_CLOCK],
            "rows": [
                {key: value for key, value in row.items() if key not in WALL_CLOCK}
                for row in result.rows
            ],
        }
        for result in run_all()
    ]
    return json.dumps(document, sort_keys=True, indent=1) + "\n"


def test_experiment_rows_match_the_pin():
    assert rendered_rows() == PIN.read_text()


def test_every_experiment_judges_its_runs_through_verify_run(monkeypatch):
    """With every run reported as over a bound, every experiment fails:
    each row's ``ok`` consults ``verify_run``.  E10's Byzantine runs are
    not a registered protocol and check their own message bound."""
    def failing(result, protocol, n, t, **_):
        return VerificationReport(
            protocol, n, t, [Check("work", "0", 0.0, float(n), False)]
        )

    monkeypatch.setattr(experiments, "verify_run", failing)
    verdicts = {result.exp_id: result.all_ok for result in run_all()}
    assert verdicts.pop("E10") is True
    assert not any(verdicts.values()), verdicts


def test_e11_judges_its_async_runs(monkeypatch):
    """E11's A-async runs meet Theorem 2.3's effort bounds through the
    table too: failing them alone fails the experiment."""
    real = experiments.verify_run

    def failing_async(result, protocol, n, t, **options):
        report = real(result, protocol, n, t, **options)
        if protocol.upper() == "A-ASYNC":
            report.checks.append(Check("messages", "0", 0.0, 1.0, False))
        return report

    assert experiments.experiment_e11().all_ok
    monkeypatch.setattr(experiments, "verify_run", failing_async)
    assert not experiments.experiment_e11().all_ok


def test_experiment_entry_points_have_one_grid():
    """No experiment takes a grid-size knob: each runner takes no
    argument and ``run_experiment`` takes only the experiment id."""
    import inspect

    for exp_id, runner in experiments.REGISTRY.items():
        assert not inspect.signature(runner).parameters, exp_id
    assert not inspect.signature(run_all).parameters
    assert list(inspect.signature(experiments.run_experiment).parameters) == [
        "exp_id"
    ]


if __name__ == "__main__":
    print(rendered_rows(), end="")
