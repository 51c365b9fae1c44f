"""Pin the numbers of every paper experiment on its quick grid.

Each row of ``run_all(quick=True)`` is a pure function of the code, so a
refactor of how runs execute or reduce must leave them byte-identical.
E13's wall-clock columns are the only cells that vary between runs and
are dropped before comparing.  After an intended accounting change,
regenerate the pin (and justify its diff) with::

    PYTHONPATH=src python tests/test_experiment_pins.py > tests/data/experiments_quick.json
"""

import json
from pathlib import Path

from repro.analysis.experiments import run_all

PIN = Path(__file__).parent / "data" / "experiments_quick.json"
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
        for result in run_all(quick=True)
    ]
    return json.dumps(document, sort_keys=True, indent=1) + "\n"


def test_quick_experiment_rows_match_the_pin():
    assert rendered_rows() == PIN.read_text()


if __name__ == "__main__":
    print(rendered_rows(), end="")
