"""The arrival-schedule spec grammar and the D-dynamic registry entry.

What is pinned here: the grammar canonicalises/validates with named
errors, ``schedule_from_spec`` materialises exactly the schedules the
hand-built constructors produce, and ``D-dynamic`` is reachable through
every declarative surface (registry, Scenario, JSON round-trip, CLI)
with metrics identical to wiring the engine by hand.
"""

import json
from pathlib import Path

import pytest

from repro.api import Scenario
from repro.core.protocol_d_dynamic import (
    build_dynamic_protocol_d,
    uniform_arrivals,
)
from repro.core.registry import available_protocols, get_entry, run_protocol
from repro.errors import ConfigurationError
from repro.sim.engine import Engine
from repro.sim.specs import normalize_schedule_spec, schedule_from_spec
from repro.work.tracker import WorkTracker
from repro.__main__ import main as cli_main


# ---------------------------------------------------------------------
# Grammar: normalization
# ---------------------------------------------------------------------


def test_none_means_uniform_default():
    assert normalize_schedule_spec(None) == {"kind": "uniform"}


def test_uniform_string_forms():
    assert normalize_schedule_spec("uniform") == {"kind": "uniform"}
    assert normalize_schedule_spec("uniform:2") == {"kind": "uniform", "every": 2}
    assert normalize_schedule_spec("uniform:every=2,start=5") == {
        "kind": "uniform",
        "every": 2,
        "start": 5,
    }


def test_arrivals_string_form():
    assert normalize_schedule_spec("arrivals:0x8,3x4") == {
        "kind": "arrivals",
        "batches": [[0, 8], [3, 4]],
    }


def test_dict_form_is_idempotent():
    spec = {"kind": "arrivals", "batches": [[0, 8], [3, 4]]}
    assert normalize_schedule_spec(spec) == spec
    assert normalize_schedule_spec(normalize_schedule_spec("arrivals:0x8,3x4")) == spec


@pytest.mark.parametrize(
    "bad, fragment",
    [
        ("rush-hour", "unknown schedule kind"),
        ("explicit", "no string form"),
        ("arrivals", "non-empty list of [round, count] pairs"),
        ("arrivals:8", "expected ROUNDxCOUNT"),
        ("arrivals:0x8,count=3", "positional ROUNDxCOUNT"),
        ("uniform:every=0", "must be >= 1"),
        ("uniform:pace=3", "unknown parameter(s) ['pace']"),
        ({"batches": [[0, 8]]}, "need a 'kind' key"),
        ({"kind": "arrivals", "batches": []}, "non-empty list"),
        ({"kind": "arrivals", "batches": [[0]]}, "[round, count] pair"),
        ({"kind": "arrivals", "batches": [[0, "many"]]}, "must be an integer"),
        ({"kind": "explicit", "arrivals": [[0, 1]]}, "[round, site, unit] triple"),
        (7, "must be None, a string, or a dict"),
    ],
)
def test_bad_specs_raise_named_configuration_errors(bad, fragment):
    with pytest.raises(ConfigurationError) as excinfo:
        normalize_schedule_spec(bad)
    assert fragment in str(excinfo.value)


# ---------------------------------------------------------------------
# Grammar: materialization
# ---------------------------------------------------------------------


def test_uniform_spec_matches_hand_built_schedule():
    from_spec = schedule_from_spec(12, 4, "uniform:every=2,start=1")
    by_hand = uniform_arrivals(12, 4, every=2, start=1)
    assert from_spec.arrivals == by_hand.arrivals


def test_arrival_batches_land_round_robin():
    schedule = schedule_from_spec(12, 4, "arrivals:0x8,3x4")
    assert schedule.total_units == 12
    assert schedule.horizon == 3
    # Units are numbered sequentially across batches; sites round-robin.
    assert [(r, s, u) for r, s, u in schedule.arrivals if r == 3] == [
        (3, 0, 9),
        (3, 1, 10),
        (3, 2, 11),
        (3, 3, 12),
    ]


def test_batch_counts_must_sum_to_n():
    with pytest.raises(ConfigurationError, match="counts must sum to n"):
        schedule_from_spec(10, 4, "arrivals:0x8,3x4")


def test_explicit_schedule_checks_sites_and_units():
    spec = {"kind": "explicit", "arrivals": [[0, 0, 1], [2, 1, 2]]}
    schedule = schedule_from_spec(2, 2, spec)
    assert schedule.arrivals == [(0, 0, 1), (2, 1, 2)]
    with pytest.raises(ConfigurationError, match="out of range"):
        schedule_from_spec(2, 2, {"kind": "explicit", "arrivals": [[0, 5, 1], [0, 0, 2]]})
    with pytest.raises(ConfigurationError, match="exactly units 1..3"):
        schedule_from_spec(3, 2, {"kind": "explicit", "arrivals": [[0, 0, 1], [0, 1, 2]]})


# ---------------------------------------------------------------------
# D-dynamic through the declarative surfaces
# ---------------------------------------------------------------------


def test_d_dynamic_is_registered_as_a_sync_protocol():
    assert "d-dynamic" in available_protocols()
    assert "d-dynamic" in available_protocols("sync")
    entry = get_entry("D-dynamic")
    assert entry.engine == "sync"
    assert not entry.single_active


def test_scenario_run_matches_hand_wired_engine():
    scenario = Scenario(
        protocol="D-dynamic",
        n=24,
        t=4,
        seed=3,
        options={"schedule": "uniform:every=2", "cycle_length": 12},
    )
    via_scenario = scenario.run()

    processes = build_dynamic_protocol_d(
        4, uniform_arrivals(24, 4, every=2), cycle_length=12
    )
    by_hand = Engine(processes, tracker=WorkTracker(24), seed=3).run()

    assert via_scenario.completed and by_hand.completed
    assert via_scenario.metrics.as_dict() == by_hand.metrics.as_dict()


def test_scenario_json_round_trip_reproduces_metrics():
    scenario = Scenario(
        protocol="D-dynamic",
        n=12,
        t=4,
        seed=1,
        options={"schedule": "arrivals:0x8,3x4", "cycle_length": 8},
    )
    first = scenario.run()
    again = Scenario.from_json(scenario.to_json()).run()
    assert first.completed
    assert first.metrics.as_dict() == again.metrics.as_dict()


def test_run_protocol_shorthand_accepts_schedule_spec():
    result = run_protocol("D-dynamic", 12, 4, schedule="arrivals:0x12", cycle_length=8)
    assert result.completed


def test_schedule_option_is_canonicalised_at_construction():
    # Spelling variants compare equal, like adversary/delay specs ...
    by_string = Scenario(
        protocol="D-dynamic", n=12, t=4, options={"schedule": "arrivals:0x8,3x4"}
    )
    by_dict = Scenario(
        protocol="D-dynamic",
        n=12,
        t=4,
        options={"schedule": {"kind": "arrivals", "batches": [[0, 8], [3, 4]]}},
    )
    assert by_string == by_dict
    # ... and a bogus spec fails at construction (i.e. at suite load),
    # not halfway through a run.
    with pytest.raises(ConfigurationError, match="unknown schedule kind"):
        Scenario(protocol="D-dynamic", n=12, t=4, options={"schedule": "rush-hour"})


def test_bad_schedule_spec_fails_with_named_error_at_build_time():
    # The batch-count/n cross-check needs (n, t), so it fires at build.
    scenario = Scenario(
        protocol="D-dynamic", n=12, t=4, options={"schedule": "arrivals:0x5"}
    )
    with pytest.raises(ConfigurationError, match="counts must sum to n"):
        scenario.run()


def test_schedule_option_on_static_protocol_is_a_named_error():
    with pytest.raises(ConfigurationError, match="rejected builder option"):
        Scenario(protocol="A", n=12, t=4, options={"schedule": "uniform"}).run()


def test_cli_runs_d_dynamic_with_schedule_flag(capsys):
    rc = cli_main(
        [
            "run",
            "d-dynamic",
            "--n",
            "12",
            "--t",
            "4",
            "--schedule",
            "arrivals:0x8,3x4",
            "--json",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert '"completed": true' in out
    assert '"kind": "arrivals"' in out  # canonical dict form in the echo


def test_cli_schedule_misuse_is_a_clean_error(capsys):
    rc = cli_main(["run", "a", "--n", "12", "--t", "4", "--schedule", "uniform"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "rejected builder option" in err


# ---------------------------------------------------------------------
# The per-site arrival index
# ---------------------------------------------------------------------


def _shipped_schedules():
    """``(n, t, schedule spec)`` of every D-dynamic scenario the suites
    and campaigns ship, the large-t benchmark's and the default."""
    from repro.campaign.spec import CampaignSpec
    from repro.suites import Suite

    root = Path(__file__).resolve().parent.parent
    grids = [
        entry.scenarios()
        for path in sorted(root.glob("scenarios/*.json"))
        for entry in Suite.from_file(path).entries
    ] + [
        CampaignSpec.from_file(path).grid.scenarios()
        for path in sorted(root.glob("campaigns/*.json"))
    ]
    shapes = {
        (scenario.n, scenario.t, json.dumps(scenario.options.get("schedule"), sort_keys=True))
        for grid in grids
        for scenario in grid
        if scenario.protocol == "D-dynamic"
    }
    shapes |= {(1024, 32, json.dumps("arrivals:0x512,40x256,80x256")), (48, 6, "null")}
    return sorted(shapes)


SHIPPED_SCHEDULES = _shipped_schedules()


@pytest.mark.parametrize("n,t,spec", SHIPPED_SCHEDULES)
def test_at_site_equals_a_scan_of_every_arrival(n, t, spec):
    schedule = schedule_from_spec(n, t, json.loads(spec))
    for pid in range(t + 1):
        scanned = [(rnd, unit) for rnd, site, unit in schedule.arrivals if site == pid]
        assert schedule.at_site(pid) == scanned


def test_the_shipped_documents_hold_d_dynamic_schedules():
    assert sum(spec != "null" for _, _, spec in SHIPPED_SCHEDULES) >= 3
