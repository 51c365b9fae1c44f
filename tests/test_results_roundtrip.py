"""Result rehydration: `RunResult.from_dict` / `Metrics.from_dict`
rebuild exactly the object an in-process run produced, for every
registered protocol, plus `ResultSet.merge`."""

import json

import pytest

from repro.api import ResultSet, Scenario, Sweep
from repro.core.registry import available_protocols
from repro.errors import ConfigurationError
from repro.sim.actions import MessageKind
from repro.sim.metrics import Metrics, RunResult


def _scenario_for(protocol: str) -> Scenario:
    if protocol in available_protocols("async"):
        return Scenario(
            protocol=protocol,
            n=48,
            t=6,
            crash_times={1: 5.0},
            delay="uniform:0.5,3.0",
            failure_detector={"min_delay": 1.0, "max_delay": 4.0},
            seed=2,
        )
    options = {"interval": 4} if protocol == "naive" else {}
    n, t = (24, 6) if protocol.startswith("c") else (32, 8)
    return Scenario(
        protocol=protocol,
        n=n,
        t=t,
        adversary="random:2,max_action_index=8",
        seed=3,
        options=options,
    )


@pytest.mark.parametrize("protocol", available_protocols())
def test_full_round_trip_rebuilds_an_equal_result(protocol):
    direct = _scenario_for(protocol).run()
    # Through actual JSON text: every key stringifies and must come back.
    wire = json.loads(json.dumps(direct.to_dict(full=True)))
    revived = RunResult.from_dict(wire)
    assert revived == direct  # dataclass equality: metrics, config, all of it
    assert revived.metrics.as_dict() == direct.metrics.as_dict()
    assert revived.metrics.redundant_work() == direct.metrics.redundant_work()
    # And the rehydrated object re-serializes identically.
    assert revived.to_dict(full=True) == direct.to_dict(full=True)


def test_summary_form_is_rejected_with_a_pointer():
    direct = _scenario_for("a").run()
    with pytest.raises(ConfigurationError, match="full=True"):
        RunResult.from_dict(direct.to_dict())


def test_default_to_dict_shape_is_unchanged():
    payload = _scenario_for("a").run().to_dict()
    assert "work_by_unit" not in payload["metrics"]
    assert "last_event_round" not in payload["metrics"]


@pytest.mark.parametrize(
    "mutate, match",
    [
        (lambda d: d.pop("completed"), "completed"),
        (lambda d: d.update(completed="yes"), "'yes'"),
        (lambda d: d.update(survivors="three"), "'three'"),
        (lambda d: d.update(extra=1), "extra"),
        (lambda d: d["metrics"].pop("work_by_unit"), "work_by_unit"),
        (lambda d: d["metrics"].update(work="lots"), "'lots'"),
        (
            lambda d: d["metrics"]["messages_by_kind"].update(bogus=1),
            "bogus",
        ),
        (
            lambda d: d["metrics"]["work_by_unit"].update({"not-an-int": 1}),
            "not-an-int",
        ),
    ],
)
def test_malformed_payloads_name_field_and_value(mutate, match):
    payload = _scenario_for("a").run().to_dict(full=True)
    mutate(payload)
    with pytest.raises(ConfigurationError, match=match):
        RunResult.from_dict(payload)


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"7": True}, "entry '7' must map to a non-negative integer, got True"),
        ({"7": 1.0}, "entry '7' must map to a non-negative integer, got 1.0"),
        ({"7": -1}, "entry '7' must map to a non-negative integer, got -1"),
        ({"x7": 1}, "key 'x7' is not an integer process/unit id"),
    ],
    ids=["bool", "float", "negative", "key"],
)
def test_a_bad_breakdown_entry_is_named(entry, message):
    # Well-formed breakdowns take a bulk path; any bad entry falls back
    # to the per-entry checks, which name it.
    payload = _scenario_for("a").run().to_dict(full=True)
    payload["metrics"]["work_by_process"].update(entry)
    with pytest.raises(ConfigurationError) as raised:
        RunResult.from_dict(payload)
    assert str(raised.value) == f"metrics field 'work_by_process' {message}"


def _bump_first(breakdown, by):
    key = next(iter(breakdown))
    breakdown[key] += by


def _unit_zero(metrics):
    metrics["work_by_unit"] = {"0": metrics["work"]}


def _negative_unit_count(metrics):
    # Sums still match: one unit +1, a fresh valid unit id -1.
    _bump_first(metrics["work_by_unit"], 1)
    metrics["work_by_unit"][str(10**6)] = -1


def _negative_kind_count(metrics):
    kinds = metrics["messages_by_kind"]
    unused = next(kind.value for kind in MessageKind if kind.value not in kinds)
    _bump_first(kinds, 1)
    kinds[unused] = -1


@pytest.mark.parametrize(
    "corrupt, match",
    [
        (lambda m: _bump_first(m["work_by_unit"], 1), "corrupt"),
        (lambda m: _bump_first(m["messages_by_kind"], 5), "corrupt"),
        (_unit_zero, "unit ids start at 1"),
        (_negative_unit_count, "non-negative"),
        (_negative_kind_count, "non-negative"),
    ],
    ids=[
        "work_by_unit_sum",
        "messages_by_kind_sum",
        "unit_id_zero",
        "negative_unit_count",
        "negative_kind_count",
    ],
)
def test_corrupted_breakdown_totals_are_detected(corrupt, match):
    payload = _scenario_for("a").run().to_dict(full=True)
    corrupt(payload["metrics"])
    with pytest.raises(ConfigurationError, match=match):
        RunResult.from_dict(payload)


def test_metrics_from_dict_requires_a_dict():
    with pytest.raises(ConfigurationError, match="dict"):
        Metrics.from_dict([1, 2, 3])
    with pytest.raises(ConfigurationError, match="dict"):
        RunResult.from_dict("nope")


# ---- ResultSet.merge --------------------------------------------------------


def test_merge_recombines_in_order():
    base = Scenario(protocol="A", n=32, t=8, adversary="random:2", seed=0)
    first = Sweep(base=base, seeds=[0, 1]).run()
    second = Sweep(base=base, seeds=[2]).run()
    merged = ResultSet.merge(first, second)
    assert len(merged) == 3
    assert [s.seed for s, _ in merged] == [0, 1, 2]
    everything = Sweep(base=base, seeds=[0, 1, 2]).run()
    assert merged.worst() == everything.worst()
    assert merged.mean() == everything.mean()
    assert merged.table() == everything.table()


def test_merge_rejects_non_result_sets():
    with pytest.raises(ConfigurationError, match="ResultSet"):
        ResultSet.merge(ResultSet([]), [("scenario", "result")])


def test_merge_of_nothing_is_empty():
    assert len(ResultSet.merge()) == 0
