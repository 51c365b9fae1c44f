"""Workload scenarios and the WorkSpec abstraction."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.actions import Broadcast, MessageKind
from repro.work.spec import WorkSpec
from repro.work.workloads import scenario, scenario_names


def test_scenarios_exist():
    names = scenario_names()
    assert "valve-shutdown" in names
    assert "idle-workstations" in names
    assert len(names) >= 5


def test_scenario_lookup_and_labels():
    spec = scenario("valve-shutdown", 3)
    assert spec.n == 3
    assert spec.labels() == [
        "verify valve #1 is closed",
        "verify valve #2 is closed",
        "verify valve #3 is closed",
    ]


def test_every_scenario_builds():
    for name in scenario_names():
        spec = scenario(name, 5)
        assert spec.n == 5
        assert len(spec.labels()) == 5
        assert all(isinstance(label, str) for label in spec.labels())


def test_unknown_scenario_raises():
    with pytest.raises(ConfigurationError):
        scenario("nope", 3)


def test_workspec_rejects_negative_n():
    with pytest.raises(ConfigurationError):
        WorkSpec(n=-1)


def test_workspec_unit_effect_hook():
    spec = WorkSpec(
        n=2,
        unit_effect=lambda pid, unit, rnd: Broadcast((unit,), ("fx",), MessageKind.VALUE),
    )
    sends = spec.unit_effect(0, 1, 5)
    assert sends.dsts() == (1,) and sends.kind is MessageKind.VALUE


def test_workspec_default_description():
    spec = WorkSpec(n=1)
    assert spec.describe_unit(1) == "unit 1"
