"""Public API surface: registry, run_protocol, package exports."""

import inspect

import pytest

import repro
from repro import available_protocols, build_processes, run_protocol
from repro.core.registry import get_entry
from repro.errors import ConfigurationError


def test_all_protocols_registered():
    names = available_protocols()
    for expected in ("a", "b", "c", "c-batched", "d", "replicate", "naive"):
        assert expected in names


def test_names_case_insensitive():
    assert run_protocol("a", 10, 4, seed=0).completed
    assert run_protocol("A", 10, 4, seed=0).completed


def test_unknown_protocol_raises_with_listing():
    with pytest.raises(ConfigurationError) as excinfo:
        run_protocol("Z", 10, 4)
    assert "available" in str(excinfo.value)


def test_build_processes_returns_t_processes():
    processes = build_processes("B", 20, 7)
    assert len(processes) == 7
    assert [p.pid for p in processes] == list(range(7))


def test_run_result_summary_contains_key_measures():
    result = run_protocol("A", 12, 4, seed=1)
    summary = result.summary()
    for key in ("work", "messages", "effort", "rounds", "completed", "survivors"):
        assert key in summary


def test_strict_invariants_default_per_protocol():
    # Protocol D runs many workers at once; the registry must not apply
    # the single-active invariant to it.
    assert run_protocol("D", 16, 4, seed=0).completed


def test_options_forwarded_to_builder():
    result = run_protocol("naive", 20, 4, interval=10, seed=0)
    assert result.completed


def test_seed_determinism():
    first = run_protocol("B", 40, 9, seed=123)
    second = run_protocol("B", 40, 9, seed=123)
    assert first.metrics.as_dict() == second.metrics.as_dict()


def test_package_exports():
    assert repro.__version__
    assert callable(repro.run_protocol)
    assert repro.Engine is not None
    assert repro.WorkTracker is not None


def test_deprecated_duplicate_registration_overwrites():
    from repro.core.registry import register
    from repro.core.protocol_a import build_protocol_a

    register("custom-a", build_protocol_a, single_active=True)
    assert "custom-a" in available_protocols()
    result = run_protocol("custom-a", 8, 4, seed=0)
    assert result.completed


#: Every built-in protocol's builder options.  The protocol name selects
#: the run; a new option has to change this table on purpose.
BUILDER_OPTIONS = {
    "a": (),
    "a-async": ("step_delay",),
    "b": (),
    "c": (),
    "c-batched": (),
    "c-naive": (),
    "d": ("revert_threshold",),
    "d-dynamic": ("schedule", "cycle_length"),
    "d-recovery": (),
    "naive": ("interval",),
    "replicate": (),
}


def test_builder_option_surface_is_pinned():
    assert set(BUILDER_OPTIONS) <= set(available_protocols())
    surface = {}
    for name in BUILDER_OPTIONS:
        parameters = list(inspect.signature(get_entry(name).builder).parameters)
        assert parameters[:2] == ["n", "t"], name
        surface[name] = tuple(parameters[2:])
    assert surface == BUILDER_OPTIONS
