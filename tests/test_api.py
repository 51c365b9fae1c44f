"""The unified Scenario API: serialization round-trips, spec parsing,
engine-aware registry, sweeps and the JSON result surface."""

import json

import pytest

import repro
from repro import api
from repro.api import ResultSet, Scenario, Sweep
from repro.core.registry import available_protocols, get_entry, run_protocol
from repro.errors import ConfigurationError
from repro.sim.adversary import (
    Adversary,
    KillActive,
    adversary_from_spec,
    normalize_adversary_spec,
)
from repro.sim.async_engine import delay_model_from_spec, normalize_delay_spec

# ---- acceptance: JSON round-trip reproduces the run exactly -----------------


def _small_sync_scenario(protocol: str) -> Scenario:
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


@pytest.mark.parametrize("protocol", available_protocols("sync"))
def test_sync_json_round_trip_reproduces_metrics(protocol):
    scenario = _small_sync_scenario(protocol)
    direct = scenario.run()
    revived = Scenario.from_json(scenario.to_json()).run()
    assert direct.metrics.as_dict() == revived.metrics.as_dict()
    assert direct.completed == revived.completed


@pytest.mark.parametrize("protocol", available_protocols("async"))
def test_async_json_round_trip_reproduces_metrics(protocol):
    scenario = Scenario(
        protocol=protocol,
        n=48,
        t=6,
        crash_times={1: 5.0, 2: 9.5},
        delay="uniform:0.5,3.0",
        failure_detector={"min_delay": 1.0, "max_delay": 4.0},
        seed=2,
    )
    direct = scenario.run()
    # Through actual JSON text: keys stringify and must come back as ints.
    revived = Scenario.from_dict(json.loads(scenario.to_json())).run()
    assert direct.metrics.as_dict() == revived.metrics.as_dict()
    assert direct.completed


def test_from_dict_equals_constructor():
    scenario = _small_sync_scenario("b")
    assert Scenario.from_dict(scenario.to_dict()) == scenario


def test_scenario_file_round_trip(tmp_path):
    scenario = _small_sync_scenario("a")
    path = scenario.save(tmp_path / "scenario.json")
    assert Scenario.from_file(path) == scenario


def test_run_protocol_matches_scenario_run():
    # The thin wrapper and the declarative path account identically.
    wrapped = run_protocol(
        "B", 64, 8, adversary=KillActive(3, actions_before_kill=2), seed=5
    )
    declarative = Scenario(
        protocol="B",
        n=64,
        t=8,
        adversary="kill-active:3,actions_before_kill=2",
        seed=5,
    ).run()
    assert wrapped.metrics.as_dict() == declarative.metrics.as_dict()


def test_run_protocol_takes_adversary_specs():
    # run_protocol reads an adversary spec the way Scenario does.
    for spec in ("random:4", {"kind": "kill-active", "budget": 3}):
        wrapped = run_protocol("D", 256, 16, adversary=spec, seed=1)
        declarative = Scenario(protocol="D", n=256, t=16, adversary=spec, seed=1).run()
        assert wrapped.metrics.as_dict(full=True) == declarative.metrics.as_dict(full=True)
    with pytest.raises(ConfigurationError, match="unknown adversary kind"):
        run_protocol("D", 256, 16, adversary="bogus:4", seed=1)


# ---- RunResult.to_dict and the config echo ----------------------------------


def test_run_result_to_dict_shape():
    result = _small_sync_scenario("a").run()
    payload = result.to_dict()
    for key in ("completed", "survivors", "halted", "stalled", "metrics", "config"):
        assert key in payload
    assert payload["metrics"]["work"] == result.metrics.work_total
    assert payload["config"]["protocol"] == "a"
    assert payload["config"]["adversary"]["kind"] == "random"
    json.dumps(payload)  # JSON-safe end to end


def test_direct_run_protocol_has_no_config_echo():
    result = run_protocol("A", 16, 4, seed=0)
    assert result.config is None
    assert "config" not in result.to_dict()


def test_live_adversary_runs_but_does_not_serialize():
    scenario = Scenario(
        protocol="A", n=16, t=4, adversary=KillActive(2), seed=1
    )
    result = scenario.run()
    assert result.completed
    assert result.config is None  # cannot echo a live object
    with pytest.raises(ConfigurationError, match="not serializable"):
        scenario.to_dict()


def test_live_adversary_state_is_fresh_per_run():
    # Adversaries are stateful (budgets, countdowns); a scenario holding a
    # live instance must not hand later runs a spent one.
    scenario = Scenario(
        protocol="A", n=64, t=8, adversary=KillActive(5, actions_before_kill=2)
    )
    first = scenario.run()
    second = scenario.run()
    assert first.metrics.crashes == 5
    assert first.metrics.as_dict() == second.metrics.as_dict()
    sweep_crashes = [
        result.metrics.crashes
        for result in Sweep(base=scenario, seeds=range(3)).run().results
    ]
    assert sweep_crashes == [5, 5, 5]


# ---- spec parser errors ------------------------------------------------------


def test_unknown_adversary_kind_lists_known_kinds():
    with pytest.raises(ConfigurationError) as excinfo:
        adversary_from_spec("meteor-strike:3")
    message = str(excinfo.value)
    assert "meteor-strike" in message
    assert "kill-active" in message and "random" in message


def test_unknown_adversary_param_lists_accepted():
    with pytest.raises(ConfigurationError) as excinfo:
        adversary_from_spec("random:3,bogus=1")
    message = str(excinfo.value)
    assert "bogus" in message and "max_action_index" in message


def test_missing_required_param_is_named():
    with pytest.raises(ConfigurationError, match="count"):
        adversary_from_spec({"kind": "random"})


def test_bad_crash_phase_is_named():
    with pytest.raises(ConfigurationError, match="phase"):
        adversary_from_spec({"kind": "kill-active", "budget": 1, "phase": "sideways"})


def test_spec_builds_fresh_instances():
    spec = "kill-active:2"
    first, second = adversary_from_spec(spec), adversary_from_spec(spec)
    assert first is not second
    assert isinstance(first, Adversary)


def test_normalize_canonicalises_string_and_dict_forms():
    from_string = normalize_adversary_spec("random:5,max_action_index=25")
    from_dict = normalize_adversary_spec(
        {"kind": "RANDOM", "count": 5, "max_action_index": 25}
    )
    assert from_string == from_dict
    assert normalize_adversary_spec(None) is None
    assert normalize_adversary_spec("none") is None


def test_delay_spec_errors_and_round_trip():
    assert normalize_delay_spec("fixed:2") == {"kind": "fixed", "delay": 2.0}
    with pytest.raises(ConfigurationError, match="warp"):
        delay_model_from_spec("warp:9")
    with pytest.raises(ConfigurationError, match="low"):
        delay_model_from_spec({"kind": "uniform", "wrong": 1})
    # Junk numbers must surface as ConfigurationError, not bare ValueError.
    with pytest.raises(ConfigurationError, match="number"):
        delay_model_from_spec("uniform:abc")
    with pytest.raises(ConfigurationError, match="number"):
        delay_model_from_spec({"kind": "fixed", "delay": "soon"})
    # Negative, non-finite and inverted delays fail at construction,
    # naming the value.
    for bad, fragment in [
        ("fixed:-1", "got -1.0"),
        ("fixed:nan", "got 'nan'"),
        ({"kind": "fixed", "delay": float("inf")}, "got inf"),
        ("uniform:4,1", "got [4.0, 1.0]"),
        ("uniform:low=5", "got [5.0, 4.0]"),
    ]:
        with pytest.raises(ConfigurationError) as excinfo:
            Scenario("A-async", 32, 4, engine="async", delay=bad)
        assert fragment in str(excinfo.value)


def test_unknown_scenario_field_is_rejected():
    with pytest.raises(ConfigurationError, match="wrong_field"):
        Scenario.from_dict({"protocol": "a", "n": 8, "t": 2, "wrong_field": 1})


def test_scenario_missing_required_fields():
    with pytest.raises(ConfigurationError, match="t"):
        Scenario.from_dict({"protocol": "a", "n": 8})


@pytest.mark.parametrize(
    "field, value, fragment",
    [
        ("n", "5", "scenario field 'n' must be an integer, got '5'"),
        ("seed", True, "scenario field 'seed' must be an integer, got True"),
        ("engine", 3, "unknown engine 3; choices: auto, sync, async"),
        ("options", [1], "scenario field 'options' must be a dict, got [1]"),
        (
            "failure_detector",
            {"min_delay": "x"},
            "failure_detector field 'min_delay' must be a number, got 'x'",
        ),
        ("crash_times", {"x": 1.0}, "crash_times pid 'x' must be an integer"),
        ("crash_times", {0: "soon"}, "pid 0 must be a numeric time, got 'soon'"),
        ("crash_times", {1.9: 2.0}, "crash_times pid 1.9 must be an integer"),
        ("crash_times", {True: 2.0}, "crash_times pid True must be an integer"),
        ("crash_times", {"1": 2.0, 1: 3.0}, "crash_times names pid 1 twice"),
    ],
)
def test_constructor_and_from_dict_share_one_validation_path(field, value, fragment):
    fields = {"protocol": "A-async", "n": 16, "t": 4, field: value}
    messages = []
    for build in (lambda: Scenario(**fields), lambda: Scenario.from_dict(fields)):
        with pytest.raises(ConfigurationError) as excinfo:
            build()
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]
    assert fragment in messages[0]


@pytest.mark.parametrize("field", [name for _, _, names in api._FIELD_TYPES for name in names])
def test_every_typed_field_is_checked(field):
    # The constructor's exact-type fast path must cover every field of
    # the table that names the error.
    with pytest.raises(ConfigurationError, match=f"scenario field '{field}' must be"):
        Scenario(**{"protocol": "A", "n": 16, "t": 4, field: b"x"})


def test_crash_times_are_canonical_at_construction():
    scenario = Scenario(
        protocol="A-async", n=16, t=4, crash_times={3: 2, 1: 0.5},
        failure_detector={"min_delay": 1, "max_delay": 3},
    )
    assert list(scenario.crash_times.items()) == [(1, 0.5), (3, 2.0)]
    assert scenario.failure_detector == {"min_delay": 1.0, "max_delay": 3.0}
    assert Scenario.from_json(scenario.to_json()) == scenario


def test_unknown_fastpath_value_is_rejected_with_choices():
    for build in (
        lambda: Scenario(protocol="a", n=8, t=2, fastpath="turbo"),
        lambda: Scenario.from_dict(
            {"protocol": "a", "n": 8, "t": 2, "fastpath": "turbo"}
        ),
    ):
        with pytest.raises(ConfigurationError) as excinfo:
            build()
        message = str(excinfo.value)
        assert "fastpath" in message and "'turbo'" in message
        for choice in ("auto", "on", "off"):
            assert choice in message


def test_fastpath_round_trips_and_default_stays_implicit():
    explicit = Scenario(protocol="a", n=8, t=2, fastpath="off")
    assert explicit.to_dict()["fastpath"] == "off"
    assert Scenario.from_dict(explicit.to_dict()) == explicit
    assert "fastpath" not in Scenario(protocol="a", n=8, t=2).to_dict()


def test_builder_option_named_like_a_run_setting_is_rejected():
    for name in ("seed", "adversary", "fastpath", "name", "n"):
        scenario = Scenario(protocol="a", n=8, t=2, options={name: 1})
        with pytest.raises(ConfigurationError, match="rejected builder option"):
            scenario.run()


def test_fastpath_is_a_sync_engine_knob():
    with pytest.raises(ConfigurationError, match="sync"):
        Scenario(protocol="A-async", n=8, t=2, fastpath="off").run()


# ---- engine-aware registry ---------------------------------------------------


def test_registry_reports_both_engine_kinds():
    everything = available_protocols()
    assert "a" in everything and "a-async" in everything
    assert "a-async" in available_protocols("async")
    assert "a-async" not in available_protocols("sync")
    assert set(available_protocols()) == set(
        available_protocols("sync") + available_protocols("async")
    )


def test_entries_carry_engine_and_capability_metadata():
    assert get_entry("A").engine == "sync"
    assert get_entry("a-async").engine == "async"
    assert get_entry("a").single_active
    assert not get_entry("d").single_active


def test_run_protocol_rejects_async_entries_helpfully():
    with pytest.raises(ConfigurationError, match="[Ss]cenario"):
        run_protocol("A-async", 16, 4)


def test_engine_auto_resolves_from_registry():
    assert Scenario(protocol="A", n=8, t=2).resolved_engine == "sync"
    assert Scenario(protocol="A-async", n=8, t=2).resolved_engine == "async"
    with pytest.raises(ConfigurationError, match="sync"):
        Scenario(protocol="A", n=8, t=2, engine="async").resolved_engine


def test_engine_mismatched_fields_are_rejected():
    with pytest.raises(ConfigurationError, match="crash_times"):
        Scenario(protocol="A", n=8, t=2, crash_times={0: 1.0}).run()
    with pytest.raises(ConfigurationError, match="crash_times"):
        Scenario(protocol="A-async", n=8, t=2, adversary="random:1").run()


# ---- sweeps ------------------------------------------------------------------


def test_sweep_fans_out_seeds_and_adversaries():
    sweep = Sweep(
        base=Scenario(protocol="A", n=24, t=4),
        seeds=range(2),
        adversaries=[None, "random:2,max_action_index=6"],
    )
    results = sweep.run()
    assert len(results) == 4
    assert results.all_completed
    worst, mean = results.worst(), results.mean()
    assert worst["work"] >= 24
    assert worst["work"] >= mean["work"]
    json.dumps(results.as_dict())


def test_sweep_over_protocols_renders_table():
    sweep = Sweep(
        base=Scenario(protocol="A", n=24, t=4, seed=1),
        protocols=["A", "D"],
        adversaries=[None, "kill-active:2"],
    )
    table = sweep.run().table(reduce="worst")
    assert "| a" in table and "| d" in table
    assert "effort" in table


def test_sweep_serialization_round_trip():
    sweeps = [
        Sweep(
            base=Scenario(protocol="B", n=16, t=4),
            seeds=[0, 1],
            adversaries=["random:1"],
            protocols=["a", "b"],
        ),
        Sweep.from_dict(
            {
                "base": {"protocol": "B", "n": 16, "t": 4},
                "seeds": {"start": 3, "count": 2},
                "n": [12, 16],
                "t": [2, 4],
            }
        ),
    ]
    assert sweeps[1].to_dict()["seeds"] == [3, 4]
    for sweep in sweeps:
        revived = Sweep.from_json(sweep.to_json())
        assert revived.to_dict() == sweep.to_dict()
        assert [s.to_dict() for s in revived.scenarios()] == [
            s.to_dict() for s in sweep.scenarios()
        ]


@pytest.mark.parametrize(
    "axes, field",
    [
        ({"seeds": 3}, "seeds"),
        ({"seeds": "12"}, "seeds"),  # a string would iterate as '1', '2'
        ({"seeds": []}, "seeds"),
        ({"seeds": [1, True]}, "seeds"),
        ({"seeds": [1.5]}, "seeds"),
        ({"protocols": "AB"}, "protocols"),  # would run protocols A and B
        ({"protocols": []}, "protocols"),
        ({"protocols": ["a", 7]}, "protocols"),
        ({"adversaries": "random:1"}, "adversaries"),
        ({"adversaries": []}, "adversaries"),
        ({"n": [8, 0]}, "n"),
        ({"t": []}, "t"),
        ({"seeds": {"start": 0, "count": 0}}, "seeds"),
        ({"seeds": {"begin": 0, "count": 2}}, "seeds"),
    ],
)
def test_sweep_from_dict_rejects_malformed_axes(axes, field):
    with pytest.raises(ConfigurationError, match=f"sweep '{field}'"):
        Sweep.from_dict({"base": {"protocol": "a", "n": 8, "t": 2}, **axes})


@pytest.mark.parametrize("field", ["seeds", "adversaries", "protocols", "n", "t"])
def test_sweep_rejects_an_empty_axis_at_construction(field):
    # Not only from documents: an empty grid would otherwise fail much
    # later, in worst(), with "cannot reduce an empty ResultSet".
    with pytest.raises(ConfigurationError, match=f"sweep '{field}'"):
        Sweep(Scenario(protocol="A", n=8, t=2), **{field: []})


def test_sweep_grid_order_and_addressing():
    sweep = Sweep(
        base=Scenario(protocol="A", n=8, t=2, name="grid"),
        seeds=[5, 6],
        adversaries=[None, "random:1"],
        protocols=["A", "B"],
        n=[6, 8],
        t=[2, 4],
    )
    rows = list(sweep.scenarios())
    assert len(sweep) == len(rows) == 2 * 2 * 2 * 2 * 2
    assert [sweep.scenario_at(i) for i in range(len(sweep))] == rows
    # protocol -> adversary -> n -> t -> seed, seeds fastest.
    assert [
        (s.protocol, s.adversary is not None, s.n, s.t, s.seed) for s in rows
    ] == [
        (protocol, adversary, n, t, seed)
        for protocol in ["A", "B"]
        for adversary in [False, True]
        for n in [6, 8]
        for t in [2, 4]
        for seed in [5, 6]
    ]
    assert {s.name for s in rows} == {"grid"}
    with pytest.raises(ConfigurationError, match="out of range"):
        sweep.scenario_at(len(sweep))


def test_package_exports_scenario_surface():
    assert repro.Scenario is Scenario
    assert repro.Sweep is Sweep
    assert repro.ResultSet is ResultSet
