"""Analysis layer: bounds, tables, sweeps and the experiment registry."""

import pytest

from repro.analysis.bounds import Bound, theorem_bounds
from repro.analysis.experiments import REGISTRY, experiment_e7, run_experiment
from repro.analysis.tables import format_number, render_dict_rows, render_table
from repro.api import Scenario, Sweep
from repro.core.deadlines import DEFAULT_SLACK
from repro.errors import ConfigurationError
from repro.sim.adversary import RandomCrashes

# ---- bounds ----------------------------------------------------------------


def test_bound_holds_for():
    bound = theorem_bounds("A", 100, 16)["work"]
    assert bound.value == 300
    assert bound.holds_for(300)
    assert not bound.holds_for(301)


def test_bounds_match_paper_formulas():
    assert theorem_bounds("A", 100, 16)["messages"].value == 9 * 16 * 4
    assert theorem_bounds("B", 100, 16)["messages"].value == 10 * 16 * 4
    assert theorem_bounds("B", 100, 16)["rounds"].value == 300 + 128
    assert theorem_bounds("C", 100, 16)["work"].value == 132
    assert theorem_bounds("D", 128, 16, failures=0)["rounds"].value == 8 + 2
    assert theorem_bounds("D", 128, 16, failures=2)["messages"].value == 10 * 256


def test_n_prime_in_work_bounds():
    # n' = max(n, t): the work bound never drops below 3t.
    assert theorem_bounds("A", 4, 16)["work"].value == 48


def test_c_round_bound_is_astronomical():
    assert theorem_bounds("C", 32, 8)["rounds"].value > 2.0 ** 40


def test_the_table_picks_d_s_family_and_the_time_it_reads():
    plain = theorem_bounds("D", 64, 16, failures=2)
    reverted = theorem_bounds("D", 64, 16, failures=2, reverted=True)
    assert (plain["work"].formula, reverted["work"].formula) == ("2n", "4n")
    assert "rounds" not in reverted
    # D's time counts rounds 0..retire_round; A, B and C read retire_round.
    assert plain["rounds"].measured(9) == 10
    assert [theorem_bounds(p, 64, 16)["rounds"].measured(9) for p in "ABC"] == [9, 9, 9]
    assert theorem_bounds("A", 64, 16, reverted=True) == theorem_bounds("A", 64, 16)


def test_the_table_states_no_paper_bound_and_refuses_unknown_names():
    for protocol in ("naive", "C-naive", "D-dynamic", "D-recovery"):
        assert theorem_bounds(protocol, 64, 16) == {}
    for protocol in ("Z", "B-async", "A async"):
        with pytest.raises(ConfigurationError):
            theorem_bounds(protocol, 64, 16)


def test_a_async_keeps_theorem_2_3_effort_without_a_time_bound():
    # Section 2.1: under a failure detector DoWork runs unchanged, so
    # A's work and message bounds carry over; async runs have no rounds.
    table = theorem_bounds("A-async", 64, 16)
    assert table == {
        "work": Bound("3n'", 192),
        "messages": Bound("9 t sqrt(t)", 9 * 16 * 4),
    }
    sync = theorem_bounds("A", 64, 16)
    assert {name: sync[name] for name in table} == table


def test_each_bound_carries_its_own_slack():
    # The time bounds of A, B, C and D allow 2 * DEFAULT_SLACK * t rounds;
    # no other bound has room beyond the paper's value.
    for protocol in ("A", "B", "C", "D", "C-batched", "replicate", "A-async"):
        for name, bound in theorem_bounds(protocol, 64, 16, failures=1).items():
            assert bound.slack == (2 * DEFAULT_SLACK * 16 if name == "rounds" else 0)
    rounds = theorem_bounds("B", 64, 16)["rounds"]  # 3n + 8t = 320
    assert rounds.holds_for(320 + 64)
    assert not rounds.holds_for(320 + 65)
    d_rounds = theorem_bounds("D", 64, 16)["rounds"]  # 64/16 + 2 = 6, read +1
    assert d_rounds.holds_for(5 + 64)
    assert not d_rounds.holds_for(6 + 64)


# ---- tables ------------------------------------------------------------------


def test_format_number_cases():
    assert format_number(1234567) == "1,234,567"
    assert format_number(10**16) == "1.000e+16"
    assert format_number(True) == "yes"
    assert format_number(None) == "-"
    assert format_number(3.14159) == "3.14"
    assert format_number("text") == "text"


def test_render_table_is_markdown():
    table = render_table(["a", "b"], [[1, 2], [3, 4]], title="T")
    lines = table.splitlines()
    assert lines[0] == "### T"
    assert lines[2].startswith("| a")
    assert set(lines[3]) <= {"|", "-"}
    assert "| 1" in lines[4]


def test_render_dict_rows_missing_values():
    out = render_dict_rows(["x", "y"], [{"x": 1}])
    assert "| 1" in out and "| -" in out


# ---- sweeps --------------------------------------------------------------------


def test_worst_case_aggregates_maxima():
    results = Sweep(
        Scenario("A", 32, 8),
        adversaries=[None, RandomCrashes(4, max_action_index=10)],
        seeds=range(2),
    ).run()
    assert len(results) == 4
    assert results.all_completed
    worst = results.worst()
    assert worst["work"] >= 32
    for measure, value in worst.items():
        assert value == max(r.metrics.measures()[measure] for r in results.results)


# ---- experiment registry -----------------------------------------------------------


def test_registry_covers_all_design_experiments():
    assert set(REGISTRY) == {f"E{i}" for i in range(1, 18)}


def test_run_single_experiment():
    result = run_experiment("E7")
    assert result.exp_id == "E7"
    assert result.rows
    assert result.all_ok


def test_experiment_rows_have_declared_columns():
    result = experiment_e7()
    for row in result.rows:
        for column in result.columns:
            assert column in row
