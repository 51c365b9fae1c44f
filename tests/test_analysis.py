"""Analysis layer: bounds, tables, sweeps and the experiment registry."""


from repro.analysis import bounds
from repro.analysis.experiments import REGISTRY, experiment_e7, run_experiment
from repro.analysis.tables import format_number, render_dict_rows, render_table
from repro.api import Scenario, Sweep
from repro.sim.adversary import RandomCrashes

# ---- bounds ----------------------------------------------------------------


def test_bound_holds_for():
    bound = bounds.protocol_a_work(100, 16)
    assert bound.value == 300
    assert bound.holds_for(300)
    assert not bound.holds_for(301)


def test_bounds_match_paper_formulas():
    assert bounds.protocol_a_messages(100, 16).value == 9 * 16 * 4
    assert bounds.protocol_b_messages(100, 16).value == 10 * 16 * 4
    assert bounds.protocol_b_rounds(100, 16).value == 300 + 128
    assert bounds.protocol_c_work(100, 16).value == 132
    assert bounds.protocol_d_rounds(128, 16, 0).value == 8 + 2
    assert bounds.protocol_d_messages(128, 16, 2).value == 10 * 256


def test_n_prime_in_work_bounds():
    # n' = max(n, t): the work bound never drops below 3t.
    assert bounds.protocol_a_work(4, 16).value == 48


def test_c_round_bound_is_astronomical():
    assert bounds.protocol_c_rounds(32, 8).value > 2.0 ** 40


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


def test_run_single_experiment_quick():
    result = run_experiment("E7", quick=True)
    assert result.exp_id == "E7"
    assert result.rows
    assert result.all_ok


def test_experiment_rows_have_declared_columns():
    result = experiment_e7(quick=True)
    for row in result.rows:
        for column in result.columns:
            assert column in row
