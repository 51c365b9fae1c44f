"""The Section 3 naive knowledge-spreading algorithm and its blow-up."""


from repro import run_protocol
from repro.analysis.bounds import theorem_bounds
from repro.analysis.scaling import fit_power_law
from repro.sim.adversary import Cascade, KillActive, RandomCrashes
from repro.sim.trace import Trace
from tests.conftest import all_but_one_dead


def _cascade(t):
    return Cascade(
        lead_units=t - 1, redo_units=t // 2, initial_dead=list(range(t // 2 + 1, t))
    )


def test_failure_free_leader_cycles_reports():
    trace = Trace(enabled=True)
    result = run_protocol("C-naive", 16, 4, seed=1, trace=trace)
    assert result.completed
    targets = [
        event.detail[1]
        for event in trace.of_kind("send")
        if event.pid == 0
    ]
    # Reports cycle 1, 2, 3, 1, 2, 3, ... (skipping self).
    assert targets[:6] == [1, 2, 3, 1, 2, 3]


def test_always_completes():
    for seed in range(8):
        result = run_protocol(
            "C-naive", 24, 8, adversary=RandomCrashes(6, max_action_index=12), seed=seed
        )
        assert result.completed


def test_single_active_discipline_holds():
    # strict_invariants is on for C-naive in the registry; a double
    # activation would raise.
    for seed in range(5):
        result = run_protocol(
            "C-naive", 24, 8, adversary=KillActive(7, actions_before_kill=2), seed=seed
        )
        assert result.completed


def test_most_knowledgeable_takes_over():
    trace = Trace(enabled=True)
    result = run_protocol(
        "C-naive", 24, 8, adversary=KillActive(1, actions_before_kill=9), seed=3,
        trace=trace,
    )
    assert result.completed
    activations = trace.activations()
    # The second active process is the recipient of the last report.
    last_target = [
        event.detail[1] for event in trace.of_kind("send") if event.pid == 0
    ][-1]
    assert activations[1][1] == last_target


def test_lone_survivor():
    result = run_protocol("C-naive", 24, 8, adversary=all_but_one_dead(8), seed=4)
    assert result.completed
    assert result.metrics.work_by_process[7] == 24


def test_cascade_forces_quadratic_growth():
    works = []
    for t in (8, 16, 32):
        result = run_protocol("C-naive", 2 * t, t, adversary=_cascade(t), seed=2)
        assert result.completed
        works.append(float(result.metrics.work_total))
    fit = fit_power_law([8.0, 16.0, 32.0], works)
    assert fit.exponent > 1.5  # super-linear: the t^2 term dominates


def test_protocol_c_defeats_the_same_cascade():
    for t in (8, 16, 32):
        result = run_protocol("C", 2 * t, t, adversary=_cascade(t), seed=2)
        assert result.completed
        assert result.metrics.work_total <= theorem_bounds("C", 2 * t, t)["work"].value


def test_naive_beats_nothing_on_messages_under_cascade():
    # Sanity for E15's table: at t = 32 the naive spreader already sends
    # more messages than Protocol C despite C's poll overhead.
    t = 32
    naive = run_protocol("C-naive", 2 * t, t, adversary=_cascade(t), seed=2)
    full = run_protocol("C", 2 * t, t, adversary=_cascade(t), seed=2)
    assert naive.metrics.messages_total > full.metrics.messages_total


def test_t_one():
    result = run_protocol("C-naive", 6, 1, seed=1)
    assert result.completed
    assert result.metrics.messages_total == 0
