"""Protocol D: phases, agreement, graceful degradation, reversion."""

import math

import pytest

from repro import run_protocol
from repro.analysis.bounds import theorem_bounds
from repro.core.protocol_d import ProtocolDProcess, build_protocol_d
from repro.sim.actions import MessageKind
from repro.sim.adversary import FixedSchedule, RandomCrashes, StaggeredWorkKills
from repro.sim.crashes import CrashDirective, CrashPhase
from repro.sim.engine import Engine
from repro.work.tracker import WorkTracker

N, T = 128, 16


def _reverted(metrics):
    return (
        metrics.messages_of(MessageKind.PARTIAL_CHECKPOINT)
        + metrics.messages_of(MessageKind.FULL_CHECKPOINT)
    ) > 0


# ---- failure-free exact behaviour (Section 4 text) -------------------------


def test_failure_free_exact_work():
    result = run_protocol("D", N, T, seed=1)
    assert result.completed
    assert result.metrics.work_total == N
    assert result.metrics.redundant_work() == 0


def test_failure_free_exact_rounds():
    result = run_protocol("D", N, T, seed=1)
    assert result.metrics.retire_round + 1 == N // T + 2


def test_failure_free_message_bound():
    result = run_protocol("D", N, T, seed=1)
    assert result.metrics.messages_total == 2 * T * (T - 1)
    assert result.metrics.messages_total <= 2 * T * T


def test_each_process_does_its_own_share():
    result = run_protocol("D", N, T, seed=1)
    per_process = result.metrics.work_by_process
    assert all(per_process[pid] == N // T for pid in range(T))


# ---- one failure (Section 4 text) --------------------------------------------


def test_one_failure_claims():
    result = run_protocol(
        "D", N, T, adversary=StaggeredWorkKills.plan([(3, 2)]), seed=2
    )
    metrics = result.metrics
    assert result.completed
    assert metrics.work_total <= N + N // T
    assert metrics.retire_round + 1 <= N // T + math.ceil(N / (T * (T - 1))) + 6
    assert metrics.messages_total <= 5 * T * T


# ---- Theorem 4.1(1) -------------------------------------------------------------


@pytest.mark.parametrize("f", [1, 2, 4, 7])
def test_theorem_4_1_normal_path(f):
    adversary = StaggeredWorkKills.plan([(pid, 1 + pid % 3) for pid in range(1, f + 1)])
    result = run_protocol("D", N, T, adversary=adversary, seed=3)
    metrics = result.metrics
    assert result.completed
    assert not _reverted(metrics)
    assert metrics.work_total <= theorem_bounds("D", N, T, failures=f)["work"].value
    assert metrics.messages_total <= theorem_bounds("D", N, T, failures=f)["messages"].value


def test_crashed_processes_shares_are_redone():
    # Kill 2 after one unit of its share: the other units of its share
    # must be re-assigned and completed in phase 2.
    result = run_protocol(
        "D", N, T, adversary=StaggeredWorkKills.plan([(2, 1)]), seed=4
    )
    assert result.completed
    assert result.metrics.work_total > N - N // T  # some redo happened
    assert result.metrics.work_total <= 2 * N


# ---- Theorem 4.1(2): reversion ---------------------------------------------------


def test_reversion_triggers_when_more_than_half_die():
    f = T // 2 + 2
    adversary = StaggeredWorkKills.plan([(pid, 1) for pid in range(f)])
    result = run_protocol("D", N, T, adversary=adversary, seed=5)
    metrics = result.metrics
    assert result.completed
    assert _reverted(metrics)
    assert metrics.work_total <= theorem_bounds("D", N, T, failures=f, reverted=True)["work"].value
    assert (
        metrics.messages_total
        <= theorem_bounds("D", N, T, failures=f, reverted=True)["messages"].value
    )


def test_no_reversion_when_exactly_half_survive():
    f = T // 2  # exactly half remain: |T'| > 2|T| is false
    adversary = StaggeredWorkKills.plan([(pid, 1) for pid in range(f)])
    result = run_protocol("D", N, T, adversary=adversary, seed=6)
    assert result.completed
    assert not _reverted(result.metrics)


def test_reversion_threshold_configurable():
    f = T // 4 + 1  # kills a quarter
    adversary_plan = [(pid, 1) for pid in range(f)]
    eager = run_protocol(
        "D",
        N,
        T,
        adversary=StaggeredWorkKills.plan(adversary_plan),
        seed=7,
        revert_threshold=0.9,
    )
    relaxed = run_protocol(
        "D",
        N,
        T,
        adversary=StaggeredWorkKills.plan(adversary_plan),
        seed=7,
        revert_threshold=0.25,
    )
    assert eager.completed and relaxed.completed
    assert _reverted(eager.metrics)
    assert not _reverted(relaxed.metrics)


# ---- agreement machinery ----------------------------------------------------------


def test_final_views_agree_across_processes():
    """All deciders of each agreement phase hold identical (S, T)."""
    for seed in range(6):
        processes = build_protocol_d(N, T)
        adversary = RandomCrashes(T // 2, max_action_index=12)
        tracker = WorkTracker(N)
        engine = Engine(processes, tracker=tracker, adversary=adversary, seed=seed)
        result = engine.run()
        assert result.completed
        live = [p for p in processes if not p.crashed]
        # At termination every live process agreed the work is done
        # (or agreed on the same reversion inputs).
        final_S = {frozenset(p.S) for p in live}
        assert len(final_S) == 1, final_S


def test_grace_round_tolerates_one_round_skew():
    # Failures in phase 1 force phase 2 starts to differ by one round;
    # without the grace round live processes would be misdeclared faulty.
    adversary = StaggeredWorkKills.plan([(1, 1), (5, 2)])
    result = run_protocol("D", N, T, adversary=adversary, seed=8)
    assert result.completed
    assert result.survivors == T - 2
    assert result.halted == T - 2


def test_crash_during_agreement_broadcast():
    # Crash process 2 mid-agreement-broadcast: a subset of peers sees its
    # view, the rest learn of it transitively or remove it.
    work_rounds = N // T
    directives = [
        CrashDirective(
            pid=2, at_round=work_rounds + 1, phase=CrashPhase.DURING_SEND
        )
    ]
    for seed in range(5):
        result = run_protocol(
            "D", N, T, adversary=FixedSchedule(directives), seed=seed
        )
        assert result.completed


def test_random_battery_always_completes():
    for seed in range(10):
        result = run_protocol(
            "D", N, T, adversary=RandomCrashes(T - 1, max_action_index=10), seed=seed
        )
        assert result.completed
        assert result.metrics.work_total <= 4 * N


# ---- shapes and edges ------------------------------------------------------------------


def test_n_not_divisible_by_t():
    result = run_protocol("D", 100, 12, seed=1)
    assert result.completed
    assert result.metrics.work_total == 100


def test_n_smaller_than_t():
    result = run_protocol("D", 5, 16, seed=1)
    assert result.completed


def test_t_one():
    result = run_protocol("D", 10, 1, seed=1)
    assert result.completed
    assert result.metrics.messages_total == 0


def test_invalid_threshold_rejected():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        ProtocolDProcess(0, 4, 10, revert_threshold=0.0)
    with pytest.raises(ConfigurationError):
        ProtocolDProcess(0, 4, 10, revert_threshold=1.5)
