"""Property-based tests: protocol guarantees over randomised adversary
schedules.  These are the paper's core theorems quantified over the
crash patterns hypothesis can reach."""


from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import run_protocol
from repro.analysis.bounds import theorem_bounds
from repro.sim.adversary import FixedSchedule
from repro.sim.crashes import CrashDirective, CrashPhase

_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def crash_schedules(draw, t: int, horizon: int):
    """Up to t-1 distinct victims with arbitrary rounds and phases."""
    count = draw(st.integers(min_value=0, max_value=t - 1))
    victims = draw(
        st.lists(
            st.integers(min_value=0, max_value=t - 1),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    directives = []
    for victim in victims:
        directives.append(
            CrashDirective(
                pid=victim,
                at_round=draw(st.integers(min_value=0, max_value=horizon)),
                phase=draw(st.sampled_from(list(CrashPhase))),
            )
        )
    return FixedSchedule(directives)


# ---- Protocol A -------------------------------------------------------------


@settings(**_SETTINGS)
@given(schedule=crash_schedules(t=9, horizon=1500), seed=st.integers(0, 10))
def test_protocol_a_always_completes_within_bounds(schedule, seed):
    n, t = 54, 9
    result = run_protocol("A", n, t, adversary=schedule, seed=seed)
    assert result.completed
    assert result.metrics.work_total <= theorem_bounds("A", n, t)["work"].value
    assert result.metrics.messages_total <= theorem_bounds("A", n, t)["messages"].value


# ---- Protocol B -------------------------------------------------------------


@settings(**_SETTINGS)
@given(schedule=crash_schedules(t=9, horizon=400), seed=st.integers(0, 10))
def test_protocol_b_always_completes_within_bounds(schedule, seed):
    n, t = 54, 9
    result = run_protocol("B", n, t, adversary=schedule, seed=seed)
    assert result.completed
    assert result.metrics.work_total <= theorem_bounds("B", n, t)["work"].value
    assert result.metrics.messages_total <= theorem_bounds("B", n, t)["messages"].value


# ---- Protocol C -------------------------------------------------------------


@settings(**_SETTINGS)
@given(schedule=crash_schedules(t=8, horizon=600), seed=st.integers(0, 10))
def test_protocol_c_always_completes_within_bounds(schedule, seed):
    n, t = 24, 8
    result = run_protocol("C", n, t, adversary=schedule, seed=seed)
    assert result.completed
    assert result.metrics.work_total <= theorem_bounds("C", n, t)["work"].value
    assert result.metrics.messages_total <= theorem_bounds("C", n, t)["messages"].value


# ---- Protocol D -------------------------------------------------------------


@settings(**_SETTINGS)
@given(schedule=crash_schedules(t=8, horizon=60), seed=st.integers(0, 10))
def test_protocol_d_always_completes(schedule, seed):
    n, t = 40, 8
    result = run_protocol("D", n, t, adversary=schedule, seed=seed)
    assert result.completed
    # Reversion allowed: 4n is the Theorem 4.1(2) work ceiling.
    assert result.metrics.work_total <= 4 * n


# ---- cross-protocol sanity ------------------------------------------------------


@settings(**_SETTINGS)
@given(
    n=st.integers(min_value=1, max_value=120),
    t=st.integers(min_value=1, max_value=20),
    seed=st.integers(0, 5),
)
def test_every_protocol_completes_failure_free(n, t, seed):
    for protocol in ("A", "B", "C", "D", "replicate"):
        result = run_protocol(protocol, n, t, seed=seed)
        assert result.completed, protocol
        assert result.survivors == t


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=10, max_value=60),
    t=st.sampled_from([4, 9, 16]),
)
def test_failure_free_work_is_exactly_n_for_sequential_protocols(n, t):
    for protocol in ("A", "B"):
        result = run_protocol(protocol, n, t, seed=0)
        assert result.metrics.work_total == n
        assert result.metrics.redundant_work() == 0
