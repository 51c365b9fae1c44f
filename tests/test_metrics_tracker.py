"""Tests for the metrics tally and the work tracker."""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.protocol_a_async import build_async_protocol_a
from repro.core.registry import build_processes
from repro.errors import ConfigurationError
from repro.sim.actions import MessageKind
from repro.sim.adversary import KillActive
from repro.sim.async_engine import AsyncEngine
from repro.sim.engine import Engine
from repro.sim.metrics import Metrics
from repro.work.tracker import WorkTracker

# ---- Metrics ---------------------------------------------------------


def test_effort_is_work_plus_messages():
    metrics = Metrics()
    metrics.record_work(0, 1, 1)
    metrics.record_work(1, 1, 2)
    metrics.record_sends(0, MessageKind.CONTROL, 1, 3)
    assert metrics.work_total == 2
    assert metrics.messages_total == 1
    assert metrics.effort == 3


def test_redundant_work_counts_repeats_only():
    metrics = Metrics()
    for _ in range(3):
        metrics.record_work(0, 7, 1)
    metrics.record_work(0, 8, 2)
    assert metrics.redundant_work() == 2
    assert metrics.distinct_units_done() == 2


def test_messages_by_kind():
    metrics = Metrics()
    metrics.record_sends(0, MessageKind.POLL, 1, 3)
    metrics.record_sends(0, MessageKind.POLL, 1, 3)
    metrics.record_sends(0, MessageKind.ORDINARY, 1, 3)
    assert metrics.messages_of(MessageKind.POLL) == 2
    assert metrics.messages_of(MessageKind.ORDINARY) == 1
    assert metrics.messages_of(MessageKind.GO_AHEAD) == 0


def test_as_dict_round_trips_scalars():
    metrics = Metrics()
    metrics.record_work(0, 1, 5)
    metrics.record_sends(0, MessageKind.CONTROL, 1, 9)
    data = metrics.as_dict()
    assert data["work"] == 1
    assert data["messages"] == 1
    assert data["effort"] == 2


# ---- WorkTracker ---------------------------------------------------------


def test_tracker_completion():
    tracker = WorkTracker(3)
    assert not tracker.all_done()
    tracker.record(0, 1, 1)
    tracker.record(0, 2, 2)
    assert tracker.missing_units() == [3]
    tracker.record(1, 3, 4)
    assert tracker.all_done()
    assert tracker.completion_round() == 4


def test_tracker_multiplicity_and_first():
    tracker = WorkTracker(2)
    tracker.record(0, 1, 3)
    tracker.record(1, 1, 9)
    assert tracker.times_done(1) == 2
    assert tracker.redundant_executions() == 1
    assert tracker.first_execution(1) == (3, 0)
    assert tracker.max_multiplicity() == 2


def test_tracker_rejects_out_of_range_units():
    tracker = WorkTracker(2)
    with pytest.raises(ConfigurationError):
        tracker.record(0, 0, 1)
    with pytest.raises(ConfigurationError):
        tracker.record(0, 3, 1)


def test_tracker_rejects_negative_n():
    with pytest.raises(ConfigurationError):
        WorkTracker(-1)


def test_empty_tracker_is_complete():
    tracker = WorkTracker(0)
    assert tracker.all_done()
    assert tracker.completion_round() is None or tracker.completion_round() == 0


@given(st.lists(st.integers(min_value=1, max_value=20), max_size=200))
def test_tracker_totals_are_consistent(units):
    tracker = WorkTracker(20)
    for index, unit in enumerate(units):
        tracker.record(0, unit, index)
    assert tracker.total_executions() == len(units)
    assert tracker.total_executions() - tracker.redundant_executions() == len(set(units))
    assert tracker.all_done() == (len(set(units)) == 20)
    assert tracker.metrics.work_by_unit == Counter(units)


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 20), st.integers(0, 50)), max_size=100))
def test_tracker_books_exactly_what_metrics_record_work_books(bookings):
    """The tracker books a unit in one call, with ``Metrics.record_work``
    inlined: both must leave the same ledger."""
    tracker, direct = WorkTracker(20), Metrics()
    for pid, unit, round_number in bookings:
        tracker.record(pid, unit, round_number)
        direct.record_work(pid, unit, round_number)
    assert tracker.metrics == direct
    firsts = {}
    for pid, unit, round_number in bookings:
        firsts.setdefault(unit, (round_number, pid))
    assert all(tracker.first_execution(unit) == first for unit, first in firsts.items())


def test_booking_a_send_hashes_its_kind_in_c():
    """``messages_by_kind`` is keyed by ``MessageKind``: its hash is
    ``str``'s slot, so a booked send makes no Python-level call for it."""
    assert MessageKind.__hash__ is str.__hash__


# ---- one ledger -------------------------------------------------------------


def _sync_run(tracker):
    processes = build_processes("A", tracker.n, 8)
    engine = Engine(processes, tracker=tracker, adversary=KillActive(3), seed=5)
    return engine.run()


def _async_run(tracker):
    processes = build_async_protocol_a(tracker.n, 8)
    engine = AsyncEngine(
        processes, tracker=tracker, seed=5, crash_times={0: 3.0, 1: 11.0}
    )
    return engine.run()


@pytest.mark.parametrize("run", [_sync_run, _async_run], ids=["sync", "async"])
def test_engine_and_tracker_share_one_ledger(run):
    tracker = WorkTracker(32)
    result = run(tracker)
    assert tracker.metrics is result.metrics
    assert tracker.total_executions() == result.metrics.work_total
    assert result.metrics.redundant_work() > 0  # crashes forced repeats
    for unit in range(1, tracker.n + 1):
        assert tracker.times_done(unit) == result.metrics.work_by_unit[unit]
