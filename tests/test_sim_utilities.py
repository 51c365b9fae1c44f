"""Trace, RNG, failure-detector configuration and the report generator."""



from repro.analysis.experiments import ExperimentResult
from repro.analysis.report import main as report_main
from repro.analysis.report import render_report
from repro.sim.failure_detector import FailureDetector
from repro.sim.rng import choose_subset, derive_rng, make_rng, shuffled
from repro.sim.trace import Trace, TraceEvent

# ---- Trace -------------------------------------------------------------


def _sample_trace():
    trace = Trace(enabled=True)
    trace.emit(1, "work", 0, 5)
    trace.emit(2, "send", 0, ("control", 1, ()))
    trace.emit(3, "activate", 1)
    trace.emit(4, "crash", 0, "before_action")
    return trace


def test_trace_queries():
    trace = _sample_trace()
    assert len(trace) == 4
    assert [event.kind for event in trace] == ["work", "send", "activate", "crash"]
    assert trace.of_kind("work")[0].detail == 5
    assert trace.for_pid(1) == [TraceEvent(3, "activate", 1, None)]
    assert trace.activations() == [(3, 1)]
    assert trace.first("crash").round == 4
    assert trace.first("halt") is None


def test_trace_disabled_records_nothing():
    trace = Trace(enabled=False)
    trace.emit(1, "work", 0)
    assert len(trace) == 0


def test_trace_render_limits():
    trace = _sample_trace()
    rendered = trace.render(limit=2)
    assert "more events" in rendered
    assert len(trace.render().splitlines()) == 4


# ---- RNG ------------------------------------------------------------------


def test_make_rng_is_deterministic():
    assert make_rng(5).random() == make_rng(5).random()
    assert make_rng(None).random() == make_rng(0).random()


def test_derive_rng_streams_are_stable_and_distinct():
    a1 = derive_rng(make_rng(1), "alpha").random()
    a2 = derive_rng(make_rng(1), "alpha").random()
    b = derive_rng(make_rng(1), "beta").random()
    assert a1 == a2            # stable across processes (no salted hash)
    assert a1 != b             # label separates streams


def test_choose_subset_size_and_order():
    rng = make_rng(3)
    subset = choose_subset(rng, [10, 20, 30, 40, 50], 3)
    assert len(subset) == 3
    assert subset == sorted(subset, key=[10, 20, 30, 40, 50].index)
    assert choose_subset(rng, [1, 2], 99) == [1, 2]
    assert choose_subset(rng, [], 2) == []


def test_shuffled_leaves_input_untouched():
    items = [1, 2, 3, 4]
    result = shuffled(make_rng(1), items)
    assert sorted(result) == items
    assert items == [1, 2, 3, 4]


# ---- FailureDetector ----------------------------------------------------------


def test_detector_uniform_window():
    detector = FailureDetector(min_delay=2.0, max_delay=3.0)
    rng = make_rng(1)
    for _ in range(50):
        delay = detector.notification_delay(rng, 0, 1)
        assert 2.0 <= delay <= 3.0


def test_detector_degenerate_window():
    detector = FailureDetector(min_delay=5.0, max_delay=5.0)
    assert detector.notification_delay(make_rng(1), 0, 1) == 5.0


def test_detector_custom_delay_fn():
    detector = FailureDetector(delay_fn=lambda rng, observer, crashed: observer * 2.0)
    assert detector.notification_delay(make_rng(1), 3, 0) == 6.0
    # Negative results are clamped to zero.
    detector = FailureDetector(delay_fn=lambda rng, observer, crashed: -1.0)
    assert detector.notification_delay(make_rng(1), 3, 0) == 0.0


# ---- report generator ------------------------------------------------------------


def _fake_result(ok=True):
    return ExperimentResult(
        exp_id="EX",
        title="Fake",
        claim="claims",
        columns=["x", "ok"],
        rows=[{"x": 1, "ok": ok}],
        notes="a note",
    )


def test_render_report_structure():
    text = render_report([_fake_result()], elapsed=1.0)
    assert "## EX: Fake" in text
    assert "1/1 experiments reproduce" in text
    assert "a note" in text
    assert "**reproduced**" in text


def test_render_report_flags_failures():
    text = render_report([_fake_result(ok=False)], elapsed=1.0)
    assert "0/1" in text
    assert "NOT fully reproduced" in text


def test_report_main_writes_file(tmp_path, monkeypatch):
    out = tmp_path / "EXP.md"
    # Patch the registry to two tiny fake experiments for speed.
    import repro.analysis.report as report_module

    monkeypatch.setattr(
        report_module, "run_all", lambda: [_fake_result(), _fake_result()]
    )
    code = report_main(["--out", str(out)])
    assert code == 0
    assert "## EX: Fake" in out.read_text()
