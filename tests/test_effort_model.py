"""Weighted effort models (Conclusions remark)."""

from repro.analysis.effort import EffortModel, cheapest
from repro.sim.metrics import Metrics


def _metrics(work, messages):
    metrics = Metrics()
    metrics.work_total = work
    metrics.messages_total = messages
    return metrics


def test_unit_weights_match_paper_effort():
    metrics = _metrics(10, 7)
    assert EffortModel().effort(metrics) == metrics.effort == 17


def test_weighted_effort():
    model = EffortModel(work_weight=2.0, message_weight=0.5)
    assert model.effort(_metrics(10, 8)) == 24.0


def test_cheapest_picks_minimum():
    profiles = {"A": (100, 50), "R": (400, 0)}
    assert cheapest(profiles, EffortModel(message_weight=1.0)) == "A"
    assert cheapest(profiles, EffortModel(message_weight=100.0)) == "R"
