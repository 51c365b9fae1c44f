"""The campaign runner: grid planning, chunk ledgers, interruption and
resume, sharding, remote execution, and the headline bit-identical
determinism contract (``docs/campaigns.md``)."""

import json

import pytest

from repro.api import ResultSet, Scenario, Sweep, run_scenarios
from repro.campaign import (
    CampaignLedger,
    CampaignSpec,
    CampaignState,
    build_report,
    campaign_status,
    load_campaign,
    parse_shard,
    run_campaign,
)
from repro.cache import ResultCache
from repro.errors import ConfigurationError


def _spec(tmp_path=None, **overrides) -> CampaignSpec:
    """A small, fast grid: 2 protocols x 2 adversaries x 2 n x 5 seeds
    = 40 runs in 5 chunks of 8.  ``overrides`` may name grid fields
    (``base`` and the axes) or spec fields."""
    grid = dict(
        base=Scenario(protocol="A", n=8, t=2, seed=0),
        seeds=list(range(5)),
        protocols=["A", "D"],
        adversaries=[None, "random:1,max_action_index=5"],
        n=[6, 8],
    )
    fields = dict(name="unit-grid", chunk_size=8)
    for key, value in overrides.items():
        (grid if key in grid else fields)[key] = value
    return CampaignSpec(grid=Sweep(**grid), **fields)


def _results_section(report):
    """Everything bit-equality compares: the report minus per-session
    execution provenance."""
    data = report.as_dict()
    data.pop("execution")
    return data


# ---- spec grammar and validation --------------------------------------------


def test_grid_arithmetic():
    spec = _spec()
    assert spec.total_runs == 2 * 2 * 2 * 5
    assert spec.total_chunks == 5
    assert spec.total_cells == 8
    assert [len(spec.chunk(i)) for i in range(5)] == [8, 8, 8, 8, 8]


def test_grid_order_contract_seeds_fastest():
    spec = _spec()
    rows = list(spec.scenarios())
    # seeds vary fastest, then t (single), n, adversaries, protocols.
    assert [s.seed for s in rows[:6]] == [0, 1, 2, 3, 4, 0]
    assert [s.n for s in rows[:10]] == [6] * 5 + [8] * 5
    assert rows[0].protocol == "A" and rows[-1].protocol == "D"
    # Mixed-radix decoding addresses any row without enumerating.
    assert spec.scenario_at(23).cache_key() == rows[23].cache_key()


def test_uneven_final_chunk():
    spec = _spec(chunk_size=9)
    assert spec.total_chunks == 5
    assert spec.chunk_length(4) == 40 - 4 * 9
    assert len(spec.chunk(4)) == 4


def test_missing_axes_fall_back_to_base():
    spec = CampaignSpec(
        name="tiny",
        grid=Sweep(base=Scenario(protocol="B", n=12, t=3, seed=0), seeds=[0, 1]),
    )
    axes = spec.grid.axes()
    assert axes["protocols"] == ["B"]
    assert axes["n"] == [12]
    assert axes["t"] == [3]
    assert spec.total_runs == 2


def test_seed_range_form_matches_explicit_list(tmp_path):
    explicit = {
        "campaign": "g",
        "version": 1,
        "base": {"protocol": "A", "n": 8, "t": 2, "seed": 0},
        "axes": {"seeds": [3, 4, 5, 6]},
    }
    ranged = dict(explicit, axes={"seeds": {"start": 3, "count": 4}})
    assert (
        CampaignSpec.from_dict(explicit).digest()
        == CampaignSpec.from_dict(ranged).digest()
    )


@pytest.mark.parametrize(
    "mutation, message",
    [
        ({"version": 2}, "format version"),
        ({"axes": {"seeds": [0], "bogus": [1]}}, "unknown axis"),
        ({"axes": {}}, "'seeds' axis"),
        ({"chunk_size": 0}, "chunk_size"),
        ({"pins": {"seconds": 1}}, "unknown pin"),
        ({"extra": 1}, "unknown field"),
        ({"axes": {"seeds": {"start": 0, "count": 0}}}, "count"),
        ({"axes": {"seeds": [0], "n": [0]}}, "positive integers"),
    ],
)
def test_spec_grammar_errors_name_the_field(mutation, message):
    data = {
        "campaign": "g",
        "version": 1,
        "base": {"protocol": "A", "n": 8, "t": 2, "seed": 0},
        "axes": {"seeds": [0]},
    }
    data.update(mutation)
    with pytest.raises(ConfigurationError, match=message):
        CampaignSpec.from_dict(data)


def test_load_campaign_roundtrip(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(_spec().to_json())
    loaded = load_campaign(path)
    assert loaded.digest() == _spec().digest()
    assert loaded.total_runs == 40


# ---- digests ----------------------------------------------------------------


def test_digest_ignores_labels_and_pins():
    a = _spec()
    b = _spec(name="renamed", description="different", pins={"work": 9})
    assert a.digest() == b.digest()


def test_digest_ignores_adversary_spelling_variants():
    a = _spec(adversaries=[None, "random:1,max_action_index=5"])
    b = _spec(
        adversaries=[None, {"kind": "random", "count": 1, "max_action_index": 5}]
    )
    assert a.digest() == b.digest()


@pytest.mark.parametrize(
    "changes",
    [
        {"seeds": [0, 1, 2, 3, 4, 5]},
        {"protocols": ["A"]},
        {"n": [6, 10]},
        {"chunk_size": 10},
        {"base": Scenario(protocol="A", n=8, t=3, seed=0)},
    ],
)
def test_digest_tracks_grid_changes(changes):
    assert _spec().digest() != _spec(**changes).digest()


# ---- the ledger -------------------------------------------------------------


def test_ledger_rejects_foreign_digest(tmp_path):
    path = tmp_path / "grid.ledger"
    CampaignLedger(path, _spec())
    with pytest.raises(ConfigurationError, match="digest"):
        CampaignLedger(path, _spec(seeds=[0, 1]))
    with pytest.raises(ConfigurationError, match="digest"):
        CampaignState.load(_spec(seeds=[0, 1]), path)


def test_ledger_mid_file_corruption_is_an_error(tmp_path):
    spec = _spec()
    path = tmp_path / "grid.ledger"
    run_campaign(spec, path)
    lines = path.read_text().splitlines()
    lines[2] = lines[2][:40]  # tear a NON-final line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError, match="corruption"):
        CampaignState.load(spec, path)


def test_ledger_header_line_tear_is_named_corruption(tmp_path):
    # A torn line is only forgivable when it is the FINAL line (an
    # interrupted append).  A torn header with intact chunk records
    # after it can't be an interrupted append - the error must say so
    # and name the line.
    spec = _spec()
    path = tmp_path / "grid.ledger"
    run_campaign(spec, path)
    lines = path.read_text().splitlines()
    lines[0] = lines[0][:25]  # tear the header; chunk lines stay intact
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError) as excinfo:
        CampaignState.load(spec, path)
    message = str(excinfo.value)
    assert "line 1" in message
    assert "corruption" in message


def test_ledger_lone_torn_header_is_unusable(tmp_path):
    # A file holding only a torn header is indistinguishable from an
    # interrupted header write: no digest to validate against, nothing
    # to resume - the error tells the operator to start over.
    path = tmp_path / "grid.ledger"
    path.write_text('{"format": 1, "digest": "ab')
    with pytest.raises(ConfigurationError, match="no complete header line"):
        CampaignState.load(_spec(), path)


def test_missing_ledger_is_an_empty_state(tmp_path):
    state = CampaignState.load(_spec(), tmp_path / "never-written.ledger")
    assert state.chunks_done == 0
    assert state.remaining() == list(range(5))
    assert not state.complete


# ---- execution: merged report == direct run --------------------------------


def test_campaign_matches_direct_run_scenarios(tmp_path):
    spec = _spec()
    outcome = run_campaign(spec, tmp_path / "grid.ledger")
    assert outcome.complete
    assert outcome.chunks_executed == 5
    assert outcome.executed_runs == 40
    report = outcome.report()
    rows = list(spec.scenarios())
    direct = ResultSet(list(zip(rows, run_scenarios(rows))))
    assert len(report.result_set) == 40
    assert report.result_set.worst() == direct.worst()
    assert report.result_set.mean() == direct.mean()
    for (_, merged), (_, straight) in zip(
        report.result_set.entries, direct.entries
    ):
        assert merged == straight  # full dataclass equality, config echo too


def test_workers_pool_is_bit_identical(tmp_path):
    spec = _spec()
    serial = run_campaign(spec, tmp_path / "serial.ledger").report()
    pooled = run_campaign(
        spec, tmp_path / "pooled.ledger", workers=2
    ).report()
    assert _results_section(pooled) == _results_section(serial)


# ---- interruption and resume ------------------------------------------------


def test_interrupt_at_chunk_boundary_then_resume_is_bit_identical(tmp_path):
    spec = _spec()
    baseline = run_campaign(spec, tmp_path / "baseline.ledger").report()

    ledger = tmp_path / "interrupted.ledger"
    first = run_campaign(spec, ledger, max_chunks=2)
    assert first.interrupted and not first.complete
    assert first.chunks_executed == 2 and first.executed_runs == 16

    second = run_campaign(spec, ledger)
    assert second.complete and not second.interrupted
    # The resume counters prove checkpointed chunks did not re-execute.
    assert second.chunks_skipped == 2
    assert second.chunks_executed == 3
    assert second.executed_runs == 24
    assert _results_section(second.report()) == _results_section(baseline)


def test_torn_mid_chunk_append_discards_and_reruns(tmp_path):
    spec = _spec()
    baseline = run_campaign(spec, tmp_path / "baseline.ledger").report()

    ledger = tmp_path / "torn.ledger"
    run_campaign(spec, ledger, max_chunks=3)
    text = ledger.read_text()
    lines = text.splitlines()
    # Tear the final checkpoint mid-line, as a kill during append would.
    torn = "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 3]
    ledger.write_text(torn)

    state = CampaignState.load(spec, ledger)
    assert state.torn_tails == 1
    assert state.chunks_done == 2  # the torn chunk does not count

    resumed = run_campaign(spec, ledger)
    assert resumed.complete
    assert resumed.chunks_skipped == 2
    assert resumed.chunks_executed == 3  # the torn chunk re-ran
    assert _results_section(resumed.report()) == _results_section(baseline)


def test_resume_on_complete_ledger_executes_nothing(tmp_path):
    spec = _spec()
    ledger = tmp_path / "grid.ledger"
    run_campaign(spec, ledger)
    again = run_campaign(spec, ledger)
    assert again.complete
    assert again.chunks_executed == 0
    assert again.executed_runs == 0
    assert again.chunks_skipped == 5


# ---- the shared result cache ------------------------------------------------


def test_warm_cache_resumes_without_executing_a_single_run(tmp_path):
    spec = _spec()
    cache = ResultCache()
    first = run_campaign(spec, tmp_path / "one.ledger", cache=cache)
    assert first.executed_runs == 40

    second = run_campaign(spec, tmp_path / "two.ledger", cache=cache)
    assert second.complete
    assert second.chunks_executed == 5  # fresh ledger: chunks re-checkpoint
    assert second.executed_runs == 0    # ...but every run is a cache hit
    assert second.cache_hits == 40
    assert _results_section(second.report()) == _results_section(
        first.report()
    )


def test_cache_and_server_are_mutually_exclusive(tmp_path):
    with pytest.raises(ConfigurationError, match="not both"):
        run_campaign(
            _spec(),
            tmp_path / "grid.ledger",
            cache=ResultCache(),
            server="http://127.0.0.1:1",
        )


# ---- sharding ---------------------------------------------------------------


def test_parse_shard_grammar():
    assert parse_shard("0/4") == (0, 4)
    assert parse_shard("3/4") == (3, 4)
    for bad in ("4/4", "-1/4", "1", "a/b", "1/0"):
        with pytest.raises(ConfigurationError):
            parse_shard(bad)


def test_sharded_ledgers_merge_into_the_same_report(tmp_path):
    spec = _spec()
    baseline = run_campaign(spec, tmp_path / "baseline.ledger").report()
    ledgers = []
    for index in range(2):
        path = tmp_path / f"shard{index}.ledger"
        ledgers.append(path)
        outcome = run_campaign(spec, path, shard=(index, 2))
        assert not outcome.complete  # each shard alone is partial
        assert outcome.chunks_foreign > 0
    state = campaign_status(spec, ledgers)
    assert state.complete
    merged = build_report(spec, state)
    assert _results_section(merged) == _results_section(baseline)


# ---- remote execution -------------------------------------------------------


def test_remote_campaign_is_bit_identical_and_shares_the_server_cache(tmp_path):
    server_mod = pytest.importorskip("repro.server")
    spec = _spec()
    baseline = run_campaign(spec, tmp_path / "local.ledger").report()
    with server_mod.ReproServer(port=0) as live:
        remote = run_campaign(spec, tmp_path / "remote.ledger", server=live.url)
        assert remote.complete
        assert remote.executed_runs == 40
        assert _results_section(remote.report()) == _results_section(baseline)
        # A second remote campaign: every run served from the server's
        # content-addressed cache, zero executions.
        again = run_campaign(spec, tmp_path / "again.ledger", server=live.url)
        assert again.executed_runs == 0
        assert again.remote_hits == 40
        assert _results_section(again.report()) == _results_section(baseline)


# ---- reports and pins -------------------------------------------------------


def test_report_requires_completeness_unless_partial(tmp_path):
    spec = _spec()
    ledger = tmp_path / "grid.ledger"
    run_campaign(spec, ledger, max_chunks=2)
    state = campaign_status(spec, ledger)
    with pytest.raises(ConfigurationError, match="not checkpointed"):
        build_report(spec, state)
    partial = build_report(spec, state, partial=True)
    assert not partial.complete
    assert len(partial.result_set) == 16
    assert any("incomplete" in message for message in partial.failures())


def test_pins_enforce_exactly(tmp_path):
    spec = _spec()
    outcome = run_campaign(spec, tmp_path / "grid.ledger")
    observed = outcome.report().result_set.worst()
    good = _spec(pins={"work": observed["work"], "effort": observed["effort"]})
    assert build_report(good, outcome.state).passed
    bad = _spec(pins={"work": observed["work"] + 1})
    failures = build_report(bad, outcome.state).failures()
    assert any("work" in message and "pinned" in message for message in failures)


def test_report_rejects_a_ledger_for_different_scenarios(tmp_path):
    # Same arithmetic shape (digest check passes structurally only if the
    # grids are equal) - here we forge a record with wrong keys.
    spec = _spec()
    ledger = tmp_path / "grid.ledger"
    run_campaign(spec, ledger)
    state = campaign_status(spec, ledger)
    record = state.completed[0]
    record["keys"] = list(reversed(record["keys"]))
    with pytest.raises(ConfigurationError, match="content address"):
        build_report(spec, state)


def test_report_table_and_json_shapes(tmp_path):
    spec = _spec()
    report = run_campaign(spec, tmp_path / "grid.ledger").report()
    table = report.table()
    assert "unit-grid" in table and "adversary" in table
    data = json.loads(report.to_json())
    assert data["complete"] is True
    assert data["results"]["runs"] == 40
    assert len(data["results"]["cells"]) == 8
    assert data["passed"] is True
    assert data["execution"]["chunks_executed"] == 5


# ---- the shipped campaign ---------------------------------------------------


def test_shipped_paper_grid_plans_cleanly():
    spec = load_campaign("campaigns/paper_grid.json")
    # Every ledger written against the shipped grid records this digest;
    # a drift in grid order or canonical form would orphan them.
    assert spec.digest() == (
        "3a1a9ee70ad19760eb810a47e05e53238925bee87bd97bada7e6f9a155d858f9"
    )
    assert spec.total_runs == 200
    assert spec.total_chunks == 10
    assert set(spec.pins) == {
        "work", "messages", "effort", "rounds", "redundant_work", "crashes",
    }


# ---- the acceptance bar: >=10^4 runs, interrupted and resumed ---------------


def test_ten_thousand_run_campaign_interrupted_resumed_bit_identical(tmp_path):
    # 2 protocols x 2 n x 2500 seeds = 10_000 tiny runs in 100 chunks.
    spec = CampaignSpec(
        name="acceptance",
        grid=Sweep(
            base=Scenario(protocol="A", n=2, t=1, seed=0),
            seeds=list(range(2500)),
            protocols=["A", "B"],
            n=[2, 3],
        ),
        chunk_size=100,
    )
    assert spec.total_runs == 10_000

    cache = ResultCache()
    baseline = run_campaign(
        spec, tmp_path / "baseline.ledger", cache=cache
    )
    assert baseline.complete and baseline.executed_runs == 10_000

    ledger = tmp_path / "interrupted.ledger"
    first = run_campaign(spec, ledger, max_chunks=37)
    assert first.interrupted
    assert first.chunks_executed == 37

    resumed = run_campaign(spec, ledger)
    assert resumed.complete
    # Counters prove the checkpointed chunks were not re-executed.
    assert resumed.chunks_skipped == 37
    assert resumed.chunks_executed == 100 - 37
    assert resumed.executed_runs == 10_000 - 3_700

    assert _results_section(resumed.report()) == _results_section(
        baseline.report()
    )
