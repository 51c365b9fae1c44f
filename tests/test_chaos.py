"""The seeded chaos harness: deterministic fault injection across the
execution plane, and the graceful-degradation contracts it proves.

Three headline properties (see ``docs/chaos.md``):

1. under worker/handler/journal chaos, every submission to a live
   server terminates with either a bit-identical result or a typed
   error - nothing hangs, nothing is silently lost;
2. a chaos-interrupted campaign resumes to a report bit-identical
   (minus the per-session ``execution`` provenance) to a fault-free run;
3. injected journal damage degrades to skipped-and-counted lines, never
   a crashed replay or a wrong result.

``REPRO_CHAOS_SEED`` overrides the injection seed (the CI
``chaos-smoke`` job pins it); ``REPRO_CHAOS_REPORT`` names a JSON file
to write the harness's fault/outcome summary to (the CI artifact).
"""

import json
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import codec
from repro.api import Scenario, Sweep
from repro.cache import ResultCache
from repro.campaign import CampaignSpec, CampaignState, run_campaign
from repro.campaign.ledger import CampaignLedger
from repro.chaos import (
    INJECTION_POINTS,
    POINT_MODES,
    ChaosInjector,
    ChaosInterrupt,
    chaos_from_spec,
    normalize_chaos_spec,
)
from repro.client import Client
from repro.errors import ConfigurationError, ServerError
from repro.server import ReproServer
from repro.server.jobs import JobStore

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "7"))

#: Accumulated by the headline tests, dumped to $REPRO_CHAOS_REPORT.
_REPORT = {"seed": CHAOS_SEED, "sections": {}}


@pytest.fixture(scope="module", autouse=True)
def _chaos_report_artifact():
    yield
    path = os.environ.get("REPRO_CHAOS_REPORT")
    if path:
        with open(path, "w") as handle:
            json.dump(_REPORT, handle, indent=2, sort_keys=True)
            handle.write("\n")


class _ScriptedChaos:
    """A stand-in injector that fires a fixed script of modes at one
    point (deterministic single-mode tests; the real injector draws)."""

    def __init__(self, point, modes):
        self.point = point
        self.modes = list(modes)

    def fire(self, point, detail=""):
        if point != self.point or not self.modes:
            return None
        return self.modes.pop(0)


# ---- spec grammar ----------------------------------------------------


def test_chaos_spec_spellings_canonicalise_identically():
    canonical = {"seed": 7, "rates": {"journal_write": 0.02, "transport": 0.05}}
    assert (
        normalize_chaos_spec("journal_write=0.02,transport=0.05,seed=7")
        == normalize_chaos_spec(
            {"journal_write": 0.02, "transport": 0.05, "seed": 7}
        )
        == normalize_chaos_spec(canonical)
        == canonical
    )
    injector = chaos_from_spec("journal_write=0.02,transport=0.05,seed=7")
    assert normalize_chaos_spec(injector) == canonical
    assert chaos_from_spec(injector) is injector


def test_chaos_spec_without_positive_rates_is_no_injection():
    assert normalize_chaos_spec(None) is None
    assert normalize_chaos_spec("") is None
    assert normalize_chaos_spec("worker=0") is None
    assert chaos_from_spec({"worker": 0.0, "seed": 3}) is None


@pytest.mark.parametrize(
    "spec, fragment",
    [
        ("disk=0.1", "'disk'"),
        ("worker", "POINT=RATE"),
        ("worker=lots", "'lots'"),
        ("worker=1.5", "1.5"),
        ("worker=-0.1", "-0.1"),
        ({"seed": 1.5, "worker": 0.1}, "1.5"),
        ({"seed": "many", "worker": 0.1}, "'many'"),
        ({"rates": {"worker": 0.1}, "worker": 0.2}, "mixes"),
        ({"rates": "high"}, "'high'"),
        (42, "int"),
    ],
)
def test_malformed_chaos_specs_name_the_offending_value(spec, fragment):
    with pytest.raises(ConfigurationError) as excinfo:
        normalize_chaos_spec(spec)
    assert fragment in str(excinfo.value)


# ---- injector determinism --------------------------------------------


def test_injector_streams_are_deterministic_and_per_point():
    rates = {"worker": 0.5, "transport": 0.5}
    first = ChaosInjector(rates, seed=CHAOS_SEED)
    second = ChaosInjector(rates, seed=CHAOS_SEED)
    baseline = [first.fire("worker") for _ in range(64)]
    # Interleaving other points' calls must not disturb a point's
    # stream: each point draws from its own seeded RNG.
    for _ in range(17):
        second.fire("transport")
    assert [second.fire("worker") for _ in range(64)] == baseline
    fired = [mode for mode in baseline if mode is not None]
    assert fired  # a 0.5 rate over 64 calls injects something
    assert set(fired) <= set(POINT_MODES["worker"])
    assert first.log.count("worker") == len(fired)
    assert first.log.count("worker", fired[0]) >= 1


def test_injector_rejects_unknown_points_and_logs_events():
    injector = ChaosInjector({"handler": 1.0}, seed=CHAOS_SEED)
    with pytest.raises(ConfigurationError, match="'no_such_point'"):
        injector.fire("no_such_point")
    assert injector.fire("handler", "GET /stats") == "exception"
    snapshot = injector.log.as_dict()
    assert snapshot["total"] == 1
    assert snapshot["by_point"] == {"handler": 1}
    assert snapshot["by_mode"] == {"handler:exception": 1}
    assert snapshot["events"] == [
        {"point": "handler", "mode": "exception", "detail": "GET /stats"}
    ]
    assert set(POINT_MODES) == set(INJECTION_POINTS)


# ---- cache journal under chaos ---------------------------------------


def test_journal_chaos_degrades_to_skipped_lines_never_bad_results(tmp_path):
    path = tmp_path / "cache.jsonl"
    chaos = ChaosInjector({"journal_write": 0.5}, seed=CHAOS_SEED)
    cache = ResultCache(path=path, chaos=chaos)
    expected = {}
    for seed in range(12):
        scenario = Scenario(protocol="A", n=8, t=2, seed=seed)
        key = scenario.cache_key()
        cache.put(key, scenario.run())
        expected[key] = cache.get_payload(key)
    assert chaos.log.count("journal_write") > 0
    assert len(cache) == 12  # the in-memory cache never degrades

    # Replay must never crash and never invent or mutate a result:
    # every surviving entry is bit-identical to what was stored.
    replayed = ResultCache(path=path)
    survivors = 0
    for key, payload in expected.items():
        got = replayed.get_payload(key)
        assert got is None or got == payload
        survivors += got is not None
    assert len(replayed) == survivors <= 12
    damaged = chaos.log.count("journal_write", "torn") + chaos.log.count(
        "journal_write", "partial"
    )
    if damaged:
        assert replayed.stats()["journal_corrupt"] >= 1


# ---- the job store under chaos ---------------------------------------


def test_worker_quarantine_surfaces_typed_error_and_never_caches():
    store = JobStore(
        retries=2,
        retry_backoff=0.0,
        chaos=_ScriptedChaos("worker", ["crash", "crash"]),
    )
    scenario = Scenario(protocol="A", n=8, t=2, seed=0)
    job = store.submit([scenario])
    assert job.wait(30.0)
    assert job.status == "failed"
    error = job.as_dict()["error"]
    assert error["type"] == "InjectedFault"
    assert "chaos" in error["message"]
    assert store.quarantined == 1 and store.retried == 1
    # Quarantine releases the key un-cached...
    assert store.cache.get_payload(scenario.cache_key()) is None
    # ...so a resubmission re-executes from scratch and succeeds.
    job2 = store.submit([scenario])
    assert job2.wait(30.0)
    assert job2.status == "done"
    assert json.loads(job2.to_json())["results"][0] == {
        **scenario.run().to_dict(full=True),
        "config": scenario.to_dict(),
    }
    store.close()


# ---- headline: a live server under chaos -----------------------------


def test_chaos_server_every_submission_terminates_bit_identical():
    spec = f"worker=0.3,handler=0.2,journal_write=0.2,seed={CHAOS_SEED}"
    scenarios = [Scenario(protocol="A", n=8, t=2, seed=seed) for seed in range(10)]
    direct = {sc.cache_key(): sc.run() for sc in scenarios}
    outcomes = []
    with ReproServer(port=0, chaos=spec, retries=4, retry_backoff=0.005) as server:
        client = Client(server.url, attempts=8, backoff=0.005)
        for scenario in scenarios:
            try:
                served = client.run(scenario, timeout=60.0)
                assert served == direct[scenario.cache_key()]
                outcomes.append("ok")
            except ServerError:
                outcomes.append("typed-error")
        stats = client.stats()
        report = server.shutdown()
    # Every submission terminated - with a bit-identical result or a
    # typed error - and faults really were injected.
    assert len(outcomes) == len(scenarios)
    assert "ok" in outcomes
    assert report["chaos"]["total"] > 0
    assert report["leaked_keys"] == [] and report["leaked_jobs"] == []
    assert stats["inflight"] == 0
    assert stats["chaos"]["total"] > 0
    _REPORT["sections"]["server"] = {
        "outcomes": {value: outcomes.count(value) for value in set(outcomes)},
        "faults": report["chaos"]["by_mode"],
        "retried": stats["retried"],
        "quarantined": stats["quarantined"],
    }


def test_client_transport_chaos_retries_to_the_same_answer():
    chaos = ChaosInjector({"transport": 0.4}, seed=CHAOS_SEED)
    scenarios = [Scenario(protocol="B", n=16, t=4, seed=seed) for seed in range(5)]
    with ReproServer(port=0) as server:
        client = Client(server.url, attempts=10, backoff=0.001, chaos=chaos)
        for scenario in scenarios:
            assert client.run(scenario, timeout=60.0) == scenario.run()
    assert chaos.log.count("transport") > 0
    _REPORT["sections"]["transport"] = chaos.log.as_dict()["by_mode"]


# ---- rate limiting and quotas ----------------------------------------


def _raw_post(url, document):
    """POST without the client's retry loop; ``(status, body, headers)``."""
    request = urllib.request.Request(
        url + "/jobs",
        data=json.dumps(document).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), exc.headers


def test_rate_limit_returns_429_with_retry_after():
    with ReproServer(port=0, rate_limit=1.0, rate_burst=2) as server:
        documents = [
            {"scenario": Scenario(protocol="A", n=8, t=2, seed=seed).to_dict()}
            for seed in range(3)
        ]
        statuses = [_raw_post(server.url, doc)[0] for doc in documents]
        assert statuses[:2] == [200, 200]  # the burst
        status, body, headers = _raw_post(server.url, documents[2])
        assert status == 429
        assert body["error"]["type"] == "ServerError"
        assert int(headers["Retry-After"]) >= 1
        # The client retries a 429 on the server's schedule and lands.
        client = Client(server.url, attempts=4, backoff=0.01)
        result = client.run(Scenario(protocol="A", n=8, t=2, seed=9))
        assert result.completed
        assert client.stats()["throttled"] >= 2


def test_client_quota_exhausts_permanently():
    with ReproServer(port=0, client_quota=2) as server:
        client = Client(server.url, attempts=1)
        for seed in range(2):
            assert client.run(Scenario(protocol="A", n=8, t=2, seed=seed)).completed
        with pytest.raises(ServerError, match="429"):
            client.submit(Scenario(protocol="A", n=8, t=2, seed=5))
        # GETs are not submissions: stats still answer once over quota.
        assert client.stats()["throttled"] == 1


def test_oversized_body_is_a_413_naming_the_limit():
    with ReproServer(port=0, max_body_bytes=256) as server:
        status, body, _ = _raw_post(
            server.url,
            {"scenarios": [Scenario(protocol="A", n=8, t=2, seed=s).to_dict() for s in range(20)]},
        )
        assert status == 413
        assert "256-byte limit" in body["error"]["message"]


# ---- graceful shutdown -----------------------------------------------


def test_readyz_flips_to_503_while_draining_and_submissions_refuse():
    server = ReproServer(port=0).start()
    try:
        with urllib.request.urlopen(server.url + "/readyz", timeout=30.0) as response:
            assert json.loads(response.read())["status"] == "ready"
        with urllib.request.urlopen(server.url + "/healthz", timeout=30.0) as response:
            assert json.loads(response.read())["status"] == "ok"
        server._state.draining = True
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(server.url + "/readyz", timeout=30.0)
        assert excinfo.value.code == 503
        assert json.loads(excinfo.value.read())["status"] == "draining"
        status, body, _ = _raw_post(
            server.url, {"scenario": Scenario(protocol="A", n=8, t=2, seed=0).to_dict()}
        )
        assert status == 503
        assert "draining" in body["error"]["message"]
        # Liveness stays honest while draining.
        with urllib.request.urlopen(server.url + "/healthz", timeout=30.0) as response:
            assert response.status == 200
    finally:
        server.shutdown()


class _GatedWorkers:
    """A chaos stand-in that parks every worker execution on an event,
    so the test controls exactly when the drain can finish."""

    def __init__(self):
        self.release = threading.Event()

    def fire(self, point, detail=""):
        if point == "worker":
            self.release.wait(30.0)
        return None


def test_graceful_shutdown_drains_journals_and_releases_long_polls(tmp_path):
    journal = tmp_path / "cache.jsonl"
    server = ReproServer(port=0, cache_path=journal).start()
    gate = _GatedWorkers()
    server.store.chaos = gate  # park executions until the test says go
    client = Client(server.url)
    scenarios = [Scenario(protocol="A", n=8, t=2, seed=seed) for seed in range(4)]
    snapshot = client.submit(
        {"scenarios": [scenario.to_dict() for scenario in scenarios]}
    )
    resolved = {}
    polling = threading.Event()

    def long_poll():
        started = time.monotonic()
        polling.set()
        resolved["results"] = client.wait(snapshot["job"], timeout=60.0)
        resolved["seconds"] = time.monotonic() - started

    poller = threading.Thread(target=long_poll)
    poller.start()
    assert polling.wait(10.0)
    time.sleep(0.1)  # let the long-poll GET reach the server
    # Shutdown blocks on the gated executions; the long-poll is pinned
    # in-flight the whole time, then resolves as the drain completes.
    shutdown_box = {}
    drainer = threading.Thread(
        target=lambda: shutdown_box.update(report=server.shutdown())
    )
    drainer.start()
    time.sleep(0.1)
    assert server.draining and not resolved  # drain started, poll held
    gate.release.set()
    drainer.join(timeout=30.0)
    assert not drainer.is_alive()
    report = shutdown_box["report"]
    poller.join(timeout=30.0)
    assert not poller.is_alive()
    # The long-poll returned promptly with the drained job's results,
    # not after its full timeout.
    assert len(resolved["results"]) == 4
    assert resolved["seconds"] < 30.0
    assert [result.completed for result in resolved["results"]] == [True] * 4
    # Clean drain: nothing leaked, and the drained work is journaled.
    assert report["drained_jobs"] >= 1
    assert report["leaked_keys"] == [] and report["leaked_jobs"] == []
    replayed = ResultCache(path=journal)
    for scenario in scenarios:
        assert replayed.get_payload(scenario.cache_key()) is not None
    # Shutdown is idempotent and the socket really closed.
    assert server.shutdown() is report
    with pytest.raises(ServerError):
        Client(server.url, attempts=1, timeout=2.0).stats()
    _REPORT["sections"]["shutdown"] = {
        "drained_jobs": report["drained_jobs"],
        "leaked_jobs": len(report["leaked_jobs"]),
    }


# ---- headline: chaos-interrupted campaigns resume --------------------


def _campaign_spec():
    return CampaignSpec(
        name="chaos-grid",
        grid=Sweep(base=Scenario(protocol="A", n=8, t=2, seed=0), seeds=list(range(6))),
        chunk_size=2,
    )


def _results_section(report):
    data = report.as_dict()
    data.pop("execution")
    return data


def test_chaos_interrupted_campaign_resumes_bit_identical(tmp_path):
    spec = _campaign_spec()
    baseline = run_campaign(spec, tmp_path / "clean.ledger").report()

    ledger = tmp_path / "chaos.ledger"
    chaos = ChaosInjector({"ledger_append": 1.0}, seed=CHAOS_SEED)
    interrupts = 0
    outcome = None
    for _ in range(60):
        try:
            outcome = run_campaign(spec, ledger, chaos=chaos)
        except ChaosInterrupt:
            interrupts += 1
            continue
        if outcome.complete:
            break
    assert outcome is not None and outcome.complete
    assert interrupts > 0  # at rate 1.0 some appends tore mid-write
    assert chaos.log.count("ledger_append", "torn") == interrupts
    assert _results_section(outcome.report()) == _results_section(baseline)
    # The surviving ledger replays clean for a fresh reader too.
    state = CampaignState.load(spec, ledger)
    assert state.complete
    _REPORT["sections"]["campaign"] = {
        "interrupts": interrupts,
        "fsync_retries": chaos.log.count("ledger_append", "fsync_fail"),
        "bit_identical": True,
    }


def test_ledger_fsync_failure_retries_transparently(tmp_path):
    spec = _campaign_spec()
    chunk = next(iter(spec.chunks()))
    payloads = [codec.encode(scenario.run()) for scenario in chunk.scenarios]
    path = tmp_path / "fsync.ledger"
    ledger = CampaignLedger(
        path, spec, chaos=_ScriptedChaos("ledger_append", ["fsync_fail"])
    )
    ledger.append_chunk(chunk, payloads)
    assert ledger.fsync_retries == 1
    state = CampaignState.load(spec, path)
    assert state.torn_tails == 0
    assert set(state.completed) == {chunk.index}


def test_torn_ledger_append_is_a_simulated_kill_that_resumes(tmp_path):
    spec = _campaign_spec()
    path = tmp_path / "torn.ledger"
    torn = CampaignLedger(
        path, spec, chaos=_ScriptedChaos("ledger_append", ["torn"])
    )
    chunk = next(iter(spec.chunks()))
    payloads = [codec.encode(scenario.run()) for scenario in chunk.scenarios]
    with pytest.raises(ChaosInterrupt, match="torn"):
        torn.append_chunk(chunk, payloads)
    # Exactly the shape replay tolerates: a torn final line, 0 chunks.
    state = CampaignState.load(spec, path)
    assert state.torn_tails == 1 and state.chunks_done == 0
    # A later session trims the fragment and checkpoints cleanly.
    CampaignLedger(path, spec).append_chunk(chunk, payloads)
    state = CampaignState.load(spec, path)
    assert state.torn_tails == 0
    assert set(state.completed) == {chunk.index}
