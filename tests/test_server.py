"""End-to-end coverage for ``repro serve``: a live localhost server,
the :class:`repro.Client`, the content-addressed cache behind them, and
the duplicate-submission single-execution guarantee."""

import json
import threading
import urllib.error
from collections import OrderedDict
import urllib.request

import pytest

from repro.api import Scenario, Sweep
from repro.client import Client, _wire_document
from repro.core.registry import available_protocols
from repro.errors import ConfigurationError, ServerError
from repro.server import ReproServer, scenarios_from_document
from repro.server.jobs import JobStore
from repro.sim.metrics import RunResult
from repro.suites import Suite


def _scenario_for(protocol: str) -> Scenario:
    if protocol in available_protocols("async"):
        return Scenario(
            protocol=protocol,
            n=48,
            t=6,
            crash_times={1: 5.0},
            delay="uniform:0.5,3.0",
            failure_detector={"min_delay": 1.0, "max_delay": 4.0},
            seed=2,
        )
    options = {"interval": 4} if protocol == "naive" else {}
    n, t = (24, 6) if protocol.startswith("c") else (32, 8)
    return Scenario(
        protocol=protocol,
        n=n,
        t=t,
        adversary="random:2,max_action_index=8",
        seed=3,
        options=options,
    )


@pytest.fixture(scope="module")
def server():
    with ReproServer(port=0) as live:
        yield live


@pytest.fixture(scope="module")
def client(server):
    return Client(server.url)


# ---- served == direct, every protocol, both engines -------------------------


@pytest.mark.parametrize("protocol", available_protocols())
def test_served_result_is_bit_identical_to_direct(client, protocol):
    scenario = _scenario_for(protocol)
    served = client.run(scenario)
    direct = scenario.run()
    assert served == direct  # full dataclass equality, config echo included
    assert served.to_dict(full=True) == direct.to_dict(full=True)
    # Second submission is a pure cache hit and still identical.
    assert client.run(scenario) == direct


def test_sweep_submission_matches_in_process_run(client):
    sweep = Sweep(
        base=Scenario(protocol="B", n=48, t=8, adversary="random:3"),
        seeds=[0, 1, 2],
    )
    served = client.run_sweep(sweep)
    direct = sweep.run()
    assert len(served) == len(direct) == 3
    assert served.entries == direct.entries
    assert served.worst() == direct.worst()


def test_suite_document_expands_to_every_entry(client):
    suite = {
        "suite": "served",
        "version": 1,
        "entries": [
            {
                "name": "single",
                "scenario": {"protocol": "A", "n": 32, "t": 4, "seed": 5},
            },
            {
                "name": "grid",
                "sweep": {
                    "base": {"protocol": "B", "n": 32, "t": 4},
                    "seeds": [5, 6],
                },
            },
        ],
    }
    snapshot = client.submit(suite)  # bare suite dict; client wraps it
    assert snapshot["kind"] == "suite"
    assert snapshot["runs"] == 3
    results = client.wait(snapshot["job"])
    assert len(results) == 3
    assert all(result.completed for result in results)


# ---- the duplicate-submission load test -------------------------------------


def test_thousand_duplicate_submissions_execute_each_scenario_once():
    distinct = [
        Scenario(protocol="A", n=16, t=4, adversary="random:2", seed=seed)
        for seed in range(8)
    ]
    direct = [scenario.run() for scenario in distinct]
    total, workers = 1000, 16
    with ReproServer(port=0, job_workers=8) as live:
        results = [None] * total
        errors = []

        def pound(worker: int) -> None:
            local = Client(live.url)
            try:
                for i in range(worker, total, workers):
                    results[i] = local.run(distinct[i % len(distinct)])
            except Exception as exc:  # pragma: no cover - diagnostic path
                errors.append(exc)

        threads = [
            threading.Thread(target=pound, args=(worker,))
            for worker in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        stats = Client(live.url).stats()

    assert errors == []
    # Single-execution proof: 8 distinct keys -> 8 runs, everything else
    # resolved from the cache or an in-flight duplicate.
    assert stats["executions"] == len(distinct)
    assert stats["cache"]["misses"] == len(distinct)
    assert stats["cache"]["stores"] == len(distinct)
    assert stats["cache"]["hits"] + stats["coalesced"] == total - len(distinct)
    assert stats["jobs"]["submitted"] == total
    for i, result in enumerate(results):
        assert result == direct[i % len(distinct)]


# ---- error taxonomy over the wire -------------------------------------------


def test_malformed_scenario_names_field_and_value(client):
    with pytest.raises(ConfigurationError, match="'n'.*'lots'"):
        client.submit({"scenario": {"protocol": "A", "n": "lots", "t": 4}})
    # Spec values are coerced at construction, so a bad one is a 400 at
    # submission, not a job that fails later.
    for adversary, pattern in [
        ("random:abc", "'count'.*'abc'"),
        ({"kind": "rack", "racks": "two"}, "'racks'.*'two'"),
    ]:
        with pytest.raises(ConfigurationError, match=pattern):
            client.submit(
                {"scenario": {"protocol": "D", "n": 32, "t": 4, "adversary": adversary}}
            )
    # A crash scheduled for a process the run does not have is a 400, not
    # a job that fails in its worker, retries and is quarantined.
    for pid in ("10", "-1"):
        with pytest.raises(ConfigurationError, match=f"crash_times pid '{pid}'"):
            client.submit(
                {
                    "scenario": {
                        "protocol": "A-async", "n": 16, "t": 4,
                        "crash_times": {pid: 2.0},
                    }
                }
            )


@pytest.mark.parametrize(
    "field, value",
    [
        ("options", {"batched": True}),
        ("options", {"slack": 40}),
        ("options", {"epoch": 5000}),
        ("strict_invariants", True),
    ],
)
def test_a_removed_option_is_a_400_naming_it(server, field, value):
    name = next(iter(value)) if field == "options" else field
    protocol = {"batched": "C", "slack": "A", "epoch": "B"}.get(name, "A")
    document = {"scenario": {"protocol": protocol, "n": 16, "t": 4, field: value}}
    request = urllib.request.Request(
        server.url + "/jobs",
        data=json.dumps(document).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30.0)
    assert excinfo.value.code == 400
    error = json.loads(excinfo.value.read())["error"]
    assert error["type"] == "ConfigurationError"
    assert f"'{name}'" in error["message"]


def test_unknown_protocol_is_rejected_at_submission(client):
    with pytest.raises(ConfigurationError, match="zz"):
        client.submit({"scenario": {"protocol": "zz", "n": 32, "t": 4}})


def test_document_must_hold_exactly_one_kind(client):
    with pytest.raises(ConfigurationError, match="exactly one"):
        client.submit(
            {
                "scenario": {"protocol": "A", "n": 32, "t": 4},
                "scenarios": [],
            }
        )
    with pytest.raises(ConfigurationError, match="exactly one"):
        client._request("/jobs", {})


def test_unknown_job_and_result_raise_server_error(client):
    with pytest.raises(ServerError, match="no job"):
        client.job("j-999999")
    with pytest.raises(ServerError, match="no cached result"):
        client.result("0" * 64)


def test_unreachable_server_raises_server_error():
    with pytest.raises(ServerError, match="cannot reach"):
        Client("http://127.0.0.1:9", timeout=0.5).stats()


# ---- lookups and counters ---------------------------------------------------


def test_result_endpoint_serves_by_cache_key(client):
    scenario = Scenario(protocol="D", n=32, t=4, seed=11)
    served = client.run(scenario)
    fetched = client.result(scenario.cache_key())
    # /results/<key> has no submitting scenario, so no config echo.
    assert fetched.config is None
    assert fetched.metrics == served.metrics


def test_stats_and_manifest_shapes(client):
    stats = client.stats()
    assert set(stats) >= {"jobs", "executions", "coalesced", "inflight", "cache"}
    assert set(stats["cache"]) >= {"hits", "misses", "stores", "evictions", "size"}
    about = client.about()
    assert about["service"] == "repro-serve"
    assert "a" in about["protocols"]
    assert any(endpoint.startswith("POST /jobs") for endpoint in about["endpoints"])


def test_malformed_sweep_axis_is_a_400_naming_the_field(server):
    document = {"sweep": {"base": {"protocol": "A", "n": 32, "t": 4}, "seeds": 3}}
    request = urllib.request.Request(
        server.url + "/jobs",
        data=json.dumps(document).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30.0)
    assert excinfo.value.code == 400
    error = json.loads(excinfo.value.read())["error"]
    assert error["type"] == "ConfigurationError"
    assert "sweep 'seeds'" in error["message"]


# ---- wire-format helpers ----------------------------------------------------


def test_wire_document_disambiguates_bare_dicts():
    scenario = {"protocol": "A", "n": 32, "t": 4}
    assert _wire_document(scenario) == {"scenario": scenario}
    sweep = {"base": scenario, "seeds": [1, 2]}
    assert _wire_document(sweep) == {"sweep": sweep}
    suite = {"suite": "named", "version": 1, "entries": []}
    assert _wire_document(suite) == {"suite": suite}
    wrapped = {"scenarios": [scenario]}
    assert _wire_document(wrapped) == wrapped
    with pytest.raises(ConfigurationError, match="Scenario, Sweep, Suite or dict"):
        _wire_document(42)


def test_wire_document_wraps_api_objects():
    scenario = Scenario(protocol="A", n=32, t=4)
    assert _wire_document(scenario) == {"scenario": scenario.to_dict()}
    sweep = Sweep(base=scenario, seeds=[1])
    assert _wire_document(sweep) == {"sweep": sweep.to_dict()}
    suite = Suite(name="s", version=1, entries=[])
    assert _wire_document(suite) == {"suite": suite.to_dict()}


def test_scenarios_from_document_expands_each_kind():
    scenario = {"protocol": "A", "n": 32, "t": 4}
    kind, expanded = scenarios_from_document({"scenario": scenario})
    assert kind == "scenario" and len(expanded) == 1
    kind, expanded = scenarios_from_document(
        {"sweep": {"base": scenario, "seeds": [1, 2, 3]}}
    )
    assert kind == "sweep" and len(expanded) == 3
    kind, expanded = scenarios_from_document({"scenarios": [scenario, scenario]})
    assert kind == "scenarios" and len(expanded) == 2
    with pytest.raises(ConfigurationError, match="non-empty list"):
        scenarios_from_document({"scenarios": []})
    with pytest.raises(ConfigurationError, match="dict"):
        scenarios_from_document([scenario])


# ---- the CLI submit verb ----------------------------------------------------


def test_cli_submit_round_trips_through_a_live_server(server, tmp_path, capsys):
    from repro.__main__ import main

    document = tmp_path / "scenario.json"
    document.write_text(
        json.dumps({"scenario": {"protocol": "B", "n": 48, "t": 8, "seed": 9}})
    )
    code = main(["submit", str(document), "--server", server.url])
    out = capsys.readouterr().out
    assert code == 0
    assert "B" in out and "completed" in out

    # The summary counts this submission's slots, not the server's
    # cumulative counters: the repeat is one hit and executes nothing.
    code = main(["submit", str(document), "--server", server.url])
    err = capsys.readouterr().err
    assert code == 0
    assert "cache: 1 hits, 0 misses," in err

    code = main(["submit", str(document), "--server", server.url, "--json"])
    captured = capsys.readouterr()
    assert code == 0
    payloads = json.loads(captured.out)
    assert payloads[0]["status"] == "done"
    assert payloads[0]["sources"] == ["cache"]  # second submission hits


def test_cli_submit_unreachable_server_exits_2(tmp_path, capsys):
    from repro.__main__ import main

    document = tmp_path / "scenario.json"
    document.write_text(json.dumps({"scenario": {"protocol": "A", "n": 16, "t": 2}}))
    code = main(["submit", str(document), "--server", "http://127.0.0.1:9"])
    assert code == 2
    assert "error" in capsys.readouterr().err


# ---- long-polled submissions ------------------------------------------------


@pytest.fixture
def held_runs(monkeypatch):
    """Hold every server-side execution until the test sets the
    returned event (set again at teardown, so no server hangs)."""
    import repro.server.jobs as jobs

    gate = threading.Event()
    real = jobs.run_scenarios

    def held(*args, **kwargs):
        gate.wait(60.0)
        return real(*args, **kwargs)

    monkeypatch.setattr(jobs, "run_scenarios", held)
    yield gate
    gate.set()


@pytest.fixture
def requests_sent(monkeypatch):
    """Every request any Client sends, as ``(method, path)``."""
    sent = []
    real = Client._exchange

    def exchange(self, method, path, body, headers):
        sent.append((method, path))
        return real(self, method, path, body, headers)

    monkeypatch.setattr(Client, "_exchange", exchange)
    return sent


def _long_polled_posts(sent, count):
    """True when ``sent`` is exactly ``count`` long-polled submissions."""
    return len(sent) == count and all(
        method == "POST" and path.startswith("/jobs?wait=") for method, path in sent
    )


def test_post_long_poll_answers_done_with_results(client):
    scenario = Scenario(protocol="D", n=32, t=4, adversary="random:2", seed=31)
    snapshot = client.submit(scenario, wait=5)
    assert snapshot["status"] == "done"
    assert snapshot["sources"] == ["run"]  # cold: executed inside the poll
    assert RunResult.from_dict(snapshot["results"][0]) == scenario.run()


def test_bad_wait_is_a_400_and_creates_no_job(client):
    document = {"scenario": {"protocol": "A", "n": 16, "t": 4, "seed": 32}}
    before = client.stats()["jobs"]["submitted"]
    with pytest.raises(ConfigurationError, match="'wait' must be a number of seconds"):
        client._request("/jobs?wait=abc", document)
    assert client.stats()["jobs"]["submitted"] == before
    job_id = client.submit(document)["job"]
    with pytest.raises(ConfigurationError, match="'wait' must be a number of seconds"):
        client._request(f"/jobs/{job_id}?wait=abc")


def test_request_deadline_caps_the_post_long_poll(held_runs):
    scenario = Scenario(protocol="B", n=32, t=4, seed=33)
    with ReproServer(port=0, request_deadline=0.001) as live:
        try:
            client = Client(live.url)
            pending = client.submit(scenario, wait=5)
            assert pending["status"] in ("submitted", "running")
            assert "results" not in pending
            answered = []
            real = client._exchange

            def exchange(method, path, body, headers):
                answer = real(method, path, body, headers)
                answered.append((method, path))
                held_runs.set()  # the run finishes only after the POST answered
                return answer

            client._exchange = exchange
            # The POST comes back pending; the GET fallback fetches the result.
            assert client.run(scenario) == scenario.run()
        finally:
            held_runs.set()
    assert answered[0][0] == "POST"
    assert len(answered) >= 2 and all(method == "GET" for method, _ in answered[1:])


def test_long_polls_stay_within_the_socket_timeout(held_runs):
    # The run is released only after more answered requests than the
    # client's retry budget, so a long-poll that outlived the socket
    # timeout would exhaust the retries first.
    scenario = Scenario(protocol="D", n=32, t=4, seed=34)
    with ReproServer(port=0) as live:
        try:
            client = Client(live.url, timeout=0.4)
            answered = []
            real = client._exchange

            def exchange(method, path, body, headers):
                answer = real(method, path, body, headers)
                answered.append(path)
                if len(answered) > client.attempts:
                    held_runs.set()
                return answer

            client._exchange = exchange
            assert client.run(scenario) == scenario.run()
        finally:
            held_runs.set()
    assert len(answered) > client.attempts
    assert all(path.endswith("?wait=0.2") for path in answered)


def test_cold_run_and_sweep_cost_one_request(client, requests_sent):
    scenario = Scenario(protocol="A", n=32, t=4, adversary="random:2", seed=35)
    assert client.run(scenario) == scenario.run()
    assert _long_polled_posts(requests_sent, 1), requests_sent
    requests_sent.clear()
    sweep = Sweep(base=Scenario(protocol="B", n=32, t=4, seed=36), seeds=[36, 37])
    assert client.run_sweep(sweep).entries == sweep.run().entries
    assert _long_polled_posts(requests_sent, 1), requests_sent


def test_remote_campaign_chunk_costs_one_request(client, tmp_path, requests_sent):
    from repro.campaign import CampaignSpec, run_campaign

    spec = CampaignSpec(
        grid=Sweep(base=Scenario(protocol="A", n=8, t=2), seeds=list(range(40, 46))),
        name="one-request",
        chunk_size=2,
    )
    outcome = run_campaign(spec, tmp_path / "remote.ledger", server=client)
    assert outcome.complete and outcome.chunks_executed == 3
    assert _long_polled_posts(requests_sent, 3), requests_sent


def test_cli_submit_costs_one_request_per_file(server, tmp_path, requests_sent, capsys):
    from repro.__main__ import main

    paths = []
    for seed in (38, 39):
        path = tmp_path / f"scenario-{seed}.json"
        path.write_text(
            json.dumps({"scenario": {"protocol": "B", "n": 32, "t": 4, "seed": seed}})
        )
        paths.append(str(path))
    assert main(["submit", *paths, "--server", server.url]) == 0
    capsys.readouterr()
    assert _long_polled_posts(requests_sent, 2), requests_sent


# ---- job table eviction ---------------------------------------------------------


class _CountingJobs(OrderedDict):
    """A job table that counts the jobs any walk over it visits."""

    visited = 0

    def __iter__(self):
        for job_id in super().__iter__():
            self.visited += 1
            yield job_id

    def values(self):
        for job_id in self:
            yield self[job_id]


def test_job_eviction_drops_the_oldest_finished_jobs_and_stops_early(held_runs):
    store = JobStore(max_jobs=50, job_workers=1)
    done = Scenario(protocol="A", n=8, t=2, seed=1)
    store.cache.put(done.cache_key(), done.run())  # each submit of it is a done hit
    # The oldest job runs until the test ends: it is never evicted.
    running = store.submit([Scenario(protocol="A", n=8, t=2, seed=2)])
    hits = [store.submit([done]) for _ in range(60)]
    assert list(store._jobs) == [running.id] + [job.id for job in hits[-49:]]
    assert store.get(hits[-50].id) is None

    store._jobs = _CountingJobs(store._jobs)
    newest = store.submit([done])
    assert list(store._jobs) == (
        [running.id] + [job.id for job in hits[-48:]] + [newest.id]
    )
    # At the cap a submit walks past the running job to the one it
    # drops, and no further (a copy of the table visits all 51).
    store._jobs.visited = 0
    store.submit([done])
    assert store._jobs.visited == 2
    assert store.get(running.id) is running
    held_runs.set()
    store.drain()
