"""Persistent HTTP/1.1 connections between ``Client`` and ``ReproServer``:
one connection per client thread, answers that leave the stream clean,
and a shutdown that closes the connections it would otherwise keep
serving."""

import http.client
import json
import sys
import threading

import pytest

from repro.api import Scenario
from repro.client import Client
from repro.server import ReproServer

_DOCUMENT = json.dumps(
    {"scenario": Scenario(protocol="A", n=8, t=2, seed=1).to_dict()}
).encode("utf-8")


def _exchange(connection, method, path, body=None, headers=None):
    """One request on ``connection``; ``(response, body)`` read in full."""
    connection.request(method, path, body, headers or {})
    response = connection.getresponse()
    return response, response.read()


def _spend_the_one_slot(server, connection):
    """Use up a burst of one token, or a quota of one submission."""
    response, _ = _exchange(connection, "POST", "/jobs", _DOCUMENT)
    assert response.status == 200 and not response.will_close


def _drain(server, connection):
    server._state.draining = True


# (server keywords, prepare the server and connection, request headers, path, status)
_EARLY_ANSWERS = {
    "rate-limit-429": (
        {"rate_limit": 0.001, "rate_burst": 1}, _spend_the_one_slot, {}, "/jobs", 429
    ),
    "quota-429": ({"client_quota": 1}, _spend_the_one_slot, {}, "/jobs", 429),
    "unknown-path-404": ({}, None, {}, "/nope", 404),
    "chaos-handler-500": ({"chaos": "handler=1.0,seed=3"}, None, {}, "/jobs", 500),
    "draining-503": ({}, _drain, {}, "/jobs", 503),
    "oversize-413": ({"max_body_bytes": 16}, None, {}, "/jobs", 413),
    "bad-content-length-400": ({}, None, {"Content-Length": "lots"}, "/jobs", 400),
}


@pytest.mark.parametrize("case", sorted(_EARLY_ANSWERS))
def test_an_answer_sent_before_the_body_was_read_closes_the_connection(case):
    kwargs, prepare, headers, path, status = _EARLY_ANSWERS[case]
    with ReproServer(port=0, **kwargs) as server:
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        if prepare is not None:
            prepare(server, connection)
        response, body = _exchange(connection, "POST", path, _DOCUMENT, headers)
        assert response.status == status
        assert "error" in json.loads(body)
        assert response.getheader("Connection") == "close"
        # The unread body was not parsed as the next request.
        response, body = _exchange(connection, "GET", "/healthz")
        assert response.status == 200
        assert json.loads(body) == {"status": "ok"}
        connection.close()


def test_a_consumed_body_keeps_the_connection_open():
    with ReproServer(port=0) as server:
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        response, _ = _exchange(connection, "POST", "/jobs", b"{not json")
        assert response.status == 400 and not response.will_close
        response, body = _exchange(connection, "GET", "/stats")
        assert response.status == 200
        assert json.loads(body)["connections"] == 1
        connection.close()


def test_sequential_runs_on_one_client_share_one_connection():
    with ReproServer(port=0) as server:
        client = Client(server.url)
        for seed in range(50):
            assert client.run(Scenario(protocol="A", n=8, t=2, seed=seed)).completed
        assert client.stats()["connections"] == 1


def test_threads_sharing_one_client_each_hold_one_connection():
    scenarios = [Scenario(protocol="A", n=8, t=2, seed=seed) for seed in range(4)]
    workers, calls = 12, 20
    errors = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ReproServer(port=0) as server:
            client = Client(server.url)

            def pound(worker):
                try:
                    for call in range(calls):
                        scenario = scenarios[(worker + call) % len(scenarios)]
                        # Crossed connections would hand a thread another's answer.
                        assert client.run(scenario).config == scenario.to_dict()
                except Exception as exc:  # pragma: no cover - diagnostic path
                    errors.append(exc)

            threads = [threading.Thread(target=pound, args=(w,)) for w in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            # One per worker thread, plus this thread's own for stats().
            assert client.stats()["connections"] == workers + 1
    finally:
        sys.setswitchinterval(switch)


def test_shutdown_closes_idle_keepalive_connections():
    server = ReproServer(port=0).start()
    before = set(threading.enumerate())
    connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
    response, _ = _exchange(connection, "GET", "/stats")
    assert response.status == 200 and not response.will_close
    handlers = [
        thread for thread in set(threading.enumerate()) - before
        if "process_request_thread" in thread.name
    ]
    assert len(handlers) == 1  # parked on the idle connection
    server.shutdown()
    with pytest.raises((http.client.HTTPException, OSError)):
        _exchange(connection, "GET", "/stats")
    handlers[0].join(timeout=1.0)
    assert not handlers[0].is_alive()
    connection.close()


def test_client_survives_a_restart_on_the_same_port_without_sleeping():
    scenario = Scenario(protocol="A", n=8, t=2, seed=1)
    first = ReproServer(port=0).start()
    client = Client(first.url)
    sleeps = []
    client._sleep = sleeps.append
    assert client.run(scenario) == scenario.run()
    first.shutdown()
    with ReproServer(port=first.port) as second:
        assert client.run(scenario) == scenario.run()
        assert client.stats()["connections"] == 1  # the one fresh re-send
        assert second.url == first.url
    assert sleeps == []
