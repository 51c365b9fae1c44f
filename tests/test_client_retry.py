"""Client retry-with-backoff: transient connection errors retry on a
bounded deterministic schedule; HTTP answers never retry.  A reused
connection the server dropped is re-sent once for free."""

import gc
import http.client
import json
import threading

import pytest

from repro.client import Client
from repro.errors import ConfigurationError, ServerError


class _Transport:
    """Scripted stand-in for the client's connection seam
    (``Client._connect``): every request on any connection it made pops
    one outcome - an exception instance to raise before any response,
    a payload dict to serve as HTTP 200, or a ``(status, payload)``
    pair."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = 0
        self.connections = 0
        self.closed = 0

    def connect(self):
        self.connections += 1
        return _Connection(self)


class _Connection:
    def __init__(self, transport):
        self.transport = transport
        self.response = None

    def request(self, method, url, body=None, headers=None):
        self.transport.calls += 1
        outcome = self.transport.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        status, payload = outcome if isinstance(outcome, tuple) else (200, outcome)
        self.response = _Response(status, json.dumps(payload).encode("utf-8"))

    def getresponse(self):
        return self.response

    def close(self):
        self.transport.closed += 1


class _Response:
    will_close = False

    def __init__(self, status, body):
        self.status = status
        self.body = body

    def getheader(self, name, default=None):
        return default

    def read(self):
        return self.body


def _client(outcomes, **kwargs):
    transport = _Transport(outcomes)
    client = Client("http://127.0.0.1:9", **kwargs)
    client._connect = transport.connect
    sleeps = []
    client._sleep = sleeps.append
    return client, transport, sleeps


def _refused():
    return ConnectionRefusedError(111, "refused")


def _dropped():
    """What a reused connection raises when the server closed it."""
    return http.client.RemoteDisconnected("Remote end closed connection")


def test_transient_failure_retries_then_succeeds():
    client, transport, sleeps = _client(
        [_refused(), _refused(), {"ok": True}]
    )
    assert client.about() == {"ok": True}
    assert transport.calls == 3
    # Deterministic exponential schedule: backoff * 2**i.
    assert sleeps == [0.05, 0.1]


def test_exhausted_attempts_raise_server_error_naming_the_count():
    client, transport, sleeps = _client(
        [_refused()] * 4, attempts=4, backoff=0.01
    )
    with pytest.raises(ServerError, match="after 4 attempts"):
        client.about()
    assert transport.calls == 4
    assert sleeps == [0.01, 0.02, 0.04]


def test_single_attempt_never_sleeps():
    client, transport, sleeps = _client([_refused()], attempts=1)
    with pytest.raises(ServerError, match="after 1 attempt:"):
        client.about()
    assert transport.calls == 1
    assert sleeps == []


def test_http_errors_are_answers_not_retried():
    error = (400, {"error": {"type": "ConfigurationError", "message": "bad n"}})
    client, transport, sleeps = _client([error])
    with pytest.raises(ConfigurationError, match="bad n"):
        client.submit({"scenario": {"protocol": "A", "n": 4, "t": 2}})
    assert transport.calls == 1  # no second attempt for an HTTP answer
    assert sleeps == []


def test_recovery_mid_schedule_stops_retrying():
    client, transport, sleeps = _client(
        [_refused(), {"ok": 1}, _refused()]
    )
    assert client.about() == {"ok": 1}
    assert transport.calls == 2
    assert sleeps == [0.05]
    assert len(transport.outcomes) == 1  # the third outcome never consumed


def test_retry_delays_are_a_pure_function_of_the_settings():
    client = Client("http://127.0.0.1:9", attempts=5, backoff=0.2)
    assert client._retry_delays() == [0.2, 0.4, 0.8, 1.6]
    assert Client("http://127.0.0.1:9", attempts=1)._retry_delays() == []


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"attempts": 0}, "attempts"),
        ({"attempts": True}, "attempts"),
        ({"attempts": 1.5}, "attempts"),
        ({"backoff": -0.1}, "backoff"),
        ({"backoff": "fast"}, "backoff"),
    ],
)
def test_retry_settings_validate(kwargs, message):
    with pytest.raises(ConfigurationError, match=message):
        Client("http://127.0.0.1:9", **kwargs)


def test_bad_server_url_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="http://HOST:PORT"):
        Client("127.0.0.1:8123")


# ---- persistent connections ---------------------------------------------


def test_one_connection_serves_every_request():
    client, transport, sleeps = _client([{"ok": 1}, {"ok": 2}, {"ok": 3}])
    assert [client.about() for _ in range(3)] == [{"ok": 1}, {"ok": 2}, {"ok": 3}]
    assert transport.connections == 1
    assert sleeps == []


@pytest.mark.parametrize(
    "error",
    [_dropped(), BrokenPipeError(32, "broken pipe"), ConnectionResetError(104, "reset")],
    ids=["remote-disconnected", "broken-pipe", "reset"],
)
def test_dropped_reused_connection_is_resent_once_for_free(error):
    client, transport, sleeps = _client([{"ok": 1}, error, {"ok": 2}], attempts=1)
    assert client.about() == {"ok": 1}
    # attempts=1: the re-send on a fresh connection spent no attempt.
    assert client.about() == {"ok": 2}
    assert transport.calls == 3
    assert transport.connections == 2
    assert sleeps == []


def test_a_failed_resend_falls_back_to_the_schedule():
    client, transport, sleeps = _client([{"ok": 1}, _dropped(), _dropped(), {"ok": 2}])
    assert client.about() == {"ok": 1}
    assert client.about() == {"ok": 2}
    assert transport.calls == 4
    assert sleeps == [0.05]


def test_a_fresh_connection_failure_is_not_resent():
    client, transport, sleeps = _client([_dropped(), {"ok": 1}])
    assert client.about() == {"ok": 1}
    assert transport.calls == 2
    assert sleeps == [0.05]


def test_each_thread_holds_its_own_connection():
    client, transport, _ = _client([{"ok": 1}] * 4)
    client.about()
    worker = threading.Thread(target=lambda: [client.about(), client.about()])
    worker.start()
    worker.join()
    client.about()
    assert transport.connections == 2


def test_idle_connections_close_with_their_thread_and_client():
    client, transport, _ = _client([{"ok": 1}, {"ok": 2}])
    worker = threading.Thread(target=client.about)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert transport.closed == 1  # the finished thread's connection
    client.about()
    del client
    gc.collect()
    assert transport.closed == 2


def test_an_answer_whose_result_does_not_decode_is_a_server_error():
    # HTTP 200 with a result whose metrics do not add up: the server is
    # at fault, not the caller, so this is a ServerError (the client
    # keeps ConfigurationError for HTTP 400), as a non-JSON body is.
    from repro.api import Scenario

    scenario = Scenario(protocol="A", n=8, t=2, seed=1)
    result = scenario.run().to_dict(full=True)
    result["metrics"]["work"] += 1
    answers = {
        "/jobs": {"job": "j-1", "status": "done", "sources": ["cache"], "results": [result]},
        "/results/": {"key": "k", "result": result},
    }
    client = Client("http://127.0.0.1:9", attempts=1)

    def exchange(method, path, body, headers):
        route = next(prefix for prefix in answers if path.startswith(prefix))
        return 200, None, json.dumps(answers[route]).encode("utf-8")

    client._exchange = exchange
    with pytest.raises(ServerError, match="does not decode"):
        client.run(scenario)
    with pytest.raises(ServerError, match="does not decode"):
        client.result("k")
    client._exchange = lambda method, path, body, headers: (200, None, b"not json")
    with pytest.raises(ServerError, match="non-JSON"):
        client.about()
