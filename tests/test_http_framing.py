"""HTTP/1.1 framing of ``ReproServer`` and ``Client``, each end checked
against the standard library's other end: the server against
``http.client`` and raw sockets, the client against an ``http.server``
stub.  Two hand-written ends could agree on a wrong framing; the
standard library would not."""

import http.client
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import repro.client
from repro.api import Scenario
from repro.client import Client
from repro.errors import ServerError
from repro.http11 import MAX_HEADERS, MAX_LINE
from repro.server import ReproServer

_DOCUMENT = json.dumps(
    {"scenario": Scenario(protocol="A", n=8, t=2, seed=1).to_dict()}
).encode("utf-8")


# ---- the server against the standard library's client ----------------------


@pytest.fixture(scope="module")
def server():
    with ReproServer(port=0) as live:
        yield live


def _raw(server):
    return socket.create_connection((server.host, server.port), timeout=10)


def _answer(sock):
    """Read one answer from ``sock`` with ``http.client``'s parser."""
    response = http.client.HTTPResponse(sock)
    response.begin()
    return response, response.read()


def _closed(sock) -> bool:
    """True when the server has closed ``sock``: end of stream, or a
    reset when it closed with part of the request unread."""
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True


def test_two_requests_share_one_keep_alive_connection():
    with ReproServer(port=0) as fresh:
        connection = http.client.HTTPConnection(fresh.host, fresh.port, timeout=10)
        connection.request("POST", "/jobs?wait=5", _DOCUMENT)
        response = connection.getresponse()
        assert response.status == 200 and not response.will_close
        assert json.loads(response.read())["status"] == "done"
        connection.request("GET", "/stats")
        response = connection.getresponse()
        assert response.status == 200 and not response.will_close
        assert response.getheader("Content-Type") == "application/json"
        assert response.getheader("Server").startswith("repro-serve/")
        assert response.getheader("Date").endswith(" GMT")
        assert json.loads(response.read())["connections"] == 1
        connection.close()


def test_header_names_match_in_any_case(server):
    with _raw(server) as sock:
        for _ in range(2):  # the connection stays open after each
            sock.sendall(
                b"POST /jobs?wait=5 HTTP/1.1\r\nhOsT: x\r\n"
                b"content-LENGTH: %d\r\nCONTENT-type: application/json\r\n\r\n"
                % len(_DOCUMENT) + _DOCUMENT
            )
            response, body = _answer(sock)
            assert response.status == 200 and not response.will_close
            assert json.loads(body)["status"] == "done"


def test_http_1_0_closes_after_its_answer(server):
    with _raw(server) as sock:
        sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
        response, body = _answer(sock)
        assert response.status == 200 and json.loads(body) == {"status": "ok"}
        assert response.getheader("Connection") == "close"
        assert _closed(sock)


def test_http_1_0_keep_alive_stays_open(server):
    with _raw(server) as sock:
        for _ in range(2):
            sock.sendall(b"GET /healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
            response, body = _answer(sock)
            assert response.status == 200 and response.getheader("Connection") is None


def test_connection_close_closes_after_the_answer(server):
    connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
    connection.request("GET", "/healthz", headers={"Connection": "close"})
    response = connection.getresponse()
    assert response.status == 200 and response.will_close
    assert response.getheader("Connection") == "close"
    response.read()
    connection.close()
    with _raw(server) as sock:
        sock.sendall(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        response, _ = _answer(sock)
        assert response.status == 200
        assert _closed(sock)


# (request head, status): each answer closes the connection.
_REFUSED = {
    "header-line-too-long": (
        b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * MAX_LINE + b"\r\n\r\n", 431
    ),
    "too-many-headers": (
        b"GET /healthz HTTP/1.1\r\n"
        + b"".join(b"X-%d: 1\r\n" % i for i in range(MAX_HEADERS + 1))
        + b"\r\n",
        431,
    ),
    "header-without-colon": (b"GET /healthz HTTP/1.1\r\nNo colon here\r\n\r\n", 400),
    "space-before-colon": (b"GET /healthz HTTP/1.1\r\nHost : x\r\n\r\n", 400),
    "folded-header-line": (
        b"GET /healthz HTTP/1.1\r\nX-A: 1\r\n  continued\r\n\r\n", 400
    ),
    "http-0.9-request-line": (b"GET /healthz\r\n", 400),
    "bad-version": (b"GET /healthz HTTP/1.x\r\n\r\n", 400),
    "four-words": (b"GET /healthz now HTTP/1.1\r\n\r\n", 400),
    "http-2": (b"GET /healthz HTTP/2.0\r\n\r\n", 505),
    "request-line-too-long": (b"GET /" + b"a" * MAX_LINE + b" HTTP/1.1\r\n\r\n", 414),
    "unknown-method": (b"BREW /healthz HTTP/1.1\r\n\r\n", 501),
}


@pytest.mark.parametrize("case", sorted(_REFUSED))
def test_a_request_that_cannot_be_framed_is_refused_and_closed(server, case):
    head, status = _REFUSED[case]
    with _raw(server) as sock:
        sock.sendall(head)
        response, body = _answer(sock)
        assert response.status == status
        assert response.getheader("Connection") == "close"
        assert json.loads(body)["error"]["type"] == "ProtocolError"
        assert _closed(sock)


def test_a_full_header_block_within_the_limits_is_served(server):
    headers = [b"X-%d: 1\r\n" % i for i in range(MAX_HEADERS - 1)]
    headers.append(b"X-Long: " + b"a" * (MAX_LINE - 10) + b"\r\n")
    assert len(headers[-1]) == MAX_LINE
    with _raw(server) as sock:
        sock.sendall(b"GET /healthz HTTP/1.1\r\n" + b"".join(headers) + b"\r\n")
        response, body = _answer(sock)
        assert response.status == 200 and not response.will_close


def test_expect_100_continue_is_answered_before_the_body(server):
    with _raw(server) as sock:
        sock.sendall(
            b"POST /jobs?wait=5 HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
            b"Content-Length: %d\r\n\r\n" % len(_DOCUMENT)
        )
        interim = b""
        while not interim.endswith(b"\r\n\r\n"):
            interim += sock.recv(1)
        assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(_DOCUMENT)
        response, body = _answer(sock)
        assert response.status == 200 and not response.will_close
        assert json.loads(body)["status"] == "done"


def test_each_answer_is_one_write(monkeypatch):
    writes = []
    with ReproServer(port=0) as fresh:
        handler = fresh._http.RequestHandlerClass
        setup = handler.setup

        def counted_setup(self):
            setup(self)
            write = self.wfile.write
            self.wfile.write = lambda data: writes.append(data) or write(data)

        monkeypatch.setattr(handler, "setup", counted_setup)
        connection = http.client.HTTPConnection(fresh.host, fresh.port, timeout=10)
        for method, path, body in [
            ("POST", "/jobs?wait=5", _DOCUMENT),
            ("GET", "/stats", None),
            ("GET", "/nope", None),
        ]:
            connection.request(method, path, body)
            response = connection.getresponse()
            payload = response.read()
            assert writes[-1].endswith(payload)
        connection.close()
    assert len(writes) == 3


# ---- the client against the standard library's server ----------------------


class _Stub:
    """An ``http.server`` that answers each request with the next
    scripted ``(status, headers, body, close)``: ``close`` shuts the
    connection after the answer without saying so, as an idle timeout
    does."""

    def __init__(self, answers):
        self.answers = list(answers)
        self.requests = []
        self.connections = 0
        self.closed = threading.Event()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, format, *args):  # noqa: A002
                pass

            def setup(self):
                super().setup()
                stub.connections += 1

            def do_GET(self):  # noqa: N802
                self._answer(None)

            def do_POST(self):  # noqa: N802
                self._answer(self.rfile.read(int(self.headers["Content-Length"])))

            def _answer(self, body):
                stub.requests.append((self.command, self.path, dict(self.headers), body))
                answer = stub.answers.pop(0)
                if type(answer) is bytes:  # written as it is, then closed
                    self.wfile.write(answer)
                    self.close_connection = True
                    return
                status, headers, payload, close = answer
                self.send_response(status)
                headers = {"Content-Length": str(len(payload)), **headers}
                for name, value in headers.items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(payload)
                if close:
                    self.close_connection = True

        class Server(ThreadingHTTPServer):
            daemon_threads = True

            def shutdown_request(self, request):
                super().shutdown_request(request)
                stub.closed.set()

        self.http = Server(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.http.serve_forever, daemon=True)
        self.thread.start()
        self.url = "http://127.0.0.1:%d" % self.http.server_address[1]

    def stop(self):
        self.http.shutdown()
        self.http.server_close()


def _ok(value):
    return (200, {"Content-Type": "application/json"}, json.dumps(value).encode(), False)


@pytest.fixture
def stub_client(request):
    stubs = []

    def make(answers):
        stub = _Stub(answers)
        stubs.append(stub)
        client = Client(stub.url)
        sleeps = []
        client._sleep = sleeps.append
        return stub, client, sleeps

    yield make
    for stub in stubs:
        stub.stop()


def test_client_reuses_one_connection_and_frames_each_request(stub_client, monkeypatch):
    writes = []
    open_socket = repro.client._Connection._open

    def counted_open(self):
        open_socket(self)
        sock = self._sock

        class Counted:
            def sendall(self, data):
                writes.append(data)
                sock.sendall(data)

            def __getattr__(self, name):
                return getattr(sock, name)

        self._sock = Counted()

    monkeypatch.setattr(repro.client._Connection, "_open", counted_open)
    stub, client, sleeps = stub_client([_ok({"n": 1}), _ok({"n": 2}), _ok({"n": 3})])
    assert client.about() == {"n": 1}
    assert client.submit({"scenario": {"protocol": "A", "n": 8, "t": 2}}) == {"n": 2}
    assert client.stats() == {"n": 3}
    assert stub.connections == 1 and sleeps == []
    assert [(method, path) for method, path, _, _ in stub.requests] == [
        ("GET", "/"), ("POST", "/jobs"), ("GET", "/stats"),
    ]
    _, _, headers, body = stub.requests[1]
    assert json.loads(body) == {"scenario": {"protocol": "A", "n": 8, "t": 2}}
    assert headers["Host"] == stub.url[len("http://"):]
    assert headers["Content-Type"] == "application/json"
    assert len(writes) == 3  # one write per request, body included
    assert writes[1].endswith(body)


def test_a_connection_close_answer_closes_the_connection(stub_client):
    closing = (200, {"Connection": "close"}, b'{"n": 1}', False)
    stub, client, sleeps = stub_client([closing, _ok({"n": 2})])
    assert client.about() == {"n": 1}
    assert client._local.idle.connection is None  # not kept for reuse
    assert client.about() == {"n": 2}
    assert stub.connections == 2 and sleeps == []


def test_an_http_1_0_answer_closes_the_connection(stub_client):
    stub, client, sleeps = stub_client([_ok({"n": 1}), _ok({"n": 2})])
    stub.http.RequestHandlerClass.protocol_version = "HTTP/1.0"
    assert client.about() == {"n": 1}
    assert client.about() == {"n": 2}
    assert stub.connections == 2 and sleeps == []


def test_429_retry_after_is_honoured(stub_client):
    throttled = (
        429, {"Retry-After": "7"},
        b'{"error": {"type": "ServerError", "message": "slow down"}}', False,
    )
    stub, client, sleeps = stub_client([throttled, _ok({"n": 1})])
    assert client.about() == {"n": 1}
    assert sleeps == [7.0]
    assert stub.connections == 1  # a 429 keeps the connection


def test_a_live_idle_close_is_re_sent_once_for_free(stub_client):
    first = (200, {}, b'{"n": 1}', True)  # then the server closes, unannounced
    stub, client, sleeps = stub_client([first, _ok({"n": 2})])
    assert client.about() == {"n": 1}
    assert stub.closed.wait(10)
    assert client.about() == {"n": 2}
    assert sleeps == []  # no backoff, no attempt spent
    assert stub.connections == 2 and len(stub.requests) == 2


def test_a_truncated_body_is_retried_then_raises_server_error(stub_client):
    short = (200, {"Content-Length": "100"}, b'{"n": 1}', True)
    stub, client, sleeps = stub_client([short] * 4)
    with pytest.raises(ServerError, match="after 4 attempts: IncompleteRead"):
        client.about()
    assert sleeps == [0.05, 0.1, 0.2]
    assert stub.connections == 4
    assert client._local.idle.connection is None


def test_a_truncated_body_then_a_whole_one_succeeds(stub_client):
    short = (200, {"Content-Length": "100"}, b'{"n": 1}', True)
    stub, client, sleeps = stub_client([short, _ok({"n": 2})])
    assert client.about() == {"n": 2}
    assert sleeps == [0.05]


@pytest.mark.parametrize("answer", [
    b"HTTP/1.1 2OO OK\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length 8\r\n\r\n{\"n\": 1}",
    b"HTTP/1.1 200 OK\r\nContent-Length: eight\r\n\r\n{\"n\": 1}",
    b"HTTP/1.1 200 OK\r\nContent-Length: -8\r\n\r\n{\"n\": 1}",
], ids=["status line", "header line", "content length", "negative length"])
def test_a_garbled_answer_is_retried_then_raises_server_error(stub_client, answer):
    stub, client, sleeps = stub_client([answer] * 4)
    with pytest.raises(ServerError, match="after 4 attempts"):
        client.about()
    assert sleeps == [0.05, 0.1, 0.2]
    assert stub.connections == 4
    assert client._local.idle.connection is None
