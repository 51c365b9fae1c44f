"""Client API for the ``repro serve`` run server.

Stdlib-only, but not built on ``http.client``: each connection is a
plain socket that frames HTTP/1.1 itself (headers read by
:mod:`repro.http11`).  The client speaks the wire format documented in
``docs/serve.md``, parses each answer once and rehydrates every served
result through :func:`repro.codec.decode`, so remote callers get
the *same objects* in-process callers do - bit-identical metrics, same
``config`` echo, same error taxonomy::

    from repro import Client, Scenario

    client = Client("http://127.0.0.1:8123")
    result = client.run(Scenario(protocol="D", n=256, t=16, seed=1))
    assert result == Scenario(protocol="D", n=256, t=16, seed=1).run()

Errors: HTTP 400 re-raises as :class:`~repro.errors.ConfigurationError`
with the server's message (which names the offending field and value);
transport failures, timeouts, 5xx and a 200 answer that is not JSON
or holds a result that does not decode raise
:class:`~repro.errors.ServerError`.  A job that *failed on the server*
re-raises its recorded error type the same way.

Round trips: :meth:`Client.settle` (and so :meth:`~Client.run`,
:meth:`~Client.run_sweep`, remote campaign chunks and ``repro submit``)
sends one ``POST /jobs?wait=`` that long-polls for the job to finish,
so a job done within the poll costs that one request.  Otherwise, or
against a server that ignores the query, ``GET /jobs/<id>?wait=``
follows until it is.  Every long-poll asks for at most half the socket
``timeout``, so a healthy server always answers before the socket
gives up.

Transport: each thread using a ``Client`` holds one persistent HTTP/1.1
connection to the server and sends every request over it, so a
closed-loop caller pays one TCP connect, not one per request.  Each
request is one ``sendall``; each answer is read through the
connection's one buffered reader and must carry ``Content-Length`` or
end with the connection.  A request that fails on a *reused*
connection before any response arrives (the server closed it while
idle, or restarted) is re-sent once on a fresh connection, without
sleeping and without spending an attempt.  Re-sending is safe: submissions are content-addressed and
coalesced, so a scenario still runs at most once.

Transient *connection* failures (refused, reset, timeouts, DNS hiccups
- any ``OSError`` without an HTTP status) and answers that cannot be
framed (a garbled status line or header, a truncated body - any
``http.client.HTTPException``) are retried with a bounded,
deterministic backoff schedule before
:class:`~repro.errors.ServerError` is raised: ``attempts`` tries total,
sleeping ``backoff * 2**i`` between them (default 4 tries: 0.05s, 0.1s,
0.2s).  Long-running campaigns polling a shared serve instance survive
a server restart or a dropped socket instead of dying on the first
hiccup.  HTTP 429 (rate limited - the server's ``Retry-After`` header
overrides the backoff sleep) and retryable 5xx (500/502/503/504) are
also retried; every *other* HTTP status (400/404/413...) is a real
answer and is never retried.

Hardening knobs (see ``docs/chaos.md``): ``deadline`` bounds the whole
retry loop in wall-clock seconds, so a flapping server cannot hold a
caller for ``attempts x timeout``; ``jitter`` (a fraction, default 0)
stretches each backoff sleep by up to that share, drawn from a seeded
RNG (``jitter_seed``) so retry storms decorrelate across clients while
any single client stays reproducible.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import ssl
import threading
import time
from typing import Any, Dict, List, Optional, Tuple, Union
from urllib.parse import urlsplit

from repro import codec
from repro.api import ResultSet, Scenario, Sweep
from repro.errors import ConfigurationError, ServerError
from repro.http11 import Headers, read_headers, read_line
from repro.sim.metrics import RunResult
from repro.suites import Suite

#: HTTP statuses that signal a transient server-side condition and are
#: retried like connection failures (429 additionally honors
#: ``Retry-After``).
RETRYABLE_HTTP_STATUSES = (429, 500, 502, 503, 504)

#: Seconds an injected ``transport=slow`` chaos fault adds to a request.
CHAOS_SLOW_SECONDS = 0.02

#: Anything :meth:`Client.submit` accepts.
Document = Union[Scenario, Sweep, Suite, Dict[str, Any]]

_DEFAULT_POLL_SECONDS = 0.05
_LONG_POLL_SECONDS = 10.0


def _wire_document(document: Document) -> Dict[str, Any]:
    """Normalize ``document`` to the server's one-key wire form."""
    if isinstance(document, Scenario):
        return {"scenario": document.to_dict()}
    if isinstance(document, Sweep):
        return {"sweep": document.to_dict()}
    if isinstance(document, Suite):
        return {"suite": document.to_dict()}
    if not isinstance(document, dict):
        raise ConfigurationError(
            "a submission must be a Scenario, Sweep, Suite or dict, got "
            f"{type(document).__name__}"
        )
    # A bare Suite dict spells its *name* under "suite"; the wire format
    # nests the whole dict there instead - disambiguate by value type.
    if isinstance(document.get("suite"), str):
        return {"suite": document}
    if any(key in document for key in ("scenario", "sweep", "suite", "scenarios")):
        return document
    if "base" in document:
        return {"sweep": document}
    return {"scenario": document}


def _wait_query(wait: Optional[float]) -> str:
    """The ``?wait=`` long-poll query for a job route ("" for none)."""
    return "" if wait is None else f"?wait={wait:g}"


def served_results(payloads: List[Dict[str, Any]]) -> List[RunResult]:
    """Served result payloads, rehydrated in order.  One that does not
    decode is the server's fault, not the caller's: a ServerError."""
    try:
        return [codec.decode(payload) for payload in payloads]
    except ConfigurationError as exc:
        raise ServerError(f"repro server sent a result that does not decode: {exc}") from None


class _Connection:
    """One persistent HTTP/1.1 connection: a socket with ``TCP_NODELAY``
    (wrapped by ``tls`` for https), opened on the first request, and one
    buffered reader for every answer on it.  :meth:`getresponse` returns
    the connection itself, holding the answer's ``status``, headers and
    ``will_close`` until :meth:`read` takes its body."""

    def __init__(self, host: str, port: int, netloc: str, timeout: float, tls):
        self._address = (host, port)
        self._netloc = netloc
        self._timeout = timeout
        self._tls = tls  # an ssl.SSLContext, or None for http
        self._sock = None
        self._reader = None
        self.status = 0
        self.will_close = False
        self._headers = Headers()

    def _open(self) -> None:
        sock = socket.create_connection(self._address, self._timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._address[0])
        except BaseException:
            sock.close()
            raise
        self._sock, self._reader = sock, sock.makefile("rb")

    def request(self, method: str, url: str, body: Optional[bytes] = None, headers=None):
        """Send one request in one write."""
        if self._sock is None:
            self._open()
        lines = [f"{method} {url} HTTP/1.1", f"Host: {self._netloc}"]
        if body is not None:
            lines.append(f"Content-Length: {len(body)}")
        lines.extend(f"{name}: {value}" for name, value in (headers or {}).items())
        lines.append("\r\n")
        self._sock.sendall("\r\n".join(lines).encode("iso-8859-1") + (body or b""))

    def getresponse(self) -> "_Connection":
        """Read the status line and headers of the next answer.  End of
        stream before a status line raises
        :class:`http.client.RemoteDisconnected`; a garbled status or
        header line, another :class:`http.client.HTTPException`."""
        line = read_line(self._reader)
        if not line:
            raise http.client.RemoteDisconnected(
                "remote end closed the connection without an answer"
            )
        parts = line.split(None, 2)
        if not (
            len(parts) >= 2
            and parts[0].startswith(b"HTTP/")
            and len(parts[1]) == 3
            and parts[1].isdigit()
        ):
            raise http.client.BadStatusLine(line.decode("iso-8859-1"))
        self.status = int(parts[1])
        try:
            self._headers = read_headers(self._reader)
        except ValueError as exc:  # a malformed header line
            raise http.client.HTTPException(str(exc)) from None
        connection = self._headers.get("Connection", "").lower()
        self.will_close = (
            "close" in connection
            or (parts[0] == b"HTTP/1.0" and "keep-alive" not in connection)
            or self._headers.get("Content-Length") is None
        )
        return self

    def getheader(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self._headers.get(name, default)

    def read(self) -> bytes:
        """The body of the answer :meth:`getresponse` read.  A bad
        ``Content-Length`` or a short body raises
        :class:`http.client.HTTPException`, which :meth:`Client._request`
        retries like a connection failure."""
        length = self._headers.get("Content-Length")
        if length is None:
            return self._reader.read()  # the body ends with the connection
        try:
            size = int(length)
        except ValueError:
            size = -1
        if size < 0:
            raise http.client.HTTPException(f"bad Content-Length {length!r}")
        data = self._reader.read(size)
        if len(data) < size:
            raise http.client.IncompleteRead(data, size - len(data))
        return data

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            self._reader.close()
            sock.close()


class _IdleConnection:
    """One thread's idle connection to the server.  It is closed when the
    thread ends or the client is collected, instead of being left for the
    garbage collector to find open."""

    __slots__ = ("connection",)

    def __init__(self):
        self.connection = None

    def __del__(self):
        if self.connection is not None:
            self.connection.close()


class Client:
    """HTTP client for one run server; see the module docstring."""

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 30.0,
        attempts: int = 4,
        backoff: float = 0.05,
        deadline: Optional[float] = None,
        jitter: float = 0.0,
        jitter_seed: int = 0,
        chaos=None,
    ):
        if isinstance(attempts, bool) or not isinstance(attempts, int) or attempts < 1:
            raise ConfigurationError(
                f"client attempts must be a positive integer, got {attempts!r}"
            )
        if isinstance(backoff, bool) or not isinstance(backoff, (int, float)) or backoff < 0:
            raise ConfigurationError(
                f"client backoff must be a non-negative number, got {backoff!r}"
            )
        if deadline is not None and (
            isinstance(deadline, bool)
            or not isinstance(deadline, (int, float))
            or deadline <= 0
        ):
            raise ConfigurationError(
                f"client deadline must be a positive number of seconds or "
                f"None, got {deadline!r}"
            )
        if (
            isinstance(jitter, bool)
            or not isinstance(jitter, (int, float))
            or not 0.0 <= jitter <= 1.0
        ):
            raise ConfigurationError(
                f"client jitter must be a fraction in [0, 1], got {jitter!r}"
            )
        self.base_url = base_url.rstrip("/")
        split = urlsplit(self.base_url)
        if split.scheme not in ("http", "https") or not split.hostname:
            raise ConfigurationError(
                f"server URL must look like http://HOST:PORT, got {base_url!r}"
            )
        try:
            port = split.port or (443 if split.scheme == "https" else 80)
        except ValueError:
            raise ConfigurationError(
                f"server URL must look like http://HOST:PORT, got {base_url!r}"
            ) from None
        self._address = (split.hostname, port)
        self._tls = ssl.create_default_context() if split.scheme == "https" else None
        self._netloc = split.netloc
        self._prefix = split.path
        self._local = threading.local()  # .idle: this thread's _IdleConnection
        self.timeout = timeout
        self.attempts = attempts
        self.backoff = backoff
        self.deadline = deadline
        self.jitter = jitter
        self.chaos = chaos  # a repro.chaos.ChaosInjector, or None
        self._jitter_rng = random.Random(jitter_seed)
        self._sleep = time.sleep  # injectable for deterministic tests

    # ---- transport ---------------------------------------------------

    def _retry_delays(self) -> List[float]:
        """The deterministic backoff schedule: one sleep before each
        retry after the first attempt (``backoff * 2**i``)."""
        return [self.backoff * (2 ** i) for i in range(self.attempts - 1)]

    def _jittered(self, delay: float) -> float:
        """``delay`` stretched by up to ``jitter`` (seeded draw); the
        exact base schedule when jitter is 0."""
        if self.jitter <= 0.0:
            return delay
        return delay * (1.0 + self.jitter * self._jitter_rng.random())

    def _connect(self) -> _Connection:
        """A new connection to the server; it connects on its first
        request.  The transport seam: tests script it."""
        return _Connection(*self._address, self._netloc, self.timeout, self._tls)

    def _send_on(self, connection, method: str, path: str, body, headers):
        """Send one request on ``connection`` and read its status line
        and headers; a failure closes the connection."""
        try:
            connection.request(method, self._prefix + path, body, headers)
            return connection.getresponse()
        except BaseException:
            connection.close()
            raise

    def _exchange(
        self, method: str, path: str, body: Optional[bytes], headers: Dict[str, str]
    ) -> Tuple[int, Optional[str], bytes]:
        """One request over this thread's connection: ``(status,
        Retry-After, body)``.  The body is read in full, so the
        connection stays usable for the next request."""
        idle = getattr(self._local, "idle", None)
        if idle is None:
            idle = self._local.idle = _IdleConnection()
        # Held again only once an answer was read in full.
        connection, idle.connection = idle.connection, None
        if connection is None:
            connection = self._connect()
            response = self._send_on(connection, method, path, body, headers)
        else:
            try:
                response = self._send_on(connection, method, path, body, headers)
            except (BrokenPipeError, ConnectionResetError):
                # The server closed the idle connection (idle timeout,
                # restart) and answered nothing: re-send once on a fresh
                # one, with no sleep and no attempt spent.
                connection = self._connect()
                response = self._send_on(connection, method, path, body, headers)
        try:
            data = response.read()
        except BaseException:
            connection.close()
            raise
        if response.will_close:
            connection.close()
        else:
            idle.connection = connection
        return response.status, response.getheader("Retry-After"), data

    def _request(
        self, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        method, body, headers = "GET", None, {}
        if payload is not None:
            method = "POST"
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        delays = self._retry_delays()
        last_reason: Any = None
        started = time.monotonic()
        next_delay: Optional[float] = None  # a 429's Retry-After override
        for attempt in range(self.attempts):
            if attempt:
                delay = self._jittered(
                    delays[attempt - 1] if next_delay is None else next_delay
                )
                next_delay = None
                if (
                    self.deadline is not None
                    and time.monotonic() - started + delay > self.deadline
                ):
                    break
                self._sleep(delay)
            if (
                self.deadline is not None
                and time.monotonic() - started > self.deadline
            ):
                break
            if self.chaos is not None:
                mode = self.chaos.fire("transport", path)
                if mode == "refused":
                    last_reason = "chaos: injected connection refused"
                    continue
                if mode == "error_5xx":
                    last_reason = "chaos: injected HTTP 503"
                    continue
                if mode == "slow":
                    self._sleep(CHAOS_SLOW_SECONDS)
            try:
                status, retry_after, data = self._exchange(method, path, body, headers)
            except (OSError, http.client.HTTPException) as exc:
                last_reason = exc
                continue
            if status in RETRYABLE_HTTP_STATUSES:
                # Transient server-side condition: honor Retry-After
                # (429) and retry on schedule.
                last_reason = f"HTTP {status}"
                if status == 429 and retry_after is not None:
                    try:
                        next_delay = max(0.0, float(retry_after))
                    except ValueError:
                        pass
                continue
            if status >= 300:
                # Any other HTTP status is a real answer, not a
                # transport hiccup - never retried.
                self._raise_http_error(status, data)
            try:
                return json.loads(data)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ServerError(
                    f"repro server at {self.base_url} sent a non-JSON response: {exc}"
                ) from exc
        if (
            self.deadline is not None
            and time.monotonic() - started > self.deadline - 1e-9
        ):
            raise ServerError(
                f"gave up on repro server at {self.base_url} after "
                f"{self.deadline:g}s wall-clock deadline: {last_reason}"
            )
        raise ServerError(
            f"cannot reach repro server at {self.base_url} after "
            f"{self.attempts} attempt{'s' if self.attempts != 1 else ''}: "
            f"{last_reason}"
        )

    def _raise_http_error(self, status: int, body: bytes) -> None:
        try:
            error = json.loads(body).get("error", {})
        except Exception:
            error = {}
        message = error.get("message") or f"HTTP {status}"
        if status == 400 and error.get("type") == "ConfigurationError":
            raise ConfigurationError(message)
        raise ServerError(f"server returned HTTP {status}: {message}")

    # ---- the job protocol --------------------------------------------

    def submit(
        self, document: Document, *, wait: Optional[float] = None
    ) -> Dict[str, Any]:
        """POST one document; returns the server's job snapshot
        (``job``, ``status``, ``keys``, ``sources``, plus inlined
        ``results`` once the job is done).  ``wait`` long-polls
        server-side for the job to finish, as in :meth:`job`."""
        return self._request("/jobs" + _wait_query(wait), _wire_document(document))

    def job(self, job_id: str, *, wait: Optional[float] = None) -> Dict[str, Any]:
        """Poll one job; ``wait`` long-polls server-side."""
        return self._request(f"/jobs/{job_id}" + _wait_query(wait))

    def _long_poll(self, remaining: float) -> float:
        """Seconds one long-poll may ask the server for: at most
        ``_LONG_POLL_SECONDS``, half the socket timeout (the answer must
        arrive before the socket gives up) and what is left of the
        caller's own timeout."""
        return min(_LONG_POLL_SECONDS, self.timeout / 2, remaining)

    def _settle_job(
        self,
        job_id: str,
        snapshot: Optional[Dict[str, Any]],
        *,
        started: float,
        timeout: float,
        poll: float,
    ) -> Dict[str, Any]:
        """Long-poll ``job_id`` until it finishes, at most ``timeout``
        seconds after ``started``, and return the done snapshot.
        ``snapshot`` is an answer already in hand (``None`` polls at
        once).  A failed job re-raises the server-side error
        (``ConfigurationError`` stays a ``ConfigurationError``)."""
        deadline = started + timeout
        while snapshot is None or snapshot["status"] not in ("done", "failed"):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServerError(
                    f"timed out after {timeout:g}s waiting for job {job_id}"
                )
            snapshot = self.job(job_id, wait=self._long_poll(remaining))
            if snapshot["status"] not in ("done", "failed"):
                time.sleep(poll)  # the server answered before the job finished
        if snapshot["status"] == "failed":
            error = snapshot.get("error") or {}
            message = error.get("message", "unknown server-side failure")
            if error.get("type") == "ConfigurationError":
                raise ConfigurationError(message)
            raise ServerError(
                f"job {job_id} failed on the server: "
                f"{error.get('type', 'Error')}: {message}"
            )
        return snapshot

    def wait(
        self,
        job_id: str,
        *,
        timeout: float = 300.0,
        poll: float = _DEFAULT_POLL_SECONDS,
    ) -> List[RunResult]:
        """Block until ``job_id`` finishes; rehydrated results in
        submission order.  A failed job re-raises the server-side error
        (``ConfigurationError`` stays a ``ConfigurationError``)."""
        return served_results(
            self._settle_job(
                job_id, None, started=time.monotonic(), timeout=timeout, poll=poll
            )["results"]
        )

    def settle(self, document: Document, *, timeout: float = 300.0) -> Dict[str, Any]:
        """Submit ``document`` and return its final job snapshot, with
        ``results`` inlined.  A job that finishes within the long-poll
        costs one ``POST /jobs?wait=``; otherwise ``GET /jobs/<id>?wait=``
        follows until it does (so does a server that ignores the POST's
        query).  A failed job raises as :meth:`wait` does."""
        started = time.monotonic()
        snapshot = self.submit(document, wait=self._long_poll(timeout))
        return self._settle_job(
            snapshot["job"],
            snapshot,
            started=started,
            timeout=timeout,
            poll=_DEFAULT_POLL_SECONDS,
        )

    # ---- convenience surface -----------------------------------------

    def run(self, scenario: Scenario, *, timeout: float = 300.0) -> RunResult:
        """Submit one scenario and block for its result - the remote
        equivalent of :meth:`Scenario.run`, bit-identical metrics and
        config echo included."""
        return served_results(self.settle(scenario, timeout=timeout)["results"])[0]

    def run_sweep(self, sweep: Sweep, *, timeout: float = 300.0) -> ResultSet:
        """Submit a sweep and aggregate the served results into the same
        :class:`ResultSet` an in-process :meth:`Sweep.run` returns."""
        scenarios = list(sweep.scenarios())
        results = served_results(self.settle(sweep, timeout=timeout)["results"])
        return ResultSet(list(zip(scenarios, results)))

    def result(self, key: str) -> RunResult:
        """Fetch the cached result for one
        :meth:`~repro.api.Scenario.cache_key` content address."""
        return served_results([self._request(f"/results/{key}")["result"]])[0]

    def stats(self) -> Dict[str, Any]:
        """Server job/cache counters (hits, misses, executions, ...)."""
        return self._request("/stats")

    def about(self) -> Dict[str, Any]:
        """The service manifest: version, protocols, endpoints."""
        return self._request("/")


__all__ = ["Client", "Document", "served_results"]
