"""The HTTP face of simulation-as-a-service: routing + wire format.

Stdlib only (``http.server`` + JSON); see ``docs/serve.md`` for the
full wire-format reference.  Endpoints:

* ``POST /jobs`` - submit a job document (``{"scenario": ...}``,
  ``{"sweep": ...}``, ``{"suite": ...}`` or ``{"scenarios": [...]}``).
  Returns the job snapshot; results are inlined when the job is done.
  ``?wait=SECONDS`` long-polls for the job to finish before answering,
  so a job that finishes within the poll costs this one request.
* ``GET /jobs/<id>`` - poll one job.  Done jobs carry ``results`` in
  submission order.
* ``GET /results/<key>`` - the cached result for one
  :meth:`~repro.api.Scenario.cache_key` content address.
* ``GET /stats`` - job/cache counters (hits, misses, executions,
  coalesced, retried, quarantined, journal CRC counters - the
  single-execution and no-silent-corruption proofs).
* ``GET /healthz`` - liveness: 200 while the process serves.
* ``GET /readyz`` - readiness: 200 while accepting work, 503 once
  draining (load balancers stop routing before shutdown completes).
* ``GET /`` - service manifest (version, protocols, endpoints).

On both job routes ``?wait=`` is capped at :data:`MAX_WAIT_SECONDS` and
further by the server's per-request deadline; a value that is not a
number is a 400.

Errors are JSON ``{"error": {"type", "message"}}``: configuration
mistakes are HTTP 400 with the package's own
:class:`~repro.errors.ConfigurationError` message (field and value
named), unknown routes/ids are 404, an oversized body is 413, a
rate-limited or over-quota client is 429 with a ``Retry-After`` header,
submissions during drain are 503, anything unexpected is 500.

Robustness (see ``docs/chaos.md``): construction accepts a ``chaos``
spec that threads a :class:`~repro.chaos.ChaosInjector` through the
cache journal, the job workers and the request handler;
:meth:`ReproServer.shutdown` performs a graceful drain - stop accepting
submissions, finish in-flight jobs, resolve stragglers with typed
errors so long-polls return promptly - and returns the drain report.
"""

from __future__ import annotations

import email.utils
import http.client
import json
import re
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Union
from urllib.parse import parse_qs, urlsplit

import repro
from repro import codec
from repro.cache import ResultCache
from repro.chaos import chaos_from_spec
from repro.core.registry import available_protocols
from repro.errors import ConfigurationError, ServerError
from repro.http11 import read_headers
from repro.server.jobs import JobStore, scenarios_from_document

#: Ceiling on ``?wait=`` long-polls, so a stuck client cannot pin a
#: handler thread forever.
MAX_WAIT_SECONDS = 30.0

#: Seconds a keep-alive connection may sit idle (or stall mid-request)
#: before the server closes it and frees its handler thread.
IDLE_TIMEOUT_SECONDS = 60.0

#: Default cap on submission bodies; override per server with
#: ``max_body_bytes=``.
MAX_BODY_BYTES = 64 * 1024 * 1024


class RateLimiter:
    """Per-client token bucket plus an optional absolute quota.

    ``rate`` tokens refill per second up to ``burst``; each submission
    spends one.  ``quota`` (when set) caps a client's *total accepted*
    submissions for the server's lifetime - multi-tenant fairness for
    long-lived shared instances.  ``allow`` returns ``(True, 0.0)`` or
    ``(False, retry_after_seconds)`` (0 retry-after means "never":
    quota exhausted).  The clock is injectable for deterministic tests.
    """

    def __init__(
        self,
        rate: float,
        burst: Optional[int] = None,
        *,
        quota: Optional[int] = None,
        clock=time.monotonic,
    ):
        if not isinstance(rate, (int, float)) or isinstance(rate, bool) or rate <= 0:
            raise ConfigurationError(
                f"rate limit must be a positive number of requests per "
                f"second, got {rate!r}"
            )
        if burst is None:
            burst = max(1, int(rate))
        if isinstance(burst, bool) or not isinstance(burst, int) or burst < 1:
            raise ConfigurationError(
                f"rate-limit burst must be a positive integer, got {burst!r}"
            )
        if quota is not None and (
            isinstance(quota, bool) or not isinstance(quota, int) or quota < 1
        ):
            raise ConfigurationError(
                f"client quota must be a positive integer or None, got {quota!r}"
            )
        self.rate = float(rate)
        self.burst = burst
        self.quota = quota
        self._clock = clock
        self._lock = threading.Lock()
        self._tokens: Dict[str, float] = {}
        self._stamp: Dict[str, float] = {}
        self._spent: Dict[str, int] = {}
        self.throttled = 0  # observability: how many requests got a 429

    def allow(self, client: str):
        now = self._clock()
        with self._lock:
            if self.quota is not None and self._spent.get(client, 0) >= self.quota:
                self.throttled += 1
                return False, 0.0
            tokens = min(
                float(self.burst),
                self._tokens.get(client, float(self.burst))
                + (now - self._stamp.get(client, now)) * self.rate,
            )
            self._stamp[client] = now
            if tokens < 1.0:
                self._tokens[client] = tokens
                self.throttled += 1
                return False, (1.0 - tokens) / self.rate
            self._tokens[client] = tokens - 1.0
            self._spent[client] = self._spent.get(client, 0) + 1
            return True, 0.0


class _ServerState:
    """Shared mutable knobs the handler consults per request."""

    def __init__(
        self,
        *,
        max_body_bytes: int,
        request_deadline: Optional[float],
        limiter: Optional[RateLimiter],
        chaos,
    ):
        self.max_body_bytes = max_body_bytes
        self.request_deadline = request_deadline
        self.limiter = limiter
        self.chaos = chaos
        self.draining = False


#: ``HTTP/major.minor`` as the standard library's server accepts it.
_HTTP_VERSION = re.compile(r"HTTP/(\d{1,10})\.(\d{1,10})\Z", re.ASCII)


class _ThreadingServer(ThreadingHTTPServer):
    """One handler thread per persistent connection, plus the
    bookkeeping :meth:`ReproServer.shutdown` needs to close the
    connections that sit idle between requests."""

    daemon_threads = True
    # Concurrent duplicate submissions arrive in bursts; the default
    # accept backlog of 5 drops connections under load.
    request_queue_size = 128

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.connections = 0  # accepted TCP connections, lifetime
        self._lock = threading.Lock()
        self._idle = set()  # sockets waiting for their next request
        self._closing = False

    def process_request(self, request, client_address):
        with self._lock:
            self.connections += 1
        super().process_request(request, client_address)

    def park(self, connection) -> bool:
        """Mark ``connection`` idle; False once idle connections are
        being closed (its handler should stop)."""
        with self._lock:
            if not self._closing:
                self._idle.add(connection)
            return not self._closing

    def unpark(self, connection) -> None:
        with self._lock:
            self._idle.discard(connection)

    def close_idle(self) -> None:
        """Close every idle connection and every one that goes idle
        from now on; a handler blocked reading its next request sees
        end-of-file and exits."""
        with self._lock:
            self._closing = True
            idle, self._idle = self._idle, set()
        for connection in idle:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the peer already hung up


def _make_handler(store: JobStore, state: _ServerState):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = f"repro-serve/{repro.__version__}"
        server_line = f"Server: {server_version} {BaseHTTPRequestHandler.sys_version}"
        # An answer is one write, but one longer than a TCP segment ends
        # in a short one that Nagle's algorithm holds back until the
        # peer's delayed ACK (~40 ms) arrives.
        disable_nagle_algorithm = True
        timeout = IDLE_TIMEOUT_SECONDS
        # True while a POST body is still unread on the socket: a
        # response sent then closes the connection, or the body would
        # be parsed as the next request.
        body_pending = False
        date = (0, "")  # (second, its Date header line), shared by handlers

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass  # request logging is the CLI's choice, not the handler's

        # ---- connection lifecycle ------------------------------------

        def handle_one_request(self) -> None:
            if not self.server.park(self.connection):
                self.close_connection = True  # shutting down
                return
            try:
                super().handle_one_request()
            finally:
                self.server.unpark(self.connection)

        def parse_request(self) -> bool:
            """Split ``METHOD TARGET HTTP/1.x``, read the headers and
            settle whether the connection stays open.  A request that
            cannot be framed is answered here and ``False`` returned."""
            self.server.unpark(self.connection)  # a request line arrived
            self.command = None
            self.close_connection = True
            self.requestline = self.raw_requestline.decode("iso-8859-1").rstrip("\r\n")
            words = self.requestline.split()
            if not words:
                return False
            if len(words) != 3:
                self.send_error(400, f"bad request line {self.requestline[:80]!r}")
                return False
            command, path, version = words
            match = _HTTP_VERSION.match(version)
            if match is None:
                self.send_error(400, f"bad HTTP version {version[:80]!r}")
                return False
            number = (int(match[1]), int(match[2]))
            if number >= (2, 0):
                self.send_error(505, f"HTTP version {version!r} is not supported")
                return False
            self.request_version = version
            if path.startswith("//"):
                path = "/" + path.lstrip("/")  # never a scheme-relative URL
            self.command, self.path = command, path
            try:
                self.headers = read_headers(self.rfile)
            except http.client.HTTPException as exc:  # a line or count limit
                self.send_error(431, str(exc))
                return False
            except ValueError as exc:
                self.send_error(400, str(exc))
                return False
            connection = self.headers.get("Connection", "").lower()
            self.close_connection = connection == "close" or (
                number < (1, 1) and connection != "keep-alive"
            )
            if (
                number >= (1, 1)
                and self.headers.get("Expect", "").lower() == "100-continue"
            ):
                self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            return True

        def send_error(self, code, message=None, explain=None) -> None:
            # A request that cannot be framed, or an unknown method: the
            # rest of the stream cannot be trusted either.
            self.close_connection = True
            self._error(code, "ProtocolError", message or self.responses[code][0])

        # ---- plumbing ------------------------------------------------

        def _send(
            self,
            code: int,
            payload: Union[Dict[str, Any], str],
            headers: Optional[Dict[str, str]] = None,
        ) -> None:
            """Status line, headers and JSON body (``payload``, or its
            text) in one write."""
            if not isinstance(payload, str):
                payload = json.dumps(payload, sort_keys=True)
            body = payload.encode("utf-8")
            if self.body_pending:
                self.close_connection = True
            lines = [
                f"HTTP/1.1 {code} {self.responses[code][0]}",
                self.server_line,
                self._date_header(),
                "Content-Type: application/json",
                f"Content-Length: {len(body)}",
            ]
            lines.extend(f"{name}: {value}" for name, value in (headers or {}).items())
            if self.close_connection:
                lines.append("Connection: close")
            lines.append("\r\n")
            self.wfile.write("\r\n".join(lines).encode("iso-8859-1") + body)

        def _date_header(self) -> str:
            """The ``Date`` header, formatted once per second."""
            second, line = Handler.date
            now = int(time.time())
            if now != second:
                line = f"Date: {email.utils.formatdate(now, usegmt=True)}"
                Handler.date = (now, line)
            return line

        def _error(
            self,
            code: int,
            type_name: str,
            message: str,
            headers: Optional[Dict[str, str]] = None,
        ) -> None:
            self._send(
                code, {"error": {"type": type_name, "message": message}}, headers
            )

        def _read_document(self) -> Optional[Any]:
            try:
                length = int(self.headers.get("Content-Length", 0))
            except ValueError:
                self._error(400, "ConfigurationError", "bad Content-Length header")
                return None
            if length <= 0:
                self._error(
                    400, "ConfigurationError",
                    "a job submission needs a JSON body",
                )
                return None
            if length > state.max_body_bytes:
                self._error(
                    413, "ConfigurationError",
                    f"job document of {length} bytes exceeds this server's "
                    f"{state.max_body_bytes}-byte limit (serve "
                    "--max-body-bytes raises it)",
                )
                return None
            raw = self.rfile.read(length)
            self.body_pending = False
            try:
                return codec.parse(raw, "job document")
            except ConfigurationError as exc:
                self._error(400, "ConfigurationError", str(exc))
                return None

        def _chaos_handler_fault(self, path: str) -> bool:
            """Injected handler failure (HTTP 500); health endpoints are
            exempt so liveness stays honest."""
            if state.chaos is None or path in ("/healthz", "/readyz"):
                return False
            mode = state.chaos.fire("handler", path)
            if mode is None:
                return False
            self._error(
                500, "InjectedFault",
                f"chaos: injected handler exception on {path}",
            )
            return True

        # ---- routes --------------------------------------------------

        def do_GET(self) -> None:  # noqa: N802 - stdlib naming
            try:
                url = urlsplit(self.path)
                if self._chaos_handler_fault(url.path):
                    return
                parts = [part for part in url.path.split("/") if part]
                if not parts or parts == ["about"]:
                    self._send(200, _manifest())
                elif parts == ["healthz"]:
                    self._send(200, {"status": "ok"})
                elif parts == ["readyz"]:
                    if state.draining:
                        self._send(503, {"status": "draining"})
                    else:
                        self._send(200, {"status": "ready"})
                elif parts == ["stats"]:
                    payload = store.stats()
                    if state.limiter is not None:
                        payload["throttled"] = state.limiter.throttled
                    payload["connections"] = self.server.connections
                    if state.chaos is not None:
                        payload["chaos"] = state.chaos.log.as_dict()
                        payload["chaos"].pop("events", None)  # counters only
                    self._send(200, payload)
                elif len(parts) == 2 and parts[0] == "jobs":
                    self._get_job(parts[1], url.query)
                elif len(parts) == 2 and parts[0] == "results":
                    self._get_result(parts[1])
                else:
                    self._error(404, "NotFound", f"unknown path {url.path!r}")
            except BrokenPipeError:
                pass  # client hung up mid-response
            except Exception as exc:  # never leak a traceback to the wire
                self.close_connection = True  # the stream may be mid-response
                self._error(500, type(exc).__name__, str(exc))

        def do_POST(self) -> None:  # noqa: N802 - stdlib naming
            self.body_pending = True
            try:
                url = urlsplit(self.path)
                if url.path.rstrip("/") != "/jobs":
                    self._error(404, "NotFound", f"unknown path {url.path!r}")
                    return
                if self._chaos_handler_fault(url.path):
                    return
                if state.draining:
                    self._error(
                        503, "ServerError",
                        "server is draining for shutdown and accepts no new "
                        "submissions",
                    )
                    return
                if state.limiter is not None:
                    allowed, retry_after = state.limiter.allow(
                        self.client_address[0]
                    )
                    if not allowed:
                        if retry_after > 0:
                            self._error(
                                429, "ServerError",
                                "rate limit exceeded; retry after "
                                f"{retry_after:.2f}s",
                                {"Retry-After": f"{max(1, int(retry_after + 0.999))}"},
                            )
                        else:
                            self._error(
                                429, "ServerError",
                                "client quota exhausted on this server",
                                {"Retry-After": "3600"},
                            )
                        return
                document = self._read_document()
                if document is None:
                    return
                try:
                    # Checked before submitting, so a bad value makes no job.
                    wait = self._wait_seconds(url.query)
                    kind, scenarios = scenarios_from_document(document)
                    job = store.submit(scenarios, kind=kind)
                except ConfigurationError as exc:
                    self._error(400, "ConfigurationError", str(exc))
                    return
                except ServerError as exc:
                    self._error(503, "ServerError", str(exc))
                    return
                self._send_job(job, wait)
            except BrokenPipeError:
                pass
            except Exception as exc:
                self.close_connection = True
                self._error(500, type(exc).__name__, str(exc))

        def _get_job(self, job_id: str, query: str) -> None:
            job = store.get(job_id)
            if job is None:
                self._error(404, "NotFound", f"no job {job_id!r}")
                return
            try:
                wait = self._wait_seconds(query)
            except ConfigurationError as exc:
                self._error(400, "ConfigurationError", str(exc))
                return
            self._send_job(job, wait)

        def _wait_seconds(self, query: str) -> Optional[float]:
            """The ``?wait=`` long-poll of a request, capped at
            :data:`MAX_WAIT_SECONDS` and the request deadline; ``None``
            when the query has none."""
            values = parse_qs(query).get("wait")
            if not values:
                return None
            try:
                wait = float(values[-1])
            except ValueError:
                raise ConfigurationError(
                    f"'wait' must be a number of seconds, got {values[-1]!r}"
                ) from None
            ceiling = MAX_WAIT_SECONDS
            if state.request_deadline is not None:
                ceiling = min(ceiling, state.request_deadline)
            return min(max(0.0, wait), ceiling)

        def _send_job(self, job, wait: Optional[float]) -> None:
            """Answer with ``job``'s snapshot, after long-polling up to
            ``wait`` seconds for it to finish."""
            if wait is not None:
                job.wait(wait)
            self._send(200, job.to_json(cache=store.cache.stats()))

        def _get_result(self, key: str) -> None:
            text = store.cache.peek(key)
            if text is None:
                self._error(404, "NotFound", f"no cached result for key {key!r}")
                return
            self._send(200, codec.splice({"key": key}, "result", text))

    def _manifest() -> Dict[str, Any]:
        return {
            "service": "repro-serve",
            "version": repro.__version__,
            "protocols": available_protocols(),
            "endpoints": [
                "POST /jobs[?wait=SECONDS]",
                "GET /jobs/<id>[?wait=SECONDS]",
                "GET /results/<cache-key>",
                "GET /stats",
                "GET /healthz",
                "GET /readyz",
            ],
        }

    return Handler


class ReproServer:
    """A live ``repro serve`` instance: threading HTTP server + job store.

    ``port=0`` binds an ephemeral port (tests); :attr:`url` reports the
    concrete address either way.  ``start()`` serves from a daemon
    thread (in-process use), ``serve_forever()`` blocks (the CLI).

    Hardening knobs: ``max_body_bytes`` caps submission bodies (413),
    ``rate_limit``/``rate_burst``/``client_quota`` throttle per-client
    submissions (429 + ``Retry-After``), ``request_deadline`` bounds how
    long any single request may hold a handler thread, ``retries`` /
    ``retry_backoff`` configure worker-crash retry, and ``chaos`` (a
    spec string/dict or a live :class:`~repro.chaos.ChaosInjector`)
    injects deterministic faults for testing.  :meth:`shutdown` drains
    gracefully and returns the drain report.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        cache: Optional[ResultCache] = None,
        cache_entries: Optional[int] = None,
        cache_path=None,
        job_workers: int = 4,
        run_workers: Optional[int] = None,
        max_body_bytes: int = MAX_BODY_BYTES,
        rate_limit: Optional[float] = None,
        rate_burst: Optional[int] = None,
        client_quota: Optional[int] = None,
        request_deadline: Optional[float] = None,
        retries: int = 3,
        retry_backoff: float = 0.05,
        chaos=None,
    ):
        if (
            isinstance(max_body_bytes, bool)
            or not isinstance(max_body_bytes, int)
            or max_body_bytes < 1
        ):
            raise ConfigurationError(
                f"max_body_bytes must be a positive integer, got "
                f"{max_body_bytes!r}"
            )
        if request_deadline is not None and (
            isinstance(request_deadline, bool)
            or not isinstance(request_deadline, (int, float))
            or request_deadline <= 0
        ):
            raise ConfigurationError(
                f"request_deadline must be a positive number of seconds or "
                f"None, got {request_deadline!r}"
            )
        self.chaos = chaos_from_spec(chaos)
        if cache is None:
            cache = ResultCache(
                max_entries=cache_entries, path=cache_path, chaos=self.chaos
            )
        elif self.chaos is not None and getattr(cache, "_chaos", None) is None:
            cache._chaos = self.chaos
        limiter = None
        if rate_limit is not None or client_quota is not None:
            limiter = RateLimiter(
                rate_limit if rate_limit is not None else 1_000_000.0,
                rate_burst,
                quota=client_quota,
            )
        self.store = JobStore(
            cache=cache,
            job_workers=job_workers,
            run_workers=run_workers,
            retries=retries,
            retry_backoff=retry_backoff,
            chaos=self.chaos,
        )
        self._state = _ServerState(
            max_body_bytes=max_body_bytes,
            request_deadline=request_deadline,
            limiter=limiter,
            chaos=self.chaos,
        )
        self.drain_report: Optional[Dict[str, Any]] = None
        try:
            self._http = _ThreadingServer(
                (host, port), _make_handler(self.store, self._state)
            )
        except OSError as exc:
            raise ConfigurationError(
                f"cannot bind repro serve to {host}:{port}: {exc}"
            ) from exc
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        return self._state.draining

    def start(self) -> "ReproServer":
        """Serve from a background daemon thread; returns self."""
        self._thread = threading.Thread(
            target=self._http.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._http.serve_forever()

    def shutdown(self) -> Dict[str, Any]:
        """Graceful drain, then stop serving.  Idempotent.

        1. flip ``readyz`` to 503 and refuse new submissions;
        2. finish (or quarantine) every in-flight execution and resolve
           stragglers with typed errors, so blocked long-polls return
           promptly instead of timing out;
        3. stop the accept loop, close the keep-alive connections that
           sit idle (a busy one closes after its in-flight response)
           and close the listening socket;
        4. return the drain report (``leaked_keys``/``leaked_jobs`` are
           empty on a clean drain; completed work is already journaled -
           cache appends flush per write).
        """
        if self.drain_report is not None:
            return self.drain_report
        self._state.draining = True
        report = self.store.drain()
        self._http.shutdown()
        self._http.close_idle()
        self._http.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self.chaos is not None:
            report["chaos"] = self.chaos.log.as_dict()
        self.drain_report = report
        return report

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def serve(
    host: str = "127.0.0.1",
    port: int = 8123,
    **kwargs,
) -> ReproServer:
    """Construct a :class:`ReproServer` (not yet serving); the CLI's
    entry point."""
    return ReproServer(host, port, **kwargs)


__all__ = [
    "IDLE_TIMEOUT_SECONDS",
    "MAX_BODY_BYTES",
    "MAX_WAIT_SECONDS",
    "RateLimiter",
    "ReproServer",
    "serve",
]
