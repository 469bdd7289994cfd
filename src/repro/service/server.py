"""The verification daemon: HTTP front end, admission control, drain.

``repro serve`` boots a :class:`VerificationService` — a resident process
that answers equivalence checks over HTTP so repeated queries amortise
GF-table construction, the canonical-polynomial cache, and parsing
infrastructure across requests instead of paying process start-up per
check. Endpoints:

``POST /v1/verify``, ``POST /v1/abstract``, ``POST /v1/reveng``
    Submit a job (netlists inline as ``spec_text``/``impl_text``/
    ``netlist_text``; field as ``k`` + optional ``modulus``). Answers
    ``202`` with a job id — or ``200`` with the id of an *identical
    in-flight job* (request-level dedup), ``400`` on malformed input,
    ``429`` + ``Retry-After`` when the bounded queue is full, ``503``
    while draining. Reveng submissions select an engine via ``mode``:
    ``"poly"`` (recover an unknown field polynomial; optional degree
    ``m``) or ``"func"`` (identify the function over a known field;
    requires ``k``).
``GET /v1/jobs/{id}``
    Poll a job; ``?wait=SECONDS`` long-polls until the job is terminal.
``GET /healthz``
    Liveness + build info (version, uptime, worker/queue state).
``GET /readyz``
    ``200`` while accepting work, ``503`` once draining begins.
``GET /metrics``
    Prometheus text exposition of the :mod:`repro.obs` counters/gauges
    plus point-in-time queue depth and job-state counts.

SIGTERM/SIGINT starts a graceful drain: admission stops (readyz flips),
queued and running jobs finish within ``drain_timeout``, leftovers are
marked ``cancelled``, and the process exits 0 — the contract the CI
service-smoke job enforces.
"""

from __future__ import annotations

import hashlib
import json
import logging
import signal
import socket
import threading
import time
from dataclasses import dataclass, field as dataclass_field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .. import __version__, obs
from ..obs import metrics, render_prometheus
from .queue import BoundedJobQueue, QueueClosed, QueueFull
from .scheduler import Scheduler
from .store import JobRecord, JobStore

__all__ = ["ServiceConfig", "VerificationService", "request_key", "serve"]

logger = logging.getLogger("repro.service")

#: Fields of a submission that define *what is computed* — the request key
#: hashes exactly these, so cosmetic fields (priority, timeout) never split
#: identical work into separate jobs.
_KEYED_FIELDS = (
    "k",
    "modulus",
    "case2",
    "jobs",
    "output_word",
    "spec",
    "impl",
    "netlist",
    "spec_text",
    "impl_text",
    "netlist_text",
    # reveng-only knobs: engine mode, sweep degree and termination policy
    # all change what is computed, so they participate in dedup keys.
    "mode",
    "m",
    "spec_form",
    "forms",
    "all",
    "limit",
    # The prepass changes no verdict (Cor. 4.1: canonical polynomials are
    # prepass-invariant) but it is still keyed: a client explicitly asking
    # for a raw-netlist run must not be answered by a prepassed job's
    # record, whose stats/phases differ.
    "prepass",
)

_TEXT_OR_PATH = {
    "verify": (("spec", "spec_text"), ("impl", "impl_text")),
    "abstract": (("netlist", "netlist_text"),),
    "reveng": (("netlist", "netlist_text"),),
}


class RequestError(Exception):
    """Client-side error: becomes an HTTP 4xx with a JSON body."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def request_key(kind: str, params: Dict) -> str:
    """Content hash identifying what a submission computes.

    Two submissions with the same kind, field, engine knobs and netlist
    bodies get the same key; the store uses it to coalesce duplicate
    in-flight requests onto one job.
    """
    keyed = {k: params[k] for k in _KEYED_FIELDS if params.get(k) is not None}
    blob = json.dumps({"kind": kind, **keyed}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _validate_submission(kind: str, body: Dict) -> Tuple[Dict, int, Optional[float]]:
    """Check a submission body; returns (executor params, priority, timeout)."""
    if not isinstance(body, dict):
        raise RequestError(400, "request body must be a JSON object")
    mode: Optional[str] = None
    if kind == "reveng":
        mode = str(body.get("mode", "poly"))
        if mode not in ("poly", "func"):
            raise RequestError(
                400, f"field 'mode' must be 'poly' or 'func', got {mode!r}"
            )
    # A polynomial-recovery sweep is the one submission with no field size:
    # the modulus is the unknown. It takes an optional degree 'm' instead.
    k: Optional[int] = None
    k_required = kind != "reveng" or mode == "func"
    if k_required and "k" not in body:
        raise RequestError(400, "missing required field 'k'")
    if "k" in body:
        try:
            k = int(body["k"])
        except (TypeError, ValueError):
            raise RequestError(400, f"field 'k' must be an integer, got {body['k']!r}")
        if k < 1:
            raise RequestError(400, f"field 'k' must be >= 1, got {k}")
    if body.get("m") is not None:
        try:
            degree = int(body["m"])
        except (TypeError, ValueError):
            raise RequestError(400, f"field 'm' must be an integer, got {body['m']!r}")
        if degree < 2:
            raise RequestError(400, f"field 'm' must be >= 2, got {degree}")

    for path_key, text_key in _TEXT_OR_PATH[kind]:
        if body.get(path_key) is None and body.get(text_key) is None:
            raise RequestError(
                400, f"missing netlist: provide '{text_key}' (inline body) "
                f"or '{path_key}' (path on the server host)"
            )

    try:
        priority = int(body.get("priority", 5))
    except (TypeError, ValueError):
        raise RequestError(400, f"invalid priority {body.get('priority')!r}")
    if not 0 <= priority <= 9:
        raise RequestError(400, f"priority must be in [0, 9], got {priority}")

    timeout: Optional[float] = None
    if body.get("timeout") is not None:
        try:
            timeout = float(body["timeout"])
        except (TypeError, ValueError):
            raise RequestError(400, f"invalid timeout {body.get('timeout')!r}")
        if timeout <= 0:
            raise RequestError(400, f"timeout must be > 0, got {timeout}")

    allowed = {
        "k", "modulus", "case2", "jobs", "output_word", "prepass",
        "spec", "impl", "netlist", "spec_text", "impl_text", "netlist_text",
    }
    if kind == "reveng":
        allowed |= {"mode", "m", "spec_form", "forms", "all", "limit"}
    params = {key: body[key] for key in allowed if body.get(key) is not None}
    if k is not None:
        params["k"] = k
    if mode is not None:
        params["mode"] = mode
    return params, priority, timeout


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = 8014
    workers: int = 2
    #: ``"plane"`` runs job bodies on the resident worker plane (process
    #: isolation, true parallelism); ``"inline"`` keeps them on the
    #: dispatcher threads (the pre-plane behaviour).
    dispatch: str = "plane"
    #: ``"I/N"`` when this daemon is shard I of an N-shard cluster behind
    #: ``repro route`` — surfaced on /healthz and /metrics so the router
    #: and operators can tell shards apart. None for a standalone daemon.
    shard_of: Optional[str] = None
    queue_capacity: int = 64
    cache_dir: Optional[str] = None
    retain: int = 1024
    drain_timeout: float = 30.0
    max_request_bytes: int = 32 * 1024 * 1024
    max_spans: int = 20000
    seed: Optional[int] = None
    #: Fitted cost model (``repro costmodel fit`` output) priming the
    #: Retry-After estimator's cold-start predictions.
    cost_model: Optional[str] = None
    #: Capacity of the in-memory REDTRACE flight recorder (ring mode);
    #: 0 disables it. It exists so ``trace.*`` metrics reflect live
    #: engine traffic on ``/metrics`` — it is not a replayable artifact.
    trace_ring: int = 20000
    #: ``(k, modulus)`` pairs whose GF tables are built before the first
    #: request (modulus None = the NIST default for that k).
    prewarm: List[Tuple[int, Optional[int]]] = dataclass_field(default_factory=list)
    #: When set, the bound address is written here as ``host:port`` once
    #: listening — the handshake for tests and scripts using port 0.
    port_file: Optional[str] = None


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the owning :class:`VerificationService`."""

    server_version = f"repro/{__version__}"
    protocol_version = "HTTP/1.1"  # keep-alive, so clients reuse connections

    def version_string(self) -> str:
        return self.server_version  # no Python version fingerprint

    @property
    def service(self) -> "VerificationService":
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.debug("%s %s", self.address_string(), format % args)

    # -- plumbing ------------------------------------------------------------

    def _send_json(self, status: int, doc: Dict, headers: Optional[Dict] = None):
        payload = json.dumps(doc, default=str).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def _send_text(self, status: int, text: str, content_type: str = "text/plain"):
        payload = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", f"{content_type}; charset=utf-8")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _read_body(self) -> Dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise RequestError(400, "missing request body")
        if length > self.service.config.max_request_bytes:
            raise RequestError(
                413,
                f"request body {length} bytes exceeds the "
                f"{self.service.config.max_request_bytes} byte limit",
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise RequestError(400, f"invalid JSON body: {exc}")

    # -- routes --------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        path = urlparse(self.path).path
        try:
            if path == "/v1/verify":
                self._submit("verify")
            elif path == "/v1/abstract":
                self._submit("abstract")
            elif path == "/v1/reveng":
                self._submit("reveng")
            else:
                self._send_json(404, {"error": f"no such endpoint: {path}"})
        except RequestError as exc:
            self._send_json(exc.status, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 — handler must answer
            logger.exception("unhandled error serving POST %s", path)
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    def do_GET(self) -> None:  # noqa: N802
        parsed = urlparse(self.path)
        path = parsed.path
        try:
            if path.startswith("/v1/jobs/"):
                self._get_job(path[len("/v1/jobs/"):], parse_qs(parsed.query))
            elif path == "/healthz":
                self._send_json(200, self.service.health())
            elif path == "/readyz":
                if self.service.accepting:
                    self._send_text(200, "ready\n")
                else:
                    self._send_text(503, "draining\n")
            elif path == "/metrics":
                self._send_text(200, self.service.render_metrics())
            else:
                self._send_json(404, {"error": f"no such endpoint: {path}"})
        except RequestError as exc:
            self._send_json(exc.status, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001
            logger.exception("unhandled error serving GET %s", path)
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _submit(self, kind: str) -> None:
        body = self._read_body()
        params, priority, timeout = _validate_submission(kind, body)
        outcome, record = self.service.submit(kind, params, priority, timeout)
        doc = {"job": record.to_json()} if record is not None else {}
        if outcome == "accepted":
            self._send_json(202, {"id": record.id, "status": record.status, **doc})
        elif outcome == "coalesced":
            self._send_json(
                200,
                {"id": record.id, "status": record.status, "coalesced": True, **doc},
            )
        elif outcome == "queue_full":
            retry_after = self.service.scheduler.retry_after_hint()
            self._send_json(
                429,
                {"error": "verification queue is full", "retry_after": retry_after},
                headers={"Retry-After": str(retry_after)},
            )
        else:  # draining
            self._send_json(
                503,
                {"error": "service is draining and no longer accepts work"},
                headers={"Retry-After": "30"},
            )

    def _get_job(self, job_id: str, query: Dict) -> None:
        wait = 0.0
        if "wait" in query:
            try:
                wait = min(float(query["wait"][0]), 300.0)
            except (TypeError, ValueError):
                raise RequestError(400, f"invalid wait value {query['wait'][0]!r}")
        if wait > 0:
            record = self.service.store.wait(job_id, wait)
        else:
            record = self.service.store.get(job_id)
        if record is None:
            self._send_json(404, {"error": f"unknown job id {job_id!r}"})
        else:
            self._send_json(200, record.to_json())


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service: "VerificationService"):
        self.service = service
        super().__init__(address, _Handler)


class VerificationService:
    """The daemon: HTTP server + bounded queue + scheduler + job store."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.store = JobStore(retain=self.config.retain)
        self.queue = BoundedJobQueue(self.config.queue_capacity)
        self.scheduler = Scheduler(
            self.queue,
            self.store,
            workers=self.config.workers,
            cache_dir=self.config.cache_dir,
            seed=self.config.seed,
            cost_model_path=self.config.cost_model,
            dispatch=self.config.dispatch,
        )
        self._httpd: Optional[_Server] = None
        self._http_thread: Optional[threading.Thread] = None
        self._started = time.time()
        self._accepting = True
        self._stop = threading.Event()
        self._previous_collector = None
        self._recorder = None
        self._admission = threading.Lock()

    # -- state ---------------------------------------------------------------

    @property
    def accepting(self) -> bool:
        return self._accepting and not self._stop.is_set()

    @property
    def address(self) -> Tuple[str, int]:
        if self._httpd is None:
            raise RuntimeError("service is not started")
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    # -- admission -----------------------------------------------------------

    def submit(
        self,
        kind: str,
        params: Dict,
        priority: int = 5,
        timeout: Optional[float] = None,
    ) -> Tuple[str, Optional[JobRecord]]:
        """Admit one job. Returns ``(outcome, record)`` where outcome is
        ``accepted`` | ``coalesced`` | ``queue_full`` | ``draining``."""
        metrics.counter_add(metrics.SERVICE_REQUESTS, 1)
        if not self.accepting:
            metrics.counter_add(metrics.SERVICE_REQUESTS_REJECTED, 1)
            return "draining", None

        key = request_key(kind, params)
        with self._admission:
            existing = self.store.find_inflight(key)
            if existing is not None:
                self.store.note_coalesced(existing)
                metrics.counter_add(metrics.SERVICE_REQUESTS_DEDUPLICATED, 1)
                return "coalesced", existing

            record = JobRecord(
                kind=kind,
                params=params,
                request_key=key,
                priority=priority,
                timeout=timeout,
            )
            self.store.add(record)
            try:
                self.queue.put(record, priority=priority)
            except QueueFull:
                self.store.remove(record.id)
                metrics.counter_add(metrics.SERVICE_REQUESTS_REJECTED, 1)
                return "queue_full", None
            except QueueClosed:
                self.store.remove(record.id)
                metrics.counter_add(metrics.SERVICE_REQUESTS_REJECTED, 1)
                return "draining", None
        metrics.gauge_max(metrics.SERVICE_QUEUE_DEPTH_PEAK, self.queue.peak_depth)
        self.scheduler.warm_for_params(params)
        return "accepted", record

    # -- introspection -------------------------------------------------------

    def health(self) -> Dict:
        doc = {
            "status": "ok",
            "version": __version__,
            "uptime_seconds": round(time.time() - self._started, 1),
            "accepting": self.accepting,
            "workers": self.scheduler.alive_workers,
            "dispatch": self.config.dispatch,
            "queue_depth": self.queue.depth(),
            "queue_capacity": self.queue.capacity,
            "jobs": self.store.counts(),
            "inflight_abstractions": self.scheduler.inflight.in_flight(),
        }
        if self.config.shard_of:
            doc["shard"] = self.config.shard_of
        return doc

    def render_metrics(self) -> str:
        collector = obs.active_collector()
        snapshot = collector.snapshot() if collector is not None else {}
        counts = self.store.counts()
        extra = {
            "service.queue_depth": self.queue.depth(),
            "service.queue_capacity": self.queue.capacity,
            "service.uptime_seconds": round(time.time() - self._started, 1),
            "service.workers_alive": self.scheduler.alive_workers,
            "service.jobs_queued": counts.get("queued", 0),
            "service.jobs_running": counts.get("running", 0),
        }
        if self._recorder is not None:
            extra["trace.buffered_events"] = self._recorder.buffered()
        body = render_prometheus(snapshot, extra_gauges=extra)
        if self.config.shard_of:
            body += (
                "# TYPE repro_shard_info gauge\n"
                f'repro_shard_info{{shard="{self.config.shard_of}"}} 1\n'
            )
        return body

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind, start workers and the HTTP thread; returns (host, port)."""
        self._previous_collector = obs.active_collector()
        obs.enable(obs.TraceCollector(max_spans=self.config.max_spans))
        if self.config.trace_ring > 0 and obs.redtrace.active_writer() is None:
            # Bounded flight recorder: keeps trace.* metrics live on
            # /metrics for the daemon's lifetime without unbounded memory.
            self._recorder = obs.redtrace.start_recording(
                op="service",
                params={"workers": self.config.workers},
                ring=True,
                max_events=self.config.trace_ring,
            )
        if self.config.prewarm:
            warmed = self.scheduler.prewarm(self.config.prewarm)
            logger.info("prewarmed GF tables for %d field(s)", warmed)
        self.scheduler.start()
        self._httpd = _Server((self.config.host, self.config.port), self)
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.2},
            name="repro-service-http",
            daemon=True,
        )
        self._http_thread.start()
        host, port = self.address
        if self.config.port_file:
            with open(self.config.port_file, "w") as handle:
                handle.write(f"{host}:{port}\n")
        logger.info(
            "repro %s serving on %s:%d (%d workers, queue %d)",
            __version__, host, port, self.config.workers,
            self.config.queue_capacity,
        )
        return host, port

    def stop(self) -> int:
        """Graceful drain: stop admission, finish work, stop HTTP.

        Returns the number of jobs cancelled undone. Idempotent.
        """
        if self._stop.is_set():
            return 0
        self._accepting = False
        self._stop.set()
        logger.info("drain: admission stopped, finishing queued work")
        cancelled = self.scheduler.drain(timeout=self.config.drain_timeout)
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        if self._http_thread is not None:
            self._http_thread.join(timeout=5.0)
        if self._recorder is not None:
            obs.redtrace.stop_recording()
            self._recorder = None
        obs.disable()
        if self._previous_collector is not None:
            obs.enable(self._previous_collector)
        logger.info("drain complete (%d job(s) cancelled)", cancelled)
        return cancelled

    def run_until_signal(self) -> int:
        """Block until SIGTERM/SIGINT, then drain. Returns an exit status."""
        def _handle(signum, frame):  # noqa: ARG001 — signal API
            logger.info("received %s, draining", signal.Signals(signum).name)
            self._accepting = False
            self._stop.set()

        previous = {
            sig: signal.signal(sig, _handle)
            for sig in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            self._stop.wait()
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
        self._stop.clear()  # let stop() run its drain exactly once
        self.stop()
        return 0


def serve(config: ServiceConfig) -> int:
    """Boot a service and run it until signalled (the ``repro serve`` body)."""
    service = VerificationService(config)
    try:
        service.start()
    except (OSError, socket.error) as exc:
        logger.error("cannot bind %s:%d: %s", config.host, config.port, exc)
        return 2
    return service.run_until_signal()
