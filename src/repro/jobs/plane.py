"""Resident worker plane: pre-forked, GF-table-warm processes fed over pipes.

:meth:`WorkerPlane.map` runs ``fn(context, index)`` tasks in worker
processes that stay alive for the life of the host process; the service
scheduler runs every job body through it (:func:`get_plane`), so a job
that crashes or is OOM-killed takes down a respawnable worker, not the
daemon, and no job pays a ``fork + GF warm`` of its own:

- **pre-forked, reused workers** — forked once (lazily, on first map, or
  on demand when concurrent maps need more), each holding a duplex pipe to
  the parent. A map *checks out* up to N workers, feeds them one task at a
  time, and releases them; two threads can run maps concurrently on
  disjoint workers — there is no module-global context and no global lock.
- **epoch-tagged context** — the task context (callable + data + field
  key + tracing flag) is pickled once per map, content-hashed, and
  published to a worker only when the worker does not already hold that
  exact context. Tasks on the wire are packed id chunks tagged
  ``(epoch, seq)``; a worker holding a different epoch refuses the chunk
  with a ``stale`` reply instead of computing against the wrong context.
- **GF-table warm on publish** — the worker warms the context's
  ``(k, modulus)`` tables when it accepts the context, then reports
  ``table_builds`` deltas per task, so callers can assert no mid-map
  rebuilds.
- **crash containment** — a worker that dies mid-task (OOM-kill, SIGKILL,
  segfault) is detected by the pipe going dead; the plane respawns a
  replacement, republishes the context and requeues the in-flight task,
  up to a per-task attempt budget. Deterministic task exceptions are not
  retried — they surface immediately as :class:`PoolError`.
- **map deadlines** — a wall-clock budget for the whole map; on expiry the
  workers still busy are killed (their results will never be read) and the
  map fails with a ``PoolError`` whose message names ``TimeoutError``.

Every failure surfaces as :class:`PoolError` — including a context that
cannot be pickled (closures over live objects), which never reaches a
worker — so callers with an inline fallback catch just that one type.

Workers die with their host. An orderly exit shuts them down
(:func:`reset_plane` runs at exit); a host killed outright (SIGKILL) never
gets to, and a forked worker may still hold pipe ends that keep its own
pipe from reporting EOF, so an idle worker also checks every
:data:`_HOST_CHECK_SECONDS` that its parent is still the host that forked
it, and exits when it is not. Workers are daemonic, so they can never fork
children of their own; a daemonic process asking for a plane gets
:class:`PoolError`.
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import logging
import multiprocessing
import os
import pickle
import signal
import threading
import time
from collections import deque
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..gf import logtables
from ..obs import metrics

__all__ = [
    "PoolError",
    "PoolResult",
    "WorkerPlane",
    "get_plane",
    "plane_cap",
]

logger = logging.getLogger("repro.jobs")

#: How often an idle worker checks that its host is still alive.
_HOST_CHECK_SECONDS = 1.0

#: How long `checkout` waits for a free worker before giving up. Maps hold
#: workers only while computing, so a long wait means the plane is wedged;
#: failing lets the caller take its inline fallback.
_CHECKOUT_TIMEOUT = float(os.environ.get("REPRO_PLANE_CHECKOUT_TIMEOUT", "30"))


class PoolError(RuntimeError):
    """The plane could not complete the map (timeout, crashes, no workers)."""


class PoolResult:
    """One task's outcome: index, payload, worker stats, optional telemetry.

    ``snapshot`` is the worker's full trace-collector snapshot (spans +
    counters + gauges) when the map ran with tracing, else ``None``;
    ``spans`` is the spans-only view.
    """

    __slots__ = ("index", "payload", "stats", "snapshot")

    def __init__(
        self,
        index: int,
        payload: Any,
        stats: Dict,
        snapshot: Optional[Dict] = None,
    ):
        self.index = index
        self.payload = payload
        self.stats = stats
        self.snapshot = snapshot

    @property
    def spans(self) -> Optional[List]:
        return self.snapshot["spans"] if self.snapshot else None


def plane_cap() -> int:
    """Max resident workers (``REPRO_PLANE_MAX_WORKERS``, default
    ``max(4, 2 * cpu_count)``) — generous enough for two concurrent maps of
    two workers each even on a single-CPU box."""
    raw = os.environ.get("REPRO_PLANE_MAX_WORKERS")
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return max(4, 2 * (os.cpu_count() or 1))


# -- worker side --------------------------------------------------------------


def _worker_main(conn, parent_end, host_pid: int) -> None:
    """Worker loop: receive context publishes and tasks, send results.

    Runs in a freshly forked daemonic child. The parent's tracing state and
    REDTRACE writer survive the fork, so the first act is to neutralise
    them — workers never write trace events. ``parent_end`` is the host's
    end of this worker's pipe, inherited through the fork and closed here;
    the loop exits on EOF, on ``exit``, or once ``host_pid`` is no longer
    the parent (the host died without shutting the plane down).
    """
    # A parent hosting the plane may have custom SIGTERM/SIGINT handlers
    # (the service daemon's graceful-drain hook, for one). Inherited through
    # the fork they would swallow the terminate() that multiprocessing's
    # exit handler sends daemonic children, deadlocking the parent's exit.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    obs.disable()
    obs.reset_context()
    obs.redtrace.reset_after_fork()
    parent_end.close()
    ctx_fn: Optional[Callable[[Any, int], Tuple[Any, Dict]]] = None
    ctx_data: Any = None
    ctx_epoch = -1
    tracing = False
    warm_builds = 0
    while True:
        try:
            if not conn.poll(_HOST_CHECK_SECONDS):
                if os.getppid() != host_pid:
                    break
                continue
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "ctx":
            _, epoch, blob = message
            try:
                ctx_fn, ctx_data, field_key, tracing = pickle.loads(blob)
                if field_key is not None:
                    logtables.warm(*field_key)
                ctx_epoch = epoch
                warm_builds = logtables.table_builds()
                conn.send(("ctx_ok", epoch))
            except Exception as exc:  # noqa: BLE001 — reported to the parent
                ctx_epoch = -1
                conn.send(("ctx_err", epoch, f"{type(exc).__name__}: {exc}"))
        elif kind == "task":
            # One message carries a *chunk* of packed task ids: round-trip
            # latency amortises across the chunk while the one-in-flight-
            # chunk-per-worker rule keeps dynamic load balancing.
            _, epoch, seq, chunk = message
            if epoch != ctx_epoch or ctx_fn is None:
                conn.send(("stale", seq, ctx_epoch))
                continue
            outputs = []
            collector = None
            index = None
            try:
                if tracing:
                    collector = obs.TraceCollector()
                    obs.enable(collector)
                try:
                    for index in chunk:
                        started = time.perf_counter()
                        payload, stats = ctx_fn(ctx_data, index)
                        stats = dict(stats)
                        stats["seconds"] = time.perf_counter() - started
                        stats["pid"] = os.getpid()
                        # Rebuilds since the context warm, not since task
                        # start: a task that triggers a lazy build keeps
                        # every later task in this worker loud about it.
                        stats["table_rebuilds"] = (
                            logtables.table_builds() - warm_builds
                        )
                        outputs.append((index, payload, stats))
                finally:
                    if collector is not None:
                        obs.disable()
                snapshot = collector.snapshot() if collector is not None else None
                conn.send(("ok", seq, outputs, snapshot))
            except Exception as exc:  # noqa: BLE001 — deterministic, no retry
                conn.send(("err", seq, index, f"{type(exc).__name__}: {exc}"))
        elif kind == "ping":
            conn.send(("pong", message[1]))
        elif kind == "exit":
            break
    try:
        conn.close()
    except OSError:
        pass


# -- parent side --------------------------------------------------------------


class _Worker:
    """Parent-side handle: process, pipe, and the context it holds."""

    __slots__ = ("process", "conn", "held", "wid")

    def __init__(self, process, conn, wid: int):
        self.process = process
        self.conn = conn
        self.wid = wid
        self.held: Optional[Tuple[str, int]] = None  # (ctx key, epoch)

    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        try:
            self.process.kill()
        except (OSError, AttributeError):
            try:
                self.process.terminate()
            except OSError:
                pass
        self.process.join(timeout=2.0)
        try:
            self.conn.close()
        except OSError:
            pass


class WorkerPlane:
    """A resident pool of forked workers shared by every map in the process.

    Thread-safe: concurrent :meth:`map` calls check out disjoint workers
    and run fully in parallel.
    """

    def __init__(self, max_workers: Optional[int] = None):
        self._max = max_workers or plane_cap()
        self._cond = threading.Condition()
        self._workers: List[_Worker] = []   # every live worker
        self._free: List[_Worker] = []      # subset not checked out
        self._epoch = itertools.count(1)
        self._ctx: Optional[Tuple[str, int, bytes]] = None  # (key, epoch, blob)
        self._wid = itertools.count(1)
        self._closed = False
        self._pid = os.getpid()
        self._mp = multiprocessing.get_context("fork")

    # -- introspection -------------------------------------------------------

    @property
    def workers_alive(self) -> int:
        with self._cond:
            return sum(1 for w in self._workers if w.alive())

    # -- lifecycle -----------------------------------------------------------

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop accepting maps, wait for checked-out workers, exit them all.

        Workers still busy past ``timeout`` are killed — they are daemonic,
        so this only accelerates what interpreter exit would do anyway.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            self._closed = True
            self._cond.notify_all()
            while len(self._free) < len(self._workers):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            workers, self._workers, self._free = self._workers, [], []
        for worker in workers:
            if worker.alive():
                try:
                    worker.conn.send(("exit",))
                except (OSError, BrokenPipeError):
                    pass
        for worker in workers:
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.alive():
                worker.kill()
            try:
                worker.conn.close()
            except OSError:
                pass

    def _spawn_locked(self) -> _Worker:
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        process = self._mp.Process(
            target=_worker_main,
            args=(child_conn, parent_conn, os.getpid()),
            name=f"repro-plane-{next(self._wid)}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker = _Worker(process, parent_conn, process.pid or 0)
        self._workers.append(worker)
        metrics.counter_add(metrics.PLANE_WORKERS_SPAWNED, 1)
        return worker

    # -- checkout ------------------------------------------------------------

    def _checkout(
        self, want: int, key: str, timeout: float = _CHECKOUT_TIMEOUT
    ) -> List[_Worker]:
        """Acquire 1..want workers, preferring ones already holding ``key``.

        Returns as soon as at least one worker is available (more join the
        map only if free *now*); waits when the plane is fully checked out,
        and raises :class:`PoolError` if nothing frees up within
        ``timeout`` — the caller's inline fallback beats a wedged wait.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                if self._closed:
                    raise PoolError("worker plane is shut down")
                # Cull silently-dead free workers before handing them out.
                self._free = [w for w in self._free if w.alive()]
                self._workers = [w for w in self._workers if w.alive()]
                affine = [w for w in self._free if w.held and w.held[0] == key]
                others = [w for w in self._free if not (w.held and w.held[0] == key)]
                granted = (affine + others)[:want]
                for worker in granted:
                    self._free.remove(worker)
                while len(granted) < want and len(self._workers) < self._max:
                    granted.append(self._spawn_locked())
                if granted:
                    return granted
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise PoolError(
                        f"no plane workers became available within {timeout:.0f}s "
                        f"({len(self._workers)} checked out)"
                    )
                self._cond.wait(remaining)

    def _release(self, workers: Sequence[_Worker]) -> None:
        with self._cond:
            for worker in workers:
                if worker in self._workers and worker.alive():
                    self._free.append(worker)
            self._cond.notify_all()

    def _discard(self, worker: _Worker) -> None:
        """Drop a dead worker from the books (caller holds no lock)."""
        with self._cond:
            if worker in self._workers:
                self._workers.remove(worker)
            if worker in self._free:
                self._free.remove(worker)
            self._cond.notify_all()

    def _replace(self, dead: _Worker) -> Optional[_Worker]:
        dead.kill()
        self._discard(dead)
        with self._cond:
            if self._closed or len(self._workers) >= self._max:
                return None
            worker = self._spawn_locked()
        metrics.counter_add(metrics.PLANE_WORKER_RESPAWNS, 1)
        return worker

    # -- the map -------------------------------------------------------------

    def map(
        self,
        fn: Callable[[Any, int], Tuple[Any, Dict]],
        context: Any,
        indices: Sequence[int],
        workers: int,
        field_key: Optional[Tuple[int, int]] = None,
        timeout: Optional[float] = None,
        retries: int = 1,
        tracing: Optional[bool] = None,
    ) -> List[PoolResult]:
        """Map ``fn(context, index)`` over ``indices`` on checked-out workers.

        ``fn`` must be picklable by reference (a module-level callable) and
        ``context`` by value; both ship once per distinct context, after
        which tasks are three small integers on a pipe. A context that
        cannot be pickled raises :class:`PoolError` before any worker sees
        it. ``fn`` returns ``(payload, stats_dict)``; ``field_key`` is the
        ``(k, modulus)`` whose GF tables workers pre-build, ``timeout``
        bounds the whole map's wall clock and ``retries`` is the per-task
        crash budget. Results come back in completion order; callers index
        by :attr:`PoolResult.index`. Every failure surfaces as
        :class:`PoolError`.
        """
        if workers < 1:
            raise ValueError("plane map needs at least one worker")
        if not indices:
            return []
        if os.getpid() != self._pid:
            raise PoolError("worker plane crossed a fork; build a fresh one")
        if multiprocessing.current_process().daemon:
            raise PoolError("daemonic process cannot host a worker plane")
        if tracing is None:
            tracing = obs.is_enabled()
        try:
            blob = pickle.dumps(
                (fn, context, field_key, tracing),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        except Exception as exc:
            raise PoolError(
                f"plane context not picklable: {type(exc).__name__}: {exc}"
            ) from exc
        # The blob's content hash is the context identity: two maps with
        # the same bytes share one worker-side publish.
        key = hashlib.sha256(blob).hexdigest()
        with self._cond:
            if self._ctx is not None and self._ctx[0] == key:
                _, epoch, blob = self._ctx
                metrics.counter_add(metrics.PLANE_CTX_REUSED, 1)
            else:
                epoch = next(self._epoch)
                self._ctx = (key, epoch, blob)
                metrics.counter_add(metrics.PLANE_CTX_PUBLISHES, 1)

        deadline = time.monotonic() + timeout if timeout is not None else None
        granted = self._checkout(min(workers, len(indices)), key)
        metrics.counter_add(metrics.PLANE_MAPS, 1)
        queue: deque = deque(indices)
        inflight: Dict[Any, Tuple[_Worker, int, List[int]]] = {}  # conn -> chunk
        crashes: Dict[int, int] = {}
        results: List[PoolResult] = []
        seq = itertools.count()
        # Pack several task ids per pipe message: ~8 chunks per worker keeps
        # round-trip count low without giving up much load balancing.
        chunk_size = max(1, min(16, len(indices) // (len(granted) * 8) or 1))

        def publish(worker: _Worker) -> None:
            if worker.held != (key, epoch):
                worker.conn.send(("ctx", epoch, blob))
                # Optimistic: the ctx_ok ack is consumed in-order before
                # the first task result; a ctx_err fails the map below.
                worker.held = (key, epoch)

        def feed(worker: _Worker) -> bool:
            if not queue:
                return False
            chunk = [queue.popleft() for _ in range(min(chunk_size, len(queue)))]
            task_seq = next(seq)
            worker.conn.send(("task", epoch, task_seq, chunk))
            inflight[worker.conn] = (worker, task_seq, chunk)
            return True

        def feed_idle() -> None:
            busy = {entry[0] for entry in inflight.values()}
            for worker in granted:
                if queue and worker not in busy:
                    publish(worker)
                    feed(worker)

        def crash(worker: _Worker) -> None:
            entry = inflight.pop(worker.conn, None)
            if worker in granted:
                granted.remove(worker)
            replacement = self._replace(worker)
            if entry is not None:
                _, _, chunk = entry
                worst = 0
                for index in chunk:
                    crashes[index] = crashes.get(index, 0) + 1
                    worst = max(worst, crashes[index])
                if worst > max(0, retries):
                    raise PoolError(
                        f"worker pool failed after {worst} attempt(s): "
                        f"worker pid {worker.wid} died running task(s) {chunk}"
                    )
                metrics.counter_add(metrics.PLANE_TASK_RETRIES, len(chunk))
                queue.extendleft(reversed(chunk))
            if replacement is not None:
                granted.append(replacement)
                publish(replacement)
                feed(replacement)

        completed = False
        try:
            for worker in granted:
                publish(worker)
                feed(worker)
            while inflight or queue:
                if not inflight:
                    feed_idle()
                    if not inflight:
                        raise PoolError(
                            f"worker pool failed: every plane worker died with "
                            f"{len(queue)} task(s) unrun"
                        )
                wait_for = None
                if deadline is not None:
                    wait_for = deadline - time.monotonic()
                    if wait_for <= 0:
                        raise PoolError(
                            f"worker pool failed: TimeoutError: map exceeded its "
                            f"{timeout:.1f}s deadline with "
                            f"{len(queue) + len(inflight)} task(s) outstanding"
                        )
                ready = connection_wait(list(inflight.keys()), timeout=wait_for)
                for conn in ready:
                    entry = inflight.get(conn)
                    if entry is None:
                        continue
                    worker, _, chunk = entry
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        crash(worker)
                        continue
                    kind = message[0]
                    if kind == "ctx_ok":
                        continue
                    if kind == "ctx_err":
                        raise PoolError(
                            f"worker pool context publish failed: {message[2]}"
                        )
                    if kind == "ok":
                        _, _, outputs, snapshot = message
                        for position, (r_index, payload, stats) in enumerate(outputs):
                            # The chunk shares one collector; attach its
                            # snapshot once so merges don't double-count.
                            results.append(
                                PoolResult(
                                    r_index,
                                    payload,
                                    stats,
                                    snapshot if position == 0 else None,
                                )
                            )
                        del inflight[conn]
                        feed(worker)
                    elif kind == "err":
                        raise PoolError(f"worker pool task failed: {message[3]}")
                    elif kind == "stale":
                        # Worker holds another epoch (it missed a publish —
                        # e.g. it was respawned between publish and feed).
                        metrics.counter_add(metrics.PLANE_STALE_REFUSALS, 1)
                        del inflight[conn]
                        queue.extendleft(reversed(chunk))
                        worker.held = None
                        publish(worker)
                        feed(worker)
                    # "pong" and anything else: ignore.
            completed = True
        finally:
            if not completed:
                # Workers with a task still in flight are computing results
                # nobody will read (timeout / fatal map error): kill them so
                # they stop competing with the caller's fallback for CPU.
                dead = {w for (w, _, _) in inflight.values()}
                for worker in dead:
                    worker.kill()
                    self._discard(worker)
                    if worker in granted:
                        granted.remove(worker)
            self._release(granted)
        return results


# -- process-global singleton -------------------------------------------------

_PLANE: Optional[WorkerPlane] = None
_PLANE_LOCK = threading.Lock()


def get_plane() -> WorkerPlane:
    """The process-wide plane, created lazily on first use.

    A plane inherited through a fork is useless (its pipes are shared with
    the real parent), so a child that asks gets a fresh one — unless it is
    daemonic, in which case it cannot fork workers at all and the caller
    should run the work inline, which :class:`PoolError` triggers.
    """
    global _PLANE
    if multiprocessing.current_process().daemon:
        raise PoolError("daemonic process cannot host a worker plane")
    with _PLANE_LOCK:
        if _PLANE is None or _PLANE._pid != os.getpid():
            _PLANE = WorkerPlane()
        return _PLANE


def reset_plane() -> None:
    """Tear down the process-global plane (tests, post-fork hygiene)."""
    global _PLANE
    with _PLANE_LOCK:
        plane, _PLANE = _PLANE, None
    if plane is not None and plane._pid == os.getpid():
        plane.shutdown()


# Registered after multiprocessing's own _exit_function, so (atexit is LIFO)
# it runs first: workers get an orderly "exit" and are joined before
# multiprocessing sweeps whatever daemonic children remain.
atexit.register(reset_plane)
