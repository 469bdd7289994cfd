"""Scheduler: queue → job bodies on the worker plane, with dedup and drain.

The scheduler owns the compute half of the daemon. Dispatcher threads pull
:class:`~repro.service.store.JobRecord` entries off the bounded queue and
run them through the same executor bodies the batch runner uses
(:func:`repro.jobs.executor.run_verify` / :func:`run_abstract`) — by
default on the resident :class:`~repro.jobs.plane.WorkerPlane`, one
in-flight job per worker *process*. Compared to the worker-thread design
this replaced, job bodies no longer contend on the GIL (two k=64 verifies
genuinely overlap on a multi-core box) and a job that segfaults or gets
OOM-killed takes down a respawnable plane worker, not the daemon. The
standing advantages of a resident service are kept:

- **warm state** — the daemon warms GF tables for each ``(k, modulus)``
  on first sight; plane workers warm theirs on first use and keep them
  for the plane's lifetime (they are resident too);
- **shared polynomial cache + admission dedup** — identical in-flight
  submissions coalesce onto one job at admission (request-key dedup in
  the store), and all workers share the content-addressed disk
  :class:`~repro.jobs.cache.CanonicalPolyCache`, so duplicate work is
  eliminated before and after computation. On the inline path the
  in-process :class:`~repro.service.singleflight.SingleFlight` group
  still collapses concurrent same-key abstractions;
- **telemetry merged home** — each plane job ships its worker's full
  trace snapshot (spans + counters + gauges) back with the result; the
  scheduler folds it into the daemon's collector so ``/metrics`` counts
  work wherever it ran;
- **deadline-aware dispatch** — a job whose client deadline expired while
  it sat queued is marked ``expired`` without wasting a reduction on it.
  Deadlines are only enforced *at dequeue*; work that starts runs to
  completion, as before.

Any :class:`~repro.jobs.plane.PoolError` (plane wedged, context not
picklable — e.g. monkeypatched job bodies in tests) falls back to running
the job inline on the dispatcher thread, which is exactly the old
behaviour; ``dispatch="inline"`` forces that mode.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Dict, Iterable, Optional, Set, Tuple

from .. import obs
from ..gf import GF2m, logtables
from ..jobs.cache import CanonicalPolyCache
from ..jobs.executor import run_abstract, run_reveng, run_verify
from ..obs import metrics
from ..obs.costmodel import CostEstimator, CostModel
from .queue import BoundedJobQueue, QueueClosed
from .singleflight import SingleFlight
from .store import JobRecord, JobStore

__all__ = ["Scheduler"]

logger = logging.getLogger("repro.service")


def _service_job_task(context: Dict, index: int) -> "Tuple[Dict, Dict]":
    """Plane-worker body for one service job.

    ``context`` carries the executor callable (pickled by reference — a
    monkeypatched or otherwise unpicklable body fails the publish and the
    scheduler runs it inline instead), the job params, and the cache
    directory. The worker opens its own handle on the shared disk cache;
    cross-process single-flight is unnecessary because identical in-flight
    submissions already coalesced at admission.
    """
    fn = context["fn"]
    cache_dir = context.get("cache_dir")
    cache = CanonicalPolyCache(cache_dir) if cache_dir else None
    kwargs: Dict = {"cache": cache}
    if context["kind"] == "verify":
        kwargs["seed"] = context.get("seed")
    return fn(context["params"], **kwargs), {}


class Scheduler:
    """Dispatch queued job records onto executor worker threads."""

    def __init__(
        self,
        queue: BoundedJobQueue,
        store: JobStore,
        workers: int = 2,
        cache_dir: Optional[str] = None,
        seed: Optional[int] = None,
        cost_model_path: Optional[str] = None,
        dispatch: str = "plane",
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if dispatch not in ("plane", "inline"):
            raise ValueError(f"dispatch must be 'plane' or 'inline', got {dispatch!r}")
        self.queue = queue
        self.store = store
        self.cache = CanonicalPolyCache(cache_dir) if cache_dir else None
        self.inflight = SingleFlight(on_shared=self._note_shared)
        self._cache_dir = cache_dir
        self._dispatch = dispatch
        self._seed = seed
        self._workers = workers
        self._threads: list = []
        self._warmed: Set[Tuple[int, int]] = set()
        self._warm_lock = threading.Lock()
        # Per-(op, k) EWMA job-cost buckets seeding Retry-After hints on
        # 429s, optionally primed by a fitted cost model. The global EWMA
        # inside the estimator is the cold-start fallback — it starts at a
        # plausible small-field verify latency so the very first rejection
        # doesn't advertise zero.
        model = None
        if cost_model_path:
            try:
                model = CostModel.load(cost_model_path)
            except (OSError, ValueError, KeyError) as exc:
                logger.warning(
                    "cost model %s not loaded (%s); falling back to EWMA",
                    cost_model_path,
                    exc,
                )
        self.estimator = CostEstimator(default_seconds=0.5, model=model)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        for index in range(self._workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def drain(self, timeout: float = 30.0) -> int:
        """Close the queue, let workers finish, cancel the leftovers.

        Returns the number of jobs cancelled. Workers exit once the queue
        is both closed and empty; anything still queued past ``timeout``
        is pulled out and marked ``cancelled`` so no client poll hangs on
        a job that will never run.
        """
        self.queue.close()
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            remaining = deadline - time.monotonic()
            if remaining > 0:
                thread.join(remaining)
        abandoned = self.queue.drain_remaining()
        for record in abandoned:
            self.store.finish(
                record, "cancelled", error="service shut down before the job ran"
            )
            metrics.counter_add(metrics.SERVICE_JOBS_CANCELLED, 1)
        for thread in self._threads:
            remaining = deadline - time.monotonic()
            thread.join(max(0.0, remaining))
        return len(abandoned)

    @property
    def alive_workers(self) -> int:
        return sum(1 for thread in self._threads if thread.is_alive())

    # -- GF table prewarm ----------------------------------------------------

    def prewarm(self, fields: Iterable[Tuple[int, Optional[int]]]) -> int:
        """Build GF tables for ``(k, modulus)`` pairs ahead of traffic.

        Tables are process-global, so one build here serves every worker
        thread for the daemon's lifetime. Invalid field specs are skipped
        (the request that names them will fail with a proper error).
        Returns the number of fields actually warmed.
        """
        warmed = 0
        for k, modulus in fields:
            try:
                field = GF2m(int(k), modulus=modulus)
            except (ValueError, TypeError) as exc:
                logger.warning("prewarm skipped k=%s: %s", k, exc)
                continue
            with self._warm_lock:
                if (field.k, field.modulus) in self._warmed:
                    continue
                self._warmed.add((field.k, field.modulus))
            logtables.warm(field.k, field.modulus)
            warmed += 1
        return warmed

    def warm_for_params(self, params: dict) -> None:
        """Lazily warm the field a submitted job will compute in."""
        k = params.get("k")
        if k is None:
            return
        modulus = params.get("modulus")
        if isinstance(modulus, str):
            try:
                modulus = int(modulus, 0)
            except ValueError:
                return
        self.prewarm([(k, modulus)])

    # -- hints ---------------------------------------------------------------

    def retry_after_hint(self) -> int:
        """Whole seconds a 429'd client should wait: one queue's worth of
        estimated work per worker, clamped to [1, 120].

        Each queued job is priced by its own (op, k) bucket — a burst of
        fast k=16 adds no longer poisons the estimate for queued k=64
        multiplies — with the fitted model, then the global EWMA, filling
        in for buckets that have never completed a job.
        """
        total = 0.0
        for record in self.queue.items():
            seconds, _ = self.estimator.estimate(
                record.kind, record.params.get("k")
            )
            total += seconds
        if total <= 0.0:
            total = self.estimator.global_estimate()
        estimate = total / self._workers
        return max(1, min(120, int(estimate + 0.999)))

    # -- internals -----------------------------------------------------------

    def _note_shared(self, key: str) -> None:
        metrics.counter_add(metrics.SERVICE_SINGLEFLIGHT_SHARED, 1)

    def _worker_loop(self) -> None:
        while True:
            try:
                record = self.queue.get(timeout=1.0)
            except QueueClosed:
                return
            if record is None:
                continue
            self._run_one(record)

    def _run_one(self, record: JobRecord) -> None:
        queued_ms = int((time.time() - record.created) * 1000)
        metrics.counter_add(metrics.SERVICE_QUEUE_WAIT_MS, max(0, queued_ms))
        if record.deadline is not None and time.monotonic() > record.deadline:
            self.store.finish(
                record,
                "expired",
                error=f"deadline ({record.timeout}s) passed while queued",
            )
            metrics.counter_add(metrics.SERVICE_JOBS_EXPIRED, 1)
            return

        self.store.mark_running(record)
        predicted, source = self.estimator.estimate(
            record.kind, record.params.get("k")
        )
        started = time.perf_counter()
        try:
            with obs.span(
                "service_job", id=record.id, kind=record.kind,
                priority=record.priority,
            ):
                result = self._execute(record)
        except Exception as exc:  # noqa: BLE001 — job faults become records
            self.store.finish(record, "failed", error=f"{type(exc).__name__}: {exc}")
            metrics.counter_add(metrics.SERVICE_JOBS_FAILED, 1)
            logger.warning("job %s failed: %s", record.id, exc)
        else:
            result["seconds"] = round(time.perf_counter() - started, 6)
            self.store.finish(record, "done", result=result)
            metrics.counter_add(metrics.SERVICE_JOBS_COMPLETED, 1)
        finally:
            seconds = time.perf_counter() - started
            self.estimator.observe(record.kind, record.params.get("k"), seconds)
            metrics.counter_add(metrics.COSTMODEL_PREDICTIONS, 1)
            if source == "global":
                metrics.counter_add(metrics.COSTMODEL_FALLBACKS, 1)
            metrics.counter_add(
                metrics.COSTMODEL_ABS_ERROR_MS,
                int(abs(seconds - predicted) * 1000),
            )

    def _job_body(self, kind: str):
        """The executor callable for ``kind`` — resolved through this
        module's globals so test monkeypatches are honoured on both
        dispatch paths."""
        if kind == "verify":
            return run_verify
        if kind == "abstract":
            return run_abstract
        if kind == "reveng":
            return run_reveng
        raise ValueError(f"unknown job kind {kind!r}")

    def _execute(self, record: JobRecord) -> Dict:
        body = self._job_body(record.kind)
        if self._dispatch == "plane":
            from ..jobs.plane import PoolError

            try:
                return self._execute_on_plane(record, body)
            except PoolError as exc:
                metrics.counter_add(metrics.SERVICE_PLANE_FALLBACKS, 1)
                logger.debug(
                    "job %s not dispatched to the plane (%s); running inline",
                    record.id,
                    exc,
                )
        return self._execute_inline(record, body)

    def _execute_on_plane(self, record: JobRecord, body) -> Dict:
        """Run one job on a plane worker process; merge its telemetry home."""
        from ..jobs.plane import get_plane

        context = {
            "fn": body,
            "kind": record.kind,
            "params": record.params,
            "cache_dir": self._cache_dir,
            "seed": self._seed,
        }
        [res] = get_plane().map(
            _service_job_task, context, [0], workers=1, retries=1
        )
        collector = obs.active_collector()
        if res.snapshot and collector is not None:
            # The worker's spans, counters and gauges (extraction counts,
            # cache traffic, peak terms) land in the daemon's collector so
            # /metrics reports the work no matter which process did it.
            collector.merge(res.snapshot)
        metrics.counter_add(metrics.SERVICE_PLANE_JOBS, 1)
        return res.payload

    def _execute_inline(self, record: JobRecord, body) -> Dict:
        return body(
            record.params,
            cache=self.cache,
            inflight=self.inflight,
            **({"seed": self._seed} if record.kind == "verify" else {}),
        )
