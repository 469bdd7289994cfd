"""Unit tests for the process-wide plane's map (``get_plane().map``).

Every task here is ``fn(context, index)``; the service scheduler maps its
job bodies the same way.
"""

import os
import threading
import time

import pytest

from repro import obs
from repro.gf import GF2m, logtables
from repro.jobs import PoolError
from repro.jobs.plane import get_plane


def plane_map(fn, indices, workers, context=None, **kwargs):
    return get_plane().map(fn, context, indices, workers, **kwargs)


def double(context, index):
    return index * 2, {"tag": index}


def slow(context, index):
    time.sleep(5.0)
    return index, {}


def napper(context, index):
    time.sleep(1.0)
    return index, {}


def hard_crash(context, index):
    os._exit(1)


def soft_fail(context, index):
    raise RuntimeError("coefficient invariant violated")


def use_field(field_key, index):
    logtables.log_tables(*field_key)
    return index, {}


def traced(context, index):
    with obs.span("plane_task", index=index):
        pass
    return index, {}


class TestRunPool:
    def test_basic_map(self):
        results = plane_map(double, range(6), workers=2)
        assert len(results) == 6
        by_index = {r.index: r for r in results}
        assert sorted(by_index) == list(range(6))
        for index, result in by_index.items():
            assert result.payload == index * 2
            assert result.stats["tag"] == index
            assert result.stats["seconds"] >= 0.0
            assert result.stats["pid"] > 0

    def test_dispatch_order_is_caller_controlled(self):
        heavy_first = [5, 4, 3, 2, 1, 0]
        results = plane_map(double, heavy_first, workers=1)
        assert {r.index for r in results} == set(heavy_first)

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            plane_map(double, [0], workers=0)

    def test_empty_map(self):
        assert plane_map(double, [], workers=2) == []

    def test_unpicklable_closure_raises_pool_error(self):
        # A closure cannot ship to a plane worker. It must surface as
        # PoolError, the one type fallback callers catch, and never
        # reach a worker.
        offset = 3

        def closure(context, index):
            return index + offset, {}

        with pytest.raises(PoolError, match="not picklable"):
            plane_map(closure, range(2), workers=1)

    def test_unpicklable_context_raises_pool_error(self):
        # Same contract when the callable ships fine but its context holds
        # a live object (a lock) that cannot be pickled.
        with pytest.raises(PoolError, match="not picklable"):
            plane_map(double, range(2), workers=1, context=threading.Lock())


class TestWarmTables:
    def test_warm_workers_never_rebuild(self):
        field = GF2m(8)
        key = (field.k, field.modulus)
        results = plane_map(
            use_field, range(4), workers=2, field_key=key, context=key
        )
        assert all(r.stats["table_rebuilds"] == 0 for r in results)

    def test_cold_worker_rebuild_is_reported(self):
        # A field the context publish did NOT warm and the parent has never
        # built: evict it, and start a fresh plane, so the forked workers
        # cannot inherit it either.
        from repro.jobs.plane import reset_plane

        field = GF2m(11)
        key = (field.k, field.modulus)
        logtables._log_cache.pop(key, None)
        reset_plane()
        results = plane_map(
            use_field, range(2), workers=1, field_key=None, context=key
        )
        assert all(r.stats["table_rebuilds"] >= 1 for r in results)


class TestFailureContainment:
    def test_timeout_raises_pool_error(self):
        with pytest.raises(PoolError, match="TimeoutError"):
            plane_map(slow, range(2), workers=2, timeout=0.2, retries=0)

    def test_crashed_pool_retried_then_raises(self):
        started = time.perf_counter()
        with pytest.raises(PoolError, match="attempt"):
            plane_map(hard_crash, range(2), workers=1, retries=1)
        # Two attempts on respawned workers, both fast hard-crashes.
        assert time.perf_counter() - started < 30.0

    def test_task_exception_wrapped_in_pool_error(self):
        # A deterministic exception raised by fn itself must reach the
        # caller as PoolError (so fallbacks engage) and must NOT
        # burn crash retries — the "task failed" message proves the wrap
        # happened before the crash path's "after N attempt(s)" message.
        with pytest.raises(
            PoolError, match=r"task failed: RuntimeError: coefficient"
        ):
            plane_map(soft_fail, range(2), workers=1, retries=3)

    def test_timeout_terminates_inflight_workers(self):
        import multiprocessing

        from repro.jobs.plane import reset_plane

        # Start from an empty plane so every child alive during the map is
        # one of the two workers stuck in a 5 s `slow` task. Idle plane
        # workers are *supposed* to persist; busy ones computing results
        # nobody will read are not.
        reset_plane()
        with pytest.raises(PoolError, match="TimeoutError"):
            plane_map(slow, range(2), workers=2, timeout=0.3, retries=0)
        deadline = time.monotonic() + 3.0
        while time.monotonic() < deadline:
            if not any(p.is_alive() for p in multiprocessing.active_children()):
                break
            time.sleep(0.05)
        assert not any(p.is_alive() for p in multiprocessing.active_children())


class TestThreadSafety:
    def test_concurrent_maps_are_correct(self):
        # The plane runs concurrent maps on disjoint workers; interleaved
        # maps must never see each other's context.
        errors = []

        def one_map():
            try:
                results = plane_map(double, range(4), workers=2)
                assert {r.payload for r in results} == {0, 2, 4, 6}
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=one_map) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors

    def test_concurrent_maps_overlap_in_time(self):
        # Regression for the module-lock removal: two threads each mapping
        # a 1 s sleep must *overlap* on the plane. A schedule serialised on
        # a module lock needs >= 2 s wall; disjoint workers need ~1 s.
        errors = []
        barrier = threading.Barrier(2)

        def one_map():
            try:
                barrier.wait(timeout=10)
                results = plane_map(napper, [0], workers=1)
                assert [r.payload for r in results] == [0]
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=one_map) for _ in range(2)]
        started = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        wall = time.monotonic() - started
        assert not errors
        assert wall < 1.9, f"concurrent maps serialised: {wall:.2f}s wall"


class TestTracing:
    def test_spans_ship_back_when_parent_traces(self):
        collector = obs.enable(obs.TraceCollector())
        try:
            results = plane_map(traced, range(2), workers=2)
        finally:
            obs.disable()
        del collector
        for result in results:
            assert result.spans is not None
            assert [s["name"] for s in result.spans] == ["plane_task"]

    def test_no_spans_without_tracing(self):
        assert obs.active_collector() is None
        results = plane_map(double, range(2), workers=1)
        assert all(r.spans is None for r in results)
