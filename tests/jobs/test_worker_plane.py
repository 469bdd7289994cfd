"""Fault-injection and lifecycle tests for the resident worker plane."""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.jobs.plane import PoolError, WorkerPlane, get_plane, reset_plane


def echo(context, index):
    return (context, index), {"tag": index}


def nap(context, index):
    time.sleep(context)
    return index, {}


def report_pid(context, index):
    return os.getpid(), {}


def always_crash(context, index):
    os.kill(os.getpid(), signal.SIGKILL)


def crash_once(context, index):
    # context names a flag file: crash hard the first time each worker
    # sees it, succeed on the retry (the respawned worker starts fresh but
    # the flag file persists across the respawn).
    flag = f"{context}.{index}"
    if not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write("seen")
        os.kill(os.getpid(), signal.SIGKILL)
    return index * 10, {}


@pytest.fixture
def plane():
    fresh = WorkerPlane()
    yield fresh
    fresh.shutdown()


class TestPlaneLifecycle:
    def test_workers_survive_across_maps(self, plane):
        first = plane.map(report_pid, None, [0, 1], workers=2)
        second = plane.map(report_pid, None, [0, 1], workers=2)
        assert {r.payload for r in first} == {r.payload for r in second}
        assert plane.workers_alive >= 2

    def test_context_published_once_per_circuit(self, plane):
        plane.map(echo, "ctx-a", [0], workers=1, tracing=False)
        epoch_before = plane._ctx[1]
        plane.map(echo, "ctx-a", [1], workers=1, tracing=False)
        assert plane._ctx[1] == epoch_before  # same blob, same epoch
        plane.map(echo, "ctx-b", [0], workers=1)
        assert plane._ctx[1] != epoch_before  # new circuit, new epoch

    def test_shutdown_drains_under_load(self, plane):
        # Drain while a map is mid-flight: shutdown must wait for the
        # checked-out workers, and the map must complete normally.
        results = []

        def mapper():
            results.extend(plane.map(nap, 0.4, [0, 1], workers=2))

        thread = threading.Thread(target=mapper)
        thread.start()
        time.sleep(0.15)  # let the map check its workers out
        plane.shutdown(timeout=10.0)
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert {r.payload for r in results} == {0, 1}
        assert plane.workers_alive == 0

    def test_map_after_shutdown_raises(self, plane):
        plane.map(echo, "ctx", [0], workers=1)
        plane.shutdown()
        with pytest.raises(PoolError):
            plane.map(echo, "ctx", [1], workers=1)


class TestPlaneCrashContainment:
    def test_sigkilled_worker_respawned_and_task_retried(self, plane, tmp_path):
        flag = str(tmp_path / "crash_once")
        results = plane.map(
            crash_once, flag, [0, 1, 2], workers=2, retries=1, timeout=30.0
        )
        assert sorted(r.index for r in results) == [0, 1, 2]
        assert {r.index: r.payload for r in results} == {0: 0, 1: 10, 2: 20}

    def test_crash_budget_exhausted_raises(self, plane):
        with pytest.raises(PoolError, match="attempt"):
            plane.map(always_crash, None, [0], workers=1, retries=1)

    def test_all_workers_dead_with_queue_raises_not_hangs(self, plane):
        started = time.monotonic()
        with pytest.raises(PoolError):
            plane.map(
                always_crash,
                None,
                list(range(4)),
                workers=2,
                retries=0,
                timeout=30.0,
            )
        assert time.monotonic() - started < 25.0


class TestDaemonicFallback:
    def test_daemonic_child_gets_pool_error(self):
        # A daemonic process (a plane worker, a batch-runner job) cannot
        # fork children; asking for a plane must raise PoolError so callers
        # run the work inline, like every other map failure.
        def probe(queue):
            try:
                get_plane()
                queue.put("plane")
            except PoolError:
                queue.put("poolerror")

        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        proc = ctx.Process(target=probe, args=(queue,), daemon=True)
        proc.start()
        proc.join(timeout=10)
        assert queue.get(timeout=5) == "poolerror"

    def test_daemonic_parity_with_serial(self):
        # End to end: extract_canonical inside a daemonic process (a batch
        # job or a plane worker) produces the same polynomial.
        from repro.core.abstraction import extract_canonical
        from repro.gf import GF2m
        from repro.synth.mastrovito import mastrovito_multiplier

        field = GF2m(8)
        circuit = mastrovito_multiplier(field)
        parent = extract_canonical(circuit, field)

        def probe(queue):
            result = extract_canonical(circuit, field)
            queue.put(str(result.polynomial))

        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        proc = ctx.Process(target=probe, args=(queue,), daemon=True)
        proc.start()
        proc.join(timeout=60)
        assert queue.get(timeout=5) == str(parent.polynomial)


class TestForkHygiene:
    def test_global_plane_not_reused_across_fork(self):
        reset_plane()
        plane = get_plane()
        plane.map(echo, "ctx", [0], workers=1)

        def probe(queue):
            child_plane = get_plane()
            queue.put(child_plane is not plane and child_plane._pid == os.getpid())

        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        proc = ctx.Process(target=probe, args=(queue,))
        proc.start()
        proc.join(timeout=10)
        assert queue.get(timeout=5) is True
        reset_plane()


_HOST_SCRIPT = """
import sys, time
from repro.jobs.plane import get_plane
from tests.jobs.test_worker_plane import report_pid

[res] = get_plane().map(report_pid, None, [0], workers=1)
print(res.payload, flush=True)
time.sleep(60)
"""


def _running(pid):
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


class TestHostDeath:
    def test_worker_exits_when_host_is_sigkilled(self):
        # A host killed outright never runs its plane shutdown; the worker
        # it forked must notice and exit instead of living on as an orphan.
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), root, env.get("PYTHONPATH", "")]
        )
        host = subprocess.Popen(
            [sys.executable, "-c", _HOST_SCRIPT],
            stdout=subprocess.PIPE,
            env=env,
            cwd=root,
            text=True,
        )
        try:
            worker_pid = int(host.stdout.readline())
            assert _running(worker_pid)
        finally:
            host.kill()
            host.wait(timeout=10)
            host.stdout.close()
        deadline = time.monotonic() + 10.0
        while _running(worker_pid) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not _running(worker_pid)
