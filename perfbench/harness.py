"""Measurement plumbing shared by every workload.

* :func:`run_forked` runs one check in a forked child under a wall-clock
  limit, so a pathological input costs the limit and nothing more, and the
  child's peak RSS is the memory of exactly one check.
* :func:`tail` picks the tail percentile every latency metric reports.
* :func:`layer_breakdown` turns the spans of a traced check into per-layer
  self times (a span's duration minus the time its child spans cover).
* :func:`install_layer_spans` wraps the public calls that carry no span of
  their own, so the traced run sees the prepass parts and the cache I/O.
* :func:`record_counts` keeps the exact work counts of a traced run and
  flags any that differ from an earlier traced run of the same seed.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import os
import resource
import select
import signal
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Tuple

# -- forked checks ------------------------------------------------------------


class CheckTimeout(BaseException):
    """Raised inside a check child once its wall-clock limit has passed.

    A ``BaseException`` so library code that catches ``Exception`` cannot
    swallow it: the check unwinds, its open spans close, and the child
    still reports what it did before the limit.
    """


#: Seconds a child may overrun its limit (stuck in native code, say)
#: before the parent kills it outright.
KILL_GRACE_S = 5.0


def run_forked(
    fn: Callable[[], Dict], limit_s: float, trace: bool = False
) -> Dict:
    """Run ``fn()`` in a forked child and return its record.

    The record holds ``status`` (``ok``, ``timeout``, ``error`` or
    ``killed``), ``seconds`` (the child's own timing of ``fn``), ``wall``
    (fork to reap, seen by the parent), ``info`` (what ``fn`` returned),
    ``rss_mb`` (the child's peak resident memory) and, when ``trace`` is
    set, ``snapshot`` (the child's span collector). ``fn`` must return a
    JSON-serialisable dict. A child still running ``KILL_GRACE_S`` past
    its limit is killed.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    # The child's collector then skips every object it inherits, so a
    # collection in the child neither scans nor copies the parent's heap.
    gc.freeze()
    read_fd, write_fd = os.pipe()
    started = time.perf_counter()
    deadline = time.monotonic() + limit_s + KILL_GRACE_S
    pid = os.fork()
    if pid == 0:  # child
        os.close(read_fd)
        code = 0
        try:
            payload = json.dumps(_child_record(fn, limit_s, trace)).encode()
            with os.fdopen(write_fd, "wb") as out:
                out.write(payload)
        except BaseException:  # noqa: BLE001 — the child must always exit
            traceback.print_exc()
            code = 70
        finally:
            os._exit(code)
    os.close(write_fd)
    chunks: List[bytes] = []
    killed = True
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([read_fd], [], [], remaining)[0]:
                break
            chunk = os.read(read_fd, 1 << 20)
            if not chunk:
                killed = False
                break
            chunks.append(chunk)
    finally:
        if killed:  # past the deadline, or interrupted: leave no child behind
            os.kill(pid, signal.SIGKILL)
        os.close(read_fd)
        os.waitpid(pid, 0)
    wall = time.perf_counter() - started
    if killed or not chunks:
        return {
            "status": "killed",
            "seconds": wall,
            "wall": wall,
            "info": {},
            "rss_mb": None,
            "error": "killed past the limit" if killed else "child died",
        }
    record = json.loads(b"".join(chunks))
    record["wall"] = wall
    return record


def _child_record(fn: Callable[[], Dict], limit_s: float, trace: bool) -> Dict:
    from repro import obs

    collector = None
    if trace:
        install_layer_spans()
        collector = obs.enable(obs.TraceCollector())
    obs.reset_context()
    armed = [True]

    def on_alarm(signum, frame):
        if armed[0]:
            raise CheckTimeout()

    signal.signal(signal.SIGALRM, on_alarm)
    record: Dict = {"status": "ok", "info": {}}
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        try:
            with obs.span("bench.check"):
                record["info"] = fn()
        finally:
            armed[0] = False
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CheckTimeout:
        record["status"] = "timeout"
    except Exception as exc:  # noqa: BLE001 — an error is a failed check
        record["status"] = "error"
        record["error"] = f"{type(exc).__name__}: {exc}"
    record["seconds"] = time.perf_counter() - start
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if collector is not None:
        obs.disable()
        record["snapshot"] = collector.snapshot()
    return record


# -- statistics ---------------------------------------------------------------


def tail(values: Iterable[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)`` of the highest percentile with at least
    ten samples beyond it.

    That percentile exists only from 20 samples on. Below that the
    maximum is reported with percentile 100, since every run has to carry
    the metric; the sample count says how much it is worth.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n >= 20:
        return ordered[n - 11], 100.0 * (n - 10) / n, n
    return (ordered[-1] if ordered else 0.0), 100.0, n


# -- layer spans --------------------------------------------------------------

#: Span name -> the layer its self time is charged to. Spans named in the
#: program ship with it; ``bench.*`` spans come from :func:`install_layer_spans`.
LAYER_OF_SPAN = {
    "parse": "circuits.parse",
    "prepass": "prepass.canon",
    "bench.sat_sweep": "prepass.sweep",
    "bench.guard": "prepass.guard",
    "bench.cache_key": "cache.key",
    "bench.cache_get": "cache.get",
    "bench.cache_put": "cache.put",
    "rato_setup": "core.rato_setup",
    "spoly_reduction": "core.spoly_reduction",
    "case2_finish": "core.case2_finish",
    "coeff_match": "verify.coeff_match",
    "counterexample_search": "verify.counterexample",
    "abstract": "verify.glue",
    "bench.check": "bench.uncovered",
}

#: Every layer a breakdown reports, in table order.
LAYERS = tuple(dict.fromkeys(LAYER_OF_SPAN.values())) + ("bench.other",)

_INSTALLED = False


def _spanned(name: str, fn: Callable) -> Callable:
    from repro import obs

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs.span(name):
            return fn(*args, **kwargs)

    return wrapper


def install_layer_spans() -> None:
    """Wrap the public calls that have no span of their own.

    The prepass calls ``sat_sweep`` and ``differential_guard`` through its
    module globals and the pipeline looks ``canonical_cache_key`` up on
    :mod:`repro.jobs.cache` at call time, so rebinding those names reaches
    every caller. Run only in a traced child: the untraced runs execute
    the program unchanged.
    """
    global _INSTALLED
    if _INSTALLED:
        return
    import repro.jobs.cache as cache_mod
    import repro.prepass.reduce as reduce_mod

    reduce_mod.sat_sweep = _spanned("bench.sat_sweep", reduce_mod.sat_sweep)
    reduce_mod.differential_guard = _spanned(
        "bench.guard", reduce_mod.differential_guard
    )
    cache_mod.canonical_cache_key = _spanned(
        "bench.cache_key", cache_mod.canonical_cache_key
    )
    cls = cache_mod.CanonicalPolyCache
    cls.get = _spanned("bench.cache_get", cls.get)
    cls.put = _spanned("bench.cache_put", cls.put)
    _INSTALLED = True


def layer_breakdown(snapshot: Dict) -> Dict[str, float]:
    """Self seconds per layer for one traced check, plus ``prepass.total``
    (whole prepass spans) and ``bench.traced`` (the check's own span).

    The layer self times sum to ``bench.traced``: whatever no layer span
    covers lands in ``bench.uncovered``.
    """
    spans = snapshot.get("spans", [])
    child_time: Dict[Tuple[int, int], float] = {}
    for record in spans:
        if record.get("parent") is not None:
            key = (record["pid"], record["parent"])
            child_time[key] = child_time.get(key, 0.0) + record["dur"]
    out = {layer: 0.0 for layer in LAYERS}
    out["prepass.total"] = 0.0
    out["bench.traced"] = 0.0
    for record in spans:
        own = record["dur"] - child_time.get((record["pid"], record["id"]), 0.0)
        layer = LAYER_OF_SPAN.get(record["name"], "bench.other")
        out[layer] += max(0.0, own)
        if record["name"] == "prepass":
            out["prepass.total"] += record["dur"]
        elif record["name"] == "bench.check":
            out["bench.traced"] += record["dur"]
    return out


# -- exact counts -------------------------------------------------------------

#: Count metric -> (collector counter or gauge, how checks combine).
COUNT_SOURCES = {
    "prepass.sat_queries": ("prepass.sat_queries", "sum"),
    "prepass.nets_merged": ("prepass.nets_merged", "sum"),
    "prepass.gates_removed": ("prepass.gates_removed", "sum"),
    "cache.hits_canonical": ("prepass.canonical_key_hits", "sum"),
    "cache.hits_raw": ("prepass.raw_key_hits", "sum"),
    "cache.misses": ("cache.misses", "sum"),
    "core.extractions": ("abstraction.extractions", "sum"),
    "core.substitutions": ("abstraction.substitutions", "sum"),
    "core.peak_terms": ("abstraction.peak_terms", "max"),
}

#: The counts a later claim may rest on; two traced runs of one seed must
#: agree on every one of them.
DETERMINISTIC_COUNTS = (
    "prepass.sat_queries",
    "prepass.nets_merged",
    "core.substitutions",
    "core.peak_terms",
    "core.extractions",
    "cache.hits_canonical",
    "cache.hits_raw",
)


def collect_counts(snapshots: Iterable[Dict]) -> Dict[str, float]:
    """Fold the counters and gauges of several checks into count metrics."""
    out = {name: 0 for name in COUNT_SOURCES}
    for snapshot in snapshots:
        counters = snapshot.get("counters", {})
        gauges = snapshot.get("gauges", {})
        for name, (source, how) in COUNT_SOURCES.items():
            if how == "sum":
                out[name] += counters.get(source, 0)
            else:
                out[name] = max(out[name], gauges.get(source, 0))
    return out


def code_fingerprint(root: Path) -> str:
    """Hash of the program and benchmark sources: counts from two runs are
    comparable only when it matches."""
    digest = hashlib.sha256()
    for base in (root / "src", Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def record_counts(
    path: Path, fingerprint: str, per_check: Dict[str, Dict[str, float]]
) -> List[str]:
    """Store each answered check's counts at ``path``; return the count
    names that differ, on any check answered in both runs, from what an
    earlier run of the same code stored there.

    Comparing check by check keeps a check that beat its limit in one run
    and not in the other from reading as a changed count.
    """
    mismatched: List[str] = []
    try:
        earlier = json.loads(path.read_text())
    except (OSError, ValueError):
        earlier = None
    if earlier and earlier.get("fingerprint") == fingerprint:
        for label, counts in per_check.items():
            before = earlier["checks"].get(label)
            if before is None:
                continue
            for name in DETERMINISTIC_COUNTS:
                if before.get(name) != counts.get(name) and name not in mismatched:
                    mismatched.append(name)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"fingerprint": fingerprint, "checks": per_check}, indent=1)
    )
    return mismatched


def peak_children_rss_mb() -> float:
    """Peak RSS of the largest reaped child (or grandchild reaped by it)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
