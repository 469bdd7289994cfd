"""Turn the workloads' raw records into the metrics ``run.py`` prints."""

from __future__ import annotations

import json
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import harness
import servicemix
from run import HERE, PER_LAYER, ROOT, SETUP_EVERY, SETUP_REPEATS, SETUP_SMALL_S
from workloads import SETUP_LIMIT_S, WORKLOADS, InProcessWorkload, Measured, Prepared, run_pass


@dataclass
class Run:
    values: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    details: Dict = field(default_factory=dict)


def first_setup(setup, target: Path):
    """Set up once in ``target``; return the set-up and its time.

    The other ``SETUP_REPEATS - 1`` set-ups of an untraced run are timed
    after the measured pass (:func:`forked_setup`, or the workload's own
    way), so the set-up median spans the run, not the seconds before it.
    """
    target.mkdir()
    start = time.perf_counter()
    prepared = setup(target)
    return prepared, [time.perf_counter() - start]


def forked_setup(setup, target: Path) -> float:
    """Seconds one more set-up takes, timed in a forked child."""
    target.mkdir()
    record = harness.run_forked(lambda: timed(setup, target), SETUP_LIMIT_S)
    shutil.rmtree(target, ignore_errors=True)
    if record["status"] != "ok":
        raise RuntimeError(f"set-up failed: {record.get('error', record['status'])}")
    return record["info"]["seconds"]


def timed(setup, target: Path) -> Dict[str, float]:
    start = time.perf_counter()
    setup(target)
    return {"seconds": time.perf_counter() - start}


def zero_layers() -> Dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def add_ratios(values: Dict[str, float]) -> None:
    """The two useful-outcome ratios, from counts already in ``values``."""
    queries = values["prepass.sat_queries"]
    values["prepass.merge_yield"] = values["prepass.nets_merged"] / queries if queries else 0.0
    hits = values["cache.hits_canonical"] + values["cache.hits_raw"]
    lookups = hits + values["cache.misses"]
    values["cache.hit_ratio"] = hits / lookups if lookups else 0.0


# -- in-process workloads -----------------------------------------------------


def in_process(name: str, seed: int, seconds: float, trace: int, workdir: Path) -> Run:
    workload: InProcessWorkload = WORKLOADS[name]

    def setup(target: Path) -> Prepared:
        return workload.setup(seed, target)

    setup_dir = workdir / "setup0"
    prepared, setup_seconds = first_setup(setup, setup_dir)
    details = {"setup_seconds": setup_seconds, "notes": prepared.notes, "k": workload.k,
               "limit_s": workload.limit_s}
    if not trace:
        between = None
        if sum(setup_seconds) < SETUP_SMALL_S:
            # The machine's speed changes from one second to the next, so a
            # cheap set-up is timed again between checks: its median then
            # spans the run, not the second or two before it.
            def between(checks: int) -> None:
                if checks % SETUP_EVERY == 0:
                    target = workdir / f"setup{len(setup_seconds)}"
                    setup_seconds.append(forked_setup(setup, target))

        measured = run_pass(workload, prepared, setup_dir, seconds, trace=False,
                            between=between)
        for _ in range(SETUP_REPEATS - 1):
            setup_seconds.append(forked_setup(setup, workdir / f"setup{len(setup_seconds)}"))
        values = end_to_end(measured, workload.limit_s)
        values["setup_s"] = statistics.median(setup_seconds)
        details.update(summarize(measured), cache_keys=key_kinds(measured))
        note_cache_misses(name, details["cache_keys"])
        problems = measured.problems
        records = measured.records
    else:
        fixed = prepared.rounds()
        traced = run_pass(workload, prepared, setup_dir, 0, trace=True, rounds=fixed)
        # The overhead ratio compares answered checks: one past its limit
        # reads the limit traced or not, so it is not run again.
        answered = {r["label"] for r in traced.records if r["status"] == "ok"}
        again = [[item for item in items if item.label in answered] for items in fixed]
        untraced = run_pass(workload, prepared, setup_dir, 0, trace=False, rounds=again)
        values, mismatched = layers_in_process(untraced, traced, name, seed)
        details.update(untraced=summarize(untraced), traced=summarize(traced),
                       count_mismatches=mismatched)
        write_spans(name, seed, traced)
        problems = untraced.problems + traced.problems
        records = untraced.records + traced.records
    failed = sum(1 for r in records if r["status"] != "ok")
    return Run(values, len(records), failed, problems, details)


def end_to_end(measured: Measured, limit_s: float) -> Dict[str, float]:
    """The median and the tail are over answered checks; a failed check
    shows in ``failed``/``attempted`` and earns no throughput or goodput.
    Over every check, the latencies would read the limit, or a rank
    pushed up by the failures, wherever a large share of checks fail (a
    third of mutant_triage's do)."""
    answered = [r["seconds"] for r in measured.records if r["status"] == "ok"]
    # With nothing answered, every check was given up at the limit.
    latencies = answered or [limit_s]
    return {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": harness.tail(latencies)[0],
        "throughput_per_s": len(answered) / measured.wall,
        "goodput_per_s": sum(1 for value in answered if value <= limit_s) / measured.wall,
        # Median over checks of each check child's own peak.
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in measured.records if r["rss_mb"]),
    }


def summarize(measured: Measured) -> Dict:
    _, percentile, n = harness.tail(r["seconds"] for r in measured.records if r["status"] == "ok")
    return {
        "wall_s": measured.wall,
        "samples": n,
        "tail_percentile": percentile,
        "checks": [
            {key: r.get(key) for key in ("label", "kind", "status", "seconds", "wall", "rss_mb", "error")}
            for r in measured.records
        ],
    }


def key_kinds(measured: Measured) -> Dict[str, int]:
    """Which cache key answered each side, from verify_equivalence's counters."""
    totals = {"hits_canonical": 0, "hits_raw": 0, "misses": 0}
    for record in measured.records:
        for key in totals:
            totals[key] += record["info"].get("counters", {}).get(key, 0)
    return totals


def note_cache_misses(name: str, kinds: Dict[str, int]) -> None:
    if name == "warm_resubmit" and (kinds["hits_raw"] or kinds["misses"]):
        harness.log(
            f"warm_resubmit: {kinds['hits_raw']} side(s) answered by the raw key and "
            f"{kinds['misses']} side(s) missed the cache; every side should be a canonical hit"
        )


def layers_in_process(untraced: Measured, traced: Measured, name: str, seed: int):
    values = zero_layers()
    checks = len(traced.records)
    breakdowns = [harness.layer_breakdown(r["snapshot"]) for r in traced.records if "snapshot" in r]
    for layer in harness.LAYERS + ("prepass.total", "bench.traced"):
        key = "bench.traced_latency_s" if layer == "bench.traced" else f"{layer}_s"
        values[key] = sum(b[layer] for b in breakdowns) / checks
    parse_seconds = sum(b["circuits.parse"] for b in breakdowns)
    parsed_bytes = sum(r["bytes"] for r in traced.records)
    values["circuits.parse_mb_per_s"] = parsed_bytes / 1e6 / parse_seconds if parse_seconds else 0.0
    values.update(harness.collect_counts(r["snapshot"] for r in traced.records if r["status"] == "ok"))
    add_ratios(values)
    traced_answers = [r["seconds"] for r in traced.records if r["status"] == "ok"]
    untraced_answers = [r["seconds"] for r in untraced.records if r["status"] == "ok"]
    if traced_answers and untraced_answers:
        values["bench.trace_overhead_ratio"] = statistics.median(
            traced_answers
        ) / statistics.median(untraced_answers)
    values["bench.failed_ratio"] = sum(1 for r in traced.records if r["status"] != "ok") / checks
    values["bench.checks_traced"] = checks
    mismatched = harness.record_counts(
        HERE / "out" / "counts" / f"{name}-seed{seed}.json",
        harness.code_fingerprint(ROOT),
        {
            r["label"]: harness.collect_counts([r["snapshot"]])
            for r in traced.records
            if r["status"] == "ok"
        },
    )
    for count in mismatched:
        harness.log(f"{name}: count {count} differs from an earlier traced run of seed {seed}")
    values["bench.count_mismatches"] = len(mismatched)
    return values, mismatched


def write_spans(name: str, seed: int, traced: Measured) -> None:
    """Spans stay in memory while the run measures; written once at the end."""
    path = HERE / "out" / f"{name}-seed{seed}.spans.json"
    path.write_text(json.dumps([r.get("snapshot", {}) for r in traced.records]))


# -- service_mix ----------------------------------------------------------------


def service_mix(seed: int, seconds: float, trace: int, workdir: Path) -> Run:
    daemons: List[servicemix.Daemon] = []

    def setup(target: Path):
        traffic = servicemix.Traffic(seed, seconds)
        daemon = servicemix.Daemon(ROOT, target, seed)
        daemons.append(daemon)
        servicemix.warm_up(daemon, traffic.warm_body)
        return traffic, daemon

    try:
        (traffic, daemon), setup_seconds = first_setup(setup, workdir / "setup0")
        loop = servicemix.run_loop(daemon, traffic)
        daemon.stop()
        peak_rss_mb = harness.peak_children_rss_mb()
        for _ in range(0 if trace else SETUP_REPEATS - 1):
            # A set-up from scratch, its daemon stopped once it is up.
            _, seconds_taken = first_setup(setup, workdir / f"setup{len(setup_seconds)}")
            setup_seconds.extend(seconds_taken)
            daemons[-1].stop()
    finally:
        for daemon in daemons:
            daemon.stop()
    outcomes = loop.outcomes
    latencies = [servicemix.latency(o) for o in outcomes]
    answered = [value for value in latencies if value is not None]
    failed = sum(1 for value in latencies if value is None)
    problems = servicemix.problems(loop)
    tail_value, percentile, n = harness.tail(answered)
    details = {
        "setup_seconds": setup_seconds,
        "k": servicemix.K,
        "rate_per_s": servicemix.RATE_PER_S,
        "latency_limit_s": servicemix.LATENCY_LIMIT_S,
        "wall_s": loop.wall,
        "samples": n,
        "tail_percentile": percentile,
        "requests": [
            {"kind": o.kind, "modulus": hex(r.body.modulus), "refused": o.refused,
             "coalesced": o.coalesced, "late_s": o.sent - o.due, "latency_s": value,
             "status": (o.job or {}).get("status"),
             "queue_s": (o.job or {}).get("queue_seconds"),
             "run_s": (o.job or {}).get("run_seconds")}
            for o, r, value in zip(outcomes, traffic.requests, latencies)
        ],
    }
    if trace:
        values = layers_service(loop, latencies)
    else:
        values = {
            "setup_s": statistics.median(setup_seconds),
            "latency_p50_s": statistics.median(answered),
            "latency_tail_s": tail_value,
            "throughput_per_s": len(answered) / loop.wall,
            "goodput_per_s": sum(1 for v in answered if v <= servicemix.LATENCY_LIMIT_S) / loop.wall,
            "peak_rss_mb": peak_rss_mb,
        }
    return Run(values, len(outcomes), failed, problems, details)


def layers_service(loop: servicemix.LoopResult, latencies) -> Dict[str, float]:
    values = zero_layers()
    own_jobs = [
        (o, value) for o, value in zip(loop.outcomes, latencies)
        if value is not None and not o.coalesced
    ]
    if own_jobs:
        values["service.queue_wait_s"] = statistics.median(o.job["queue_seconds"] for o, _ in own_jobs)
        values["service.job_s"] = statistics.median(o.job["run_seconds"] for o, _ in own_jobs)
        values["service.overhead_s"] = statistics.median(
            o.job["finished"] - o.sent - o.job["queue_seconds"] - o.job["run_seconds"]
            for o, _ in own_jobs
        )
        values["prepass.total_s"] = mean(
            sum(side.get("seconds", 0.0) for side in o.job["result"].get("prepass", {}).values())
            for o, _ in own_jobs
        )
    values["service.submit_s"] = statistics.median(o.submit_s for o in loop.outcomes)
    for metric, counter in (
        ("service.deduplicated", "service.requests_deduplicated"),
        ("service.rejected", "service.requests_rejected"),
        ("service.plane_jobs", "service.plane_jobs"),
        ("service.plane_fallbacks", "service.plane_fallbacks"),
    ):
        values[metric] = servicemix.metric_delta(loop, counter)
    # The daemon's collector counts the same work the traced children do.
    for metric, (source, how) in harness.COUNT_SOURCES.items():
        if how == "sum":
            values[metric] = servicemix.metric_delta(loop, source)
        else:
            values[metric] = servicemix.metric_value(loop, source)
    add_ratios(values)
    values["bench.generator_late_s"] = max(o.sent - o.due for o in loop.outcomes)
    values["bench.failed_ratio"] = sum(1 for v in latencies if v is None) / len(latencies)
    return values
