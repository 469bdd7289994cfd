"""End-to-end benchmark of the verifier, by layer.

    python3 perfbench/run.py --workload cold_pair --seed 1 --seconds 20 --trace 0

Run from the repository root (or anywhere: paths resolve from this file).
``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs a fixed amount of work traced, runs the checks it answered once more
untraced (for the trace overhead), and reports the per-layer metrics. The last line of standard output is one JSON object::

    {"correct": true, "attempted": 3, "failed": 0,
     "metrics": {"latency_p50_s": {"value": 17.9, "unit": "s"}, ...}}

A wrong verdict or a bogus counterexample prints ``"correct": false`` and
exits 1. Details (per-check records, the tail percentile and its sample
count, set-up times) go to ``perfbench/out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOAD_NAMES = ("cold_pair", "warm_resubmit", "mutant_triage", "service_mix")
#: The workloads BENCHMARK.json lists. warm_resubmit and mutant_triage run
#: on request only: warm_resubmit's ~50 s runs do not fit the time the
#: benchmark is given for all runs, and mutant_triage's latencies sit on
#: the edge between its cheap and its costly mutants, where two sets of
#: ten runs spread past their bound (see README.md).
BENCHMARKED = ("cold_pair", "service_mix")
#: Seed the figures in README.md were developed on, and one held out from
#: that work so a later claim can be checked on a seed nobody tuned for.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017
#: Set-ups per untraced run; set-up time is their median. The first is
#: timed before the checks, the others after them. A set-up that took
#: under SETUP_SMALL_S is timed once more after every SETUP_EVERY-th check
#: as well. A third set-up cost 5-6 s a run on cold_pair and service_mix
#: without keeping the set-up medians of two sets of runs any closer.
SETUP_REPEATS = 2
SETUP_SMALL_S = 2.0
SETUP_EVERY = 3

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_per_s": "1/s",
    "goodput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "circuits.parse_s": "s",
    "circuits.parse_mb_per_s": "MB/s",
    "prepass.total_s": "s",
    "prepass.sweep_s": "s",
    "prepass.guard_s": "s",
    "prepass.canon_s": "s",
    "prepass.sat_queries": "count",
    "prepass.nets_merged": "count",
    "prepass.merge_yield": "ratio",
    "prepass.gates_removed": "count",
    "cache.key_s": "s",
    "cache.get_s": "s",
    "cache.put_s": "s",
    "cache.hits_canonical": "count",
    "cache.hits_raw": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "core.rato_setup_s": "s",
    "core.spoly_reduction_s": "s",
    "core.case2_finish_s": "s",
    "core.extractions": "count",
    "core.substitutions": "count",
    "core.peak_terms": "count",
    "verify.coeff_match_s": "s",
    "verify.counterexample_s": "s",
    "verify.glue_s": "s",
    "service.submit_s": "s",
    "service.queue_wait_s": "s",
    "service.job_s": "s",
    "service.overhead_s": "s",
    "service.deduplicated": "count",
    "service.rejected": "count",
    "service.plane_jobs": "count",
    "service.plane_fallbacks": "count",
    "bench.generator_late_s": "s",
    "bench.trace_overhead_ratio": "ratio",
    "bench.traced_latency_s": "s",
    "bench.uncovered_s": "s",
    "bench.other_s": "s",
    "bench.failed_ratio": "ratio",
    "bench.checks_traced": "count",
    "bench.count_mismatches": "count",
}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def locate_program() -> bool:
    """Put the checkout's ``src`` on the path; False when it is missing."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    return True


def result_line(correct: bool, attempted: int, failed: int, values: Dict[str, float],
                units: Dict[str, str]) -> str:
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not locate_program():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import measure

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    started = time.perf_counter()
    try:
        if args.workload == "service_mix":
            run = measure.service_mix(args.seed, args.seconds, args.trace, workdir)
        else:
            run = measure.in_process(args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.details.update(
        workload=args.workload,
        seed=args.seed,
        default_seed=DEFAULT_SEED,
        held_out_seed=HELD_OUT_SEED,
        seconds=args.seconds,
        trace=args.trace,
        run_wall_s=round(time.perf_counter() - started, 3),
        problems=run.problems,
    )
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(run.details, indent=1, default=str)
    )
    for problem in run.problems:
        print(f"WRONG: {problem}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    correct = not run.problems
    print(result_line(correct, run.attempted, run.failed, run.values, units))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
