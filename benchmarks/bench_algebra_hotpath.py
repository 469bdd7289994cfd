"""Algebra hot-path benchmark: verify wall-clock and layer microbenchmarks.

Measures the Mastrovito-vs-Montgomery verify (structural prepass off) at
k in {16, 32, 64} plus per-layer microbenchmarks (field multiply, polynomial reduction, the
full-Groebner ablation), compares against the recorded pre-overhaul
baseline (``benchmarks/baselines/algebra_pre_pr.json``), and writes a
``BENCH_algebra.json`` trajectory (respecting ``$REPRO_BENCH_OUT``).

Unlike the pytest-benchmark sweeps this is a standalone script so CI can
gate on it cheaply::

    PYTHONPATH=src python benchmarks/bench_algebra_hotpath.py --quick

``--quick`` restricts the sweep to k=16 and enforces ``--ceiling-seconds``
on the verify path (exit status 1 beyond it) — the CI perf-smoke contract.
Run without flags for the full k in {16, 32, 64} before/after table.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from repro.algebra import LexOrder, Polynomial, PolynomialRing, reduce_polynomial
from repro.gf import GF2m, poly2
from repro.synth import mastrovito_multiplier, montgomery_multiplier
from repro.verify import verify_equivalence
from repro.verify.fullgb import abstract_via_full_groebner

BASELINE_PATH = Path(__file__).parent / "baselines" / "algebra_pre_pr.json"
PRE_BATCH_PATH = Path(__file__).parent / "baselines" / "algebra_pre_batch.json"

VERIFY_SIZES = (16, 32, 64)
QUICK_SIZES = (16,)
FIELD_SIZES = (8, 16, 32, 64)
FULLGB_SIZES = (3, 4)


def _median_seconds(fn, reps: int) -> float:
    samples = []
    for _ in range(reps):
        gc.collect()  # keep setup garbage out of the timed window
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def bench_verify(k: int, reps: int) -> float:
    """Verify wall-clock with the structural prepass off; circuits are
    rebuilt per repetition so per-circuit caches cannot leak between
    samples.

    The baselines this is compared against predate the prepass, so timing
    the default (prepass on) would report the prepass's cost as an algebra
    slowdown; ``perfbench`` measures the full default pipeline."""
    field = GF2m(k)
    samples = []
    for _ in range(reps):
        spec = mastrovito_multiplier(field)
        impl = montgomery_multiplier(field).flatten()
        gc.collect()  # circuit construction churns enough to trigger GC
        t0 = time.perf_counter()
        outcome = verify_equivalence(spec, impl, field, prepass=False)
        samples.append(time.perf_counter() - t0)
        assert outcome.equivalent, f"k={k} multipliers reported non-equivalent"
    return statistics.median(samples)


def bench_field_mul(k: int, n: int = 20000) -> dict:
    """ns/op of field.mul (whatever fast path is active) vs the raw poly2
    reference computation."""
    import random

    rng = random.Random(0xA1)
    field = GF2m(k)
    pairs = [
        (rng.randrange(1, field.order), rng.randrange(1, field.order))
        for _ in range(n)
    ]
    mul = field.mul
    t0 = time.perf_counter()
    for a, b in pairs:
        mul(a, b)
    fast = (time.perf_counter() - t0) / n
    modulus = field.modulus
    order = field.order
    t0 = time.perf_counter()
    for a, b in pairs:
        p = poly2.clmul(a, b)
        if p >= order:
            p = poly2.mod(p, modulus)
    reference = (time.perf_counter() - t0) / n
    return {"ns_per_op": fast * 1e9, "reference_ns_per_op": reference * 1e9}


def _random_reduction_workload(seed: int = 11):
    """A polynomial and divisor set heavy enough to expose O(T^2) scans."""
    import random

    rng = random.Random(seed)
    field = GF2m(8)
    names = [f"x{i}" for i in range(10)]
    ring = PolynomialRing(field, names, order=LexOrder(range(10)), fold=False)
    variables = [ring.var(n) for n in names]

    def random_poly(terms: int, max_deg: int) -> Polynomial:
        p = ring.zero()
        for _ in range(terms):
            m = ring.one()
            for v in rng.sample(variables, rng.randint(1, 3)):
                m = m * (v ** rng.randint(1, max_deg))
            p = p + m.scale(rng.randrange(1, field.order))
        return p

    f = random_poly(220, 3)
    divisors = [random_poly(3, 2) for _ in range(14)]
    return f, divisors


def bench_reduce(reps: int) -> dict:
    f, divisors = _random_reduction_workload()
    seconds = _median_seconds(lambda: reduce_polynomial(f, divisors), reps)
    result = {"seconds": seconds}
    try:
        from repro.algebra.division import reference_reduce_polynomial
    except ImportError:
        return result
    result["reference_seconds"] = _median_seconds(
        lambda: reference_reduce_polynomial(f, divisors), reps
    )
    return result


def bench_fullgb(k: int) -> float:
    field = GF2m(k)
    circuit = mastrovito_multiplier(field)
    t0 = time.perf_counter()
    res = abstract_via_full_groebner(circuit, field, deadline_seconds=300.0)
    elapsed = time.perf_counter() - t0
    assert res.completed, f"fullgb k={k} did not complete"
    return elapsed


def run_suite(quick: bool) -> dict:
    sizes = QUICK_SIZES if quick else VERIFY_SIZES
    results: dict = {"verify": {}, "field_mul": {}, "reduce": {}, "fullgb": {}}
    for k in sizes:
        reps = 9 if k <= 16 else (7 if k <= 32 else 5)
        results["verify"][str(k)] = {"seconds": bench_verify(k, reps)}
        print(f"verify k={k}: {results['verify'][str(k)]['seconds']*1e3:.1f} ms")
    for k in QUICK_SIZES if quick else FIELD_SIZES:
        results["field_mul"][str(k)] = bench_field_mul(k)
        row = results["field_mul"][str(k)]
        print(
            f"field mul k={k}: {row['ns_per_op']:.0f} ns/op "
            f"(poly2 reference {row['reference_ns_per_op']:.0f} ns/op)"
        )
    results["reduce"] = bench_reduce(reps=3 if quick else 5)
    line = f"reduce: {results['reduce']['seconds']*1e3:.1f} ms"
    if "reference_seconds" in results["reduce"]:
        line += f" (reference {results['reduce']['reference_seconds']*1e3:.1f} ms)"
    print(line)
    for k in FULLGB_SIZES if not quick else FULLGB_SIZES[:1]:
        results["fullgb"][str(k)] = {"seconds": bench_fullgb(k)}
        print(f"fullgb k={k}: {results['fullgb'][str(k)]['seconds']*1e3:.1f} ms")
    return results


def compute_speedups(baseline: dict, current: dict) -> dict:
    speedup: dict = {}
    for section in ("verify", "fullgb"):
        base = baseline.get(section, {})
        cur = current.get(section, {})
        speedup[section] = {
            k: round(base[k]["seconds"] / cur[k]["seconds"], 2)
            for k in cur
            if k in base and cur[k]["seconds"] > 0
        }
    base_mul = baseline.get("field_mul", {})
    speedup["field_mul"] = {
        k: round(base_mul[k]["ns_per_op"] / row["ns_per_op"], 2)
        for k, row in current.get("field_mul", {}).items()
        if k in base_mul and row["ns_per_op"] > 0
    }
    base_red = baseline.get("reduce", {})
    cur_red = current.get("reduce", {})
    if "seconds" in base_red and cur_red.get("seconds"):
        speedup["reduce"] = round(base_red["seconds"] / cur_red["seconds"], 2)
    return speedup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="k=16 sweep only, with the wall-clock ceiling enforced (CI mode)",
    )
    parser.add_argument(
        "--ceiling-seconds",
        type=float,
        default=30.0,
        help="--quick fails when the k=16 verify exceeds this (default 30s)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output JSON path (default $REPRO_BENCH_OUT or ./BENCH_algebra.json)",
    )
    parser.add_argument(
        "--capture-baseline",
        action="store_true",
        help=f"record this run as the comparison baseline ({BASELINE_PATH})",
    )
    args = parser.parse_args(argv)

    current = run_suite(args.quick)
    payload = {
        "meta": {
            "quick": args.quick,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "current": current,
    }

    if args.capture_baseline:
        BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
        BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"baseline recorded to {BASELINE_PATH}")
        return 0

    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        payload["baseline"] = baseline["current"]
        payload["baseline_meta"] = baseline["meta"]
        payload["speedup"] = compute_speedups(baseline["current"], current)
        print("speedup vs recorded baseline:", json.dumps(payload["speedup"]))

    if PRE_BATCH_PATH.exists():
        pre_batch = json.loads(PRE_BATCH_PATH.read_text())
        payload["speedup_vs_legacy_kernels"] = compute_speedups(
            pre_batch["current"], current
        )
        print(
            "speedup vs legacy kernels:",
            json.dumps(payload["speedup_vs_legacy_kernels"]),
        )

    out = args.out or os.environ.get("REPRO_BENCH_OUT") or "BENCH_algebra.json"
    out_path = Path(out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"trajectory written to {out_path}")

    if args.quick:
        k16 = current["verify"].get("16", {}).get("seconds")
        if k16 is None or k16 > args.ceiling_seconds:
            print(
                f"FAIL: k=16 verify took {k16:.2f}s "
                f"(ceiling {args.ceiling_seconds:.0f}s)",
                file=sys.stderr,
            )
            return 1
        print(f"OK: k=16 verify {k16*1e3:.1f} ms under ceiling")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
