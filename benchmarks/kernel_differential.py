"""Kernel differential: the production reduction kernels against oracles.

Each algebra layer has one production path. This script checks it end to
end against small independent references, the way CI consumes it::

    PYTHONPATH=src python benchmarks/kernel_differential.py --quick

Three checks, each fatal on divergence (exit status 1):

1. **gate sweep** — on the Mastrovito and Montgomery multipliers and on a
   seeded ``random_mutation`` of each, the remainder the batched mask sweep
   (``reduce_through_gates``) leaves equals the one a plain frozenset sweep
   leaves (one ``SubstitutionEngine.substitute`` per gate, in RATO order),
   and the clean multipliers abstract to ``A*B``;
2. **verify** — ``verify_equivalence`` calls the clean pair equivalent and
   each mutant not equivalent, with a counterexample that bit-level
   simulation confirms separates the two designs; wall-clocks reported;
3. **replay** — the committed REDTRACE fixtures (recorded under both
   kernels the tree used to carry) and a fresh recording at the chosen k
   replay with zero diffs (the ``repro replay --diff`` contract,
   exercised in-process).

``--quick`` runs k=16 (the CI perf-smoke step, well under its 2-minute
budget); the default is the heavier k=32 differential. Writes a JSON
summary (``--out``, default ``BENCH_kernel_differential.json`` honouring
``$REPRO_BENCH_OUT`` conventions) with production and oracle timings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from repro.circuits import random_mutation, simulate_words
from repro.circuits.blif import to_blif
from repro.core import build_rato, extract_canonical
from repro.core.abstraction import reduce_through_gates
from repro.core.bitpoly import SubstitutionEngine
from repro.core.gate_polys import gate_tail
from repro.gf import GF2m
from repro.obs import redtrace
from repro.obs.replay import diff_events, execute_header, netlist_sha256
from repro.synth import mastrovito_multiplier, montgomery_multiplier
from repro.verify import verify_equivalence

FIXTURES = Path(__file__).parent.parent / "tests" / "obs" / "fixtures"
MUTANT_SEED = 2


def _circuits(k: int):
    field = GF2m(k)
    spec = mastrovito_multiplier(field)
    impl = montgomery_multiplier(field).flatten()
    return field, spec, impl


def _seed(circuit, field, ordering) -> dict:
    """Spoly(f_w, f_g)'s surviving part ``sum alpha^i z_i``."""
    id_of = ordering.var_ids
    (bits,) = circuit.output_words.values()
    alpha = field.alpha_powers()
    return {frozenset((id_of[b],)): alpha[i] for i, b in enumerate(bits)}


def _sweeps(circuit, field) -> "tuple[dict, dict, float, float]":
    """Production and frozenset-oracle remainders, with their seconds."""
    ordering = build_rato(circuit, output_words=list(circuit.output_words))
    id_of = ordering.var_ids
    seed = _seed(circuit, field, ordering)

    t0 = time.perf_counter()
    engine = SubstitutionEngine(field)
    engine.add_terms(seed.items())
    reduce_through_gates(circuit, engine, ordering)
    production_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    oracle = SubstitutionEngine(field)
    oracle.add_terms(seed.items())
    for net in ordering.gate_nets:
        oracle.substitute(id_of[net], gate_tail(circuit.gate_driving(net), id_of))
    oracle_s = time.perf_counter() - t0
    return engine.terms, oracle.terms, production_s, oracle_s


def check_sweep(k: int) -> dict:
    """The batched sweep must leave the frozenset oracle's remainder."""
    field, spec, impl = _circuits(k)
    failures = []
    timings: dict = {}
    for name, clean in (("mastrovito", spec), ("montgomery", impl)):
        mutant, _ = random_mutation(clean, seed=MUTANT_SEED)
        for tag, circuit in ((name, clean), (f"{name}_mutant", mutant)):
            production, oracle, production_s, oracle_s = _sweeps(circuit, field)
            timings[tag] = {"production": production_s, "oracle": oracle_s}
            if production != oracle:
                failures.append(f"{tag}: sweep remainder differs from the oracle")
        rendered = str(extract_canonical(clean, field).polynomial)
        if rendered != "A*B":
            failures.append(f"{name}: abstracted to {rendered!r}, expected 'A*B'")
    return {"timings": timings, "failures": failures}


def _separates(spec, impl, point: dict) -> bool:
    stimuli = {word: [int(value)] for word, value in point.items()}
    got_spec = next(iter(simulate_words(spec, stimuli).values()))
    got_impl = next(iter(simulate_words(impl, stimuli).values()))
    return got_spec != got_impl


def check_verify(k: int, reps: int) -> dict:
    """Right verdicts, simulation-confirmed counterexamples, wall-clock."""
    failures = []
    samples = []
    for _ in range(reps):
        field, spec, impl = _circuits(k)
        t0 = time.perf_counter()
        outcome = verify_equivalence(spec, impl, field)
        samples.append(time.perf_counter() - t0)
        if not outcome.equivalent:
            failures.append("verify reported the clean pair non-equivalent")
            break
    field, spec, impl = _circuits(k)
    for name, circuit in (("mastrovito", spec), ("montgomery", impl)):
        mutant, _ = random_mutation(circuit, seed=MUTANT_SEED)
        outcome = verify_equivalence(circuit, mutant, field, seed=MUTANT_SEED)
        if outcome.equivalent:
            failures.append(f"{name}_mutant: verify reported equivalent")
        elif not outcome.counterexample or not _separates(
            circuit, mutant, outcome.counterexample
        ):
            failures.append(
                f"{name}_mutant: counterexample {outcome.counterexample!r} "
                "does not separate the designs"
            )
    return {"seconds": statistics.median(samples), "failures": failures}


def _replay_failure(label: str, recorded: list) -> "str | None":
    diff = diff_events(recorded, execute_header(recorded[0]))
    if diff is None:
        return None
    index, a, b = diff
    return f"{label}: first divergence at event {index}: {a!r} != {b!r}"


def check_replay(k: int) -> dict:
    """Committed fixtures and a fresh recording replay byte-identically."""
    failures = []
    fixtures = sorted(FIXTURES.glob("*.redtrace"))
    if not fixtures:
        failures.append(f"no REDTRACE fixtures under {FIXTURES}")
    for path in fixtures:
        failure = _replay_failure(path.name, redtrace.read_trace(str(path)))
        if failure:
            failures.append(failure)

    field, spec, _ = _circuits(k)
    text = to_blif(spec)
    writer = redtrace.start_recording(
        op="abstract",
        params={
            "k": field.k,
            "modulus": f"{field.modulus:#x}",
            "output_word": None,
            "case2": "linearized",
            "jobs": None,
            "netlist": "<mastrovito>",
            "netlist_text": text,
            "netlist_sha256": netlist_sha256(text),
        },
        ring=False,
    )
    try:
        extract_canonical(spec, field)
    finally:
        redtrace.stop_recording()
    failure = _replay_failure(f"fresh k={k}", writer.events())
    if failure:
        failures.append(failure)
    return {"fixtures": len(fixtures), "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="k=16 differential (CI mode)"
    )
    parser.add_argument(
        "--k", type=int, default=None, help="field degree (default 32, 16 with --quick)"
    )
    parser.add_argument(
        "--out",
        default=None,
        help="JSON summary path (default $REPRO_BENCH_OUT dir conventions)",
    )
    args = parser.parse_args(argv)
    k = args.k if args.k is not None else (16 if args.quick else 32)

    sweep = check_sweep(k)
    verify = check_verify(k, reps=3 if args.quick else 5)
    replay = check_replay(k)

    failures = sweep["failures"] + verify["failures"] + replay["failures"]
    print(f"verify k={k}: {verify['seconds']*1e3:.1f} ms")
    for name, row in sweep["timings"].items():
        print(
            f"gate sweep {name} k={k}: production {row['production']*1e3:.1f} ms, "
            f"oracle {row['oracle']*1e3:.1f} ms"
        )
    print(
        f"replay: {replay['fixtures']} fixture(s) + fresh k={k} recording "
        + ("clean" if not replay["failures"] else "DIVERGED")
    )

    payload = {
        "meta": {
            "k": k,
            "quick": args.quick,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "verify_seconds": verify["seconds"],
        "sweep_seconds": sweep["timings"],
        "replayed_fixtures": replay["fixtures"],
        "failures": failures,
    }
    out = args.out or os.environ.get("REPRO_BENCH_OUT")
    if out and Path(out).is_dir():
        out = str(Path(out) / "BENCH_kernel_differential.json")
    out_path = Path(out or "BENCH_kernel_differential.json")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"summary written to {out_path}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"OK: production kernels match their oracles at k={k}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
