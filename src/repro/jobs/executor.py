"""In-worker job execution with span-derived phase timings and cache hits.

:func:`execute_job` runs one :class:`~repro.jobs.manifest.BatchJob` (passed
as a plain dict so it crosses the process boundary cheaply) and returns a
JSON-serialisable result record. Each job runs under its own
:class:`~repro.obs.spans.TraceCollector`; the record's ``phases`` map —
the run log's historical schema — is *derived* from the recorded spans,
and the full span snapshot travels alongside as ``telemetry`` so the pool
parent can merge it or export per-job Chrome traces. The phases mirror
the paper's pipeline:

``parse``
    Netlist reading (BLIF / structural Verilog).
``prepass``
    Structural pre-reduction (:mod:`repro.prepass`): canonicalization plus
    the fraig SAT sweep, run before hashing so cache keys are structural-
    variant-invariant. Nonzero even on warm hits — the canonical key is a
    function of the prepassed circuit.
``rato_setup``
    Building the Refined Abstraction Term Order (Definition 5.1).
``spoly_reduction``
    The guided reduction ``Spoly(f_w, f_g) ->_{F, F0}+ r`` plus Case-2
    finishing — the dominant cost.
``coeff_match``
    Re-homing both canonical polynomials into a shared ring and comparing
    coefficients (plus counterexample search on mismatch).

Canonical polynomials route through the content-addressed cache when a
``cache_dir`` is given. A warm hit skips ``rato_setup`` and
``spoly_reduction`` entirely — those phases are still emitted as explicit
zeros (with per-side ``*_cache_hit`` flags) so downstream aggregation
never KeyErrors and cache wins don't skew phase averages by dropping out
of the denominator.
"""

from __future__ import annotations

import os
import random
import resource
import time
from typing import Dict, Optional, Tuple

from .. import obs
from ..algebra import parse_polynomial
from ..circuits import Circuit, read_netlist, read_netlist_text
from ..core import word_ring_for
from ..gf import GF2m
from ..prepass import abstract_canonical
from ..verify import check_ideal_membership
from ..verify.equivalence import verify_equivalence
from .cache import CanonicalPolyCache, rehydrate_polynomial

__all__ = [
    "execute_job",
    "phases_from_spans",
    "run_abstract",
    "run_check_spec",
    "run_reveng",
    "run_verify",
]

#: Polynomials larger than this many characters are elided in result
#: records — buggy Case-2 abstractions can be astronomically dense, and the
#: run log should stay grep-able.
_MAX_POLY_CHARS = 2000

#: Span name -> run-log phase. ``case2_finish`` folds into
#: ``spoly_reduction`` because the historical phase timed the whole
#: abstraction step (Section 5's reduction plus its Case-2 epilogue).
_PHASE_OF_SPAN = {
    "parse": "parse",
    "prepass": "prepass",
    "rato_setup": "rato_setup",
    "spoly_reduction": "spoly_reduction",
    "case2_finish": "spoly_reduction",
    "coeff_match": "coeff_match",
    # The parallel path's "cone_slicing"/"cone_reduction" spans are
    # deliberately unmapped: the umbrella "spoly_reduction" span already
    # covers the pool's wall clock, and folding the per-cone worker spans
    # in as well would double-count the phase. They still ride along in
    # ``telemetry`` for flamegraphs.
}

#: Phases emitted as explicit zeros when nothing contributed to them
#: (cache hits), keyed by job type.
_EXPECTED_PHASES = {
    "verify": ("parse", "prepass", "rato_setup", "spoly_reduction", "coeff_match"),
    "abstract": ("parse", "prepass", "rato_setup", "spoly_reduction"),
    "check-spec": ("parse", "rato_setup", "spoly_reduction"),
    "reveng": ("parse", "prepass", "rato_setup", "spoly_reduction"),
}

#: Fresh per-job cache-counter dict: totals plus the canonical/raw key
#: split the prepass pipeline maintains (see
#: :func:`repro.prepass.abstract_canonical`).
def _new_counters() -> Dict[str, int]:
    return {"hits": 0, "misses": 0, "hits_canonical": 0, "hits_raw": 0}


def phases_from_spans(spans) -> Dict[str, float]:
    """Fold span durations into the run log's flat ``phases`` map."""
    phases: Dict[str, float] = {}
    for record in spans:
        phase = _PHASE_OF_SPAN.get(record["name"])
        if phase is not None:
            phases[phase] = phases.get(phase, 0.0) + record["dur"]
    return phases


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _field_for(params: Dict) -> GF2m:
    modulus = params.get("modulus")
    if isinstance(modulus, str):
        modulus = int(modulus, 0)
    return GF2m(int(params["k"]), modulus=modulus)


def _load_circuit(params: Dict, key: str) -> Circuit:
    """Load the netlist named by ``params[key]``, path- or body-based.

    Batch manifests carry filesystem paths (``params["spec"]``); the
    verification service streams netlist *bodies* in the request instead
    (``params["spec_text"]``), since the daemon may not share a filesystem
    with its clients. A ``<key>_text`` entry wins over a path.
    """
    text = params.get(f"{key}_text")
    if text is not None:
        return read_netlist_text(text, name=str(params.get(key) or f"<{key}>"))
    return read_netlist(params[key])


def _clipped_poly(output_word: object, polynomial_text: str, terms: int) -> str:
    text = f"{output_word} = {polynomial_text}"
    if len(text) > _MAX_POLY_CHARS:
        return text[:_MAX_POLY_CHARS] + f"... [{terms} terms]"
    return text


def _poly_str(polynomial, output_word: str) -> str:
    return _clipped_poly(output_word, str(polynomial), len(polynomial))


def run_verify(
    params: Dict,
    cache: Optional[CanonicalPolyCache] = None,
    counters: Optional[Dict[str, int]] = None,
    seed: Optional[int] = None,
    inflight=None,
) -> Dict:
    """Run one verify job body: prepass, abstract both sides, coefficient-match.

    The shared engine behind batch ``verify`` jobs and the service's
    ``POST /v1/verify``. ``params`` uses the manifest schema; netlists may
    arrive as paths (``spec``/``impl``) or as streamed bodies
    (``spec_text``/``impl_text``). The body is a thin record adapter over
    :func:`~repro.verify.equivalence.verify_equivalence` — the exact
    pipeline the CLI runs — with the cache, single-flight group and
    ``params["prepass"]`` override threaded through.
    """
    counters = counters if counters is not None else _new_counters()
    field = _field_for(params)

    spec = _load_circuit(params, "spec")
    impl = _load_circuit(params, "impl")

    outcome = verify_equivalence(
        spec,
        impl,
        field,
        case2=params.get("case2", "linearized"),
        seed=seed,
        jobs=params.get("jobs"),
        cache=cache,
        counters=counters,
        inflight=inflight,
        prepass=params.get("prepass"),
    )
    details = outcome.details
    spec_stats = details["spec"]
    impl_stats = details["impl"]
    record = {
        "verdict": outcome.status,
        "counterexample": outcome.counterexample,
        "spec_polynomial": _clipped_poly(
            spec_stats.get("output_word"),
            details["spec_polynomial"],
            details["spec_terms"],
        ),
        "spec_terms": details["spec_terms"],
        "impl_terms": details["impl_terms"],
        "spec_cache_hit": details["spec_cache_hit"],
        "impl_cache_hit": details["impl_cache_hit"],
        "spec_case": spec_stats["case"],
        "impl_case": impl_stats["case"],
        # Cost-model features: field width, total gate count across both
        # sides (raw, pre-prepass), total cone count (0 on the serial path /
        # old cache entries).
        "k": field.k,
        "gates": spec.num_gates() + impl.num_gates(),
        "cones": (
            (spec_stats.get("cones") or 0) + (impl_stats.get("cones") or 0)
        ),
    }
    prepass_stats = {
        side: stats["prepass"]
        for side, stats in (("spec", spec_stats), ("impl", impl_stats))
        if stats.get("prepass")
    }
    if prepass_stats:
        record["prepass"] = prepass_stats
    return record


def run_abstract(
    params: Dict,
    cache: Optional[CanonicalPolyCache] = None,
    counters: Optional[Dict[str, int]] = None,
    inflight=None,
) -> Dict:
    """Run one abstract job body: a single circuit's canonical polynomial."""
    counters = counters if counters is not None else _new_counters()
    field = _field_for(params)
    circuit = _load_circuit(params, "netlist")
    probe = abstract_canonical(
        circuit,
        field,
        output_word=params.get("output_word"),
        case2=params.get("case2", "linearized"),
        jobs=params.get("jobs"),
        cache=cache,
        counters=counters,
        inflight=inflight,
        prepass=params.get("prepass"),
    )
    payload = probe.payload
    polynomial = rehydrate_polynomial(payload, field)
    record = {
        "polynomial": _poly_str(polynomial, payload["output_word"]),
        "terms": len(polynomial),
        "case": payload["stats"]["case"],
        "cache_hit": probe.hit,
        "abstraction_stats": payload["stats"],
        "k": field.k,
        "gates": circuit.num_gates(),
        "cones": payload["stats"].get("cones") or 0,
    }
    if probe.prepass is not None:
        record["prepass"] = probe.prepass.stats()
    return record


def run_reveng(
    params: Dict,
    cache: Optional[CanonicalPolyCache] = None,
    counters: Optional[Dict[str, int]] = None,
    inflight=None,
) -> Dict:
    """Run one reveng job body: polynomial recovery or function identification.

    ``params["mode"]`` selects the engine: ``"poly"`` (default) sweeps
    candidate irreducible polynomials of degree ``m`` until the netlist's
    canonical polynomial collapses to ``spec_form``; ``"func"`` extracts the
    canonical polynomial over the *known* field (``k``/``modulus``) and
    matches it against the spec-form library. Shared engine behind batch
    ``reveng`` jobs and the service's ``POST /v1/reveng``.

    The reveng package is imported lazily: ``repro.reveng`` depends on
    ``repro.jobs.cache``, and a module-level import here would cycle through
    the :mod:`repro.jobs` package ``__init__``.
    """
    from ..reveng import identify_function, recover_polynomial

    counters = counters if counters is not None else _new_counters()
    mode = params.get("mode", "poly")
    case2 = params.get("case2", "linearized")
    jobs = params.get("jobs")
    prepass = params.get("prepass")
    circuit = _load_circuit(params, "netlist")

    if mode == "poly":
        degree = params.get("m")
        result = recover_polynomial(
            circuit,
            degree=int(degree) if degree is not None else None,
            spec_form=params.get("spec_form", "mul"),
            case2=case2,
            cache=cache,
            all_candidates=bool(params.get("all", False)),
            limit=int(params["limit"]) if params.get("limit") is not None else None,
            jobs=jobs,
            inflight=inflight,
            prepass=prepass,
        )
        body = {"mode": "poly"}
        body.update(result.to_dict())
    elif mode == "func":
        if params.get("k") is None:
            raise ValueError("reveng mode 'func' requires the field size 'k'")
        field = _field_for(params)
        outcome = identify_function(
            circuit,
            field,
            forms=params.get("forms") or (),
            case2=case2,
            cache=cache,
            jobs=jobs,
            inflight=inflight,
            prepass=prepass,
        )
        body = {"mode": "func", "k": field.k, "modulus": f"{field.modulus:#x}"}
        body.update(outcome.to_dict())
    else:
        raise ValueError(
            f"unknown reveng mode {mode!r}; expected 'poly' or 'func'"
        )

    # The engines time themselves; keep that under a distinct key so the
    # caller's job-level "seconds" (which includes parsing) survives the
    # record merge in execute_job.
    body["engine_seconds"] = body.pop("seconds", None)
    hits = body.get("cache_hits", 1 if body.get("cache_hit") else 0)
    probed = body.get("candidates_tried", 1)
    counters["hits"] += int(hits)
    counters["misses"] += int(probed) - int(hits)
    return body


def run_check_spec(params: Dict) -> Dict:
    """Run one check-spec job body (Lv-style ideal membership)."""
    field = _field_for(params)
    circuit = _load_circuit(params, "netlist")
    ring = word_ring_for(field, sorted(circuit.input_words))
    spec = parse_polynomial(params["spec_poly"], ring)
    outcome = check_ideal_membership(
        circuit, field, spec, output_word=params.get("output_word")
    )
    return {
        "verdict": outcome.status,
        "counterexample": outcome.counterexample,
        "spec_polynomial": str(spec),
        "details": {
            k: v
            for k, v in outcome.details.items()
            if isinstance(v, (int, float, str))
        },
    }


def _run_sleep(params: Dict) -> Dict:
    time.sleep(float(params["seconds"]))
    return {"slept": float(params["seconds"])}


def _run_crash(params: Dict, attempt: int) -> Dict:
    fail_attempts = int(params.get("fail_attempts", 1 << 30))
    if attempt <= fail_attempts:
        os._exit(66)  # simulate a hard worker death (OOM-kill / segfault)
    return {"survived_attempt": attempt}


def execute_job(
    job: Dict,
    cache_dir: Optional[str] = None,
    attempt: int = 1,
    seed: Optional[int] = None,
) -> Dict:
    """Run one batch job in-process and return its result record.

    Exceptions propagate — the pool wrapper converts them to ``failed``
    records; hard process deaths (the ``crash`` self-test, real OOM kills)
    surface to the parent as missing results and are retried there.

    The job runs under a fresh per-job trace collector (any collector the
    caller had active is restored afterwards and receives a merged copy of
    the job's telemetry). The returned record carries ``phases`` (derived
    from spans, backward-compatible schema), ``counters``/``gauges``
    (algebraic work), and the raw ``telemetry`` snapshot.
    """
    params = job.get("params", {})
    counters = _new_counters()
    cache = CanonicalPolyCache(cache_dir) if cache_dir else None
    job_seed = job.get("seed") if job.get("seed") is not None else seed

    previous = obs.active_collector()
    collector = obs.enable(obs.TraceCollector())
    obs.reset_context()  # a forked worker inherits the parent's current span
    job_type = job["type"]
    try:
        start = time.perf_counter()
        with obs.span("job", id=job["id"], type=job_type, attempt=attempt):
            if job_type == "verify":
                body = run_verify(params, cache, counters, job_seed)
            elif job_type == "abstract":
                body = run_abstract(params, cache, counters)
            elif job_type == "check-spec":
                body = run_check_spec(params)
            elif job_type == "reveng":
                body = run_reveng(params, cache, counters)
            elif job_type == "sleep":
                body = _run_sleep(params)
            elif job_type == "crash":
                body = _run_crash(params, attempt)
            else:
                raise ValueError(f"unknown job type {job_type!r}")
        seconds = time.perf_counter() - start
    finally:
        obs.disable()
        if previous is not None:
            obs.enable(previous)

    snapshot = collector.snapshot()
    if previous is not None:
        previous.merge(snapshot)
    phases = phases_from_spans(snapshot["spans"])
    for phase in _EXPECTED_PHASES.get(job_type, ()):
        phases.setdefault(phase, 0.0)

    result = {
        "id": job["id"],
        "type": job_type,
        "status": "ok",
        "attempt": attempt,
        "seconds": seconds,
        "phases": {k: round(v, 6) for k, v in phases.items()},
        "peak_rss_mb": round(_peak_rss_mb(), 1),
        "cache": dict(counters),
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "telemetry": snapshot,
    }
    result.update(body)
    return result
