"""The shared prepass → abstraction pipeline stage.

:func:`abstract_canonical` is the single cache-aware abstraction engine
behind every entry point — ``verify_equivalence`` (CLI ``repro verify``
and trace replay), the batch executor's ``run_verify``/``run_abstract``
(batch manifests and the service scheduler both call those bodies), and
the reverse-engineering probes. It owns the full contract:

* resolve the prepass tri-state (explicit flag > ``REPRO_PREPASS`` env),
* run :func:`~repro.prepass.reduce.apply_prepass` under a ``prepass`` span,
  falling back to the raw circuit (and ticking
  ``prepass.guard_failures``) if the differential guard trips,
* key the cache on the **canonical** (prepassed) structure, falling back
  to the raw-structure key so entries written before the prepass existed
  — or by ``REPRO_PREPASS=0`` runs — still hit (a raw-key hit is promoted
  under the canonical key),
* tick ``cache.*`` totals plus the ``prepass.*`` canonical/raw key-hit
  split, and mirror both into the caller's ``counters`` dict so batch run
  logs and ``repro cache stats`` can break hits out by key kind.

Keeping this in :mod:`repro.prepass` (which imports only circuits, aig,
core and obs) lets both :mod:`repro.jobs.executor` and
:mod:`repro.verify.equivalence` share it without an import cycle; the
:mod:`repro.jobs.cache` helpers are imported lazily for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..circuits import Circuit
from ..core import extract_canonical
from ..gf import GF2m
from ..obs import metrics
from ..obs import redtrace
from ..obs.spans import span
from .reduce import PrepassError, PrepassResult, apply_prepass, resolve_prepass

__all__ = ["AbstractionProbe", "abstract_canonical"]


@dataclass
class AbstractionProbe:
    """One cache-aware canonical-polynomial lookup/computation."""

    payload: Dict
    hit: bool
    #: How the payload was obtained: ``"computed"`` (fresh extraction),
    #: ``"canonical"`` (hit under the prepassed-structure key), ``"raw"``
    #: (hit under the raw-structure key — fallback or prepass disabled), or
    #: ``"shared"`` (another in-process caller's in-flight result).
    source: str
    #: Prepass accounting when the prepass ran and survived its guard.
    prepass: Optional[PrepassResult]


def abstract_canonical(
    circuit: Circuit,
    field: GF2m,
    *,
    output_word: Optional[str] = None,
    case2: str = "linearized",
    cache=None,
    counters: Optional[Dict[str, int]] = None,
    inflight=None,
    prepass: Optional[bool] = None,
) -> AbstractionProbe:
    """Canonical-polynomial payload for a flat circuit: prepass + cache.

    ``cache`` is a :class:`~repro.jobs.cache.CanonicalPolyCache` (or None);
    ``inflight`` an optional single-flight group (``do(key, fn) ->
    (value, shared)``) for in-process dedup; ``prepass`` the tri-state
    override (None defers to ``REPRO_PREPASS``). On a miss the RATO and
    reduction work runs inside :func:`~repro.core.abstraction.extract_canonical`,
    whose spans feed the executor's phase timings.
    """
    use_prepass = resolve_prepass(prepass)
    target = circuit
    pres: Optional[PrepassResult] = None
    if use_prepass and not isinstance(circuit, Circuit):
        use_prepass = False  # hierarchical designs are abstracted block-wise
    if use_prepass:
        with span("prepass", gates=circuit.num_gates()):
            try:
                pres = apply_prepass(circuit)
                target = pres.circuit
            except PrepassError:
                # Guard tripped (already counted): verdicts must never
                # depend on the prepass, so abstract the raw netlist.
                target = circuit
                pres = None

    def compute() -> Dict:
        from ..jobs.cache import polynomial_payload

        return polynomial_payload(
            extract_canonical(target, field, output_word=output_word, case2=case2)
        )

    if cache is None and inflight is None:
        payload, hit, source = compute(), False, "computed"
    else:
        from ..jobs.cache import canonical_cache_key

        key = canonical_cache_key(target, field, case2=case2, output_word=output_word)
        fallback_keys: Tuple[str, ...] = ()
        if target is not circuit:
            raw_key = canonical_cache_key(
                circuit, field, case2=case2, output_word=output_word
            )
            if raw_key != key:
                fallback_keys = (raw_key,)

        def lookup() -> Tuple[Dict, str]:
            if cache is None:
                return compute(), "computed"
            return cache.lookup_or_compute(key, compute, fallback_keys=fallback_keys)

        if inflight is None:
            payload, src = lookup()
        else:
            (payload, src), shared = inflight.do(key, lookup)
            if shared:
                src = "shared"
        hit = src != "computed"
        if src == "primary":
            source = "canonical" if use_prepass else "raw"
        elif src == "fallback":
            source = "raw"
        else:
            source = src

    raw_hit = hit and (source == "raw" or not use_prepass)
    canonical_hit = hit and not raw_hit
    if counters is not None:
        counters["hits"] = counters.get("hits", 0) + int(hit)
        counters["misses"] = counters.get("misses", 0) + int(not hit)
        counters["hits_canonical"] = counters.get("hits_canonical", 0) + int(
            canonical_hit
        )
        counters["hits_raw"] = counters.get("hits_raw", 0) + int(raw_hit)
    metrics.counter_add(metrics.CACHE_HITS if hit else metrics.CACHE_MISSES, 1)
    if canonical_hit:
        metrics.counter_add(metrics.PREPASS_CANONICAL_KEY_HITS, 1)
    if raw_hit:
        metrics.counter_add(metrics.PREPASS_RAW_KEY_HITS, 1)
    rtw = redtrace.active_writer()
    if rtw is not None and (cache is not None or inflight is not None):
        # Environment-dependent by nature (a warm cache answers differently
        # than a cold one), so the replay differ never sees these: the
        # `repro verify --record` path runs cache-less. They exist for the
        # daemon's flight recorder.
        rtw.emit("cache_probe", key=key[:16], hit=bool(hit))
    return AbstractionProbe(
        payload=payload,
        hit=hit,
        source=source,
        prepass=pres,
    )
