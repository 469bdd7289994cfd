"""Cache-aware canonical-polynomial probes for reverse engineering.

Every reveng engine asks the same primitive question many times: *what is
the canonical polynomial of this netlist over GF(2^m) with modulus P?* A
recovery sweep asks it once per candidate modulus; an identification run
asks it once. Each answer routes through the content-addressed
:class:`~repro.jobs.cache.CanonicalPolyCache`, so repeating a sweep — or
probing an already-verified design — is nearly free: the cache key is a
pure function of (netlist structure, modulus, case2), exactly the tuple a
probe varies.

Probes tick both the shared ``cache.*`` counters and the reveng-specific
``reveng.candidates_probed`` / ``reveng.cache_hits`` counters, so
``/metrics`` distinguishes sweep traffic from ordinary verification
traffic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional, Tuple

from ..algebra import Polynomial
from ..circuits import Circuit
from ..core import extract_canonical
from ..gf import GF2m
from ..jobs.cache import (
    CanonicalPolyCache,
    canonical_cache_key,
    polynomial_payload,
    rehydrate_polynomial,
)
from ..obs import metrics

__all__ = ["ProbeRecord", "probe_canonical", "probe_words"]


@dataclass
class ProbeRecord:
    """Cost accounting for one canonical-polynomial probe."""

    modulus: int
    cache_hit: bool
    seconds: float
    terms: int
    case: str = "1"
    extra: Dict[str, object] = dataclass_field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        record = {
            "modulus": f"{self.modulus:#x}",
            "cache_hit": self.cache_hit,
            "seconds": round(self.seconds, 6),
            "terms": self.terms,
            "case": self.case,
        }
        record.update(self.extra)
        return record


def probe_canonical(
    circuit: Circuit,
    field: GF2m,
    case2: str = "linearized",
    output_word: Optional[str] = None,
    cache: Optional[CanonicalPolyCache] = None,
    inflight=None,
) -> Tuple[Polynomial, ProbeRecord]:
    """Canonical polynomial of ``circuit`` under ``field``, cache-aware.

    Returns ``(polynomial, record)`` where the record carries the probe's
    cost (wall seconds, cache hit, term count). Mirrors the executor's
    ``_cached_canonical`` contract: ``inflight`` is an optional
    single-flight group for in-process dedup.
    """
    start = time.perf_counter()

    def compute() -> Dict:
        result = extract_canonical(
            circuit, field, output_word=output_word, case2=case2
        )
        return polynomial_payload(result)

    def compute_cached() -> Tuple[Dict, bool]:
        if cache is None:
            return compute(), False
        return cache.get_or_compute(key, compute)

    if cache is None and inflight is None:
        payload, hit = compute(), False
    else:
        key = canonical_cache_key(
            circuit, field, case2=case2, output_word=output_word
        )
        if inflight is None:
            payload, hit = cache.get_or_compute(key, compute)
        else:
            (payload, hit), shared = inflight.do(key, compute_cached)
            hit = hit or shared
    polynomial = rehydrate_polynomial(payload, field)

    metrics.counter_add(metrics.CACHE_HITS if hit else metrics.CACHE_MISSES, 1)
    metrics.counter_add(metrics.REVENG_CANDIDATES_PROBED, 1)
    if hit:
        metrics.counter_add(metrics.REVENG_CACHE_HITS, 1)
    record = ProbeRecord(
        modulus=field.modulus,
        cache_hit=hit,
        seconds=time.perf_counter() - start,
        terms=len(polynomial),
        case=str(payload["stats"]["case"]),
    )
    return polynomial, record


def probe_words(circuit: Circuit) -> List[str]:
    """The circuit's input words in the canonical (sorted) probe order."""
    return sorted(circuit.input_words)
