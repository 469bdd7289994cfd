"""Top-level equivalence verification (the paper's main flow).

``verify_equivalence(spec, impl, field)`` abstracts both designs to their
canonical word-level polynomials ``F1, F2`` and decides equivalence by
coefficient matching — Section 6's methodology. Either side may be a flat
:class:`~repro.circuits.Circuit` or a
:class:`~repro.circuits.HierarchicalCircuit` (abstracted block-by-block and
composed at word level, as in the Montgomery experiments of Table 2).

This is *the* pipeline: flat sides route through
:func:`repro.prepass.abstract_canonical` — structural prepass, then the
content-addressed cache (canonical key first, raw key fallback), then
:func:`~repro.core.extract_canonical` — which is the same engine the batch
executor and the service scheduler call, so CLI, batch, and service cannot
diverge. The prepass is function-preserving, and by Corollary 4.1 a
circuit's canonical polynomial is unique, so prepass-on and prepass-off
runs produce identical polynomials and verdicts; counterexample search
always simulates the *original* circuits.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Union

from ..algebra import Polynomial
from ..circuits import Circuit, HierarchicalCircuit, simulate_words
from ..core import abstract_hierarchy, extract_canonical, word_ring_for
from ..gf import GF2m
from ..obs.spans import span
from .counterexample import find_nonzero_point
from .outcome import EquivalenceOutcome

__all__ = [
    "verify_equivalence",
    "canonical_polynomial",
    "counterexample_by_simulation",
]

Design = Union[Circuit, HierarchicalCircuit]


def canonical_polynomial(
    design: Design,
    field: GF2m,
    output_word: Optional[str] = None,
    case2: str = "linearized",
) -> "tuple[Polynomial, Dict[str, object]]":
    """Canonical polynomial of a flat or hierarchical design, plus stats."""
    if isinstance(design, HierarchicalCircuit):
        result = abstract_hierarchy(design, field, case2=case2)
        if output_word is None:
            if len(result.polynomials) != 1:
                raise ValueError("output_word must be named for multi-word designs")
            output_word = next(iter(result.polynomials))
        stats: Dict[str, object] = {
            "blocks": {
                name: {
                    "case": block.stats.case,
                    "seconds": block.stats.seconds,
                    "peak_terms": block.stats.peak_terms,
                    "gates": block.stats.gate_count,
                }
                for name, block in result.block_results.items()
            },
            "compose_seconds": result.compose_seconds,
            "seconds": result.total_seconds,
        }
        return result.polynomials[output_word], stats
    result = extract_canonical(design, field, output_word=output_word, case2=case2)
    stats = {
        "case": result.stats.case,
        "seconds": result.stats.seconds,
        "peak_terms": result.stats.peak_terms,
        "gates": result.stats.gate_count,
    }
    return result.polynomial, stats


def _input_words(design: Design) -> "list[str]":
    if isinstance(design, HierarchicalCircuit):
        return list(design.input_words)
    return list(design.input_words)


def _simulate_design(
    design: Design, stimuli: Dict[str, List[int]]
) -> Dict[str, List[int]]:
    if isinstance(design, HierarchicalCircuit):
        return design.simulate_words(stimuli)
    return simulate_words(design, stimuli)


def counterexample_by_simulation(
    spec: Design,
    impl: Design,
    field: GF2m,
    spec_words: List[str],
    word_map: Dict[str, str],
    spec_output: Optional[str] = None,
    impl_output: Optional[str] = None,
    batches: int = 8,
    lanes: int = 512,
    rng: Optional[random.Random] = None,
) -> Optional[Dict[str, int]]:
    """Find a differing input by random batched simulation.

    Far cheaper than evaluating dense canonical polynomials: one
    bit-parallel sweep checks hundreds of points. Canonical polynomials that
    differ correspond to functions that differ, and injected-bug differences
    are rarely confined to a negligible input fraction, so a few thousand
    samples almost always suffice; callers fall back to the algebraic search
    when this returns None. Pass ``rng`` for a reproducible search (the
    default generator is seeded, so repeat runs already agree).
    """
    rng = rng or random.Random(0xDAC14)
    reverse_map = {word_map.get(w, w): w for w in (word_map or {})}
    impl_words = [reverse_map.get(w, w) for w in spec_words]
    q = field.order
    exhaustive_points = None
    if q ** len(spec_words) <= lanes * batches:
        from itertools import product as cartesian_product

        exhaustive_points = list(
            cartesian_product(range(q), repeat=len(spec_words))
        )
    for batch in range(batches):
        if exhaustive_points is not None:
            lo = batch * lanes
            points = exhaustive_points[lo : lo + lanes]
            if not points:
                break
            stimuli = {
                w: [p[i] for p in points] for i, w in enumerate(spec_words)
            }
        else:
            stimuli = {
                w: [rng.randrange(q) for _ in range(lanes)] for w in spec_words
            }
        spec_results = _simulate_design(spec, stimuli)
        spec_out = spec_results[spec_output] if spec_output else next(
            iter(spec_results.values())
        )
        impl_stimuli = {
            impl_words[i]: stimuli[w] for i, w in enumerate(spec_words)
        }
        impl_results = _simulate_design(impl, impl_stimuli)
        impl_out = impl_results[impl_output] if impl_output else next(
            iter(impl_results.values())
        )
        for lane, (s, m) in enumerate(zip(spec_out, impl_out)):
            if s != m:
                return {w: stimuli[w][lane] for w in spec_words}
    return None


def _side_polynomial(
    design: Design,
    field: GF2m,
    output_word: Optional[str],
    case2: str,
    cache,
    counters,
    inflight,
    prepass: Optional[bool],
) -> "tuple[Polynomial, Dict[str, object], bool]":
    """One side's canonical polynomial through the shared pipeline stage.

    Flat circuits route through :func:`repro.prepass.abstract_canonical`
    (prepass + canonical/raw cache keys + extraction); hierarchical designs
    keep the block-wise composition path (already decomposed, no cache).
    Returns ``(polynomial, stats, cache_hit)``.
    """
    if isinstance(design, HierarchicalCircuit):
        poly, stats = canonical_polynomial(design, field, output_word, case2)
        return poly, stats, False

    from ..prepass import abstract_canonical
    from ..jobs.cache import rehydrate_polynomial

    probe = abstract_canonical(
        design,
        field,
        output_word=output_word,
        case2=case2,
        cache=cache,
        counters=counters,
        inflight=inflight,
        prepass=prepass,
    )
    poly = rehydrate_polynomial(probe.payload, field)
    stats: Dict[str, object] = dict(probe.payload["stats"])
    stats["cache_hit"] = probe.hit
    stats["output_word"] = probe.payload["output_word"]
    if probe.prepass is not None:
        stats["prepass"] = probe.prepass.stats()
    return poly, stats, probe.hit


def verify_equivalence(
    spec: Design,
    impl: Design,
    field: GF2m,
    spec_output: Optional[str] = None,
    impl_output: Optional[str] = None,
    word_map: Optional[Dict[str, str]] = None,
    case2: str = "linearized",
    seed: Optional[int] = None,
    cache=None,
    counters: Optional[Dict[str, int]] = None,
    inflight=None,
    prepass: Optional[bool] = None,
) -> EquivalenceOutcome:
    """Decide whether two designs implement the same word-level function.

    ``word_map`` renames impl input words to spec input words when the
    designs use different names (identity by default). Output words may
    differ in name (``Z`` vs ``G``); only the polynomials are compared.
    ``seed`` makes the counterexample search reproducible across batch
    runs; the default keeps the historical fixed-seed behavior.

    ``cache`` (a :class:`~repro.jobs.cache.CanonicalPolyCache`),
    ``counters`` (mutated hit/miss accounting dict) and ``inflight``
    (single-flight group) opt each flat side into the content-addressed
    cache — the batch executor and the service pass them. ``prepass``
    overrides the structural pre-reduction tri-state (None defers to
    ``REPRO_PREPASS``, which defaults on).
    """
    start = time.perf_counter()
    spec_words = _input_words(spec)
    impl_words = _input_words(impl)
    word_map = word_map or {}
    translated = sorted(word_map.get(w, w) for w in impl_words)
    if translated != sorted(spec_words):
        raise ValueError(
            f"input words do not match: spec {sorted(spec_words)}, "
            f"impl {translated} (after word_map)"
        )

    with span("abstract", side="spec"):
        spec_poly, spec_stats, spec_hit = _side_polynomial(
            spec, field, spec_output, case2, cache, counters, inflight, prepass
        )
    with span("abstract", side="impl"):
        impl_poly, impl_stats, impl_hit = _side_polynomial(
            impl, field, impl_output, case2, cache, counters, inflight, prepass
        )

    with span("coeff_match"):
        # Re-home both polynomials into one shared ring over the spec's words.
        ring = word_ring_for(field, sorted(spec_words))

        def rehome(poly: Polynomial, rename: Dict[str, str]) -> Polynomial:
            data = {}
            source = poly.ring
            for monomial, coeff in poly.terms.items():
                key = tuple(
                    sorted(
                        (ring.index[rename.get(source.variables[v], source.variables[v])], e)
                        for v, e in monomial
                    )
                )
                data[key] = coeff
            return Polynomial(ring, data)

        spec_canonical = rehome(spec_poly, {})
        impl_canonical = rehome(impl_poly, word_map)
        equivalent = spec_canonical == impl_canonical
    elapsed = time.perf_counter() - start
    details = {
        "spec": spec_stats,
        "impl": impl_stats,
        "spec_polynomial": str(spec_canonical),
        "impl_polynomial": str(impl_canonical),
        "spec_terms": len(spec_canonical),
        "impl_terms": len(impl_canonical),
        "spec_cache_hit": spec_hit,
        "impl_cache_hit": impl_hit,
    }
    if equivalent:
        return EquivalenceOutcome("equivalent", "abstraction", None, elapsed, details)
    with span("counterexample_search"):
        counterexample = counterexample_by_simulation(
            spec,
            impl,
            field,
            list(spec_words),
            word_map,
            spec_output,
            impl_output,
            rng=random.Random(0xDAC14 if seed is None else seed),
        )
        if counterexample is None:
            # Algebraic fallback: search the nonzero difference polynomial.
            difference = spec_canonical + impl_canonical
            counterexample = find_nonzero_point(
                difference,
                exhaustive_limit=1 << 12,
                samples=500,
                rng=random.Random(2014 if seed is None else seed + 1),
            )
    return EquivalenceOutcome(
        "not_equivalent", "abstraction", counterexample, elapsed, details
    )
