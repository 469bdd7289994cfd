"""Identification of what arithmetic function an unknown netlist computes.

Given a netlist and its field (recover the field first with
:mod:`repro.reveng.polyrec` if unknown), extract the canonical polynomial
once and compare it against the library of known spec forms —
multiplication, Montgomery multiplication, addition, squaring, inversion
and friends (:mod:`repro.reveng.specforms`). Because the canonical
polynomial is a *complete* functional fingerprint, a match is a proof of
function, not a statistical guess: no amount of gate-level obfuscation
changes it, and two structurally unrelated multipliers (Mastrovito vs.
flattened Montgomery) identify identically.

When nothing in the library matches, the result still carries a coarse
structural classification of the polynomial (linearized / quadratic /
nonlinear) and its term count — enough to tell a permutation layer from a
scrambled S-box.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..circuits import Circuit
from ..gf import GF2m
from ..jobs.cache import CanonicalPolyCache
from ..obs import metrics, span
from ..prepass import PrepassError, apply_prepass, resolve_prepass
from .probe import ProbeRecord, probe_canonical, probe_words
from .specforms import classify, match_forms

__all__ = ["IdentifyResult", "identify_function"]

#: Polynomial strings longer than this are elided in result records.
_MAX_POLY_CHARS = 2000


@dataclass
class IdentifyResult:
    """Outcome of one function-identification probe."""

    matches: List[str]
    classification: str
    polynomial: str
    terms: int
    probe: ProbeRecord
    seconds: float

    @property
    def identified(self) -> Optional[str]:
        """The first matching spec form, or None when only classified."""
        return self.matches[0] if self.matches else None

    def to_dict(self) -> Dict[str, object]:
        return {
            "identified": self.identified,
            "matches": list(self.matches),
            "classification": self.classification,
            "polynomial": self.polynomial,
            "terms": self.terms,
            "cache_hit": self.probe.cache_hit,
            "seconds": round(self.seconds, 6),
        }


def identify_function(
    circuit: Circuit,
    field: GF2m,
    forms: Sequence[str] = (),
    case2: str = "linearized",
    cache: Optional[CanonicalPolyCache] = None,
    inflight=None,
    prepass: Optional[bool] = None,
) -> IdentifyResult:
    """Match ``circuit``'s canonical polynomial against known spec forms.

    ``forms`` restricts the library to specific names (default: every form
    whose arity matches the circuit's input word count). All matching forms
    are reported — e.g. over small fields ``square`` and ``mul`` can both
    hold when the circuit squares a word that is its only input. ``prepass``
    gates the structural pre-reduction (None defers to ``REPRO_PREPASS``);
    probing the canonical circuit means an obfuscated netlist identifies
    through the same cache entry as a clean copy.
    """
    start = time.perf_counter()
    words = probe_words(circuit)
    probe_circuit = circuit
    if resolve_prepass(prepass):
        with span("prepass", gates=circuit.num_gates()):
            try:
                probe_circuit = apply_prepass(circuit).circuit
            except PrepassError:
                probe_circuit = circuit  # guard tripped: probe the raw netlist
    with span("reveng_identify", k=field.k):
        polynomial, record = probe_canonical(
            probe_circuit, field, case2=case2, cache=cache, inflight=inflight
        )
        matches = match_forms(polynomial, field, words, forms=forms)
    if matches:
        metrics.counter_add(metrics.REVENG_IDENTIFICATIONS, 1)
    text = str(polynomial)
    if len(text) > _MAX_POLY_CHARS:
        text = text[:_MAX_POLY_CHARS] + f"... [{len(polynomial)} terms]"
    return IdentifyResult(
        matches=matches,
        classification=classify(polynomial),
        polynomial=text,
        terms=len(polynomial),
        probe=record,
        seconds=time.perf_counter() - start,
    )
