"""Recovery of an unknown field polynomial ``P(x)`` from a bare netlist.

A Galois-field multiplier netlist fixes its field: the circuit computes
``Z = A * B mod P(x)`` for exactly one irreducible ``P``. When ``P`` is not
documented (third-party IP, decapped silicon, an obfuscated design), it can
be *recovered* by sweeping candidate irreducibles: abstract the netlist
over ``GF(2^m)`` built from each candidate ``Q`` and test whether the
canonical polynomial collapses to the spec form ``Z = A * B``. Under the
true ``P`` it does (Cor. 4.1 — the canonical polynomial is unique); under
a wrong ``Q`` the extraction still terminates but yields a sparse cloud of
``A^(2^s) * B^(2^t)`` cross terms, which the spec-form comparison rejects.

Candidates come from :func:`repro.gf.irreducible_polynomials` in
(weight, value) order — trinomials before pentanomials before denser forms.
Hardware overwhelmingly picks the lowest-weight irreducible available
(every NIST/SEC curve polynomial does), so the true modulus of a real
design surfaces within the first handful of probes even though the full
irreducible census is exponential in ``m``. Each probe routes through the
content-addressed canonical-polynomial cache, making a repeated sweep —
the second auditor to examine the same netlist — almost free.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dataclass_field
from itertools import islice
from typing import Dict, List, Optional

from ..circuits import Circuit
from ..gf import GF2m, irreducible_polynomials
from ..jobs.cache import CanonicalPolyCache
from ..obs import metrics, span
from ..core import word_ring_for
from ..prepass import PrepassError, apply_prepass, resolve_prepass
from .probe import ProbeRecord, probe_canonical, probe_words
from .specforms import SPEC_FORMS, build_form

__all__ = ["RevengResult", "infer_degree", "recover_polynomial"]


@dataclass
class RevengResult:
    """Outcome of one polynomial-recovery sweep."""

    degree: int
    spec_form: str
    matches: List[int]
    candidates_tried: int
    cache_hits: int
    seconds: float
    exhausted: bool
    probes: List[ProbeRecord] = dataclass_field(default_factory=list)

    @property
    def recovered(self) -> Optional[int]:
        """The first (lowest-weight) matching modulus, or None."""
        return self.matches[0] if self.matches else None

    def to_dict(self) -> Dict[str, object]:
        return {
            "degree": self.degree,
            "spec_form": self.spec_form,
            "recovered": (
                f"{self.recovered:#x}" if self.recovered is not None else None
            ),
            "matches": [f"{modulus:#x}" for modulus in self.matches],
            "candidates_tried": self.candidates_tried,
            "cache_hits": self.cache_hits,
            "seconds": round(self.seconds, 6),
            "exhausted": self.exhausted,
            "probes": [record.to_dict() for record in self.probes],
        }


def infer_degree(circuit: Circuit) -> int:
    """Field degree ``m`` implied by the netlist's word annotations.

    The output word's width is authoritative (a GF(2^m) datapath result is
    m bits); input word widths are the fallback for output-less fragments.
    Mixed widths mean the netlist is not a single-field datapath — the
    caller must pass ``m`` explicitly.
    """
    widths = {len(bits) for bits in circuit.output_words.values()}
    if not widths:
        widths = {len(bits) for bits in circuit.input_words.values()}
    if not widths:
        raise ValueError(
            f"circuit {circuit.name!r} has no word annotations; "
            "pass the field degree explicitly"
        )
    if len(widths) > 1:
        raise ValueError(
            f"circuit {circuit.name!r} has mixed word widths {sorted(widths)}; "
            "pass the field degree explicitly"
        )
    return widths.pop()


def recover_polynomial(
    circuit: Circuit,
    degree: Optional[int] = None,
    spec_form: str = "mul",
    case2: str = "linearized",
    cache: Optional[CanonicalPolyCache] = None,
    all_candidates: bool = False,
    limit: Optional[int] = None,
    inflight=None,
    prepass: Optional[bool] = None,
) -> RevengResult:
    """Sweep candidate irreducibles of ``degree`` until one explains the netlist.

    For each candidate ``Q`` (lowest weight first) the netlist's canonical
    polynomial over ``GF(2^degree)`` mod ``Q`` is extracted (through the
    cache) and compared against the expected ``spec_form`` polynomial.
    Matching moduli accumulate in ``matches``; by default the sweep stops
    at the first match (hardware uses the lowest-weight irreducible, and
    the canonical polynomial is unique per field, so the first hit is the
    answer). ``all_candidates=True`` keeps sweeping to census *every*
    matching modulus; ``limit`` caps the number of candidates probed either
    way — ``exhausted`` reports whether the census actually completed.

    ``prepass`` gates the structural pre-reduction (None defers to
    ``REPRO_PREPASS``). It runs *once* before the sweep, not per candidate:
    the canonical circuit is field-independent, and probing it means an
    obfuscated netlist's sweep hits the same cache entries a clean (or
    differently obfuscated) copy of the design populated.
    """
    if spec_form not in SPEC_FORMS:
        raise ValueError(
            f"unknown spec form {spec_form!r}; expected one of {sorted(SPEC_FORMS)}"
        )
    if degree is None:
        degree = infer_degree(circuit)
    if degree < 2:
        raise ValueError("field degree must be >= 2 for polynomial recovery")
    words = probe_words(circuit)
    if len(words) < SPEC_FORMS[spec_form]:
        raise ValueError(
            f"spec form {spec_form!r} needs {SPEC_FORMS[spec_form]} input "
            f"word(s), circuit {circuit.name!r} has {len(words)}"
        )

    start = time.perf_counter()
    probe_circuit = circuit
    if resolve_prepass(prepass):
        with span("prepass", gates=circuit.num_gates()):
            try:
                probe_circuit = apply_prepass(circuit).circuit
            except PrepassError:
                probe_circuit = circuit  # guard tripped: sweep the raw netlist
    metrics.counter_add(metrics.REVENG_SWEEPS, 1)
    matches: List[int] = []
    probes: List[ProbeRecord] = []
    exhausted = True
    candidates = irreducible_polynomials(degree)
    if limit is not None:
        if limit < 1:
            raise ValueError("candidate limit must be >= 1")
        candidates = islice(candidates, limit)

    with span("reveng_sweep", degree=degree, form=spec_form):
        probed = 0
        for modulus in candidates:
            field = GF2m(degree, modulus=modulus)
            polynomial, record = probe_canonical(
                probe_circuit,
                field,
                case2=case2,
                cache=cache,
                inflight=inflight,
            )
            probed += 1
            expected = build_form(
                spec_form, field, word_ring_for(field, words), words
            )
            matched = polynomial == expected
            record.extra["matched"] = matched
            probes.append(record)
            if matched:
                matches.append(modulus)
                metrics.counter_add(metrics.REVENG_MATCHES, 1)
                if not all_candidates:
                    exhausted = False
                    break
        else:
            # Swept every candidate the iterator produced; with a ``limit``
            # the census may still be incomplete.
            if limit is not None and probed >= limit:
                exhausted = False

    return RevengResult(
        degree=degree,
        spec_form=spec_form,
        matches=matches,
        candidates_tried=len(probes),
        cache_hits=sum(1 for record in probes if record.cache_hit),
        seconds=time.perf_counter() - start,
        exhausted=exhausted,
        probes=probes,
    )
