"""Deterministic re-execution of REDTRACE recordings (``repro replay``).

A REDTRACE header is self-contained: it embeds the netlist text(s), their
SHA-256 digests and every parameter the original run was launched with
(op, field, seed, ...). Replay rebuilds the circuits from the embedded
text, re-runs the same engine entry point with an in-memory recorder,
and — under ``--diff`` — compares the fresh event stream against the
recorded one record-by-record. Events carry no timestamps and the engine
iterates in deterministic orders, so the byte-identical-replay contract
holds: any divergence means the engine made a *different decision*, which
is exactly what a kernel rewrite must not cause.

Comparison canonicalizes each event as sorted-key JSON with the
wall-clock header fields (:data:`repro.obs.redtrace.REPLAY_EXEMPT_FIELDS`)
stripped, which also erases the tuple-vs-list difference between a fresh
run's monomials and their JSON round trip.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Tuple

from ..circuits import read_netlist_text
from ..gf import GF2m
from . import redtrace

__all__ = [
    "ReplayError",
    "canonical_event",
    "diff_events",
    "execute_header",
    "netlist_sha256",
    "replay_file",
]


class ReplayError(ValueError):
    """A trace cannot be replayed (bad header, missing params, bad hash)."""


def netlist_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_event(event: Dict[str, Any]) -> str:
    """Stable comparison form: sorted-key JSON minus replay-exempt fields."""
    slim = {
        key: value
        for key, value in event.items()
        if key not in redtrace.REPLAY_EXEMPT_FIELDS
    }
    return json.dumps(slim, sort_keys=True)


def diff_events(
    recorded: List[Dict[str, Any]], fresh: List[Dict[str, Any]]
) -> Optional[Tuple[int, Optional[Dict], Optional[Dict]]]:
    """First divergence between two event streams, or None when identical.

    Returns ``(index, recorded_event, fresh_event)``; one side is None
    when a stream ended early.
    """
    for index in range(max(len(recorded), len(fresh))):
        a = recorded[index] if index < len(recorded) else None
        b = fresh[index] if index < len(fresh) else None
        if a is None or b is None:
            return index, a, b
        if canonical_event(a) != canonical_event(b):
            return index, a, b
    return None


def _require(params: Dict[str, Any], key: str) -> Any:
    value = params.get(key)
    if value is None:
        raise ReplayError(f"trace header params are missing {key!r}")
    return value


def _field_from(params: Dict[str, Any]) -> GF2m:
    k = int(_require(params, "k"))
    modulus = params.get("modulus")
    if isinstance(modulus, str):
        modulus = int(modulus, 0)
    return GF2m(k, modulus=modulus)


def _checked_circuit(params: Dict[str, Any], key: str):
    text = _require(params, f"{key}_text")
    expected = params.get(f"{key}_sha256")
    if expected is not None and netlist_sha256(text) != expected:
        raise ReplayError(
            f"embedded {key} netlist does not match its recorded sha256 — "
            "the trace file is corrupted"
        )
    return read_netlist_text(text, name=params.get(key) or f"<{key}>")


def execute_header(header: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Re-run the operation a REDTRACE header describes; returns the fresh
    event stream (header and end records included).

    Only ``abstraction``-method runs are replayable — the bit-level
    cross-checkers (sat/bdd/fraig) emit no reduction events.
    """
    op = header.get("op")
    params = header.get("params") or {}
    method = params.get("method", "abstraction")
    if method != "abstraction":
        raise ReplayError(
            f"only abstraction-method traces are replayable, got {method!r}"
        )
    if redtrace.active_writer() is not None:
        raise ReplayError("cannot replay while another recording is active")

    from ..core import extract_canonical
    from ..verify import verify_equivalence

    # Whether the recording ran the structural prepass is part of the
    # recorded computation (it changes the circuit the reduction sees), so
    # replay honors the stored flag instead of the live REPRO_PREPASS
    # environment. Traces recorded before the prepass existed carry no
    # "prepass" key and replay raw, exactly as they ran.
    prepass = bool(params.get("prepass", False))
    field = _field_from(params)
    writer = redtrace.start_recording(op=op, params=params, ring=False)
    try:
        if op == "verify":
            spec = _checked_circuit(params, "spec")
            impl = _checked_circuit(params, "impl")
            verify_equivalence(
                spec,
                impl,
                field,
                seed=params.get("seed"),
                prepass=prepass,
            )
        elif op == "abstract":
            circuit = _checked_circuit(params, "netlist")
            if prepass:
                from ..prepass import PrepassError, apply_prepass

                try:
                    circuit = apply_prepass(circuit).circuit
                except PrepassError:
                    pass  # guard tripped: replay against the raw netlist
            extract_canonical(
                circuit,
                field,
                output_word=params.get("output_word"),
                case2=params.get("case2", "linearized"),
            )
        else:
            raise ReplayError(f"cannot replay op {op!r}")
    finally:
        # close() appends the trailing `end` record; an in-memory writer
        # keeps the whole stream buffered, so collect after stopping.
        redtrace.stop_recording()
    return writer.events()


def replay_file(path: str) -> "Tuple[List[Dict], List[Dict]]":
    """Load + validate a trace file and re-execute it.

    Returns ``(recorded_events, fresh_events)``. Raises
    :class:`ReplayError` on a structurally invalid trace.
    """
    from .schema import validate_redtrace_file

    errors = validate_redtrace_file(path)
    if errors:
        raise ReplayError("; ".join(errors))
    recorded = redtrace.read_trace(path)
    fresh = execute_header(recorded[0])
    return recorded, fresh
