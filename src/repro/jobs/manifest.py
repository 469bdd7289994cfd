"""Batch manifest: a JSON description of verification jobs.

A manifest names a list of jobs plus optional shared defaults::

    {
      "defaults": {"k": 16, "timeout": 120, "retries": 1, "case2": "linearized"},
      "jobs": [
        {"id": "m16", "type": "verify", "spec": "spec.v", "impl": "impl.v"},
        {"type": "abstract", "netlist": "impl.v", "k": 16},
        {"type": "check-spec", "netlist": "impl.v", "spec_poly": "A*B"}
      ]
    }

Job types:

``verify``
    Abstract ``spec`` and ``impl`` to canonical polynomials and
    coefficient-match (the paper's flow). Fields: ``spec``, ``impl``,
    ``k``; optional ``modulus``, ``case2``, ``seed``, ``prepass``.
``abstract``
    Derive one circuit's canonical polynomial. Fields: ``netlist``, ``k``;
    optional ``modulus``, ``case2``, ``output_word``, ``prepass``.
``check-spec``
    Lv-style ideal membership against a textual spec polynomial. Fields:
    ``netlist``, ``spec_poly``, ``k``; optional ``modulus``, ``output_word``.
``reveng``
    Reverse engineering. ``mode: "poly"`` (the default) sweeps candidate
    irreducibles to recover an unknown field polynomial — fields:
    ``netlist``; optional ``m`` (degree, inferred from word widths when
    omitted), ``spec_form``, ``all`` (census every match), ``limit``.
    ``mode: "func"`` identifies which arithmetic function the netlist
    computes over a *known* field — fields: ``netlist``, ``k``; optional
    ``modulus``, ``forms``. Both accept ``case2`` and
    ``prepass`` (a boolean overriding the structural pre-reduction's
    ``REPRO_PREPASS`` default, accepted by verify/abstract too).
``sleep`` / ``crash``
    Operational self-test jobs: ``sleep`` blocks for ``seconds`` (exercises
    the per-job deadline), ``crash`` hard-exits the worker for its first
    ``fail_attempts`` attempts (exercises retry-on-crash accounting).

Relative netlist paths resolve against the manifest's directory, so a
manifest can live next to its netlists and be invoked from anywhere.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional

__all__ = ["BatchJob", "BatchManifest", "ManifestError", "load_manifest", "manifest_from_dict"]

JOB_TYPES = ("verify", "abstract", "check-spec", "reveng", "sleep", "crash")

_REQUIRED_FIELDS = {
    "verify": ("spec", "impl", "k"),
    "abstract": ("netlist", "k"),
    "check-spec": ("netlist", "spec_poly", "k"),
    "reveng": ("netlist",),
    "sleep": ("seconds",),
    "crash": (),
}

_PATH_FIELDS = ("spec", "impl", "netlist")

#: Per-type optional fields (beyond the engine-level timeout/retries/seed).
_OPTIONAL_FIELDS = {
    "verify": ("modulus", "case2", "prepass"),
    "abstract": ("modulus", "case2", "output_word", "prepass"),
    "check-spec": ("modulus", "output_word"),
    # "k"/"modulus" matter in func mode (known field); "m" in poly mode
    # (unknown field, degree only). Mode-dependent requirements are checked
    # at execution time, not manifest-load time.
    "reveng": (
        "mode", "m", "k", "modulus", "case2", "spec_form", "forms", "all",
        "limit", "prepass",
    ),
    "sleep": (),
    "crash": ("fail_attempts",),
}

_ENGINE_FIELDS = ("id", "type", "timeout", "retries", "seed")


class ManifestError(ValueError):
    """Malformed batch manifest."""


@dataclass
class BatchJob:
    """One unit of work for the batch engine."""

    id: str
    type: str
    params: Dict = dataclass_field(default_factory=dict)
    timeout: Optional[float] = None
    retries: int = 1
    seed: Optional[int] = None

    def to_dict(self) -> Dict:
        return {
            "id": self.id,
            "type": self.type,
            "params": dict(self.params),
            "timeout": self.timeout,
            "retries": self.retries,
            "seed": self.seed,
        }


@dataclass
class BatchManifest:
    """A parsed manifest: jobs with defaults applied and paths resolved."""

    jobs: List[BatchJob]
    defaults: Dict = dataclass_field(default_factory=dict)
    path: Optional[str] = None

    def __len__(self) -> int:
        return len(self.jobs)


def _validate_job(raw: Dict, index: int) -> None:
    job_type = raw.get("type")
    if job_type not in JOB_TYPES:
        raise ManifestError(
            f"job #{index}: unknown type {job_type!r}; expected one of "
            f"{', '.join(JOB_TYPES)}"
        )
    for field_name in _REQUIRED_FIELDS[job_type]:
        if field_name not in raw:
            raise ManifestError(
                f"job #{index} ({job_type}): missing required field "
                f"{field_name!r}"
            )
    allowed = set(_ENGINE_FIELDS) | set(_REQUIRED_FIELDS[job_type]) | set(
        _OPTIONAL_FIELDS[job_type]
    )
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ManifestError(
            f"job #{index} ({job_type}): unknown field(s) {', '.join(unknown)}"
        )


def manifest_from_dict(
    data: Dict, base_dir: Optional[str] = None, path: Optional[str] = None
) -> BatchManifest:
    """Build a :class:`BatchManifest` from decoded JSON."""
    if not isinstance(data, dict):
        raise ManifestError("manifest root must be a JSON object")
    raw_jobs = data.get("jobs")
    if not isinstance(raw_jobs, list) or not raw_jobs:
        raise ManifestError("manifest must contain a non-empty 'jobs' list")
    defaults = data.get("defaults") or {}
    if not isinstance(defaults, dict):
        raise ManifestError("'defaults' must be a JSON object")

    jobs: List[BatchJob] = []
    seen_ids = set()
    for index, raw in enumerate(raw_jobs):
        if not isinstance(raw, dict):
            raise ManifestError(f"job #{index} must be a JSON object")
        merged = {**defaults, **raw}
        job_type = merged.get("type")
        # Defaults apply only where the type accepts the field (a shared
        # "k" default must not trip validation of a sleep job).
        if job_type in JOB_TYPES:
            allowed = (
                set(_ENGINE_FIELDS)
                | set(_REQUIRED_FIELDS[job_type])
                | set(_OPTIONAL_FIELDS[job_type])
            )
            merged = {
                k: v
                for k, v in merged.items()
                if k in allowed or k in raw
            }
        _validate_job(merged, index)
        job_id = str(merged.get("id") or f"job{index:03d}")
        if job_id in seen_ids:
            raise ManifestError(f"duplicate job id {job_id!r}")
        seen_ids.add(job_id)
        params = {
            k: v for k, v in merged.items() if k not in _ENGINE_FIELDS
        }
        if base_dir:
            for field_name in _PATH_FIELDS:
                value = params.get(field_name)
                if isinstance(value, str) and not os.path.isabs(value):
                    params[field_name] = os.path.normpath(
                        os.path.join(base_dir, value)
                    )
        timeout = merged.get("timeout")
        retries = merged.get("retries", 1)
        seed = merged.get("seed")
        jobs.append(
            BatchJob(
                id=job_id,
                type=str(merged["type"]),
                params=params,
                timeout=float(timeout) if timeout is not None else None,
                retries=int(retries),
                seed=int(seed) if seed is not None else None,
            )
        )
    return BatchManifest(jobs=jobs, defaults=dict(defaults), path=path)


def load_manifest(path: str) -> BatchManifest:
    """Parse a manifest file; relative netlist paths resolve next to it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        raise ManifestError(f"manifest file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest {path} is not valid JSON: {exc}") from None
    return manifest_from_dict(
        data, base_dir=os.path.dirname(os.path.abspath(path)), path=path
    )
