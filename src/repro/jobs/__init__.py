"""Batch verification job engine.

Scales the paper's flow out across verification *instances*: a manifest of
jobs (verify pair / abstract single / check-spec) runs on a multiprocessing
worker pool with per-job wall-clock deadlines, retry-on-crash and a JSONL
run log, layered over a content-addressed disk cache of canonical
word-level polynomials (SHA-256 of normalized netlist + field modulus +
Case-2 mode), so unchanged circuits are never re-abstracted.
"""

from .cache import (
    CanonicalPolyCache,
    canonical_cache_key,
    default_cache_dir,
    locking_available,
    normalize_circuit_text,
    polynomial_payload,
    rehydrate_polynomial,
)
from .executor import execute_job
from .manifest import (
    BatchJob,
    BatchManifest,
    ManifestError,
    load_manifest,
    manifest_from_dict,
)
from .plane import PoolError, PoolResult
from .runner import BatchReport, run_batch

__all__ = [
    "BatchJob",
    "BatchManifest",
    "BatchReport",
    "CanonicalPolyCache",
    "ManifestError",
    "PoolError",
    "PoolResult",
    "canonical_cache_key",
    "default_cache_dir",
    "execute_job",
    "load_manifest",
    "locking_available",
    "manifest_from_dict",
    "normalize_circuit_text",
    "polynomial_payload",
    "rehydrate_polynomial",
    "run_batch",
]
