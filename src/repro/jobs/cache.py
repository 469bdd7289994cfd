"""Content-addressed cache of canonical word-level polynomials.

The abstraction ``circuit -> Z = G(A, B, ...)`` is a pure function of the
circuit *structure*, the field, and the Case-2 strategy — so its result can
be keyed by content and reused across runs. Keys are SHA-256 digests of a
normalized netlist text (structure only: formatting, comments and gate
declaration order do not perturb the key) concatenated with the field
modulus and the ``case2`` mode. Values are JSON documents holding the
canonical polynomial's terms by variable *name*, so they rehydrate into any
compatible ring.

This is the hot path for regression and bug-hunting workloads: verifying
one golden spec against N candidate implementations abstracts the spec
exactly once — concurrent workers coordinate through a per-key advisory
lock (``fcntl.flock``), so even a cold cache computes each distinct
abstraction a single time per machine.

Layout under the cache root::

    objects/<2-char prefix>/<sha256>.json    one canonical polynomial each
    locks/<sha256>.lock                      per-key computation locks
    stats.json                               cumulative hit/miss counters
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional, Tuple

from ..algebra import Polynomial
from ..circuits import Circuit
from ..core import AbstractionResult, word_ring_for
from ..gf import GF2m

try:  # POSIX advisory locks; degrade to lock-free on exotic platforms
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "CanonicalPolyCache",
    "canonical_cache_key",
    "default_cache_dir",
    "locking_available",
    "normalize_circuit_text",
    "polynomial_payload",
    "rehydrate_polynomial",
]


def locking_available() -> bool:
    """Whether per-key advisory locks are supported on this platform.

    When False the cache runs in *degraded (lock-free) mode*: concurrent
    callers racing on the same missing key may each compute it
    (at-least-once instead of exactly-once), but reads stay consistent —
    values publish via atomic rename, so a reader sees either nothing or a
    complete document, never a torn write.
    """
    return fcntl is not None


@contextmanager
def _exclusive_lock(lock_path: Path) -> Iterator[bool]:
    """Hold an exclusive advisory lock on ``lock_path`` (best effort).

    Yields True while a real ``flock`` is held. Without ``fcntl`` this
    degrades to a no-op that yields False — no lock file is even created,
    callers simply lose the exactly-once guarantee.
    """
    if fcntl is None:
        yield False
        return
    with open(lock_path, "w") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield True
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)

_KEY_SCHEMA = "repro-canonical-poly-v1"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro/canonical``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "canonical"


def normalize_circuit_text(circuit: Circuit) -> str:
    """Canonical text form of a netlist's *structure*.

    Two files that parse to the same DAG (same nets, gates, ports and word
    annotations) normalize identically regardless of formatting, comments,
    or the order gates appear in the source; any structural edit — a gate
    type swap, a rewired input, a renamed net — changes the text and hence
    the content address.
    """
    lines = ["inputs " + " ".join(circuit.inputs)]
    lines.append("outputs " + " ".join(circuit.outputs))
    for word in sorted(circuit.input_words):
        lines.append(f"word_in {word} " + " ".join(circuit.input_words[word]))
    for word in sorted(circuit.output_words):
        lines.append(f"word_out {word} " + " ".join(circuit.output_words[word]))
    for gate in sorted(circuit.gates, key=lambda g: g.output):
        lines.append(
            f"gate {gate.output} {gate.gate_type.value} " + " ".join(gate.inputs)
        )
    return "\n".join(lines) + "\n"


def canonical_cache_key(
    circuit: Circuit,
    field: GF2m,
    case2: str = "linearized",
    output_word: Optional[str] = None,
) -> str:
    """SHA-256 content address for one ``(circuit, field, case2)`` abstraction."""
    header = (
        f"{_KEY_SCHEMA}\n"
        f"k={field.k}\n"
        f"modulus={field.modulus:#x}\n"
        f"case2={case2}\n"
        f"output={output_word or '*'}\n"
    )
    digest = hashlib.sha256()
    digest.update(header.encode())
    digest.update(normalize_circuit_text(circuit).encode())
    return digest.hexdigest()


def polynomial_payload(result: AbstractionResult) -> Dict:
    """JSON-serialisable cache value for an :class:`AbstractionResult`."""
    variables = result.ring.variables
    terms = [
        [[[variables[var], exp] for var, exp in monomial], coeff]
        for monomial, coeff in result.polynomial.sorted_terms()
    ]
    return {
        "schema": _KEY_SCHEMA,
        "output_word": result.output_word,
        "input_words": list(result.input_words),
        "terms": terms,
        "stats": {
            "case": result.stats.case,
            "seconds": result.stats.seconds,
            "peak_terms": result.stats.peak_terms,
            "substitutions": result.stats.substitutions,
            "gates": result.stats.gate_count,
        },
    }


def rehydrate_polynomial(payload: Dict, field: GF2m) -> Polynomial:
    """Rebuild the canonical polynomial from a cache value."""
    ring = word_ring_for(field, list(payload["input_words"]))
    data = {}
    for monomial, coeff in payload["terms"]:
        key = tuple(sorted((ring.index[name], exp) for name, exp in monomial))
        data[key] = coeff
    return Polynomial(ring, data)


class CanonicalPolyCache:
    """Disk-persistent, content-addressed store of canonical polynomials."""

    def __init__(self, root: "Optional[os.PathLike | str]" = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.objects = self.root / "objects"
        self.locks = self.root / "locks"
        self.stats_path = self.root / "stats.json"

    # -- object store --------------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.objects / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict]:
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError):
            return None  # torn write or unreadable entry == miss

    def put(self, key: str, payload: Dict) -> None:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(payload, created=time.time(), key=key)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp, path)  # atomic publish; readers never see a torn file
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def get_or_compute(
        self, key: str, compute: Callable[[], Dict]
    ) -> Tuple[Dict, bool]:
        """Cached payload for ``key``, computing (once) on miss.

        Returns ``(payload, hit)``. Concurrent callers racing on the same
        missing key serialize on a per-key file lock: exactly one runs
        ``compute``, the rest block and then read its published result. In
        degraded mode (no ``fcntl`` — see :func:`locking_available`) racers
        may each compute, but every caller still returns a correct value and
        the atomic publish keeps reads untorn.
        """
        payload, source = self.lookup_or_compute(key, compute)
        return payload, source != "computed"

    def lookup_or_compute(
        self,
        key: str,
        compute: Callable[[], Dict],
        fallback_keys: "Tuple[str, ...] | tuple" = (),
    ) -> Tuple[Dict, str]:
        """Like :meth:`get_or_compute`, with fallback keys and hit attribution.

        Returns ``(payload, source)`` where source is ``"primary"`` (hit on
        ``key``), ``"fallback"`` (hit on one of ``fallback_keys``), or
        ``"computed"``. The prepass pipeline keys on the *canonical*
        (prepassed) structure and passes the raw-structure key as fallback,
        so entries written before the prepass existed — or by
        ``REPRO_PREPASS=0`` runs — still answer; a fallback hit is promoted
        under the primary key so the next lookup hits directly.
        """
        payload = self.get(key)
        if payload is not None:
            return payload, "primary"
        for fallback in fallback_keys:
            payload = self.get(fallback)
            if payload is not None:
                self.put(key, payload)
                return payload, "fallback"
        if fcntl is not None:
            self.locks.mkdir(parents=True, exist_ok=True)
        with _exclusive_lock(self.locks / f"{key}.lock"):
            payload = self.get(key)  # a peer may have published meanwhile
            if payload is not None:
                return payload, "primary"
            payload = compute()
            self.put(key, payload)
            return payload, "computed"

    # -- counters ------------------------------------------------------------

    _STAT_KEYS = ("hits", "misses", "hits_canonical", "hits_raw")

    def record(
        self,
        hits: int = 0,
        misses: int = 0,
        hits_canonical: int = 0,
        hits_raw: int = 0,
    ) -> None:
        """Accumulate hit/miss counters (atomic read-modify-write).

        ``hits_canonical``/``hits_raw`` break total hits out by which key
        kind answered: the prepassed canonical-structure key vs the
        raw-structure key (fallback lookups and ``REPRO_PREPASS=0`` runs).
        """
        if not hits and not misses:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        with _exclusive_lock(self.root / "stats.lock"):
            counters = {k: 0 for k in self._STAT_KEYS}
            try:
                with open(self.stats_path, "r", encoding="utf-8") as handle:
                    stored = json.load(handle)
                counters.update(
                    {k: int(stored.get(k, 0)) for k in self._STAT_KEYS}
                )
            except (FileNotFoundError, json.JSONDecodeError, OSError):
                pass
            counters["hits"] += hits
            counters["misses"] += misses
            counters["hits_canonical"] += hits_canonical
            counters["hits_raw"] += hits_raw
            counters["updated"] = time.time()
            fd, tmp = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(counters, handle)
            os.replace(tmp, self.stats_path)

    def stats(self) -> Dict:
        """Entry count, on-disk bytes, and cumulative hit/miss counters."""
        entries = 0
        size = 0
        if self.objects.is_dir():
            for path in self.objects.glob("*/*.json"):
                entries += 1
                try:
                    size += path.stat().st_size
                except OSError:
                    pass
        counters = {k: 0 for k in self._STAT_KEYS}
        try:
            with open(self.stats_path, "r", encoding="utf-8") as handle:
                stored = json.load(handle)
            counters.update({k: int(stored.get(k, 0)) for k in self._STAT_KEYS})
        except (FileNotFoundError, json.JSONDecodeError, OSError):
            pass
        return {
            "cache_dir": str(self.root),
            "entries": entries,
            "bytes": size,
            "hits": counters["hits"],
            "misses": counters["misses"],
            "hits_canonical": counters["hits_canonical"],
            "hits_raw": counters["hits_raw"],
        }

    def clear(self) -> int:
        """Delete every cached object (and counters); returns entries removed."""
        removed = 0
        if self.objects.is_dir():
            for path in self.objects.glob("*/*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        if self.locks.is_dir():
            for path in self.locks.glob("*.lock"):
                try:
                    path.unlink()
                except OSError:
                    pass
        try:
            self.stats_path.unlink()
        except OSError:
            pass
        return removed
