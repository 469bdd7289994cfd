"""REDTRACE/1: versioned, replayable reduction-event traces.

Where :mod:`repro.obs.spans` answers *how long did each phase take*, this
module answers *what did the engine decide*: which S-polynomial was
selected, which divisor fired on which monomial, which packed mask swept
which gate variable. Events are deliberately timestamp-free — two runs of
the same reduction on the same inputs emit byte-identical streams, which
is the contract ``repro replay --diff`` enforces (see ``TRACE_FORMAT.md``
for the full grammar and compatibility policy).

The writer follows the same *disabled means free* discipline as the span
layer: hot loops hoist ``active_writer()`` once per call, so with no
recording active each potential event costs one ``is not None`` test
(guarded, together with the span layer, by
``benchmarks/bench_trace_overhead.py``).

Two operating modes:

- **stream** (``path=...``): every event is appended to a JSONL file,
  flushed in bounded batches so memory stays O(batch) regardless of trace
  length. This is what ``repro verify --record`` uses.
- **ring** (``ring=True``): a bounded in-memory flight recorder that
  drops the *oldest* events once ``max_events`` is reached and counts the
  drops. The daemon runs one of these for its whole lifetime so
  ``trace.*`` metrics tick on ``/metrics`` without unbounded growth.

Recording is process-global (module-level ``_WRITER``) to match the span
collector; forked children must call :func:`reset_after_fork` so they
never write into a file handle inherited from the parent.
"""

from __future__ import annotations

import json
import threading
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional

from . import metrics

__all__ = [
    "EVENT_KINDS",
    "REDTRACE_VERSION",
    "REPLAY_EXEMPT_FIELDS",
    "RedTraceWriter",
    "active_writer",
    "read_trace",
    "reset_after_fork",
    "start_recording",
    "stop_recording",
]

REDTRACE_VERSION = "REDTRACE/1"

# Every record's "ev" field must name one of these. "header" opens the
# stream (seq 0, carries the format version and enough parameters to
# re-execute the run), "end" closes it; the rest are engine decisions.
EVENT_KINDS = frozenset(
    {
        "header",
        "spoly_selected",
        "divisor_hit",
        "mask_sweep",
        "word_relation_division",
        "cache_probe",
        "end",
    }
)

# Fields the replay differ ignores: wall-clock and environment metadata
# that legitimately varies between a recording and its replay. Everything
# else must match byte-for-byte.
REPLAY_EXEMPT_FIELDS = frozenset({"recorded_at", "tool"})

_FLUSH_BATCH = 1024


class RedTraceWriter:
    """Thread-safe JSONL event writer with stream and ring modes."""

    def __init__(
        self,
        path: Optional[str] = None,
        ring: bool = False,
        max_events: int = 100_000,
        flush_batch: int = _FLUSH_BATCH,
    ):
        if ring and path is not None:
            raise ValueError("ring mode is in-memory only; do not pass a path")
        if max_events < 2:
            raise ValueError(f"max_events must be >= 2, got {max_events}")
        self.path = path
        self.ring = ring
        self.max_events = max_events
        self._flush_batch = max(1, flush_batch)
        self._lock = threading.Lock()
        self._events: List[Dict[str, Any]] = []
        self._seq = 0
        self.emitted = 0
        self.dropped = 0
        self._file = open(path, "w", encoding="utf-8") if path else None
        self._closed = False

    # -- event emission ------------------------------------------------------

    def emit(self, kind: str, **fields: Any) -> None:
        """Append one event record. ``seq`` is assigned monotonically.

        Emitting on a closed writer is a silent no-op: daemon workers may
        race a shutdown's ``stop_recording``, and losing a tail event is
        better than faulting a verification job.
        """
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        with self._lock:
            if self._closed:
                return
            record = {"ev": kind, "seq": self._seq}
            record.update(fields)
            self._seq += 1
            self.emitted += 1
            self._events.append(record)
            if self.ring:
                # Flight recorder: keep the header (slot 0) plus the most
                # recent window; drop the oldest engine events.
                if len(self._events) > self.max_events:
                    keep_from = 1 if self._events[0].get("ev") == "header" else 0
                    del self._events[keep_from]
                    self.dropped += 1
                    metrics.counter_add(metrics.TRACE_DROPPED, 1)
            elif self._file is not None and len(self._events) >= self._flush_batch:
                self._flush_locked()
        metrics.counter_add(metrics.TRACE_EVENTS, 1)

    def begin(self, op: str, params: Optional[Dict[str, Any]] = None) -> None:
        """Write the seq-0 header record."""
        self.emit(
            "header",
            redtrace=REDTRACE_VERSION,
            op=op,
            params=dict(params or {}),
            recorded_at=datetime.now(timezone.utc).isoformat(),
        )

    def close(self) -> None:
        """Write the trailing ``end`` record, flush and release the file."""
        with self._lock:
            if self._closed:
                return
            self._events.append(
                {
                    "ev": "end",
                    "seq": self._seq,
                    "emitted": self.emitted + 1,
                    "dropped": self.dropped,
                }
            )
            self._seq += 1
            self.emitted += 1
            if self._file is not None:
                self._flush_locked()
                self._file.close()
                self._file = None
            self._closed = True

    # -- introspection -------------------------------------------------------

    def events(self) -> List[Dict[str, Any]]:
        """Snapshot of buffered events (all of them for in-memory modes)."""
        with self._lock:
            return [dict(event) for event in self._events]

    def buffered(self) -> int:
        with self._lock:
            return len(self._events)

    @property
    def closed(self) -> bool:
        return self._closed

    # -- internals -----------------------------------------------------------

    def _flush_locked(self) -> None:
        for event in self._events:
            self._file.write(json.dumps(event, sort_keys=True) + "\n")
        self._file.flush()
        self._events.clear()


# Process-global active writer. ``None`` (the overwhelmingly common case)
# makes every hoisted hot-loop check a single module-global read.
_WRITER: Optional[RedTraceWriter] = None


def active_writer() -> Optional[RedTraceWriter]:
    """The recording writer, or ``None`` when recording is off.

    Hot loops call this once per function entry and keep the result in a
    local, so the per-iteration disabled cost is one ``is not None``.
    """
    return _WRITER


def start_recording(
    path: Optional[str] = None,
    op: str = "unknown",
    params: Optional[Dict[str, Any]] = None,
    ring: bool = False,
    max_events: int = 100_000,
) -> RedTraceWriter:
    """Install a process-global writer and emit its header.

    Raises ``RuntimeError`` if a recording is already active — nested
    recordings would interleave two logical traces into one stream.
    """
    global _WRITER
    if _WRITER is not None:
        raise RuntimeError("a REDTRACE recording is already active")
    writer = RedTraceWriter(path=path, ring=ring, max_events=max_events)
    writer.begin(op, params)
    _WRITER = writer
    metrics.counter_add(metrics.TRACE_RECORDINGS, 1)
    return writer


def stop_recording() -> Optional[RedTraceWriter]:
    """Close and uninstall the active writer (no-op when none is active)."""
    global _WRITER
    writer = _WRITER
    _WRITER = None
    if writer is not None:
        writer.close()
    return writer


def reset_after_fork() -> None:
    """Drop any writer inherited across ``fork()``.

    A forked worker shares the parent's open trace file descriptor;
    writing from both sides would interleave and corrupt the stream, so
    children record nothing.
    """
    global _WRITER
    _WRITER = None


def read_trace(path: str) -> List[Dict[str, Any]]:
    """Parse a REDTRACE JSONL file into a list of event dicts.

    Raises ``ValueError`` with a line-numbered message on malformed JSON;
    structural validation (header, kinds, seq order) lives in
    :func:`repro.obs.schema.validate_redtrace_file`.
    """
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{number}: not valid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{number}: event must be a JSON object")
            events.append(record)
    return events
