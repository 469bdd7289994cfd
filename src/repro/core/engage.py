"""Cost-model-driven engage policy for cone-sliced parallel abstraction.

The old gate was blunt: "single CPU → serial, unless REPRO_PARALLEL_FORCE".
This module replaces it with an actual cost comparison. Parallel pays off
when the work it removes from the critical path exceeds what dispatch
costs:

    predicted_serial * (1 - 1/p)  >  margin * dispatch_overhead

with ``p = min(workers, cpu_count)`` the effective parallelism. On a
single-CPU host the left side is zero and the decision degenerates to the
old clamp — but now for the stated reason, and with the same formula that
engages eagerly on a 32-core box where overhead is amortised 31/32 away.

``predicted_serial`` comes from, in order of preference:

1. a fitted :class:`~repro.obs.costmodel.CostModel` (``REPRO_COST_MODEL``
   names the JSON; ``repro costmodel fit`` produces it) queried for the
   ``abstract`` op at this ``(k, gates, cones)``;
2. the in-process EMA of measured serial abstraction seconds-per-gate
   (updated by every serial extraction, so a resident service self-tunes);
3. a cold-start constant (~3 µs/gate, the measured Mastrovito rate).

``dispatch_overhead`` is the plane's measured per-map EMA (calibrated with
a no-op map before the first real one).

``REPRO_PARALLEL_FORCE`` stays as the override: ``1`` always engages,
``0`` never does.
"""

from __future__ import annotations

import logging
import os
import threading
from typing import Dict, Optional, Tuple

from ..obs.costmodel import CostModel

__all__ = ["note_serial_run", "parallel_engage", "predict_serial_seconds"]

logger = logging.getLogger("repro.core")

#: Cold-start serial abstraction rate: seconds per gate (measured on the
#: Mastrovito family; see BENCH_parallel.json's serial column).
_COLDSTART_SECONDS_PER_GATE = 3e-6

#: Engage only when the predicted critical-path saving beats overhead by
#: this factor — predictions are noisy, and a wrong "engage" costs real
#: wall clock while a wrong "serial" costs only the saving.
_DEFAULT_MARGIN = 2.0

_ALPHA = 0.3

_lock = threading.Lock()
_rate_ema: Dict[int, float] = {}  # k -> seconds per gate
_model: Optional[CostModel] = None
_model_path_tried: Optional[str] = None


def _forced() -> Optional[bool]:
    raw = os.environ.get("REPRO_PARALLEL_FORCE")
    if raw is None or raw == "":
        return None
    return raw.lower() not in ("0", "false", "off")


def _fitted_model() -> Optional[CostModel]:
    """The REPRO_COST_MODEL model, loaded once per distinct path."""
    global _model, _model_path_tried
    path = os.environ.get("REPRO_COST_MODEL")
    if not path:
        return None
    with _lock:
        if path == _model_path_tried:
            return _model
        _model_path_tried = path
        try:
            _model = CostModel.load(path)
        except (OSError, ValueError, KeyError) as exc:
            logger.warning("cost model %s not loaded (%s)", path, exc)
            _model = None
        return _model


def note_serial_run(k: int, gates: int, seconds: float) -> None:
    """Feed a measured serial abstraction into the per-k rate EMA."""
    if gates <= 0 or seconds <= 0:
        return
    rate = seconds / gates
    with _lock:
        previous = _rate_ema.get(k)
        _rate_ema[k] = (
            rate if previous is None else (1 - _ALPHA) * previous + _ALPHA * rate
        )


def predict_serial_seconds(
    k: int, gates: int, cones: Optional[int] = None
) -> Tuple[float, str]:
    """Predicted serial extraction seconds and the source of the estimate."""
    model = _fitted_model()
    if model is not None:
        predicted = model.predict("abstract", k=k, gates=gates, cones=cones)
        if predicted is not None:
            return predicted, "model"
    with _lock:
        rate = _rate_ema.get(k)
    if rate is not None:
        return rate * gates, "ema"
    return _COLDSTART_SECONDS_PER_GATE * gates, "coldstart"


def _dispatch_overhead() -> float:
    from ..jobs.plane import PoolError, get_plane

    try:
        return get_plane().dispatch_overhead()
    except PoolError:
        return float("inf")


def parallel_engage(
    workers: int, gates: int, k: int, cones: Optional[int] = None
) -> Tuple[bool, str]:
    """Decide whether a cone-parallel map beats serial for this extraction.

    Returns ``(engage, reason)``; reasons are stable strings for logs and
    tests: ``forced`` / ``forced_off`` / ``no_parallelism`` /
    ``engaged`` / ``overhead_dominates``.
    """
    forced = _forced()
    if forced is True:
        return True, "forced"
    if forced is False:
        return False, "forced_off"
    effective = min(workers, os.cpu_count() or 1)
    if effective <= 1:
        # Zero removable critical path: the formula below can never engage,
        # so skip the overhead probe entirely.
        return False, "no_parallelism"
    predicted, source = predict_serial_seconds(k, gates, cones)
    saving = predicted * (1.0 - 1.0 / effective)
    overhead = _dispatch_overhead()
    if saving > _DEFAULT_MARGIN * overhead:
        return True, "engaged"
    logger.debug(
        "parallel abstraction not worth it: predicted serial %.4fs (%s), "
        "saving %.4fs at p=%d vs overhead %.4fs",
        predicted,
        source,
        saving,
        effective,
        overhead,
    )
    return False, "overhead_dominates"
