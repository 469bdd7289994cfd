"""Multivariate polynomial division (reduction) over F_{2^k}.

``reduce_polynomial(f, G)`` computes a remainder ``r`` of ``f`` modulo the
set ``G`` — written ``f ->_G+ r`` in the paper — such that no term of ``r``
is divisible by any leading term of ``G``. This is the workhorse of both
Buchberger's algorithm and the paper's guided S-polynomial reduction.

Two implementations live here:

- the heap-based reducer behind :func:`reduce_polynomial` (and, with a
  quotient accumulator, :func:`divmod_polynomial`): the work set is a dict
  shadowed by a lazy-deletion min-heap of precomputed sort keys, so
  fetching the next leading term is O(log T) instead of the O(T) ``min()``
  scan — and divisor lookup goes through :class:`DivisorIndex`, which
  buckets divisors by the most significant variable of their leading
  monomial;
- :func:`reference_reduce_polynomial`, the original scan-based reducer,
  retained verbatim as the correctness oracle for the differential tests.

Both flush identical ``DIVISION_*`` metrics: they process the exact same
sequence of leading monomials, so step counts and peak sizes agree.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import metrics, redtrace
from .order import Monomial
from .ring import Polynomial, PolynomialRing

__all__ = [
    "reduce_polynomial",
    "divmod_polynomial",
    "DivisionTrace",
    "DivisorIndex",
    "reference_reduce_polynomial",
]


class DivisionTrace:
    """Statistics from one reduction — exposed for benchmarking."""

    __slots__ = ("steps", "peak_terms")

    def __init__(self) -> None:
        self.steps = 0
        self.peak_terms = 0

    def observe(self, num_terms: int) -> None:
        self.steps += 1
        if num_terms > self.peak_terms:
            self.peak_terms = num_terms


class DivisorIndex:
    """Leading-term index over a divisor set.

    Divisors are bucketed by the *most significant variable* (smallest rank
    under the ring's order) of their leading monomial. A monomial ``m`` can
    only be divisible by leading terms whose variables all occur in ``m``,
    so a probe scans just the buckets of ``m``'s own variables instead of
    every generator. Constant leading terms (monomial ``()``) divide
    everything and live in their own always-probed list.

    Matches are resolved to the **lowest original index**, preserving the
    first-matching-divisor semantics of the scan-based reducer. ``add``
    supports incremental growth (Buchberger appends basis elements).
    """

    __slots__ = ("ring", "divisors", "leads", "buckets", "constants")

    def __init__(self, ring: PolynomialRing, divisors: Sequence[Polynomial] = ()):
        self.ring = ring
        self.divisors: List[Polynomial] = []
        self.leads: List[Tuple[Monomial, int]] = []
        #: var_index -> list of divisor slots whose leading monomial's most
        #: significant variable is var_index (slots appear in insertion order)
        self.buckets: Dict[int, List[int]] = {}
        #: slots whose leading monomial is the constant 1
        self.constants: List[int] = []
        for g in divisors:
            self.add(g)

    def __len__(self) -> int:
        return len(self.divisors)

    def add(self, g: Polynomial) -> None:
        """Register a nonzero divisor (zero divisors are skipped)."""
        if g.is_zero():
            return
        slot = len(self.divisors)
        lead = g.lead()
        self.divisors.append(g)
        self.leads.append(lead)
        lm = lead[0]
        if not lm:
            self.constants.append(slot)
            return
        rank = self.ring.order.rank
        msv = min((v for v, _ in lm), key=lambda v: rank.get(v, v))
        self.buckets.setdefault(msv, []).append(slot)

    def find(self, monomial: Monomial) -> Optional[int]:
        """Slot of the first divisor whose leading monomial divides ``monomial``."""
        best: Optional[int] = None
        if self.constants:
            best = self.constants[0]
        divides = self.ring.monomial_divides
        leads = self.leads
        buckets = self.buckets
        for var, _ in monomial:
            bucket = buckets.get(var)
            if bucket is None:
                continue
            for slot in bucket:
                if best is not None and slot >= best:
                    break
                if divides(leads[slot][0], monomial):
                    best = slot
                    break
        return best


def _find_reducer(
    ring: PolynomialRing,
    monomial: Monomial,
    leads: Sequence[Tuple[Monomial, int]],
) -> Optional[int]:
    for i, (lm, _) in enumerate(leads):
        if ring.monomial_divides(lm, monomial):
            return i
    return None


def reduce_polynomial(
    f: Polynomial,
    divisors: Sequence[Polynomial],
    trace: Optional[DivisionTrace] = None,
    index: Optional[DivisorIndex] = None,
) -> Polynomial:
    """Fully reduce ``f`` modulo ``divisors``: no remainder term is divisible
    by any divisor's leading monomial.

    Works greatest-term-first: repeatedly pick the largest not-yet-settled
    term; if some ``g`` whose leading monomial divides it exists, subtract
    the appropriate multiple of ``g``, else move the term to the remainder.
    Terminates because the term order is a well-order.

    The work set is a dict shadowed by a lazy-deletion heap: cancelled terms
    stay in the heap and are discarded on pop (``work.pop`` misses). This is
    sound because every monomial a reduction step introduces is strictly
    smaller than the leading monomial it cancels, so a monomial popped live
    can never be re-introduced later.

    Pass a prebuilt :class:`DivisorIndex` via ``index`` to reuse it across
    many reductions (Buchberger does); otherwise one is built here.
    """
    if index is None:
        index = DivisorIndex(f.ring, divisors)
    return _heap_reduce(f, index, trace)


def _heap_reduce(
    f: Polynomial,
    index: DivisorIndex,
    trace: Optional[DivisionTrace],
    quotients: Optional[List[Dict[Monomial, int]]] = None,
) -> Polynomial:
    """The heap loop behind :func:`reduce_polynomial` and
    :func:`divmod_polynomial`; ``quotients`` (one dict per index slot)
    accumulates each step's ``(coeff/lc) * (monomial/lm)`` factor."""
    ring = f.ring
    field = ring.field
    sort_key = ring.order.sort_key
    divisor_list = index.divisors
    leads = index.leads
    find = index.find
    monomial_div = ring.monomial_div
    monomial_mul = ring.monomial_mul
    work: Dict[Monomial, int] = dict(f.terms)
    heap = [(sort_key(m), m) for m in work]
    heapify(heap)
    remainder: Dict[Monomial, int] = {}
    steps = 0
    peak_terms = 0
    # REDTRACE hook, hoisted once per call: the disabled cost inside this
    # innermost loop must stay a single None test.
    rtw = redtrace.active_writer()
    while heap:
        monomial = heappop(heap)[1]
        coeff = work.pop(monomial, None)
        if coeff is None:
            continue  # stale heap entry: the term cancelled earlier
        slot = find(monomial)
        if rtw is not None and slot is not None:
            rtw.emit("divisor_hit", slot=slot, m=monomial)
        steps += 1
        size = len(work) + len(remainder)
        if size > peak_terms:
            peak_terms = size
        if trace is not None:
            trace.observe(size)
        if slot is None:
            remainder[monomial] = coeff
            continue
        g = divisor_list[slot]
        lm, lc = leads[slot]
        factor_monomial = monomial_div(monomial, lm)
        factor_coeff = field.div(coeff, lc)
        if quotients is not None:
            q = quotients[slot]
            q[factor_monomial] = q.get(factor_monomial, 0) ^ factor_coeff
        # work -= (coeff/lc) * (monomial/lm) * g ; the leading terms cancel
        # by construction, so iterate only over the tail of g.
        for m, c in g.terms.items():
            if m == lm:
                continue
            key = monomial_mul(m, factor_monomial)
            cc = field.mul(c, factor_coeff)
            cur = work.get(key)
            if cur is None:
                work[key] = cc
                heappush(heap, (sort_key(key), key))
            else:
                merged = cur ^ cc
                if merged:
                    work[key] = merged  # heap entry already present
                else:
                    del work[key]  # its heap entry goes stale
    if metrics.is_enabled():
        metrics.counter_add(metrics.DIVISION_CALLS, 1)
        metrics.counter_add(metrics.DIVISION_STEPS, steps)
        metrics.gauge_max(metrics.DIVISION_PEAK_TERMS, peak_terms)
    return Polynomial(ring, remainder)


def reference_reduce_polynomial(
    f: Polynomial,
    divisors: Sequence[Polynomial],
    trace: Optional[DivisionTrace] = None,
) -> Polynomial:
    """The original O(T) scan-per-step reducer, kept as correctness oracle.

    Differential tests assert it agrees bit-for-bit (remainder, trace steps,
    trace peak) with the heap-based :func:`reduce_polynomial`.
    """
    ring = f.ring
    field = ring.field
    order = ring.order
    divisors = [g for g in divisors if not g.is_zero()]
    leads = [g.lead() for g in divisors]
    work: Dict[Monomial, int] = dict(f.terms)
    remainder: Dict[Monomial, int] = {}
    steps = 0
    peak_terms = 0
    rtw = redtrace.active_writer()
    while work:
        monomial = min(work, key=order.sort_key)  # the current leading term
        coeff = work.pop(monomial)
        index = _find_reducer(ring, monomial, leads)
        if rtw is not None and index is not None:
            rtw.emit("divisor_hit", slot=index, m=monomial)
        steps += 1
        size = len(work) + len(remainder)
        if size > peak_terms:
            peak_terms = size
        if trace is not None:
            trace.observe(size)
        if index is None:
            remainder[monomial] = coeff
            continue
        g = divisors[index]
        lm, lc = leads[index]
        factor_monomial = ring.monomial_div(monomial, lm)
        factor_coeff = field.div(coeff, lc)
        for m, c in g.terms.items():
            if m == lm:
                continue
            key = ring.monomial_mul(m, factor_monomial)
            cc = field.mul(c, factor_coeff)
            merged = work.get(key, 0) ^ cc
            if merged:
                work[key] = merged
            else:
                del work[key]
    if metrics.is_enabled():
        metrics.counter_add(metrics.DIVISION_CALLS, 1)
        metrics.counter_add(metrics.DIVISION_STEPS, steps)
        metrics.gauge_max(metrics.DIVISION_PEAK_TERMS, peak_terms)
    return Polynomial(ring, remainder)


def divmod_polynomial(
    f: Polynomial,
    divisors: Sequence[Polynomial],
    trace: Optional[DivisionTrace] = None,
) -> Tuple[List[Polynomial], Polynomial]:
    """Division with quotients: ``f = sum(q_i * g_i) + r``.

    The :func:`reduce_polynomial` heap loop with a quotient accumulator,
    giving the ideal-membership certificate used by the Lv-style baseline.
    Quotient slots line up with the *input* divisor sequence (zero divisors
    get zero quotients).
    """
    ring = f.ring
    index = DivisorIndex(ring)
    origin: List[int] = []  # index slot -> position in the input sequence
    for i, g in enumerate(divisors):
        if not g.is_zero():
            index.add(g)
            origin.append(i)
    by_slot: List[Dict[Monomial, int]] = [dict() for _ in origin]
    remainder = _heap_reduce(f, index, trace, quotients=by_slot)
    quotients = [ring.zero() for _ in divisors]
    for slot, q in enumerate(by_slot):
        quotients[origin[slot]] = Polynomial(
            ring, {m: c for m, c in q.items() if c}
        )
    return quotients, remainder
