"""Word-level abstraction via guided Gröbner-basis reduction (Sections 4-5).

Given a circuit computing ``Z = F(A, B, ...)`` over ``F_{2^k}``, derive the
unique canonical polynomial ``F``. By the Abstraction Theorem (Thm 4.2) a
reduced Gröbner basis of ``J + J_0`` under the abstraction term order
contains exactly one polynomial ``Z + G(A)`` and ``G`` is canonical
(Cor 4.1). Computing that full basis is hopeless for real circuits, so —
following Section 5 — the refined order (RATO) plus the product criterion
single out one critical pair ``(f_w, f_g)``, and the whole computation
collapses to ``Spoly(f_w, f_g) ->_{F, F0}+ r``: a cascade of per-net
substitutions performed by :class:`~repro.core.bitpoly.SubstitutionEngine`.

Two outcomes (Section 5, step 3):

- **Case 1** — ``r`` contains only word variables: ``r = Z + G(A)`` and we
  are done.
- **Case 2** — ``r`` retains primary-input bits. The paper finishes with a
  small reduced-GB computation on ``{r, input word relations} ∪ F_0``
  (``case2="groebner"`` here, faithful). The default ``case2="linearized"``
  reaches the same unique polynomial by substituting each leftover bit with
  its dual-basis coordinate polynomial ``a_i = sum_j (beta_i A)^{2^j}`` —
  algebraically equivalent by Cor 4.1 uniqueness, and polynomial-time.
"""

from __future__ import annotations

import heapq
import logging
import multiprocessing
import os
import time
from collections import Counter
from itertools import chain
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, FrozenSet, List, Optional

from ..algebra import (
    LexOrder,
    Polynomial,
    PolynomialRing,
    reduced_groebner_basis,
    vanishing_ideal,
)
from ..circuits import Circuit, FaninCone, GateType
from ..gf import GF2m, coordinate_coefficients, xor_accumulate
from ..obs import metrics, redtrace
from ..obs.spans import active_collector, span
from .bitpoly import SubstitutionEngine
from .engage import note_serial_run
from .gate_polys import gate_tail
from .rato import RatoOrdering, build_rato

__all__ = [
    "AbstractionResult",
    "AbstractionStats",
    "DEFAULT_PARALLEL_MIN_GATES",
    "abstract_circuit",
    "abstract_all_outputs",
    "extract_canonical",
    "reduce_through_gates",
    "word_ring_for",
]

logger = logging.getLogger("repro.core")


@dataclass
class AbstractionStats:
    """Cost counters for one abstraction run."""

    seconds: float = 0.0
    gate_count: int = 0
    substitutions: int = 0
    peak_terms: int = 0
    term_traffic: int = 0
    case: int = 1
    case2_method: Optional[str] = None
    remainder_bits: List[str] = dataclass_field(default_factory=list)
    # Parallel-path accounting; all zero/empty when the serial path ran.
    jobs: int = 0  # pool workers used (0 == serial)
    cones: int = 0
    cone_division_steps: List[int] = dataclass_field(default_factory=list)
    pool_idle_seconds: float = 0.0
    pool_utilization_pct: float = 0.0
    table_rebuilds: int = 0


@dataclass
class AbstractionResult:
    """The derived canonical word-level polynomial ``Z = G(words)``."""

    polynomial: Polynomial  # G, in a ring over the input words
    output_word: str
    input_words: List[str]
    ring: PolynomialRing
    stats: AbstractionStats

    def __str__(self) -> str:
        return f"{self.output_word} = {self.polynomial}"


def word_ring_for(field: GF2m, input_words: List[str]) -> PolynomialRing:
    """The ring ``F_{2^k}[input words]`` canonical polynomials live in."""
    return PolynomialRing(
        field, list(input_words), order=LexOrder(range(len(input_words)))
    )


def _case1_polynomial(
    engine: SubstitutionEngine,
    word_ring: PolynomialRing,
    id_to_word: Dict[int, str],
) -> Polynomial:
    data = {}
    for monomial, coeff in engine.terms.items():
        key = tuple(
            sorted((word_ring.index[id_to_word[var]], 1) for var in monomial)
        )
        data[key] = coeff
    return Polynomial(word_ring, data)


def _case2_linearized(
    engine: SubstitutionEngine,
    field: GF2m,
    word_ring: PolynomialRing,
    id_to_word: Dict[int, str],
    bit_owner: Dict[int, "tuple[str, int]"],
) -> Polynomial:
    """Eliminate leftover input bits with dual-basis coordinate polynomials.

    Works directly on term dictionaries: buggy circuits can produce dense
    canonical polynomials (up to q^n terms), so the expansion accumulates
    in place rather than through repeated immutable-polynomial additions.
    """
    mul = field.mul
    monomial_mul = word_ring.monomial_mul
    coord_cache: Dict[int, Dict] = {}

    def coordinate_terms(bit_id: int) -> Dict:
        cached = coord_cache.get(bit_id)
        if cached is None:
            word, position = bit_owner[bit_id]
            word_index = word_ring.index[word]
            coeffs = coordinate_coefficients(field, position)
            cached = {
                ((word_index, word_ring.fold_exponent(word_index, 1 << j)),): c
                for j, c in enumerate(coeffs)
                if c
            }
            coord_cache[bit_id] = cached
        return cached

    result: Dict = {}
    for monomial, coeff in engine.terms.items():
        partial: Dict = {(): coeff}
        for var in monomial:
            if var in id_to_word:
                factor = {((word_ring.index[id_to_word[var]], 1),): 1}
            else:
                factor = coordinate_terms(var)
            expanded: Dict = {}
            for m1, c1 in partial.items():
                for m2, c2 in factor.items():
                    key = monomial_mul(m1, m2)
                    c = c1 if c2 == 1 else mul(c1, c2)
                    merged = expanded.get(key, 0) ^ c
                    if merged:
                        expanded[key] = merged
                    else:
                        del expanded[key]
            partial = expanded
        for m, c in partial.items():
            merged = result.get(m, 0) ^ c
            if merged:
                result[m] = merged
            else:
                del result[m]
    return Polynomial(word_ring, result)


def _case2_groebner(
    engine: SubstitutionEngine,
    field: GF2m,
    circuit: Circuit,
    ordering: RatoOrdering,
    output_word: str,
    id_of: Dict[str, int],
) -> Polynomial:
    """Faithful Case 2: reduced GB of {r, word relations} ∪ vanishing polys.

    Returns ``G`` from the unique basis polynomial ``Z + G(words)``
    guaranteed by Corollary 4.1; the result ring has variables
    ``bits > Z > input words`` (lex).
    """
    bits = [b for word in ordering.input_words for b in circuit.input_words[word]]
    variables = bits + [output_word] + ordering.input_words
    domains = {b: 2 for b in bits}
    ring = PolynomialRing(
        field,
        variables,
        order=LexOrder(range(len(variables))),
        domains=domains,
        fold=False,  # honest free-ring arithmetic; J_0 enters as generators
    )

    # r = Z + (engine terms translated into the small ring).
    reverse = {id_of[name]: name for name in variables if name in id_of}
    data: Dict[tuple, int] = {((ring.index[output_word], 1),): 1}
    for monomial, coeff in engine.terms.items():
        key = tuple(sorted((ring.index[reverse[var]], 1) for var in monomial))
        data[key] = data.get(key, 0) ^ coeff
    r = Polynomial(ring, {m: c for m, c in data.items() if c})

    alpha_powers = field.alpha_powers()
    relations = []
    for word in ordering.input_words:
        terms = {((ring.index[word], 1),): 1}
        for i, bit in enumerate(circuit.input_words[word]):
            key = ((ring.index[bit], 1),)
            terms[key] = terms.get(key, 0) ^ alpha_powers[i]
        relations.append(Polynomial(ring, {m: c for m, c in terms.items() if c}))

    generators = [r] + relations + vanishing_ideal(ring)
    basis = reduced_groebner_basis(generators)
    z_index = ring.index[output_word]
    matches = [
        p for p in basis if p.leading_monomial() == ((z_index, 1),)
    ]
    if len(matches) != 1:
        raise RuntimeError(
            f"expected exactly one basis polynomial with leading term "
            f"{output_word}; found {len(matches)}"
        )
    return matches[0] + ring.var(output_word)


def _map_words(
    poly: Polynomial, word_ring: PolynomialRing
) -> Polynomial:
    """Re-home a polynomial that uses only word variables into ``word_ring``."""
    source = poly.ring
    data = {}
    for monomial, coeff in poly.terms.items():
        key = tuple(
            sorted((word_ring.index[source.variables[var]], exp) for var, exp in monomial)
        )
        data[key] = coeff
    return Polynomial(word_ring, data)


def _merge_sorted(a: tuple, b: tuple) -> tuple:
    """Union of two sorted tuples of distinct ints, kept sorted."""
    out: list = []
    i = j = 0
    la = len(a)
    lb = len(b)
    while i < la and j < lb:
        x = a[i]
        y = b[j]
        if x < y:
            out.append(x)
            i += 1
        elif y < x:
            out.append(y)
            j += 1
        else:
            out.append(x)
            i += 1
            j += 1
    if i < la:
        out.extend(a[i:])
    elif j < lb:
        out.extend(b[j:])
    return tuple(out)


def reduce_through_gates(
    circuit: Circuit,
    engine: SubstitutionEngine,
    ordering: RatoOrdering,
    word_relations: Optional[List[tuple]] = None,
) -> None:
    """Run the guided reduction: eliminate every gate variable from ``engine``.

    Repeatedly substitutes the highest-ranked gate variable present (smaller
    id == higher RATO rank). Under RATO tails only mention lower-ranked
    variables, so this is a single forward sweep; under an unrefined order
    re-introduced variables are re-scheduled, mirroring how plain lex
    division would thrash. Shared by the abstraction flow and the Lv-style
    ideal-membership baseline.

    The sweep runs on a compact monomial encoding rather than on the
    engine's frozensets. RATO ids place the gate nets in the dense prefix
    ``0..num_gates-1``, so a monomial splits into ``(mask, gates)``: the
    non-gate variables packed into an int bitmask (a few machine words —
    primary inputs and words only) and the gate variables as a small sorted
    tuple. Monomials are *staged* under their smallest gate variable — the
    next one the ascending-id schedule will substitute — so each elimination
    pops exactly the affected terms with no occurrence sets and no stale
    entries, and the product loop costs an int ``|`` plus a tiny tuple merge
    instead of a wide frozenset union. Gate-free products land in the
    remainder and are never rescanned. The result (and the engine's usual
    substitution counters) is written back to ``engine`` at the end.

    ``word_relations`` optionally appends trailing division steps by the
    input word relations, applied to the gate-free remainder while it is
    still in the compact encoding. Each entry is ``(var_id, tail_items)``
    with ``tail_items`` a list of ``(var_id, coeff)`` pairs; all ids must
    be non-gate variables. Counter accounting matches running the same
    steps through ``engine.substitute`` afterwards.
    """
    remainder, substitutions, traffic, peak = _reduce_to_masks(
        circuit, engine.terms, engine.field, ordering, word_relations
    )
    _write_back_masks(engine, remainder, len(ordering.gate_nets))
    engine.substitutions += substitutions
    engine.term_traffic += traffic
    if peak > engine.peak_terms:
        engine.peak_terms = peak


def _reduce_to_masks(
    circuit: Circuit,
    seed_terms: Dict[FrozenSet[int], int],
    field: GF2m,
    ordering: RatoOrdering,
    word_relations: Optional[List[tuple]] = None,
) -> "tuple[Dict[int, int], int, int, int]":
    """The sweep behind :func:`reduce_through_gates`, remainder kept packed.

    Takes the seed as a plain ``frozenset -> coeff`` dict and returns
    ``(remainder, substitutions, term_traffic, peak_terms)`` with the
    gate-free remainder still in mask encoding (``bit i`` == non-gate
    variable ``num_gates + i``). The per-cone parallel path calls this
    directly so cone remainders can travel between processes as packed
    ints instead of frozensets; :func:`reduce_through_gates` wraps it with
    the engine write-back.

    The sweep is frontier-batched: one Python op advances a whole term
    group. Gate tails over boolean logic carry coefficient 1 on every
    monomial, so tails are stored as plain *sets* of ``(mask, gates)`` keys
    and a substitution step becomes set algebra. For a coefficient-free
    seed (every seed coefficient 1 — the per-cone parallel path) the staged
    groups themselves are mask sets and each tail monomial folds a whole
    group into its target with one ``symmetric_difference_update``; for the
    alpha-weighted serial seed groups stay ``mask -> coeff`` dicts and the
    fold is one :func:`~repro.gf.xor_accumulate` sweep per tail monomial.
    Either way the interpreter dispatches per *tail item*, not per product.

    Shifting a group by a tail mask is not injective — two masks differing
    only inside the tail mask collide, and that pair must *cancel*, so the
    batch is parity-folded through a Counter whenever ``set(shifted)``
    loses elements; a bare ``set()`` would dedupe instead.

    REDTRACE events carry content-based counts sampled at pop boundaries
    (group/tail/live sizes), so the stream is invariant under batching and
    under set iteration order: traces recorded under the per-term kernel
    this sweep replaced still replay with zero diffs. A gate tail with a
    coefficient other than 1 breaks the set encoding and raises
    :class:`RuntimeError` naming the gate.
    """
    id_of = ordering.var_ids
    num_gates = len(ordering.gate_nets)

    # Gates whose tail is a *single* monomial with coefficient 1 (AND, BUF —
    # the bulk of a multiplier netlist) never need a substitution step of
    # their own: their division step is a pure monomial rewrite that cannot
    # change term counts, so the gate variable is *resolved* — inlined into
    # every tail and seed monomial that mentions it as it is encoded. Only
    # multi-term gates (XOR, OR, NOT, ...) stay in the staged schedule.
    # Tails are built in topological order, so resolutions are transitive.
    # Gate ids are dense (0..num_gates-1), so the per-gate side tables are
    # flat lists, not dicts.
    resolved: list = [None] * num_gates

    def encode(monomial) -> "tuple[int, tuple]":
        mask = 0
        gs = ()
        for v in monomial:
            if v < num_gates:
                r = resolved[v]
                if r is None:
                    gs = _merge_sorted(gs, (v,)) if gs else (v,)
                else:
                    mask |= r[0]
                    if r[1]:
                        gs = _merge_sorted(gs, r[1]) if gs else r[1]
            else:
                mask |= 1 << (v - num_gates)
        return mask, gs

    fanout = Counter(
        chain.from_iterable(g.inputs for g in circuit.topological_order())
    )
    pinned = [False] * num_gates
    for monomial in seed_terms:
        for v in monomial:
            if v < num_gates:
                pinned[v] = True

    # Tails as sets of (mask, gates) keys. XOR-tree splicing steals the
    # single-consumer child's set outright and merges smaller-into-larger;
    # set symmetric difference is exactly the coefficient-1 XOR merge.
    tails: Dict[int, set] = {}
    for gate in circuit.topological_order():
        out = id_of[gate.output]
        gtype = gate.gate_type
        if gtype is GateType.AND or gtype is GateType.BUF:
            mask = 0
            gs = ()
            for net in gate.inputs:
                v = id_of[net]
                if v < num_gates:
                    r = resolved[v]
                    if r is None:
                        if not gs:
                            gs = (v,)
                        elif len(gs) == 1:  # dominant shapes, merged inline
                            g0 = gs[0]
                            if v > g0:
                                gs = (g0, v)
                            elif v < g0:
                                gs = (v, g0)
                        else:
                            gs = _merge_sorted(gs, (v,))
                    else:
                        mask |= r[0]
                        rg = r[1]
                        if rg:
                            if not gs:
                                gs = rg
                            elif len(gs) == 1 and len(rg) == 1:
                                g0 = gs[0]
                                w = rg[0]
                                if w > g0:
                                    gs = (g0, w)
                                elif w < g0:
                                    gs = (w, g0)
                            else:
                                gs = _merge_sorted(gs, rg)
                else:
                    mask |= 1 << (v - num_gates)
            resolved[out] = (mask, gs)
            continue
        if gtype is GateType.XOR:
            acc: set = set()
            for net in gate.inputs:
                v = id_of[net]
                if v < num_gates:
                    r = resolved[v]
                    if r is None:
                        spliced = (
                            tails.pop(v)
                            if fanout[net] == 1 and not pinned[v] and v in tails
                            else None
                        )
                        if spliced is not None:
                            if not acc:
                                acc = spliced
                                continue
                            if len(spliced) > len(acc):
                                acc, spliced = spliced, acc
                            acc.symmetric_difference_update(spliced)
                            continue
                        key = (0, (v,))
                    else:
                        key = r
                else:
                    key = (1 << (v - num_gates), ())
                if key in acc:  # XOR parity on repeats
                    acc.remove(key)
                else:
                    acc.add(key)
        else:
            dacc: Dict[tuple, int] = {}
            for tm, tc in gate_tail(gate, id_of).items():
                key = encode(tm)  # encode is not injective: XOR-merge
                cur = dacc.get(key, 0) ^ tc
                if cur:
                    dacc[key] = cur
                else:
                    del dacc[key]
            bad = [c for c in dacc.values() if c != 1]
            if bad:
                # A non-boolean tail coefficient would need field products
                # inside the set sweep; no supported gate produces one.
                raise RuntimeError(
                    f"gate {gate.output!r} ({gtype.name}) has tail "
                    f"coefficient {bad[0]:#x}; the mask sweep needs 1"
                )
            acc = set(dacc)
        if len(acc) == 1:
            resolved[out] = next(iter(acc))
            continue
        tails[out] = acc

    # Stage the seed. A coefficient-free seed keeps every bucket a pure
    # mask set for the whole sweep (no stored coefficient can ever differ
    # from 1 when both the seed and all tails are coefficient-1); any other
    # seed stages mask -> coeff dicts. ``remainder`` follows suit and the
    # set variant is converted to a dict at the end.
    pure = True
    for c in seed_terms.values():
        if c != 1:
            pure = False
            break

    staged: Dict[int, dict] = {}
    if pure:
        rem_set: set = set()
        for monomial in seed_terms:
            mask, gates = encode(monomial)
            sub = rem_set if not gates else (
                staged.setdefault(gates[0], {}).setdefault(gates, set())
            )
            if mask in sub:
                sub.remove(mask)
            else:
                sub.add(mask)
        frontier = rem_set
    else:
        remainder = {}
        for monomial, coeff in seed_terms.items():
            mask, gates = encode(monomial)
            sub = remainder if not gates else (
                staged.setdefault(gates[0], {}).setdefault(gates, {})
            )
            cur = sub.get(mask)
            if cur is None:
                sub[mask] = coeff
            else:
                merged = cur ^ coeff
                if merged:
                    sub[mask] = merged
                else:
                    del sub[mask]
        frontier = remainder

    substitutions = 0
    traffic = 0
    live = len(frontier) + sum(
        len(sub) for bucket in staged.values() for sub in bucket.values()
    )
    peak = 0
    heap = [v for v, bucket in staged.items() if bucket]
    heapq.heapify(heap)
    queued = set(heap)
    staged_get = staged.get
    new_group = set if pure else dict
    rtw = redtrace.active_writer()
    while heap:
        var = heapq.heappop(heap)
        queued.discard(var)
        bucket = staged.pop(var, None)
        if not bucket:
            continue
        tail_set = tails[var]
        if rtw is not None:
            rtw.emit(
                "mask_sweep",
                var=var,
                groups=len(bucket),
                tail=len(tail_set),
                live=live,
            )
        substitutions_here = 0
        # Route each tail monomial once per pop; buckets are mutated in
        # place so the references stay valid while the pop adds terms.
        # Set iteration order is replay-safe: the heap schedule dedupes
        # pushes and every emitted figure is a content-based count.
        # ``routed`` keeps the gate tuples for multi-gate groups; the hot
        # loops unpack the slimmer ``pairs``.
        routed = []
        pairs = []
        for tmask, tgates in tail_set:
            if tgates:
                g0 = tgates[0]
                outer = staged_get(g0)
                if outer is None:
                    staged[g0] = outer = {}
                if g0 not in queued:
                    heapq.heappush(heap, g0)
                    queued.add(g0)
                tgt = outer.get(tgates)
                if tgt is None:
                    outer[tgates] = tgt = new_group()
            else:
                tgt = frontier
            routed.append((tmask, tgates, tgt))
            pairs.append((tmask, tgt))
        ntail = len(routed)
        for gates, sub in bucket.items():
            if not sub:
                continue
            substitutions_here = 1
            nsub = len(sub)
            live -= nsub
            traffic += nsub * ntail
            rest = gates[1:]  # gates[0] == var by the staging invariant
            if not rest:
                targets = pairs
            else:
                targets = []
                for tmask, tgates, _ in routed:
                    if not tgates:
                        kgates = rest
                    elif len(rest) == 1 and len(tgates) == 1:
                        a = rest[0]
                        b = tgates[0]
                        kgates = (
                            (a, b) if a < b else ((b, a) if b < a else rest)
                        )
                    else:
                        kgates = _merge_sorted(rest, tgates)
                    g0 = kgates[0]
                    outer = staged_get(g0)
                    if outer is None:
                        staged[g0] = outer = {}
                    if g0 not in queued:
                        heapq.heappush(heap, g0)
                        queued.add(g0)
                    tgt = outer.get(kgates)
                    if tgt is None:
                        outer[kgates] = tgt = new_group()
                    targets.append((tmask, tgt))
            if pure:
                if nsub == 1:
                    (mask0,) = sub
                    for tmask, tgt in targets:
                        key = mask0 | tmask
                        if key in tgt:
                            tgt.remove(key)
                            live -= 1
                        else:
                            tgt.add(key)
                            live += 1
                else:
                    for tmask, tgt in targets:
                        if tmask:
                            shifted = [m | tmask for m in sub]
                            batch = set(shifted)
                            if len(batch) != nsub:
                                # Colliding shifts must cancel pairwise,
                                # not dedupe: keep odd-parity masks only.
                                batch = {
                                    m
                                    for m, n in Counter(shifted).items()
                                    if n & 1
                                }
                        else:
                            batch = sub
                        before = len(tgt)
                        tgt.symmetric_difference_update(batch)
                        live += len(tgt) - before
            elif nsub == 1:
                (mask0, coeff0), = sub.items()
                for tmask, tgt in targets:
                    key = mask0 | tmask
                    cur = tgt.get(key)
                    if cur is None:
                        tgt[key] = coeff0
                        live += 1
                    else:
                        merged = cur ^ coeff0
                        if merged:
                            tgt[key] = merged
                        else:
                            del tgt[key]
                            live -= 1
            else:
                masks = list(sub)
                coeffs = list(sub.values())
                for tmask, tgt in targets:
                    live += xor_accumulate(
                        tgt, [m | tmask for m in masks], coeffs
                    )
        substitutions += substitutions_here
        if live > peak:
            peak = live

    if pure:
        remainder = dict.fromkeys(frontier, 1)
    # Trailing division by the input word relations, still in mask space:
    # the remainder at this point is a dense bit-monomial polynomial (a
    # thousand terms at k=32), so substituting each word's leading bit here
    # avoids building frozensets only to immediately rewrite them.
    if word_relations:
        div_subs, div_traffic, div_peak = _divide_word_relations(
            remainder, word_relations, num_gates, field
        )
        substitutions += div_subs
        traffic += div_traffic
        if div_peak > peak:
            peak = div_peak
    return remainder, substitutions, traffic, peak


def _divide_word_relations(
    remainder: Dict[int, int],
    word_relations: List[tuple],
    num_gates: int,
    field: GF2m,
) -> "tuple[int, int, int]":
    """Divide a mask-space remainder by the input word relations, in place.

    Substitutes each relation's leading bit by its tail (the word variable
    plus the alpha-scaled higher bits). Returns ``(substitutions,
    term_traffic, peak_terms)`` deltas. Vectorised tail-major: *all*
    affected coefficients are scaled by one tail coefficient per
    :meth:`~repro.gf.GF2m.mul_vec` call and each shifted batch folds in
    with one :func:`~repro.gf.xor_accumulate` sweep. The serial sweep calls
    this at its end; the parallel merge calls it on the combined remainder.
    """
    substitutions = 0
    traffic = 0
    peak = 0
    mul_vec = field.mul_vec
    rtw = redtrace.active_writer()
    for var, rel_tail in word_relations:
        bit = 1 << (var - num_gates)
        affected = [item for item in remainder.items() if item[0] & bit]
        if not affected:
            continue
        if rtw is not None:
            rtw.emit(
                "word_relation_division",
                var=var,
                affected=len(affected),
                tail=len(rel_tail),
                remainder=len(remainder),
            )
        for mask, _ in affected:
            del remainder[mask]
        traffic += len(affected) * len(rel_tail)
        bases = [mask ^ bit for mask, _ in affected]
        coeffs = [coeff for _, coeff in affected]
        for tv, tcoeff in rel_tail:
            tmask = 1 << (tv - num_gates)
            xor_accumulate(
                remainder,
                [base | tmask for base in bases],
                coeffs if tcoeff == 1 else mul_vec(coeffs, tcoeff),
            )
        substitutions += 1
        if len(remainder) > peak:
            peak = len(remainder)
    return substitutions, traffic, peak


def _write_back_masks(
    engine: SubstitutionEngine, remainder: Dict[int, int], num_gates: int
) -> None:
    """Install a gate-free mask-space remainder as engine state (terms + index)."""
    terms = engine.terms
    occ = engine.occ
    indexed = engine.indexed
    terms.clear()
    occ.clear()
    indexed_mask = 0
    if indexed is not None:
        for v in indexed:
            if v >= num_gates:
                indexed_mask |= 1 << (v - num_gates)
    for mask, coeff in remainder.items():
        vars_: list = []
        hits = mask & indexed_mask if indexed is not None else mask
        while mask:
            low = mask & -mask
            vars_.append(num_gates + low.bit_length() - 1)
            mask ^= low
        key = frozenset(vars_)
        terms[key] = coeff
        while hits:
            low = hits & -hits
            v = num_gates + low.bit_length() - 1
            hits ^= low
            b = occ.get(v)
            if b is None:
                occ[v] = {key}
            else:
                b.add(key)


def _resolve_output_word(
    circuit: Circuit, field: GF2m, output_word: Optional[str]
) -> str:
    if not circuit.output_words:
        raise ValueError("circuit has no output words to abstract")
    if output_word is None:
        if len(circuit.output_words) != 1:
            raise ValueError("output_word must be named for multi-word circuits")
        output_word = next(iter(circuit.output_words))
    for word, bits in {**circuit.input_words, **circuit.output_words}.items():
        if len(bits) != field.k:
            raise ValueError(
                f"word {word!r} has {len(bits)} bits; field is F_2^{field.k}"
            )
    return output_word


def _word_relation_tables(
    circuit: Circuit, ordering: RatoOrdering, alpha_powers: List[int]
) -> "tuple[List[tuple], Dict[int, str], Dict[int, tuple]]":
    """Input word relations ``f_wi = b_0 + alpha*b_1 + ... + W`` as id tuples.

    Returns ``(word_relations, id_to_word, bit_owner)``: the division steps
    for each relation's leading bit, the word-variable id map used by the
    finishing steps, and each input bit's ``(word, position)``.
    """
    id_of = ordering.var_ids
    word_relations: List[tuple] = []
    id_to_word: Dict[int, str] = {}
    bit_owner: Dict[int, "tuple[str, int]"] = {}
    for word in ordering.input_words:
        bits = circuit.input_words[word]
        word_id = id_of[word]
        id_to_word[word_id] = word
        for i, bit in enumerate(bits):
            bit_owner[id_of[bit]] = (word, i)
        rel_tail = [(word_id, 1)]
        for i in range(1, len(bits)):
            rel_tail.append((id_of[bits[i]], alpha_powers[i]))
        word_relations.append((id_of[bits[0]], rel_tail))
    return word_relations, id_to_word, bit_owner


def _finish_polynomial(
    circuit: Circuit,
    field: GF2m,
    ordering: RatoOrdering,
    output_word: str,
    case2: str,
    engine: SubstitutionEngine,
    id_to_word: Dict[int, str],
    bit_owner: Dict[int, "tuple[str, int]"],
    stats: AbstractionStats,
) -> "tuple[Polynomial, PolynomialRing]":
    """Case-1/Case-2 finishing shared by the serial and parallel paths."""
    word_ring = word_ring_for(field, ordering.input_words)
    leftover_bits = sorted(
        var for var in engine.variables_present() if var not in id_to_word
    )
    if not leftover_bits:
        stats.case = 1
        polynomial = _case1_polynomial(engine, word_ring, id_to_word)
    else:
        stats.case = 2
        stats.case2_method = case2
        stats.remainder_bits = [ordering.variables[v] for v in leftover_bits]
        with span("case2_finish", method=case2, leftover_bits=len(leftover_bits)):
            if case2 == "linearized":
                polynomial = _case2_linearized(
                    engine, field, word_ring, id_to_word, bit_owner
                )
            else:
                small = _case2_groebner(
                    engine, field, circuit, ordering, output_word,
                    ordering.var_ids,
                )
                polynomial = _map_words(small, word_ring)
    return polynomial, word_ring


def _report_metrics(stats: AbstractionStats) -> None:
    if not metrics.is_enabled():
        return
    metrics.counter_add(metrics.ABSTRACTION_SUBSTITUTIONS, stats.substitutions)
    metrics.counter_add(metrics.ABSTRACTION_TERM_TRAFFIC, stats.term_traffic)
    metrics.gauge_max(metrics.ABSTRACTION_PEAK_TERMS, stats.peak_terms)
    if stats.jobs:
        metrics.counter_add(metrics.PARALLEL_CONES, stats.cones)
        metrics.counter_add(
            metrics.PARALLEL_CONE_DIVISION_STEPS, sum(stats.cone_division_steps)
        )
        if stats.cone_division_steps:
            metrics.gauge_max(
                metrics.PARALLEL_MAX_CONE_DIVISION_STEPS,
                max(stats.cone_division_steps),
            )
        metrics.gauge_max(metrics.PARALLEL_POOL_WORKERS, stats.jobs)
        metrics.gauge_max(
            metrics.PARALLEL_POOL_UTILIZATION_PCT, stats.pool_utilization_pct
        )
        metrics.counter_add(
            metrics.PARALLEL_POOL_IDLE_MS, int(stats.pool_idle_seconds * 1000)
        )
        metrics.counter_add(metrics.PARALLEL_TABLE_REBUILDS, stats.table_rebuilds)


#: Below this gate count the fork/pickle overhead of the pool outweighs the
#: reduction work and ``extract_canonical`` stays serial regardless of
#: ``jobs``. Roughly a k=48 multiplier; override with REPRO_PARALLEL_MIN_GATES.
DEFAULT_PARALLEL_MIN_GATES = 4000


def _parallel_min_gates() -> int:
    return int(os.environ.get("REPRO_PARALLEL_MIN_GATES", DEFAULT_PARALLEL_MIN_GATES))


def _resolve_workers(jobs: Optional[int]) -> int:
    if jobs is None:
        return 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def extract_canonical(
    circuit: Circuit,
    field: GF2m,
    output_word: Optional[str] = None,
    case2: str = "linearized",
    ordering: Optional[RatoOrdering] = None,
    jobs: Optional[int] = None,
) -> AbstractionResult:
    """Derive the canonical polynomial ``Z = G(input words)`` of a circuit.

    Parameters
    ----------
    circuit:
        Gate-level netlist with word annotations (all words ``field.k`` bits).
    output_word:
        Which output word to abstract (defaults to the only one).
    case2:
        ``"linearized"`` (default, scalable) or ``"groebner"`` (the paper's
        Case-2 computation, exact but exponential in the worst case).
    ordering:
        Variable ordering; defaults to RATO. Pass
        :func:`~repro.core.rato.build_unrefined_order` output for ablations.
        A custom ordering forces the serial path — cone slicing assumes the
        standard RATO layout.
    jobs:
        Worker processes for the cone-sliced parallel path: ``None``/``1``
        stays serial, ``0`` means one per CPU, ``N >= 2`` uses a pool of
        ``N``. Small circuits (gate count below ``REPRO_PARALLEL_MIN_GATES``,
        default ``4000``) fall back to serial — slicing overhead would
        dominate. Above the threshold the engage decision is a cost
        comparison (:func:`repro.core.engage.parallel_engage`): predicted
        serial seconds vs. the worker plane's measured dispatch overhead,
        with ``REPRO_PARALLEL_FORCE=1``/``0`` as the hard override. Any
        :class:`~repro.jobs.plane.PoolError` also falls back to serial.
        Both paths produce bit-identical polynomials.
    """
    start = time.perf_counter()
    metrics.counter_add(metrics.ABSTRACTION_EXTRACTIONS, 1)
    if case2 not in ("linearized", "groebner"):
        raise ValueError(f"unknown case2 strategy {case2!r}")
    output_word = _resolve_output_word(circuit, field, output_word)
    workers = _resolve_workers(jobs)
    if workers > 1 and multiprocessing.current_process().daemon:
        # Batch-runner job processes and plane workers are daemonic, and
        # daemonic processes cannot fork children — a nested pool would die
        # on startup. Serial is the only viable path here; the layer above
        # already parallelises across jobs.
        logger.debug(
            "parallel abstraction requested inside a daemonic process; "
            "running serially"
        )
        workers = 1
    if (
        workers > 1
        and ordering is None
        and circuit.num_gates() >= _parallel_min_gates()
    ):
        from ..jobs.plane import PoolError
        from .engage import parallel_engage

        engaged, reason = parallel_engage(workers, circuit.num_gates(), field.k)
        if engaged:
            try:
                return _extract_parallel(
                    circuit, field, output_word, case2, workers, start
                )
            except PoolError as exc:
                logger.warning(
                    "parallel abstraction of %r failed (%s); rerunning serially",
                    output_word,
                    exc,
                )
        else:
            logger.debug(
                "parallel abstraction of %r not engaged (%s)", output_word, reason
            )
    return _extract_serial(circuit, field, output_word, case2, ordering, start)


def abstract_circuit(
    circuit: Circuit,
    field: GF2m,
    output_word: Optional[str] = None,
    case2: str = "linearized",
    ordering: Optional[RatoOrdering] = None,
    jobs: Optional[int] = None,
) -> AbstractionResult:
    """Alias of :func:`extract_canonical` (the original entry-point name)."""
    return extract_canonical(
        circuit,
        field,
        output_word=output_word,
        case2=case2,
        ordering=ordering,
        jobs=jobs,
    )


def _extract_serial(
    circuit: Circuit,
    field: GF2m,
    output_word: str,
    case2: str,
    ordering: Optional[RatoOrdering],
    start: float,
) -> AbstractionResult:
    ordering = ordering or build_rato(circuit, output_words=[output_word])
    id_of = ordering.var_ids

    # Seed with Spoly(f_w, f_g)'s surviving part: sum_i alpha^i * z_i.
    # Only gate variables and each input word's leading bit are ever
    # substituted, so the occurrence index tracks just those.
    substitutable = {id_of[net] for net in ordering.gate_nets}
    for word in ordering.input_words:
        substitutable.add(id_of[circuit.input_words[word][0]])
    engine = SubstitutionEngine(field, indexed_vars=substitutable)
    alpha_powers = field.alpha_powers()
    for i, bit in enumerate(circuit.output_words[output_word]):
        engine.add_term(frozenset((id_of[bit],)), alpha_powers[i])

    rtw = redtrace.active_writer()
    if rtw is not None:
        rtw.emit(
            "spoly_selected",
            source="abstraction",
            output=output_word,
            gates=circuit.num_gates(),
            seed_terms=len(engine.terms),
            case2=case2,
        )
    with span("spoly_reduction", gates=circuit.num_gates(), output=output_word):
        # Division by the input word relations f_wi = b_0 + b_1*alpha + ...
        # + W substitutes each relation's leading bit b_0; handing the
        # relations to the sweep keeps those steps in its compact encoding.
        word_relations, id_to_word, bit_owner = _word_relation_tables(
            circuit, ordering, alpha_powers
        )
        reduce_through_gates(
            circuit, engine, ordering, word_relations=word_relations
        )

    stats = AbstractionStats(
        gate_count=circuit.num_gates(),
        substitutions=engine.substitutions,
        peak_terms=engine.peak_terms,
        term_traffic=engine.term_traffic,
    )
    polynomial, word_ring = _finish_polynomial(
        circuit, field, ordering, output_word, case2, engine,
        id_to_word, bit_owner, stats,
    )
    stats.seconds = time.perf_counter() - start
    # Feed the engage policy's serial-rate EMA so the next request for the
    # same field sizes its parallel decision from measured data.
    note_serial_run(field.k, stats.gate_count, stats.seconds)
    _report_metrics(stats)
    return AbstractionResult(
        polynomial=polynomial,
        output_word=output_word,
        input_words=list(ordering.input_words),
        ring=word_ring,
        stats=stats,
    )


def _reduce_cone(
    cone: "FaninCone",
    field: GF2m,
    bitmap: List[int],
    derived: "Optional[tuple]" = None,
) -> "tuple[List[int], int, int, int]":
    """Reduce one output-bit cone; masks come back in the *parent* layout.

    The cone's subcircuit gets its own RATO (gate nets only — a cone carries
    no word annotations), is seeded with the bare root variable at
    coefficient 1 and swept with :func:`_reduce_to_masks`. Over GF(2) logic
    every gate-tail coefficient is 1 and the word-relation division hasn't
    happened yet, so every surviving cone coefficient is exactly 1 — the
    remainder is a pure *set* of input-bit masks, and the alpha-power
    scaling waits for the parent merge. ``bitmap[j]`` is the parent-layout
    mask bit of ``cone.inputs[j]``; returns
    ``(masks, substitutions, term_traffic, peak_terms)``.

    ``derived`` optionally supplies a precomputed ``(subcircuit, ordering)``
    pair — resident plane workers memoise these per cone across maps, where
    they otherwise dominate the re-run cost of an unchanged circuit.
    """
    if not cone.gates:
        # Output bit wired straight to a primary input.
        return [bitmap[cone.inputs.index(cone.root)]], 0, 0, 1
    if derived is None:
        sub = cone.subcircuit()
        sub_ordering = build_rato(sub, output_words=[])
    else:
        sub, sub_ordering = derived
    seed = {frozenset((sub_ordering.var_ids[cone.root],)): 1}
    remainder, substitutions, traffic, peak = _reduce_to_masks(
        sub, seed, field, sub_ordering
    )
    masks: List[int] = []
    for mask, coeff in remainder.items():
        if coeff != 1:  # unreachable for boolean gate tails; guard the merge
            raise RuntimeError(
                f"cone {cone.root!r} produced coefficient {coeff:#x}, expected 1"
            )
        out = 0
        while mask:
            low = mask & -mask
            out |= bitmap[low.bit_length() - 1]
            mask ^= low
        masks.append(out)
    return masks, substitutions, traffic, peak


def _cone_task(context: Dict, index: int) -> "tuple[bytes, Dict]":
    """Plane-worker task: reduce one cone of the shipped context.

    ``context`` travels to the worker once per circuit (epoch-tagged — see
    :mod:`repro.jobs.plane`); tasks are bare cone indices. The worker's
    context copy is resident for the epoch's lifetime, so per-circuit
    derived state is memoised on it: the field object (its GF tables were
    warmed when the context was published), each cone's extracted
    subcircuit + RATO, and — because the context identity is the content
    hash of its packed bytes, making every cone reduction a pure function
    of ``(context, index)`` — the finished cone results themselves. A
    worker asked to re-reduce a cone of a circuit it already holds answers
    from memory; the memo dies with the context when a new epoch is
    published. This is what makes repeated maps of an unchanged circuit
    (the resident-service steady state) pay: they cost pipe traffic and
    the parent merge, not re-sweeps.
    """
    memo = context.get("_results")
    if memo is None:
        memo = context["_results"] = {}
    hit = memo.get(index)
    if hit is not None:
        return hit
    field = context.get("_field")
    if field is None:
        field = GF2m(context["k"], context["modulus"])
        context["_field"] = field
    cone = context["cones"][index]
    derived_cache = context.get("_derived")
    if derived_cache is None:
        derived_cache = context["_derived"] = {}
    derived = derived_cache.get(index)
    if derived is None and cone.gates:
        sub = cone.subcircuit()
        derived = derived_cache[index] = (sub, build_rato(sub, output_words=[]))
    with span(
        "cone_reduction", root=cone.root, bit=index, gates=cone.num_gates()
    ):
        masks, steps, traffic, peak = _reduce_cone(
            cone, field, context["bitmaps"][index], derived=derived
        )
    mask_bytes = context["mask_bytes"]
    payload = b"".join(m.to_bytes(mask_bytes, "little") for m in masks)
    result = (
        payload,
        {
            "bit": index,
            "root": cone.root,
            "gates": cone.num_gates(),
            "division_steps": steps,
            "term_traffic": traffic,
            "peak_terms": peak,
            "terms": len(masks),
        },
    )
    memo[index] = result
    return result


def _plane_slices(circuit: Circuit, field: GF2m, output_word: str):
    """RATO + cone slices + the packed plane context, cached on the circuit.

    Slicing and context packing cost tens of milliseconds on k=96-sized
    multipliers — per *circuit* costs, not per map. The cache lives on the
    circuit object and is invalidated by every structural edit (see
    ``Circuit._plane_cache``), keyed on the things that change the packed
    bytes: output word, field, gate count and the tracing flag (the
    context embeds it).
    """
    tracing = metrics.is_enabled()
    token = (output_word, field.k, field.modulus, circuit.num_gates(), tracing)
    cached = getattr(circuit, "_plane_cache", None)
    if cached is not None and cached[0] == token:
        return cached[1]

    ordering = build_rato(circuit, output_words=[output_word])
    id_of = ordering.var_ids
    num_gates = len(ordering.gate_nets)
    mask_bytes = (len(ordering.variables) - num_gates + 7) // 8
    with span("cone_slicing", output=output_word):
        cones = circuit.output_cones(word=output_word)
        # Parent-layout mask bit of each cone input, precomputed so workers
        # remap without needing the parent id tables.
        bitmaps = [
            [1 << (id_of[name] - num_gates) for name in cone.inputs]
            for cone in cones
        ]
    from ..jobs.plane import pack_context

    context = {
        "cones": cones,
        "bitmaps": bitmaps,
        "k": field.k,
        "modulus": field.modulus,
        "mask_bytes": mask_bytes,
    }
    packed = pack_context(
        _cone_task, context, field_key=(field.k, field.modulus), tracing=tracing
    )
    value = (ordering, cones, bitmaps, mask_bytes, context, packed)
    circuit._plane_cache = (token, value)
    return value


def _extract_parallel(
    circuit: Circuit,
    field: GF2m,
    output_word: str,
    case2: str,
    workers: int,
    start: float,
) -> AbstractionResult:
    """Cone-sliced abstraction across ``workers`` plane processes.

    Slices the circuit into per-output-bit fanin cones, reduces each cone
    independently (coefficient-free — see :func:`_reduce_cone`), then
    rebuilds ``sum_i alpha^i * r_i`` by scaling each cone's masks at merge
    time and finishes with the same trailing word-relation division and
    Case-1/Case-2 steps as the serial path. Because substitution rewriting
    is confluent and the seed is linear in the ``z_i``, this is term-for-term
    identical to reducing the whole seed in one sweep.
    """
    from ..jobs.plane import run_pool

    ordering, cones, bitmaps, mask_bytes, context, packed = _plane_slices(
        circuit, field, output_word
    )
    num_gates = len(ordering.gate_nets)
    alpha_powers = field.alpha_powers()

    stats = AbstractionStats(
        gate_count=circuit.num_gates(), jobs=workers, cones=len(cones)
    )
    collector = active_collector()
    with span(
        "spoly_reduction",
        gates=circuit.num_gates(),
        output=output_word,
        workers=workers,
        cones=len(cones),
    ):
        # Heaviest cones first: the high output bits of a multiplier own the
        # deepest fanin, and scheduling them early keeps the pool's tail
        # short when cone costs are skewed.
        heavy_first = sorted(
            range(len(cones)), key=lambda i: -cones[i].num_gates()
        )
        # Cone events are recorded by the parent (forked workers never
        # write — see redtrace.reset_after_fork): cone_start here in
        # dispatch order, cone_end below in bit order, so a parallel
        # recording replays byte-identically regardless of completion
        # order.
        rtw = redtrace.active_writer()
        if rtw is not None:
            for i in heavy_first:
                rtw.emit(
                    "cone_start",
                    bit=i,
                    root=cones[i].root,
                    gates=cones[i].num_gates(),
                )
        pool_start = time.perf_counter()
        results = run_pool(
            _cone_task,
            heavy_first,
            workers,
            field_key=(field.k, field.modulus),
            context=context,
            packed=packed,
        )
        pool_wall = time.perf_counter() - pool_start

        merged: Dict[int, int] = {}
        cone_steps = [0] * len(cones)
        substitutions = traffic = peak = 0
        busy = 0.0
        rebuilds_by_pid: Dict[int, int] = {}
        # Merge in bit order (not completion order): the XOR-accumulated
        # contents are order-independent, and a deterministic iteration
        # keeps the recorded cone_end stream replayable.
        for res in sorted(results, key=lambda r: r.index):
            info = res.stats
            index = res.index
            if rtw is not None:
                rtw.emit(
                    "cone_end",
                    bit=index,
                    root=info["root"],
                    gates=info["gates"],
                    division_steps=info["division_steps"],
                    terms=info["terms"],
                )
            cone_steps[index] = info["division_steps"]
            substitutions += info["division_steps"]
            traffic += info["term_traffic"]
            if info["peak_terms"] > peak:
                peak = info["peak_terms"]
            busy += info["seconds"]
            pid = info["pid"]
            if info["table_rebuilds"] > rebuilds_by_pid.get(pid, 0):
                rebuilds_by_pid[pid] = info["table_rebuilds"]
            if res.spans and collector is not None:
                collector.merge({"spans": res.spans})
            scale = alpha_powers[index]
            payload = res.payload
            for off in range(0, len(payload), mask_bytes):
                mask = int.from_bytes(payload[off : off + mask_bytes], "little")
                cur = merged.get(mask, 0) ^ scale
                if cur:
                    merged[mask] = cur
                else:
                    del merged[mask]
        if len(merged) > peak:
            peak = len(merged)

        word_relations, id_to_word, bit_owner = _word_relation_tables(
            circuit, ordering, alpha_powers
        )
        div_subs, div_traffic, div_peak = _divide_word_relations(
            merged, word_relations, num_gates, field
        )
        substitutions += div_subs
        traffic += div_traffic
        if div_peak > peak:
            peak = div_peak

    engine = SubstitutionEngine(field, indexed_vars=set())
    terms = engine.terms
    for mask, coeff in merged.items():
        vars_: List[int] = []
        while mask:
            low = mask & -mask
            vars_.append(num_gates + low.bit_length() - 1)
            mask ^= low
        terms[frozenset(vars_)] = coeff

    stats.substitutions = substitutions
    stats.term_traffic = traffic
    stats.peak_terms = peak
    stats.cone_division_steps = cone_steps
    stats.table_rebuilds = sum(rebuilds_by_pid.values())
    capacity = workers * pool_wall
    if capacity > 0:
        stats.pool_idle_seconds = max(0.0, capacity - busy)
        stats.pool_utilization_pct = min(100.0, 100.0 * busy / capacity)

    polynomial, word_ring = _finish_polynomial(
        circuit, field, ordering, output_word, case2, engine,
        id_to_word, bit_owner, stats,
    )
    stats.seconds = time.perf_counter() - start
    _report_metrics(stats)
    return AbstractionResult(
        polynomial=polynomial,
        output_word=output_word,
        input_words=list(ordering.input_words),
        ring=word_ring,
        stats=stats,
    )


def abstract_all_outputs(
    circuit: Circuit,
    field: GF2m,
    case2: str = "linearized",
    jobs: Optional[int] = None,
) -> Dict[str, AbstractionResult]:
    """Abstract every output word of a multi-output circuit.

    Datapaths such as ECC point operations produce several word results
    (``X3``, ``Y3``); this derives each canonical polynomial independently
    and returns ``{output word: AbstractionResult}``.
    """
    return {
        word: extract_canonical(
            circuit, field, output_word=word, case2=case2, jobs=jobs
        )
        for word in circuit.output_words
    }
