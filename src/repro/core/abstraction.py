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
from ..circuits import Circuit, GateType
from ..gf import GF2m, coordinate_coefficients, xor_accumulate
from ..obs import metrics, redtrace
from ..obs.spans import span
from .bitpoly import SubstitutionEngine
from .gate_polys import gate_tail
from .rato import RatoOrdering, build_rato

__all__ = [
    "AbstractionResult",
    "AbstractionStats",
    "abstract_circuit",
    "abstract_all_outputs",
    "extract_canonical",
    "reduce_through_gates",
    "word_ring_for",
]


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
    variable ``num_gates + i``); :func:`reduce_through_gates` wraps it
    with the engine write-back.

    The sweep is frontier-batched: one Python op advances a whole term
    group. Gate tails over boolean logic carry coefficient 1 on every
    monomial, so tails are stored as plain *sets* of ``(mask, gates)`` keys
    and a substitution step becomes set algebra. Staged groups are
    ``mask -> coeff`` dicts, and each tail monomial folds a whole group
    into its target with one :func:`~repro.gf.xor_accumulate` sweep, so the
    interpreter dispatches per *tail item*, not per product. Shifting a
    group by a tail mask is not injective; ``xor_accumulate`` XORs
    colliding keys, so such pairs cancel.

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

    # Stage the seed: gate-free monomials land in the remainder, the rest
    # under their smallest gate variable.
    staged: Dict[int, dict] = {}
    remainder: Dict[int, int] = {}
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

    substitutions = 0
    traffic = 0
    live = len(remainder) + sum(
        len(sub) for bucket in staged.values() for sub in bucket.values()
    )
    peak = 0
    heap = [v for v, bucket in staged.items() if bucket]
    heapq.heapify(heap)
    queued = set(heap)
    staged_get = staged.get
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
                    outer[tgates] = tgt = {}
            else:
                tgt = remainder
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
                        outer[kgates] = tgt = {}
                    targets.append((tmask, tgt))
            if nsub == 1:
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
    with one :func:`~repro.gf.xor_accumulate` sweep. The sweep calls this
    at its end.
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
    """Case-1/Case-2 finishing: turn the gate-free remainder into ``G``."""
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


def extract_canonical(
    circuit: Circuit,
    field: GF2m,
    output_word: Optional[str] = None,
    case2: str = "linearized",
    ordering: Optional[RatoOrdering] = None,
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
    """
    start = time.perf_counter()
    metrics.counter_add(metrics.ABSTRACTION_EXTRACTIONS, 1)
    if case2 not in ("linearized", "groebner"):
        raise ValueError(f"unknown case2 strategy {case2!r}")
    output_word = _resolve_output_word(circuit, field, output_word)
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
    _report_metrics(stats)
    return AbstractionResult(
        polynomial=polynomial,
        output_word=output_word,
        input_words=list(ordering.input_words),
        ring=word_ring,
        stats=stats,
    )


def abstract_circuit(
    circuit: Circuit,
    field: GF2m,
    output_word: Optional[str] = None,
    case2: str = "linearized",
    ordering: Optional[RatoOrdering] = None,
) -> AbstractionResult:
    """Alias of :func:`extract_canonical` (the original entry-point name)."""
    return extract_canonical(
        circuit, field, output_word=output_word, case2=case2, ordering=ordering
    )


def abstract_all_outputs(
    circuit: Circuit,
    field: GF2m,
    case2: str = "linearized",
) -> Dict[str, AbstractionResult]:
    """Abstract every output word of a multi-output circuit.

    Datapaths such as ECC point operations produce several word results
    (``X3``, ``Y3``); this derives each canonical polynomial independently
    and returns ``{output word: AbstractionResult}``.
    """
    return {
        word: extract_canonical(circuit, field, output_word=word, case2=case2)
        for word in circuit.output_words
    }
