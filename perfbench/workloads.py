"""The in-process workloads: cold_pair, warm_resubmit and mutant_triage.

Each workload builds its inputs from the seed during set-up, then runs
checks in *rounds*: a round is a fixed mix of inputs, so every run measures
the same composition whatever the seed picked inside it. Every check runs
in a forked child (:func:`harness.run_forked`) and goes netlist text in,
verdict out, through the library's public entry points.
"""

from __future__ import annotations

import functools
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import harness

from repro.circuits import (
    GATE_ARITY,
    Circuit,
    GateType,
    random_mutation,
    read_netlist_text,
    substitute_gate_type,
    simulate_words,
    to_blif,
    to_verilog,
)
from repro.gf import GF2m, nist_polynomial
from repro.jobs.cache import CanonicalPolyCache
from repro.reveng.obfuscate import OBFUSCATION_PASSES, obfuscate
from repro.synth import mastrovito_multiplier, montgomery_multiplier
from repro.verify import verify_equivalence


@dataclass
class Item:
    """One check: a label, its inputs, and the verdict it must give."""

    label: str
    expected: str
    spec_text: Optional[str] = None
    impl_text: Optional[str] = None
    spec: Optional[Circuit] = None
    mutation: Optional[str] = None


@dataclass
class Prepared:
    """What set-up hands to the measured loop."""

    field: GF2m
    rounds: Callable[[], List[List[Item]]]
    notes: Dict[str, object] = field(default_factory=dict)
    cache_dir: Optional[Path] = None
    impl: object = None


class InProcessWorkload:
    """Shared loop; subclasses supply set-up and the check body."""

    name = ""
    k = 0
    #: Per-check wall-clock limit; a check past it fails.
    limit_s = 60.0
    #: Whether every check gets its own fresh, empty cache.
    fresh_cache = False
    #: About how long one round takes on a two-core machine. A run checks
    #: max(1, round(seconds / round_seconds)) whole rounds, so every run of
    #: a workload does the same work however fast the machine is that day.
    round_seconds = 10.0

    def setup(self, seed: int, workdir: Path) -> Prepared:
        raise NotImplementedError

    def check(self, prepared: Prepared, item: Item, cache_dir: Optional[Path]) -> Dict:
        """Netlist text in, verdict out; runs in the check child."""
        counters: Dict[str, int] = {}
        spec = read_netlist_text(item.spec_text, name=f"{item.label}.spec")
        impl = read_netlist_text(item.impl_text, name=f"{item.label}.impl")
        outcome = verify_equivalence(
            spec,
            impl,
            prepared.field,
            cache=CanonicalPolyCache(cache_dir),
            counters=counters,
        )
        return {"verdict": outcome.status, "counters": counters}

    def validate(self, prepared: Prepared, item: Item, info: Dict) -> List[str]:
        """Problems with a finished check's answer (empty when correct)."""
        verdict = info.get("verdict")
        if verdict != item.expected:
            return [f"{item.label}: answered {verdict}, expected {item.expected}"]
        return []

    def bytes_parsed(self, item: Item) -> int:
        return len(item.spec_text or "") + len(item.impl_text or "")


# -- input builders -----------------------------------------------------------


def nist_field(k: int) -> GF2m:
    return GF2m(k, nist_polynomial(k))


def write_text(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text)
    return str(path)


def stacked_order() -> List[str]:
    """All six obfuscation passes, dead logic first.

    ``obfuscate`` adds dead gates one at a time and each insertion scans
    every gate, so in library order (dead logic after the De Morgan and
    XOR expansion passes have grown the netlist) the stacked variant costs
    about 45 s at k=64 before a single check runs. Adding the dead logic
    first keeps the same passes and the same ~11x growth.
    """
    return ["dead_logic"] + [p for p in OBFUSCATION_PASSES if p != "dead_logic"]


# -- cold_pair ----------------------------------------------------------------


#: Checks of the pair per round, each with its own empty cache, so that a
#: run's median does not rest on one or two samples.
PAIR_CHECKS_PER_ROUND = 3


class ColdPair(InProcessWorkload):
    """Mastrovito (BLIF) vs flattened Montgomery (Verilog) at k=163, each
    check with a fresh, empty cache: parse and prepass dominate, the cache
    only writes."""

    name = "cold_pair"
    k = 163
    limit_s = 120.0
    fresh_cache = True
    round_seconds = 45.0

    def setup(self, seed: int, workdir: Path) -> Prepared:
        k = self.k

        def generate() -> Dict:
            f = nist_field(k)
            rng = random.Random(seed)
            # A seeded gate order: the same circuits, a different text.
            spec = obfuscate(
                mastrovito_multiplier(f), passes=["shuffle"], rng=rng
            ).circuit
            impl = obfuscate(
                montgomery_multiplier(f).flatten(), passes=["shuffle"], rng=rng
            ).circuit
            return {
                "spec": write_text(workdir, "spec.blif", to_blif(spec)),
                "impl": write_text(workdir, "impl.v", to_verilog(impl)),
            }

        paths = setup_child(generate)
        spec_text = Path(paths["spec"]).read_text()
        impl_text = Path(paths["impl"]).read_text()
        items = [
            Item(f"pair-{i + 1}", "equivalent", spec_text=spec_text, impl_text=impl_text)
            for i in range(PAIR_CHECKS_PER_ROUND)
        ]
        return Prepared(field=nist_field(k), rounds=lambda: [items])


# -- warm_resubmit ------------------------------------------------------------


class WarmResubmit(InProcessWorkload):
    """The k=64 pair plus its obfuscated variants against a cache warmed in
    set-up: every answer should be a canonical-key hit, so parse, prepass
    and key hashing are all the work there is."""

    name = "warm_resubmit"
    k = 64
    limit_s = 60.0
    round_seconds = 22.0

    def setup(self, seed: int, workdir: Path) -> Prepared:
        k = self.k
        cache_dir = workdir / "cache"

        def generate() -> Dict:
            f = nist_field(k)
            spec = mastrovito_multiplier(f)
            impl = montgomery_multiplier(f).flatten()
            # One variant per pass, seeded as reveng.obfuscation_suite
            # seeds them, plus all passes stacked.
            variants = [
                obfuscate(spec, passes=[p], seed=seed + i, name=f"obf_{p}")
                for i, p in enumerate(OBFUSCATION_PASSES)
            ]
            variants.append(
                obfuscate(
                    spec,
                    passes=stacked_order(),
                    seed=seed + len(OBFUSCATION_PASSES),
                    name="obf_stacked",
                )
            )
            files = {
                "pair": write_text(workdir, "pair.blif", to_blif(spec)),
                "impl": write_text(workdir, "impl.v", to_verilog(impl)),
            }
            growth = {}
            for i, variant in enumerate(variants):
                # Alternate the formats so both parsers see variants.
                writer, ext = (to_blif, "blif") if i % 2 == 0 else (to_verilog, "v")
                files[variant.name] = write_text(
                    workdir, f"{variant.name}.{ext}", writer(variant.circuit)
                )
                growth[variant.name] = round(variant.gates_after / variant.gates_before, 2)
            # Warm the cache: one cold check of the pair writes both keys.
            outcome = verify_equivalence(
                spec, impl, f, cache=CanonicalPolyCache(cache_dir), counters={}
            )
            if outcome.status != "equivalent":
                raise RuntimeError(f"warm-up answered {outcome.status}")
            return {"files": files, "growth": growth}

        made = setup_child(generate)
        files = made["files"]
        impl_text = Path(files.pop("impl")).read_text()
        items = [
            Item(label, "equivalent", spec_text=Path(path).read_text(), impl_text=impl_text)
            for label, path in files.items()
        ]
        rng = random.Random(seed)

        def rounds() -> List[List[Item]]:
            order = list(items)
            rng.shuffle(order)
            return [order]

        return Prepared(
            field=nist_field(k),
            rounds=rounds,
            cache_dir=cache_dir,
            notes={"variant_growth": made["growth"]},
        )


# -- mutant_triage ------------------------------------------------------------

#: Mutants per round. A round holds every substitution kind (gate type
#: before -> after) in the proportion random_mutation draws it, pathological
#: kinds included, so every run carries the same mix; which gates are hit is
#: the seed's choice. Seven of each kind: 27 answered checks, so the tail
#: (the eleventh-slowest answer) is the third-fastest of the 13 costly ones
#: (and->or, and->xor). With six of each it was the fastest, and its
#: quartile spread over ten seeds was 0.25, against 0.16 and 0.10 for the
#: next two answers. The 15 undecided checks each cost the limit.
MUTANTS_PER_ROUND = 42


def substitution_kinds(circuit: Circuit, probes: int = 64) -> Dict[tuple, float]:
    """Probability of each (before, after) gate-type substitution under
    :func:`random_mutation` on ``circuit``.

    The replacement types for each gate type come from mutating a one-gate
    circuit through the public API, so the shares follow the library's
    own substitution table.
    """
    counts: Dict[GateType, int] = {}
    for gate in circuit.gates:
        counts[gate.gate_type] = counts.get(gate.gate_type, 0) + 1
    rng = random.Random(0)
    shares: Dict[tuple, float] = {}
    mutable = 0
    targets: Dict[GateType, set] = {}
    for gate_type in counts:
        probe = Circuit("probe")
        probe.add_inputs(["a", "b"])
        arity = GATE_ARITY[gate_type][0]
        probe.add_gate("y", gate_type, ["a", "b"][:arity])
        probe.set_outputs(["y"])
        try:
            seen = {
                random_mutation(probe, rng=rng)[1].after.gate_type
                for _ in range(probes)
            }
        except ValueError:  # not a mutable gate type
            continue
        targets[gate_type] = seen
        mutable += counts[gate_type]
    for gate_type, seen in targets.items():
        for after in seen:
            shares[(gate_type.value, after.value)] = (
                counts[gate_type] / mutable / len(seen)
            )
    return shares


def quotas(shares: Dict[tuple, float], total: int) -> Dict[tuple, int]:
    """Largest-remainder apportionment of ``total`` draws over ``shares``."""
    exact = {kind: share * total for kind, share in shares.items()}
    out = {kind: int(value) for kind, value in exact.items()}
    leftover = total - sum(out.values())
    by_remainder = sorted(exact, key=lambda kind: (out[kind] - exact[kind], kind))
    for kind in by_remainder[:leftover]:
        out[kind] += 1
    return out


def draw_round(circuit: Circuit, rng: random.Random, quota: Dict[tuple, int]) -> List:
    """Seeded single-gate substitution mutants, ``quota[kind]`` of each kind.

    Within a kind the gates are a stratified sample: the kind's first gate
    in netlist order is a stratum of its own, the rest are cut into
    ``quota[kind] - 1`` equal slices, and one gate is drawn from each, so
    each round spans the early and the late gates alike. Each mutant is
    made by :func:`substitute_gate_type`, the step :func:`random_mutation`
    applies.

    The first gate stands alone because of the Mastrovito corner product
    ``pp_0_0``: as and->xor it is the one mutant outside xor->and/or known
    to run past the limit (7.4 s, where the other and->xor mutants take at
    most 1.25 s). Drawn from a slice it would fail about one run in
    170; as its own stratum it is in every round, so every run of a
    given size fails the same number of checks whatever the seed.
    """
    drawn = []
    for (before, after), count in sorted(quota.items()):
        if not count:
            continue
        pool = [g.output for g in circuit.gates if g.gate_type.value == before]
        if count == 1:
            edges = [0, len(pool)]
        else:
            edges = [0] + [1 + round(i * (len(pool) - 1) / (count - 1)) for i in range(count)]
        for lo, hi in zip(edges, edges[1:]):
            drawn.append(substitute_gate_type(circuit, pool[rng.randrange(lo, hi)], GateType(after)))
    rng.shuffle(drawn)
    return drawn


class MutantTriage(InProcessWorkload):
    """Seeded single-gate mutants of Mastrovito at k=32 against the
    hierarchical Montgomery, in memory and without a cache, as
    ``repro verify`` runs: Case 2 and the counterexample search dominate."""

    name = "mutant_triage"
    k = 32
    #: Every mutant that decides does so within 1.25 s on a quiet machine
    #: (the slowest are and->xor); every xor->and/or mutant probed ran past
    #: 4 s, and and->xor on pp_0_0 takes 7.4 s. At 1.0 s the slowest
    #: decidable ones failed now and then; at 2.5 s the two groups lie
    #: about twice the limit's distance apart either way, so which checks
    #: fail does not depend on how fast the machine is that minute.
    limit_s = 2.5
    round_seconds = 45.0

    def setup(self, seed: int, workdir: Path) -> Prepared:
        f = nist_field(self.k)
        spec = mastrovito_multiplier(f)
        impl = montgomery_multiplier(f)
        quota = quotas(substitution_kinds(spec), MUTANTS_PER_ROUND)
        rng = random.Random(seed)

        def draw() -> List[Item]:
            items = []
            for mutant, mutation in draw_round(spec, rng, quota):
                kind = (
                    f"{mutation.before.gate_type.value}->"
                    f"{mutation.after.gate_type.value}"
                )
                items.append(
                    Item(f"{mutation.net}:{kind}", "not_equivalent", spec=mutant, mutation=kind)
                )
            return items

        # The first round is drawn here, as set-up; a run that asks for more
        # rounds draws them before its timing starts.
        first = [draw()]

        def rounds() -> List[List[Item]]:
            if first:
                return [first.pop()]
            return [draw()]

        return Prepared(
            field=f,
            rounds=rounds,
            impl=impl,
            notes={"quota": {f"{a}->{b}": n for (a, b), n in sorted(quota.items())}},
        )

    def check(self, prepared: Prepared, item: Item, cache_dir: Optional[Path]) -> Dict:
        outcome = verify_equivalence(item.spec, prepared.impl, prepared.field)
        return {"verdict": outcome.status, "counterexample": outcome.counterexample}

    def validate(self, prepared: Prepared, item: Item, info: Dict) -> List[str]:
        problems = super().validate(prepared, item, info)
        if problems:
            return problems
        point = info.get("counterexample")
        if not point:
            return [f"{item.label}: not_equivalent without a counterexample"]
        if not separates(item.spec, prepared.impl, point):
            return [f"{item.label}: counterexample {point} does not separate the designs"]
        return []

    def bytes_parsed(self, item: Item) -> int:
        return 0


def separates(spec: Circuit, impl, point: Dict[str, int]) -> bool:
    """Whether both designs, simulated at ``point``, disagree."""
    stimuli = {word: [int(value)] for word, value in point.items()}
    got_spec = next(iter(simulate_words(spec, stimuli).values()))
    got_impl = next(iter(impl.simulate_words(stimuli).values()))
    return got_spec != got_impl


# -- the measured loop --------------------------------------------------------


#: Wall-clock limit on one set-up.
SETUP_LIMIT_S = 150.0


def setup_child(generate: Callable[[], Dict], limit_s: float = SETUP_LIMIT_S) -> Dict:
    """Run ``generate`` in a forked child so the circuits it builds never
    inflate the parent, whose memory every check child inherits."""
    record = harness.run_forked(generate, limit_s)
    if record["status"] != "ok":
        raise RuntimeError(f"set-up failed: {record.get('error', record['status'])}")
    return record["info"]


@dataclass
class Measured:
    """Everything one measured pass produced."""

    records: List[Dict] = field(default_factory=list)
    wall: float = 0.0
    problems: List[str] = field(default_factory=list)


def run_pass(
    workload: InProcessWorkload,
    prepared: Prepared,
    workdir: Path,
    seconds: float,
    trace: bool,
    rounds: Optional[List[List[Item]]] = None,
    between: Optional[Callable[[int], None]] = None,
) -> Measured:
    """Check the given ``rounds``, or as many whole rounds as fit in
    ``seconds`` at the workload's nominal pace. A check that fails stays
    in the records. ``between`` runs after every check, given the number
    of checks done; its time is not part of the measured wall time."""
    out = Measured()
    if rounds is None:
        count = max(1, round(seconds / workload.round_seconds))
        rounds = [r for _ in range(count) for r in prepared.rounds()]
    paused = 0.0
    start = time.perf_counter()
    for round_items in rounds:
        caches = [
            workdir / f"cache-{len(out.records) + i}" if workload.fresh_cache else prepared.cache_dir
            for i in range(len(round_items))
        ]
        for item, cache_dir in zip(round_items, caches):
            record = harness.run_forked(
                functools.partial(workload.check, prepared, item, cache_dir),
                workload.limit_s,
                trace,
            )
            record["label"] = item.label
            record["bytes"] = workload.bytes_parsed(item)
            if item.mutation:
                record["kind"] = item.mutation
            if record["status"] == "ok":
                out.problems.extend(workload.validate(prepared, item, record["info"]))
            out.records.append(record)
            if between is not None:
                mark = time.perf_counter()
                between(len(out.records))
                paused += time.perf_counter() - mark
        if workload.fresh_cache:
            for cache_dir in caches:
                shutil.rmtree(cache_dir, ignore_errors=True)
    out.wall = time.perf_counter() - start - paused
    return out


WORKLOADS = {w.name: w for w in (ColdPair(), WarmResubmit(), MutantTriage())}
