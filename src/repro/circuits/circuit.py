"""Combinational circuit container with word-level annotations.

A :class:`Circuit` is a DAG of gates over named nets. Primary inputs are
undriven nets; every other net is driven by exactly one gate. On top of the
bit-level netlist, *words* group bit nets into field operands: word ``A``
with bits ``[a0, a1, ..., a_{k-1}]`` denotes the element
``a0 + a1*alpha + ... + a_{k-1}*alpha^{k-1}`` of F_{2^k} — the Eqn. (1)
correspondence the abstraction engine relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .gates import Gate, GateType

__all__ = ["Circuit", "CircuitError", "FaninCone"]


@dataclass
class FaninCone:
    """The transitive fanin of one net: everything that can influence it.

    ``gates`` are in topological order (producers before consumers, the
    order :func:`Circuit.topological_order` would give the subcircuit) and
    ``inputs`` are the primary inputs feeding the cone, in the owning
    circuit's input order. Cones of different output bits may share gates —
    the slices overlap wherever logic has fanout across output bits.
    """

    root: str
    gates: List[Gate]
    inputs: List[str]

    def num_gates(self) -> int:
        return len(self.gates)

    def subcircuit(self, name: Optional[str] = None) -> "Circuit":
        """Materialise the cone as a standalone single-output circuit."""
        sub = Circuit(name or f"cone:{self.root}")
        sub.add_inputs(self.inputs)
        for gate in self.gates:
            sub.add_gate(gate.output, gate.gate_type, gate.inputs)
        sub.set_outputs([self.root])
        return sub


class CircuitError(ValueError):
    """Structural problem in a netlist (cycle, redefinition, dangling net)."""


class Circuit:
    """A gate-level combinational netlist with word annotations."""

    def __init__(self, name: str = "circuit"):
        self.name = name
        self._inputs: List[str] = []
        self._input_set: set = set()
        self._outputs: List[str] = []
        self._gates: Dict[str, Gate] = {}  # output net -> driving gate
        self.input_words: Dict[str, List[str]] = {}
        self.output_words: Dict[str, List[str]] = {}
        self._topo_cache: Optional[List[Gate]] = None
        self._levels_cache: Optional[Dict[str, int]] = None
        # Per-circuit, so generated net names (and RATO's name tie-breaks)
        # depend only on how this circuit was built.
        self._net_counter = 0

    # -- construction ---------------------------------------------------------

    def add_input(self, net: str) -> str:
        """Declare a primary input net."""
        if net in self._input_set:
            raise CircuitError(f"duplicate primary input {net!r}")
        if net in self._gates:
            raise CircuitError(f"net {net!r} is already driven by a gate")
        self._inputs.append(net)
        self._input_set.add(net)
        self._topo_cache = None
        self._levels_cache = None
        return net

    def add_inputs(self, nets: Iterable[str]) -> List[str]:
        return [self.add_input(n) for n in nets]

    def add_gate(self, output: str, gate_type: GateType, inputs: Sequence[str]) -> str:
        """Add a gate driving ``output``; returns the output net name."""
        if output in self._gates:
            raise CircuitError(f"net {output!r} is driven twice")
        if output in self._input_set:
            raise CircuitError(f"net {output!r} is a primary input, cannot drive it")
        self._gates[output] = Gate(output, gate_type, tuple(inputs))
        self._topo_cache = None
        self._levels_cache = None
        return output

    def set_outputs(self, nets: Sequence[str]) -> None:
        for net in nets:
            if net not in self._gates and net not in self._input_set:
                raise CircuitError(f"output net {net!r} is not driven")
        self._outputs = list(nets)

    def add_input_word(self, word: str, bits: Sequence[str]) -> None:
        """Group existing nets into an input word (LSB first)."""
        for b in bits:
            if b not in self._input_set:
                raise CircuitError(f"word {word!r} bit {b!r} is not a primary input")
        self.input_words[word] = list(bits)

    def add_output_word(self, word: str, bits: Sequence[str]) -> None:
        """Group existing nets into an output word (LSB first)."""
        for b in bits:
            if b not in self._gates and b not in self._input_set:
                raise CircuitError(f"word {word!r} bit {b!r} is not driven")
        self.output_words[word] = list(bits)

    # -- convenience builders used by the generators ----------------------------

    def fresh_net(self, prefix: str = "n") -> str:
        """A net name not yet used in this circuit."""
        while True:
            self._net_counter += 1
            candidate = f"{prefix}{self._net_counter}"
            if candidate not in self._gates and candidate not in self._input_set:
                return candidate

    def AND(self, *inputs: str, out: Optional[str] = None) -> str:
        return self.add_gate(out or self.fresh_net("a"), GateType.AND, inputs)

    def XOR(self, *inputs: str, out: Optional[str] = None) -> str:
        return self.add_gate(out or self.fresh_net("x"), GateType.XOR, inputs)

    def OR(self, *inputs: str, out: Optional[str] = None) -> str:
        return self.add_gate(out or self.fresh_net("o"), GateType.OR, inputs)

    def NOT(self, input_net: str, out: Optional[str] = None) -> str:
        return self.add_gate(out or self.fresh_net("i"), GateType.NOT, (input_net,))

    def BUF(self, input_net: str, out: Optional[str] = None) -> str:
        return self.add_gate(out or self.fresh_net("b"), GateType.BUF, (input_net,))

    def CONST(self, value: int, out: Optional[str] = None) -> str:
        gate_type = GateType.CONST1 if value else GateType.CONST0
        return self.add_gate(out or self.fresh_net("c"), gate_type, ())

    def xor_tree(self, nets: Sequence[str], out: Optional[str] = None) -> str:
        """Balanced XOR reduction of ``nets`` built from 2-input gates."""
        if not nets:
            return self.CONST(0, out=out)
        level = list(nets)
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level) - 1, 2):
                last_pair = len(level) <= 2
                nxt.append(
                    self.XOR(level[i], level[i + 1], out=out if last_pair else None)
                )
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        if len(nets) == 1 and out is not None:
            return self.BUF(level[0], out=out)
        return level[0]

    # -- accessors --------------------------------------------------------------

    @property
    def inputs(self) -> List[str]:
        return list(self._inputs)

    @property
    def outputs(self) -> List[str]:
        return list(self._outputs)

    @property
    def gates(self) -> List[Gate]:
        return list(self._gates.values())

    def gate_driving(self, net: str) -> Gate:
        try:
            return self._gates[net]
        except KeyError:
            raise CircuitError(f"net {net!r} is not driven by a gate") from None

    def is_input(self, net: str) -> bool:
        return net in self._input_set

    def is_driven(self, net: str) -> bool:
        return net in self._gates or net in self._input_set

    def num_gates(self) -> int:
        return len(self._gates)

    def nets(self) -> List[str]:
        return self._inputs + list(self._gates)

    def gate_counts(self) -> Dict[str, int]:
        """Gate-type histogram, e.g. ``{"and": 4, "xor": 3}``."""
        counts: Dict[str, int] = {}
        for gate in self._gates.values():
            counts[gate.gate_type.value] = counts.get(gate.gate_type.value, 0) + 1
        return counts

    # -- structural analysis -----------------------------------------------------

    def validate(self) -> None:
        """Check every gate input is driven and the netlist is acyclic."""
        for gate in self._gates.values():
            for net in gate.inputs:
                if not self.is_driven(net):
                    raise CircuitError(
                        f"gate {gate} reads undriven net {net!r}"
                    )
        self.topological_order()  # raises on cycles

    def topological_order(self) -> List[Gate]:
        """Gates ordered inputs-to-outputs (Kahn's algorithm); raises on cycles."""
        if self._topo_cache is not None:
            return self._topo_cache
        # Fast path: the builders emit gates producer-before-consumer, so
        # insertion order is usually already topological — one superset
        # check per gate confirms it without building the Kahn structures.
        seen = set(self._input_set)
        ordered = True
        for out, gate in self._gates.items():
            if gate.inputs and not seen.issuperset(gate.inputs):
                ordered = False
                break
            seen.add(out)
        if ordered:
            self._topo_cache = order = list(self._gates.values())
            return order
        indegree: Dict[str, int] = {}
        dependents: Dict[str, List[str]] = {}
        gates = self._gates
        for out, gate in gates.items():
            driven = [n for n in gate.inputs if n in gates]
            if len(driven) == 2:  # the common case, dedup without a set
                if driven[0] == driven[1]:
                    driven = driven[:1]
            elif len(driven) > 2:
                driven = list(dict.fromkeys(driven))
            indegree[out] = len(driven)
            for src in driven:
                dependents.setdefault(src, []).append(out)
        ready = [out for out, deg in indegree.items() if deg == 0]
        order: List[Gate] = []
        while ready:
            net = ready.pop()
            order.append(self._gates[net])
            for dep in dependents.get(net, ()):
                indegree[dep] -= 1
                if indegree[dep] == 0:
                    ready.append(dep)
        if len(order) != len(self._gates):
            raise CircuitError(f"circuit {self.name!r} contains a combinational cycle")
        self._topo_cache = order
        return order

    def reverse_topological_levels(self) -> Dict[str, int]:
        """Level of each driven net counted from the outputs.

        Output-side gates get small levels, input-side gates large ones —
        exactly the variable ranking the Refined Abstraction Term Order
        (Definition 5.1) needs: a net's RATO position decreases with its
        distance from the primary outputs.

        Cached alongside the topological order (and invalidated at the same
        mutation points); callers must not mutate the returned dict.
        """
        if self._levels_cache is not None:
            return self._levels_cache
        gates = self._gates
        # Walk consumers before producers and push ``level + 1`` onto each
        # gate input — every consumer of a net is visited before the net's
        # own gate, so the pushed maximum is final by the time we read it.
        level: Dict[str, int] = {}
        level_get = level.get
        for gate in reversed(self.topological_order()):
            out = gate.output
            lv = level_get(out, 0)
            level[out] = lv
            lv1 = lv + 1
            for src in gate.inputs:
                if src in gates and level_get(src, 0) < lv1:
                    level[src] = lv1
        self._levels_cache = level
        return level

    def logic_depth(self) -> int:
        """Longest input-to-output gate path."""
        depth: Dict[str, int] = {}
        best = 0
        for gate in self.topological_order():
            d = 1 + max((depth.get(n, 0) for n in gate.inputs), default=0)
            depth[gate.output] = d
            best = max(best, d)
        return best

    def _cone_of(
        self,
        root: str,
        topo_pos: Dict[str, int],
        input_pos: Dict[str, int],
    ) -> FaninCone:
        gates = self._gates
        seen_gates: set = set()
        seen_inputs: set = set()
        stack = [root]
        while stack:
            net = stack.pop()
            gate = gates.get(net)
            if gate is None:
                if net not in self._input_set:
                    raise CircuitError(
                        f"cone of {root!r} reaches undriven net {net!r}"
                    )
                seen_inputs.add(net)
                continue
            if net in seen_gates:
                continue
            seen_gates.add(net)
            stack.extend(gate.inputs)
        cone_gates = [gates[n] for n in sorted(seen_gates, key=topo_pos.__getitem__)]
        cone_inputs = sorted(seen_inputs, key=input_pos.__getitem__)
        return FaninCone(root, cone_gates, cone_inputs)

    def fanin_cone(self, root: str) -> FaninCone:
        """Transitive-fanin cone of one net (the net itself may be an input)."""
        if root not in self._gates and root not in self._input_set:
            raise CircuitError(f"net {root!r} is not driven")
        topo_pos = {g.output: i for i, g in enumerate(self.topological_order())}
        input_pos = {n: i for i, n in enumerate(self._inputs)}
        return self._cone_of(root, topo_pos, input_pos)

    def output_cones(self, word: Optional[str] = None) -> List[FaninCone]:
        """Per-output-bit fanin cones.

        Each output bit ``z_i`` depends only on its transitive fanin (cf.
        Yu & Ciesielski's per-bit GF-multiplier verification). With
        ``word`` given, returns one cone per bit of that output word (LSB
        first, matching the word's bit order); otherwise one cone per
        primary output net. Cones may share gates: shared logic appears in
        every cone that reaches it.
        """
        if word is not None:
            try:
                roots = self.output_words[word]
            except KeyError:
                raise CircuitError(f"unknown output word {word!r}") from None
        else:
            roots = self._outputs
        topo_pos = {g.output: i for i, g in enumerate(self.topological_order())}
        input_pos = {n: i for i, n in enumerate(self._inputs)}
        for root in roots:
            if root not in self._gates and root not in self._input_set:
                raise CircuitError(f"output net {root!r} is not driven")
        return [self._cone_of(root, topo_pos, input_pos) for root in roots]

    # -- transformation ------------------------------------------------------------

    def clone(self, name: Optional[str] = None) -> "Circuit":
        other = Circuit(name or self.name)
        other._inputs = list(self._inputs)
        other._input_set = set(self._input_set)
        other._outputs = list(self._outputs)
        other._gates = dict(self._gates)
        other.input_words = {w: list(b) for w, b in self.input_words.items()}
        other.output_words = {w: list(b) for w, b in self.output_words.items()}
        return other

    def renamed(self, prefix: str) -> "Circuit":
        """Copy with every net prefixed — for instantiating a block twice."""

        def r(net: str) -> str:
            return f"{prefix}{net}"

        other = Circuit(f"{prefix}{self.name}")
        other.add_inputs(r(n) for n in self._inputs)
        for gate in self._gates.values():
            other.add_gate(r(gate.output), gate.gate_type, [r(n) for n in gate.inputs])
        other.set_outputs([r(n) for n in self._outputs])
        other.input_words = {w: [r(b) for b in bits] for w, bits in self.input_words.items()}
        other.output_words = {w: [r(b) for b in bits] for w, bits in self.output_words.items()}
        return other

    def replace_gate(self, output: str, gate_type: GateType, inputs: Sequence[str]) -> None:
        """Swap the gate driving ``output`` (used by bug injection)."""
        if output not in self._gates:
            raise CircuitError(f"net {output!r} is not driven by a gate")
        self._gates[output] = Gate(output, gate_type, tuple(inputs))
        self._topo_cache = None
        self._levels_cache = None

    def __repr__(self) -> str:
        return (
            f"Circuit({self.name!r}, inputs={len(self._inputs)}, "
            f"gates={len(self._gates)}, outputs={len(self._outputs)})"
        )
