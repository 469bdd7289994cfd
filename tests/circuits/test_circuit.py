"""Unit tests for the Circuit container."""

import pytest

from repro.circuits import Circuit, CircuitError, GateType


def two_bit_multiplier():
    """The paper's Fig. 2 circuit."""
    c = Circuit("mult2")
    c.add_inputs(["a0", "a1", "b0", "b1"])
    c.AND("a0", "b0", out="s0")
    c.AND("a0", "b1", out="s1")
    c.AND("a1", "b0", out="s2")
    c.AND("a1", "b1", out="s3")
    c.XOR("s1", "s2", out="r0")
    c.XOR("s0", "s3", out="z0")
    c.XOR("r0", "s3", out="z1")
    c.set_outputs(["z0", "z1"])
    c.add_input_word("A", ["a0", "a1"])
    c.add_input_word("B", ["b0", "b1"])
    c.add_output_word("Z", ["z0", "z1"])
    return c


class TestConstruction:
    def test_duplicate_input_rejected(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(CircuitError):
            c.add_input("a")

    def test_double_drive_rejected(self):
        c = Circuit()
        c.add_inputs(["a", "b"])
        c.AND("a", "b", out="z")
        with pytest.raises(CircuitError):
            c.XOR("a", "b", out="z")

    def test_driving_an_input_rejected(self):
        c = Circuit()
        c.add_inputs(["a", "b"])
        with pytest.raises(CircuitError):
            c.AND("a", "b", out="a")

    def test_undriven_output_rejected(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(CircuitError):
            c.set_outputs(["ghost"])

    def test_word_bits_must_exist(self):
        c = Circuit()
        c.add_input("a0")
        with pytest.raises(CircuitError):
            c.add_input_word("A", ["a0", "a1"])
        with pytest.raises(CircuitError):
            c.add_output_word("Z", ["nope"])

    def test_input_word_must_be_inputs(self):
        c = Circuit()
        c.add_inputs(["a", "b"])
        net = c.AND("a", "b")
        with pytest.raises(CircuitError):
            c.add_input_word("W", [net])

    def test_fresh_net_unique(self):
        c = Circuit()
        c.add_input("a")
        names = {c.fresh_net() for _ in range(100)}
        assert len(names) == 100

    def test_fresh_net_counts_per_circuit(self):
        # Names come from the circuit being built, not from what else ran
        # in the process, so a regenerated circuit is identical text.
        from repro.circuits import to_verilog
        from repro.gf import GF2m
        from repro.synth import mastrovito_multiplier

        first = to_verilog(mastrovito_multiplier(GF2m(8)))
        second = to_verilog(mastrovito_multiplier(GF2m(8)))
        assert first == second
        c = Circuit()
        c.add_input("n1")
        assert c.fresh_net() == "n2"


class TestAccessors:
    def test_counts(self):
        c = two_bit_multiplier()
        assert c.num_gates() == 7
        assert len(c.inputs) == 4
        assert c.outputs == ["z0", "z1"]

    def test_gate_counts(self):
        assert two_bit_multiplier().gate_counts() == {"and": 4, "xor": 3}

    def test_gate_driving(self):
        c = two_bit_multiplier()
        assert c.gate_driving("z0").gate_type is GateType.XOR
        with pytest.raises(CircuitError):
            c.gate_driving("a0")

    def test_is_input_is_driven(self):
        c = two_bit_multiplier()
        assert c.is_input("a0") and not c.is_input("z0")
        assert c.is_driven("z0") and c.is_driven("a0")
        assert not c.is_driven("ghost")

    def test_nets(self):
        c = two_bit_multiplier()
        assert set(c.nets()) == {
            "a0", "a1", "b0", "b1", "s0", "s1", "s2", "s3", "r0", "z0", "z1",
        }


class TestTopology:
    def test_topological_order_respects_dependencies(self):
        c = two_bit_multiplier()
        order = [g.output for g in c.topological_order()]
        position = {net: i for i, net in enumerate(order)}
        for gate in c.gates:
            for src in gate.inputs:
                if src in position:
                    assert position[src] < position[gate.output]

    def test_cycle_detected(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("x", GateType.AND, ("a", "y"))
        c.add_gate("y", GateType.AND, ("a", "x"))
        with pytest.raises(CircuitError):
            c.topological_order()

    def test_validate_catches_dangling(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("z", GateType.AND, ("a", "ghost"))
        with pytest.raises(CircuitError):
            c.validate()

    def test_reverse_topological_levels(self):
        c = two_bit_multiplier()
        levels = c.reverse_topological_levels()
        assert levels["z0"] == 0 and levels["z1"] == 0
        assert levels["r0"] == 1
        assert levels["s3"] == 1  # feeds z0/z1 directly
        assert levels["s1"] == 2  # feeds r0 only

    def test_logic_depth(self):
        c = two_bit_multiplier()
        assert c.logic_depth() == 3  # and -> xor(r0) -> xor(z1)

    def test_topo_cache_invalidation(self):
        c = Circuit()
        c.add_inputs(["a", "b"])
        c.AND("a", "b", out="x")
        assert len(c.topological_order()) == 1
        c.XOR("a", "x", out="y")
        assert len(c.topological_order()) == 2


class TestBuilders:
    def test_xor_tree_balanced(self):
        c = Circuit()
        nets = c.add_inputs(f"i{j}" for j in range(9))
        out = c.xor_tree(nets, out="sum")
        assert out == "sum"
        from repro.circuits import simulate

        values = simulate(c, {f"i{j}": 1 for j in range(9)})
        assert values["sum"] == 1  # parity of nine ones

    def test_xor_tree_single_input_with_name(self):
        c = Circuit()
        c.add_input("a")
        out = c.xor_tree(["a"], out="z")
        assert c.gate_driving(out).gate_type is GateType.BUF

    def test_xor_tree_empty(self):
        c = Circuit()
        out = c.xor_tree([])
        assert c.gate_driving(out).gate_type is GateType.CONST0

    def test_const_builder(self):
        c = Circuit()
        z = c.CONST(1)
        assert c.gate_driving(z).gate_type is GateType.CONST1


class TestTransformation:
    def test_clone_is_independent(self):
        c = two_bit_multiplier()
        d = c.clone()
        d.XOR("z0", "z1", out="extra")
        assert d.num_gates() == c.num_gates() + 1

    def test_renamed_prefixes_everything(self):
        c = two_bit_multiplier()
        r = c.renamed("u__")
        assert r.inputs == ["u__a0", "u__a1", "u__b0", "u__b1"]
        assert r.input_words["A"] == ["u__a0", "u__a1"]
        assert r.output_words["Z"] == ["u__z0", "u__z1"]
        r.validate()

    def test_renamed_preserves_function(self):
        from repro.circuits import simulate_words
        from repro.gf import GF2m

        f4 = GF2m(2)
        c = two_bit_multiplier()
        r = c.renamed("u__")
        stim = {"A": list(range(4)) * 4, "B": [b for b in range(4) for _ in range(4)]}
        assert simulate_words(c, stim) == simulate_words(r, stim)

    def test_replace_gate(self):
        c = two_bit_multiplier()
        c.replace_gate("r0", GateType.AND, ("s1", "s2"))
        assert c.gate_driving("r0").gate_type is GateType.AND
        with pytest.raises(CircuitError):
            c.replace_gate("a0", GateType.NOT, ("a1",))

    def test_repr(self):
        assert "mult2" in repr(two_bit_multiplier())
