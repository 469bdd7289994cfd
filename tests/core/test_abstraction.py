"""Unit tests for the word-level abstraction algorithm (Sections 4-5)."""

import pytest

from repro.circuits import Circuit
from repro.core import (
    abstract_all_outputs,
    abstract_circuit,
    build_rato,
    build_unrefined_order,
)
from repro.gf import GF2m
from repro.synth import (
    constant_multiplier,
    gf_adder,
    gf_squarer,
    mastrovito_multiplier,
    montgomery_block,
    montgomery_r,
)

from ..circuits.test_circuit import two_bit_multiplier


class TestMultipliers:
    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    def test_mastrovito_abstracts_to_ab(self, k):
        field = GF2m(k)
        result = abstract_circuit(mastrovito_multiplier(field), field)
        ring = result.ring
        assert result.polynomial == ring.var("A") * ring.var("B")
        assert result.stats.case == 1
        assert result.output_word == "Z"

    def test_fig2_circuit(self, f4):
        result = abstract_circuit(two_bit_multiplier(), f4)
        ring = result.ring
        assert result.polynomial == ring.var("A") * ring.var("B")

    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    def test_montgomery_block_abstracts_to_abr_inv(self, k):
        field = GF2m(k)
        result = abstract_circuit(montgomery_block(field), field)
        ring = result.ring
        r_inv = field.inv(montgomery_r(field))
        assert result.polynomial == (ring.var("A") * ring.var("B")).scale(r_inv)


class TestLinearCircuits:
    def test_adder(self, f256):
        result = abstract_circuit(gf_adder(f256), f256)
        ring = result.ring
        assert result.polynomial == ring.var("A") + ring.var("B")

    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    def test_squarer_needs_case2(self, k):
        field = GF2m(k)
        result = abstract_circuit(gf_squarer(field), field)
        assert result.polynomial == result.ring.var("A", 2)
        assert result.stats.case == 2

    @pytest.mark.parametrize("constant", [1, 2, 3, 9])
    def test_constant_multiplier(self, constant, f16):
        result = abstract_circuit(constant_multiplier(f16, constant), f16)
        assert result.polynomial == result.ring.var("A").scale(constant)


class TestCase2Methods:
    def test_linearized_equals_groebner_squarer(self, f8):
        sq = gf_squarer(f8)
        lin = abstract_circuit(sq, f8, case2="linearized")
        gro = abstract_circuit(sq, f8, case2="groebner")
        assert lin.polynomial == gro.polynomial
        assert lin.stats.case2_method == "linearized"
        assert gro.stats.case2_method == "groebner"

    def test_linearized_equals_groebner_buggy_multiplier(self, f4):
        from repro.circuits import rewire_gate_input

        buggy, _ = rewire_gate_input(two_bit_multiplier(), "r0", 0, "s0")
        lin = abstract_circuit(buggy, f4, case2="linearized")
        gro = abstract_circuit(buggy, f4, case2="groebner")
        assert lin.polynomial == gro.polynomial

    def test_unknown_method_rejected(self, f4):
        with pytest.raises(ValueError):
            abstract_circuit(two_bit_multiplier(), f4, case2="magic")

    def test_remainder_bits_reported(self, f8):
        result = abstract_circuit(gf_squarer(f8), f8)
        assert result.stats.remainder_bits
        assert all(b.startswith("a") for b in result.stats.remainder_bits)


class TestAbstractionMatchesSimulation:
    """Theorem 4.2(ii): G and the circuit agree as functions."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_random_functions(self, k):
        import random

        from repro.circuits import exhaustive_word_table
        from repro.synth import random_word_function

        field = GF2m(k)
        rng = random.Random(k * 31)
        for trial in range(4):
            circuit, table = random_word_function(field, 1, rng, name=f"fn{trial}")
            result = abstract_circuit(circuit, field)
            for (a,), value in table.items():
                assert result.polynomial.evaluate({"A": a}) == value, trial

    def test_two_input_random_function(self, f4):
        import random

        from repro.synth import random_word_function

        circuit, table = random_word_function(f4, 2, random.Random(99))
        result = abstract_circuit(circuit, f4)
        for (a, b), value in table.items():
            assert result.polynomial.evaluate({"A": a, "B": b}) == value

    def test_canonical_degree_bound(self, f4):
        """Definition 3.1: canonical exponents stay below q."""
        import random

        from repro.synth import random_word_function

        circuit, _ = random_word_function(f4, 1, random.Random(5))
        result = abstract_circuit(circuit, f4)
        assert result.polynomial.degree_in("A") <= 3


class TestOrderingVariants:
    def test_unrefined_order_same_result(self, f16):
        """Any abstraction order yields the same canonical polynomial."""
        circuit = mastrovito_multiplier(f16)
        rato = abstract_circuit(circuit, f16)
        unrefined = abstract_circuit(
            circuit, f16, ordering=build_unrefined_order(circuit, shuffle_seed=3)
        )
        assert rato.polynomial == unrefined.polynomial

    def test_explicit_rato_matches_default(self, f16):
        circuit = mastrovito_multiplier(f16)
        default = abstract_circuit(circuit, f16)
        explicit = abstract_circuit(
            circuit, f16, ordering=build_rato(circuit, output_words=["Z"])
        )
        assert default.polynomial == explicit.polynomial


class TestValidation:
    def test_no_output_word_rejected(self, f4):
        c = Circuit("noword")
        c.add_inputs(["a", "b"])
        c.AND("a", "b", out="z")
        c.set_outputs(["z"])
        with pytest.raises(ValueError):
            abstract_circuit(c, f4)

    def test_wrong_width_rejected(self, f4):
        c = two_bit_multiplier()
        field8 = GF2m(3)
        with pytest.raises(ValueError):
            abstract_circuit(c, field8)

    def test_multi_output_needs_name(self, f4):
        c = two_bit_multiplier()
        c.add_output_word("Z2", ["z0", "z1"])
        with pytest.raises(ValueError):
            abstract_circuit(c, f4)
        result = abstract_circuit(c, f4, output_word="Z2")
        assert result.output_word == "Z2"

    def test_stats_recorded(self, f16):
        result = abstract_circuit(mastrovito_multiplier(f16), f16)
        stats = result.stats
        assert stats.gate_count == 31
        assert stats.substitutions > 0
        assert stats.peak_terms >= 16
        assert stats.seconds > 0

    def test_str_renders_relation(self, f4):
        result = abstract_circuit(two_bit_multiplier(), f4)
        assert str(result) == "Z = A*B"


class TestMultiOutputCircuits:
    def test_separate_words_abstract_independently(self, f4):
        """One circuit computing both A*B and A+B."""
        c = Circuit("double")
        a = [c.add_input(f"a{i}") for i in range(2)]
        b = [c.add_input(f"b{i}") for i in range(2)]
        c.add_input_word("A", a)
        c.add_input_word("B", b)
        s0 = c.AND(a[0], b[0])
        s1 = c.AND(a[0], b[1])
        s2 = c.AND(a[1], b[0])
        s3 = c.AND(a[1], b[1])
        r0 = c.XOR(s1, s2)
        m0 = c.XOR(s0, s3, out="m0")
        m1 = c.XOR(r0, s3, out="m1")
        p0 = c.XOR(a[0], b[0], out="p0")
        p1 = c.XOR(a[1], b[1], out="p1")
        c.set_outputs(["m0", "m1", "p0", "p1"])
        c.add_output_word("M", ["m0", "m1"])
        c.add_output_word("P", ["p0", "p1"])
        mult = abstract_circuit(c, f4, output_word="M")
        add = abstract_circuit(c, f4, output_word="P")
        assert mult.polynomial == mult.ring.var("A") * mult.ring.var("B")
        assert add.polynomial == add.ring.var("A") + add.ring.var("B")

    def test_abstract_all_outputs(self, f4):
        c = Circuit("double2")
        a = [c.add_input(f"a{i}") for i in range(2)]
        b = [c.add_input(f"b{i}") for i in range(2)]
        c.add_input_word("A", a)
        c.add_input_word("B", b)
        p = [c.XOR(a[i], b[i], out=f"p{i}") for i in range(2)]
        c.set_outputs(p)
        c.add_output_word("P", p)
        c.add_output_word("P2", list(reversed(p)))  # bit-reversed word
        results = abstract_all_outputs(c, f4)
        assert set(results) == {"P", "P2"}
        assert results["P"].polynomial == results["P"].ring.var("A") + results[
            "P"
        ].ring.var("B")
        # The bit-reversed word implements a different (linear) function.
        assert results["P2"].polynomial != results["P"].polynomial


class TestSweepInvariant:
    def test_non_unit_gate_tail_coefficient_raises_naming_the_gate(
        self, monkeypatch
    ):
        # The mask sweep stores gate tails as coefficient-free sets; a tail
        # coefficient other than 1 must fail loudly, not be dropped.
        from repro.circuits import GateType, substitute_gate_type
        from repro.core import abstraction

        field = GF2m(8)
        clean = mastrovito_multiplier(field)
        net = next(g.output for g in clean.gates if g.gate_type is GateType.XOR)
        circuit, _ = substitute_gate_type(clean, net, GateType.OR)
        real_gate_tail = abstraction.gate_tail

        def doubled_tail(gate, var_ids):
            return {m: 2 for m in real_gate_tail(gate, var_ids)}

        monkeypatch.setattr(abstraction, "gate_tail", doubled_tail)
        with pytest.raises(RuntimeError, match=rf"gate '{net}' \(OR\).*0x2"):
            abstract_circuit(circuit, field)
