"""Property tests: the batched production kernels against small oracles.

Two invariants, each checked against an independent reference rather than
against a second production implementation:

- **term exactness** — the batched mask sweep behind
  ``reduce_through_gates`` leaves exactly the remainder a plain
  frozenset sweep leaves (one ``SubstitutionEngine.substitute`` per gate
  in RATO order), on clean and on randomly mutated multipliers (mutations
  give dense, irregular, sometimes Case-2 remainders — where a parity bug
  in the set-batched frontier would surface), for both the alpha-weighted
  serial seed and the coefficient-free cone seed;
- **oracle agreement** — ``reduce_polynomial`` and ``divmod_polynomial``
  match the scan-based ``reference_reduce_polynomial``
  remainder-for-remainder and step-for-step on random polynomial systems.

Recorded REDTRACEs replaying with zero diffs is pinned by
``tests/obs/test_fixture_replay.py``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra import Polynomial, PolynomialRing
from repro.algebra.division import (
    DivisionTrace,
    divmod_polynomial,
    reduce_polynomial,
    reference_reduce_polynomial,
)
from repro.circuits import Circuit, random_mutation
from repro.core import build_rato
from repro.core.abstraction import reduce_through_gates
from repro.core.bitpoly import SubstitutionEngine
from repro.core.gate_polys import gate_tail
from repro.gf import GF2m
from repro.synth import mastrovito_multiplier, montgomery_multiplier

F256 = GF2m(8)


def _seeds(circuit, field, ordering):
    """The serial seed ``sum alpha^i z_i`` and the coefficient-free one."""
    id_of = ordering.var_ids
    (bits,) = circuit.output_words.values()
    alpha = field.alpha_powers()
    weighted = {frozenset((id_of[b],)): alpha[i] for i, b in enumerate(bits)}
    pure = {frozenset((id_of[b],)): 1 for b in bits}
    return weighted, pure


def frozenset_oracle(circuit, field, ordering, seed):
    """Reference sweep: substitute every gate by its tail, in RATO order."""
    id_of = ordering.var_ids
    engine = SubstitutionEngine(field)
    engine.add_terms(seed.items())
    for net in ordering.gate_nets:
        engine.substitute(id_of[net], gate_tail(circuit.gate_driving(net), id_of))
    return engine.terms


def _assert_sweep_matches_oracle(circuit, field):
    ordering = build_rato(circuit, output_words=list(circuit.output_words))
    for seed in _seeds(circuit, field, ordering):
        engine = SubstitutionEngine(field)
        engine.add_terms(seed.items())
        reduce_through_gates(circuit, engine, ordering)
        assert engine.terms == frozenset_oracle(circuit, field, ordering, seed)


def _flat(circuit):
    return circuit.flatten() if hasattr(circuit, "flatten") else circuit


class TestExtractionTermExact:
    @pytest.mark.parametrize("synth", [mastrovito_multiplier, montgomery_multiplier])
    def test_clean_multiplier(self, synth):
        _assert_sweep_matches_oracle(_flat(synth(F256)), F256)

    def test_colliding_shifts_cancel(self):
        # z0 = v + v*a0 stages the group {v, v*a0} under v; shifting it by
        # the tail monomial a0 of v = a0 + b0 collides, and the pair must
        # cancel (v*(1 + a0) = b0 + a0*b0), not dedupe.
        c = Circuit("collide")
        c.add_inputs(["a0", "a1", "b0", "b1"])
        c.XOR("a0", "b0", out="v")
        c.AND("v", "a0", out="w")
        c.XOR("v", "w", out="z0")
        c.AND("a1", "b1", out="z1")
        c.set_outputs(["z0", "z1"])
        c.add_input_word("A", ["a0", "a1"])
        c.add_input_word("B", ["b0", "b1"])
        c.add_output_word("Z", ["z0", "z1"])
        _assert_sweep_matches_oracle(c, GF2m(2))

    @given(seed=st.integers(0, 2**20))
    @settings(
        max_examples=10, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_mutated_mastrovito(self, seed):
        circuit, _ = random_mutation(mastrovito_multiplier(F256), seed=seed)
        _assert_sweep_matches_oracle(circuit, F256)

    @given(seed=st.integers(0, 2**20))
    @settings(
        max_examples=6, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_mutated_montgomery(self, seed):
        circuit, _ = random_mutation(_flat(montgomery_multiplier(F256)), seed=seed)
        _assert_sweep_matches_oracle(circuit, F256)


@st.composite
def poly_data(draw, num_vars=4, max_terms=8, order=256):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        nv = draw(st.integers(1, num_vars))
        variables = draw(
            st.lists(
                st.integers(0, num_vars - 1),
                min_size=nv, max_size=nv, unique=True,
            )
        )
        monomial = tuple(
            sorted((v, draw(st.integers(1, 2))) for v in variables)
        )
        terms[monomial] = draw(st.integers(1, order - 1))
    return terms


class TestDivisionOracleAgreement:
    @given(
        f_data=poly_data(),
        g_data=st.lists(poly_data(max_terms=4), min_size=1, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_reducers_match_reference(self, f_data, g_data):
        ring = PolynomialRing(F256, ["a", "b", "c", "d"])
        f = Polynomial(ring, f_data)
        divisors = [Polynomial(ring, d) for d in g_data]
        traces = [DivisionTrace() for _ in range(3)]
        reduced = reduce_polynomial(f, divisors, trace=traces[0])
        quotients, remainder = divmod_polynomial(f, divisors, trace=traces[1])
        reference = reference_reduce_polynomial(f, divisors, trace=traces[2])
        assert reduced.terms == remainder.terms == reference.terms
        assert (
            (traces[0].steps, traces[0].peak_terms)
            == (traces[1].steps, traces[1].peak_terms)
            == (traces[2].steps, traces[2].peak_terms)
        )
        certificate = remainder
        for q, g in zip(quotients, divisors):
            certificate = certificate + q * g
        assert certificate == f
