"""The prepass -> cache -> abstraction pipeline and its integration points."""

import random

import pytest

from repro.circuits import Circuit, GateType, to_blif
from repro.jobs.cache import CanonicalPolyCache, rehydrate_polynomial
from repro.jobs.executor import execute_job, run_verify
from repro.jobs.manifest import ManifestError, manifest_from_dict
from repro.prepass import (
    PREPASS_ENV,
    PrepassError,
    abstract_canonical,
    apply_prepass,
    differential_guard,
    resolve_prepass,
)
from repro.reveng import obfuscate
from repro.synth import gf_squarer, mastrovito_multiplier
from repro.verify import verify_equivalence


# -- the tri-state switch -----------------------------------------------------


def test_env_escape_hatch(monkeypatch):
    monkeypatch.delenv(PREPASS_ENV, raising=False)
    assert resolve_prepass() is True
    for value in ("0", "false", "no", "off", " OFF "):
        monkeypatch.setenv(PREPASS_ENV, value)
        assert resolve_prepass() is False, value
    monkeypatch.setenv(PREPASS_ENV, "0")
    assert resolve_prepass(True) is True  # explicit override beats the env
    monkeypatch.setenv(PREPASS_ENV, "1")
    assert resolve_prepass(False) is False


def test_env_off_keys_the_raw_structure(tmp_path, monkeypatch, gf16):
    monkeypatch.setenv(PREPASS_ENV, "0")
    cache = CanonicalPolyCache(tmp_path / "cache")
    circuit = gf_squarer(gf16)
    probe = abstract_canonical(circuit, gf16, cache=cache)
    assert probe.prepass is None
    warm = abstract_canonical(circuit, gf16, cache=cache)
    assert warm.hit and warm.source == "raw"


# -- verdict and polynomial invariance (Corollary 4.1) ------------------------


def test_prepass_on_and_off_agree_exactly(gf16):
    spec = mastrovito_multiplier(gf16)
    impl = obfuscate(spec, seed=13).circuit
    on = verify_equivalence(spec, impl, gf16, prepass=True)
    off = verify_equivalence(spec, impl, gf16, prepass=False)
    assert on.status == off.status == "equivalent"
    assert on.details["spec_polynomial"] == off.details["spec_polynomial"]
    assert on.details["impl_polynomial"] == off.details["impl_polynomial"]
    assert "prepass" in on.details["spec"]
    assert "prepass" not in off.details["spec"]


def test_prepass_agrees_on_buggy_designs(gf16):
    spec = mastrovito_multiplier(gf16)
    buggy = obfuscate(spec, seed=13).circuit
    # Break one reachable gate: swap an AND driving the output cone to OR.
    victim = next(
        g.output
        for g in buggy.topological_order()
        if g.gate_type == GateType.AND
    )
    gate = buggy._gates[victim]
    buggy._gates[victim] = type(gate)(victim, GateType.OR, gate.inputs)
    buggy._topo_cache = None
    buggy._levels_cache = None
    on = verify_equivalence(spec, buggy, gf16, prepass=True, seed=1)
    off = verify_equivalence(spec, buggy, gf16, prepass=False, seed=1)
    assert on.status == off.status
    assert on.counterexample == off.counterexample


# -- cache key fallback and promotion -----------------------------------------


def test_raw_key_entries_answer_and_get_promoted(tmp_path, gf16):
    """A prepass-on lookup falls back to raw-key entries and promotes them.

    Entries written by ``REPRO_PREPASS=0`` runs (or before the prepass
    existed) sit under the raw-structure key; the first prepass-on lookup
    answers from them (a ``raw`` hit) and re-publishes the payload under
    the canonical key, which the next lookup hits directly.
    """
    cache = CanonicalPolyCache(tmp_path / "cache")
    circuit = gf_squarer(gf16)
    seeded = abstract_canonical(circuit, gf16, cache=cache, prepass=False)
    assert not seeded.hit

    counters = {}
    fallback = abstract_canonical(
        circuit, gf16, cache=cache, counters=counters, prepass=True
    )
    assert fallback.hit and fallback.source == "raw"
    assert counters["hits_raw"] == 1 and counters["hits_canonical"] == 0

    promoted = abstract_canonical(
        circuit, gf16, cache=cache, counters=counters, prepass=True
    )
    assert promoted.hit and promoted.source == "canonical"
    assert counters["hits_canonical"] == 1
    poly = rehydrate_polynomial(promoted.payload, gf16)
    assert poly == rehydrate_polynomial(seeded.payload, gf16)


def test_cache_stats_break_out_key_kinds(tmp_path):
    cache = CanonicalPolyCache(tmp_path / "cache")
    cache.record(hits=5, misses=2, hits_canonical=3, hits_raw=2)
    cache.record(hits=1, hits_canonical=1)
    stats = cache.stats()
    assert stats["hits"] == 6 and stats["misses"] == 2
    assert stats["hits_canonical"] == 4 and stats["hits_raw"] == 2


# -- fraig reduction soundness ------------------------------------------------


def _redundant_circuit():
    """Distributivity: ``(a&b)|(a&c) == a&(b|c)`` — two distinct internal
    nodes that structural hashing cannot fold but a SAT miter proves equal."""
    c = Circuit("redundant")
    c.add_inputs(["a", "b", "c", "d"])
    c.add_gate("t1", GateType.AND, ["a", "b"])
    c.add_gate("t2", GateType.AND, ["a", "c"])
    c.add_gate("f1", GateType.OR, ["t1", "t2"])
    c.add_gate("u", GateType.OR, ["b", "c"])
    c.add_gate("f2", GateType.AND, ["a", "u"])
    c.add_gate("z1", GateType.XOR, ["f1", "d"])
    c.add_gate("z2", GateType.AND, ["f2", "d"])
    c.set_outputs(["z1", "z2"])
    return c


def test_fraig_merges_proven_equivalences():
    circuit = _redundant_circuit()
    result = apply_prepass(circuit)
    assert result.nets_merged >= 1
    assert result.gates_out < result.canonical_gates
    rng = random.Random(3)
    stimuli = {n: rng.getrandbits(64) for n in circuit.inputs}
    from repro.circuits import simulate

    got = simulate(circuit, stimuli, lanes=64)
    got_r = simulate(result.circuit, stimuli, lanes=64)
    assert got[circuit.outputs[0]] == got_r[result.circuit.outputs[0]]


def test_fraig_disabled_merges_nothing():
    result = apply_prepass(_redundant_circuit(), fraig=False)
    assert result.nets_merged == 0 and result.sat_queries == 0


def test_zero_conflict_budget_leaves_unknowns_untouched():
    """With no conflict budget every miter is ``unknown`` — nothing merges."""
    result = apply_prepass(_redundant_circuit(), max_conflicts=0)
    assert result.nets_merged == 0
    assert result.sat_unknown >= result.sat_queries - result.sat_refuted


# -- the differential guard ---------------------------------------------------


def test_guard_rejects_a_functional_change(gf16):
    circuit = gf_squarer(gf16)
    broken = obfuscate(circuit, passes=["rename"], seed=2).circuit
    victim = next(iter(broken._gates))
    gate = broken._gates[victim]
    broken._gates[victim] = type(gate)(
        victim,
        GateType.OR if gate.gate_type != GateType.OR else GateType.AND,
        gate.inputs,
    )
    broken._topo_cache = None
    broken._levels_cache = None
    with pytest.raises(PrepassError):
        differential_guard(circuit, broken)


def test_pipeline_falls_back_to_raw_when_guard_trips(monkeypatch, tmp_path, gf16):
    import repro.prepass.pipeline as pipeline_mod

    def explode(circuit, **kwargs):
        raise PrepassError("injected guard failure")

    monkeypatch.setattr(pipeline_mod, "apply_prepass", explode)
    cache = CanonicalPolyCache(tmp_path / "cache")
    circuit = gf_squarer(gf16)
    probe = abstract_canonical(circuit, gf16, cache=cache, prepass=True)
    assert probe.prepass is None  # prepass contributed nothing
    assert not probe.hit
    # The fallback keyed the raw structure: a prepass-off lookup hits it.
    again = abstract_canonical(circuit, gf16, cache=cache, prepass=False)
    assert again.hit


# -- executor / manifest / service integration --------------------------------


def test_run_verify_record_schema(tmp_path, gf16):
    spec = mastrovito_multiplier(gf16)
    impl = obfuscate(spec, seed=4).circuit
    spec_path = tmp_path / "spec.blif"
    impl_path = tmp_path / "impl.blif"
    spec_path.write_text(to_blif(spec))
    impl_path.write_text(to_blif(impl))
    record = run_verify(
        {"k": gf16.k, "spec": str(spec_path), "impl": str(impl_path)}
    )
    expected = {
        "verdict", "counterexample", "spec_polynomial", "spec_terms",
        "impl_terms", "spec_cache_hit", "impl_cache_hit", "spec_case",
        "impl_case", "k", "gates", "prepass",
    }
    assert expected <= set(record)
    assert record["verdict"] == "equivalent"
    assert record["gates"] == spec.num_gates() + impl.num_gates()  # raw counts
    assert record["prepass"]["impl"]["gates_out"] <= impl.num_gates()


def test_execute_job_emits_prepass_phase_and_counter_split(tmp_path, gf16):
    spec = mastrovito_multiplier(gf16)
    impl = obfuscate(spec, seed=4).circuit
    spec_path = tmp_path / "spec.blif"
    impl_path = tmp_path / "impl.blif"
    spec_path.write_text(to_blif(spec))
    impl_path.write_text(to_blif(impl))
    job = {
        "id": "j",
        "type": "verify",
        "params": {"k": gf16.k, "spec": str(spec_path), "impl": str(impl_path)},
    }
    cold = execute_job(job, cache_dir=str(tmp_path / "cache"))
    assert cold["phases"]["prepass"] > 0.0
    # The obfuscated impl collapses onto the spec's canonical entry: one
    # canonical-key hit on the very first (cold-cache) run.
    assert cold["cache"] == {
        "hits": 1, "misses": 1, "hits_canonical": 1, "hits_raw": 0,
    }
    warm = execute_job(dict(job, id="j2"), cache_dir=str(tmp_path / "cache"))
    assert warm["cache"]["hits"] == 2 and warm["cache"]["hits_canonical"] == 2
    off = execute_job(
        {
            "id": "j3",
            "type": "verify",
            "params": {
                "k": gf16.k,
                "spec": str(spec_path),
                "impl": str(impl_path),
                "prepass": False,
            },
        },
        cache_dir=str(tmp_path / "cache2"),
    )
    assert off["phases"]["prepass"] == 0.0
    assert off["spec_polynomial"] == cold["spec_polynomial"]
    assert off["verdict"] == cold["verdict"]


def test_manifest_accepts_prepass_field(tmp_path):
    manifest = manifest_from_dict(
        {
            "jobs": [
                {"type": "verify", "spec": "s.v", "impl": "i.v", "k": 4,
                 "prepass": False},
                {"type": "abstract", "netlist": "i.v", "k": 4, "prepass": True},
                {"type": "reveng", "netlist": "i.v", "prepass": False},
            ]
        }
    )
    assert manifest.jobs[0].params["prepass"] is False
    assert manifest.jobs[1].params["prepass"] is True
    with pytest.raises(ManifestError):
        manifest_from_dict(
            {"jobs": [{"type": "check-spec", "netlist": "i.v",
                       "spec_poly": "A", "k": 4, "prepass": True}]}
        )


def test_service_request_key_includes_prepass():
    from repro.service.server import request_key

    base = {"k": 4, "netlist_text": "x"}
    assert request_key("abstract", base) != request_key(
        "abstract", dict(base, prepass=False)
    )
    assert request_key("abstract", dict(base, prepass=True)) != request_key(
        "abstract", dict(base, prepass=False)
    )


def test_reveng_prepass_shares_cache_with_clean_copy(tmp_path, gf16):
    from repro.reveng import identify_function

    cache = CanonicalPolyCache(tmp_path / "cache")
    clean = mastrovito_multiplier(gf16)
    abstract_canonical(clean, gf16, cache=cache)  # populate canonical entry
    variant = obfuscate(clean, seed=6).circuit
    outcome = identify_function(variant, gf16, cache=cache, prepass=True)
    assert outcome.matches == ["mul"]
    assert outcome.probe.cache_hit  # answered by the clean copy's entry
