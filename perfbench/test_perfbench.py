"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest perfbench -q

They check that the benchmark cannot pass a wrong answer and cannot lose a
check: a planted wrong verdict or a bogus counterexample makes the run
incorrect, and a check past its limit is counted as failed, never dropped.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.verify.outcome import EquivalenceOutcome  # noqa: E402


class Sleepy(workloads.InProcessWorkload):
    """Two checks: one answers at once, one sleeps past the limit."""

    name = "sleepy"
    limit_s = 0.3

    def setup(self, seed, workdir):
        items = [
            workloads.Item("fast", "equivalent"),
            workloads.Item("slow", "equivalent"),
        ]
        return workloads.Prepared(field=None, rounds=lambda: [items])

    def check(self, prepared, item, cache_dir):
        if item.label == "slow":
            time.sleep(5)
        return {"verdict": "equivalent"}

    def bytes_parsed(self, item):
        return 0


class SmallTriage(workloads.MutantTriage):
    name = "small_triage"
    k = 8


@pytest.fixture
def registered(monkeypatch):
    def register(workload):
        monkeypatch.setitem(workloads.WORKLOADS, workload.name, workload)
        monkeypatch.setattr(run, "WORKLOAD_NAMES", run.WORKLOAD_NAMES + (workload.name,))
        return workload

    return register


def test_check_over_its_limit_counts_as_failed(tmp_path, registered):
    registered(Sleepy())
    result = measure.in_process("sleepy", 1, 0, 0, tmp_path)
    assert result.attempted == 2
    assert result.failed == 1
    assert not result.problems
    statuses = [c["status"] for c in result.details["checks"]]
    assert statuses == ["ok", "timeout"]
    # The failed check is counted in failed/attempted, earns no
    # throughput, and is left out of the median and the tail.
    fast, slow = (c["seconds"] for c in result.details["checks"])
    assert 0.3 <= slow < 1.0
    assert result.values["latency_p50_s"] == pytest.approx(fast)
    assert result.values["latency_tail_s"] == pytest.approx(fast)
    wall = result.details["wall_s"]
    assert result.values["throughput_per_s"] == pytest.approx(1 / wall)
    assert result.values["goodput_per_s"] == result.values["throughput_per_s"]


def test_planted_wrong_verdict_fails_the_run(tmp_path, registered, monkeypatch, capsys):
    registered(SmallTriage())

    def says_equivalent(spec, impl, field, **kwargs):
        return EquivalenceOutcome("equivalent", "abstraction")

    monkeypatch.setattr(workloads, "verify_equivalence", says_equivalent)
    monkeypatch.setattr(workloads, "MUTANTS_PER_ROUND", 6)
    monkeypatch.setattr(run, "OUT", tmp_path)
    code = run.main(["--workload", "small_triage", "--seed", "3", "--seconds", "0"])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert line["correct"] is False
    assert line["attempted"] == 6


def test_bogus_counterexample_is_caught():
    workload = SmallTriage()
    prepared = workload.setup(5, Path("."))
    mutant = prepared.rounds()[0][0]
    # A point where the mutant and the spec agree cannot separate them.
    clean = workloads.Item("clean", "not_equivalent", spec=workloads.mastrovito_multiplier(prepared.field))
    problems = workload.validate(prepared, clean, {"verdict": "not_equivalent", "counterexample": {"A": 3, "B": 5}})
    assert problems and "does not separate" in problems[0]
    missing = workload.validate(prepared, mutant, {"verdict": "not_equivalent", "counterexample": None})
    assert missing and "without a counterexample" in missing[0]


def test_real_mutants_answer_with_separating_counterexamples(tmp_path, registered, monkeypatch):
    registered(SmallTriage())
    monkeypatch.setattr(workloads, "MUTANTS_PER_ROUND", 6)
    result = measure.in_process("small_triage", 4, 0, 0, tmp_path)
    assert result.attempted == 6
    assert not result.problems


def test_mutant_round_follows_the_substitution_shares():
    field = workloads.nist_field(8)
    spec = workloads.mastrovito_multiplier(field)
    shares = workloads.substitution_kinds(spec)
    assert sum(shares.values()) == pytest.approx(1.0)
    quota = workloads.quotas(shares, 24)
    assert sum(quota.values()) == 24
    for kind, share in shares.items():
        assert abs(quota[kind] - 24 * share) < 1
    import random

    drawn = workloads.draw_round(spec, random.Random(1), quota)
    kinds = {}
    for _, mutation in drawn:
        key = (mutation.before.gate_type.value, mutation.after.gate_type.value)
        kinds[key] = kinds.get(key, 0) + 1
    assert kinds == {k: n for k, n in quota.items() if n}


def test_service_traffic_has_equal_shares_of_the_three_kinds():
    import servicemix

    traffic = servicemix.Traffic(seed=2, seconds=7)
    kinds = [r.kind for r in traffic.requests]
    assert kinds.count("cold") == kinds.count("variant") == kinds.count("resubmit") == 7
    colds = [r for r in traffic.requests if r.kind == "cold"]
    for resubmit in (r for r in traffic.requests if r.kind == "resubmit"):
        original = next(r for r in colds if r.body is resubmit.body)
        assert resubmit.due == pytest.approx(original.due + servicemix.RESUBMIT_DELAY_S)
    # Every cold pair is over its own modulus, none of them the warmed one.
    moduli = {r.body.modulus for r in colds}
    assert len(moduli) == 7 and traffic.warm_body.modulus not in moduli


def test_every_round_draws_each_kinds_first_gate():
    import random

    field = workloads.nist_field(8)
    spec = workloads.mastrovito_multiplier(field)
    quota = workloads.quotas(workloads.substitution_kinds(spec), 24)
    first = {
        before: next(g.output for g in spec.gates if g.gate_type.value == before)
        for before, _ in quota
    }
    for seed in range(5):
        drawn = workloads.draw_round(spec, random.Random(seed), quota)
        nets = {}
        for _, mutation in drawn:
            key = (mutation.before.gate_type.value, mutation.after.gate_type.value)
            nets.setdefault(key, []).append(mutation.net)
        for (before, after), count in quota.items():
            assert first[before] in nets[(before, after)]
            assert len(set(nets[(before, after)])) == count


def test_every_service_run_sends_the_same_moduli_in_a_seeded_order():
    import servicemix

    def cold_moduli(seed):
        traffic = servicemix.Traffic(seed=seed, seconds=7)
        return [r.body.modulus for r in traffic.requests if r.kind == "cold"]

    first, second = cold_moduli(1), cold_moduli(2)
    assert sorted(first) == sorted(second) and first != second
    seen = workloads.nist_field(servicemix.K).modulus
    assert sorted(first) == sorted(servicemix.unseen_moduli(servicemix.K, seen, 7))


def test_tail_is_the_highest_percentile_with_ten_beyond():
    values = list(range(40))
    assert harness.tail(values) == (29, 75.0, 40)
    assert harness.tail(range(20)) == (9, 50.0, 20)
    assert harness.tail([3.0, 1.0]) == (3.0, 100.0, 2)
    assert harness.tail([]) == (0.0, 100.0, 0)


def test_self_times_add_up_to_the_check():
    spans = [
        {"name": "bench.check", "id": 1, "parent": None, "pid": 9, "dur": 10.0},
        {"name": "parse", "id": 2, "parent": 1, "pid": 9, "dur": 2.0},
        {"name": "abstract", "id": 3, "parent": 1, "pid": 9, "dur": 6.0},
        {"name": "prepass", "id": 4, "parent": 3, "pid": 9, "dur": 3.0},
        {"name": "bench.sat_sweep", "id": 5, "parent": 4, "pid": 9, "dur": 1.0},
        {"name": "coeff_match", "id": 6, "parent": 1, "pid": 9, "dur": 0.5},
        {"name": "mystery", "id": 7, "parent": 3, "pid": 9, "dur": 0.25},
    ]
    layers = harness.layer_breakdown({"spans": spans})
    assert layers["circuits.parse"] == 2.0
    assert layers["prepass.total"] == 3.0
    assert layers["prepass.canon"] == 2.0
    assert layers["prepass.sweep"] == 1.0
    assert layers["verify.glue"] == 2.75
    assert layers["bench.other"] == 0.25
    assert layers["bench.uncovered"] == 1.5
    assert sum(layers[name] for name in harness.LAYERS) == pytest.approx(layers["bench.traced"])


def test_a_count_that_changes_between_runs_is_flagged(tmp_path):
    path = tmp_path / "counts.json"
    counts = {name: 7 for name in harness.COUNT_SOURCES}
    assert harness.record_counts(path, "code-a", {"m1": counts}) == []
    assert harness.record_counts(path, "code-a", {"m1": dict(counts)}) == []
    changed = dict(counts, **{"core.substitutions": 8})
    assert harness.record_counts(path, "code-a", {"m1": changed}) == ["core.substitutions"]
    # A check answered in only one of the runs is not compared.
    assert harness.record_counts(path, "code-a", {"m2": counts}) == []
    # Counts from other code are not comparable and are not flagged.
    harness.record_counts(path, "code-a", {"m1": counts})
    assert harness.record_counts(path, "code-b", {"m1": changed}) == []


def test_missing_program_is_an_error(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.locate_program() is False


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.BENCHMARKED)
    assert set(run.BENCHMARKED) <= set(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
