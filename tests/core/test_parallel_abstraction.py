"""Cone-sliced parallel abstraction: bit-identity with the serial path.

The parallel path slices the circuit into per-output-bit fanin cones,
reduces each cone in a worker process, and merges the per-bit masks under
alpha-power weights before the trailing word-relation division. Its one
contract is that the resulting canonical polynomial is *term-for-term
identical* to the serial sweep's — these tests pin that, plus the cost
model (threshold / worker resolution / fallbacks) and the parallel stats.
"""

import pytest

from repro.circuits import random_mutation
from repro.core import extract_canonical
from repro.core.abstraction import (
    DEFAULT_PARALLEL_MIN_GATES,
    _resolve_workers,
)
from repro.gf import GF2m
from repro.synth import gf_squarer, mastrovito_multiplier
from repro.verify import verify_equivalence


@pytest.fixture
def force_parallel(monkeypatch):
    """Drop the gate-count threshold so tiny circuits take the pool path.

    Also overrides the single-CPU serial clamp — these tests exercise the
    pool machinery itself and must engage it even on one-CPU hosts.
    """
    monkeypatch.setenv("REPRO_PARALLEL_MIN_GATES", "1")
    monkeypatch.setenv("REPRO_PARALLEL_FORCE", "1")


def failing_cone_task(context, index):
    raise RuntimeError(f"cone {index} failed")


def assert_same_abstraction(serial, parallel):
    assert parallel.polynomial.terms == serial.polynomial.terms
    assert parallel.output_word == serial.output_word
    assert parallel.input_words == serial.input_words
    assert parallel.stats.case == serial.stats.case
    assert parallel.stats.remainder_bits == serial.stats.remainder_bits


class TestBitIdentity:
    @pytest.mark.parametrize("k", [4, 8])
    def test_multiplier_case1(self, k, force_parallel):
        field = GF2m(k)
        circuit = mastrovito_multiplier(field)
        serial = extract_canonical(circuit, field)
        parallel = extract_canonical(circuit, field, jobs=2)
        assert_same_abstraction(serial, parallel)
        assert serial.stats.jobs == 0
        assert parallel.stats.jobs == 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mutated_multiplier(self, seed, force_parallel):
        field = GF2m(8)
        circuit, _ = random_mutation(mastrovito_multiplier(field), seed=seed)
        serial = extract_canonical(circuit, field)
        parallel = extract_canonical(circuit, field, jobs=2)
        assert_same_abstraction(serial, parallel)

    @pytest.mark.parametrize("k", [4, 8])
    def test_squarer_case2_linearized(self, k, force_parallel):
        # gf_squarer abstracts through Case 2 (vanishing monomials), so this
        # exercises the shared Case-2 finish after the parallel merge.
        field = GF2m(k)
        circuit = gf_squarer(field)
        serial = extract_canonical(circuit, field, case2="linearized")
        parallel = extract_canonical(circuit, field, case2="linearized", jobs=2)
        assert serial.stats.case == 2
        assert_same_abstraction(serial, parallel)

    def test_case2_groebner_parity(self, force_parallel):
        field = GF2m(4)
        circuit = gf_squarer(field)
        serial = extract_canonical(circuit, field, case2="groebner")
        parallel = extract_canonical(circuit, field, case2="groebner", jobs=2)
        assert serial.stats.case == 2
        assert_same_abstraction(serial, parallel)

    def test_array_multiplier_topology(self, force_parallel):
        field = GF2m(4)
        circuit = mastrovito_multiplier(field, tree=False)
        serial = extract_canonical(circuit, field)
        parallel = extract_canonical(circuit, field, jobs=3)
        assert_same_abstraction(serial, parallel)


class TestCostModel:
    def test_serial_below_threshold(self):
        # Default threshold (4000 gates) keeps a k=8 multiplier serial even
        # when jobs are requested.
        field = GF2m(8)
        circuit = mastrovito_multiplier(field)
        assert circuit.num_gates() < DEFAULT_PARALLEL_MIN_GATES
        result = extract_canonical(circuit, field, jobs=2)
        assert result.stats.jobs == 0
        assert result.stats.cones == 0

    def test_jobs_none_and_one_stay_serial(self, force_parallel):
        field = GF2m(4)
        circuit = mastrovito_multiplier(field)
        for jobs in (None, 1):
            result = extract_canonical(circuit, field, jobs=jobs)
            assert result.stats.jobs == 0

    def test_custom_ordering_stays_serial(self, force_parallel):
        from repro.core import build_rato

        field = GF2m(4)
        circuit = mastrovito_multiplier(field)
        ordering = build_rato(circuit)
        result = extract_canonical(circuit, field, ordering=ordering, jobs=2)
        assert result.stats.jobs == 0

    def test_resolve_workers(self):
        import os

        assert _resolve_workers(None) == 1
        assert _resolve_workers(1) == 1
        assert _resolve_workers(4) == 4
        assert _resolve_workers(0) == (os.cpu_count() or 1)
        with pytest.raises(ValueError):
            _resolve_workers(-1)

    def test_single_cpu_host_stays_serial(self, monkeypatch):
        # On a one-CPU box the pool's fork cost buys no parallelism (the
        # BENCH_parallel sweep measured it ~6x slower than serial), so an
        # explicit jobs=4 must quietly stay serial there.
        import os

        from repro.core import abstraction

        monkeypatch.setenv("REPRO_PARALLEL_MIN_GATES", "1")
        monkeypatch.delenv("REPRO_PARALLEL_FORCE", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        field = GF2m(4)
        circuit = mastrovito_multiplier(field)
        serial = extract_canonical(circuit, field)
        result = extract_canonical(circuit, field, jobs=4)
        assert result.stats.jobs == 0
        assert result.polynomial.terms == serial.polynomial.terms
        # The escape hatch still engages the pool for tests and honest
        # single-CPU benchmark sweeps.
        monkeypatch.setenv("REPRO_PARALLEL_FORCE", "1")
        forced = extract_canonical(circuit, field, jobs=2)
        assert forced.stats.jobs == 2
        assert forced.polynomial.terms == serial.polynomial.terms

    def test_jobs_zero_on_single_cpu_skips_pool(self, monkeypatch):
        # jobs=0 ("one worker per CPU") resolves to a single worker on a
        # one-CPU host; no pool may be created for it even when forced.
        import os

        from repro.core import abstraction

        monkeypatch.setenv("REPRO_PARALLEL_MIN_GATES", "1")
        monkeypatch.setenv("REPRO_PARALLEL_FORCE", "1")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)

        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("pool path engaged for one effective worker")

        monkeypatch.setattr(abstraction, "_extract_parallel", explode)
        field = GF2m(4)
        circuit = mastrovito_multiplier(field)
        result = extract_canonical(circuit, field, jobs=0)
        assert result.stats.jobs == 0

    def test_daemonic_process_stays_serial(self, force_parallel):
        # Batch-runner job workers are daemonic, and daemonic processes
        # cannot fork children — requesting jobs>=2 there must quietly take
        # the serial path instead of blowing up the cone pool on startup.
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)

        def child(conn):
            try:
                field = GF2m(4)
                circuit = mastrovito_multiplier(field)
                result = extract_canonical(circuit, field, jobs=2)
                conn.send(("ok", result.stats.jobs, str(result.polynomial)))
            except BaseException as exc:  # pragma: no cover - failure path
                conn.send(("error", repr(exc), None))
            finally:
                conn.close()

        process = ctx.Process(target=child, args=(send,), daemon=True)
        process.start()
        send.close()
        assert recv.poll(60), "daemonic child never reported"
        status, jobs_used, poly_str = recv.recv()
        process.join(timeout=30)
        assert status == "ok", f"daemonic extract_canonical failed: {jobs_used}"
        assert jobs_used == 0
        field = GF2m(4)
        serial = extract_canonical(mastrovito_multiplier(field), field)
        assert poly_str == str(serial.polynomial)

    def test_pool_failure_falls_back_to_serial(self, force_parallel, monkeypatch):
        from repro.core import abstraction
        from repro.jobs.plane import PoolError

        def broken_pool(*args, **kwargs):
            raise PoolError("simulated pool failure")

        field = GF2m(4)
        circuit = mastrovito_multiplier(field)
        serial = extract_canonical(circuit, field)

        monkeypatch.setattr(abstraction, "_extract_parallel", broken_pool)
        result = extract_canonical(circuit, field, jobs=2)
        assert result.stats.jobs == 0
        assert result.polynomial.terms == serial.polynomial.terms


    def test_failed_cone_map_falls_back_to_serial(
        self, force_parallel, monkeypatch
    ):
        # The map itself fails inside the plane workers (every cone task
        # raises), so run_pool surfaces PoolError and the serial sweep runs.
        from repro.core import abstraction

        field = GF2m(8)
        serial = extract_canonical(mastrovito_multiplier(field), field)
        monkeypatch.setattr(abstraction, "_cone_task", failing_cone_task)
        result = extract_canonical(mastrovito_multiplier(field), field, jobs=2)
        assert result.stats.jobs == 0
        assert str(result.polynomial) == str(serial.polynomial)

    def test_unpicklable_cone_context_falls_back_to_serial(
        self, force_parallel, monkeypatch
    ):
        from repro.core import abstraction

        field = GF2m(8)
        serial = extract_canonical(mastrovito_multiplier(field), field)
        reduce_cone = abstraction._cone_task

        def closure(context, index):  # a closure never pickles
            return reduce_cone(context, index)

        monkeypatch.setattr(abstraction, "_cone_task", closure)
        result = extract_canonical(mastrovito_multiplier(field), field, jobs=2)
        assert result.stats.jobs == 0
        assert str(result.polynomial) == str(serial.polynomial)


class TestParallelStats:
    def test_stats_populated(self, force_parallel):
        field = GF2m(8)
        circuit = mastrovito_multiplier(field)
        result = extract_canonical(circuit, field, jobs=2)
        stats = result.stats
        assert stats.jobs == 2
        assert stats.cones == field.k
        assert len(stats.cone_division_steps) == field.k
        assert all(steps >= 0 for steps in stats.cone_division_steps)
        assert 0.0 <= stats.pool_utilization_pct <= 100.0
        assert stats.pool_idle_seconds >= 0.0
        # The pool initializer warms the GF tables, so no worker rebuilds.
        assert stats.table_rebuilds == 0
        assert stats.gate_count == circuit.num_gates()

    def test_serial_stats_stay_zero(self):
        field = GF2m(4)
        circuit = mastrovito_multiplier(field)
        stats = extract_canonical(circuit, field).stats
        assert stats.jobs == 0
        assert stats.cones == 0
        assert stats.cone_division_steps == []
        assert stats.table_rebuilds == 0


class TestVerifyThreading:
    def test_verify_equivalence_with_jobs(self, force_parallel):
        field = GF2m(4)
        spec = mastrovito_multiplier(field, tree=True)
        impl = mastrovito_multiplier(field, tree=False)
        outcome = verify_equivalence(spec, impl, field, jobs=2)
        assert outcome.equivalent
        for side in ("spec", "impl"):
            parallel = outcome.details[side]["parallel"]
            assert parallel["jobs"] == 2
            assert parallel["cones"] == field.k
            assert parallel["table_rebuilds"] == 0

    def test_verify_serial_has_no_parallel_details(self):
        field = GF2m(4)
        spec = mastrovito_multiplier(field)
        outcome = verify_equivalence(spec, spec.clone(), field)
        assert outcome.equivalent
        assert "parallel" not in outcome.details["spec"]
