"""Worker-pool engine: parallel completion, deadlines, crash retries, logs."""

import json
import time

from repro.jobs import load_manifest, run_batch


def _results_by_id(report):
    return {result["id"]: result for result in report.results}


class TestHappyPath:
    def test_verify_batch_completes_with_phases(self, write_manifest, tmp_path):
        manifest = load_manifest(
            write_manifest(
                [
                    {
                        "id": "equiv",
                        "type": "verify",
                        "spec": "mastrovito_4.v",
                        "impl": "montgomery_4.v",
                        "k": 4,
                    },
                    {
                        "id": "self",
                        "type": "verify",
                        "spec": "mastrovito_4.v",
                        "impl": "mastrovito_4.v",
                        "k": 4,
                    },
                    {
                        "id": "abs",
                        "type": "abstract",
                        "netlist": "montgomery_4.v",
                        "k": 4,
                    },
                    {
                        "id": "spec",
                        "type": "check-spec",
                        "netlist": "mastrovito_4.v",
                        "spec_poly": "A*B",
                        "k": 4,
                    },
                ]
            )
        )
        report = run_batch(
            manifest, workers=2, cache_dir=str(tmp_path / "cache")
        )
        assert report.ok
        by_id = _results_by_id(report)
        assert by_id["equiv"]["verdict"] == "equivalent"
        assert by_id["self"]["verdict"] == "equivalent"
        assert by_id["spec"]["verdict"] == "equivalent"
        assert by_id["abs"]["terms"] == 1  # Z = A*B
        # Phase records cover the paper's pipeline on at least one cold job.
        cold = by_id["equiv"]["phases"]
        assert {"parse", "rato_setup", "spoly_reduction", "coeff_match"} <= set(cold)
        assert cold["spoly_reduction"] > 0
        assert by_id["equiv"]["peak_rss_mb"] > 0
        # Per-job algebraic work counters ride along with the record.
        assert by_id["equiv"]["counters"].get("abstraction.substitutions", 0) > 0

    def test_buggy_impl_gets_counterexample(self, netlist_dir, write_manifest):
        from repro.circuits import read_verilog, write_verilog
        from repro.circuits.mutate import substitute_gate_type

        circuit = read_verilog(str(netlist_dir / "mastrovito_4.v"))
        net = next(g.output for g in circuit.gates if g.gate_type.value == "and")
        mutant, _ = substitute_gate_type(circuit, net)
        write_verilog(mutant, str(netlist_dir / "buggy_4.v"))
        manifest = load_manifest(
            write_manifest(
                [
                    {
                        "id": "buggy",
                        "type": "verify",
                        "spec": "mastrovito_4.v",
                        "impl": "buggy_4.v",
                        "k": 4,
                        "seed": 7,
                    }
                ]
            )
        )
        report = run_batch(manifest, workers=1)
        (result,) = report.results
        assert result["status"] == "ok"
        assert result["verdict"] == "not_equivalent"
        assert result["counterexample"] is not None


class TestDeadlines:
    def test_stuck_job_is_killed_siblings_complete(self, write_manifest, tmp_path):
        manifest = load_manifest(
            write_manifest(
                [
                    {"id": "stuck", "type": "sleep", "seconds": 60, "timeout": 1},
                    {
                        "id": "fine",
                        "type": "verify",
                        "spec": "mastrovito_4.v",
                        "impl": "montgomery_4.v",
                        "k": 4,
                    },
                    {"id": "quick", "type": "sleep", "seconds": 0.05},
                ]
            )
        )
        start = time.monotonic()
        report = run_batch(manifest, workers=3, default_timeout=30.0)
        wall = time.monotonic() - start
        by_id = _results_by_id(report)
        assert by_id["stuck"]["status"] == "timeout"
        assert by_id["fine"]["status"] == "ok"
        assert by_id["quick"]["status"] == "ok"
        assert not report.ok
        # The 60 s sleeper must die at its 1 s deadline, not run to completion.
        assert wall < 30, f"stuck job was not killed at its deadline ({wall:.1f}s)"
        assert by_id["stuck"]["seconds"] < 15

    def test_cli_timeout_applies_as_default(self, write_manifest):
        manifest = load_manifest(
            write_manifest([{"id": "s", "type": "sleep", "seconds": 60}])
        )
        report = run_batch(manifest, workers=1, default_timeout=0.5)
        assert report.results[0]["status"] == "timeout"


class TestCrashRetry:
    def test_crash_then_success_accounts_attempts(self, write_manifest):
        manifest = load_manifest(
            write_manifest(
                [{"id": "flaky", "type": "crash", "fail_attempts": 1, "retries": 2}]
            )
        )
        report = run_batch(manifest, workers=1)
        (result,) = report.results
        assert result["status"] == "ok"
        assert result["attempt"] == 2
        assert result["survived_attempt"] == 2

    def test_persistent_crash_fails_after_budget(self, write_manifest):
        manifest = load_manifest(
            write_manifest([{"id": "dead", "type": "crash", "retries": 1}])
        )
        report = run_batch(manifest, workers=1)
        (result,) = report.results
        assert result["status"] == "crashed"
        assert result["attempt"] == 2  # initial try + one retry
        assert "exit code" in result["error"]
        assert not report.ok

    def test_crash_does_not_abort_siblings(self, write_manifest):
        manifest = load_manifest(
            write_manifest(
                [
                    {"id": "dead", "type": "crash", "retries": 0},
                    {"id": "quick", "type": "sleep", "seconds": 0.05},
                ]
            )
        )
        report = run_batch(manifest, workers=2)
        by_id = _results_by_id(report)
        assert by_id["dead"]["status"] == "crashed"
        assert by_id["quick"]["status"] == "ok"


class TestCacheIntegration:
    def test_second_run_hits_and_skips_reduction(self, write_manifest, tmp_path):
        jobs = [
            {
                "id": f"pair{i}",
                "type": "verify",
                "spec": "mastrovito_4.v",
                "impl": "montgomery_4.v",
                "k": 4,
            }
            for i in range(3)
        ]
        manifest = load_manifest(write_manifest(jobs))
        cache_dir = str(tmp_path / "cache")

        cold = run_batch(manifest, workers=1, cache_dir=cache_dir)
        assert cold.ok
        # 3 jobs x 2 sides, but only 2 distinct netlists: 2 misses, 4 hits.
        assert cold.cache_misses == 2
        assert cold.cache_hits == 4

        warm = run_batch(manifest, workers=2, cache_dir=cache_dir)
        assert warm.ok
        assert warm.cache_misses == 0
        assert warm.cache_hits == 6
        for result in warm.results:
            # Gröbner-basis work is skipped entirely on a warm cache; the
            # phases still appear — as explicit zeros — so downstream
            # aggregation never KeyErrors and averages keep their denominators.
            assert result["phases"]["rato_setup"] == 0.0
            assert result["phases"]["spoly_reduction"] == 0.0
            assert result["phases"]["coeff_match"] > 0
            assert result["spec_cache_hit"] is True
            assert result["impl_cache_hit"] is True


class TestRunLog:
    def test_jsonl_records_start_jobs_summary(self, write_manifest, tmp_path):
        manifest = load_manifest(
            write_manifest(
                [
                    {
                        "id": "v",
                        "type": "verify",
                        "spec": "mastrovito_4.v",
                        "impl": "montgomery_4.v",
                        "k": 4,
                    },
                    {"id": "flaky", "type": "crash", "fail_attempts": 1, "retries": 1},
                ]
            )
        )
        log_path = tmp_path / "runs" / "run.jsonl"
        report = run_batch(
            manifest,
            workers=2,
            cache_dir=str(tmp_path / "cache"),
            log_path=str(log_path),
        )
        assert report.log_path == str(log_path)
        records = [json.loads(line) for line in log_path.read_text().splitlines()]
        events = [record["event"] for record in records]
        assert events[0] == "start"
        assert events[-1] == "summary"
        assert events.count("job") == 2
        assert "retry" in events
        summary = records[-1]
        assert summary["status_counts"] == {"ok": 2}
        assert summary["cache_hits"] + summary["cache_misses"] == 2
        job_records = [r for r in records if r["event"] == "job"]
        assert all("seconds" in r for r in job_records)


class _StubModel:
    """Minimal cost-model stand-in: prices (op, k) from a fixed table."""

    def __init__(self, table):
        self.table = table

    def predict(self, op, k=None, gates=None, cones=None, phase="total"):
        return self.table.get((op, k))


class TestCostModelOrdering:
    def test_order_pending_shortest_predicted_last_for_tail_pop(self):
        from repro.jobs.runner import _order_pending

        model = _StubModel(
            {("verify", 64): 9.0, ("verify", 16): 1.0, ("abstract", 16): 0.5}
        )
        pending = [
            ({"id": "slow", "type": "verify", "params": {"k": 64}}, 1, None, 1),
            ({"id": "fast", "type": "verify", "params": {"k": 16}}, 1, None, 1),
            ({"id": "faster", "type": "abstract", "params": {"k": 16}}, 1, None, 1),
            ({"id": "unknown", "type": "verify", "params": {"k": 128}}, 1, None, 1),
        ]
        ordered, predicted = _order_pending(pending, model)
        # dispatch pops from the tail: smallest prediction first, unpriced last
        dispatch = [entry[0]["id"] for entry in reversed(ordered)]
        assert dispatch == ["faster", "fast", "slow", "unknown"]
        assert predicted == {"slow": 9.0, "fast": 1.0, "faster": 0.5}

    def test_unpriced_ties_keep_manifest_order(self):
        from repro.jobs.runner import _order_pending

        model = _StubModel({})
        pending = [
            ({"id": f"j{i}", "type": "verify", "params": {}}, 1, None, 1)
            for i in range(4)
        ]
        ordered, predicted = _order_pending(pending, model)
        assert [e[0]["id"] for e in reversed(ordered)] == ["j0", "j1", "j2", "j3"]
        assert predicted == {}

    def test_batch_logs_predicted_seconds_and_order(
        self, write_manifest, tmp_path
    ):
        from repro.obs.costmodel import CostModel

        manifest = load_manifest(
            write_manifest(
                [
                    {
                        "id": "v",
                        "type": "verify",
                        "spec": "mastrovito_4.v",
                        "impl": "montgomery_4.v",
                        "k": 4,
                    },
                    {"id": "a", "type": "abstract", "netlist": "mastrovito_4.v", "k": 4},
                ]
            )
        )
        model = CostModel.fit(
            [
                {"op": "verify", "seconds": 2.0, "k": 4},
                {"op": "abstract", "seconds": 0.5, "k": 4},
            ]
        )
        log_path = tmp_path / "run.jsonl"
        report = run_batch(
            manifest, workers=1, log_path=str(log_path), cost_model=model
        )
        assert report.ok
        records = [json.loads(line) for line in log_path.read_text().splitlines()]
        start = records[0]
        assert start["order"] == "shortest-predicted-first"
        job_records = [r for r in records if r["event"] == "job"]
        # abstract is predicted cheaper, so it dispatches (and finishes) first
        assert [r["id"] for r in job_records] == ["a", "v"]
        assert job_records[0]["predicted_seconds"] == 0.5
        assert job_records[1]["predicted_seconds"] == 2.0

    def test_job_records_carry_feature_fields(self, write_manifest, tmp_path):
        manifest = load_manifest(
            write_manifest(
                [
                    {
                        "id": "v",
                        "type": "verify",
                        "spec": "mastrovito_4.v",
                        "impl": "montgomery_4.v",
                        "k": 4,
                    }
                ]
            )
        )
        log_path = tmp_path / "run.jsonl"
        run_batch(manifest, workers=1, log_path=str(log_path))
        job = next(
            json.loads(line)
            for line in log_path.read_text().splitlines()
            if json.loads(line).get("event") == "job"
        )
        assert job["k"] == 4
        assert job["gates"] > 0
