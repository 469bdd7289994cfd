"""Record/replay round trips through the CLI: the byte-identical-replay
contract, divergence reporting, and header integrity checks."""

import json

import pytest

from repro.cli import main
from repro.obs import redtrace
from repro.obs.replay import (
    ReplayError,
    canonical_event,
    diff_events,
    execute_header,
    netlist_sha256,
    replay_file,
)


@pytest.fixture
def recorded(tmp_path):
    spec = str(tmp_path / "spec.v")
    impl = str(tmp_path / "impl.v")
    trace = str(tmp_path / "run.redtrace")
    assert main(["gen", "mastrovito", "-k", "8", "-o", spec]) == 0
    assert main(["gen", "montgomery", "-k", "8", "-o", impl]) == 0
    assert main(["verify", spec, impl, "-k", "8", "--record", trace]) == 0
    return trace


class TestCanonicalization:
    def test_exempt_fields_are_stripped(self):
        a = {"ev": "header", "seq": 0, "recorded_at": "2026-01-01", "op": "x"}
        b = {"ev": "header", "seq": 0, "recorded_at": "2026-02-02", "op": "x"}
        assert canonical_event(a) == canonical_event(b)

    def test_tuple_vs_list_monomials_compare_equal(self):
        fresh = {"ev": "divisor_hit", "seq": 1, "slot": 0, "m": ((3, 1), (5, 1))}
        loaded = json.loads(json.dumps(fresh))
        assert canonical_event(fresh) == canonical_event(loaded)

    def test_diff_events_finds_first_divergence(self):
        base = [{"ev": "header", "seq": 0}, {"ev": "mask_sweep", "seq": 1, "var": 2}]
        other = [dict(base[0]), dict(base[1], var=3)]
        index, rec, new = diff_events(base, other)
        assert index == 1
        assert rec["var"] == 2 and new["var"] == 3
        assert diff_events(base, [dict(e) for e in base]) is None

    def test_diff_events_reports_truncated_stream(self):
        base = [{"ev": "header", "seq": 0}, {"ev": "end", "seq": 1}]
        index, rec, new = diff_events(base, base[:1])
        assert index == 1 and rec is not None and new is None


class TestCliRoundTrip:
    def test_verify_record_then_diff_is_identical(self, recorded, capsys):
        assert main(["replay", recorded, "--diff"]) == 0
        out = capsys.readouterr().out
        assert "diff: identical" in out

    def test_summary_mode_without_diff(self, recorded, capsys):
        assert main(["replay", recorded]) == 0
        out = capsys.readouterr().out
        assert "op=verify k=8" in out

    def test_mutated_event_diffs_nonzero_with_both_records(
        self, recorded, tmp_path, capsys
    ):
        lines = open(recorded).read().splitlines()
        for i, line in enumerate(lines):
            record = json.loads(line)
            if record["ev"] == "mask_sweep":
                record["groups"] += 1
                lines[i] = json.dumps(record)
                break
        else:
            pytest.fail("no mask_sweep event recorded")
        corrupt = str(tmp_path / "corrupt.redtrace")
        with open(corrupt, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        assert main(["replay", corrupt, "--diff"]) == 1
        err = capsys.readouterr().err
        assert "divergence at event" in err
        assert "recorded:" in err and "replayed:" in err

    def test_cone_events_no_longer_replay(self, recorded, tmp_path, capsys):
        # Traces recorded on the removed cone-parallel path carry
        # cone_start/cone_end events; replay must refuse them, not pass.
        lines = open(recorded).read().splitlines()
        for i, line in enumerate(lines):
            record = json.loads(line)
            if record["ev"] == "mask_sweep":
                lines[i] = json.dumps(
                    {"ev": "cone_start", "seq": record["seq"], "bit": 0,
                     "root": "z0", "gates": 1}
                )
                break
        else:
            pytest.fail("no mask_sweep event recorded")
        old = str(tmp_path / "cones.redtrace")
        with open(old, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        assert main(["replay", old, "--diff"]) == 2
        assert "cone_start" in capsys.readouterr().err

    def test_tampered_netlist_text_fails_sha_check(self, recorded, tmp_path, capsys):
        lines = open(recorded).read().splitlines()
        header = json.loads(lines[0])
        header["params"]["impl_text"] = header["params"]["impl_text"] + "\n// x\n"
        lines[0] = json.dumps(header)
        tampered = str(tmp_path / "tampered.redtrace")
        with open(tampered, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        assert main(["replay", tampered, "--diff"]) == 2
        assert "sha256" in capsys.readouterr().err

    def test_structurally_invalid_trace_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.redtrace"
        bad.write_text('{"ev": "mask_sweep", "seq": 0}\n')
        assert main(["replay", str(bad), "--diff"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_abstract_record_replays_identically(self, tmp_path, capsys):
        netlist = str(tmp_path / "m.v")
        trace = str(tmp_path / "abs.redtrace")
        assert main(["gen", "mastrovito", "-k", "8", "-o", netlist]) == 0
        assert main(["abstract", netlist, "-k", "8", "--record", trace]) == 0
        assert main(["replay", trace, "--diff"]) == 0
        assert "diff: identical" in capsys.readouterr().out

    def test_record_requires_abstraction_method(self, tmp_path, capsys):
        spec = str(tmp_path / "spec.v")
        impl = str(tmp_path / "impl.v")
        assert main(["gen", "mastrovito", "-k", "4", "-o", spec]) == 0
        assert main(["gen", "mastrovito", "-k", "4", "-o", impl]) == 0
        code = main(
            ["verify", spec, impl, "-k", "4", "--method", "sat",
             "--record", str(tmp_path / "t.redtrace")]
        )
        assert code == 2
        assert "abstraction" in capsys.readouterr().err


class TestExecuteHeader:
    def test_rejects_missing_params(self):
        with pytest.raises(ReplayError, match="missing 'k'"):
            execute_header({"op": "verify", "params": {"method": "abstraction"}})

    def test_rejects_unknown_op(self):
        with pytest.raises(ReplayError, match="cannot replay op"):
            execute_header({"op": "mystery", "params": {"k": 4}})

    def test_rejects_bitlevel_method(self):
        with pytest.raises(ReplayError, match="abstraction"):
            execute_header({"op": "verify", "params": {"k": 4, "method": "sat"}})

    def test_rejects_while_recording_active(self, tmp_path):
        redtrace.start_recording(
            path=str(tmp_path / "t.redtrace"), op="verify", params={}
        )
        try:
            with pytest.raises(ReplayError, match="active"):
                execute_header(
                    {"op": "verify", "params": {"k": 4, "method": "abstraction"}}
                )
        finally:
            redtrace.stop_recording()

    def test_replay_file_end_counters_match(self, recorded):
        recorded_events, fresh = replay_file(recorded)
        assert recorded_events[-1]["ev"] == fresh[-1]["ev"] == "end"
        assert recorded_events[-1]["emitted"] == fresh[-1]["emitted"]

    def test_netlist_sha256_is_stable(self):
        assert netlist_sha256("abc") == netlist_sha256("abc")
        assert netlist_sha256("abc") != netlist_sha256("abd")
