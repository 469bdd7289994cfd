"""REDTRACE writer semantics: stream/ring modes, drops, lifecycle,
fork hygiene, and determinism of the engine instrumentation."""

import json

import pytest

from repro.algebra import LexOrder, PolynomialRing
from repro.algebra.division import reduce_polynomial, reference_reduce_polynomial
from repro.core import extract_canonical
from repro.gf import GF2m
from repro.obs import redtrace
from repro.synth import mastrovito_multiplier
from repro.verify import verify_equivalence


def _events_from(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class TestWriter:
    def test_stream_mode_writes_header_events_and_end(self, tmp_path):
        path = str(tmp_path / "t.redtrace")
        writer = redtrace.RedTraceWriter(path=path)
        writer.begin("verify", {"k": 4})
        writer.emit("mask_sweep", var=1, groups=2, tail=3, live=4)
        writer.close()
        events = _events_from(path)
        assert events[0]["ev"] == "header"
        assert events[0]["redtrace"] == redtrace.REDTRACE_VERSION
        assert events[0]["seq"] == 0
        assert events[1] == {
            "ev": "mask_sweep", "seq": 1, "var": 1, "groups": 2,
            "tail": 3, "live": 4,
        }
        assert events[-1]["ev"] == "end"
        assert events[-1]["emitted"] == 3
        assert events[-1]["dropped"] == 0

    def test_seq_is_strictly_monotonic(self, tmp_path):
        path = str(tmp_path / "t.redtrace")
        writer = redtrace.RedTraceWriter(path=path, flush_batch=7)
        writer.begin("abstract", {})
        for i in range(50):
            writer.emit("divisor_hit", slot=i, m=[])
        writer.close()
        seqs = [e["seq"] for e in _events_from(path)]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs) == 52

    def test_unknown_event_kind_rejected(self):
        writer = redtrace.RedTraceWriter(ring=True)
        with pytest.raises(ValueError, match="unknown event kind"):
            writer.emit("bogus_kind")

    def test_emit_after_close_is_a_silent_noop(self):
        writer = redtrace.RedTraceWriter(ring=True)
        writer.begin("service", {})
        writer.close()
        emitted = writer.emitted
        writer.emit("cache_probe", key="x", hit=True)
        assert writer.emitted == emitted
        assert writer.events()[-1]["ev"] == "end"

    def test_ring_mode_drops_oldest_but_keeps_header(self):
        writer = redtrace.RedTraceWriter(ring=True, max_events=4)
        writer.begin("service", {})
        for i in range(10):
            writer.emit("cache_probe", key=f"{i:04d}", hit=False)
        writer.close()
        events = writer.events()
        assert events[0]["ev"] == "header"
        assert events[-1]["ev"] == "end"
        assert events[-1]["dropped"] == 7
        assert writer.dropped == 7
        # the survivors are the most recent probes
        keys = [e["key"] for e in events if e["ev"] == "cache_probe"]
        assert keys == ["0007", "0008", "0009"]

    def test_ring_plus_path_is_an_error(self, tmp_path):
        with pytest.raises(ValueError):
            redtrace.RedTraceWriter(path=str(tmp_path / "x"), ring=True)


class TestModuleLifecycle:
    def test_start_stop_install_and_uninstall(self, tmp_path):
        assert redtrace.active_writer() is None
        writer = redtrace.start_recording(
            path=str(tmp_path / "t.redtrace"), op="verify", params={"k": 4}
        )
        assert redtrace.active_writer() is writer
        stopped = redtrace.stop_recording()
        assert stopped is writer
        assert stopped.closed
        assert redtrace.active_writer() is None

    def test_nested_recording_rejected(self, tmp_path):
        redtrace.start_recording(
            path=str(tmp_path / "a.redtrace"), op="verify", params={}
        )
        try:
            with pytest.raises(RuntimeError, match="already active"):
                redtrace.start_recording(
                    path=str(tmp_path / "b.redtrace"), op="verify", params={}
                )
        finally:
            redtrace.stop_recording()

    def test_stop_without_start_returns_none(self):
        assert redtrace.stop_recording() is None

    def test_reset_after_fork_discards_inherited_writer(self, tmp_path):
        redtrace.start_recording(
            path=str(tmp_path / "t.redtrace"), op="verify", params={}
        )
        redtrace.reset_after_fork()
        assert redtrace.active_writer() is None

    def test_read_trace_roundtrip_and_bad_line(self, tmp_path):
        path = str(tmp_path / "t.redtrace")
        writer = redtrace.start_recording(path=path, op="abstract", params={"k": 8})
        writer.emit("spoly_selected", source="abstraction", gates=1)
        redtrace.stop_recording()
        events = redtrace.read_trace(path)
        assert [e["ev"] for e in events] == ["header", "spoly_selected", "end"]
        bad = tmp_path / "bad.redtrace"
        bad.write_text('{"ev": "header", "seq": 0}\nnot json\n')
        with pytest.raises(ValueError, match="bad.redtrace:2"):
            redtrace.read_trace(str(bad))


class TestEngineInstrumentation:
    def test_disabled_recording_leaves_no_writer(self):
        field = GF2m(8)
        extract_canonical(mastrovito_multiplier(field), field)
        assert redtrace.active_writer() is None

    def test_abstraction_emits_expected_kinds(self, tmp_path):
        field = GF2m(8)
        path = str(tmp_path / "t.redtrace")
        redtrace.start_recording(path=path, op="abstract", params={"k": 8})
        extract_canonical(mastrovito_multiplier(field), field)
        redtrace.stop_recording()
        kinds = {e["ev"] for e in redtrace.read_trace(path)}
        assert "spoly_selected" in kinds
        assert "mask_sweep" in kinds
        assert kinds <= redtrace.EVENT_KINDS

    def _record_extract(self, tmp_path, name):
        from repro.obs.replay import canonical_event

        field = GF2m(8)
        path = str(tmp_path / f"{name}.redtrace")
        redtrace.start_recording(path=path, op="abstract", params={"k": 8})
        extract_canonical(mastrovito_multiplier(field), field)
        redtrace.stop_recording()
        return [canonical_event(e) for e in redtrace.read_trace(path)]

    def test_two_recordings_of_same_run_are_identical(self, tmp_path):
        assert self._record_extract(tmp_path, "a") == self._record_extract(
            tmp_path, "b"
        )

    def test_verify_records_both_sides(self, tmp_path):
        field = GF2m(8)
        spec = mastrovito_multiplier(field)
        impl = mastrovito_multiplier(field, name="impl", tree=False)
        path = str(tmp_path / "v.redtrace")
        redtrace.start_recording(path=path, op="verify", params={"k": 8})
        outcome = verify_equivalence(spec, impl, field)
        redtrace.stop_recording()
        assert outcome.status == "equivalent"
        events = redtrace.read_trace(path)
        assert sum(1 for e in events if e["ev"] == "spoly_selected") >= 2

    def test_divisor_hit_parity_heap_vs_reference(self):
        """The indexed reducer and the reference scan agree on which
        divisor slot answers each monomial."""
        field = GF2m(16)
        ring = PolynomialRing(
            field, ["x", "y", "z"], order=LexOrder([0, 1, 2]), fold=False
        )
        x, y, z = ring.var("x"), ring.var("y"), ring.var("z")
        divisors = [x * y + z, y * z + 1, z * z + z]
        target = x * x * y + x * y * z + y * z * z + z

        def record(fn):
            writer = redtrace.start_recording(op="abstract", params={}, ring=True)
            try:
                fn(target, divisors)
            finally:
                redtrace.stop_recording()
            return [
                (e["slot"], e["m"])
                for e in writer.events()
                if e["ev"] == "divisor_hit"
            ]

        heap_hits = record(reduce_polynomial)
        ref_hits = record(reference_reduce_polynomial)
        assert heap_hits == ref_hits
        assert heap_hits  # the target really is reducible
