"""Committed REDTRACE fixtures replay with zero diffs on the current engine.

The fixtures are ``repro abstract --no-prepass --record`` traces of a k=8
Mastrovito multiplier and of its seed-2 ``random_mutation`` (a Case-2
mutant), recorded once under each of the two reduction kernels the tree
used to carry: the per-term kernel (``*_legacy``) and the batched one
(``*_batched``). The per-term kernel is gone; its traces must still replay
byte-identically on the single remaining path, as must every trace
recorded since.
"""

from pathlib import Path

import pytest

from repro.obs import redtrace
from repro.obs.replay import diff_events, execute_header

FIXTURES = Path(__file__).parent / "fixtures"
TRACES = sorted(p.stem for p in FIXTURES.glob("*.redtrace"))


class TestFixtureReplay:
    def test_fixture_set_is_complete(self):
        assert TRACES == [
            f"abstract_{circuit}_{kernel}"
            for circuit in ("mastrovito8", "mutant8_seed2")
            for kernel in ("batched", "legacy")
        ]

    @pytest.mark.parametrize("name", TRACES)
    def test_zero_diffs(self, name):
        recorded = redtrace.read_trace(str(FIXTURES / f"{name}.redtrace"))
        assert recorded[0]["op"] == "abstract"
        assert recorded[0]["params"]["prepass"] is False
        assert diff_events(recorded, execute_header(recorded[0])) is None
