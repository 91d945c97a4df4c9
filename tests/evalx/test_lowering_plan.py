"""Serial sweeps lower up front where a lowering is replayed enough.

The timing engine lowers a trace on its second cold run under one
traffic geometry. A serial sweep knows its grid, so for a group of at
least three cells on one trace and geometry (e.g. the points of a
memory-latency sweep) it lowers before the first cell, and every cell of
the group replays; smaller groups are left to the engine's own rule.
Results are byte-identical whichever engine runs a cell.
"""

import pytest

from repro import fastpath
from repro.core import sanitizer
from repro.core.config import MachineConfig
from repro.evalx.parallel import Cell, run_cells
from repro.obs import fleet

EVENTS = 2000


@pytest.fixture(autouse=True)
def _sanitizer_disarmed():
    # An armed sanitizer (REPRO_SANITIZE=1) rightly keeps every run off
    # the replay these tests assert.
    previous = sanitizer.active()
    sanitizer.disarm()
    yield
    if previous is not None:
        sanitizer.arm(previous)


def latency_cells(latencies):
    return [Cell(bench="gcc", label=f"aise+bmt@{latency}",
                 config=MachineConfig.preset("aise+bmt", memory_latency=latency))
            for latency in latencies]


def engines(cells, **kw):
    collector = fleet.FleetCollector()
    with fastpath.forced(True):
        grid = run_cells(cells, events=EVENTS, fleet=collector, **kw)
    by_label = {record["label"]: record for record in collector.cells}
    return grid, [(by_label[cell.label]["engine"],
                   by_label[cell.label]["fallback_reason"]) for cell in cells]


class TestSerialPlan:
    def test_group_of_three_replays_from_the_first_cell(self):
        _, seen = engines(latency_cells((100, 200, 400)))
        assert seen == [("compiled", None)] * 3

    def test_pair_is_left_to_the_engine(self):
        _, seen = engines(latency_cells((100, 200)))
        assert seen == [("per_event", "single_use"), ("compiled", None)]

    def test_distinct_geometries_never_lower(self):
        cells = [Cell(bench="gcc", label=label, config=MachineConfig.preset(label))
                 for label in ("base", "aise", "aise+bmt")]
        _, seen = engines(cells)
        assert seen == [("per_event", "single_use")] * 3

    def test_results_match_the_reference_loop(self):
        cells = latency_cells((100, 200, 400))
        grid, _ = engines(cells)
        with fastpath.forced(False):
            reference = run_cells(cells, events=EVENTS)
        for cell in cells:
            assert grid[cell].to_dict() == reference[cell].to_dict()
