"""Golden-pinned CLEAR modes: failed discovery, S-CL, NS-CL, fallback.

The ``clear-locked`` kernels spend most of their memory operations in
the modes that follow a conflict: failed-mode discovery, then an S-CL
or NS-CL retry, or the fallback path. Each cell below runs one of them
through :func:`build_machine` and pins the stats dict, event count,
commits per mode and final memory byte-for-byte against
``tests/goldens/clear_modes.json``. The cells also include one bounded
``lrw`` run (capacity aborts on a flat tracking budget) and one
fallback-heavy CLEAR run with the online monitor armed. Refresh
intentionally moved results with
``scripts/refresh_goldens.py --only clear_modes --apply``.
"""

import hashlib
import json
import os

import pytest

from repro.sim.config import SimConfig
from repro.sim.machine import build_machine
from repro.workloads import make_workload

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "goldens", "clear_modes.json"
)

GEN_MIXED = ("gen:footprint=24,mutability=mixed,contention=0.8,"
             "hot_lines=32,private_lines=48")
GEN_OVERSIZED = ("gen:footprint=40,mutability=immutable,contention=0.8,"
                 "hot_lines=64,private_lines=64")

CORES = 16
OPS = 8
SEED = 1

#: label -> (workload, design, SimConfig overrides)
CELLS = {
    "mwobject/clear": ("mwobject", "clear", {}),
    "stack/clear": ("stack", "clear", {}),
    "sorted-list/clear": ("sorted-list", "clear", {}),
    "gen-mixed/clear": (GEN_MIXED, "clear", {}),
    "gen-oversized/clear": (GEN_OVERSIZED, "clear", {}),
    "sorted-list/lrw": (
        "sorted-list", "lrw", {"lrw_read_lines": 16, "lrw_write_lines": 4},
    ),
    "arrayswap/clear/fallback-online": (
        "arrayswap", "clear", {"retry_threshold": 1, "oracle": "online"},
    ),
}


def _digest(obj):
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def run_cell(label):
    """The pinned record of one cell, plus its raw stats dict."""
    workload, design, overrides = CELLS[label]
    config = SimConfig.for_design(design, num_cores=CORES, **overrides)
    machine = build_machine(
        config, make_workload(workload, ops_per_thread=OPS), seed=SEED
    )
    stats = machine.run().to_dict()
    record = {
        "stats_sha256": _digest(stats),
        "event_count": machine.event_count,
        "commits_by_mode": stats["commits_by_mode"],
        "memory_sha256": _digest(sorted(machine.memory.snapshot().items())),
    }
    return record, stats


def compute_golden():
    """The whole golden payload (what ``refresh_goldens.py`` writes)."""
    return {
        "description": (
            "CLEAR's post-conflict modes (failed discovery, S-CL, NS-CL, "
            "fallback), one lrw cell and one fallback-heavy online-monitor "
            "cell; refresh with "
            "scripts/refresh_goldens.py --only clear_modes --apply"
        ),
        "num_cores": CORES,
        "ops_per_thread": OPS,
        "seed": SEED,
        "results": {label: run_cell(label)[0] for label in sorted(CELLS)},
    }


def load_golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def runs():
    return {label: run_cell(label) for label in CELLS}


def test_golden_covers_every_cell():
    golden = load_golden()
    assert set(golden["results"]) == set(CELLS)
    assert (golden["num_cores"], golden["ops_per_thread"], golden["seed"]) \
        == (CORES, OPS, SEED)


@pytest.mark.parametrize("label", sorted(CELLS))
def test_cell_matches_golden(runs, label):
    record, _ = runs[label]
    assert record == load_golden()["results"][label]


def test_cells_cover_the_post_conflict_modes(runs):
    # The golden only guards the modes the cells actually reach.
    commits = {}
    failed_cycles = 0
    capacity_aborts = 0
    for _, stats in runs.values():
        for mode, count in stats["commits_by_mode"].items():
            commits[mode] = commits.get(mode, 0) + count
        failed_cycles += sum(
            core["discovery_failed_cycles"] for core in stats["cores"]
        )
        capacity_aborts += stats["aborts_by_reason"].get("capacity", 0)
    assert commits.get("s_cl", 0) > 0
    assert commits.get("ns_cl", 0) > 0
    assert commits.get("fallback", 0) > 0
    assert failed_cycles > 0
    assert capacity_aborts > 0  # the lrw budget overflows
