"""Tests for Machine's executor-facing services."""

import pytest

from repro.common.errors import SimulationError
from repro.core.modes import ExecMode
from repro.htm.abort import AbortReason
from repro.htm.arbiter import NO_CONFLICT
from repro.htm.rwset import ReadWriteSets
from repro.htm.design import design_name
from repro.sim.config import SimConfig
from repro.sim.machine import Machine
from repro.workloads import make_workload


def fresh_machine(letter="B", cores=3):
    workload = make_workload("mwobject", ops_per_thread=2)
    return Machine(SimConfig.for_design(design_name(letter), num_cores=cores), workload, seed=1)


def arm_speculative(executor, mode=ExecMode.SPECULATIVE, lines=(5,)):
    executor.phase = "body"
    executor.mode = mode
    executor.rwsets = ReadWriteSets(l1_sets=None, l2_sets=None)
    for line in lines:
        executor.rwsets.record_read(line)


def track(machine, core, reads=(), writes=()):
    """Give ``core`` a live attempt registered in the sharer index."""
    executor = machine.executors[core]
    executor.phase = "body"
    executor.mode = ExecMode.SPECULATIVE
    executor.rwsets = ReadWriteSets(l1_sets=None, l2_sets=None,
                                    index=machine.sharer_index, core=core)
    for line in reads:
        executor.rwsets.record_read(line)
    for line in writes:
        executor.rwsets.record_write(line)
    return executor


class TestResolveConflict:
    """Arbitration over the sharer index: only tracking cores conflict."""

    def test_untracked_line_no_conflict(self):
        machine = fresh_machine()
        track(machine, 0, reads=(5,))
        assert machine.resolve_conflict(1, 6, is_write=True) is NO_CONFLICT

    def test_requester_never_conflicts_with_itself(self):
        machine = fresh_machine()
        track(machine, 0, reads=(5,), writes=(5,))
        assert machine.resolve_conflict(0, 5, is_write=True) is NO_CONFLICT

    def test_write_victimizes_every_peer_sharer(self):
        machine = fresh_machine()
        track(machine, 0, reads=(5,))
        track(machine, 2, writes=(5,))
        resolution = machine.resolve_conflict(1, 5, is_write=True)
        assert resolution.victims == [0, 2]
        assert resolution.requester_proceeds

    def test_read_conflicts_only_with_writers(self):
        machine = fresh_machine()
        track(machine, 0, reads=(5,))
        assert machine.resolve_conflict(1, 5, is_write=False) is NO_CONFLICT
        track(machine, 2, writes=(5,))
        assert machine.resolve_conflict(1, 5, is_write=False).victims == [2]

    def test_failed_requester_is_non_aborting(self):
        machine = fresh_machine()
        track(machine, 0, writes=(5,))
        assert machine.resolve_conflict(
            1, 5, is_write=True, requester_failed=True,
        ) is NO_CONFLICT

    def test_power_holder_nacks_the_requester(self):
        machine = fresh_machine("P")
        track(machine, 0, reads=(5,))
        machine.power.try_acquire(0)
        resolution = machine.resolve_conflict(2, 5, is_write=True)
        assert resolution.requester_abort_reason is AbortReason.NACKED
        assert resolution.nacking_core == 0
        unstoppable = machine.resolve_conflict(
            2, 5, is_write=True, requester_unstoppable=True,
        )
        assert unstoppable.victims == [0]


class TestAbortAllSpeculative:
    def test_dooms_speculative_peers(self):
        machine = fresh_machine()
        arm_speculative(machine.executors[0])
        arm_speculative(machine.executors[1], mode=ExecMode.FAILED_DISCOVERY)
        machine.abort_all_speculative(AbortReason.OTHER_FALLBACK, exclude=2)
        assert machine.executors[0].pending_abort is AbortReason.OTHER_FALLBACK
        assert machine.executors[1].pending_abort is AbortReason.OTHER_FALLBACK

    def test_excluded_core_untouched(self):
        machine = fresh_machine()
        arm_speculative(machine.executors[0])
        machine.abort_all_speculative(AbortReason.OTHER_FALLBACK, exclude=0)
        assert machine.executors[0].pending_abort is None

    def test_running_scl_is_a_protocol_violation(self):
        # The fallback writer can only acquire once all CL readers left;
        # finding a live S-CL here means the guard was bypassed.
        machine = fresh_machine("C")
        arm_speculative(machine.executors[0], mode=ExecMode.S_CL)
        with pytest.raises(SimulationError):
            machine.abort_all_speculative(AbortReason.OTHER_FALLBACK, exclude=1)


class TestFallbackLinePlacement:
    def test_fallback_lock_line_disjoint_from_workload_data(self):
        machine = fresh_machine()
        # The lock line was allocated before workload setup; workload
        # structures must start at or after the next line.
        assert machine.fallback.line >= 1
        workload = machine.workload
        assert workload.object_base // 8 != machine.fallback.line
