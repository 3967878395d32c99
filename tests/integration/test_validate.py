"""Tests for the whole-machine invariant validator."""

import pytest

from repro.common.errors import ProtocolError
from repro.core.modes import ExecMode
from repro.sim.config import SimConfig
from repro.sim.machine import build_machine
from repro.sim.validate import validate_machine
from repro.workloads import make_workload


class TestCleanMachines:
    @pytest.mark.parametrize("letter", ("B", "P", "C", "W"))
    def test_post_run_machines_validate(self, micro_machine, letter):
        for name in ("mwobject", "bitcoin", "bst", "labyrinth"):
            machine = micro_machine(name, letter, cores=4, seed=4,
                                    ops_per_thread=5)
            machine.run()
            assert validate_machine(machine)

    def test_fresh_machine_validates(self, micro_machine):
        machine = micro_machine("mwobject", "C", ops_per_thread=1)
        assert validate_machine(machine)


class TestViolationsDetected:
    @pytest.fixture
    def machine(self, micro_machine):
        return micro_machine("mwobject", "C", ops_per_thread=1)

    def test_unpinned_lock_detected(self, machine):
        machine.memsys.acquire_line_lock(0, 100)
        machine.memsys.l1[0].unpin(100)  # corrupt: lock without pin
        with pytest.raises(ProtocolError, match="not pinned"):
            validate_machine(machine)

    def test_pin_without_lock_detected(self, machine):
        machine.memsys.access(0, 100, is_write=True)
        machine.memsys.l1[0].pin(100)  # corrupt: pin without lock
        with pytest.raises(ProtocolError, match="without holding"):
            validate_machine(machine)

    def test_lock_without_ownership_detected(self, machine):
        machine.memsys.acquire_line_lock(0, 100)
        machine.memsys.directory.drop(0, 100)  # corrupt the directory
        with pytest.raises(ProtocolError, match="not owned"):
            validate_machine(machine)

    def test_writer_and_reader_coexistence_detected(self, machine):
        machine.fallback.try_acquire_write(0)
        machine.fallback._readers.add(1)  # corrupt: reader sneaks in
        with pytest.raises(ProtocolError, match="at once"):
            validate_machine(machine)

    def test_clean_lock_state_passes(self, machine):
        # Invariant 4: only a cacheline-locked attempt holds locks.
        machine.executors[0].mode = ExecMode.S_CL
        machine.memsys.acquire_line_lock(0, 100)
        assert validate_machine(machine)
        machine.memsys.release_all_locks(0)
        assert validate_machine(machine)


class TestLockModeInvariant:
    """Invariant 4: locks only in CL modes, none beside a fallback writer."""

    @pytest.fixture
    def machine(self, micro_machine):
        return micro_machine("mwobject", "C", ops_per_thread=1)

    @pytest.mark.parametrize("mode", (ExecMode.S_CL, ExecMode.NS_CL))
    def test_locks_in_a_cl_mode_pass(self, machine, mode):
        machine.executors[1].mode = mode
        machine.memsys.acquire_line_lock(1, 100)
        assert validate_machine(machine)

    @pytest.mark.parametrize("mode", (
        None, ExecMode.SPECULATIVE, ExecMode.FAILED_DISCOVERY,
        ExecMode.FALLBACK,
    ))
    def test_locks_outside_a_cl_mode_detected(self, machine, mode):
        machine.executors[1].mode = mode
        machine.memsys.acquire_line_lock(1, 100)
        with pytest.raises(ProtocolError, match="holds line locks"):
            validate_machine(machine)

    def test_locks_beside_the_fallback_writer_detected(self, machine):
        machine.executors[0].mode = ExecMode.NS_CL
        machine.memsys.acquire_line_lock(0, 100)
        assert machine.fallback.try_acquire_write(1)
        with pytest.raises(ProtocolError, match="fallback writer 1"):
            validate_machine(machine)

    def test_empty_lock_table_beside_the_fallback_writer_passes(self, machine):
        assert machine.fallback.try_acquire_write(1)
        assert validate_machine(machine)

    @pytest.mark.parametrize("workload,cores", (
        ("mwobject", 4),  # NS-CL
        ("stack", 8),  # S-CL and fallback
        pytest.param("sorted-list", 8, marks=pytest.mark.slow),  # all modes
    ))
    def test_holds_at_every_event_of_a_clear_run(self, workload, cores):
        # The shadow oracle samples validate_machine after every event.
        config = SimConfig.for_design(
            "clear", num_cores=cores, retry_threshold=2, oracle="shadow",
            oracle_validate_interval=1,
        )
        machine = build_machine(
            config, make_workload(workload, ops_per_thread=4), seed=3
        )
        stats = machine.run()
        assert machine.oracle.samples_taken == machine.event_count
        assert stats.total_commits == cores * 4
