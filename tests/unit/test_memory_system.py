"""Unit tests for the assembled MemorySystem."""

import pytest

from repro.common.errors import ProtocolError
from repro.memory.locking import LockDenied
from repro.memory.system import MemorySystem


def small_memsys(cores=2):
    """Small but realistic hierarchy for tests."""
    return MemorySystem(
        num_cores=cores,
        l1_size=4 * 64 * 2,  # 4 sets x 2 ways
        l1_assoc=2,
        l2_size=16 * 64 * 4,
        l2_assoc=4,
        l3_size=64 * 64 * 8,
        l3_assoc=8,
        directory_sets=16,
    )


class TestLatencyClasses:
    def test_cold_read_misses_to_memory(self):
        memsys = small_memsys()
        result = memsys.access(0, 100, is_write=False)
        assert result.level == "MEM"
        assert result.latency == memsys.mem_latency

    def test_second_read_hits_l1(self):
        memsys = small_memsys()
        memsys.access(0, 100, is_write=False)
        result = memsys.access(0, 100, is_write=False)
        assert result.level == "L1"
        assert result.latency == memsys.l1_latency

    def test_remote_read_after_miss_hits_l3(self):
        memsys = small_memsys()
        memsys.access(0, 100, is_write=False)
        result = memsys.access(1, 100, is_write=False)
        assert result.level == "L3"
        assert result.latency == memsys.l3_latency

    def test_read_of_remote_modified_is_cache_to_cache(self):
        memsys = small_memsys()
        memsys.access(0, 100, is_write=True)
        result = memsys.access(1, 100, is_write=False)
        assert result.level == "C2C"
        assert result.source_core == 0

    def test_write_hit_after_write(self):
        memsys = small_memsys()
        memsys.access(0, 100, is_write=True)
        result = memsys.access(0, 100, is_write=True)
        assert result.level == "L1"

    def test_upgrade_when_shared_elsewhere(self):
        memsys = small_memsys()
        memsys.access(0, 100, is_write=False)
        memsys.access(1, 100, is_write=False)
        result = memsys.access(0, 100, is_write=True)
        assert result.level == "UPG"
        assert 1 in result.invalidated_cores


class TestInvalidation:
    def test_write_invalidates_remote_copies(self):
        memsys = small_memsys()
        memsys.access(1, 100, is_write=False)
        memsys.access(0, 100, is_write=True)
        assert not memsys.l1[1].contains(100)
        assert not memsys.l2[1].contains(100)

    def test_write_steals_remote_modified(self):
        memsys = small_memsys()
        memsys.access(0, 100, is_write=True)
        result = memsys.access(1, 100, is_write=True)
        assert result.level == "C2C"
        assert memsys.directory.is_owner(1, 100)
        assert not memsys.l1[0].contains(100)


class TestLocking:
    def test_acquire_pins_and_locks(self):
        memsys = small_memsys()
        latency = memsys.acquire_line_lock(0, 100)
        assert latency > 0
        assert memsys.locks.holder(100) == 0
        assert memsys.l1[0].is_pinned(100)

    def test_acquire_contended_lock_denied(self):
        memsys = small_memsys()
        memsys.acquire_line_lock(0, 100)
        with pytest.raises(LockDenied):
            memsys.acquire_line_lock(1, 100)

    def test_reacquire_own_lock_ok(self):
        memsys = small_memsys()
        memsys.acquire_line_lock(0, 100)
        memsys.acquire_line_lock(0, 100)
        assert memsys.locks.holder(100) == 0

    def test_release_all_unpins(self):
        memsys = small_memsys()
        memsys.acquire_line_lock(0, 100)
        memsys.acquire_line_lock(0, 104)
        released = memsys.release_all_locks(0)
        assert released == {100, 104}
        assert not memsys.l1[0].is_pinned(100)
        assert memsys.locks.locked_line_count() == 0

    def test_write_invalidating_locked_line_is_protocol_error(self):
        memsys = small_memsys()
        memsys.acquire_line_lock(0, 100)
        # Callers must gate on the lock table; bypassing it trips the
        # protocol invariant rather than silently invalidating a lock.
        with pytest.raises(ProtocolError):
            memsys.access(1, 100, is_write=True)

    def test_lock_set_overflow_raises(self):
        memsys = small_memsys()
        # L1 has 4 sets x 2 ways: three same-set lines cannot all pin.
        memsys.acquire_line_lock(0, 0)
        memsys.acquire_line_lock(0, 4)
        with pytest.raises(OverflowError):
            memsys.acquire_line_lock(0, 8)

    def test_probe_exclusive_hit(self):
        memsys = small_memsys()
        assert not memsys.probe_exclusive_hit(0, 100)
        memsys.access(0, 100, is_write=True)
        assert memsys.probe_exclusive_hit(0, 100)
        memsys.access(1, 100, is_write=False)
        assert not memsys.probe_exclusive_hit(0, 100)


class TestEvictions:
    def test_l1_capacity_eviction_keeps_l2_copy(self):
        memsys = small_memsys()
        # Fill L1 set 0 (lines 0, 4 with 4 sets x 2 ways) then add 8.
        for line in (0, 4, 8):
            memsys.access(0, line, is_write=False)
        assert memsys.l2[0].contains(0) or memsys.l2[0].contains(4)
        # Victim evicted from L1 but still held (via L2) in the directory.
        resident = [line for line in (0, 4) if memsys.l1[0].contains(line)]
        evicted = [line for line in (0, 4) if not memsys.l1[0].contains(line)]
        assert len(resident) == 1 and len(evicted) == 1
        assert 0 in memsys.directory.holders(evicted[0])


def materialised_sets(memsys):
    """Set indices built so far, per cache: (L1 per core, L2 per core, L3)."""
    return (
        [set(cache._sets) for cache in memsys.l1],
        [set(cache._sets) for cache in memsys.l2],
        set(memsys.l3._sets),
    )


class TestLazyCacheSets:
    """Cache sets are built on first use, never at construction."""

    def test_fresh_default_geometry_has_no_sets(self):
        memsys = MemorySystem(num_cores=128)
        l1_sets, l2_sets, l3_sets = materialised_sets(memsys)
        assert (memsys.l1[0].num_sets, memsys.l2[0].num_sets) == (64, 1024)
        assert memsys.l3.num_sets == 4096
        assert not any(l1_sets) and not any(l2_sets) and not l3_sets

    def test_accesses_build_exactly_the_touched_sets(self):
        memsys = MemorySystem(num_cores=128)
        # 1 + 65 * i is a distinct set in every cache for i < 64.
        lines = [1 + 65 * i for i in range(20)]
        for i, line in enumerate(lines):
            memsys.access(3, line, is_write=bool(i % 2))
        l1_sets, l2_sets, l3_sets = materialised_sets(memsys)
        assert l1_sets[3] == {line % 64 for line in lines}
        assert l2_sets[3] == {line % 1024 for line in lines}
        assert l3_sets == {line % 4096 for line in lines}
        assert len(l1_sets[3]) == len(lines)
        assert not any(l1_sets[:3] + l1_sets[4:])
        assert not any(l2_sets[:3] + l2_sets[4:])
