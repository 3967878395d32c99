"""The assembled memory system: private L1/L2, shared L3, directory, locks.

Latencies follow Table 2 of the paper (L1 1 cycle, L2 10, L3 45, memory
80); cache-to-cache transfers of remote modified data cost a directory
round plus the remote private-cache access.

The memory system performs *performance* state transitions (cache fills,
ownership moves, invalidations). Architectural data movement is handled
by the callers against :class:`repro.memory.shared.SharedMemory`, which
lets the HTM layer buffer speculative stores while still acquiring write
permission eagerly, exactly as a TSX-like eager HTM does.
"""

from repro.common.errors import ProtocolError
from repro.memory.cache import SetAssocCache
from repro.memory.directory import Directory
from repro.memory.locking import LockManager


_NO_CORES = frozenset()


class AccessResult:
    """Outcome of a performance-model memory access."""

    __slots__ = ("latency", "level", "invalidated_cores", "source_core")

    def __init__(self, latency, level, invalidated_cores=(), source_core=None):
        self.latency = latency
        self.level = level
        self.invalidated_cores = (
            frozenset(invalidated_cores) if invalidated_cores else _NO_CORES
        )
        self.source_core = source_core

    def __repr__(self):
        return "AccessResult(latency={}, level={!r})".format(self.latency, self.level)


class MemorySystem:
    """Private L1 + L2 per core, shared L3, directory, and lock manager."""

    def __init__(
        self,
        num_cores,
        l1_size=48 * 1024,
        l1_assoc=12,
        l2_size=512 * 1024,
        l2_assoc=8,
        l3_size=4 * 1024 * 1024,
        l3_assoc=16,
        l1_latency=1,
        l2_latency=10,
        l3_latency=45,
        mem_latency=80,
        directory_sets=4096,
    ):
        self.num_cores = num_cores
        self.l1_latency = l1_latency
        self.l2_latency = l2_latency
        self.l3_latency = l3_latency
        self.mem_latency = mem_latency
        self.c2c_latency = l3_latency + l2_latency
        self.l1 = [SetAssocCache(l1_size, l1_assoc) for _ in range(num_cores)]
        self.l2 = [SetAssocCache(l2_size, l2_assoc) for _ in range(num_cores)]
        self.l3 = SetAssocCache(l3_size, l3_assoc)
        self.directory = Directory(directory_sets)
        self.locks = LockManager()

    # -- plain accesses ----------------------------------------------------

    def access(self, core, line, is_write):
        """Perform a performance-model access and return its cost.

        Callers gate accesses against the lock table *before* calling
        this (the executor's fused body step checks the line's holder);
        the memory system assumes the access is allowed to proceed.
        """
        if is_write:
            return self._write(core, line)
        return self._read(core, line)

    def _read(self, core, line):
        # Classification for reads needs no directory state: a private
        # hit is a hit wherever the other copies live.
        if self.l1[core].contains(line):
            level, latency = "L1", self.l1_latency
        elif self.l2[core].contains(line):
            level, latency = "L2", self.l2_latency
        elif self.l3.contains(line):
            level, latency = "L3", self.l3_latency
        else:
            level, latency = "MEM", self.mem_latency
        source = None
        previous_owner = self.directory.record_read(core, line)
        if previous_owner is not None and (level == "L3" or level == "MEM"):
            level, latency, source = "C2C", self.c2c_latency, previous_owner
        self._fill(core, line)
        return AccessResult(latency, level, source_core=source)

    def _write(self, core, line):
        in_l1 = self.l1[core].contains(line)
        if in_l1 or self.l2[core].contains(line):
            if self.directory.is_owner(core, line):
                level, latency = (
                    ("L1", self.l1_latency) if in_l1 else ("L2", self.l2_latency)
                )
            elif self.directory.held_elsewhere(core, line):
                # Upgrade: invalidation round through the directory.
                level, latency = "UPG", self.l3_latency
            elif in_l1:
                level, latency = "L1", self.l1_latency
            else:
                level, latency = "L2", self.l2_latency
        elif self.l3.contains(line):
            level, latency = "L3", self.l3_latency
        else:
            level, latency = "MEM", self.mem_latency
        source = None
        previous_owner, invalidated = self.directory.record_write(core, line)
        if previous_owner is not None and (level == "L3" or level == "MEM"):
            level, latency, source = "C2C", self.c2c_latency, previous_owner
        for victim in invalidated:
            self._invalidate_private(victim, line)
        self._fill(core, line)
        return AccessResult(latency, level, invalidated, source)

    def _fill(self, core, line):
        self.l3.install(line)
        l2 = self.l2[core]
        l2_evicted = l2.install(line)
        if l2_evicted is not None:
            self._drop_private_line(core, l2_evicted)
        l1_evicted = self.l1[core].install(line)
        if l1_evicted is not None and not l2.contains(l1_evicted):
            self.directory.drop(core, l1_evicted)

    def _drop_private_line(self, core, line):
        """A line left the private L2: enforce inclusion and update directory."""
        if self.l1[core].is_pinned(line):
            raise ProtocolError(
                "L2 evicted line {} that core {} holds locked".format(line, core)
            )
        self.l1[core].invalidate(line)
        self.directory.drop(core, line)

    def _invalidate_private(self, victim, line):
        if self.l1[victim].is_pinned(line):
            raise ProtocolError(
                "invalidating line {} locked by core {}".format(line, victim)
            )
        self.l1[victim].invalidate(line)
        self.l2[victim].invalidate(line)

    # -- cacheline locking ---------------------------------------------------

    def acquire_line_lock(self, core, line):
        """Obtain exclusive ownership of a line, pin it, and lock it.

        Returns the access latency paid. Raises
        :class:`repro.memory.locking.LockDenied` if another core holds
        the line locked (the caller parks and retries on release) and
        :class:`OverflowError` if the L1 set has no unpinned way left
        (the caller aborts the cacheline-locked attempt).
        """
        holder = self.locks.holder(line)
        if holder is not None and holder != core:
            from repro.memory.locking import LockDenied

            raise LockDenied(line, holder)
        result = self._write(core, line)
        self.l1[core].pin(line)
        self.l2[core].pin(line)
        self.locks.try_lock(core, line)
        return result.latency

    def release_all_locks(self, core):
        """Bulk-release every lock held by a core; returns released lines."""
        released = self.locks.unlock_all(core)
        for line in released:
            self.l1[core].unpin(line)
            self.l2[core].unpin(line)
        return released

    def probe_exclusive_hit(self, core, line):
        """Group-lock probe: line resident in L1 with exclusive permission?"""
        return self.l1[core].contains(line) and self.directory.is_owner(core, line)

    def evict_core_state(self, core):
        """Drop all private-cache state of a core (used by tests)."""
        for line in list(self.l1[core].resident_lines()):
            self.l1[core].unpin(line)
            self.l1[core].invalidate(line)
        for line in list(self.l2[core].resident_lines()):
            self.l2[core].unpin(line)
            self.l2[core].invalidate(line)
            self.directory.drop(core, line)
