"""Focused tests for executor corner paths.

Each test drives a scripted scenario down one specific edge of the
state machine: fallback-lock abort types, NACKs on locked lines,
explicit aborts, CRT population, and retry-mode transitions.
"""

import json
from collections import Counter

import pytest

from repro.core.modes import ExecMode
from repro.htm.abort import AbortReason
from repro.htm.design import ClearDesign, design_name
from repro.sim.config import SimConfig
from repro.sim.executor import CoreExecutor
from repro.sim.machine import Machine
from repro.sim.program import AbortOp, Branch, Compute, Invoke, Load, Store
from repro.workloads import make_workload
from tests.integration.test_machine_basic import ScriptedWorkload, counter_invoke


def run_scripted(scripts, letter="B", cores=2, shared_lines=8, seed=1, **overrides):
    config = SimConfig.for_design(design_name(letter), num_cores=cores, **overrides)
    workload = ScriptedWorkload(scripts, shared_lines=shared_lines)
    machine = Machine(config, workload, seed=seed)
    stats = machine.run()
    return machine, workload, stats


def slow_counter_invoke(compute=200):
    """A long AR so peers overlap with it reliably."""

    def build(workload):
        addr = workload.addr(0)

        def body():
            value = yield Load(addr)
            yield Compute(compute)
            yield Store(addr, value + 1)

        return Invoke(("scripted", "slow"), body)

    return build


def abort_op_invoke():
    def build(workload):
        addr = workload.addr(0)

        def body():
            yield Load(addr)
            yield AbortOp()
            yield Store(addr, 12345)  # must never execute

        return Invoke(("scripted", "aborter"), body)

    return build


class TestFallbackAbortTypes:
    def test_fallback_pressure_produces_fallback_abort_types(self):
        script = [slow_counter_invoke() for _ in range(12)]
        _, _, stats = run_scripted(
            {0: list(script), 1: list(script)},
            retry_threshold=1,
            backoff_base=0,
        )
        fallback_aborts = (
            stats.aborts_by_reason.get(AbortReason.EXPLICIT_FALLBACK, 0)
            + stats.aborts_by_reason.get(AbortReason.OTHER_FALLBACK, 0)
        )
        assert fallback_aborts > 0

    def test_fallback_aborts_do_not_count_toward_threshold(self):
        # With threshold 1 every counting abort goes straight to
        # fallback; the run must still complete every region.
        script = [slow_counter_invoke() for _ in range(12)]
        machine, workload, stats = run_scripted(
            {0: list(script), 1: list(script)},
            retry_threshold=1,
            backoff_base=0,
        )
        assert stats.total_commits == 24
        assert machine.memory.peek(workload.addr(0)) == 24


class TestExplicitAbort:
    def test_explicit_abort_reaches_fallback_and_completes(self):
        script = [abort_op_invoke()]
        machine, workload, stats = run_scripted(
            {0: script}, retry_threshold=2, backoff_base=0
        )
        assert stats.aborts_by_reason.get(AbortReason.EXPLICIT, 0) >= 2
        # The region ends via fallback (where XAbort just ends it).
        assert stats.commits_by_mode.get(ExecMode.FALLBACK, 0) == 1
        # The post-abort store never executed.
        assert machine.memory.peek(workload.addr(0)) == 0

    def test_explicit_abort_marks_region_non_discoverable_under_clear(self):
        script = [abort_op_invoke()]
        machine, _, _ = run_scripted(
            {0: script}, letter="C", retry_threshold=3, backoff_base=0
        )
        entry = machine.executors[0].controller.ert.lookup(("scripted", "aborter"))
        assert entry is not None


class TestNackOnLockedLines:
    def test_speculative_access_to_locked_line_nacks(self):
        # Core 0 converts a hot counter to NS-CL (CLEAR); core 1 keeps
        # accessing it speculatively and must take NACK aborts when the
        # line is held locked.
        script = [slow_counter_invoke() for _ in range(20)]
        _, _, stats = run_scripted(
            {0: list(script), 1: list(script)}, letter="C",
        )
        assert stats.commits_by_mode.get(ExecMode.NS_CL, 0) > 0
        assert stats.aborts_by_reason.get(AbortReason.NACKED, 0) > 0

    def test_nack_categorized_as_memory_conflict(self):
        from repro.htm.abort import AbortCategory, categorize_abort

        assert categorize_abort(AbortReason.NACKED) is AbortCategory.MEMORY_CONFLICT


class TestCrtPopulation:
    def test_conflicting_reads_recorded(self):
        # Readers of line 0 conflict with writers of line 0: the line is
        # read-only for the reader region, so the reader's CRT learns it.
        def reader(workload):
            addr = workload.addr(0)
            sink = workload.addr(1)

            def body():
                value = yield Load(addr)
                yield Compute(150)
                accum = yield Load(sink)
                yield Store(sink, accum + value)

            return Invoke(("scripted", "reader"), body)

        def writer(workload):
            addr = workload.addr(0)

            def body():
                value = yield Load(addr)
                yield Compute(150)
                yield Store(addr, value + 1)

            return Invoke(("scripted", "writer"), body)

        machine, _, _ = run_scripted(
            {0: [reader] * 15, 1: [writer] * 15}, letter="C", cores=2,
        )
        reader_crt = machine.executors[0].controller.crt
        assert len(reader_crt) > 0


class TestZombieArbitration:
    def test_doomed_attempt_leaves_arbitration(self):
        # A remote conflict dooms the attempt (pending_abort set); from
        # that instant it must neither be victimized again nor NACK.
        from repro.htm.arbiter import NO_CONFLICT
        from repro.htm.rwset import ReadWriteSets

        config = SimConfig.for_design("powertm", num_cores=2)
        machine = Machine(config, make_workload("mwobject", ops_per_thread=2),
                          seed=1)
        executor = machine.executors[0]
        executor.phase = "body"
        executor.mode = ExecMode.SPECULATIVE
        executor.rwsets = ReadWriteSets(l1_sets=None, l2_sets=None,
                                        index=machine.sharer_index, core=0)
        executor.rwsets.record_read(5)
        executor.rwsets.record_write(6)
        machine.power.try_acquire(0)
        assert machine.resolve_conflict(1, 6, is_write=False).nacking_core == 0
        executor.receive_remote_conflict(5, remote_is_write=True, from_core=1)
        assert executor.pending_abort is AbortReason.MEMORY_CONFLICT
        assert machine.sharer_index.snapshot() == {}
        assert machine.resolve_conflict(1, 5, is_write=True) is NO_CONFLICT
        assert machine.resolve_conflict(1, 6, is_write=False) is NO_CONFLICT


class TestRetryModeTransitions:
    def test_scl_abort_falls_back_to_speculative_retry(self):
        # Pointer-chased, contended region: S-CL attempts will sometimes
        # abort; the next attempt must be a plain speculative retry, and
        # everything still completes.
        from tests.integration.test_modes import pointer_chase_invoke

        script = [pointer_chase_invoke() for _ in range(15)]
        _, _, stats = run_scripted(
            {0: list(script), 1: list(script)}, letter="C",
        )
        assert stats.total_commits == 30


class SubLoad(Load):
    __slots__ = ()


class SubStore(Store):
    __slots__ = ()


class SubCompute(Compute):
    __slots__ = ()


class SubBranch(Branch):
    __slots__ = ()


SUBCLASSED = {
    Load: lambda op: SubLoad(op.addr),
    Store: lambda op: SubStore(op.addr, op.value),
    Compute: lambda op: SubCompute(op.cycles, op.ops),
    Branch: lambda op: SubBranch(op.condition),
}


def subclassed_body(body, seen):
    """Re-yield ``body``'s ops as instances of the subclasses above."""
    send_value = None
    while True:
        try:
            op = body.send(send_value)
        except StopIteration:
            return
        convert = SUBCLASSED.get(op.__class__)
        if convert is not None:
            seen[op.__class__] += 1
            op = convert(op)
        send_value = yield op


def run_registry_cell(workload_name, design, seen=None, **overrides):
    config = SimConfig.for_design(design, num_cores=8, **overrides)
    workload = make_workload(workload_name, ops_per_thread=4)
    if seen is not None:
        make_invocation = workload.make_invocation

        def subclassed_invocation(thread_id, rng):
            invoke = make_invocation(thread_id, rng)
            factory = invoke.body_factory
            return Invoke(
                invoke.region_id, lambda: subclassed_body(factory(), seen)
            )

        workload.make_invocation = subclassed_invocation
    machine = Machine(config, workload, seed=2)
    stats = machine.run()
    return (
        json.dumps(stats.to_dict(), sort_keys=True),
        machine.event_count,
        machine.memory.snapshot(),
    )


class TestOpSubclasses:
    """Subclassed body ops take the same paths as the base classes."""

    CELLS = (
        ("sorted-list", "clear", {}),  # failed discovery, S-CL, NS-CL
        ("mwobject", "clear", {}),
        ("arrayswap", "clear", {"retry_threshold": 1, "oracle": "online"}),
        ("sorted-list", "lrw", {"lrw_read_lines": 16, "lrw_write_lines": 4}),
        ("genome", "baseline", {"speculation": "sle"}),
        ("bst", "powertm", {}),
    )

    @pytest.mark.parametrize("workload,design,overrides", CELLS)
    def test_subclassed_ops_match_base_ops(self, workload, design, overrides):
        seen = Counter()
        base = run_registry_cell(workload, design, **overrides)
        subclassed = run_registry_cell(workload, design, seen, **overrides)
        assert seen[Load] and seen[Store]
        assert subclassed == base

    @pytest.mark.parametrize("letter", ("B", "C"))
    def test_subclassed_compute_and_branch_match_base(self, letter):
        seen = Counter()

        def branchy_invoke(wrap):
            def build(workload):
                addr = workload.addr(0)

                def body():
                    value = yield Load(addr)
                    yield Branch(value)
                    yield Compute(150)
                    yield Store(addr, value + 1)

                if wrap:
                    return Invoke(("scripted", "branchy"),
                                  lambda: subclassed_body(body(), seen))
                return Invoke(("scripted", "branchy"), body)

            return build

        def run(wrap):
            script = [branchy_invoke(wrap) for _ in range(8)]
            machine, _, stats = run_scripted(
                {0: list(script), 1: list(script), 2: list(script)},
                letter=letter, cores=3, retry_threshold=2,
            )
            return (
                json.dumps(stats.to_dict(), sort_keys=True),
                machine.event_count,
                machine.memory.snapshot(),
            )

        assert run(wrap=True) == run(wrap=False)
        assert all(seen[cls] for cls in SUBCLASSED)


class TestFailedModeStoreCapacity:
    """A failed-mode store overflow leaves the ERT entry untouched.

    Unlike every other tracking-set overflow of a discovering attempt,
    it does not mark the region non-convertible; the abort reason still
    comes from the design's ``classify_capacity_abort``.
    """

    def test_overflow_keeps_ert_and_takes_the_design_reason(self, monkeypatch):
        def build_victim(workload):
            conflict = workload.addr(0)
            # Two lines in the same set of a 2-set, 1-way L1: the second
            # write overflows the write set.
            first, second = workload.addr(2), workload.addr(4)

            def body():
                yield Load(conflict)
                yield Compute(400)
                yield Store(first, 1)
                yield Store(second, 2)

            return Invoke(("scripted", "victim"), body)

        def build_writer(workload):
            conflict = workload.addr(0)

            def body():
                yield Compute(100)
                yield Store(conflict, 7)

            return Invoke(("scripted", "writer"), body)

        seen = []
        abort_attempt = CoreExecutor._abort_attempt

        def spy(executor, reason, *args, **kwargs):
            if executor.core == 0 and not seen:
                entry = executor.controller.ert.ensure(("scripted", "victim"))
                seen.append((executor.mode, reason, entry.is_convertible))
            return abort_attempt(executor, reason, *args, **kwargs)

        monkeypatch.setattr(CoreExecutor, "_abort_attempt", spy)
        monkeypatch.setattr(
            ClearDesign, "classify_capacity_abort",
            lambda self, *, executor, exc: AbortReason.INJECTED_CAPACITY,
        )
        machine, _, stats = run_scripted(
            {0: [build_victim], 1: [build_writer]}, letter="C",
            l1_size=128, l1_assoc=1,
        )
        assert seen == [
            (ExecMode.FAILED_DISCOVERY, AbortReason.INJECTED_CAPACITY, True)
        ]
        assert stats.total_commits == 2
