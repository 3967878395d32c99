"""Integration tests: the machine event loop on small scenarios.

Uses a purpose-built micro-workload so each test controls exactly which
atomic regions run where.
"""

from repro.common.constants import WORDS_PER_LINE
from repro.core.modes import ExecMode
from repro.htm.design import design_name
from repro.sim.config import SimConfig
from repro.sim.machine import Machine, build_machine
from repro.sim.program import Compute, Invoke, Load, Store, Think
from repro.workloads.base import Mutability, RegionSpec, Workload
from repro.workloads.registry import make_workload


class ScriptedWorkload(Workload):
    """Runs a fixed per-thread list of invocations."""

    name = "scripted"

    def __init__(self, scripts, shared_lines=8):
        super().__init__(ops_per_thread=0, think_cycles=(1, 1))
        self.scripts = scripts
        self.shared_lines = shared_lines
        self.base = None
        self._cursor = None

    def region_specs(self):
        return [RegionSpec("r", Mutability.IMMUTABLE)]

    def setup(self, memory, allocator, num_threads, rng):
        self.base_setup(num_threads)
        self.base = allocator.alloc_lines(self.shared_lines)
        self._cursor = [0] * num_threads

    def addr(self, line, offset=0):
        return self.base + line * WORDS_PER_LINE + offset

    def next_action(self, thread_id, rng):
        script = self.scripts.get(thread_id, [])
        if self._cursor[thread_id] >= len(script):
            return None
        action = script[self._cursor[thread_id]]
        self._cursor[thread_id] += 1
        if callable(action):
            return action(self)
        return action

    def make_invocation(self, thread_id, rng):
        raise AssertionError("scripted workload builds its own actions")


def counter_invoke(region="r"):
    def build(workload):
        addr = workload.addr(0)

        def body():
            value = yield Load(addr)
            yield Compute(2)
            yield Store(addr, value + 1)

        return Invoke(("scripted", region), body)

    return build


def run_scripted(scripts, letter="B", cores=2, **overrides):
    config = SimConfig.for_design(design_name(letter), num_cores=cores, **overrides)
    workload = ScriptedWorkload(scripts)
    machine = Machine(config, workload, seed=1)
    stats = machine.run()
    return machine, workload, stats


class TestSingleCore:
    def test_one_region_commits(self):
        machine, workload, stats = run_scripted({0: [counter_invoke()]})
        assert stats.total_commits == 1
        assert stats.total_aborts == 0
        assert machine.memory.peek(workload.addr(0)) == 1
        assert stats.commits_by_mode[ExecMode.SPECULATIVE] == 1

    def test_think_only_thread_finishes(self):
        machine, _, stats = run_scripted({0: [Think(10)], 1: []})
        assert stats.total_commits == 0
        assert stats.makespan_cycles >= 10

    def test_sequential_regions_accumulate(self):
        machine, workload, stats = run_scripted(
            {0: [counter_invoke(), counter_invoke(), counter_invoke()]}
        )
        assert machine.memory.peek(workload.addr(0)) == 3
        assert stats.total_commits == 3

    def test_makespan_positive(self):
        _, _, stats = run_scripted({0: [counter_invoke()]})
        assert stats.makespan_cycles > 0


class TestTwoCoreConflicts:
    def test_contended_counter_is_atomic(self):
        script = [counter_invoke() for _ in range(10)]
        machine, workload, stats = run_scripted({0: list(script), 1: list(script)})
        # Every one of the 20 increments must be applied exactly once.
        assert machine.memory.peek(workload.addr(0)) == 20
        assert stats.total_commits == 20

    def test_disjoint_regions_never_abort(self):
        def invoke_on(line):
            def build(workload):
                addr = workload.addr(line)

                def body():
                    value = yield Load(addr)
                    yield Store(addr, value + 1)

                return Invoke(("scripted", "r"), body)

            return build

        _, _, stats = run_scripted(
            {0: [invoke_on(0)] * 5, 1: [invoke_on(1)] * 5}
        )
        assert stats.total_aborts == 0

    def test_contended_counter_atomic_under_all_configs(self):
        for letter in "BPCW":
            script = [counter_invoke() for _ in range(8)]
            machine, workload, stats = run_scripted(
                {0: list(script), 1: list(script)}, letter=letter
            )
            assert machine.memory.peek(workload.addr(0)) == 16, letter


class TestFallbackPath:
    def test_low_retry_threshold_forces_fallback(self):
        script = [counter_invoke() for _ in range(10)]
        _, _, stats = run_scripted(
            {0: list(script), 1: list(script)},
            retry_threshold=1,
            backoff_base=0,
        )
        assert stats.commits_by_mode.get(ExecMode.FALLBACK, 0) > 0

    def test_fallback_commits_still_atomic(self):
        script = [counter_invoke() for _ in range(10)]
        machine, workload, stats = run_scripted(
            {0: list(script), 1: list(script)},
            retry_threshold=1,
            backoff_base=0,
        )
        assert machine.memory.peek(workload.addr(0)) == 20


class TestClearPath:
    def test_clear_converts_contended_counter_to_nscl(self):
        script = [counter_invoke() for _ in range(12)]
        machine, workload, stats = run_scripted(
            {0: list(script), 1: list(script)}, letter="C"
        )
        assert machine.memory.peek(workload.addr(0)) == 24
        assert stats.commits_by_mode.get(ExecMode.NS_CL, 0) > 0

    def test_clear_reduces_fallback(self):
        script = [counter_invoke() for _ in range(12)]
        _, _, baseline = run_scripted(
            {0: list(script), 1: list(script)}, letter="B", retry_threshold=2
        )
        script = [counter_invoke() for _ in range(12)]
        _, _, clear = run_scripted(
            {0: list(script), 1: list(script)}, letter="C", retry_threshold=2
        )
        assert clear.commits_by_mode.get(ExecMode.FALLBACK, 0) <= baseline.commits_by_mode.get(
            ExecMode.FALLBACK, 0
        )


class TestLazyConstruction:
    def test_genome_128_cores_builds_no_cache_set_before_run(self):
        machine = build_machine(
            SimConfig(num_cores=128), make_workload("genome", ops_per_thread=2)
        )
        memsys = machine.memsys
        caches = memsys.l1 + memsys.l2 + [memsys.l3]
        assert sum(len(cache._sets) for cache in caches) == 0
        machine.run()
        assert 0 < len(memsys.l3._sets) <= memsys.l3.num_sets
