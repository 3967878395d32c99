"""A finished machine is freed by reference counting, not by the cycle collector.

Every owner that builds a :class:`Machine` and discards it calls
:meth:`Machine.close`, which drops the executor, closure, checker and
trace-observer back-references. Each test here runs with the cyclic
collector disabled: a weakref taken when the machine was built must be
dead once the owner returns, and a following ``gc.collect()`` must find
no garbage (``record_trace`` leaves only the JSON encoder's own cycle).
"""

import gc
import json
import weakref

import pytest

from repro import api
from repro.common.errors import CycleLimitExceeded
from repro.htm.design import DESIGN_REGISTRY
from repro.obs.trace import EventTrace
from repro.sim.config import SimConfig
from repro.sim.machine import Machine
from repro.workloads import make_workload
from repro.workloads.trace import record_trace


@pytest.fixture
def built(monkeypatch):
    """Weakrefs to every machine built while the collector is disabled."""
    refs = []
    original = Machine.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(Machine, "__init__", init)
    gc.collect()
    gc.disable()
    try:
        yield refs
    finally:
        gc.enable()


def assert_freed(refs):
    assert refs, "no machine was built"
    alive = sum(1 for ref in refs if ref() is not None)
    assert alive == 0, "{} of {} machines still reachable".format(
        alive, len(refs)
    )
    assert gc.collect() == 0


@pytest.mark.parametrize("design", sorted(DESIGN_REGISTRY))
def test_simulate_frees_machine(built, design):
    report = api.simulate("mwobject", design, ops_per_thread=4)
    assert report.stats.total_commits > 0
    assert_freed(built)


def test_traced_simulate_frees_machine(built):
    report = api.simulate("mwobject", "clear+powertm", trace=True,
                          ops_per_thread=4)
    assert len(report.trace) > 0
    assert_freed(built)


@pytest.mark.parametrize("oracle", ["online", "shadow", "cross-check"])
def test_checked_simulate_frees_machine(built, oracle):
    report = api.simulate("mwobject", "clear", oracle=oracle,
                          ops_per_thread=4)
    assert report.stats.total_commits > 0
    assert_freed(built)


def test_fault_injected_simulate_frees_machine(built):
    config = SimConfig.for_design(
        "clear", num_cores=4, fault_spurious_rate=0.2,
        fault_capacity_rate=0.1, fault_jitter_cycles=6,
        fault_wakeup_delay_cycles=9,
    )
    report = api.simulate("mwobject", config, ops_per_thread=4)
    assert report.stats.total_commits > 0
    assert_freed(built)


def test_truncated_run_frees_machine(built):
    config = SimConfig.for_design("baseline", num_cores=4, max_cycles=500)
    try:
        api.simulate("mwobject", config, trace=True, oracle="online")
    except CycleLimitExceeded as exc:
        assert exc.stats.truncated
    else:
        pytest.fail("the run should hit the cycle limit")
    assert_freed(built)


@pytest.mark.parametrize("explorer", ["random", "exhaustive"])
def test_verify_frees_every_schedule_machine(built, explorer):
    report = api.verify("mwobject", "clear", cores=2, ops_per_thread=2,
                        schedules=3, explorer=explorer, max_schedules=6)
    assert report.ok
    assert len(built) >= report.schedules_explored > 1
    assert_freed(built)


def test_record_trace_frees_machine(built, tmp_path):
    manifest = record_trace("arrayswap", str(tmp_path / "arrayswap"),
                            config="clear", seed=3, ops_per_thread=3)
    assert manifest["total_commits"] > 0
    assert built and all(ref() is None for ref in built)
    # The one indented manifest dump goes through the pure-Python JSON
    # encoder, whose recursive closures are a reference cycle of their
    # own; the recording leaves exactly that much garbage and no more.
    recorded = gc.collect()
    json.dumps(manifest, indent=1, sort_keys=True)
    assert recorded == gc.collect()


def test_close_is_idempotent_and_keeps_results_readable():
    config = SimConfig.for_design("clear", num_cores=4, oracle="cross-check")
    trace = EventTrace()
    machine = Machine(config, make_workload("mwobject", ops_per_thread=4),
                      seed=2, trace=trace)
    stats = machine.run()
    stats_before = stats.to_dict()
    memory_before = dict(machine.memory.snapshot())
    events_before = len(trace)
    machine.close()
    machine.close()
    assert machine.stats is stats
    assert stats.to_dict() == stats_before
    assert dict(machine.memory.snapshot()) == memory_before
    assert len(machine.trace) == events_before > 0
    assert all(ex.finish_time is not None for ex in machine.executors)
    assert all(ex.machine is None and ex.body_step is None
               for ex in machine.executors)
    assert machine.monitor.machine is None
    assert machine.oracle.machine is None
    assert machine.fallback.observer is None
    assert machine.power.observer is None
