"""Property-based observation neutrality: armed observers change nothing.

Hypothesis drives random cells (workload, every registered design,
seed, cores, retry threshold, HTM or SLE speculation) through the event
loop bare and then with one observer armed at a time: an event trace,
the explicit :class:`~repro.verify.DefaultScheduler`, a
:class:`~repro.verify.RetryLedger`, or the online serializability
monitor. Each must leave the stats JSON, the event-loop pop count and
the final architectural memory identical to the bare run. The fused
body step runs under all of them, so the property also pins that the
observers see it without steering it.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.htm.design import DESIGN_REGISTRY
from repro.obs.trace import EventTrace
from repro.sim.config import SimConfig
from repro.sim.machine import build_machine
from repro.verify import DefaultScheduler, RetryLedger
from repro.workloads import ALL_NAMES, make_workload

#: The observers armed one at a time against the bare run.
OBSERVERS = ("trace", "scheduler", "ledger", "online")


def observed_digest(config, workload_name, ops_per_thread, seed,
                    observer=None):
    """Everything observable about one run, with ``observer`` armed."""
    if observer == "online":
        config = config.replaced(oracle="online")
    machine = build_machine(
        config, make_workload(workload_name, ops_per_thread=ops_per_thread),
        seed=seed,
        trace=EventTrace() if observer == "trace" else None,
        scheduler=DefaultScheduler() if observer == "scheduler" else None,
        retry_ledger=RetryLedger() if observer == "ledger" else None,
    )
    stats = machine.run()
    return {
        "stats": json.dumps(stats.to_dict(), sort_keys=True),
        "events": machine.event_count,
        "memory": sorted(machine.memory.snapshot().items()),
    }


def assert_observation_neutral(config, workload_name, ops_per_thread, seed):
    bare = observed_digest(config, workload_name, ops_per_thread, seed)
    for observer in OBSERVERS:
        observed = observed_digest(
            config, workload_name, ops_per_thread, seed, observer
        )
        assert observed == bare, "{} changed the run".format(observer)


@given(
    workload=st.sampled_from(ALL_NAMES),
    design=st.sampled_from(sorted(DESIGN_REGISTRY)),
    seed=st.integers(min_value=1, max_value=10_000),
    num_cores=st.integers(min_value=2, max_value=8),
    ops_per_thread=st.integers(min_value=2, max_value=8),
    retry_threshold=st.integers(min_value=1, max_value=6),
    speculation=st.sampled_from(["htm", "sle"]),
)
@settings(max_examples=30, deadline=None)
def test_observers_are_observation_neutral(workload, design, seed, num_cores,
                                           ops_per_thread, retry_threshold,
                                           speculation):
    config = SimConfig.for_design(
        design, num_cores=num_cores, retry_threshold=retry_threshold,
        speculation=speculation,
    )
    assert_observation_neutral(config, workload, ops_per_thread, seed)
