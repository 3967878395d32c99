"""Per-layer metrics of a traced run, computed from its probe records.

Times (``*_s``) are self times per traced pass: a layer's wrapped calls
minus the wrapped calls they made (see :mod:`perfbench.probes`). Counts
are per traced pass too; simulated counts (``machine.events``, commits,
aborts, locks, NACKs) are deterministic for a given seed and must not
move under a perf-only change.
"""

import statistics

from repro.htm.abort import AbortReason

from perfbench import summary


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(probes, passes, traced_walls, untraced_walls, engine=None,
                  violations=0):
    """Every per-layer metric for ``passes`` traced passes.

    ``engine`` (sweep only) carries ``executed`` (cells simulated by the
    traced cold passes), ``quarantines``, ``jobs`` and ``cold_walls``.
    """
    timers = probes.timers
    counters = probes.counters
    durations = probes.durations

    def self_s(name):
        return timers[name].self_time / passes if name in timers else 0.0

    def calls(name):
        return timers[name].count // passes if name in timers else 0

    def count(name):
        return counters.get(name, 0) // passes

    commits = count("sim.commits")
    aborts = sum(count("sim.abort." + reason.value)
                 for reason in AbortReason)
    accesses = sum(
        count("sim.level." + level)
        for level in ("L1", "L2", "L3", "MEM", "C2C", "UPG")
    )
    metrics = {
        "machine.run_self_s": self_s("machine.run"),
        "machine.events": count("machine.events"),
        "executor.step_self_s": self_s("executor.step"),
        "executor.steps": calls("executor.step"),
        "executor.commit_ratio": _ratio(commits, count("sim.tx_begins")),
        "memory.access_s": self_s("memory.access"),
        "memory.accesses": calls("memory.access"),
        "memory.l1_hit_ratio": _ratio(count("sim.level.L1"), accesses),
        "memory.lock_check_s": self_s("memory.lock_check"),
        "memory.lock_checks": calls("memory.lock_check"),
        "memory.line_locks_acquired": count("sim.line_locks_acquired"),
        "memory.nacks": (
            timers["memory.lock_check"].raised.get("NackError", 0) // passes
            if "memory.lock_check" in timers else 0
        ),
        "memory.lock_acquire_cycles": count("sim.lock_acquire_cycles"),
        "htm.resolve_s": self_s("htm.resolve"),
        "htm.resolves": calls("htm.resolve"),
        "htm.rwset_s": self_s("htm.rwset"),
        "htm.rwset_records": calls("htm.rwset"),
        "htm.aborts_per_commit": _ratio(aborts, commits),
        "htm.fallback_share": _ratio(count("sim.mode.fallback"), commits),
        "core.discovery_s": self_s("core.discovery"),
        "core.discovery_calls": calls("core.discovery"),
        "core.controller_s": self_s("core.controller"),
        "core.controller_calls": calls("core.controller"),
        "core.cl_commit_share": _ratio(
            count("sim.mode.s_cl") + count("sim.mode.ns_cl"), commits
        ),
        "core.first_retry_commit_share": _ratio(
            count("sim.first_retry_commits"), count("sim.retried_commits")
        ),
        "core.nacked_aborts_per_commit": _ratio(
            count("sim.abort." + AbortReason.NACKED.value), commits
        ),
        "workloads.make_s": self_s("workloads.make"),
        "machine.build_s": self_s("machine.build"),
        "monitor.s": self_s("monitor"),
        "monitor.calls": calls("monitor"),
        "verify.schedule_p50_s": (
            statistics.median(durations["schedule"])
            if durations.get("schedule") else 0.0
        ),
        "verify.equivalence_s": self_s("verify.equivalence"),
        "verify.retry_bound_s": self_s("verify.retry_bound"),
        "verify.violations": violations // passes,
        "engine.cache_store_s": self_s("engine.cache_store"),
        "engine.cache_stores": calls("engine.cache_store"),
        "engine.journal_s": self_s("engine.journal"),
        "engine.journal_appends": calls("engine.journal"),
        "stats.to_dict_s": self_s("stats.to_dict"),
        "engine.cache_load_s": self_s("engine.cache_load"),
        "engine.cache_hits": count("engine.cache_hits"),
        "engine.decode_s": self_s("engine.decode"),
        "analysis.figure_s": self_s("analysis.figure"),
        "stats.energy_s": self_s("stats.energy"),
        "trace.overhead": _ratio(statistics.median(traced_walls),
                                 statistics.median(untraced_walls)),
    }
    for reason in AbortReason:
        metrics["htm.aborts." + reason.value] = count(
            "sim.abort." + reason.value
        )
    metrics.update(_engine_metrics(durations, counters, engine, passes))
    return metrics


def _engine_metrics(durations, counters, engine, passes):
    """Pool-side figures of a sweep; all zero for the inline workloads."""
    cells = durations.get("engine.cell", [])
    metrics = {
        "engine.cell_p50_s": 0.0,
        "engine.cell_p95_s": 0.0,
        "engine.worker_busy_frac": 0.0,
        "engine.retries": 0,
        "engine.quarantines": 0,
    }
    if engine is None:
        return metrics
    if cells:
        metrics["engine.cell_p50_s"] = summary.percentile(cells, 50)
        metrics["engine.cell_p95_s"] = summary.percentile(cells, 95)
    busy = sum(durations.get("cell", []))
    metrics["engine.worker_busy_frac"] = _ratio(
        busy, engine["jobs"] * sum(engine["cold_walls"])
    )
    metrics["engine.retries"] = (
        counters.get("engine.submits", 0) - engine["executed"]
    ) // passes
    metrics["engine.quarantines"] = engine["quarantines"] // passes
    return metrics
