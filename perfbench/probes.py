"""Host-side probes for the traced run: timers and spans wrapped around
each layer's public entry points from outside the simulator's source.

Two kinds of instrument share one clock and one call stack:

- **Aggregated timers** (count, inclusive total, self time, exceptions
  raised by type) for the hot per-access calls: ``CoreExecutor.step``,
  ``MemorySystem.access``, the lock table, the arbiter, read/write-set
  recording, discovery and the CLEAR controller. Their memory use is
  fixed however long the run.
- **Coarse spans** (id, parent id, root id, start, end) for cell,
  build, run, energy, to_dict, cache, journal and schedule boundaries,
  kept in memory and written out as Chrome trace-event JSON when the
  benchmark ends.

A wrapped call's *self time* is its duration minus the time its wrapped
children took, so the self times of all layers add up to the traced
wall time without double counting. :meth:`Probes.install` patches the
targets in place and :meth:`Probes.uninstall` restores the originals;
nothing under ``src/`` changes.

Worker processes of the experiment engine are reached through the
engine's ``execute=`` seam: :func:`traced_execute` times one cell and
appends the worker's probe state to a per-process JSON-lines file that
the parent merges with :meth:`Probes.merge_worker_files`.
"""

import collections
import concurrent.futures
import functools
import glob
import json
import os
import sys
import time


class Timer:
    """Aggregate of every call through one wrapped entry point."""

    __slots__ = ("count", "total", "self_time", "raised", "depth")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.raised = collections.Counter()
        self.depth = 0

    def to_dict(self):
        return {
            "count": self.count,
            "total": self.total,
            "self": self.self_time,
            "raised": dict(self.raised),
        }

    def add(self, data):
        self.count += data["count"]
        self.total += data["total"]
        self.self_time += data["self"]
        self.raised.update(data["raised"])


class Probes:
    """Timers, counters and spans for one process.

    ``clock`` is injectable so the self-time arithmetic can be tested
    with a scripted clock.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.timers = collections.defaultdict(Timer)
        self.counters = collections.Counter()
        #: span name -> durations, for percentiles over coarse spans.
        self.durations = collections.defaultdict(list)
        #: Closed spans as (id, parent, root, name, start, end, pid).
        self.spans = []
        # Child-time accumulators, one per open wrapped call; the
        # bottom slot absorbs top-level calls.
        self._frames = [0.0]
        self._open = []
        self._next_id = 1
        self._patches = []
        self.pid = os.getpid()

    # -- recording -----------------------------------------------------------

    def reset(self):
        """Zero every record in place (wrappers keep their timers)."""
        for timer in self.timers.values():
            timer.count = 0
            timer.total = 0.0
            timer.self_time = 0.0
            timer.raised.clear()
            timer.depth = 0
        self.counters.clear()
        self.durations.clear()
        del self.spans[:]
        self._frames[:] = [0.0]
        del self._open[:]
        self.pid = os.getpid()

    def _open_span(self):
        span_id = self._next_id
        self._next_id += 1
        parent = self._open[-1][0] if self._open else None
        root = self._open[0][0] if self._open else span_id
        self._open.append((span_id, parent, root))
        return span_id

    def _close_span(self, name, start, end):
        span_id, parent, root = self._open.pop()
        self.spans.append((span_id, parent, root, name, start, end, self.pid))
        self.durations[name].append(end - start)

    def timed(self, name, fn, span=None, after=None):
        """Wrap ``fn`` so each call feeds timer ``name``.

        ``span`` additionally records a coarse span of that name;
        ``after(probes, args, result)`` runs after a call that returned.
        """
        timer = self.timers[name]
        frames = self._frames
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frames.append(0.0)
            timer.depth += 1
            if span is not None:
                self._open_span()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                timer.raised[type(exc).__name__] += 1
                raise
            finally:
                end = clock()
                elapsed = end - start
                children = frames.pop()
                timer.depth -= 1
                timer.count += 1
                timer.self_time += elapsed - children
                if timer.depth == 0:
                    timer.total += elapsed
                frames[-1] += elapsed
                if span is not None:
                    self._close_span(span, start, end)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a coarse span (and timer) named ``name``."""
        return self.timed(name, fn, span=name)(*args, **kwargs)

    # -- installation --------------------------------------------------------

    def _patch_attr(self, owner, attr, name, span=None, after=None):
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.timed(name, raw.__func__, span, after))
        else:
            new = self.timed(name, raw, span, after)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))

    def _patch_function(self, function, name, span=None, after=None):
        """Replace ``function`` in every loaded ``repro`` module."""
        wrapped = self.timed(name, function, span, after)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    setattr(module, attr, wrapped)
                    self._patches.append((module, attr, function))

    def install(self, pool_latency=False):
        """Wrap every probed entry point (see :func:`_class_targets`).

        ``pool_latency`` also times each process-pool cell from submit
        to result, which only the parent of a sweep needs.
        """
        if self._patches:
            raise RuntimeError("probes already installed")
        for owner, attrs, name, span, after in _class_targets():
            for attr in attrs:
                self._patch_attr(owner, attr, name, span, after)
        for function, name, span in _function_targets():
            self._patch_function(function, name, span)
        if pool_latency:
            self._patch_pool_submit()

    def _patch_pool_submit(self):
        owner = concurrent.futures.ProcessPoolExecutor
        raw = vars(owner)["submit"]
        clock = self.clock
        durations = self.durations
        counters = self.counters

        @functools.wraps(raw)
        def submit(pool, *args, **kwargs):
            start = clock()
            future = raw(pool, *args, **kwargs)
            counters["engine.submits"] += 1
            future.add_done_callback(
                lambda _: durations["engine.cell"].append(clock() - start)
            )
            return future

        owner.submit = submit
        self._patches.append((owner, "submit", raw))

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        del self._patches[:]

    # -- export and merge ----------------------------------------------------

    def state(self):
        """Timers and counters as one JSON-friendly dict."""
        return {
            "timers": {name: t.to_dict() for name, t in self.timers.items()},
            "counters": dict(self.counters),
        }

    def merge_worker_files(self, folder):
        """Fold every worker's last state and all its spans into this one."""
        for path in sorted(glob.glob(os.path.join(folder, "worker-*.jsonl"))):
            last = None
            with open(path) as handle:
                for line in handle:
                    record = json.loads(line)
                    last = record
                    for span in record["spans"]:
                        self.spans.append(tuple(span))
                        self.durations[span[3]].append(span[5] - span[4])
            if last is None:
                continue
            for name, data in last["timers"].items():
                self.timers[name].add(data)
            self.counters.update(last["counters"])

    def chrome_trace(self, metadata=None):
        """Spans as Chrome trace-event JSON (loads in Perfetto).

        Timers and counters ride along under ``otherData``.
        """
        origin = min((span[4] for span in self.spans), default=0.0)
        events = []
        for span_id, parent, root, name, start, end, pid in self.spans:
            events.append({
                "name": name,
                "cat": "perfbench",
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": 0,
                "args": {"id": span_id, "parent": parent, "root": root},
            })
        other = dict(metadata or {})
        other.update(self.state())
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": other}


# -- what gets probed ---------------------------------------------------------

def _note_machine_run(probes, args, stats):
    """After ``Machine.run``: count events and fold in simulated totals."""
    machine = args[0]
    counters = probes.counters
    counters["machine.events"] += machine.event_count
    add_sim_totals(counters, stats)


def _note_cache_load(probes, args, result):
    if result is not None:
        probes.counters["engine.cache_hits"] += 1


def add_sim_totals(counters, stats):
    """Accumulate one run's simulated counts into ``counters``."""
    counters["sim.runs"] += 1
    counters["sim.commits"] += stats.total_commits
    counters["sim.tx_begins"] += stats.tx_begins
    counters["sim.line_locks_acquired"] += stats.line_locks_acquired
    counters["sim.lock_acquire_cycles"] += sum(
        core.lock_acquire_cycles for core in stats.cores
    )
    for level, count in stats.accesses_by_level.items():
        counters["sim.level." + level] += count
    for reason, count in stats.aborts_by_reason.items():
        counters["sim.abort." + reason.value] += count
    for mode, count in stats.commits_by_mode.items():
        counters["sim.mode." + mode.value] += count
    counters["sim.first_retry_commits"] += stats.commits_by_retries.get(1, 0)
    counters["sim.retried_commits"] += sum(
        count for retries, count in stats.commits_by_retries.items()
        if retries >= 1
    ) + sum(stats.fallback_commit_retries.values())


def _class_targets():
    """(owner, methods, timer name, span name, after hook) per layer."""
    from repro.core.controller import ClearController
    from repro.core.discovery import DiscoveryState
    from repro.energy.model import EnergyModel
    from repro.htm.rwset import ReadWriteSets
    from repro.memory.locking import LockManager
    from repro.memory.system import MemorySystem
    from repro.sim.engine import DiskCache
    from repro.sim.executor import CoreExecutor
    from repro.sim.journal import SweepJournal
    from repro.sim.machine import Machine
    from repro.sim.monitor import OnlineMonitor
    from repro.sim.runner import RunResult

    return [
        (Machine, ("__init__",), "machine.build", "build", None),
        (Machine, ("run",), "machine.run", "run", _note_machine_run),
        (Machine, ("resolve_conflict",), "htm.resolve", None, None),
        (CoreExecutor, ("step",), "executor.step", None, None),
        (MemorySystem, ("access",), "memory.access", None, None),
        (LockManager, ("check_access", "try_lock"), "memory.lock_check",
         None, None),
        (ReadWriteSets, ("record_read", "record_write"), "htm.rwset",
         None, None),
        (DiscoveryState, ("on_load", "on_store", "on_branch", "on_compute"),
         "core.discovery", None, None),
        (ClearController, (
            "begin_invocation", "note_conflict", "conclude_failed_discovery",
            "conclude_committed_discovery", "prepare_lock_plan",
            "note_scl_conflicting_read", "mark_non_discoverable",
        ), "core.controller", None, None),
        (OnlineMonitor, (
            "record_commit", "note_fallback_store", "note_fallback_load",
            "note_fallback_abort", "finalize",
        ), "monitor", None, None),
        (EnergyModel, ("evaluate",), "stats.energy", "energy", None),
        (RunResult, ("to_dict",), "stats.to_dict", "to_dict", None),
        (RunResult, ("from_dict",), "engine.decode", None, None),
        (DiskCache, ("load",), "engine.cache_load", "cache",
         _note_cache_load),
        (DiskCache, ("store",), "engine.cache_store", "cache", None),
        (SweepJournal, ("record_result",), "engine.journal", "journal",
         None),
    ]


def _function_targets():
    """(function, timer name, span name) for module-level entry points."""
    from repro.analysis.experiments import figure_payload
    from repro.verify.explore import run_schedule
    from repro.verify.oracles import check_equivalence, check_retry_bound
    from repro.workloads import make_workload

    return [
        (make_workload, "workloads.make", None),
        (run_schedule, "verify.schedule", "schedule"),
        (check_equivalence, "verify.equivalence", None),
        (check_retry_bound, "verify.retry_bound", None),
        (figure_payload, "analysis.figure", None),
    ]


# -- worker side --------------------------------------------------------------

_worker = {"probes": None, "flushed": 0}


def _worker_probes():
    """This process's probes, installed and emptied once per process.

    A forked worker inherits the parent's installed probes and their
    records; those records belong to the parent, so they are dropped.
    """
    probes = _worker["probes"]
    if probes is None:
        probes = Probes()
        probes.install()
        _worker["probes"] = probes
    elif probes.pid != os.getpid():
        probes.reset()
        _worker["flushed"] = 0
    return probes


def traced_execute(spec, out_dir):
    """Engine ``execute=`` hook: one cell under probes, state to disk.

    Like :func:`perfbench.hostspeed.sampled_execute` it first takes a
    host-speed sample, so traced and untraced passes normalize alike.
    Module-level (bound with ``functools.partial``) so the pool can
    pickle it. The result dict is exactly what ``execute_spec`` returns.
    """
    from perfbench.hostspeed import sample_in_worker
    from repro.sim.engine import execute_spec

    sample_in_worker(out_dir)
    probes = _worker_probes()
    result = probes.span("cell", execute_spec, spec)
    fresh = probes.spans[_worker["flushed"]:]
    _worker["flushed"] = len(probes.spans)
    record = dict(probes.state(), spans=fresh)
    path = os.path.join(out_dir, "worker-{}.jsonl".format(os.getpid()))
    with open(path, "a") as handle:
        handle.write(json.dumps(record) + "\n")
    return result


def install_in_parent(probes, pool_latency=False):
    """Install ``probes`` here and let forked workers reuse them."""
    probes.install(pool_latency=pool_latency)
    _worker["probes"] = probes
    _worker["flushed"] = 0


def uninstall_in_parent(probes):
    probes.uninstall()
    _worker["probes"] = None
