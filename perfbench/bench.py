"""The measuring code behind ``run.py``: passes, checks, metrics, output.

``run.py`` only records the process start time and puts the simulator's
source on the path; everything else lives here.
"""

import argparse
import functools
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from repro.common.errors import OracleViolation

from perfbench import checks, hostspeed, layers, probes, suite, summary

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("baseline-hot", "clear-locked", "sweep-quick", "verify-fuzz")

#: Fresh processes that repeat set-up, so ``setup_s`` is a median.
SETUP_SAMPLES = 9
#: Share of the measuring window the sweep may spend on cold passes.
SWEEP_COLD_SHARE = 0.65
#: Fewest cached reruns a sweep run measures.
MIN_WARM_PASSES = 3
#: Units of the printed metrics that ``BENCHMARK.json`` does not list.
REPORTED_UNITS = {
    "setup_raw_s": "s", "wall_s": "s", "warm_wall_s": "s", "commits_per_s": "1/s",
    "schedules_per_s": "1/s", "host_speed": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see perfbench/README.md)."
    )
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: suite.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring window per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one fresh-process set-up sample for setup_s.
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def host_fingerprint():
    return "python {} | nproc {} | {}".format(
        platform.python_version(), os.cpu_count(), platform.platform()
    )


def peak_rss_mb(with_children):
    """Peak RSS of this process, plus its largest finished child.

    The host-speed reference table is not the program's memory: it is
    taken off each process counted (forked workers inherit it).
    """
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    processes = 1
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        processes = 2
    return kib / 1024.0 - processes * hostspeed.table_mb()


def setup_samples(name, seed, speed):
    """Set-up seconds of :data:`SETUP_SAMPLES` fresh processes.

    Returns the raw samples and the samples normalized like a pass,
    from reference loops timed just before and after each process.
    """
    raw, normalized = [], []
    for _ in range(SETUP_SAMPLES):
        done, wall, norm = speed.measure(
            subprocess.run,
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", name, "--seed", str(seed), "--setup-only"],
            cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=120,
        )
        seconds = json.loads(done.stdout.decode().splitlines()[-1])
        raw.append(seconds)
        normalized.append(seconds * norm / wall)
    return raw, normalized


class WorkloadRun:
    """One workload measured in this process: samples, checks, metrics."""

    def __init__(self, name, args, scratch):
        self.name = name
        self.args = args
        self.scratch = scratch
        self.log = checks.CheckLog()
        self.workload = suite.build(name, args.seed, scratch)
        self.workload.warm_up()
        self.runs = 0
        self.digest = None
        self.metrics = {}
        self.samples = {}
        self.speed = hostspeed.HostSpeed()

    @property
    def attempted(self):
        return self.runs + self.log.attempted

    @property
    def failed(self):
        return self.log.failed

    def check_digests(self, summaries):
        self.digest = summaries[0].digest
        self.log.record("every pass reproduces the first pass's digest",
                        checks.same_digest(self.digest,
                                           [s.digest for s in summaries]))

    def check_sweep(self, output, cold):
        report = output.report
        self.log.record("sweep quarantined no cell",
                        checks.no_failed_cells(report.failures))
        if cold:
            self.log.record("cold journal: replayed + executed == total",
                            checks.journal_accounts(report.journal,
                                                    report.total))
        else:
            self.log.record("warm rerun served every cell from the cache",
                            checks.all_cached(output.cache_hits,
                                              report.total))

    def check_warm(self, output, cold_payload):
        self.check_sweep(output, cold=False)
        self.log.record("warm figure payload equals cold",
                        checks.payloads_equal(cold_payload, output.payload))

    def check_verify(self, reports):
        self.log.record("verify found no violation",
                        checks.no_violations(reports))
        self.log.record("exhaustive exploration completed",
                        checks.exhaustive_complete(reports))

    def check_pass(self, output):
        """Checks that belong to every pass of this workload."""
        if self.name == "verify-fuzz":
            self.check_verify(output)

    def timed_pass(self, fn, hook=None, recorder=None, **kwargs):
        """``(output, wall, normalized)`` of one pass (see hostspeed).

        Inline and verify passes run each cell or campaign as a unit of
        their own. A sweep pass is one unit; a cold one passes ``hook``,
        the engine ``execute=`` function through which its workers
        sample host speed before each cell into a temporary folder;
        ``recorder`` also merges the probe state the traced hook leaves
        there.
        """
        gc.collect()
        if hook is None:
            return self.speed.measure(fn, split=not self.workload.has_engine,
                                      **kwargs)
        worker_dir = tempfile.mkdtemp(prefix="workers-", dir=self.scratch)
        try:
            result = self.speed.measure(
                fn, worker_dir=worker_dir, jobs=suite.SWEEP_JOBS,
                execute=functools.partial(hook, out_dir=worker_dir), **kwargs
            )
            if recorder is not None:
                recorder.merge_worker_files(worker_dir)
            return result
        finally:
            shutil.rmtree(worker_dir, ignore_errors=True)

    # -- untraced: end-to-end metrics ----------------------------------------

    def measure(self):
        workload = self.workload
        budget = self.args.seconds
        inline = not workload.has_engine and self.name != "verify-fuzz"
        if inline:
            try:
                online = workload.summarize(workload.run_pass(oracle="online"))
                self.runs += online.runs
                failures = []
            except OracleViolation as exc:
                online, failures = None, [str(exc)]
            self.log.record("online monitor pass reports no violation",
                            failures)
        window = time.perf_counter()
        walls, norms, summaries = [], [], []
        cold_budget = budget * (SWEEP_COLD_SHARE if workload.has_engine
                                else 1.0)
        hook = hostspeed.sampled_execute if workload.has_engine else None
        while True:
            output, wall, norm = self.timed_pass(workload.run_pass, hook=hook)
            walls.append(wall)
            norms.append(norm)
            pass_summary = workload.summarize(output)
            summaries.append(pass_summary)
            self.runs += pass_summary.runs
            self.check_pass(output)
            if workload.has_engine:
                self.check_sweep(output, cold=True)
                cold_payload = output.payload
            elapsed = time.perf_counter() - window
            if elapsed + statistics.median(walls) / 2 > cold_budget:
                break
        warm_walls, warm_norms = walls, norms
        if workload.has_engine:
            warm_walls, warm_norms = [], []
            while True:
                outputs, wall, norm = self.timed_pass(workload.warm_pass)
                warm_walls.append(wall / len(outputs))
                warm_norms.append(norm / len(outputs))
                for output in outputs:
                    pass_summary = workload.summarize(output)
                    summaries.append(pass_summary)
                    self.runs += pass_summary.runs
                    self.check_warm(output, cold_payload)
                elapsed = time.perf_counter() - window
                if (len(warm_walls) >= MIN_WARM_PASSES and
                        elapsed + statistics.median(warm_walls) / 2 > budget):
                    break
            workload.close()
        elif inline and online is not None:
            self.log.record("online monitor pass matches the timed digest",
                            checks.same_digest(summaries[0].digest,
                                               [online.digest]))
        self.check_digests(summaries)
        rss = peak_rss_mb(with_children=workload.has_engine)
        raw_setups, setups = setup_samples(self.name, self.args.seed,
                                           self.speed)
        first = summaries[0]
        self.samples = {"setup_s": setups, "setup_raw_s": raw_setups}
        for prefix, cold, warm in (("", walls, warm_walls),
                                   ("norm_", norms, warm_norms)):
            self.samples.update({
                prefix + "wall_s": cold,
                prefix + "warm_wall_s": warm,
                prefix + "commits_per_s": [first.commits / t for t in cold],
                prefix + "schedules_per_s": [first.runs / t for t in cold],
            })
        self.samples["host_speed"] = [
            hostspeed.NOMINAL_LOOP_S / sample
            for sample in self.speed.samples
        ]
        self.metrics = {name: statistics.median(values)
                        for name, values in self.samples.items()}
        self.metrics["peak_rss_mb"] = rss

    # -- traced: per-layer metrics -------------------------------------------

    def measure_traced(self):
        workload = self.workload
        recorder = probes.Probes()
        window = time.perf_counter()
        untraced, traced, cold_traced, summaries = [], [], [], []
        executed = quarantines = violations = 0
        hook = hostspeed.sampled_execute if workload.has_engine else None
        while True:
            output, _, norm = self.timed_pass(workload.run_pass, hook=hook)
            untraced.append(norm)
            reference = workload.summarize(output)
            summaries.append(reference)
            self.runs += reference.runs
            self.check_pass(output)
            if workload.has_engine:
                self.check_sweep(output, cold=True)
            probes.install_in_parent(recorder,
                                     pool_latency=workload.has_engine)
            try:
                if workload.has_engine:
                    output, wall, norm = self.timed_pass(
                        workload.run_pass, hook=probes.traced_execute,
                        recorder=recorder)
                    cold_traced.append(wall)
                    warm = workload.warm_pass(reruns=1)
                else:
                    output, _, norm = self.timed_pass(workload.run_pass,
                                                      probes=recorder)
            finally:
                probes.uninstall_in_parent(recorder)
            traced.append(norm)
            pass_summary = workload.summarize(output)
            self.runs += pass_summary.runs
            self.check_pass(output)
            self.log.record("traced pass reproduces the untraced digest",
                            checks.same_digest(reference.digest,
                                               [pass_summary.digest]))
            violations += pass_summary.detail.get("violations", 0)
            if workload.has_engine:
                self.check_sweep(output, cold=True)
                for rerun in warm:
                    self.check_warm(rerun, output.payload)
                executed += output.report.journal["executed"]
                quarantines += len(output.report.failures)
            elapsed = time.perf_counter() - window
            if elapsed + statistics.median(untraced) + statistics.median(
                    traced) > self.args.seconds:
                break
        if workload.has_engine:
            workload.close()
        self.check_digests(summaries)
        passes = len(traced)
        engine = None
        if workload.has_engine:
            engine = {"executed": executed, "quarantines": quarantines,
                      "jobs": suite.SWEEP_JOBS, "cold_walls": cold_traced}
        self.metrics = layers.layer_metrics(
            recorder, passes, traced, untraced, engine=engine,
            violations=violations,
        )
        self.samples = {"trace.untraced_norm_wall_s": untraced,
                        "trace.traced_norm_wall_s": traced}
        path = os.path.join(OUT_DIR, "trace-{}-seed{}.json".format(
            self.name, self.args.seed))
        with open(path, "w") as handle:
            json.dump(recorder.chrome_trace({
                "workload": self.name, "seed": self.args.seed,
                "host": host_fingerprint(), "passes": passes,
            }), handle)
        self.trace_path = path

    # -- report --------------------------------------------------------------

    def report_lines(self, declared):
        tag = "[{}]".format(self.name)
        yield "{} seed {} digest {}".format(tag, self.args.seed, self.digest)
        units = dict(REPORTED_UNITS)
        units.update((entry["name"], entry["unit"]) for entry in declared)
        for name, value in self.metrics.items():
            samples = self.samples.get(name)
            detail = summary.describe(samples) if samples else "n=1"
            shown = ("{:>14d}".format(value) if isinstance(value, int)
                     else "{:>14.6g}".format(value))
            yield "{} {:32s} {} {:8s} {}".format(
                tag, name, shown, units.get(name, ""), detail)
        for name, samples in self.samples.items():
            if name not in self.metrics:
                yield "{} {:32s} {}".format(tag, name,
                                            summary.describe(samples))
        rate = self.failed / self.attempted if self.attempted else 0.0
        yield "{} {:32s} {:>14.6g} {:8s} failed={} attempted={}".format(
            tag, "error_rate", rate, "ratio", self.failed, self.attempted)
        for line in self.log.lines():
            yield "{} {}".format(tag, line)
        if self.args.trace:
            yield "{} trace written to {}".format(
                tag, os.path.relpath(self.trace_path, ROOT))


def setup_only(args, process_start):
    """Child mode: set up once and report the seconds it took."""
    scratch = tempfile.mkdtemp(prefix="setup-", dir=OUT_DIR)
    try:
        suite.build(args.workload, args.seed, scratch).warm_up()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(time.perf_counter() - process_start))
    return 0


def main(argv, process_start):
    """Run the benchmark; returns the process exit status."""
    args = parse_args(argv)
    if args.seed is None:
        args.seed = suite.DEFAULT_SEED
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.setup_only:
        return setup_only(args, process_start)
    declared = load_declared()["per_layer" if args.trace else "end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print("perfbench host: {}".format(host_fingerprint()))
    print("perfbench seed {} (default {}, held-out {})".format(
        args.seed, suite.DEFAULT_SEED, suite.HELD_OUT_SEED))
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    runs = []
    try:
        for name in names:
            run = WorkloadRun(name, args, scratch)
            if args.trace:
                run.measure_traced()
            else:
                run.measure()
            for line in run.report_lines(declared):
                print(line, flush=True)
            runs.append(run)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    metrics = {}
    for run in runs:
        prefix = "" if len(runs) == 1 else run.name + "."
        for entry in declared:
            metrics[prefix + entry["name"]] = {
                "value": run.metrics[entry["name"]], "unit": entry["unit"],
            }
    failed = sum(run.failed for run in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(run.attempted for run in runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1

