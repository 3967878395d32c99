"""The benchmark's four workloads and the inputs they derive from a seed.

Each workload turns the benchmark's ``--seed`` into its inputs (the
simulator seeds, the sweep seed and verify ``explore_seed`` values) with
:func:`derive_seed`; the simulator only ever sees those generated
inputs. A workload exposes:

- ``warm_up()`` — one small untimed cell, part of set-up;
- ``run_pass(...)`` — the timed pass, returning an opaque output; the
  inline and verify passes run each unit of their work (a cell, a
  campaign) through ``unit`` so host-speed samples
  (:mod:`perfbench.hostspeed`) bracket every unit;
- ``summarize(output)`` — a :class:`PassSummary` (digest and work
  counts), computed outside the timed region.

See ``README.md`` beside this file for why each workload was chosen.
"""

import dataclasses
import hashlib
import json
import os
import shutil
import tempfile
import time

from repro import api
from repro.analysis import experiments
from repro.common.serialize import canonical_digest
from repro.sim.config import SimConfig
from repro.sim.engine import ExperimentEngine, execute_spec
from repro.workloads import canonical_workload_name

#: The seed a run uses unless told otherwise.
DEFAULT_SEED = 1
#: Kept out of tuning; confirm a claimed gain on it before recording it.
HELD_OUT_SEED = 7919

#: Worker processes of the sweep's pool (this benchmark's host has 2 cores).
SWEEP_JOBS = 2
#: Cached sweep reruns in one warm sample (one rerun takes about 25 ms
#: on a 2-vCPU Xeon).
WARM_RERUNS = 8


def derive_seed(seed, label):
    """A simulator seed for ``label``, fixed by the benchmark seed."""
    text = "{}/{}".format(seed, label).encode("utf-8")
    return int(hashlib.sha256(text).hexdigest()[:8], 16) % 1000000 + 1


@dataclasses.dataclass
class PassSummary:
    """What one pass simulated: its digest and how much work it was."""

    digest: str
    runs: int
    commits: int
    detail: dict = dataclasses.field(default_factory=dict)


def _call(fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _runs_digest(runs):
    return canonical_digest([
        [run.workload_name, run.seed, run.stats.to_dict(),
         run.energy.to_dict()]
        for run in runs
    ])


# -- inline api.simulate workloads ---------------------------------------------


@dataclasses.dataclass(frozen=True)
class Cell:
    """One simulated configuration, run at ``copies`` derived seeds."""

    workload: str
    design: str
    cores: int
    ops: int
    copies: int


class InlineWorkload:
    """Cells simulated one by one through ``api.simulate``."""

    name = None
    cells = ()
    has_engine = False

    def __init__(self, seed):
        self.runs = []
        for cell in self.cells:
            workload = canonical_workload_name(cell.workload)
            config = SimConfig.for_design(cell.design, num_cores=cell.cores)
            for copy in range(cell.copies):
                label = "{}/{}/{}/{}c/{}".format(
                    self.name, cell.workload, cell.design, cell.cores, copy
                )
                self.runs.append(
                    (workload, config, cell.ops, derive_seed(seed, label))
                )

    def warm_up(self):
        workload, config, _, seed = self.runs[0]
        api.simulate(workload, config.replaced(num_cores=4), seeds=seed,
                     ops_per_thread=2)

    def run_pass(self, probes=None, oracle=None, unit=_call):
        results = []
        for workload, config, ops, seed in self.runs:
            if probes is None:
                report = unit(api.simulate, workload, config, seeds=seed,
                              ops_per_thread=ops, oracle=oracle)
            else:
                report = unit(
                    probes.span, "cell", api.simulate, workload, config,
                    seeds=seed, ops_per_thread=ops, oracle=oracle,
                )
            results.append(report.run)
        return results

    def summarize(self, results):
        return PassSummary(
            digest=_runs_digest(results),
            runs=len(results),
            commits=sum(run.stats.total_commits for run in results),
        )


GEN_MIXED = ("gen:footprint=24,mutability=mixed,contention=0.8,"
             "hot_lines=32,private_lines=48")
GEN_OVERSIZED = ("gen:footprint=40,mutability=immutable,contention=0.8,"
                 "hot_lines=64,private_lines=64")


class BaselineHot(InlineWorkload):
    """Requester-wins HTM under heavy contention, at 32 and 128 cores."""

    name = "baseline-hot"
    cells = (
        Cell("genome", "baseline", 32, 4, 3),
        Cell("yada", "baseline", 32, 4, 3),
        Cell("genome", "baseline", 128, 1, 4),
    )


class ClearLocked(InlineWorkload):
    """CLEAR's cacheline-locked retries, plus kernels where it cannot lock."""

    name = "clear-locked"
    cells = (
        Cell("mwobject", "clear", 32, 16, 1),
        Cell("stack", "clear", 32, 16, 1),
        Cell("sorted-list", "clear", 32, 8, 3),
        Cell(GEN_MIXED, "clear", 32, 8, 3),
        Cell(GEN_OVERSIZED, "clear", 32, 8, 1),
    )


# -- the quick experiment sweep -------------------------------------------------


@dataclasses.dataclass
class SweepOutput:
    matrix: dict
    report: object
    payload: dict
    cache_hits: int


class SweepQuick:
    """``run_experiments.py quick`` at one seed: 76 cells through pool,
    cache and journal."""

    name = "sweep-quick"
    has_engine = True

    def __init__(self, seed, scratch):
        self.settings = experiments.ExperimentSettings(
            seeds=(derive_seed(seed, "sweep-quick/0"),)
        )
        self.scratch = scratch
        self.folder = None

    def warm_up(self):
        spec = self.settings.expand_specs()[0]
        execute_spec(dataclasses.replace(spec, ops_per_thread=2))

    def run_pass(self, execute=None):
        """Cold: a fresh cache and journal, every cell simulated."""
        self.close()
        self.folder = tempfile.mkdtemp(prefix="sweep-", dir=self.scratch)
        return self._sweep(execute, os.path.join(self.folder, "journal"))

    def warm_pass(self, reruns=WARM_RERUNS):
        """``reruns`` reruns against the cold pass's cache.

        Like ``run_experiments.py quick`` without ``--journal``: each
        rerun reads the cache only and simulates nothing. Returns every
        rerun's output.
        """
        return [self._sweep(None, None) for _ in range(reruns)]

    def _sweep(self, execute, journal):
        started = time.time()
        engine = ExperimentEngine(
            jobs=SWEEP_JOBS, cache_dir=os.path.join(self.folder, "cache"),
            execute=execute,
        )
        matrix, report = experiments.run_config_matrix(
            self.settings, engine=engine, allow_partial=True, journal=journal,
        )
        payload = {
            "scale": "quick",
            "num_cores": self.settings.num_cores,
            "seeds": list(self.settings.seeds),
        }
        payload.update(experiments.figure_payload(matrix))
        payload["elapsed_seconds"] = time.time() - started
        with open(os.path.join(self.folder, "figures.json"), "w") as handle:
            json.dump(payload, handle, indent=1)
        return SweepOutput(matrix, report, payload, engine.cache.stats.hits)

    def summarize(self, output):
        runs = [
            run
            for per_config in output.matrix.values()
            for aggregate in per_config.values()
            for run in aggregate.runs
        ]
        figures = {k: v for k, v in output.payload.items()
                   if k != "elapsed_seconds"}
        return PassSummary(
            digest=canonical_digest([figures, _runs_digest(runs)]),
            runs=output.report.total,
            commits=sum(run.stats.total_commits for run in runs),
        )

    def close(self):
        if self.folder is not None:
            shutil.rmtree(self.folder, ignore_errors=True)
            self.folder = None


# -- schedule-exploration verification -------------------------------------------


@dataclasses.dataclass(frozen=True)
class Campaign:
    """One ``api.verify`` call."""

    workload: str
    design: str
    cores: int
    explorer: str
    ops: int
    schedules: int = 20
    max_schedules: int = None
    max_depth: int = None


class VerifyFuzz:
    """``api.verify`` campaigns with the online monitor armed."""

    name = "verify-fuzz"
    has_engine = False
    campaigns = (
        Campaign("genome", "clear", 8, "random", 6),
        Campaign("mwobject", "clear", 8, "pct", 6),
        Campaign("intruder", "clear+powertm", 8, "pct", 6),
        Campaign("hashmap", "baseline", 8, "random", 6),
        Campaign("bst", "powertm", 8, "random", 6),
        Campaign("arrayswap", "clear", 3, "exhaustive", 4,
                 max_schedules=60, max_depth=3),
    )

    def __init__(self, seed):
        self.calls = []
        for campaign in self.campaigns:
            label = "verify-fuzz/{}/{}".format(campaign.workload,
                                               campaign.design)
            self.calls.append((
                campaign,
                derive_seed(seed, label),
                derive_seed(seed, label + "/explore"),
            ))

    def warm_up(self):
        api.verify("mwobject", "clear", cores=2, schedules=2, ops_per_thread=2)

    def run_pass(self, probes=None, unit=_call):
        reports = []
        for campaign, seed, explore_seed in self.calls:
            kwargs = dict(
                cores=campaign.cores, seed=seed, explorer=campaign.explorer,
                schedules=campaign.schedules, explore_seed=explore_seed,
                ops_per_thread=campaign.ops,
                max_schedules=campaign.max_schedules,
                max_depth=campaign.max_depth,
            )
            if probes is None:
                report = unit(api.verify, campaign.workload, campaign.design,
                              **kwargs)
            else:
                report = unit(probes.span, "campaign", api.verify,
                              campaign.workload, campaign.design, **kwargs)
            reports.append(report)
        return reports

    def summarize(self, reports):
        digest = canonical_digest([
            [report.to_dict(),
             [[outcome.decisions, outcome.state_sha256, outcome.stats_sha256]
              for outcome in report.outcomes]]
            for report in reports
        ])
        return PassSummary(
            digest=digest,
            runs=sum(report.schedules_explored for report in reports),
            commits=sum(
                outcome.stats.total_commits
                for report in reports for outcome in report.outcomes
                if outcome.stats is not None
            ),
            detail={"violations": sum(len(r.violations) for r in reports)},
        )


WORKLOADS = ("baseline-hot", "clear-locked", "sweep-quick", "verify-fuzz")


def build(name, seed, scratch):
    """The workload called ``name`` with inputs derived from ``seed``."""
    if name == "baseline-hot":
        return BaselineHot(seed)
    if name == "clear-locked":
        return ClearLocked(seed)
    if name == "sweep-quick":
        return SweepQuick(seed, scratch)
    if name == "verify-fuzz":
        return VerifyFuzz(seed)
    raise ValueError("unknown workload {!r}".format(name))
