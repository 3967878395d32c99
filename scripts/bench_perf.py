#!/usr/bin/env python3
"""Measure simulator throughput on a pinned cell set; track BENCH_PERF.json.

The perf harness the hot-path work is graded against. It runs a fixed,
representative set of cells — one data-structure benchmark (hashmap),
one STAMP application (genome), and one high-contention pattern
(mwobject), each under the baseline (B) and CLEAR (C) configurations at
8 and 32 cores — and reports wall-seconds, event-loop pops
(``machine.event_count``), and events/second (best-of ``--reps``, so
one noisy rep cannot sandbag a cell).

Modes:

- default: measure the pinned cells and print a table. ``--json OUT``
  also dumps the measurement in the BENCH_PERF cell schema.
- ``--compare``: additionally print per-cell speedup against the last
  trajectory point recorded in BENCH_PERF.json.
- ``--record LABEL``: append a new trajectory point to BENCH_PERF.json,
  using the current measurement as "after" and ``--before FILE`` (a
  prior ``--json`` dump) as "before".
- ``--oracle MODE``: arm a serializability checker in every timed cell
  (``online`` measures the monitor's overhead against an oracle-off
  run of the same cells — event counts are unchanged by checking, so
  the speedup math stays valid).
- ``--scale micro`` (alias ``--micro``): shrink every cell to 4 cores /
  4 ops so CI can smoke the harness in seconds. Micro numbers are for
  plumbing checks only and are refused by ``--record``.
- ``--trace OUT.json`` / ``--trace-report OUT.txt``: run one extra,
  untimed traced rep of the headline cell and export it (Chrome/
  Perfetto trace and forensic abort report). The shared engine flags
  (``--jobs``/``--cache-dir``/``--no-cache``) apply to this auxiliary
  rep only — timed reps always run serially in-process, uncached, so
  wall-clock numbers stay meaningful.

Simulated results are deterministic, so ``events`` must match across
reps and across code changes; wall time is the only thing that moves.
"""

import json
import os
import sys
import time

from repro import api, cli
from repro.cli import argparse
from repro.htm.design import design_name
from repro.sim.config import SimConfig
from repro.sim.machine import build_machine
from repro.workloads import make_workload

BENCH_PERF_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_PERF.json")

#: (workload, config letter, num_cores) — the pinned measurement cells.
CELLS = tuple(
    (workload, letter, cores)
    for workload in ("hashmap", "genome", "mwobject")
    for letter in ("B", "C")
    for cores in (8, 32)
)

OPS_PER_THREAD = 16
SEED = 1
HEADLINE_CELL = "genome/B/32c"

#: Sentinel for a bare ``--compare`` (diff against the newest point).
LAST_POINT = "@last"


def find_trajectory_point(book, point):
    """The trajectory point named ``point`` (or the newest for @last)."""
    trajectory = book.get("trajectory") or []
    if not trajectory:
        return None
    if point == LAST_POINT:
        return trajectory[-1]
    for entry in trajectory:
        if entry["label"] == point:
            return entry
    raise SystemExit(
        "no trajectory point {!r} in BENCH_PERF.json (have: {})".format(
            point, ", ".join(entry["label"] for entry in trajectory)
        )
    )


def cell_name(workload, letter, cores):
    return "{}/{}/{}c".format(workload, letter, cores)


def measure_cell(workload, letter, cores, ops_per_thread, reps,
                 oracle=None):
    """Best-of-``reps`` wall time for one cell; returns the cell dict."""
    config = SimConfig.for_design(
        design_name(letter), num_cores=cores,
        **({"oracle": oracle} if oracle is not None else {})
    )
    best_wall = None
    events = commits = aborts = None
    for _ in range(reps):
        machine = build_machine(
            config, make_workload(workload, ops_per_thread=ops_per_thread),
            seed=SEED,
        )
        started = time.perf_counter()
        stats = machine.run()
        wall = time.perf_counter() - started
        rep_events = machine.event_count
        if events is not None and rep_events != events:
            raise AssertionError(
                "non-deterministic event count for {}: {} vs {}".format(
                    cell_name(workload, letter, cores), rep_events, events
                )
            )
        events = rep_events
        commits = sum(stats.commits_by_mode.values())
        aborts = sum(stats.aborts_by_reason.values())
        if best_wall is None or wall < best_wall:
            best_wall = wall
    return {
        "workload": workload,
        "config": letter,
        "num_cores": cores,
        "ops_per_thread": ops_per_thread,
        "seed": SEED,
        **({"oracle": oracle} if oracle is not None else {}),
        "events": events,
        "wall_seconds": round(best_wall, 4),
        "events_per_second": round(events / best_wall, 1),
        "commits": commits,
        "aborts": aborts,
    }


def run_measurement(reps, ops_per_thread, cores_override=None, progress=print,
                    oracle=None):
    cells = {}
    for workload, letter, cores in CELLS:
        if cores_override is not None:
            cores = cores_override
        name = cell_name(workload, letter, cores)
        if name in cells:  # cores_override collapses the 8/32 pair
            continue
        cell = measure_cell(workload, letter, cores, ops_per_thread, reps,
                            oracle=oracle)
        cells[name] = cell
        progress(
            "{:18s} {:>9,} events  {:7.3f}s  {:>10,.1f} ev/s".format(
                name, cell["events"], cell["wall_seconds"],
                cell["events_per_second"],
            )
        )
    return {"cells": cells}


def speedups(before_cells, after_cells):
    """Per-cell events/sec ratio for cells present in both measurements."""
    ratios = {}
    for name, after in sorted(after_cells.items()):
        before = before_cells.get(name)
        if before is None:
            continue
        if before.get("events") != after.get("events"):
            raise AssertionError(
                "cell {} simulated differently before vs after "
                "({} vs {} events) — speedup would be meaningless".format(
                    name, before.get("events"), after.get("events")
                )
            )
        ratios[name] = round(
            after["events_per_second"] / before["events_per_second"], 2
        )
    return ratios


def record_trajectory(path, label, before, after, date):
    """Append a trajectory point to BENCH_PERF.json (creating it if new)."""
    if os.path.exists(path):
        with open(path) as handle:
            book = json.load(handle)
    else:
        book = {
            "schema_version": 1,
            "description": (
                "Throughput trajectory of the simulator hot path. Each "
                "trajectory point pins before/after measurements of the "
                "same deterministic cells (best-of-N wall time, identical "
                "event counts) around one performance PR."
            ),
            "headline_cell": HEADLINE_CELL,
            "cell_schema": {
                "events": "event-loop pops (machine.event_count; deterministic)",
                "wall_seconds": "best-of-reps wall time of Machine.run",
                "events_per_second": "events / wall_seconds",
            },
            "trajectory": [],
        }
    ratios = speedups(before["cells"], after["cells"])
    point = {
        "label": label,
        "date": date,
        "before": before["cells"],
        "after": after["cells"],
        "speedup": ratios,
        "headline_speedup": ratios.get(book.get("headline_cell", HEADLINE_CELL)),
    }
    book["trajectory"] = [
        existing for existing in book["trajectory"]
        if existing["label"] != label
    ] + [point]
    with open(path, "w") as handle:
        json.dump(book, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return point


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--reps", type=int, default=3, metavar="N",
        help="repetitions per cell; best wall time wins (default: 3)",
    )
    cli.add_scale_flag(parser, ("full", "micro"), default="full")
    parser.add_argument(
        "--micro", action="store_true",
        help="CI smoke mode: 4 cores, 4 ops/thread (alias for "
             "--scale micro; not recordable)",
    )
    cli.add_engine_flags(parser)
    cli.add_trace_flags(parser)
    parser.add_argument(
        "--json", metavar="OUT", default=None,
        help="dump the measurement as JSON (cell schema of BENCH_PERF.json)",
    )
    cli.add_oracle_flag(parser)
    parser.add_argument(
        "--compare", nargs="?", const=LAST_POINT, default=None,
        metavar="POINT",
        help="print speedups vs a trajectory point in BENCH_PERF.json "
             "(by label; bare --compare means the latest point)",
    )
    parser.add_argument(
        "--record", metavar="LABEL", default=None,
        help="append a trajectory point to BENCH_PERF.json (needs --before)",
    )
    parser.add_argument(
        "--before", metavar="FILE", default=None,
        help="prior --json dump used as the 'before' half of --record",
    )
    parser.add_argument(
        "--date", metavar="YYYY-MM-DD", default=None,
        help="date stamped on a --record point (default: today)",
    )
    parser.add_argument(
        "--bench-file", metavar="FILE", default=BENCH_PERF_PATH,
        help="trajectory book path (default: repo BENCH_PERF.json)",
    )
    args = parser.parse_args(argv)
    cli.validate_engine_flags(parser, args)
    if args.micro:
        args.scale = "micro"
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    if args.record and not args.before:
        parser.error("--record requires --before FILE")
    if args.record and args.scale == "micro":
        parser.error("micro-scale measurements are not recordable")
    return args


def export_trace(args, micro):
    """One extra, untimed traced rep of the headline cell, exported.

    Goes through :func:`repro.api.simulate` with an engine built from
    the shared flags, so ``--jobs``/``--cache-dir`` behave exactly as in
    ``run_experiments.py``; wall-time measurement above is unaffected.
    """
    workload, letter, cores = "genome", "B", (4 if micro else 32)
    ops = 4 if micro else OPS_PER_THREAD
    report = api.simulate(
        workload, SimConfig.for_design(design_name(letter), num_cores=cores),
        seeds=SEED, ops_per_thread=ops, trace=True,
        engine=cli.build_engine(args),
    )
    print("traced {} seed={} ({} events)".format(
        cell_name(workload, letter, cores), SEED, len(report.trace)))
    if args.trace:
        report.write_chrome_trace(args.trace)
        print("wrote Chrome trace {} (load in Perfetto / chrome://tracing)"
              .format(args.trace))
    if args.trace_report:
        report.write_forensic_report(args.trace_report)
        print("wrote forensic report {}".format(args.trace_report))


def main(argv=None):
    args = parse_args(argv if argv is not None else sys.argv[1:])
    micro = args.scale == "micro"
    ops = 4 if micro else OPS_PER_THREAD
    cores = 4 if micro else None
    started = time.time()
    measurement = run_measurement(args.reps, ops, cores_override=cores,
                                  oracle=args.oracle)
    print("measured {} cell(s) in {:.1f}s (best of {} rep(s){})"
          .format(len(measurement["cells"]), time.time() - started,
                  args.reps,
                  ", oracle={}".format(args.oracle) if args.oracle else ""))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(measurement, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print("wrote {}".format(args.json))
    if args.compare is not None:
        with open(args.bench_file) as handle:
            book = json.load(handle)
        point = find_trajectory_point(book, args.compare)
        if point is None:
            print("no trajectory points in {}".format(args.bench_file))
        else:
            ratios = speedups(point["after"], measurement["cells"])
            print("vs trajectory point {!r}:".format(point["label"]))
            for name, ratio in sorted(ratios.items()):
                print("  {:18s} {:5.2f}x".format(name, ratio))
    if args.record:
        with open(args.before) as handle:
            before = json.load(handle)
        date = args.date or time.strftime("%Y-%m-%d")
        point = record_trajectory(
            args.bench_file, args.record, before, measurement, date)
        print("recorded {!r}: headline ({}) speedup {}x".format(
            point["label"], HEADLINE_CELL, point["headline_speedup"]))
    if cli.wants_trace(args):
        export_trace(args, micro)


if __name__ == "__main__":
    main()
