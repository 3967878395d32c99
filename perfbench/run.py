#!/usr/bin/env python3
"""Run the repository benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

``--trace 0`` (the default) measures the end-to-end metrics with
tracing off; ``--trace 1`` pairs untraced and traced passes and prints
the per-layer split, writing the traced spans to
``.perfbench_out/trace-<workload>-seed<N>.json`` (Chrome trace-event
JSON; load it in Perfetto). Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit status is 0 only
when every correctness check passed.

The metric names and units are the ones declared in ``BENCHMARK.json``
at the checkout root. See ``perfbench/README.md`` for the workloads.
"""

import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    """Put the simulator's source on the path, or exit non-zero."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.stderr.write(
            "perfbench: no simulator source at src/repro under {}; run "
            "from the root of a full checkout\n".format(ROOT)
        )
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench import bench

    return bench.main(sys.argv[1:], PROCESS_START)


if __name__ == "__main__":
    sys.exit(main())
