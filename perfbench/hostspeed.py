"""Host-speed normalization for timings taken on a shared, noisy host.

On a machine shared with other tenants the same cell can take half as
long again for seconds at a time, and CPU time slows with wall time, so
neither can separate a code change from a busy neighbour.
:class:`HostSpeed` runs a fixed pure-Python reference loop (dict
lookups, slotted-attribute updates and a heap over a working set that
spills out of the core's private caches, as the simulator's does)
before and after every unit of measured work, and rescales each unit to
the speed at which this host runs that loop when quiet.

A normalized time reads in seconds: it equals the wall time whenever
the reference loop runs at :data:`NOMINAL_LOOP_S`. The loop is the
benchmark's own code, so a change to the simulator moves normalized
times exactly as it moves wall times. The simulator slows a little less
than the loop when neighbours are busy; the rescaling is damped by
:data:`SENSITIVITY` accordingly.
"""

import glob
import heapq
import os
import statistics
import time

#: Reference-loop seconds on the benchmark's 2-core host when quiet
#: (median of 60 loops, Python 3.11).
NOMINAL_LOOP_S = 0.0055
#: Loop iterations per reference unit (about NOMINAL_LOOP_S).
LOOP_ITERATIONS = 6000
#: Objects in the loop's working set (about 24 MB of the process's RSS).
TABLE_NODES = 131072
#: How far the simulator's time follows the loop's: the slope of log
#: cell time on log loop time (loops timed before and after each cell),
#: 0.76 over 340 clear-locked and genome cells on a shared 2-vCPU Xeon
#: host, rounded up because loop timings are noisy and so flatten it.
SENSITIVITY = 0.8
#: Unsampled loops run first.
WARM_UP_LOOPS = 3
#: Loops in the block between two units of work.
BLOCK_LOOPS = 3
#: Loops a sweep worker times before each cell.
WORKER_UNITS = 1


class _Node:
    __slots__ = ("value", "hits", "next")

    def __init__(self, value):
        self.value = value
        self.hits = 0
        self.next = None


_table = {}
_table_rss = {}


def _resident_bytes():
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def table_mb():
    """Resident MB the loop's working set added to this process."""
    return _table_rss.get("bytes", 0) / 2.0 ** 20


def _reference_table():
    """The loop's working set, built once per process on first use.

    Far larger than the 2 MB L2 of this host's cores, so the loop waits
    on the shared last-level cache the way the simulator's dicts and
    objects do; a loop that fits in L1 tracked the simulator's slowdowns
    about half as well.
    """
    if not _table:
        before = _resident_bytes()
        nodes = [_Node(index) for index in range(TABLE_NODES)]
        for index, node in enumerate(nodes):
            node.next = nodes[(index * 40503) % TABLE_NODES]
            _table[index * 7] = node
        _table_rss["bytes"] = _resident_bytes() - before
    return _table


def reference_loop(iterations=LOOP_ITERATIONS):
    """Fixed interpreter work; returns a checksum so nothing is skipped."""
    table = _reference_table()
    heap = []
    total = 0
    key = 1
    for index in range(iterations):
        key = (key * 1103515245 + 12345) & 0x7FFFFFFF
        node = table[(key % TABLE_NODES) * 7]
        node.hits += 1
        total += node.next.value & 3
        heapq.heappush(heap, (key & 255, index))
        if len(heap) > 64:
            heapq.heappop(heap)
    return total


class HostSpeed:
    """Reference-loop samples taken around each unit of measured work.

    A pass is split into units (an inline cell, a verify campaign, a
    whole sweep); each unit runs between two blocks of reference loops,
    consecutive units sharing the block between them, and is rescaled
    by the loops on either side of it. A host that changes speed in the
    middle of a pass therefore rescales only the units it touched.
    """

    def __init__(self, clock=time.perf_counter, loop=reference_loop):
        self.clock = clock
        self.loop = loop
        self.samples = []
        #: The block of samples that ended the last unit, if the next
        #: unit follows it directly.
        self._block = None
        #: ``[wall, normalized]`` of the pass being measured.
        self._totals = None
        # The interpreter specializes a loop's bytecode over its first
        # runs; sample only the warmed loop.
        for _ in range(WARM_UP_LOOPS):
            loop()

    def tick(self):
        """Run a block of reference loops; record and return their times."""
        block = []
        for _ in range(BLOCK_LOOPS):
            start = self.clock()
            self.loop()
            block.append(self.clock() - start)
        self.samples.extend(block)
        self._block = block
        return block

    @staticmethod
    def scale(loop_samples):
        """The rescaling for a unit timed among these loop samples."""
        speed = NOMINAL_LOOP_S / statistics.mean(loop_samples)
        return speed ** SENSITIVITY

    def unit(self, fn, *args, worker_dir=None, jobs=1, **kwargs):
        """Run one unit of work between blocks of reference loops.

        Adds its wall time (loops excluded) and its normalized time to
        the pass being measured and returns what ``fn`` returns. With
        ``worker_dir``, ``fn`` fans out to ``jobs`` worker processes
        that sample the loop before each cell (:func:`sampled_execute`);
        those samples join the unit's and their time, spread over the
        workers, is taken off its wall time.
        """
        before = self._block if self._block is not None else self.tick()
        start = self.clock()
        result = fn(*args, **kwargs)
        wall = self.clock() - start
        loops = before + self.tick()
        if worker_dir is not None:
            worker_samples = collect_worker_samples(worker_dir)
            self.samples.extend(worker_samples)
            loops += worker_samples
            wall -= sum(worker_samples) / jobs
        if self._totals is not None:
            self._totals[0] += wall
            self._totals[1] += wall * self.scale(loops)
        return result

    def measure(self, fn, *args, split=False, **kwargs):
        """Time one pass; returns ``(result, wall, normalized)``.

        With ``split``, ``fn`` is called with ``unit=`` :meth:`unit` and
        runs each unit of its work through it; otherwise the whole pass
        is one unit (``worker_dir`` and ``jobs`` go to :meth:`unit`).
        The pass starts with a fresh block of loops.
        """
        self._block = None
        self._totals = [0.0, 0.0]
        try:
            if split:
                result = fn(*args, unit=self.unit, **kwargs)
            else:
                result = self.unit(fn, *args, **kwargs)
            wall, normalized = self._totals
        finally:
            self._totals = None
            self._block = None
        return result, wall, normalized


def sample_in_worker(out_dir, units=WORKER_UNITS, clock=time.perf_counter):
    """Time ``units`` reference loops here; append them to a file."""
    samples = []
    for _ in range(units):
        start = clock()
        reference_loop()
        samples.append(clock() - start)
    path = os.path.join(out_dir, "speed-{}.txt".format(os.getpid()))
    with open(path, "a") as handle:
        handle.writelines("{!r}\n".format(sample) for sample in samples)


def sampled_execute(spec, out_dir):
    """Engine ``execute=`` hook: a reference sample, then the cell.

    Module-level (bound with ``functools.partial``) so the pool can
    pickle it; the result is exactly what ``execute_spec`` returns.
    """
    from repro.sim.engine import execute_spec

    sample_in_worker(out_dir)
    return execute_spec(spec)


def collect_worker_samples(out_dir):
    """Every sample the workers wrote under ``out_dir``; files removed."""
    samples = []
    for path in sorted(glob.glob(os.path.join(out_dir, "speed-*.txt"))):
        with open(path) as handle:
            samples.extend(float(line) for line in handle if line.strip())
        os.remove(path)
    return samples
