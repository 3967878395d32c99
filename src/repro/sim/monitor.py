"""Online commit-order serializability monitor (``oracle="online"``).

The shadow-replay oracle (:mod:`repro.sim.oracle`) proves commit-order
serializability by re-executing every committed AR on the host — sound
and complete, but far too slow to leave on under the bench grid or a
large ``repro.verify`` fuzzing campaign. This module provides the same
guarantee at production rate, in the style of RegionTrack
(arXiv 2008.04479) and fast online atomicity monitors: instead of a
full shadow memory replay it tracks *commit epochs* per cacheline and
checks, at each commit, that the transactional happens-before graph
the commit would close stays acyclic.

Algorithm
---------
The monitor keeps one global commit clock (incremented once per
committed AR) and a ``line_epochs`` map from cacheline to the clock
value of the last committed write to it (lines never written stay at
epoch 0). Every conflict-detecting attempt records, on the *first*
read of each line, the line's epoch at that instant into a per-attempt
``monitor_reads`` summary carried on its
:class:`~repro.htm.rwset.ReadWriteSets` (an O(1) dict store on the
already-slow first-access miss path — the same zero-cost-when-absent
pattern as the :class:`~repro.verify.oracles.RetryLedger` hooks).

At commit the monitor checks every recorded read epoch against the
line's *current* epoch. A mismatch means some other AR committed a
write to the line after this AR read it: the committing AR reads
before, but commits after, its writer — a cycle in the commit-order
happens-before graph, i.e. the committed schedule is not serializable
in commit order. The check is

- **sound**: every violation it raises is a real stale read committed
  by the machine (the epoch can only have moved if a conflicting write
  committed in between), and
- **complete** for read-write conflicts: a committed write between
  first read and commit *always* moves the epoch (version-based, not
  value-based, so silent ABA rewrites cannot slip through).
  Write-write ordering needs no per-access check at all — speculative
  stores are buffered and drained in commit order, which is exactly
  the serial order being proved — and the final word-for-word diff
  below catches any divergence a lost buffered write could cause.

The monitor also maintains a word-value map (seeded from the
post-setup snapshot, updated from each committed write buffer, poke
mirror, and fallback store) so the end of the run can diff it against
architectural memory — the same final check the shadow oracle does,
catching out-of-band tampering with no committed-AR fingerprint.

Non-speculative paths:

- **NS-CL** attempts detect no conflicts, but hold cacheline locks on
  their whole footprint, so their recorded epochs cannot move; their
  reads are checked like everyone else's.
- **Fallback** runs under global mutual exclusion with direct
  (unbuffered) stores, so its loads are checked eagerly against the
  value map and its stores are applied to it as they are issued; the
  lines touched get their epoch bump when the region ends.

Event loop: the monitor deliberately has *no per-pop hook* — commit
hooks, first-access recording, and the end-of-run sweep only — so an
armed monitor costs the event loop nothing per operation (the fused
body step of :mod:`repro.sim.executor` writes the first-read epoch
inline). The periodic ``validate_machine`` sampling stays a
shadow/cross-check feature for exactly that reason.

``oracle="cross-check"`` arms both checkers: the monitor defers its
commit-time verdicts, both finalize, and
:func:`cross_check_finalize` raises
:class:`~repro.common.errors.OracleDivergence` whenever one checker
flags a run the other passes.
"""

from repro.common.constants import WORDS_PER_LINE
from repro.common.errors import OracleDivergence, OracleViolation
from repro.sim.oracle import MAX_DIFF_REPORT, CommitRecord, check_leaks
from repro.sim.validate import validate_machine

#: How many trailing commit records a violation report carries.
COMMIT_TAIL = 32


class OnlineMonitor:
    """Incremental serializability checker for one machine run.

    Construct *after* workload setup (the value map seeds from the
    post-setup architectural state) and after the shadow oracle when
    both run (the poke mirror chains onto whatever is already armed).
    Executors call :meth:`record_commit` on every commit and the
    fallback hooks on direct memory traffic; the machine calls
    :meth:`finalize` once the run completes cleanly.

    ``defer_violations=True`` (cross-check mode) collects commit-time
    verdicts instead of raising, so both checkers see the whole run
    and their conclusions can be compared at the end.
    """

    def __init__(self, machine, defer_violations=False):
        self.machine = machine
        self.defer_violations = defer_violations
        #: Global commit clock; epoch N belongs to the N-th commit.
        self.clock = 0
        #: line -> commit epoch of the last committed write (0 = never
        #: written by a committed AR). Read by first-read recording,
        #: both the rwsets hook and the fused body step's inline copy.
        self.line_epochs = {}
        #: word -> value as of the committed prefix (plus pokes and
        #: fallback stores); diffed against memory at finalize.
        self._values = dict(machine.memory.snapshot())
        #: Lines stored to by the current fallback region, per core.
        self._fallback_lines = [set() for _ in range(machine.config.num_cores)]
        self.commits = []
        self.reads_checked = 0
        self.deferred = []
        # Mirror out-of-AR pokes (workload node refills etc.) into the
        # value map. In cross-check mode the shadow oracle already
        # holds the single mirror slot, so fan out to both.
        previous = machine.memory.poke_mirror
        if previous is None:
            machine.memory.poke_mirror = self._note_poke
        else:
            def fanout(word_addr, value, _prev=previous,
                       _mine=self._note_poke):
                _prev(word_addr, value)
                _mine(word_addr, value)
            machine.memory.poke_mirror = fanout

    # -- commit hook ---------------------------------------------------------

    def record_commit(self, core, invocation, mode, rwsets, via_abort=False):
        """Check and fold in one committed AR.

        Called from ``CoreExecutor._commit`` *before* the write buffer
        drains (the monitor needs it intact). ``rwsets`` is None for
        fallback regions, whose stores were already applied eagerly.
        """
        clock = self.clock + 1
        self.clock = clock
        self.commits.append(CommitRecord(
            len(self.commits), core, invocation.region_id, mode, via_abort
        ))
        epochs = self.line_epochs
        if rwsets is None:
            # Fallback: direct stores already landed in the value map;
            # stamp their lines with this region's commit epoch.
            lines = self._fallback_lines[core]
            for line in lines:
                epochs[line] = clock
            lines.clear()
            return
        reads = rwsets.monitor_reads
        if reads:
            self.reads_checked += len(reads)
            stale = []
            for line, seen in reads.items():
                current = epochs.get(line, 0)
                if current != seen:
                    stale.append(
                        {"line": line, "read_epoch": seen,
                         "current_epoch": current,
                         "intervening_commit":
                             self.commits[current - 1].to_dict()
                             if current else None}
                    )
            if stale:
                self._violation(
                    "stale read committed: core {} read {} line(s) that a "
                    "later-committing AR overwrote before this AR committed "
                    "— the committed schedule has a happens-before cycle "
                    "and is not serializable in commit order".format(
                        core, len(stale)
                    ),
                    details={
                        "stale_reads": stale[:MAX_DIFF_REPORT],
                        "commit": self.commits[-1].to_dict(),
                        "commits": [
                            record.to_dict()
                            for record in self.commits[-COMMIT_TAIL:]
                        ],
                    },
                )
        for line in rwsets.write_set:
            epochs[line] = clock
        values = self._values
        for word_addr, value in rwsets._write_buffer.items():
            values[word_addr] = value

    # -- fallback hooks ------------------------------------------------------

    def note_fallback_store(self, core, word_addr, value):
        """A fallback region stored directly to architectural memory."""
        self._values[word_addr] = value
        self._fallback_lines[core].add(word_addr // WORDS_PER_LINE)

    def note_fallback_load(self, core, word_addr, value):
        """Check a fallback load against the committed-prefix values.

        Fallback runs under mutual exclusion after every committed
        write has drained, so architectural memory must equal the
        value map word for word; a mismatch means some earlier commit
        was not serial (or memory was tampered with out of band).
        """
        expected = self._values.get(word_addr, 0)
        if value != expected:
            self._violation(
                "fallback read of word {} observed {} but the committed "
                "prefix wrote {}: an earlier commit was not serializable "
                "in commit order".format(word_addr, value, expected),
                details={
                    "addr": word_addr,
                    "actual": value,
                    "expected": expected,
                    "core": core,
                    "commits": [
                        record.to_dict()
                        for record in self.commits[-COMMIT_TAIL:]
                    ],
                },
            )

    def note_fallback_abort(self, core):
        """A fallback region aborted (MAX_OPS bound): stores persist.

        The fallback path is not a transaction — its direct stores are
        already architectural — so the lines it touched still get an
        epoch stamp even though no commit is recorded.
        """
        lines = self._fallback_lines[core]
        if lines:
            clock = self.clock + 1
            self.clock = clock
            epochs = self.line_epochs
            for line in lines:
                epochs[line] = clock
            lines.clear()

    def _note_poke(self, word_addr, value):
        # Out-of-AR initialization writes move no epochs: they are
        # thread-local by construction (they precede the AR publishing
        # them), so no live first-read snapshot can cover them.
        self._values[word_addr] = value

    # -- end of run ----------------------------------------------------------

    def finalize(self):
        """Leak checks + invariants + final value diff; raises on violation.

        In defer mode (cross-check) any commit-time verdicts collected
        during the run are raised here instead, after the checks both
        checkers share.
        """
        machine = self.machine
        check_leaks(machine)
        validate_machine(machine)
        self._check_final_state()
        if self.deferred:
            raise self.deferred[0]
        machine.memory.poke_mirror = None

    def _check_final_state(self):
        memory_words = self.machine.memory.snapshot()
        monitor_words = self._values
        diffs = []
        for word_addr in sorted(set(memory_words) | set(monitor_words)):
            actual = memory_words.get(word_addr, 0)
            tracked = monitor_words.get(word_addr, 0)
            if actual != tracked:
                diffs.append(
                    {"addr": word_addr, "actual": actual, "tracked": tracked}
                )
                if len(diffs) > MAX_DIFF_REPORT:
                    break
        if diffs:
            self._violation(
                "online monitor value map diverges from architectural "
                "memory at {}{} address(es): some committed write was lost, "
                "reordered, or memory was modified outside any committed "
                "AR".format(
                    len(diffs), "+" if len(diffs) > MAX_DIFF_REPORT else ""
                ),
                details={
                    "diffs": diffs[:MAX_DIFF_REPORT],
                    "commits": [
                        record.to_dict()
                        for record in self.commits[-COMMIT_TAIL:]
                    ],
                },
                defer=False,
            )

    # -- violation plumbing --------------------------------------------------

    def _violation(self, message, details, defer=True):
        error = OracleViolation(message, details=details)
        if defer and self.defer_violations:
            self.deferred.append(error)
            return
        raise error


def cross_check_finalize(oracle, monitor):
    """Finalize both checkers and compare their verdicts.

    Used under ``oracle="cross-check"``: the shadow oracle and the
    online monitor each finalize (leak checks, invariants, and their
    respective serializability sweeps). If exactly one of them flags
    the run, the *checkers* disagree and :class:`OracleDivergence` is
    raised; if both flag it the shadow verdict propagates (with the
    online verdict chained in its details).
    """
    shadow_error = None
    try:
        oracle.finalize()
    except OracleViolation as exc:
        shadow_error = exc
    online_error = None
    try:
        monitor.finalize()
    except OracleViolation as exc:
        online_error = exc
    if (shadow_error is None) != (online_error is None):
        flagging, silent = (
            ("shadow", "online") if shadow_error is not None
            else ("online", "shadow")
        )
        error = shadow_error if shadow_error is not None else online_error
        raise OracleDivergence(
            "serializability checkers diverged: the {} checker flagged the "
            "run but the {} checker passed it".format(flagging, silent),
            details={
                "flagging_checker": flagging,
                "violation": str(error),
                "violation_details": dict(error.details),
            },
        )
    if shadow_error is not None:
        shadow_error.details = dict(shadow_error.details)
        shadow_error.details["online_verdict"] = str(online_error)
        raise shadow_error


def finalize_checkers(machine):
    """End-of-run dispatch over the armed checker combination.

    Called by both event loops when a run completes cleanly; a no-op
    when nothing is armed, one checker's ``finalize`` when one is, and
    the cross-check comparison when both are.
    """
    oracle = machine.oracle
    monitor = machine.monitor
    if oracle is not None and monitor is not None:
        cross_check_finalize(oracle, monitor)
    elif oracle is not None:
        oracle.finalize()
    elif monitor is not None:
        monitor.finalize()
