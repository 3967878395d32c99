"""Machine-global reverse sharer index for O(sharers) conflict probes.

Hardware HTMs do not interrogate every core on a conflict check: the
directory already knows, per line, which caches hold it, and only those
sharers see the coherence request. This module is the software analogue
— a map ``line -> (reader core-set, writer core-set)`` maintained
incrementally at the exact points transactional membership changes:

- ``ReadWriteSets.record_read``/``record_write`` add the owning core to
  the line's reader/writer set (the rwsets hold an index reference for
  the duration of the attempt);
- abort, commit, and the zombie transition (``pending_abort`` set by a
  remote conflict or a fallback sweep) drop every line the core
  touched, via ``ReadWriteSets.detach_index``;
- cores that are invisible to conflict detection never register at all:
  NS-CL attempts (lock-protected, not speculative in the arbiter's
  sense) get unindexed rwsets, and a failed-discovery transition always
  passes through the zombie path first, so a doomed or failed core has
  no residue here.

The invariant, checked by ``validate_machine``: the index equals the
union of read/write sets over exactly the conflict-visible cores —
phase BODY, speculative mode other than failed discovery, live rwsets,
no pending abort. ``ConflictArbiter.resolve_line`` over this index is
then equivalent to ``ConflictArbiter.resolve`` over a
:class:`~repro.htm.arbiter.TxPeerView` of each such core, by
construction (the exhaustive reference check in the test suite).
"""


class LineSharers:
    """Sharer vector for one cacheline: which cores track it, and how."""

    __slots__ = ("readers", "writers")

    def __init__(self):
        self.readers = set()
        self.writers = set()

    def __repr__(self):
        return "LineSharers(readers={}, writers={})".format(
            sorted(self.readers), sorted(self.writers)
        )


class SharerIndex:
    """line -> :class:`LineSharers` over all conflict-visible attempts."""

    __slots__ = ("_lines",)

    def __init__(self):
        self._lines = {}

    def get(self, line):
        """The sharer vector for ``line``, or None if untracked."""
        return self._lines.get(line)

    def add_reader(self, core, line):
        entry = self._lines.get(line)
        if entry is None:
            entry = LineSharers()
            self._lines[line] = entry
        entry.readers.add(core)

    def add_writer(self, core, line):
        entry = self._lines.get(line)
        if entry is None:
            entry = LineSharers()
            self._lines[line] = entry
        entry.writers.add(core)

    def drop_core(self, core, read_lines, write_lines):
        """Remove every registration ``core`` made for the given lines.

        Called with the attempt's read/write sets when the core leaves
        conflict detection (abort, commit, zombie). Entries left with no
        sharers are deleted so the index never outgrows the union of
        live footprints.
        """
        lines = self._lines
        for line in read_lines:
            entry = lines.get(line)
            if entry is not None:
                entry.readers.discard(core)
                if not entry.readers and not entry.writers:
                    del lines[line]
        for line in write_lines:
            entry = lines.get(line)
            if entry is not None:
                entry.writers.discard(core)
                if not entry.readers and not entry.writers:
                    del lines[line]

    def snapshot(self):
        """``{line: (frozen readers, frozen writers)}`` for validation."""
        return {
            line: (frozenset(entry.readers), frozenset(entry.writers))
            for line, entry in self._lines.items()
        }

    def __len__(self):
        return len(self._lines)

    def __repr__(self):
        return "SharerIndex({} lines)".format(len(self._lines))
