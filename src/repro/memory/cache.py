"""Set-associative cache model with LRU replacement and line pinning.

Caches track only cacheline ids (tags), not data — data lives in
:class:`repro.memory.shared.SharedMemory`. Pinning models cacheline
locking residency: a locked line may not be evicted, and a cache set
whose every way is pinned cannot accept a new line. The same mechanism
answers the discovery-phase assessment *"can we simultaneously lock the
cachelines accessed within the AR?"* (paper §4.1, item 2).
"""

from collections import OrderedDict, defaultdict

from repro.common.errors import ConfigurationError


class CacheLookup:
    """Result of a cache probe."""

    __slots__ = ("hit", "evicted")

    def __init__(self, hit, evicted=None):
        self.hit = hit
        self.evicted = evicted

    def __repr__(self):
        return "CacheLookup(hit={}, evicted={})".format(self.hit, self.evicted)


class SetAssocCache:
    """An LRU set-associative cache over cacheline ids.

    Sets are built on first use, so a new cache holds none and
    construction costs O(1) rather than O(num_sets).

    Parameters
    ----------
    size_bytes:
        Total capacity in bytes.
    assoc:
        Number of ways per set.
    line_bytes:
        Cacheline size in bytes (64 in the modeled machine).
    """

    def __init__(self, size_bytes, assoc, line_bytes=64):
        num_lines = size_bytes // line_bytes
        if num_lines <= 0 or assoc <= 0:
            raise ConfigurationError("cache must hold at least one line")
        if num_lines % assoc != 0:
            raise ConfigurationError(
                "cache size {} with associativity {} does not divide evenly".format(
                    size_bytes, assoc
                )
            )
        self.assoc = assoc
        self.num_sets = num_lines // assoc
        # Each set is an OrderedDict line -> pinned flag; insertion order is
        # LRU order (least recently used first). A run touches a small
        # share of the sets, so we keep them in a sparse dict that builds
        # a set on its first subscript (the fused body step relies on it).
        self._sets = defaultdict(OrderedDict)

    def set_index(self, line):
        """Cache set an address maps to."""
        return line % self.num_sets

    def contains(self, line):
        """True if the line is currently resident."""
        return line in self._sets[line % self.num_sets]

    def touch(self, line):
        """Mark the line most recently used. Returns True if resident."""
        entries = self._sets[self.set_index(line)]
        if line not in entries:
            return False
        entries.move_to_end(line)
        return True

    def insert(self, line):
        """Install a line, evicting the LRU unpinned victim if needed.

        Returns a :class:`CacheLookup` whose ``hit`` reflects prior
        residency and whose ``evicted`` is the victim line id or None.
        Raises :class:`OverflowError` if the set is full of pinned lines.
        """
        hit = line in self._sets[line % self.num_sets]
        return CacheLookup(hit=hit, evicted=self.install(line))

    def install(self, line):
        """Allocation-free :meth:`insert`: returns the victim line or None.

        The per-access fill path only needs the eviction victim, so this
        skips the :class:`CacheLookup` construction (three per memory
        access otherwise).
        """
        entries = self._sets[line % self.num_sets]
        if line in entries:
            entries.move_to_end(line)
            return None
        if len(entries) >= self.assoc:
            victim = self._find_victim(entries)
            if victim is None:
                raise OverflowError(
                    "cache set {} has all ways pinned".format(line % self.num_sets)
                )
            del entries[victim]
            entries[line] = False
            return victim
        entries[line] = False
        return None

    @staticmethod
    def _find_victim(entries):
        for candidate, pinned in entries.items():
            if not pinned:
                return candidate
        return None

    def pin(self, line):
        """Pin a resident line so it cannot be evicted (cacheline lock)."""
        entries = self._sets[self.set_index(line)]
        if line not in entries:
            raise KeyError("cannot pin non-resident line {}".format(line))
        entries[line] = True

    def unpin(self, line):
        """Release a pin. Missing lines are ignored (already evicted)."""
        entries = self._sets[self.set_index(line)]
        if line in entries:
            entries[line] = False

    def is_pinned(self, line):
        """True if the line is resident and pinned."""
        entries = self._sets[self.set_index(line)]
        return entries.get(line, False)

    def invalidate(self, line):
        """Drop a line (remote invalidation). Pinned lines cannot be dropped."""
        entries = self._sets[self.set_index(line)]
        if line in entries:
            if entries[line]:
                raise OverflowError("cannot invalidate pinned (locked) line")
            del entries[line]

    def can_coreside(self, lines):
        """True if all given lines could be resident simultaneously.

        This is the discovery lockability test: for every cache set, the
        number of distinct lines (from ``lines``) mapping to it must not
        exceed the associativity. Duplicate lines are collapsed.
        """
        per_set = {}
        for line in set(lines):
            idx = self.set_index(line)
            per_set[idx] = per_set.get(idx, 0) + 1
            if per_set[idx] > self.assoc:
                return False
        return True

    def resident_lines(self):
        """All resident line ids, in set-index order then LRU order.

        Walks only the sets built so far, so the cost is O(touched sets).
        """
        lines = []
        for _, entries in sorted(self._sets.items()):
            lines.extend(entries)
        return lines
