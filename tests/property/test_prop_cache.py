"""Property-based tests for the set-associative cache."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import CacheLookup, SetAssocCache

lines = st.integers(min_value=0, max_value=255)


def build_cache():
    return SetAssocCache(size_bytes=4 * 2 * 64, assoc=2)  # 4 sets x 2 ways


@given(st.lists(lines, max_size=200))
@settings(max_examples=60, deadline=None)
def test_occupancy_never_exceeds_geometry(sequence):
    cache = build_cache()
    for line in sequence:
        cache.insert(line)
    per_set = {}
    for line in cache.resident_lines():
        per_set.setdefault(cache.set_index(line), []).append(line)
    for entries in per_set.values():
        assert len(entries) <= cache.assoc
        assert len(set(entries)) == len(entries)


@given(st.lists(lines, max_size=200))
@settings(max_examples=60, deadline=None)
def test_most_recent_insert_always_resident(sequence):
    cache = build_cache()
    for line in sequence:
        cache.insert(line)
        assert cache.contains(line)


@given(st.lists(lines, min_size=1, max_size=100), st.data())
@settings(max_examples=60, deadline=None)
def test_pinned_lines_survive_any_traffic(pin_candidates, data):
    cache = build_cache()
    pinned = []
    for line in pin_candidates[:2]:
        if cache.set_index(line) not in [cache.set_index(p) for p in pinned]:
            cache.insert(line)
            cache.pin(line)
            pinned.append(line)
    traffic = data.draw(st.lists(lines, max_size=150))
    for line in traffic:
        try:
            cache.insert(line)
        except OverflowError:
            pass
    for line in pinned:
        assert cache.contains(line)
        assert cache.is_pinned(line)


@given(st.sets(lines, max_size=40))
@settings(max_examples=60, deadline=None)
def test_can_coreside_matches_insertion_feasibility(footprint):
    cache = build_cache()
    feasible = cache.can_coreside(footprint)
    per_set = {}
    for line in footprint:
        per_set[cache.set_index(line)] = per_set.get(cache.set_index(line), 0) + 1
    assert feasible == all(count <= cache.assoc for count in per_set.values())


@given(st.lists(lines, max_size=120))
@settings(max_examples=60, deadline=None)
def test_invalidate_then_absent(sequence):
    cache = build_cache()
    for line in sequence:
        cache.insert(line)
        cache.invalidate(line)
        assert not cache.contains(line)


class EagerListCache:
    """Reference model: the cache with every set built up front.

    This is the list-of-``OrderedDict`` layout :class:`SetAssocCache`
    used before its sets became lazy; the sparse cache must be
    indistinguishable from it.
    """

    def __init__(self, size_bytes, assoc, line_bytes=64):
        self.assoc = assoc
        self.num_sets = size_bytes // line_bytes // assoc
        self._sets = [OrderedDict() for _ in range(self.num_sets)]

    def contains(self, line):
        return line in self._sets[line % self.num_sets]

    def touch(self, line):
        entries = self._sets[line % self.num_sets]
        if line not in entries:
            return False
        entries.move_to_end(line)
        return True

    def insert(self, line):
        hit = line in self._sets[line % self.num_sets]
        return CacheLookup(hit=hit, evicted=self.install(line))

    def install(self, line):
        entries = self._sets[line % self.num_sets]
        if line in entries:
            entries.move_to_end(line)
            return None
        if len(entries) >= self.assoc:
            victim = next((c for c, pinned in entries.items() if not pinned), None)
            if victim is None:
                raise OverflowError("all ways pinned")
            del entries[victim]
            entries[line] = False
            return victim
        entries[line] = False
        return None

    def pin(self, line):
        entries = self._sets[line % self.num_sets]
        if line not in entries:
            raise KeyError(line)
        entries[line] = True

    def unpin(self, line):
        entries = self._sets[line % self.num_sets]
        if line in entries:
            entries[line] = False

    def is_pinned(self, line):
        return self._sets[line % self.num_sets].get(line, False)

    def invalidate(self, line):
        entries = self._sets[line % self.num_sets]
        if line in entries:
            if entries[line]:
                raise OverflowError("cannot invalidate pinned line")
            del entries[line]

    def can_coreside(self, lines):
        per_set = {}
        for line in set(lines):
            idx = line % self.num_sets
            per_set[idx] = per_set.get(idx, 0) + 1
            if per_set[idx] > self.assoc:
                return False
        return True

    def resident_lines(self):
        lines = []
        for entries in self._sets:
            lines.extend(entries)
        return lines


LINE_OPS = ("install", "insert", "touch", "pin", "unpin", "invalidate",
            "contains", "is_pinned")
cache_ops = st.one_of(
    st.tuples(st.sampled_from(LINE_OPS), lines),
    st.tuples(st.just("can_coreside"), st.lists(lines, max_size=12)),
)


def outcome(cache, op, arg):
    """Comparable result of one call: a value or the exception type."""
    try:
        result = getattr(cache, op)(arg)
    except (OverflowError, KeyError) as exc:
        return type(exc)
    if isinstance(result, CacheLookup):
        return ("lookup", result.hit, result.evicted)
    return result


@given(st.lists(cache_ops, max_size=300), st.sampled_from([(4, 2), (8, 4), (1, 3)]))
@settings(max_examples=80, deadline=None)
def test_sparse_cache_matches_eager_reference(ops, geometry):
    sets, assoc = geometry
    sparse = SetAssocCache(size_bytes=sets * assoc * 64, assoc=assoc)
    eager = EagerListCache(size_bytes=sets * assoc * 64, assoc=assoc)
    for op, arg in ops:
        assert outcome(sparse, op, arg) == outcome(eager, op, arg), (op, arg)
        assert sparse.resident_lines() == eager.resident_lines()
