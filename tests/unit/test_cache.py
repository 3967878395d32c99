"""Unit tests for the set-associative cache model."""

import pytest

from repro.common.errors import ConfigurationError
from repro.memory.cache import SetAssocCache


def tiny_cache(sets=2, assoc=2):
    """A cache with the requested geometry (line = 64 B)."""
    return SetAssocCache(size_bytes=sets * assoc * 64, assoc=assoc)


class TestGeometry:
    def test_set_count(self):
        cache = SetAssocCache(48 * 1024, 12)
        assert cache.num_sets == 64

    def test_rejects_indivisible_geometry(self):
        with pytest.raises(ConfigurationError):
            SetAssocCache(64 * 3, 2)

    def test_rejects_empty_cache(self):
        with pytest.raises(ConfigurationError):
            SetAssocCache(0, 1)

    def test_set_index_is_modulo(self):
        cache = tiny_cache(sets=2)
        assert cache.set_index(0) == 0
        assert cache.set_index(1) == 1
        assert cache.set_index(2) == 0


class TestInsertLookup:
    def test_miss_then_hit(self):
        cache = tiny_cache()
        assert not cache.contains(0)
        first = cache.insert(0)
        assert not first.hit
        assert cache.contains(0)
        assert cache.insert(0).hit

    def test_lru_eviction_order(self):
        cache = tiny_cache(sets=1, assoc=2)
        cache.insert(0)
        cache.insert(1)
        cache.touch(0)  # 1 becomes LRU
        result = cache.insert(2)
        assert result.evicted == 1
        assert cache.contains(0)

    def test_eviction_only_within_set(self):
        cache = tiny_cache(sets=2, assoc=1)
        cache.insert(0)  # set 0
        result = cache.insert(1)  # set 1, no eviction
        assert result.evicted is None
        assert cache.contains(0)

    def test_touch_missing_returns_false(self):
        cache = tiny_cache()
        assert cache.touch(40) is False

    def test_resident_lines_reports_all(self):
        cache = tiny_cache()
        cache.insert(0)
        cache.insert(1)
        assert sorted(cache.resident_lines()) == [0, 1]

    def test_resident_lines_in_set_then_lru_order(self):
        cache = tiny_cache(sets=4, assoc=2)
        for line in (7, 2, 5, 6, 1):  # sets 3, 2, 1, 2, 1
            cache.insert(line)
        cache.touch(2)
        assert cache.resident_lines() == [5, 1, 6, 2, 7]


class TestLazySets:
    """Sets are built on first use; a fresh cache holds none."""

    def test_installs_build_exactly_their_sets(self):
        cache = SetAssocCache(512 * 1024, 8)
        assert len(cache._sets) == 0
        lines = [3, 1024 + 17, 5 * 1024 + 900, 42]
        for line in lines:
            cache.install(line)
        assert sorted(cache._sets) == sorted(line % 1024 for line in lines)

    def test_can_coreside_builds_no_set(self):
        cache = SetAssocCache(512 * 1024, 8)
        assert cache.can_coreside(range(100))
        assert len(cache._sets) == 0


class TestPinning:
    def test_pinned_line_never_evicted(self):
        cache = tiny_cache(sets=1, assoc=2)
        cache.insert(0)
        cache.pin(0)
        cache.insert(1)
        result = cache.insert(2)
        assert result.evicted == 1
        assert cache.contains(0)

    def test_full_pinned_set_overflows(self):
        cache = tiny_cache(sets=1, assoc=2)
        for line in (0, 1):
            cache.insert(line)
            cache.pin(line)
        with pytest.raises(OverflowError):
            cache.insert(2)

    def test_pin_missing_raises(self):
        cache = tiny_cache()
        with pytest.raises(KeyError):
            cache.pin(5)

    def test_unpin_allows_eviction_again(self):
        cache = tiny_cache(sets=1, assoc=1)
        cache.insert(0)
        cache.pin(0)
        cache.unpin(0)
        result = cache.insert(1)
        assert result.evicted == 0

    def test_unpin_missing_is_noop(self):
        cache = tiny_cache()
        cache.unpin(99)  # does not raise

    def test_invalidate_pinned_raises(self):
        cache = tiny_cache()
        cache.insert(0)
        cache.pin(0)
        with pytest.raises(OverflowError):
            cache.invalidate(0)

    def test_invalidate_removes_line(self):
        cache = tiny_cache()
        cache.insert(0)
        cache.invalidate(0)
        assert not cache.contains(0)

    def test_pin_marks_only_that_line(self):
        cache = tiny_cache(sets=1, assoc=2)
        cache.insert(0)
        cache.insert(1)
        cache.pin(0)
        assert [cache.is_pinned(line) for line in cache.resident_lines()] == [
            True,
            False,
        ]


class TestCanCoreside:
    def test_fits_within_associativity(self):
        cache = tiny_cache(sets=2, assoc=2)
        # lines 0, 2 -> set 0; 1 -> set 1.
        assert cache.can_coreside([0, 1, 2])

    def test_over_full_set_rejected(self):
        cache = tiny_cache(sets=2, assoc=2)
        # 0, 2, 4 all map to set 0 with only 2 ways.
        assert not cache.can_coreside([0, 2, 4])

    def test_duplicates_collapsed(self):
        cache = tiny_cache(sets=2, assoc=2)
        assert cache.can_coreside([0, 0, 0, 2])

    def test_empty_footprint_fits(self):
        assert tiny_cache().can_coreside([])
