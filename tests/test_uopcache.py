"""Unit tests for the micro-op cache storage (repro.uopcache.cache)."""

from repro.config import UopCacheConfig
from repro.policies.lru import LRUPolicy
from repro.uopcache.cache import UopCache, default_set_index

from .conftest import pw


def make_cache(config=None, policy=None, **kwargs):
    config = config or UopCacheConfig(entries=8, ways=4, uops_per_entry=8)
    return UopCache(config, policy or LRUPolicy(), **kwargs)


def same_set_starts(cache, count, uops=8):
    """Start addresses that all map to set 0 of the cache."""
    starts = []
    addr = 0
    while len(starts) < count:
        if cache.set_index(addr) == 0:
            starts.append(addr)
        addr += 0x40
    return starts


class TestBasicInsertionAndProbe:
    def test_insert_then_probe(self):
        cache = make_cache()
        lookup = pw(0x1000, uops=6)
        result = cache.try_insert(0, lookup)
        assert result.inserted
        stored = cache.probe(lookup)
        assert stored is not None and stored.uops == 6

    def test_probe_miss(self):
        cache = make_cache()
        assert cache.probe(pw(0x9999)) is None

    def test_occupancy_tracks_sizes(self):
        cache = make_cache()
        cache.try_insert(0, pw(0x1000, uops=12))  # 2 entries
        assert cache.resident_entries() == 2
        assert cache.resident_pws() == 1

    def test_oversize_pw_is_never_cached(self):
        cache = make_cache()  # 4 ways -> max 32 uops
        result = cache.try_insert(0, pw(0x1000, uops=40))
        assert not result.inserted
        assert cache.resident_pws() == 0


class TestEvictionAndVictims:
    def test_lru_eviction_when_full(self):
        cache = make_cache()
        starts = same_set_starts(cache, 5)
        for t, start in enumerate(starts[:4]):
            cache.try_insert(t, pw(start, uops=8))
        result = cache.try_insert(10, pw(starts[4], uops=8))
        assert result.inserted
        assert result.evicted_pws == 1
        assert not cache.contains(starts[0])  # oldest evicted
        assert cache.contains(starts[4])

    def test_multi_entry_insert_can_evict_several(self):
        cache = make_cache()
        starts = same_set_starts(cache, 5)
        for t, start in enumerate(starts[:4]):
            cache.try_insert(t, pw(start, uops=8))
        result = cache.try_insert(10, pw(starts[4], uops=16))  # needs 2 ways
        assert result.inserted
        assert result.evicted_pws == 2
        assert result.evicted_entries == 2

    def test_bypass_decision_prevents_insert(self):
        class AlwaysBypass(LRUPolicy):
            def should_bypass(self, now, set_index, incoming, resident, need):
                return True

        cache = make_cache(policy=AlwaysBypass())
        result = cache.try_insert(0, pw(0x1000))
        assert not result.inserted
        assert cache.resident_pws() == 0

    def test_eviction_counters(self):
        cache = make_cache()
        starts = same_set_starts(cache, 6)
        for t, start in enumerate(starts):
            cache.try_insert(t, pw(start, uops=8))
        assert cache.eviction_count == 2


class TestKeepLargerRule:
    def test_smaller_same_start_does_not_displace(self):
        cache = make_cache()
        cache.try_insert(0, pw(0x1000, uops=10))
        result = cache.try_insert(1, pw(0x1000, uops=4))
        assert not result.inserted
        assert cache.probe(pw(0x1000, uops=4)).uops == 10

    def test_larger_same_start_upgrades_in_place(self):
        cache = make_cache()
        cache.try_insert(0, pw(0x1000, uops=4))
        result = cache.try_insert(1, pw(0x1000, uops=12))
        assert result.inserted
        assert cache.probe(pw(0x1000, uops=12)).uops == 12
        assert cache.resident_pws() == 1
        assert cache.resident_entries() == 2
        assert cache.upgrades == 1

    def test_upgrade_preserves_weight_when_unhinted(self):
        cache = make_cache()
        cache.try_insert(0, pw(0x1000, uops=4), weight=5)
        cache.try_insert(1, pw(0x1000, uops=12), weight=None)
        assert cache.probe(pw(0x1000, uops=4)).weight == 5


class TestWaySlots:
    def test_slots_assigned_and_recycled(self):
        cache = make_cache()
        starts = same_set_starts(cache, 5)
        for t, start in enumerate(starts[:4]):
            cache.try_insert(t, pw(start, uops=8))
        occupied = [cache.probe(pw(s)).slots for s in starts[:4]]
        flat = [slot for slots in occupied for slot in slots]
        assert sorted(flat) == [0, 1, 2, 3]
        cache.try_insert(10, pw(starts[4], uops=8))
        new_slots = cache.probe(pw(starts[4])).slots
        assert len(new_slots) == 1
        # Recycled slot of the evicted LRU window.
        assert new_slots[0] in (0, 1, 2, 3)

    def test_multi_entry_pw_owns_multiple_slots(self):
        cache = make_cache()
        cache.try_insert(0, pw(0x1000, uops=20))
        stored = cache.probe(pw(0x1000, uops=20))
        assert len(stored.slots) == 3


class TestInclusivity:
    def test_invalidate_line_removes_overlapping_pws(self):
        cache = make_cache()
        lookup = pw(0x1010, uops=8, bytes_len=24)
        cache.try_insert(0, lookup)
        removed = cache.invalidate_line(1, 0x1000)
        assert removed == 1
        assert cache.probe(lookup) is None
        assert cache.inclusive_invalidations == 1

    def test_invalidate_straddling_pw_from_either_line(self):
        cache = make_cache()
        straddle = pw(0x1030, uops=8, bytes_len=40)  # crosses 0x1040
        cache.try_insert(0, straddle)
        assert cache.invalidate_line(1, 0x1040) == 1

    def test_invalidate_untouched_line_is_noop(self):
        cache = make_cache()
        cache.try_insert(0, pw(0x1000))
        assert cache.invalidate_line(1, 0x8000) == 0

    def test_flush_empties_cache(self):
        cache = make_cache()
        cache.try_insert(0, pw(0x1000))
        cache.try_insert(1, pw(0x2000))
        cache.flush()
        assert cache.resident_pws() == 0
        assert cache.resident_entries() == 0

    def test_flush_counts_as_flushes_not_invalidations(self):
        cache = make_cache()
        cache.try_insert(0, pw(0x1000))
        cache.try_insert(1, pw(0x2000))
        cache.flush()
        assert cache.flushes == 2
        assert cache.inclusive_invalidations == 0
        assert cache.eviction_count == 0
        assert cache.upgrades == 0


class TestSetIndex:
    def test_default_set_index_folds_high_bits(self):
        assert default_set_index(0x0, 64) == 0
        a = default_set_index(0x400000, 64)
        b = default_set_index(0x400000 + (64 << 5), 64)
        assert 0 <= a < 64 and 0 <= b < 64

    def test_custom_set_index_is_used(self):
        cache = make_cache(set_index=lambda start, n: 1)
        cache.try_insert(0, pw(0x1000))
        assert len(cache.sets[1]) == 1
