"""Property-based tests (hypothesis) on core data structures and
invariants: cache occupancy, trace serialization, Jenks classification,
greedy admission capacity, and the shadow classifier."""

import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import UopCacheConfig
from repro.core.trace import Trace, TraceMetadata
from repro.frontend.pipeline import _ShadowClassifier
from repro.offline.intervals import IdentityMode, ValueMetric, extract_intervals
from repro.offline.plan import greedy_admission
from repro.policies.furbys import FurbysPolicy
from repro.policies.lru import LRUPolicy
from repro.policies.srrip import SRRIPPolicy
from repro.profiling.jenks import _fisher_breaks, jenks_breaks, jenks_groups
from repro.uopcache.cache import UopCache

from .conftest import pw

# --- strategies ---------------------------------------------------------------

lookup_strategy = st.builds(
    pw,
    start=st.integers(min_value=0x1000, max_value=0x4000).map(lambda x: x * 16),
    uops=st.integers(min_value=1, max_value=32),
    branch=st.booleans(),
    mispredicted=st.booleans(),
)

trace_strategy = st.lists(lookup_strategy, min_size=1, max_size=120)


# --- cache occupancy invariants ----------------------------------------------

@settings(max_examples=60, deadline=None)
@given(trace_strategy, st.sampled_from(["lru", "srrip", "furbys"]))
def test_cache_never_exceeds_way_capacity(lookups, policy_name):
    """No interleaving of insertions may oversubscribe any set."""
    policy = {
        "lru": LRUPolicy,
        "srrip": SRRIPPolicy,
        "furbys": FurbysPolicy,
    }[policy_name]()
    config = UopCacheConfig(entries=16, ways=4, uops_per_entry=8)
    cache = UopCache(config, policy)
    for t, lookup in enumerate(lookups):
        stored = cache.probe(lookup)
        if stored is not None:
            if stored.uops >= lookup.uops:
                policy.on_hit(t, cache.set_index(lookup.start), stored, lookup)
            else:
                policy.on_partial_hit(
                    t, cache.set_index(lookup.start), stored, lookup
                )
        cache.try_insert(t, lookup, weight=t % 8)
        for cset in cache.sets:
            used = sum(p.size for p in cset.pws.values())
            assert used == cset.used_ways
            assert used <= config.ways
            slots = [s for p in cset.pws.values() for s in p.slots]
            assert len(slots) == len(set(slots))  # no slot double-booked
            assert len(slots) + len(cset.free_slots) == config.ways


@settings(max_examples=40, deadline=None)
@given(trace_strategy)
def test_line_map_matches_residency(lookups):
    """Inclusive invalidation bookkeeping never leaks or misses PWs."""
    config = UopCacheConfig(entries=16, ways=4, uops_per_entry=8)
    cache = UopCache(config, LRUPolicy())
    for t, lookup in enumerate(lookups):
        cache.try_insert(t, lookup)
    mapped = {s for starts in cache._line_map.values() for s in starts}
    resident = {p.start for cset in cache.sets for p in cset.pws.values()}
    assert mapped == resident


# --- trace serialization ---------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(trace_strategy, st.text(
    alphabet=st.characters(whitelist_categories=("Ll",)), min_size=1, max_size=8
))
def test_trace_roundtrip(lookups, app):
    trace = Trace(lookups, TraceMetadata(app=app, seed=3))
    buffer = io.StringIO()
    trace.dump(buffer)
    buffer.seek(0)
    restored = Trace.parse(buffer)
    assert restored.lookups == trace.lookups
    assert restored.metadata.app == app


# --- Jenks classification --------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=200),
    st.integers(min_value=1, max_value=8),
)
def test_jenks_breaks_cover_all_values(values, k):
    breaks = jenks_breaks(values, k)
    assert len(breaks) == k
    assert breaks == sorted(breaks)
    groups = jenks_groups(values, breaks)
    assert ((0 <= groups) & (groups < k)).all()
    assert breaks[-1] >= max(values)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0),
                min_size=2, max_size=100))
def test_jenks_grouping_is_monotone(values):
    """Larger values never land in a lower class."""
    breaks = jenks_breaks(values, 4)
    ordered = sorted(values)
    groups = jenks_groups(ordered, breaks).tolist()
    assert groups == sorted(groups)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12)
    | st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=12),
    st.integers(min_value=0, max_value=6),
)
def test_jenks_one_class_per_value_shortcut_matches_dp(values, extra):
    """With at least one class per value, the shortcut returns exactly
    what the dynamic program computes (duplicates included)."""
    k = len(values) + extra
    points = np.sort(np.asarray(values, dtype=float))
    assert jenks_breaks(values, k) == _fisher_breaks(
        points, np.ones(points.size), k)


# --- greedy admission capacity ----------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(trace_strategy, st.integers(min_value=1, max_value=8))
def test_greedy_admission_respects_capacity(lookups, ways):
    """Admitted intervals never oversubscribe any slot of any set."""
    config = UopCacheConfig(entries=ways, ways=ways, uops_per_entry=8)
    per_set, slots = extract_intervals(
        Trace(lookups), config,
        identity=IdentityMode.START, metric=ValueMetric.UOPS,
        set_index_fn=lambda s, n: 0,
    )
    plan = greedy_admission(per_set, slots, ways, len(lookups))
    occupancy = [0] * max(1, slots[0])
    for interval in per_set[0]:
        if plan.keep_from(interval.t_start):
            for slot in range(interval.i_slot, interval.j_slot):
                occupancy[slot] += interval.size
    assert all(level <= ways for level in occupancy)


# --- shadow classifier -----------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(trace_strategy)
def test_shadow_classifier_never_underflows(lookups):
    classifier = _ShadowClassifier(capacity_entries=4, uops_per_entry=8)
    for lookup in lookups:
        classifier.classify(lookup)
        classifier.touch(lookup)
        assert classifier._used >= 0
        assert classifier._used <= 4 or len(classifier._fa) == 0
