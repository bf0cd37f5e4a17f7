"""Columnar future index and shared offline artifacts vs. references.

The production policy-construction layout (columnar successor arrays,
shared interval decomposition, memoized admission plans) must be
semantically invisible: every query and every derived artifact has to match the
dict+bisect reference implementations exactly.  These tests drive both
layers with randomized traces and arbitrary query points.
"""

from __future__ import annotations

import random
import sys

import pytest

from repro.config import UopCacheConfig
from repro.core.trace import Trace, TraceMetadata
from repro.offline.flack import FLACKPolicy
from repro.offline.future import (
    NEVER,
    ColumnarFutureIndex,
    FutureIndex,
    shared_future_index,
)
from repro.offline.intervals import (
    IdentityMode,
    ValueMetric,
    extract_intervals,
    shared_intervals,
)
from repro.uopcache.cache import default_set_index

from .conftest import pw


def random_trace(n: int = 600, n_starts: int = 40, seed: int = 3) -> Trace:
    """Random lookups over a small start set with varying uop counts.

    Same-start lookups with different lengths exercise the EXACT/START
    identity distinction; hot and one-shot starts both occur.
    """
    rng = random.Random(seed)
    lookups = []
    for _ in range(n):
        start = 0x400000 + rng.randrange(n_starts) * 64
        uops = rng.choice([2, 4, 8, 12])
        lookups.append(pw(start, uops))
    return Trace(lookups, TraceMetadata(app="rand"))


class TestColumnarFutureIndex:
    @pytest.mark.parametrize("identity", [IdentityMode.EXACT, IdentityMode.START])
    def test_next_use_matches_reference_at_lookup_points(self, identity):
        trace = random_trace(seed=11)
        reference = FutureIndex(trace, identity)
        columnar = ColumnarFutureIndex(trace, identity)
        key_fn = identity.key_fn()
        # The replay policies' query pattern: the key observed at t,
        # asked strictly after t.
        for t, lookup in enumerate(trace):
            key = key_fn(lookup)
            assert columnar.next_use(key, t) == reference.next_use(key, t)

    @pytest.mark.parametrize("identity", [IdentityMode.EXACT, IdentityMode.START])
    def test_next_use_matches_reference_at_arbitrary_afters(self, identity):
        trace = random_trace(seed=23)
        reference = FutureIndex(trace, identity)
        columnar = ColumnarFutureIndex(trace, identity)
        key_fn = identity.key_fn()
        keys = list({key_fn(lookup) for lookup in trace})
        rng = random.Random(7)
        for _ in range(3000):
            key = rng.choice(keys)
            after = rng.choice([
                rng.randrange(-5, len(trace) + 5),
                -1, 0, len(trace), sys.maxsize,
            ])
            assert columnar.next_use(key, after) == reference.next_use(key, after)

    def test_absent_key_is_never(self):
        trace = random_trace(n=50, seed=5)
        columnar = ColumnarFutureIndex(trace, IdentityMode.START)
        assert columnar.next_use(0xDEAD_BEEF, 0) == NEVER

    def test_successor_array_matches_pointwise_queries(self):
        trace = random_trace(seed=31)
        identity = IdentityMode.EXACT
        reference = FutureIndex(trace, identity)
        columnar = ColumnarFutureIndex(trace, identity)
        key_fn = identity.key_fn()
        for t, lookup in enumerate(trace):
            assert columnar.succ[t] == reference.next_use(key_fn(lookup), t)

    def test_shared_index_is_memoized_per_identity(self):
        trace = random_trace(n=100, seed=41)
        exact = shared_future_index(trace, IdentityMode.EXACT)
        start = shared_future_index(trace, IdentityMode.START)
        assert shared_future_index(trace, IdentityMode.EXACT) is exact
        assert shared_future_index(trace, IdentityMode.START) is start
        assert exact is not start


    def test_score_layouts_agree(self, zen3):
        # _score (columnar span+occ) and its dict+bisect oracle
        # _score_reference must rank identically for every window at
        # every point in time.
        from repro.core.pw import StoredPW

        trace = random_trace(n=400, seed=97)
        config = zen3.uop_cache
        fast = FLACKPolicy(trace, config)
        assert isinstance(fast.future, ColumnarFutureIndex)
        fast._times = FutureIndex(trace, IdentityMode.START)._times
        rng = random.Random(13)
        for lookup in trace:
            stored = StoredPW.from_lookup(lookup, config.uops_per_entry)
            now = rng.randrange(0, len(trace) + 2)
            assert fast._score(stored, now) == pytest.approx(
                fast._score_reference(stored, now)
            )


class TestSharedIntervals:
    @pytest.mark.parametrize("identity", [IdentityMode.EXACT, IdentityMode.START])
    @pytest.mark.parametrize(
        "metric", [ValueMetric.OHR, ValueMetric.ENTRIES, ValueMetric.UOPS]
    )
    @pytest.mark.parametrize("min_gap", [0, 3])
    def test_matches_reference_extraction(self, identity, metric, min_gap):
        trace = random_trace(seed=57)
        config = UopCacheConfig()
        kwargs = dict(
            identity=identity, metric=metric,
            set_index_fn=default_set_index, min_gap=min_gap,
        )
        ref_sets, ref_slots = extract_intervals(trace, config, **kwargs)
        fast_sets, fast_slots = shared_intervals(trace, config, **kwargs)
        assert fast_slots == ref_slots
        assert fast_sets == ref_sets

    def test_memoized_across_requests(self):
        trace = random_trace(n=100, seed=61)
        config = UopCacheConfig()
        kwargs = dict(
            identity=IdentityMode.EXACT, metric=ValueMetric.OHR,
            set_index_fn=default_set_index, min_gap=0,
        )
        first = shared_intervals(trace, config, **kwargs)
        assert shared_intervals(trace, config, **kwargs) is first
