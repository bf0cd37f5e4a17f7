"""Behavioural-simulator semantics (repro.frontend.pipeline).

These tests pin down the paper-defined mechanics: micro-op-level miss
accounting, partial hits with keep-larger merging, asynchronous
insertion through the decode pipe, path-switch counting, inclusive
invalidation, perfect-structure modes, warmup and 3C classification.
"""

from dataclasses import replace

from repro.config import zen3_config
from repro.core.stats import MissClass
from repro.core.trace import Trace
from repro.frontend.pipeline import FrontendPipeline, _ShadowClassifier
from repro.policies.lru import LRUPolicy

from .conftest import pw


def make_pipeline(*, delay=0, perfect_icache=True, **kwargs):
    config = zen3_config().with_uop_cache(insertion_delay=delay)
    config = replace(config, perfect_icache=perfect_icache)
    return FrontendPipeline(config, LRUPolicy(), **kwargs)


def run_lookups(pipeline, lookups, warmup=0):
    return pipeline.run(Trace(list(lookups)), warmup=warmup)


class TestHitMissAccounting:
    def test_first_access_misses_then_hits(self):
        pipeline = make_pipeline()
        stats = run_lookups(pipeline, [pw(0x1000, 6), pw(0x1000, 6)])
        assert stats.pw_misses == 1
        assert stats.pw_hits == 1
        assert stats.uops_total == 12
        assert stats.uops_missed == 6

    def test_intermediate_exit_point_full_hit(self):
        # A shorter same-start lookup is fully served by the larger PW.
        pipeline = make_pipeline()
        stats = run_lookups(pipeline, [pw(0x1000, 10), pw(0x1000, 4)])
        assert stats.pw_hits == 1
        assert stats.uops_missed == 10

    def test_partial_hit_serves_prefix_and_upgrades(self):
        pipeline = make_pipeline()
        stats = run_lookups(
            pipeline,
            [pw(0x1000, 4), pw(0x1000, 10), pw(0x1000, 10)],
        )
        assert stats.pw_partial_hits == 1
        # Lookup 2: 4 uops served, 6 missed; lookup 3 hits the merged PW.
        assert stats.uops_missed == 4 + 6
        assert stats.pw_hits == 1
        stored = pipeline.uop_cache.probe(pw(0x1000, 10))
        assert stored.uops == 10

    def test_decoder_only_sees_missed_uops(self):
        pipeline = make_pipeline()
        stats = run_lookups(pipeline, [pw(0x1000, 4), pw(0x1000, 10)])
        assert stats.decoder_uops == 4 + 6  # full miss + partial remainder


class TestAsynchronousInsertion:
    def test_lookup_during_decode_window_misses_again(self):
        pipeline = make_pipeline(delay=5)
        stats = run_lookups(
            pipeline, [pw(0x1000, 8), pw(0x1000, 8), pw(0x1000, 8)]
        )
        # All three lookups land before the insertion completes at t=5.
        assert stats.pw_misses == 3
        assert stats.insertions == 1  # coalesced in-flight insertion

    def test_hit_after_insertion_completes(self):
        pipeline = make_pipeline(delay=2)
        filler = [pw(0x2000 + i * 0x100, 8) for i in range(3)]
        stats = run_lookups(pipeline, [pw(0x1000, 8), *filler, pw(0x1000, 8)])
        assert stats.pw_hits == 1

    def test_longer_window_supersedes_pending_insertion(self):
        pipeline = make_pipeline(delay=3)
        filler = [pw(0x2000 + i * 0x100, 8) for i in range(4)]
        stats = run_lookups(
            pipeline, [pw(0x1000, 4), pw(0x1000, 12), *filler, pw(0x1000, 12)]
        )
        assert stats.pw_hits == 1  # the merged 12-uop window was inserted
        del stats


class TestSwitchCounting:
    def test_alternating_paths_switch(self):
        pipeline = make_pipeline()
        stats = run_lookups(pipeline, [
            pw(0x1000, 8),  # miss -> legacy
            pw(0x1000, 8),  # hit  -> uop path (switch 1)
            pw(0x2000, 8),  # miss -> legacy (switch 2)
            pw(0x1000, 8),  # hit  -> uop (switch 3)
        ])
        assert stats.path_switches == 3

    def test_consecutive_misses_do_not_switch(self):
        pipeline = make_pipeline()
        stats = run_lookups(
            pipeline, [pw(0x1000 + i * 0x100, 8) for i in range(5)]
        )
        assert stats.path_switches == 0


class TestPerfectStructures:
    def test_perfect_uop_cache_never_misses(self):
        config = replace(zen3_config(), perfect_uop_cache=True)
        pipeline = FrontendPipeline(config, LRUPolicy())
        stats = run_lookups(pipeline, [pw(0x1000 + i * 64, 8) for i in range(50)])
        assert stats.uops_missed == 0
        assert stats.decoder_uops == 0
        assert stats.insertions == 0

    def test_perfect_btb_counts_no_misses(self):
        config = replace(zen3_config(), perfect_btb=True)
        pipeline = FrontendPipeline(config, LRUPolicy())
        stats = run_lookups(pipeline, [pw(0x1000 + i * 64, 8) for i in range(50)])
        assert stats.btb_accesses == 50
        assert stats.btb_misses == 0

    def test_perfect_branch_predictor_clears_mispredictions(self):
        config = replace(zen3_config(), perfect_branch_predictor=True)
        pipeline = FrontendPipeline(config, LRUPolicy())
        stats = run_lookups(pipeline, [pw(0x1000, 8, mispredicted=True)] * 3)
        assert stats.mispredictions == 0


class TestInclusiveInvalidation:
    def test_icache_eviction_invalidates_uop_cache(self):
        # Real icache; make it tiny via config to force evictions fast.
        config = zen3_config().with_uop_cache(insertion_delay=0)
        from repro.config import ICacheConfig
        config = replace(
            config, icache=ICacheConfig(size_bytes=2 * 64 * 2, ways=2)
        )
        pipeline = FrontendPipeline(config, LRUPolicy())
        # Touch many distinct lines through the legacy path (every lookup
        # misses the uop cache first time), forcing icache evictions.
        lookups = [pw(0x1000 + i * 0x1000, 8, bytes_len=16) for i in range(12)]
        stats = run_lookups(pipeline, lookups)
        assert stats.icache_misses > 0
        assert stats.inclusive_invalidations > 0

    def test_non_inclusive_mode_never_invalidates(self):
        config = zen3_config().with_uop_cache(
            insertion_delay=0, inclusive_with_icache=False
        )
        from repro.config import ICacheConfig
        config = replace(
            config, icache=ICacheConfig(size_bytes=2 * 64 * 2, ways=2)
        )
        pipeline = FrontendPipeline(config, LRUPolicy())
        lookups = [pw(0x1000 + i * 0x1000, 8, bytes_len=16) for i in range(12)]
        stats = run_lookups(pipeline, lookups)
        assert stats.inclusive_invalidations == 0


class TestWarmup:
    def test_warmup_discards_counters_but_keeps_state(self):
        pipeline = make_pipeline()
        lookups = [pw(0x1000, 8), pw(0x1000, 8)]
        stats = run_lookups(pipeline, lookups, warmup=1)
        # The miss happened during warmup; the measured window only hits.
        assert stats.pw_misses == 0
        assert stats.pw_hits == 1
        assert stats.lookups == 1


class TestShadowClassifier:
    def test_cold_then_conflict_then_capacity(self):
        classifier = _ShadowClassifier(capacity_entries=2, uops_per_entry=8)
        first = pw(0x1000, 8)
        assert classifier.classify(first) is MissClass.COLD
        classifier.touch(first)
        # Present in the FA shadow: a miss would be a conflict.
        assert classifier.classify(first) is MissClass.CONFLICT
        # Push it out of the 2-entry shadow.
        classifier.touch(pw(0x2000, 8))
        classifier.touch(pw(0x3000, 8))
        assert classifier.classify(first) is MissClass.CAPACITY

    def test_pipeline_classification_totals_match_misses(self):
        pipeline = make_pipeline(classify_misses=True)
        lookups = [pw(0x1000 + i * 64, 8) for i in range(20)] * 2
        stats = run_lookups(pipeline, lookups)
        assert stats.miss_breakdown.total == stats.uops_missed


class TestHitRateRecording:
    def test_per_pw_hit_stats(self):
        pipeline = make_pipeline(record_hit_rates=True)
        run_lookups(pipeline, [pw(0x1000, 8)] * 3)
        hits, total = pipeline.pw_hit_stats[0x1000]
        assert total == 24
        assert hits == 16  # first lookup missed
