"""The kernel driver: column windows, bit-identity, cache maintenance.

Every kernel run goes through :func:`repro.frontend.simd.run_kernel`.
Its column windows must be invisible except for peak memory: a
streamed run matches a monolithic one field by field, and every run
matches :meth:`FrontendPipeline.run_reference`.  The window-boundary
suite shrinks ``STREAM_WINDOW`` so short traces cross window edges,
and checks that a streamed trace memoizes no columns.
"""

from __future__ import annotations

import dataclasses
import gc

import pytest

from repro.config import preset
from repro.core.trace import memo_census
from repro.frontend import simd, simd_offline
from repro.frontend.pipeline import FrontendPipeline
from repro.harness.parallel import run_batch
from repro.harness.runner import RunRequest, clear_memory_cache
from repro.offline.belady import BeladyPolicy
from repro.offline.flack import FLACKPolicy
from repro.policies import make_policy
from repro.policies.furbys import FurbysPolicy
from repro.workloads.registry import get_trace


def _requests(app: str, trace_len: int, arms: tuple[str, ...]):
    return [RunRequest(app=app, policy=policy, trace_len=trace_len)
            for policy in arms]


def _run_cold(requests):
    """One cold serial batch, each result as a plain dict."""
    clear_memory_cache()
    results, _ = run_batch(requests, jobs=1)
    assert all(stats is not None for stats in results)
    return [dataclasses.asdict(stats) for stats in results]


def test_streaming_window_matches_monolithic(monkeypatch):
    arms = ("lru", "ghrp", "belady", "furbys", "flack[A]")
    requests = _requests("kafka", 20000, arms)
    monolithic = _run_cold(requests)
    monkeypatch.setattr(simd, "STREAM_WINDOW", 4096)
    windowed = _run_cold(requests)
    assert windowed == monolithic


def test_clear_memory_cache_drops_sim_caches():
    _run_cold(_requests("kafka", 1000, ("lru", "belady")))
    assert simd.segment_cache_stats()["entries"] >= 1
    assert simd_offline.segment_cache_stats()["entries"] >= 1
    assert memo_census()["entries"] >= 1
    before = (simd.segment_cache_stats()["evicted"],
              simd_offline.segment_cache_stats()["evicted"])
    clear_memory_cache()
    gc.collect()  # offline kernels self-reference via bound methods
    assert simd.segment_cache_stats()["entries"] == 0
    assert simd_offline.segment_cache_stats()["entries"] == 0
    assert memo_census()["entries"] == 0
    assert simd.segment_cache_stats()["evicted"] > before[0]
    assert simd_offline.segment_cache_stats()["evicted"] > before[1]


# --- window boundaries --------------------------------------------------------

#: The shrunken window the boundary suite runs under.
W = 4096
#: Zen3's insertion delay: the completion lag that reaches across a
#: window edge.
DELAY = preset("zen3").uop_cache.insertion_delay
BOUNDARY_CASES = [
    (W - 1, 0),
    (W, W // 2),
    (W + 1, 2 * (W + 1) // 3),
    (2 * W + DELAY, W),            # warmup exactly on a window edge
    (2 * W + DELAY, W + W // 3),   # warmup inside the second window
]
BOUNDARY_ARMS = ("ghrp", "flack", "furbys", "belady-profile")


def _boundary_pipeline(arm: str, trace, config) -> FrontendPipeline:
    """A fresh pipeline for one boundary-suite arm.

    ``furbys`` carries synthetic hints (a pure function of the start),
    and ``belady-profile`` is the profiling-replay shape: an offline
    policy with per-PW hit-rate recording.
    """
    if arm == "ghrp":
        return FrontendPipeline(config, make_policy("ghrp"))
    if arm == "flack":
        return FrontendPipeline(config, FLACKPolicy(trace, config.uop_cache))
    if arm == "furbys":
        hints = {start: (start >> 4) % 8 for start in trace.unique_starts()}
        return FrontendPipeline(config, FurbysPolicy(), hints=hints)
    assert arm == "belady-profile"
    return FrontendPipeline(config, BeladyPolicy(trace),
                            record_hit_rates=True)


def _outcome(pipeline: FrontendPipeline, stats) -> tuple:
    return dataclasses.asdict(stats), pipeline.pw_hit_stats


def _simd_memos(trace) -> list:
    return [key for key in trace._derived
            if isinstance(key, tuple) and key and key[0] == "simd"]


@pytest.mark.parametrize("n,warmup", BOUNDARY_CASES,
                         ids=[f"n{n}-w{w}" for n, w in BOUNDARY_CASES])
def test_window_boundaries_match_reference(n, warmup, monkeypatch):
    monkeypatch.setattr(simd, "STREAM_WINDOW", W)
    clear_memory_cache()
    config = preset("zen3").with_uop_cache(entries=64, ways=8)
    trace = get_trace("kafka", "default", n)
    assert len(trace) == n

    reference = []
    for arm in BOUNDARY_ARMS:
        pipeline = _boundary_pipeline(arm, trace, config)
        reference.append(
            _outcome(pipeline, pipeline.run_reference(trace, warmup=warmup)))

    solo = []
    for arm in BOUNDARY_ARMS:
        pipeline = _boundary_pipeline(arm, trace, config)
        assert simd.fallback_reason(pipeline) is None, arm
        solo.append(_outcome(pipeline, pipeline.run(trace, warmup=warmup)))

    assert solo == reference
    if n > W:
        # A streamed trace keeps no full-trace column memo.
        assert _simd_memos(trace) == []
    else:
        assert len(_simd_memos(trace)) == 1
