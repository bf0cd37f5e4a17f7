"""The kernel driver: arm groups, column windows, bit-identity, resilience.

Every kernel run goes through :func:`repro.frontend.simd_fused.run_group`
(a solo run is a one-arm group; the prepass in
:mod:`repro.harness.parallel` hands it multi-arm groups).  It must be
invisible except for speed and memory: every arm's stats bit-identical
to the per-arm runs and to the reference loop, unsupported mixes and
injected faults rerouting with counted ``sim_fallback:fused:<reason>``
reasons, and column windows changing nothing but peak memory.

The property suite samples randomized mixed online/offline arm subsets
(seeded, so failures reproduce) at three trace scales and compares the
fused batch against per-arm references field by field: one-request
batches, which never enter the prepass.  The window-boundary suite
shrinks ``STREAM_WINDOW`` so short traces cross window edges, and
checks that a streamed trace memoizes no columns.
"""

from __future__ import annotations

import dataclasses
import gc
import random

import pytest

from repro.config import preset
from repro.core.trace import memo_census
from repro.frontend import simd, simd_fused, simd_offline
from repro.frontend.pipeline import FrontendPipeline
from repro.harness.parallel import run_batch
from repro.harness.runner import RunRequest, clear_memory_cache
from repro.offline.belady import BeladyPolicy
from repro.offline.flack import FLACKPolicy
from repro.policies import make_policy
from repro.policies.furbys import FurbysPolicy
from repro.workloads.registry import get_trace

ONLINE_ARMS = ("lru", "srrip", "random", "ghrp")
OFFLINE_ARMS = (
    "belady", "foo-ohr", "foo-bhr",
    "flack", "flack[foo]", "flack[A]", "flack[A+VC]", "flack[A+VC+SB]",
    "furbys", "thermometer",
)
ARM_POOL = ONLINE_ARMS + OFFLINE_ARMS


def _mixed_subset(rng: random.Random, k: int) -> tuple[str, ...]:
    """k arms, guaranteed to mix families whenever k >= 2."""
    if k == 1:
        return (rng.choice(ARM_POOL),)
    arms = [rng.choice(ONLINE_ARMS), rng.choice(OFFLINE_ARMS)]
    arms += rng.sample([a for a in ARM_POOL if a not in arms], k - 2)
    rng.shuffle(arms)
    return tuple(arms)


def _property_cases() -> list[tuple[str, int, tuple[str, ...]]]:
    rng = random.Random(0xF05ED)
    cases = []
    for trace_len, n_subsets, max_k in ((1000, 3, 8), (20000, 2, 6),
                                        (100000, 1, 3)):
        for _ in range(n_subsets):
            app = rng.choice(("kafka", "clang")) if trace_len < 100000 \
                else "kafka"
            k = rng.randint(1, max_k)
            cases.append((app, trace_len, _mixed_subset(rng, k)))
    return cases


CASES = _property_cases()


def _requests(app: str, trace_len: int, arms: tuple[str, ...]):
    return [RunRequest(app=app, policy=policy, trace_len=trace_len)
            for policy in arms]


def _run_cold(requests):
    """One cold serial batch; multi-arm groups take the fused prepass."""
    clear_memory_cache()
    results, report = run_batch(requests, jobs=1)
    assert all(stats is not None for stats in results)
    return [dataclasses.asdict(stats) for stats in results], report


def _run_per_arm(requests):
    """Cold one-request batches: each arm runs as its own one-arm group."""
    clear_memory_cache()
    results = []
    for request in requests:
        (stats,), report = run_batch([request], jobs=1)
        assert stats is not None
        assert not report.faults.fused
        results.append(dataclasses.asdict(stats))
    return results


@pytest.mark.parametrize(
    "app,trace_len,arms", CASES,
    ids=[f"{app}-{n}-{'+'.join(a for a in arms)}" for app, n, arms in CASES],
)
def test_fused_batch_bit_identity(app, trace_len, arms):
    requests = _requests(app, trace_len, arms)
    fused, report = _run_cold(requests)
    assert fused == _run_per_arm(requests)
    unique = len(set(arms))
    if unique >= 2:
        assert report.faults.fused.get("sim_fused:served") == unique
        assert report.faults.fused.get("sim_fused:groups") == 1
    else:
        assert not report.faults.fused


def test_streaming_window_matches_monolithic(monkeypatch):
    arms = ("lru", "ghrp", "belady", "furbys", "flack[A]")
    requests = _requests("kafka", 20000, arms)
    monolithic, _ = _run_cold(requests)
    monkeypatch.setattr(simd_fused, "STREAM_WINDOW", 4096)
    windowed, report = _run_cold(requests)
    assert windowed == monolithic
    assert report.faults.fused.get("sim_fused:served") == len(arms)


def test_ineligible_group_falls_back_with_counted_reason():
    # classify_misses forces the reference loop, so the whole group must
    # reroute to the per-arm path with a counted reason — and still
    # produce results.
    requests = [
        RunRequest(app="kafka", policy=policy, trace_len=1000,
                   classify_misses=True)
        for policy in ("lru", "srrip", "ghrp")
    ]
    results, report = _run_cold(requests)
    assert not report.faults.fused
    assert any(name.startswith("sim_fallback:fused:")
               for name in report.faults.sim_fallbacks)


def test_injected_fused_fault_reroutes_per_arm(monkeypatch, tmp_path):
    arms = ("lru", "ghrp", "belady", "furbys")
    requests = _requests("kafka", 1000, arms)
    reference = _run_per_arm(requests)
    import repro.faultinject as faultinject

    monkeypatch.setenv("REPRO_FAULT_SPEC", "fused:group:raise")
    monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path / "faults"))
    faultinject.reset_plan_cache()
    try:
        chaos, report = _run_cold(requests)
    finally:
        monkeypatch.delenv("REPRO_FAULT_SPEC")
        monkeypatch.delenv("REPRO_FAULT_STATE")
        faultinject.reset_plan_cache()
    assert chaos == reference
    assert report.faults.sim_fallbacks.get("sim_fallback:fused:error") == 1
    assert not report.faults.fused
    # The injected failure is informational (the per-arm path absorbed
    # it), so the batch still counts as fault-free execution.
    assert report.faults.skipped == 0 and report.faults.crashed == 0


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
    monkeypatch.setattr(simd_fused, "STREAM_WINDOW", W)
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

    pipelines = [_boundary_pipeline(arm, trace, config)
                 for arm in BOUNDARY_ARMS]
    grouped = [
        _outcome(pipeline, stats) for pipeline, stats in zip(
            pipelines, simd_fused.run_group(pipelines, trace, warmup))
    ]

    assert solo == reference
    assert grouped == reference
    if n > W:
        # A streamed trace keeps no full-trace column memo.
        assert _simd_memos(trace) == []
    else:
        assert len(_simd_memos(trace)) == 1
