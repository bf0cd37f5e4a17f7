"""The kernel driver: column windows, the kernel template, cache clears.

Every kernel run goes through :func:`repro.frontend.simd.run_kernel`.
Its column windows must be invisible except for peak memory: a
windowed run matches one whose single window covers the trace, field
by field, and every run matches :meth:`FrontendPipeline.run_reference`.
The window-boundary suite shrinks ``STREAM_WINDOW`` and ``MEMO_LOOKUPS``
so short traces cross window edges, and checks that a trace within the
memo limit memoizes its one window while a streamed trace memoizes
none.  The streaming suite runs the shipped constants over a trace
longer than ``MEMO_LOOKUPS`` and bounds its traced memory.

Every kind runs the one ``_segment`` / ``_attempt`` template, whose
run-constant config flags are live branches.  The template suite runs
all eleven kinds against the reference with each of those flags
flipped, miss classification included.
"""

from __future__ import annotations

import dataclasses
import sys
import tracemalloc

import pytest

from repro import stagetimer
from repro.config import preset
from repro.core.trace import memo_census
from repro.frontend import simd
from repro.frontend.pipeline import FrontendPipeline
from repro.harness.parallel import run_batch
from repro.harness.runner import RunRequest, clear_memory_cache
from repro.offline.belady import BeladyPolicy
from repro.offline.flack import FLACKPolicy
from repro.offline.foo import FOOPolicy
from repro.policies import make_policy
from repro.policies.furbys import FurbysPolicy
from repro.policies.thermometer import ThermometerPolicy
from repro.workloads.registry import get_trace

from .test_sim_kernel import _policy_state


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
    monkeypatch.setattr(simd, "MEMO_LOOKUPS", 4096)
    windowed = _run_cold(requests)
    assert windowed == monolithic


def test_clear_memory_cache_drops_sim_caches():
    """The clear drops the memo holder's column window and future index."""
    _run_cold(_requests("kafka", 1000, ("lru", "belady")))
    kinds = memo_census()["kinds"]
    assert kinds.get("simd") and kinds.get("future_index"), kinds
    clear_memory_cache()
    assert memo_census()["entries"] == 0


# --- streaming with the shipped constants ------------------------------------

#: Just over the shipped memo limit, so the trace streams.
LONG = 70000
#: Traced-memory ceiling of one streamed LRU run over ``LONG`` lookups:
#: it peaks at ~7 MiB in 8192-lookup windows and at ~39 MiB in
#: 65536-lookup ones.
STREAM_PEAK_MIB = 16


def _long_run(policy: str, trace) -> tuple:
    pipeline = FrontendPipeline(preset("zen3"), make_policy(policy))
    stats = pipeline.run(trace, warmup=len(trace) // 10)
    return dataclasses.asdict(stats), _policy_state(pipeline.policy)


def test_long_trace_streams_in_bounded_memory(monkeypatch):
    """A trace over ``MEMO_LOOKUPS`` runs in ``STREAM_WINDOW``-lookup
    windows with the shipped constants: bit-identical to one window
    covering the trace, memoizing no columns, and with a traced peak
    that one window's columns bound."""
    assert simd.STREAM_WINDOW < LONG and simd.MEMO_LOOKUPS < LONG
    clear_memory_cache()
    trace = get_trace("kafka", "default", LONG)

    # tracemalloc finds each allocation's line by scanning the code
    # object's line table, so an allocation deep inside the long
    # ``_segment`` loop costs a scan of hundreds of lines.  CPython 3.11
    # caches a per-instruction line array once a profiler has run the
    # code; one short profiled run builds it and keeps this test at
    # seconds (other versions only run slower).
    profiler = sys.getprofile()
    sys.setprofile(lambda *args: None)
    try:
        _long_run("lru", get_trace("kafka", "default", 500))
    finally:
        sys.setprofile(profiler)
    tracemalloc.start()
    try:
        streamed = {"lru": _long_run("lru", trace)}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < STREAM_PEAK_MIB << 20, peak / 2**20
    streamed["ghrp"] = _long_run("ghrp", trace)
    assert _simd_memos(trace) == []

    monkeypatch.setattr(simd, "STREAM_WINDOW", LONG)
    assert {policy: _long_run(policy, trace) for policy in streamed} \
        == streamed


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
BOUNDARY_ARMS = ("ghrp", "flack", "furbys", "belady-profile", "mockingjay",
                 "lru-classify")


def _boundary_pipeline(arm: str, trace, config) -> FrontendPipeline:
    """A fresh pipeline for one boundary-suite arm.

    ``furbys`` carries synthetic hints (a pure function of the start),
    ``belady-profile`` is the profiling-replay shape: an offline
    policy with per-PW hit-rate recording, and ``lru-classify`` carries
    the miss classifier's shadow state across window edges.
    """
    if arm in ("ghrp", "mockingjay"):
        return FrontendPipeline(config, make_policy(arm))
    if arm == "lru-classify":
        return FrontendPipeline(config, make_policy("lru"),
                                classify_misses=True)
    if arm == "flack":
        return FrontendPipeline(config, FLACKPolicy(trace, config.uop_cache))
    if arm == "furbys":
        hints = {start: (start >> 4) % 8 for start in trace.unique_starts()}
        return FrontendPipeline(config, FurbysPolicy(), hints=hints)
    assert arm == "belady-profile"
    return FrontendPipeline(config, BeladyPolicy(trace),
                            record_hit_rates=True)


def _outcome(pipeline: FrontendPipeline, stats) -> tuple:
    return (dataclasses.asdict(stats), pipeline.pw_hit_stats,
            _policy_state(pipeline.policy),
            _classifier_state(pipeline._classifier))


def _classifier_state(classifier) -> tuple | None:
    """The miss classifier's shadow state (None when off)."""
    if classifier is None:
        return None
    return (sorted(classifier._seen), list(classifier._fa.items()),
            classifier._used)


def _simd_memos(trace) -> list:
    return [key for key in trace._derived
            if isinstance(key, tuple) and key and key[0] == "simd"]


@pytest.mark.parametrize("n,warmup", BOUNDARY_CASES,
                         ids=[f"n{n}-w{w}" for n, w in BOUNDARY_CASES])
def test_window_boundaries_match_reference(n, warmup, monkeypatch):
    # The memo limit shrinks with the window, so every trace over W
    # lookups streams and crosses window edges.
    monkeypatch.setattr(simd, "STREAM_WINDOW", W)
    monkeypatch.setattr(simd, "MEMO_LOOKUPS", W)
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
        # A streamed trace keeps no column memo.
        assert _simd_memos(trace) == []
    else:
        assert len(_simd_memos(trace)) == 1


# --- the kernel template ------------------------------------------------------

#: Every kernel kind.
KINDS = ("lru", "srrip", "random", "ghrp", "belady", "plan", "greedy",
         "furbys", "thermometer", "ship++", "mockingjay")

#: The run-constant config flags the template branches on, each
#: flipped from its zen3 default ("default" flips none).
FLAGS = ("default", "perfect_icache", "non_inclusive", "no_keep_larger",
         "perfect_btb", "record_hit_rates", "perfect_uop_cache",
         "classify_misses")


def _flag_config(flag: str):
    """The parity suite's small zen3 geometry with ``flag`` flipped."""
    config = preset("zen3").with_uop_cache(entries=32, ways=4)
    if flag == "perfect_icache":
        return config.with_perfect("icache")
    if flag == "perfect_btb":
        return config.with_perfect("btb")
    if flag == "perfect_uop_cache":
        return config.with_perfect("uop_cache")
    if flag == "non_inclusive":
        return config.with_uop_cache(inclusive_with_icache=False)
    if flag == "no_keep_larger":
        return config.with_uop_cache(keep_larger=False)
    return config


def _kind_pipeline(kind: str, trace, config, *,
                   record_hit_rates: bool = False,
                   classify_misses: bool = False) -> FrontendPipeline:
    """A fresh pipeline whose policy has kernel kind ``kind``.

    FURBYS hints and Thermometer classes are synthetic functions of the
    start, so every weight and class occurs without a profiling replay.
    """
    starts = trace.unique_starts()
    hints = None
    if kind in ("lru", "srrip", "random", "ghrp", "ship++", "mockingjay"):
        policy = make_policy(kind)
    elif kind == "belady":
        policy = BeladyPolicy(trace)
    elif kind == "plan":
        policy = FOOPolicy(trace, config.uop_cache)
    elif kind == "greedy":
        policy = FLACKPolicy(trace, config.uop_cache)
    elif kind == "furbys":
        policy = FurbysPolicy()
        hints = {start: (start >> 4) % 8 for start in starts}
    else:
        policy = ThermometerPolicy({start: start % 3 for start in starts})
    assert simd.kernel_kind(policy) == kind
    return FrontendPipeline(config, policy, hints=hints,
                            record_hit_rates=record_hit_rates,
                            classify_misses=classify_misses)


#: Every kind with every flag; the zen3 defaults keep the bare kind id.
PARITY_CASES = [
    pytest.param(kind, flag, id=kind if flag == "default" else f"{kind}-{flag}")
    for flag in FLAGS for kind in KINDS
]


@pytest.mark.parametrize("kind,flag", PARITY_CASES)
def test_generic_templates_match_reference(kind, flag):
    """Every kind, with each config flag flipped, runs the kernel and
    stays bit-identical to the reference loop (stats, the miss
    breakdown, per-PW hit rates and the classifier's shadow state)."""
    config = _flag_config(flag)
    options = dict(record_hit_rates=flag == "record_hit_rates",
                   classify_misses=flag == "classify_misses")
    trace = get_trace("kafka", "default", 3000)

    pipeline = _kind_pipeline(kind, trace, config, **options)
    assert simd.fallback_reason(pipeline) is None
    with stagetimer.capture() as stages:
        stats = pipeline.run(trace, warmup=1000)
    assert stages.get("sim_kernel_calls")
    reference = _kind_pipeline(kind, trace, config, **options)
    assert _outcome(pipeline, stats) == _outcome(
        reference, reference.run_reference(trace, warmup=1000))
    if options["record_hit_rates"]:
        assert pipeline.pw_hit_stats
    if options["classify_misses"]:
        assert stats.miss_breakdown.total == stats.uops_missed > 0
