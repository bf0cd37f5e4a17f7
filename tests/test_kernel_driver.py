"""The kernel driver: column windows, specialization, cache maintenance.

Every kernel run goes through :func:`repro.frontend.simd.run_kernel`.
Its column windows must be invisible except for peak memory: a
streamed run matches a monolithic one field by field, and every run
matches :meth:`FrontendPipeline.run_reference`.  The window-boundary
suite shrinks ``STREAM_WINDOW`` so short traces cross window edges,
and checks that a streamed trace memoizes no columns.

Runs execute flag-specialized variants of the kernel's generic
``_segment`` / ``_attempt`` templates.  The template suite runs every
kind on the generic templates against the reference, checks that every
kind's flags compile to a variant (a silent fall back to the generic
loop would otherwise go unnoticed), and unit-tests
:func:`~repro.frontend._specialize.compile_flagged`.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import stagetimer
from repro.config import preset
from repro.core.trace import memo_census
from repro.frontend import simd
from repro.frontend._specialize import compile_flagged
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
    # Two segment variants and Belady's attempt variant.
    assert simd.segment_cache_stats()["entries"] >= 3
    assert memo_census()["entries"] >= 1
    before = simd.segment_cache_stats()["evicted"]
    clear_memory_cache()
    assert simd.segment_cache_stats()["entries"] == 0
    assert memo_census()["entries"] == 0
    assert simd.segment_cache_stats()["evicted"] >= before + 3


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


# --- the generic templates ----------------------------------------------------

#: Every kernel kind.
KINDS = ("lru", "srrip", "random", "ghrp", "belady", "plan", "greedy",
         "furbys", "thermometer")


def _kind_pipeline(kind: str, trace, config) -> FrontendPipeline:
    """A fresh pipeline whose policy has kernel kind ``kind``.

    FURBYS hints and Thermometer classes are synthetic functions of the
    start, so every weight and class occurs without a profiling replay.
    """
    starts = trace.unique_starts()
    hints = None
    if kind in ("lru", "srrip", "random", "ghrp"):
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
    return FrontendPipeline(config, policy, hints=hints)


@pytest.mark.parametrize("kind", KINDS)
def test_generic_templates_match_reference(kind, monkeypatch):
    """With no compiled variant, the generic ``_segment``/``_attempt``
    templates run and stay bit-identical to the reference loop."""
    monkeypatch.setattr(simd, "_specialized", lambda method, flags: None)
    config = preset("zen3").with_uop_cache(entries=32, ways=4)
    trace = get_trace("kafka", "default", 3000)

    pipeline = _kind_pipeline(kind, trace, config)
    with stagetimer.capture() as stages:
        stats = pipeline.run(trace, warmup=1000)
    assert stages.get("sim_kernel_calls")
    reference = _kind_pipeline(kind, trace, config)
    assert dataclasses.asdict(stats) == dataclasses.asdict(
        reference.run_reference(trace, warmup=1000))


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_compiles_its_variants(kind):
    """Each kind's flag set compiles to a segment and an attempt
    variant; None here means runs silently use the generic loop."""
    config = preset("zen3").with_uop_cache(entries=32, ways=4)
    trace = get_trace("kafka", "default", 1000)
    pipeline = _kind_pipeline(kind, trace, config)
    kernel = simd._Kernel(
        pipeline, simd._window_columns(pipeline, trace, 0, len(trace)),
        len(trace))
    flags = kernel._spec_flags()
    assert simd._specialized("_segment", flags) is not None
    assert simd._specialized("_attempt", flags) is not None
    assert kernel.segment_fn is not simd._Kernel._segment
    # The online kinds run the generic attempt (drain-time only).
    online = kind in ("lru", "srrip", "random", "ghrp")
    assert (kernel.attempt_fn is simd._Kernel._attempt) == online


class _Probe:
    """A template for the compile_flagged unit tests."""

    def __init__(self) -> None:
        self.fast = "attribute"

    def method(self):
        fast = self.fast == "attribute"
        return fast, self.fast


def _compile_probe(spec_names, flags):
    return compile_flagged(_Probe.method, spec_names, flags,
                           new_name="method_spec", namespace={},
                           prefix="probe", template=[])


def test_compile_flagged_substitutes_bare_names_only():
    """``self.fast`` keeps its attribute name; bare ``fast`` becomes
    the literal."""
    variant = _compile_probe(("fast",), {"fast": False})
    assert variant(_Probe()) == (False, "attribute")
    assert _Probe().method() == (True, "attribute")


def test_compile_flagged_rejects_a_flag_without_assignment():
    with pytest.raises(ValueError, match="slow"):
        _compile_probe(("fast", "slow"), {"fast": True, "slow": False})
