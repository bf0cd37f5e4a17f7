"""Bit-identity and fallback guards for the offline-policy kinds.

Mirror of ``tests/test_sim_kernel.py`` for the offline and
profile-guided kinds of the one simulation kernel
(:mod:`repro.frontend.simd`):

* **Property sweep** — randomized cache geometries, the Belady /
  FOO-replay / FLACK / FURBYS / Thermometer arms, trace lengths
  1k / 20k / 100k: the kernel must reproduce
  :meth:`FrontendPipeline.run_reference` stats *and* end-of-run policy
  state (intervals, pending lookups, recency, RRPV, pitfall detectors,
  selection counters) field-by-field.
* **Recording parity** — per-PW hit-rate recording
  (``record_hit_rates=True``: the profiling-replay shape, and Figure
  22's per-PW hit rates) runs through the kernel with a bit-identical
  ``pw_hit_stats`` dict, for the online kinds as well as the offline
  ones.
* **Fallback visibility** — a policy without a kernel kind runs the
  reference loop and counts a ``sim_fallback:<policy>:<reason>``
  resilience counter, which
  :class:`~repro.harness.resilience.FaultReport` routes to its
  informational ``sim_fallbacks`` bucket (not ``total_faults``).
* **Chaos variant** — ``REPRO_FAULT_SPEC``-injected worker crashes must
  leave batch results over offline arms bit-identical to a clean
  serial run.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro import faultinject, stagetimer
from repro.config import preset
from repro.core.pw import PWLookup
from repro.core.trace import Trace
from repro.frontend.pipeline import FrontendPipeline
from repro.harness import resilience
from repro.harness.parallel import run_batch, run_many
from repro.harness.resilience import FaultReport, RetryPolicy
from repro.harness.runner import RunRequest, clear_memory_cache
from repro.offline.belady import BeladyPolicy
from repro.offline.flack import FLACKPolicy
from repro.offline.foo import FOOPolicy
from repro.policies import make_policy
from repro.policies.furbys import FurbysPolicy
from repro.policies.thermometer import ThermometerPolicy
from repro.workloads.registry import clear_trace_cache

POLICIES = ("belady", "foo-ohr", "flack", "flack[A]", "furbys",
            "thermometer")
#: Online arms, built parameter-free by make_policy.
ONLINE = ("lru", "srrip", "random", "ghrp")

#: Same pinned-seed geometry draw as test_sim_kernel (direct-mapped,
#: single-set and wide corners included).
_GEOM_RNG = random.Random(0x5EED)
GEOMETRIES = sorted(
    {(2 ** _GEOM_RNG.randint(0, 5), _GEOM_RNG.choice((1, 2, 4, 8)))
     for _ in range(10)}
)[:6]

#: Longer traces sweep fewer geometries to keep the suite's runtime
#: bounded (the offline arms pay a policy build per case on top of the
#: two simulation runs); the geometry space itself is covered at 1k.
LENGTH_CASES = [
    (1_000, GEOMETRIES),
    (20_000, GEOMETRIES[:2]),
    (100_000, GEOMETRIES[:1]),
]
SWEEP = [
    (n, sets, ways, policy)
    for n, geoms in LENGTH_CASES
    for sets, ways in geoms
    for policy in POLICIES
]


def _cold():
    clear_memory_cache()
    clear_trace_cache()


def _random_trace(seed: int, n: int) -> Trace:
    """Re-referenced windows with same-start size variants and overlap,
    the mix that exercises partial hits, keep-larger upgrades and
    inclusive invalidation (same recipe as test_sim_kernel)."""
    rng = random.Random(seed)
    windows = []
    addr = 0x400000
    for _ in range(60):
        insts = rng.randint(1, 12)
        uops = insts + rng.randint(0, 8)
        bytes_len = max(1, insts * rng.randint(2, 6))
        windows.append((addr, uops, insts, bytes_len))
        addr += rng.choice((bytes_len, bytes_len, bytes_len // 2 + 1, 17))
    lookups = []
    for _ in range(n):
        start, uops, insts, bytes_len = rng.choice(windows)
        if rng.random() < 0.25:
            scale = rng.choice((0.5, 0.75, 1.5))
            uops = max(1, int(uops * scale))
            insts = max(1, min(insts, uops))
        lookups.append(PWLookup(
            start=start, uops=uops, insts=insts, bytes_len=bytes_len,
            terminated_by_branch=rng.random() < 0.7,
            contains_branch=rng.random() < 0.85,
            mispredicted=rng.random() < 0.05,
        ))
    return Trace(lookups)


def _build(policy: str, trace: Trace, config):
    """(policy instance, pipeline hints) for one sweep arm.

    FURBYS hints and Thermometer classes are synthetic but
    deterministic functions of the PW start, so every weight/class
    combination (including bypass-eligible cold windows) occurs
    without a profiling replay per case.
    """
    if policy in ONLINE:
        return make_policy(policy), None
    if policy == "belady":
        return BeladyPolicy(trace), None
    if policy == "foo-ohr":
        return FOOPolicy(trace, config.uop_cache), None
    if policy == "flack":
        return FLACKPolicy(trace, config.uop_cache), None
    if policy == "flack[A]":
        return FLACKPolicy(
            trace, config.uop_cache,
            async_aware=True, variable_cost=False, selective_bypass=False,
        ), None
    starts = {lookup.start for lookup in trace}
    if policy == "furbys":
        hints = {start: (start >> 4) % 8 for start in starts}
        return FurbysPolicy(), hints
    assert policy == "thermometer"
    classes = {start: start % 3 for start in starts}
    return ThermometerPolicy(classes), None


def _policy_state(policy) -> dict:
    """End-of-run policy internals, repr'd for exact comparison (dict
    reprs include insertion order, so hook order is covered too)."""
    state = {
        attr: repr(getattr(policy, attr, None))
        for attr in ("_interval_start", "_pending_lookup_t", "_last_use",
                     "_pitfall", "_classes", "primary_selections",
                     "fallback_selections", "bypass_decisions")
    }
    rrpv = getattr(policy, "rrpv", None)
    if rrpv is not None:
        state["rrpv"] = repr(rrpv._rrpv)
    return state


@pytest.mark.parametrize(
    "n,sets,ways,policy",
    SWEEP,
    ids=[f"{n}-{s}x{w}-{p}" for n, s, w, p in SWEEP],
)
def test_offline_kernel_matches_reference(n, sets, ways, policy):
    """Kernel stats and policy end-state are bit-identical to the
    reference loop across geometries, policies and trace lengths."""
    config = preset("zen3").with_uop_cache(entries=sets * ways, ways=ways)
    trace = _random_trace(seed=n * 31 + sets * 7 + ways, n=n)
    warmup = n // 5 if (sets + ways) % 2 else 0

    kernel_policy, hints = _build(policy, trace, config)
    kernel_pipeline = FrontendPipeline(config, kernel_policy, hints=hints)
    with stagetimer.capture() as stages:
        kernel_stats = kernel_pipeline.run(trace, warmup=warmup)
    assert stages.get("sim_kernel_calls"), (
        "offline kernel did not run for a supported configuration"
    )

    reference_policy, hints = _build(policy, trace, config)
    reference_pipeline = FrontendPipeline(
        config, reference_policy, hints=hints)
    reference_stats = reference_pipeline.run_reference(trace, warmup=warmup)

    assert dataclasses.asdict(kernel_stats) == \
        dataclasses.asdict(reference_stats)
    assert _policy_state(kernel_policy) == _policy_state(reference_policy)


@pytest.mark.parametrize("policy", ONLINE + (
    "belady", "foo-ohr", "flack", "furbys", "thermometer"))
def test_hit_rate_recording_matches_reference(policy):
    """Per-PW recording (the profiling-replay shape, and Figure 22's
    per-PW hit rates under LRU/SRRIP) routes through the kernel with
    bit-identical pw_hit_stats for every kind."""
    config = preset("zen3").with_uop_cache(entries=64, ways=8)
    trace = _random_trace(seed=77, n=3_000)

    kernel_policy, hints = _build(policy, trace, config)
    kernel_pipeline = FrontendPipeline(
        config, kernel_policy, hints=hints, record_hit_rates=True)
    with stagetimer.capture() as stages:
        kernel_stats = kernel_pipeline.run(trace)
    assert stages.get("sim_kernel_calls")

    reference_policy, hints = _build(policy, trace, config)
    reference_pipeline = FrontendPipeline(
        config, reference_policy, hints=hints, record_hit_rates=True)
    reference_stats = reference_pipeline.run_reference(trace)

    assert dataclasses.asdict(kernel_stats) == \
        dataclasses.asdict(reference_stats)
    assert repr(kernel_pipeline.pw_hit_stats) == \
        repr(reference_pipeline.pw_hit_stats)


class TestFallbackVisibility:
    def test_unsupported_shape_counts_a_reasoned_fallback(self):
        """A policy without a kernel kind (DRRIP) runs the reference
        loop, counts exactly one sim_fallback:drrip:unsupported_policy
        and stays bit-identical."""
        config = preset("zen3").with_uop_cache(entries=32, ways=4)
        trace = _random_trace(seed=5, n=1_200)

        def pipeline() -> FrontendPipeline:
            return FrontendPipeline(config, make_policy("drrip"))

        resilience.reset_counters()
        served = pipeline()
        stats = served.run(trace)
        fallbacks = {
            name: count
            for name, count in resilience.global_counters().items()
            if name.startswith("sim_fallback:")
        }
        resilience.reset_counters()
        assert fallbacks == {
            f"sim_fallback:{served.policy.name}:unsupported_policy": 1}
        reference = pipeline()
        assert dataclasses.asdict(stats) == \
            dataclasses.asdict(reference.run_reference(trace))

    def test_fault_report_routes_sim_fallbacks_separately(self):
        """sim_fallback:* counters are informational: itemized on the
        report, excluded from total_faults."""
        report = FaultReport()
        report.merge_counters({
            "sim_fallback:drrip:unsupported_policy": 2,
            "disk_write": 1,
        })
        assert report.sim_fallbacks == {
            "sim_fallback:drrip:unsupported_policy": 2
        }
        assert report.fallbacks == {"disk_write": 1}
        assert report.degraded_fallbacks == 1
        assert report.total_faults == 1

    def test_batch_report_line_itemizes_sim_fallbacks(self):
        from repro.harness.parallel import BatchReport
        from repro.harness.reporting import format_batch_report

        report = BatchReport(requests=2, unique=2, executed=2, jobs=1)
        report.faults.merge_counters(
            {"sim_fallback:drrip:unsupported_policy": 2})
        text = format_batch_report(report)
        assert "2 sim kernel fallbacks" in text
        assert "drrip:unsupported_policy=2" in text


class TestChaos:
    @pytest.fixture(autouse=True)
    def _fault_hygiene(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_SPEC", raising=False)
        monkeypatch.delenv("REPRO_FAULT_STATE", raising=False)
        faultinject.reset_plan_cache()
        resilience.reset_counters()
        yield
        faultinject.reset_plan_cache()
        resilience.reset_counters()

    def test_injected_crash_keeps_offline_results_identical(
        self, tmp_path, monkeypatch
    ):
        """A worker crash mid-batch (retried on a rebuilt pool) leaves
        the offline arms' results bit-identical to a clean serial run —
        the kernel's live policy-state mirroring cannot leak between
        attempts."""
        requests = [
            RunRequest(app="kafka", policy="belady",
                       trace_len=1_200, warmup=400),
            RunRequest(app="kafka", policy="flack",
                       trace_len=1_200, warmup=400),
            RunRequest(app="kafka", policy="thermometer",
                       trace_len=1_200, warmup=400),
        ]
        _cold()
        reference = [
            dataclasses.asdict(s) for s in run_many(requests, jobs=1)
        ]
        monkeypatch.setenv("REPRO_FAULT_SPEC", "task:0:crash")
        monkeypatch.setenv("REPRO_FAULT_STATE",
                           str(tmp_path / "fault-state"))
        faultinject.reset_plan_cache()
        _cold()
        results, report = run_batch(
            requests, jobs=2, on_error="retry",
            retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.01,
                                     backoff=1.0, jitter=0.0),
        )
        assert [dataclasses.asdict(s) for s in results] == reference
        assert report.faults.crashed >= 1
        _cold()
