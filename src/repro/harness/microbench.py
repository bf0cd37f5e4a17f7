"""Per-stage microbenchmark of a single simulation run.

``repro bench`` times the whole representative batch; this module
answers the finer question — *where does one run spend its time?* — by
timing each stage of :func:`~repro.harness.runner.execute` separately:

* **trace generation** (CFG walk in :mod:`repro.workloads.generator`),
* **policy construction** (for offline policies this is the future
  index plus the FOO/FLACK flow-solver pass; for FURBYS the profiling
  simulation including Jenks classification),
* **trace preparation** (:meth:`~repro.core.trace.Trace.prepared`,
  the per-unique-PW derivation the fast loop runs on),
* the **fast pipeline loop** (:meth:`FrontendPipeline.run`),
* the **reference loop** (:meth:`FrontendPipeline.run_reference`,
  the unoptimized per-``step()`` baseline), and
* **policy callbacks** (time inside the policy's observation and
  decision hooks, measured with a delegating proxy in a separate
  instrumented run so the clean timings are undisturbed).

Loop timings are best-of-``repeats`` — on a noisy shared host the
minimum is the defensible estimate of the true cost.  Every arm's
:class:`~repro.core.stats.SimulationStats` are compared field-by-field
so a timing harness bug that changes results cannot go unnoticed.

Used by ``repro bench --micro`` / ``--profile`` and the CI microbench
smoke step (:func:`check_baseline` against
``benchmarks/microbench_baseline.json``).
"""

from __future__ import annotations

import cProfile
import dataclasses
import io
import pstats
from dataclasses import dataclass
from time import perf_counter
from typing import Sequence

from .. import stagetimer
from ..frontend.pipeline import FrontendPipeline
from ..uopcache.replacement import ReplacementPolicy
from ..workloads.registry import build_app_trace, get_profile, get_trace
from .bench import BENCH_APPS, BENCH_POLICIES
from .runner import RunRequest, _build_policy_and_hints

_HOOK_NAMES = (
    "on_lookup", "on_hit", "on_partial_hit", "on_miss",
    "on_insert", "on_evict", "should_bypass", "choose_victims",
)


class _TimedPolicy(ReplacementPolicy):
    """Delegating proxy that attributes wall-clock time to policy hooks.

    Every hook forwards to the wrapped policy, so decisions (and hence
    simulation results) are unchanged; only the time spent inside the
    hooks is accumulated.  Because the proxy overrides all hooks, the
    pipeline's skip-unobserved-hooks fast path is disabled for the
    instrumented run — which is exactly what we want: the no-op calls
    it would have skipped cost (and therefore time) nothing real.
    """

    def __init__(self, inner: ReplacementPolicy) -> None:
        super().__init__()
        self._inner = inner
        self.name = inner.name
        self.hook_seconds = 0.0
        self.hook_calls = 0

    def attach(self, cache) -> None:
        self._cache = cache
        self._inner.attach(cache)

    def __getattr__(self, item):
        # Harness introspection (e.g. FURBYS selection counters) reads
        # attributes off the pipeline's policy; forward to the real one.
        return getattr(self._inner, item)


def _make_timed_hook(name: str):
    def hook(self, *args, **kwargs):
        inner_hook = getattr(self._inner, name)
        started = perf_counter()
        result = inner_hook(*args, **kwargs)
        self.hook_seconds += perf_counter() - started
        self.hook_calls += 1
        return result

    hook.__name__ = name
    return hook


for _name in _HOOK_NAMES:
    setattr(_TimedPolicy, _name, _make_timed_hook(_name))


@dataclass(slots=True)
class MicrobenchResult:
    """Per-stage timings of one (app, policy) run."""

    app: str
    policy: str
    trace_len: int
    warmup: int
    repeats: int
    trace_gen_s: float
    policy_build_s: float
    #: stage -> seconds (and ``<stage>_calls`` counts) inside policy
    #: construction, from :mod:`repro.stagetimer`; empty for online
    #: policies, which build in constant time.
    policy_build_stages: dict
    prepare_s: float
    pipeline_s: float
    #: stage -> seconds inside the fast pipeline run (``frontend_sim``
    #: dispatch; ``sim_kernel`` when the vectorized kernel ran), from
    #: :mod:`repro.stagetimer` — the kernel vs. reference attribution.
    sim_stages: dict
    reference_s: float
    policy_hooks_s: float
    policy_hook_calls: int
    lookups_per_s: float
    reference_lookups_per_s: float
    speedup_vs_reference: float
    identical_to_reference: bool

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def microbench_run(
    app: str,
    policy: str = "lru",
    *,
    trace_len: int = 20_000,
    warmup: int = 0,
    config: str = "zen3",
    repeats: int = 3,
) -> MicrobenchResult:
    """Time every stage of one simulation; see the module docstring."""
    request = RunRequest(
        app=app, policy=policy, trace_len=trace_len, warmup=warmup,
        config=config,
    )
    sim_config = request.build_config()

    # Stage: trace generation (deliberately bypasses the trace cache —
    # the point is to measure the CFG walk, not a dict lookup).
    started = perf_counter()
    trace = build_app_trace(get_profile(app), request.input_name, trace_len)
    trace_gen_s = perf_counter() - started

    # Stage: policy construction (future index + admission planning for
    # the offline policies, profiling simulation + Jenks for FURBYS),
    # with the per-stage breakdown captured from the stage timers.
    with stagetimer.capture() as build_stages:
        started = perf_counter()
        built_policy, hints = _build_policy_and_hints(request, sim_config, trace)
        policy_build_s = perf_counter() - started

    # Stage: prepared-trace derivation.  The freshly built trace has an
    # empty memo, so this times the real per-unique-PW pass; later
    # pipeline arms then share the memoized result, exactly as repeated
    # policy runs on one trace do in the experiment harness.
    probe = FrontendPipeline(sim_config, built_policy, hints=hints)
    started = perf_counter()
    trace.prepared(
        n_sets=probe.uop_cache.n_sets,
        uops_per_entry=sim_config.uop_cache.uops_per_entry,
        line_bytes=sim_config.icache.line_bytes,
        set_index_fn=probe.uop_cache._set_index,
    )
    prepare_s = perf_counter() - started

    # Stage: fast pipeline loop (best of ``repeats``).  Rebuilding the
    # pipeline re-attaches the policy, which resets its per-run state.
    stats = None
    pipeline_s = float("inf")
    sim_stages: dict = {}
    for _ in range(max(1, repeats)):
        pipeline = FrontendPipeline(sim_config, built_policy, hints=hints)
        with stagetimer.capture() as run_stages:
            started = perf_counter()
            stats = pipeline.run(trace, warmup=warmup)
            elapsed = perf_counter() - started
        if elapsed < pipeline_s:
            pipeline_s = elapsed
            sim_stages = dict(run_stages)

    # Stage: reference loop (the per-step() baseline the fast loop must
    # stay bit-identical to).
    reference_stats = None
    reference_s = float("inf")
    for _ in range(max(1, repeats)):
        pipeline = FrontendPipeline(sim_config, built_policy, hints=hints)
        started = perf_counter()
        reference_stats = pipeline.run_reference(trace, warmup=warmup)
        reference_s = min(reference_s, perf_counter() - started)

    # Stage: policy callbacks, via a separate instrumented run.
    timed = _TimedPolicy(built_policy)
    pipeline = FrontendPipeline(sim_config, timed, hints=hints)
    timed_stats = pipeline.run(trace, warmup=warmup)

    identical = (
        dataclasses.asdict(stats) == dataclasses.asdict(reference_stats)
        == dataclasses.asdict(timed_stats)
    )
    return MicrobenchResult(
        app=app,
        policy=policy,
        trace_len=trace_len,
        warmup=warmup,
        repeats=repeats,
        trace_gen_s=trace_gen_s,
        policy_build_s=policy_build_s,
        policy_build_stages={
            stage: (round(v, 6) if isinstance(v, float) else v)
            for stage, v in build_stages.items()
        },
        prepare_s=prepare_s,
        pipeline_s=pipeline_s,
        sim_stages={
            stage: (round(v, 6) if isinstance(v, float) else v)
            for stage, v in sim_stages.items()
        },
        reference_s=reference_s,
        policy_hooks_s=timed.hook_seconds,
        policy_hook_calls=timed.hook_calls,
        lookups_per_s=trace_len / pipeline_s,
        reference_lookups_per_s=trace_len / reference_s,
        speedup_vs_reference=reference_s / pipeline_s,
        identical_to_reference=identical,
    )


def microbench_batch(
    apps: Sequence[str] = BENCH_APPS,
    policies: Sequence[str] = BENCH_POLICIES,
    *,
    trace_len: int = 20_000,
    warmup: int = 0,
    config: str = "zen3",
    repeats: int = 3,
) -> dict:
    """Microbench every (app, policy) pair; returns a JSON-able report.

    The aggregate ``lookups_per_s`` (total lookups over total fast-loop
    time) is the number the CI smoke step guards with
    :func:`check_baseline`.  ``degraded_fallbacks`` snapshots the
    resilience fallback counters accumulated during the bench (shm /
    disk-write / quarantine events), so a bench that silently degraded
    is distinguishable from a clean one; ``sim_fallbacks`` carries the
    informational ``sim_fallback:*`` counters (runs that used the
    reference loop instead of a vectorized kernel) separately.
    """
    from . import resilience

    fallback_snapshot = resilience.global_counters()
    results = [
        microbench_run(
            app, policy, trace_len=trace_len, warmup=warmup,
            config=config, repeats=repeats,
        )
        for app in apps
        for policy in policies
    ]
    counter_deltas = resilience.counters_since(fallback_snapshot)
    total_pipeline_s = sum(r.pipeline_s for r in results)
    total_reference_s = sum(r.reference_s for r in results)
    total_build_s = sum(r.policy_build_s for r in results)
    total_trace_s = sum(r.trace_gen_s for r in results)
    total_lookups = trace_len * len(results)
    # The offline + profile-guided subset gets its own throughput so
    # the committed baseline can gate the offline kernel separately.
    from .runner import OFFLINE_POLICIES, PROFILE_POLICIES

    offline_names = set(OFFLINE_POLICIES) | set(PROFILE_POLICIES)
    offline_runs = [r for r in results if r.policy in offline_names]
    offline_pipeline_s = sum(r.pipeline_s for r in offline_runs)
    aggregate = {
        "runs": len(results),
        "trace_len": trace_len,
        "total_lookups": total_lookups,
        "total_pipeline_s": round(total_pipeline_s, 4),
        "total_reference_s": round(total_reference_s, 4),
        "trace_gen_s": round(total_trace_s, 4),
        "policy_build_s": round(total_build_s, 4),
        "prepare_s": round(sum(r.prepare_s for r in results), 4),
        "policy_hooks_s": round(sum(r.policy_hooks_s for r in results), 4),
        "lookups_per_s": round(total_lookups / total_pipeline_s, 1),
        # Policy-construction throughput, the same normalization as
        # lookups_per_s so one floor-style baseline guards it too.
        "policy_build_lookups_per_s": (
            round(total_lookups / total_build_s, 1) if total_build_s else None
        ),
        # Trace-construction throughput (cold CFG walks), same
        # normalization again for the baseline gate.
        "trace_build_lookups_per_s": (
            round(total_lookups / total_trace_s, 1) if total_trace_s else None
        ),
        # Fast-loop throughput over the offline + profile-guided arms
        # only (None when the batch has no such arm).
        "offline_sim_lookups_per_s": (
            round(trace_len * len(offline_runs) / offline_pipeline_s, 1)
            if offline_pipeline_s else None
        ),
        "speedup_vs_reference": round(total_reference_s / total_pipeline_s, 3),
        "identical_results": all(r.identical_to_reference for r in results),
        "degraded_fallbacks": {
            name: count for name, count in counter_deltas.items()
            if not name.startswith("sim_fallback:")
        },
        # Simulations that ran the reference loop instead of a kernel
        # (bit-identical, informational) — the instrumented policy-hook
        # arm always lands here, since the timing proxy is not a kernel
        # policy type.
        "sim_fallbacks": {
            name: count for name, count in counter_deltas.items()
            if name.startswith("sim_fallback:")
        },
    }
    return {"results": [r.to_json() for r in results], "aggregate": aggregate}


def policy_build_run(
    app: str,
    policy: str,
    *,
    trace_len: int = 20_000,
    config: str = "zen3",
) -> dict:
    """Time policy construction alone, with the stage breakdown.

    Unlike :func:`microbench_run` this pulls the trace from the shared
    registry cache, so a batch over several policies measures exactly
    what the experiment harness pays: the first offline policy builds
    the shared artifacts, later ones reuse them.
    """
    request = RunRequest(
        app=app, policy=policy, trace_len=trace_len, config=config
    )
    sim_config = request.build_config()
    trace = get_trace(app, request.input_name, trace_len)
    with stagetimer.capture() as stages:
        started = perf_counter()
        _build_policy_and_hints(request, sim_config, trace)
        build_s = perf_counter() - started
    return {
        "app": app,
        "policy": policy,
        "trace_len": trace_len,
        "policy_build_s": round(build_s, 4),
        "stages": {
            stage: (round(v, 6) if isinstance(v, float) else v)
            for stage, v in stages.items()
        },
    }


def policy_build_batch(
    apps: Sequence[str] = BENCH_APPS,
    policies: Sequence[str] = BENCH_POLICIES,
    *,
    trace_len: int = 20_000,
    config: str = "zen3",
) -> dict:
    """Policy-construction-only bench (``repro bench --stage policy_build``).

    Skips the simulation loops entirely; per-(app, policy) build times
    plus an aggregate in the same shape :func:`check_baseline` reads.
    """
    results = [
        policy_build_run(app, policy, trace_len=trace_len, config=config)
        for app in apps
        for policy in policies
    ]
    total_build_s = sum(r["policy_build_s"] for r in results)
    total_lookups = trace_len * len(results)
    stage_totals: dict[str, float | int] = {}
    for r in results:
        for stage, v in r["stages"].items():
            stage_totals[stage] = stage_totals.get(stage, 0) + v
    aggregate = {
        "runs": len(results),
        "trace_len": trace_len,
        "total_lookups": total_lookups,
        "policy_build_s": round(total_build_s, 4),
        "policy_build_lookups_per_s": (
            round(total_lookups / total_build_s, 1) if total_build_s else None
        ),
        "stages": {
            stage: (round(v, 4) if isinstance(v, float) else v)
            for stage, v in stage_totals.items()
        },
    }
    return {"results": results, "aggregate": aggregate}


def trace_build_run(
    app: str,
    *,
    input_name: str = "default",
    trace_len: int = 20_000,
    repeats: int = 3,
) -> dict:
    """Time cold trace construction alone, with the stage breakdown.

    Bypasses both the registry cache and the disk trace cache so every
    repeat pays the full CFG walk; ``stages`` carries the
    :mod:`repro.stagetimer` split (``cfg_build`` / ``trace_setup`` /
    ``trace_pilot`` / ``trace_walk``) from the best repeat.
    """
    profile = get_profile(app)
    best_s = float("inf")
    best_stages: dict = {}
    for _ in range(max(1, repeats)):
        with stagetimer.capture() as stages:
            started = perf_counter()
            build_app_trace(profile, input_name, trace_len)
            elapsed = perf_counter() - started
        if elapsed < best_s:
            best_s = elapsed
            best_stages = dict(stages)
    return {
        "app": app,
        "input": input_name,
        "trace_len": trace_len,
        "trace_build_s": round(best_s, 4),
        "trace_build_lookups_per_s": round(trace_len / best_s, 1),
        "stages": {
            stage: (round(v, 6) if isinstance(v, float) else v)
            for stage, v in best_stages.items()
        },
    }


def trace_build_batch(
    apps: Sequence[str] = BENCH_APPS,
    *,
    trace_len: int = 20_000,
    repeats: int = 3,
) -> dict:
    """Trace-construction-only bench (``repro bench --stage trace_build``).

    Per-app cold build times plus an aggregate in the same shape
    :func:`check_baseline` reads.
    """
    results = [
        trace_build_run(app, trace_len=trace_len, repeats=repeats)
        for app in apps
    ]
    total_build_s = sum(r["trace_build_s"] for r in results)
    total_lookups = trace_len * len(results)
    stage_totals: dict[str, float | int] = {}
    for r in results:
        for stage, v in r["stages"].items():
            stage_totals[stage] = stage_totals.get(stage, 0) + v
    aggregate = {
        "runs": len(results),
        "trace_len": trace_len,
        "total_lookups": total_lookups,
        "trace_build_s": round(total_build_s, 4),
        "trace_build_lookups_per_s": (
            round(total_lookups / total_build_s, 1) if total_build_s else None
        ),
        "stages": {
            stage: (round(v, 4) if isinstance(v, float) else v)
            for stage, v in stage_totals.items()
        },
    }
    return {"results": results, "aggregate": aggregate}


def frontend_sim_run(
    app: str,
    policy: str,
    *,
    trace_len: int = 20_000,
    config: str = "zen3",
    repeats: int = 3,
) -> dict:
    """Time the simulation loops alone, with the stage breakdown.

    Pulls the trace from the shared registry cache and pre-derives the
    prepared columns, so the three arms measure pure simulation:

    * ``kernel_s``    — :meth:`FrontendPipeline.run` with the
      :mod:`repro.frontend.simd` kernel enabled (the default path);
      ``stages`` carries the ``frontend_sim`` / ``sim_kernel`` split
      from the best repeat.
    * ``fastloop_s``  — the same entry point under
      ``REPRO_SIM_FASTPATH=0`` (the prepared-trace loop).
    * ``reference_s`` — :meth:`FrontendPipeline.run_reference`.
    """
    import os

    request = RunRequest(
        app=app, policy=policy, trace_len=trace_len, config=config
    )
    sim_config = request.build_config()
    trace = get_trace(app, request.input_name, trace_len)
    built_policy, hints = _build_policy_and_hints(request, sim_config, trace)
    probe = FrontendPipeline(sim_config, built_policy, hints=hints)
    trace.prepared(
        n_sets=probe.uop_cache.n_sets,
        uops_per_entry=sim_config.uop_cache.uops_per_entry,
        line_bytes=sim_config.icache.line_bytes,
        set_index_fn=probe.uop_cache._set_index,
    )

    kernel_stats = None
    kernel_s = float("inf")
    kernel_stages: dict = {}
    for _ in range(max(1, repeats)):
        pipeline = FrontendPipeline(sim_config, built_policy, hints=hints)
        with stagetimer.capture() as run_stages:
            started = perf_counter()
            kernel_stats = pipeline.run(trace)
            elapsed = perf_counter() - started
        if elapsed < kernel_s:
            kernel_s = elapsed
            kernel_stages = dict(run_stages)

    saved = os.environ.get("REPRO_SIM_FASTPATH")
    os.environ["REPRO_SIM_FASTPATH"] = "0"
    try:
        fastloop_stats = None
        fastloop_s = float("inf")
        for _ in range(max(1, repeats)):
            pipeline = FrontendPipeline(sim_config, built_policy, hints=hints)
            started = perf_counter()
            fastloop_stats = pipeline.run(trace)
            fastloop_s = min(fastloop_s, perf_counter() - started)
    finally:
        if saved is None:
            del os.environ["REPRO_SIM_FASTPATH"]
        else:
            os.environ["REPRO_SIM_FASTPATH"] = saved

    reference_stats = None
    reference_s = float("inf")
    for _ in range(max(1, repeats)):
        pipeline = FrontendPipeline(sim_config, built_policy, hints=hints)
        started = perf_counter()
        reference_stats = pipeline.run_reference(trace)
        reference_s = min(reference_s, perf_counter() - started)

    identical = (
        dataclasses.asdict(kernel_stats)
        == dataclasses.asdict(fastloop_stats)
        == dataclasses.asdict(reference_stats)
    )
    return {
        "app": app,
        "policy": policy,
        "trace_len": trace_len,
        "kernel_s": round(kernel_s, 4),
        "fastloop_s": round(fastloop_s, 4),
        "reference_s": round(reference_s, 4),
        "kernel_lookups_per_s": round(trace_len / kernel_s, 1),
        "speedup_vs_fastloop": round(fastloop_s / kernel_s, 3),
        "speedup_vs_reference": round(reference_s / kernel_s, 3),
        "identical_results": identical,
        "stages": {
            stage: (round(v, 6) if isinstance(v, float) else v)
            for stage, v in kernel_stages.items()
        },
    }


def frontend_sim_batch(
    apps: Sequence[str] = BENCH_APPS,
    policies: Sequence[str] = BENCH_POLICIES,
    *,
    trace_len: int = 20_000,
    config: str = "zen3",
    repeats: int = 3,
) -> dict:
    """Simulation-only bench (``repro bench --stage frontend_sim``).

    Per-(app, policy) kernel vs. fastloop vs. reference timings plus an
    aggregate in the same shape :func:`check_baseline` reads.
    """
    results = [
        frontend_sim_run(
            app, policy, trace_len=trace_len, config=config, repeats=repeats
        )
        for app in apps
        for policy in policies
    ]
    total_kernel_s = sum(r["kernel_s"] for r in results)
    total_fastloop_s = sum(r["fastloop_s"] for r in results)
    total_reference_s = sum(r["reference_s"] for r in results)
    total_lookups = trace_len * len(results)
    stage_totals: dict[str, float | int] = {}
    for r in results:
        for stage, v in r["stages"].items():
            stage_totals[stage] = stage_totals.get(stage, 0) + v
    aggregate = {
        "runs": len(results),
        "trace_len": trace_len,
        "total_lookups": total_lookups,
        "kernel_s": round(total_kernel_s, 4),
        "fastloop_s": round(total_fastloop_s, 4),
        "reference_s": round(total_reference_s, 4),
        "kernel_lookups_per_s": round(total_lookups / total_kernel_s, 1),
        "speedup_vs_fastloop": round(total_fastloop_s / total_kernel_s, 3),
        "speedup_vs_reference": round(total_reference_s / total_kernel_s, 3),
        "identical_results": all(r["identical_results"] for r in results),
        "stages": {
            stage: (round(v, 4) if isinstance(v, float) else v)
            for stage, v in stage_totals.items()
        },
    }
    return {"results": results, "aggregate": aggregate}


#: Offline + profile-guided arms the ``offline_sim`` stage times by
#: default: the optimal baselines (Belady, FOO), the paper's best
#: offline policy (FLACK) and both practical profile-guided policies.
OFFLINE_BENCH_POLICIES = ("belady", "foo-ohr", "flack", "furbys",
                          "thermometer")


def offline_sim_run(
    app: str,
    policy: str,
    *,
    trace_len: int = 20_000,
    config: str = "zen3",
    repeats: int = 3,
) -> dict:
    """:func:`frontend_sim_run` for one offline / profile-guided arm.

    Same three arms (kernel / fastloop / reference); policy
    construction — the future index, flow solver or profiling replay —
    happens once up front and is excluded from all three timings.
    """
    return frontend_sim_run(
        app, policy, trace_len=trace_len, config=config, repeats=repeats
    )


def offline_sim_batch(
    apps: Sequence[str] = BENCH_APPS,
    policies: Sequence[str] = OFFLINE_BENCH_POLICIES,
    *,
    trace_len: int = 20_000,
    config: str = "zen3",
    repeats: int = 3,
) -> dict:
    """Offline-simulation bench (``repro bench --stage offline_sim``).

    The ``frontend_sim`` shape over the offline + profile-guided arms;
    the aggregate additionally carries ``offline_sim_lookups_per_s``
    (same value as ``kernel_lookups_per_s``) so the committed baseline
    can gate the offline kernel separately from the online one.
    """
    report = frontend_sim_batch(
        apps, policies, trace_len=trace_len, config=config, repeats=repeats
    )
    aggregate = report["aggregate"]
    aggregate["offline_sim_lookups_per_s"] = aggregate["kernel_lookups_per_s"]
    return report


#: Mixed online + offline/profile-guided arms the ``fused_sim`` stage
#: sweeps by default — serving both families from one pass over the
#: shared columns is the fused path's whole point.
FUSED_BENCH_POLICIES = ("lru", "srrip", "ghrp", "belady", "flack",
                        "furbys")


def fused_sim_run(
    app: str,
    policies: Sequence[str] = FUSED_BENCH_POLICIES,
    *,
    trace_len: int = 20_000,
    config: str = "zen3",
    repeats: int = 3,
) -> dict:
    """Time one arm-fused sweep against the per-arm solo kernels.

    All arms' policies are built once up front (excluded from both
    timings, like the other sim stages); then:

    * ``fused_s``   — :func:`repro.frontend.simd_fused.run_group` over
      fresh pipelines for every arm, best of ``repeats``; ``stages``
      carries its ``sim_kernel`` time.
    * ``per_arm_s`` — the same arms through their individual
      :meth:`FrontendPipeline.run` kernels, best of ``repeats``.

    Both paths share the memoized trace columns, so the comparison is
    pure sweep time.  Results are compared field by field; a fused
    sweep that diverges from the per-arm kernels fails the bench.
    """
    from ..frontend import simd_fused

    requests = [
        RunRequest(app=app, policy=policy, trace_len=trace_len,
                   config=config)
        for policy in policies
    ]
    sim_config = requests[0].build_config()
    trace = get_trace(app, requests[0].input_name, trace_len)
    arms = [
        _build_policy_and_hints(request, sim_config, trace)
        for request in requests
    ]

    def _pipelines() -> list[FrontendPipeline]:
        # Rebuilding re-attaches each policy, resetting per-run state.
        return [
            FrontendPipeline(sim_config, built_policy, hints=hints)
            for built_policy, hints in arms
        ]

    fused_stats = None
    fused_s = float("inf")
    fused_stages: dict = {}
    for _ in range(max(1, repeats)):
        pipelines = _pipelines()
        with stagetimer.capture() as run_stages:
            started = perf_counter()
            fused_stats = simd_fused.run_group(pipelines, trace, 0)
            elapsed = perf_counter() - started
        if elapsed < fused_s:
            fused_s = elapsed
            fused_stages = dict(run_stages)

    per_arm_stats = None
    per_arm_s = float("inf")
    for _ in range(max(1, repeats)):
        pipelines = _pipelines()
        started = perf_counter()
        per_arm_stats = [pipeline.run(trace) for pipeline in pipelines]
        per_arm_s = min(per_arm_s, perf_counter() - started)

    identical = (
        [dataclasses.asdict(s) for s in fused_stats]
        == [dataclasses.asdict(s) for s in per_arm_stats]
    )
    lookups = trace_len * len(policies)
    return {
        "app": app,
        "policies": list(policies),
        "arms": len(policies),
        "trace_len": trace_len,
        "fused_s": round(fused_s, 4),
        "per_arm_s": round(per_arm_s, 4),
        "fused_sim_lookups_per_s": round(lookups / fused_s, 1),
        "speedup_vs_per_arm": round(per_arm_s / fused_s, 3),
        "identical_results": identical,
        "stages": {
            stage: (round(v, 6) if isinstance(v, float) else v)
            for stage, v in fused_stages.items()
        },
    }


def fused_sim_batch(
    apps: Sequence[str] = BENCH_APPS,
    policies: Sequence[str] = FUSED_BENCH_POLICIES,
    *,
    trace_len: int = 20_000,
    config: str = "zen3",
    repeats: int = 3,
) -> dict:
    """Arm-fused sweep bench (``repro bench --stage fused_sim``).

    One fused group per app (all ``policies`` as its arms) against the
    per-arm kernels, plus an aggregate whose
    ``fused_sim_lookups_per_s`` (total arm-lookups served over total
    fused sweep time) the committed baseline gates via
    :func:`check_baseline`.
    """
    results = [
        fused_sim_run(
            app, policies, trace_len=trace_len, config=config,
            repeats=repeats,
        )
        for app in apps
    ]
    total_fused_s = sum(r["fused_s"] for r in results)
    total_per_arm_s = sum(r["per_arm_s"] for r in results)
    total_lookups = trace_len * len(policies) * len(results)
    stage_totals: dict[str, float | int] = {}
    for r in results:
        for stage, v in r["stages"].items():
            stage_totals[stage] = stage_totals.get(stage, 0) + v
    aggregate = {
        "runs": len(results),
        "arms": len(policies),
        "trace_len": trace_len,
        "total_lookups": total_lookups,
        "fused_s": round(total_fused_s, 4),
        "per_arm_s": round(total_per_arm_s, 4),
        "fused_sim_lookups_per_s": (
            round(total_lookups / total_fused_s, 1) if total_fused_s
            else None
        ),
        "speedup_vs_per_arm": (
            round(total_per_arm_s / total_fused_s, 3) if total_fused_s
            else None
        ),
        "identical_results": all(r["identical_results"] for r in results),
        "stages": {
            stage: (round(v, 4) if isinstance(v, float) else v)
            for stage, v in stage_totals.items()
        },
    }
    return {"results": results, "aggregate": aggregate}


def profile_run(
    app: str,
    policy: str = "lru",
    *,
    trace_len: int = 20_000,
    warmup: int = 0,
    config: str = "zen3",
    top: int = 30,
) -> str:
    """cProfile one cold run end-to-end; returns the cumulative report.

    Profiles trace generation, policy construction and the fast
    pipeline loop together — the same work a cold
    :func:`~repro.harness.runner.execute` does — so hot-path
    regressions show up with their callers attached.
    """
    request = RunRequest(
        app=app, policy=policy, trace_len=trace_len, warmup=warmup,
        config=config,
    )
    sim_config = request.build_config()
    profiler = cProfile.Profile()
    profiler.enable()
    trace = build_app_trace(get_profile(app), request.input_name, trace_len)
    built_policy, hints = _build_policy_and_hints(request, sim_config, trace)
    pipeline = FrontendPipeline(sim_config, built_policy, hints=hints)
    pipeline.run(trace, warmup=warmup)
    profiler.disable()
    stream = io.StringIO()
    pstats.Stats(profiler, stream=stream).sort_stats("cumulative").print_stats(top)
    return stream.getvalue()


def check_baseline(
    aggregate: dict, baseline: dict, tolerance: float = 0.30
) -> tuple[bool, str]:
    """Compare a microbench aggregate against a committed baseline.

    Fails when any throughput both sides carry falls more than
    ``tolerance`` below the baseline's, or when any run's results
    diverged from the reference loop.  The default 30% slack absorbs
    shared-runner noise while still catching a real hot-path
    regression (the optimizations this guards are each >30%).

    The gated throughputs are ``lookups_per_s`` (fast pipeline loop),
    ``policy_build_lookups_per_s``, ``trace_build_lookups_per_s``,
    ``offline_sim_lookups_per_s`` and ``fused_sim_lookups_per_s`` —
    keys absent from either side are skipped, so one committed
    baseline file serves both the ``--micro`` aggregate and the
    per-stage aggregates (``--stage offline_sim`` / ``fused_sim``),
    each of which carries its own subset.
    """
    if not aggregate.get("identical_results", True):
        return False, "microbench: fast loop diverged from the reference loop"
    parts = []
    for key, label in (
        ("lookups_per_s", ""),
        ("policy_build_lookups_per_s", "policy build"),
        ("trace_build_lookups_per_s", "trace build"),
        ("offline_sim_lookups_per_s", "offline sim"),
        ("fused_sim_lookups_per_s", "fused sim"),
    ):
        baseline_rate = baseline.get(key)
        current_rate = aggregate.get(key)
        if not baseline_rate or current_rate is None:
            continue
        rate_floor = baseline_rate * (1.0 - tolerance)
        prefix = f"{label} at " if label else ""
        if current_rate < rate_floor:
            return False, (
                f"microbench: {prefix}{current_rate:.0f} lookups/s "
                f"is below the regression floor {rate_floor:.0f} "
                f"(baseline {baseline_rate:.0f} - {tolerance:.0%})"
            )
        shown = f"{label} " if label else ""
        parts.append(
            f"{shown}{current_rate:.0f} lookups/s >= floor {rate_floor:.0f} "
            f"(baseline {baseline_rate:.0f} - {tolerance:.0%})"
        )
    if not parts:
        return False, (
            "microbench: the aggregate and baseline share no throughput "
            "keys to compare"
        )
    return True, "microbench: " + "; ".join(parts)
