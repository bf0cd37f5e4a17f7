"""One repeat, run in a fresh interpreter: ``python -m bench.child MODE SPEC``.

``e2e`` runs a workload's figures through the public entry point
``run_recorded`` and reads the results back from the ledger.  ``traced``
replays the distinct requests an ``e2e`` repeat recorded, calling each
layer's entry point from here and timing every call (a span), with the
``repro.stagetimer`` stages inside each span as its children.  Every
request runs on its own, not fused and not in a pool, so the traced
replay is also the oracle for the ``e2e`` stats.

The parent (``bench.harness``) writes SPEC as JSON and reads the result
from the path named in it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def stats_digest(stats: dict) -> str:
    """sha256 of the canonical stats JSON (the ledger's serialization)."""
    return hashlib.sha256(json.dumps(stats, sort_keys=True).encode()).hexdigest()


def read_rows(ledger_path: str, experiments: list) -> list[dict]:
    """Every request row of the given ``[id, name]`` experiments."""
    from repro.harness.ledger import Ledger

    ledger = Ledger.open(ledger_path)
    try:
        rows = []
        for experiment_id, name in experiments:
            for row in ledger.results_rows(experiment_id):
                stats = row["stats"]
                rows.append({
                    "experiment_id": experiment_id,
                    "cache_key": row["cache_key"],
                    "status": row["status"],
                    "trace_len": row["trace_len"],
                    "request": row["request"],
                    "sha256": None if stats is None else stats_digest(stats),
                })
        return rows
    finally:
        ledger.close()


def peak_rss_mib() -> float:
    """Peak RSS of this process or of any child it waited for."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024


def e2e(spec: dict) -> dict:
    import numpy

    from repro.harness.experiments import run_recorded
    from repro.harness.runner import clear_memory_cache
    from repro.workloads import registry

    for app in spec["apps"]:
        for name in spec["inputs"]:
            registry.get_trace(app, name, spec["trace_len"])
    clear_memory_cache()
    # CLOCK_MONOTONIC is system-wide, so this spans interpreter start-up.
    setup_s = time.monotonic() - spec["spawned"]

    wall_s = 0.0
    generated = 0
    summaries = []
    # A cold workload runs its figures a second time, from disk.
    for pass_index in range(2 if spec["cold"] else 1):
        if pass_index:
            generated += registry.trace_cache_stats()["generated"]
            clear_memory_cache()
        for figure in spec["figures"]:
            started = perf_counter()
            summaries.append(run_recorded(figure, ledger=spec["ledger"]))
            wall_s += perf_counter() - started
    generated += registry.trace_cache_stats()["generated"]

    experiments = [[s["id"], s["name"]] for s in summaries]
    rows = read_rows(spec["ledger"], experiments)
    faults = [s.get("faults", {}) for s in summaries]
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mib": peak_rss_mib(),
        "generated": generated,
        "fused_served": sum(
            f.get("fused", {}).get("sim_fused:served", 0) for f in faults),
        "fallbacks": sum(
            sum(f.get("sim_fallbacks", {}).values()) for f in faults),
        "experiments": experiments,
        "rows": [{k: v for k, v in row.items() if k != "request"}
                 for row in rows],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


class Spans:
    """Wall time per layer of the calls made from this file.

    Each span also records the ``repro.stagetimer`` stages that ran
    inside it, under ``"<layer>/<stage>"``.  Layer spans never nest, so
    their sum is the attributed time.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.stages: dict[str, float] = defaultdict(float)

    @contextmanager
    def span(self, layer: str):
        from repro import stagetimer

        started = perf_counter()
        with stagetimer.capture() as stages:
            yield
        self.seconds[layer] += perf_counter() - started
        self.calls[layer] += 1
        for stage, seconds in stages.items():
            if not stage.endswith("_calls"):
                self.stages[f"{layer}/{stage}"] += seconds


def traced(spec: dict) -> dict:
    from repro.frontend import simd
    from repro.frontend.pipeline import FrontendPipeline
    from repro.harness.artifacts import store_cached_trace
    from repro.harness.ledger import Ledger
    from repro.harness.runner import (
        OFFLINE_POLICIES,
        PROFILE_POLICIES,
        RunRequest,
        _build_policy_and_hints,
        cached_stats,
        clear_memory_cache,
        store_stats,
    )
    from repro.workloads import registry
    from repro.workloads.apps import get_profile
    from repro.workloads.generator import GENERATOR_VERSION

    rows = read_rows(spec["e2e_ledger"], spec["experiments"])
    requests: dict[str, tuple] = {}
    for row in rows:
        if row["status"] == "done" and row["cache_key"] not in requests:
            requests[row["cache_key"]] = (
                RunRequest.from_json(row["request"]), row["sha256"])
    by_app: dict[str, list] = defaultdict(list)
    for key, (request, digest) in requests.items():
        by_app[request.app].append((key, request, digest))

    def build_layer(policy: str) -> str:
        if policy in OFFLINE_POLICIES:
            return "offline.build"
        if policy in PROFILE_POLICIES:
            return "profiling.build"
        return "online.build"

    def trace_inputs(request) -> set[str]:
        if request.policy in PROFILE_POLICIES and request.profile_inputs:
            return {request.input_name, *request.profile_inputs}
        return {request.input_name}

    def generate(spans: Spans, app: str, name: str, length: int):
        with spans.span("workloads.generate"):
            trace = registry.build_app_trace(get_profile(app), name, length)
        with spans.span("artifacts.trace_store"):
            store_cached_trace(trace, app, name, length, GENERATOR_VERSION)
        return trace

    setup, run = Spans(), Spans()
    generated_lookups = 0
    for app in spec["apps"]:
        for name in spec["inputs"]:
            generate(setup, app, name, spec["trace_len"])
            generated_lookups += spec["trace_len"]
    clear_memory_cache()

    mismatches = 0
    simulated_lookups = 0
    loaded_mib = 0.0
    results = {}
    started = perf_counter()
    for app, items in by_app.items():
        needed = sorted({
            (name, request.resolved_trace_len())
            for _, request, _ in items for name in trace_inputs(request)
        })
        for name, length in needed:
            if spec["cold"]:
                fresh = generate(run, app, name, length)
                generated_lookups += length
            with run.span("artifacts.trace_load"):
                trace = registry.get_trace(app, name, length)
            # A cold workload reads back what it just stored.
            if spec["cold"] and trace.columns != fresh.columns:
                mismatches += 1
            loaded_mib += len(trace.columns.to_payload()) / 2**20
        for key, request, digest in items:
            config = request.build_config()
            trace = registry.get_trace(
                request.app, request.input_name, request.resolved_trace_len())
            with run.span(build_layer(request.policy)):
                policy, hints = _build_policy_and_hints(request, config, trace)
            pipeline = FrontendPipeline(
                config, policy, hints=hints,
                classify_misses=request.classify_misses)
            kernel = simd.fallback_reason(pipeline) is None
            with run.span("frontend.kernel" if kernel else "frontend.fallback"):
                stats = pipeline.run(trace, warmup=request.resolved_warmup())
            mismatches += stats_digest(dataclasses.asdict(stats)) != digest
            with run.span("runner.store"):
                store_stats(request, stats, key)
            results[key] = stats
            simulated_lookups += request.resolved_trace_len()
    clear_memory_cache()
    for key, (request, digest) in requests.items():
        with run.span("runner.probe"):
            stats = cached_stats(request, key)
        mismatches += (
            stats is None or stats_digest(dataclasses.asdict(stats)) != digest)
    ledger_rows = 0
    for experiment_id, name in spec["experiments"]:
        pairs = [
            (row["cache_key"], requests[row["cache_key"]][0]) for row in rows
            if row["experiment_id"] == experiment_id
            and row["cache_key"] in results
        ]
        with run.span("ledger.record"):
            ledger = Ledger.open(spec["ledger"])
            try:
                new_id = ledger.create_experiment(name)
                ledger.register_requests(new_id, pairs)
                ledger.record_results(
                    new_id, [(key, request, results[key])
                             for key, request in pairs])
                ledger.finish(new_id, "COMPLETE")
            finally:
                ledger.close()
        ledger_rows += len(pairs)
    wall_s = perf_counter() - started

    def both(name: str) -> float:
        return setup.seconds[name] + run.seconds[name]

    def stage(layer: str, name: str) -> float:
        return (setup.stages[f"{layer}/{name}"]
                + run.stages[f"{layer}/{name}"])

    generate_s = both("workloads.generate")
    kernel_s = run.seconds["frontend.kernel"]
    fallback_s = run.seconds["frontend.fallback"]
    frontend_s = kernel_s + fallback_s
    attributed_s = sum(run.seconds.values())
    db_bytes = sum(
        os.path.getsize(spec["ledger"] + suffix)
        for suffix in ("", "-wal") if os.path.exists(spec["ledger"] + suffix))
    return {
        "workloads.generate_s": generate_s,
        "workloads.generate_lookups_per_s": generated_lookups / generate_s,
        "workloads.cfg_build_s": stage("workloads.generate", "cfg_build"),
        "workloads.trace_walk_s": stage("workloads.generate", "trace_walk"),
        "artifacts.trace_store_s": both("artifacts.trace_store"),
        "artifacts.trace_load_s": run.seconds["artifacts.trace_load"],
        "artifacts.trace_load_mib_per_s":
            loaded_mib / run.seconds["artifacts.trace_load"],
        "policy.build_s": sum(
            run.seconds[f"{family}.build"]
            for family in ("online", "offline", "profiling")),
        "offline.build_s": run.seconds["offline.build"],
        "offline.build_calls": run.calls["offline.build"],
        "offline.future_index_s": run.stages["offline.build/future_index"],
        "offline.intervals_s": run.stages["offline.build/intervals"],
        "offline.greedy_admission_s":
            run.stages["offline.build/greedy_admission"],
        "offline.flow_admission_s": run.stages["offline.build/flow_admission"],
        "profiling.build_s": run.seconds["profiling.build"],
        "profiling.build_calls": run.calls["profiling.build"],
        "profiling.profile_sim_s": run.stages["profiling.build/profile_sim"],
        "profiling.hint_build_s": run.stages["profiling.build/hint_build"],
        "frontend.run_s": frontend_s,
        "frontend.lookups_per_s": simulated_lookups / frontend_s,
        "frontend.kernel_s": kernel_s,
        "frontend.fallback_s": fallback_s,
        "frontend.fallback_runs": run.calls["frontend.fallback"],
        "frontend.kernel_share": kernel_s / frontend_s,
        "runner.store_s": run.seconds["runner.store"],
        "runner.probe_s": run.seconds["runner.probe"],
        "ledger.record_s": run.seconds["ledger.record"],
        "ledger.rows": ledger_rows,
        "ledger.db_mib": db_bytes / 2**20,
        "trace.wall_s": wall_s,
        "trace.attributed_s": attributed_s,
        "trace.attributed_share": attributed_s / wall_s,
        "trace.unattributed_s": wall_s - attributed_s,
        "trace.mismatches": mismatches,
    }


def main(argv: list[str]) -> None:
    mode, spec_path = argv
    with open(spec_path) as handle:
        spec = json.load(handle)
    result = {"e2e": e2e, "traced": traced}[mode](spec)
    with open(spec["result"], "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1:])
