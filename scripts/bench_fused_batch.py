#!/usr/bin/env python
"""Benchmark the arm-fused batch path against the per-arm kernels.

The workload is the cold serial **full-figure batch**: every policy the
figures compare (online + offline + profile-guided, 14 arms) x every
app, through the real ``run_batch(jobs=1)`` entry point.  Two arms,
each a fresh interpreter over a pre-warmed on-disk trace/artifact cache
with the stats cache wiped between runs:

* ``fused``    — ``REPRO_SIM_FUSE=1`` (default): the batch prepass
                 groups each app's arms and hands them to one
                 ``simd_fused.run_group`` sweep over shared columns.
* ``per_arm``  — ``REPRO_SIM_FUSE=0``: the PR-8 path, one solo kernel
                 pass per (app, policy) arm.

Policy construction (future index, FLACK flow solves, profiling
replays) is byte-identical work in both arms, so the headline
``sim_speedup`` compares the **simulation phase only** (the
``frontend_sim`` stage-timer total); ``serial_s`` records the full
batch for context.  Both arms' full ``SimulationStats`` are compared
field-by-field per app x policy (``identity_matrix`` /
``identical_results``) — the identity claim is part of the artifact.

A separate streaming phase (skip with ``--skip-stream``) runs one fused
sweep over a ``--stream-len``-lookup trace (default 10M — the scale the
chunked column streaming enables).  Any trace longer than
``simd_fused.STREAM_WINDOW`` streams its columns window by window; the
phase reports the run's peak RSS so the artifact shows the
bounded-window memory profile.  Windowed-vs-memoized identity is
checked by ``tests/test_fused_kernel.py``.

Usage::

    PYTHONPATH=src python scripts/bench_fused_batch.py \
        --output BENCH_fused_batch.json
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from _benchlib import best_of, emit, run_json, scratch_cache_dir

#: The full-figure policy mix: every arm the paper's tables compare.
_POLICIES = (
    "lru,srrip,random,ghrp,"
    "belady,foo-ohr,foo-bhr,"
    "flack[foo],flack[A],flack[A+VC],flack[A+VC+SB],flack,"
    "furbys,thermometer"
)

#: Untimed setup: generate every trace and profiling artifact once into
#: the on-disk cache, so the timed arms measure the batch, not cold
#: trace generation.
_WARM = r"""
import json, sys, time
from repro.harness.runner import (
    RunRequest, _build_policy_and_hints, clear_memory_cache,
)
from repro.workloads.registry import clear_trace_cache, get_trace

apps, policies, n = (
    sys.argv[1].split(","), sys.argv[2].split(","), int(sys.argv[3]),
)
started = time.perf_counter()
for app in apps:
    trace = get_trace(app, n_lookups=n)
    for pname in policies:
        request = RunRequest(app=app, policy=pname, trace_len=n)
        _build_policy_and_hints(request, request.build_config(), trace)
    clear_memory_cache()
    clear_trace_cache()  # keep the warm phase memory-flat
json.dump({"warm_s": round(time.perf_counter() - started, 3)},
          sys.stdout)
"""

#: One timed arm: the cold serial full-figure batch through run_batch,
#: with the simulation phase attributed via the stage timers and the
#: fused/fallback counters captured for the report.
_ARM = r"""
import dataclasses, json, sys, time
from repro import stagetimer
from repro.harness import resilience
from repro.harness.parallel import run_batch
from repro.harness.runner import RunRequest

apps, policies, n = (
    sys.argv[1].split(","), sys.argv[2].split(","), int(sys.argv[3]),
)
requests = [
    RunRequest(app=app, policy=pname, trace_len=n)
    for app in apps for pname in policies
]
snapshot = resilience.global_counters()
with stagetimer.capture() as stages:
    started = time.perf_counter()
    results, report = run_batch(requests, jobs=1)
    serial_s = time.perf_counter() - started
deltas = resilience.counters_since(snapshot)
sim_s = stages.get("frontend_sim", 0.0)
total = n * len(requests)
json.dump({
    "serial_s": round(serial_s, 3),
    "sim_s": round(sim_s, 3),
    "lookups_per_s": round(total / serial_s, 1),
    "sim_lookups_per_s": round(total / sim_s, 1) if sim_s else None,
    "fused_counters": {
        k: v for k, v in sorted(deltas.items())
        if k.startswith("sim_fused:")
    },
    "sim_fallbacks": {
        k: v for k, v in sorted(deltas.items())
        if k.startswith("sim_fallback:")
    },
    "stats": [dataclasses.asdict(s) for s in results],
}, sys.stdout)
"""

#: One fused sweep at figure scale: load the (pre-generated) trace from
#: the chunked v2 loader, build the arms, run run_group (which streams
#: the columns) and report the process's peak RSS.
_STREAM = r"""
import json, resource, sys, time
from repro.frontend import simd_fused
from repro.frontend.pipeline import FrontendPipeline
from repro.harness.runner import RunRequest, _build_policy_and_hints
from repro.workloads.registry import get_trace

app, arms, n = sys.argv[1], sys.argv[2].split(","), int(sys.argv[3])
t0 = time.perf_counter()
trace = get_trace(app, n_lookups=n)
load_s = time.perf_counter() - t0
t0 = time.perf_counter()
pipelines = []
for pname in arms:
    request = RunRequest(app=app, policy=pname, trace_len=n)
    config = request.build_config()
    policy, hints = _build_policy_and_hints(request, config, trace)
    pipelines.append(FrontendPipeline(config, policy, hints=hints))
build_s = time.perf_counter() - t0
t0 = time.perf_counter()
simd_fused.run_group(pipelines, trace, 0)
sweep_s = time.perf_counter() - t0
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
json.dump({
    "lookups": n,
    "arms": arms,
    "stream_window": simd_fused.STREAM_WINDOW,
    "trace_load_s": round(load_s, 3),
    "policy_build_s": round(build_s, 3),
    "sweep_s": round(sweep_s, 3),
    "sweep_lookups_per_s": round(n * len(arms) / sweep_s, 1),
    "peak_rss_mib": round(peak_kb / 1024, 1),
}, sys.stdout)
"""

#: Pre-generates the streaming-phase trace into the disk cache.
_STREAM_WARM = r"""
import json, sys, time
from repro.workloads.registry import get_trace

started = time.perf_counter()
get_trace(sys.argv[1], n_lookups=int(sys.argv[2]))
json.dump({"warm_s": round(time.perf_counter() - started, 3)},
          sys.stdout)
"""

#: Simulation-result cache entries are bare ``<hex24>.json`` files in
#: the cache root (traces are ``trace-*.bin``, profiling artifacts
#: ``hitstats-*``/``profile-*``); dropping them between arm invocations
#: keeps every run cold while the trace/artifact layers stay warm.
_STATS_ENTRY = re.compile(r"[0-9a-f]{24}\.json")


def _drop_stats_entries(cache_dir: Path) -> None:
    for path in cache_dir.glob("*.json"):
        if _STATS_ENTRY.fullmatch(path.name):
            path.unlink()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--apps", default="kafka,clang,postgres")
    parser.add_argument("--policies", default=_POLICIES,
                        help="full-figure policy mix")
    parser.add_argument("--trace-len", type=int, default=100_000)
    parser.add_argument("--repeats", type=int, default=3,
                        help="cold processes per arm (best-of)")
    parser.add_argument("--stream-len", type=int, default=10_000_000,
                        help="lookups for the streaming-sweep phase")
    parser.add_argument("--stream-arms", default="lru,ghrp,belady",
                        help="arms for the streaming-sweep phase")
    parser.add_argument("--skip-stream", action="store_true",
                        help="skip the large streaming-sweep phase")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="trace/artifact cache dir (default: a temp dir)")
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)

    with scratch_cache_dir(args.cache_dir, "bench-fused-batch-") as cache_dir:
        env = {"REPRO_CACHE": "1", "REPRO_CACHE_DIR": str(cache_dir)}

        warm = run_json(_WARM, [args.apps, args.policies, args.trace_len],
                        env=env)

        arms = {}
        for mode in ("fused", "per_arm"):
            arm_env = dict(env)
            arm_env["REPRO_SIM_FUSE"] = "1" if mode == "fused" else "0"

            def _measure() -> dict:
                _drop_stats_entries(cache_dir)
                return run_json(
                    _ARM, [args.apps, args.policies, args.trace_len],
                    env=arm_env,
                )

            arms[mode] = best_of(args.repeats, _measure, key="sim_s")

        apps = args.apps.split(",")
        policies = args.policies.split(",")
        labels = [f"{app}/{pname}" for app in apps for pname in policies]
        matrix = {
            label: fused == per_arm
            for label, fused, per_arm in zip(
                labels, arms["fused"]["stats"], arms["per_arm"]["stats"])
        }
        for arm in arms.values():
            del arm["stats"]  # compared above; too bulky for the report

        outcome = {
            "benchmark": "arm-fused cold serial full-figure batch "
                         f"({len(labels)} runs x {args.trace_len} lookups "
                         "through run_batch(jobs=1): disk trace load + "
                         "policy build + simulation; sim_speedup compares "
                         "the simulation phase, the only phase fusion "
                         "changes)",
            "apps": args.apps,
            "policies": args.policies,
            "trace_len": args.trace_len,
            "warm_s": warm["warm_s"],
            "arms": arms,
            "sim_speedup": round(arms["per_arm"]["sim_s"]
                                 / arms["fused"]["sim_s"], 3),
            "serial_speedup": round(arms["per_arm"]["serial_s"]
                                    / arms["fused"]["serial_s"], 3),
            "identical_results": all(matrix.values()),
            "identity_matrix": matrix,
        }

        if not args.skip_stream:
            stream_warm = run_json(
                _STREAM_WARM, [args.apps.split(",")[0], args.stream_len],
                env=env)
            outcome["streaming"] = {
                "trace_warm_s": stream_warm["warm_s"],
                "windowed": run_json(
                    _STREAM, [args.apps.split(",")[0], args.stream_arms,
                              args.stream_len], env=env),
            }

        ok = outcome["identical_results"]

    emit(outcome, args.output)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
