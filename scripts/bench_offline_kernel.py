#!/usr/bin/env python
"""Benchmark the offline-policy simulation kernel against the reference loops.

Mirror of ``bench_sim_kernel.py`` for the offline and profile-guided
arms (Belady, FOO replay, FLACK, FURBYS, Thermometer — the policies
:mod:`repro.frontend.simd_offline` covers).  Two arms, each a fresh
interpreter (process-cold) over a pre-warmed on-disk trace + profiling
artifact cache:

* ``kernel``     — ``FrontendPipeline.run`` (the ``simd_offline``
                   kernel).
* ``reference``  — ``FrontendPipeline.run_reference`` (the original
                   object-at-a-time ``step()`` loop).

Unlike the online arms, every offline policy pays a real construction
phase (columnar future index, FOO/FLACK flow pass, FURBYS/Thermometer
profiling replay) that is byte-identical across arms — so the headline
``speedup`` compares the **simulation phase only** (``sim_s``); policy
construction and trace load are reported separately.  ``serial_s``
still records the full cold batch for context.

A separate identity phase reruns every app x policy combination at
``--identity-len`` lookups through both arms in one process and
compares ``SimulationStats`` field-by-field (``identical_results``).

Usage::

    PYTHONPATH=src python scripts/bench_offline_kernel.py \
        --output BENCH_offline_kernel.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from _benchlib import best_of, emit, run_json, scratch_cache_dir

_POLICIES = "belady,foo-ohr,flack,furbys,thermometer"

#: Untimed setup: generate every trace and profiling artifact once into
#: the on-disk cache, so the timed arms measure simulation, not
#: artifact construction.
_WARM = r"""
import json, sys, time
from repro.harness.runner import (
    RunRequest, _build_policy_and_hints, clear_memory_cache,
)
from repro.workloads.registry import clear_trace_cache, get_trace

apps, policies, lens = (
    sys.argv[1].split(","), sys.argv[2].split(","),
    [int(x) for x in sys.argv[3].split(",")],
)
started = time.perf_counter()
for app in apps:
    for n in lens:
        trace = get_trace(app, n_lookups=n)
        for pname in policies:
            request = RunRequest(app=app, policy=pname, trace_len=n)
            _build_policy_and_hints(request, request.build_config(), trace)
        clear_memory_cache()
        clear_trace_cache()  # keep the warm phase memory-flat
json.dump({"warm_s": round(time.perf_counter() - started, 3)},
          sys.stdout)
"""

#: One timed arm: the cold serial batch, with per-phase attribution.
_ARM = r"""
import json, sys, time
from repro.frontend.pipeline import FrontendPipeline
from repro.harness.runner import RunRequest, _build_policy_and_hints
from repro.workloads.registry import get_trace

mode, apps, policies, n = (
    sys.argv[1], sys.argv[2].split(","), sys.argv[3].split(","),
    int(sys.argv[4]),
)
started = time.perf_counter()
trace_load_s = 0.0
policy_build_s = 0.0
sim_s = 0.0
for app in apps:
    t0 = time.perf_counter()
    trace = get_trace(app, n_lookups=n)
    trace_load_s += time.perf_counter() - t0
    for pname in policies:
        request = RunRequest(app=app, policy=pname, trace_len=n)
        config = request.build_config()
        t0 = time.perf_counter()
        policy, hints = _build_policy_and_hints(request, config, trace)
        policy_build_s += time.perf_counter() - t0
        pipeline = FrontendPipeline(config, policy, hints=hints)
        t0 = time.perf_counter()
        if mode == "reference":
            pipeline.run_reference(trace)
        else:
            pipeline.run(trace)
        sim_s += time.perf_counter() - t0
serial_s = time.perf_counter() - started
total = n * len(apps) * len(policies)
json.dump({
    "serial_s": round(serial_s, 3),
    "trace_load_s": round(trace_load_s, 3),
    "policy_build_s": round(policy_build_s, 3),
    "sim_s": round(sim_s, 3),
    "lookups_per_s": round(total / serial_s, 1),
    "sim_lookups_per_s": round(total / sim_s, 1),
}, sys.stdout)
"""

#: Identity phase: all apps x policies x arms at the identity length.
_IDENTITY = r"""
import dataclasses, json, sys
from repro.frontend.pipeline import FrontendPipeline
from repro.harness.runner import RunRequest, _build_policy_and_hints
from repro.workloads.registry import get_trace

apps, policies, n = sys.argv[1].split(","), sys.argv[2].split(","), \
    int(sys.argv[3])
matrix = {}
for app in apps:
    trace = get_trace(app, n_lookups=n)
    for pname in policies:
        request = RunRequest(app=app, policy=pname, trace_len=n)
        config = request.build_config()

        def _fresh():
            policy, hints = _build_policy_and_hints(request, config, trace)
            return FrontendPipeline(config, policy, hints=hints)

        st_kernel = dataclasses.asdict(_fresh().run(trace))
        st_reference = dataclasses.asdict(_fresh().run_reference(trace))
        matrix[f"{app}/{pname}"] = st_kernel == st_reference
json.dump({"matrix": matrix, "identical": all(matrix.values())},
          sys.stdout)
"""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--apps", default="kafka,clang,postgres")
    parser.add_argument("--policies", default=_POLICIES,
                        help="offline / profile-guided policies")
    parser.add_argument("--trace-len", type=int, default=100_000)
    parser.add_argument("--identity-len", type=int, default=20_000)
    parser.add_argument("--repeats", type=int, default=3,
                        help="cold processes per arm (best-of)")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="trace/artifact cache dir (default: a temp dir)")
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)

    with scratch_cache_dir(args.cache_dir,
                           "bench-offline-kernel-") as cache_dir:
        env = {"REPRO_CACHE": "1", "REPRO_CACHE_DIR": str(cache_dir)}

        lens = f"{args.trace_len},{args.identity_len}"
        warm = run_json(_WARM, [args.apps, args.policies, lens], env=env)

        arms = {}
        for mode in ("kernel", "reference"):
            arms[mode] = best_of(
                args.repeats,
                lambda: run_json(
                    _ARM, [mode, args.apps, args.policies, args.trace_len],
                    env=env,
                ),
                key="sim_s",
            )

        identity = run_json(
            _IDENTITY, [args.apps, args.policies, args.identity_len], env=env)

    n_runs = len(args.apps.split(",")) * len(args.policies.split(","))
    outcome = {
        "benchmark": "offline-kernel cold serial batch "
                     f"({n_runs} runs x {args.trace_len} lookups: "
                     "disk trace load + policy build + simulation; "
                     "speedups compare the simulation phase, which is "
                     "the only phase the kernel changes)",
        "apps": args.apps,
        "policies": args.policies,
        "trace_len": args.trace_len,
        "warm_s": warm["warm_s"],
        "arms": arms,
        "speedup": round(arms["reference"]["sim_s"]
                         / arms["kernel"]["sim_s"], 3),
        "identity_len": args.identity_len,
        "identical_results": identity["identical"],
        "identity_matrix": identity["matrix"],
    }

    emit(outcome, args.output)
    return 0 if outcome["identical_results"] else 1


if __name__ == "__main__":
    sys.exit(main())
