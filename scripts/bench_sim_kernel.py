#!/usr/bin/env python
"""Benchmark the vectorized simulation kernel against the reference loops.

Two arms, each a fresh interpreter (process-cold) over a pre-warmed
on-disk trace cache, so the comparison isolates the *simulation* change:
trace generation (~50us/lookup, identical in every arm) is paid once in
an untimed setup phase and reported separately as ``trace_warm_s``.

* ``kernel``     — ``FrontendPipeline.run`` (the ``repro.frontend.simd``
                   kernel).
* ``reference``  — ``FrontendPipeline.run_reference`` (the original
                   object-at-a-time ``step()`` loop, the ~67-84k
                   lookups/s engine BENCH_hotpath.json recorded).

Each arm executes the full apps x policies batch serially — trace load
from disk, pipeline construction, simulation — and reports aggregate
lookups/s over the batch wall-clock (best of ``--repeats`` cold
processes).  The headline ``speedup`` is kernel vs. ``reference``.

A separate identity phase reruns every app x policy combination at
``--identity-len`` lookups through both arms in one process and
compares ``SimulationStats`` field-by-field (``identical_results``).

Usage::

    PYTHONPATH=src python scripts/bench_sim_kernel.py \
        --output BENCH_sim_kernel.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from _benchlib import best_of, emit, run_json, scratch_cache_dir

_POLICIES = "lru,srrip,random,ghrp"

#: Untimed setup: generate every trace once into the on-disk cache.
_WARM = r"""
import json, sys, time
from repro.workloads.registry import clear_trace_cache, get_trace

apps, lens = sys.argv[1].split(","), [int(x) for x in sys.argv[2].split(",")]
started = time.perf_counter()
for app in apps:
    for n in lens:
        get_trace(app, n_lookups=n)
        clear_trace_cache()  # keep the warm phase memory-flat
json.dump({"trace_warm_s": round(time.perf_counter() - started, 3)},
          sys.stdout)
"""

#: One timed arm: the cold serial batch (trace load + pipeline + sim).
_ARM = r"""
import json, sys, time
from repro.config import zen3_config
from repro.frontend.pipeline import FrontendPipeline
from repro.policies.ghrp import GHRPPolicy
from repro.policies.lru import LRUPolicy
from repro.policies.random_policy import RandomPolicy
from repro.policies.srrip import SRRIPPolicy

POLICIES = {"lru": LRUPolicy, "srrip": SRRIPPolicy,
            "random": RandomPolicy, "ghrp": GHRPPolicy}
mode, apps, policies, n = (
    sys.argv[1], sys.argv[2].split(","), sys.argv[3].split(","),
    int(sys.argv[4]),
)
from repro.workloads.registry import get_trace

config = zen3_config()
started = time.perf_counter()
trace_load_s = 0.0
traces = {}
for app in apps:
    t0 = time.perf_counter()
    traces[app] = get_trace(app, n_lookups=n)
    trace_load_s += time.perf_counter() - t0
sim_s = 0.0
for pname in policies:
    for app in apps:
        pipeline = FrontendPipeline(config, POLICIES[pname]())
        t0 = time.perf_counter()
        if mode == "reference":
            pipeline.run_reference(traces[app])
        else:
            pipeline.run(traces[app])
        sim_s += time.perf_counter() - t0
serial_s = time.perf_counter() - started
total = n * len(apps) * len(policies)
json.dump({
    "serial_s": round(serial_s, 3),
    "trace_load_s": round(trace_load_s, 3),
    "sim_s": round(sim_s, 3),
    "lookups_per_s": round(total / serial_s, 1),
    "sim_lookups_per_s": round(total / sim_s, 1),
}, sys.stdout)
"""

#: Identity phase: all apps x policies x arms at the identity length.
_IDENTITY = r"""
import dataclasses, json, sys
from repro.config import zen3_config
from repro.frontend.pipeline import FrontendPipeline
from repro.policies.ghrp import GHRPPolicy
from repro.policies.lru import LRUPolicy
from repro.policies.random_policy import RandomPolicy
from repro.policies.srrip import SRRIPPolicy
from repro.workloads.registry import get_trace

POLICIES = {"lru": LRUPolicy, "srrip": SRRIPPolicy,
            "random": RandomPolicy, "ghrp": GHRPPolicy}
apps, policies, n = sys.argv[1].split(","), sys.argv[2].split(","), \
    int(sys.argv[3])
config = zen3_config()
matrix = {}
for app in apps:
    trace = get_trace(app, n_lookups=n)
    for pname in policies:
        kernel = FrontendPipeline(config, POLICIES[pname]())
        st_kernel = dataclasses.asdict(kernel.run(trace))
        reference = FrontendPipeline(config, POLICIES[pname]())
        st_reference = dataclasses.asdict(reference.run_reference(trace))
        matrix[f"{app}/{pname}"] = st_kernel == st_reference
json.dump({"matrix": matrix, "identical": all(matrix.values())},
          sys.stdout)
"""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--apps", default="kafka,clang,postgres")
    parser.add_argument("--policies", default=_POLICIES,
                        help="kernel-eligible online policies")
    parser.add_argument("--trace-len", type=int, default=100_000)
    parser.add_argument("--identity-len", type=int, default=20_000)
    parser.add_argument("--repeats", type=int, default=3,
                        help="cold processes per arm (best-of)")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="trace cache dir (default: a temp dir)")
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)

    with scratch_cache_dir(args.cache_dir, "bench-sim-kernel-") as cache_dir:
        env = {"REPRO_CACHE": "1", "REPRO_CACHE_DIR": str(cache_dir)}

        lens = f"{args.trace_len},{args.identity_len}"
        warm = run_json(_WARM, [args.apps, lens], env=env)

        arms = {}
        for mode in ("kernel", "reference"):
            arms[mode] = best_of(
                args.repeats,
                lambda: run_json(
                    _ARM, [mode, args.apps, args.policies, args.trace_len],
                    env=env,
                ),
                key="serial_s", readings_key="readings_s",
            )

        identity = run_json(
            _IDENTITY, [args.apps, args.policies, args.identity_len], env=env)

    n_runs = len(args.apps.split(",")) * len(args.policies.split(","))
    outcome = {
        "benchmark": "sim-kernel cold serial batch "
                     f"({n_runs} runs x {args.trace_len} lookups: "
                     "disk trace load + pipeline + simulation; "
                     "trace generation pre-paid in trace_warm_s)",
        "apps": args.apps,
        "policies": args.policies,
        "trace_len": args.trace_len,
        "trace_warm_s": warm["trace_warm_s"],
        "arms": arms,
        "speedup": round(arms["reference"]["serial_s"]
                         / arms["kernel"]["serial_s"], 3),
        "identity_len": args.identity_len,
        "identical_results": identity["identical"],
        "identity_matrix": identity["matrix"],
    }

    emit(outcome, args.output)
    return 0 if outcome["identical_results"] else 1


if __name__ == "__main__":
    sys.exit(main())
