"""Command-line interface: regenerate any table or figure.

Examples::

    repro list                 # available experiments
    repro fig8                 # FURBYS miss-reduction table
    repro fig10 --apps kafka   # FLACK ablation on one app
    repro fig8 --jobs 4        # fan cold runs out over 4 workers
    repro bench                # time a batch serial vs parallel
    repro bench --micro        # per-stage single-run microbenchmark
    repro bench --micro --baseline benchmarks/microbench_baseline.json
    repro bench --stage policy_build   # policy construction only
    repro bench --stage trace_build    # trace construction only
    repro bench --stage offline_sim    # offline/profile-guided kernel arms
    repro bench --stage fused_sim      # arm-fused sweep vs per-arm kernels
    repro bench --profile      # cProfile one cold run
    repro bench --chaos        # fault-injection smoke (crash/hang/corrupt)
    repro bench --chaos-resume # SIGKILL an experiment mid-run, resume it
    repro fig8 --on-error skip # keep partial results on worker failures
    repro trace inspect t.bin  # trace files: inspect / convert / gen
    repro experiments run fig8 # record the run in the durable ledger
    repro experiments resume 3 # replay only the missing requests
    repro query delta 3 7      # per-request metric deltas between runs
    repro all                  # everything (long)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .harness.experiments import EXPERIMENTS
from .harness.reporting import (
    bar_chart, format_batch_report, format_failure, format_table,
)


def _bench(args: argparse.Namespace) -> int:
    """Time a representative cold batch serial vs. parallel."""
    from .harness.bench import (
        BENCH_APPS, BENCH_POLICIES, chaos_smoke, compare_serial_parallel,
        representative_requests,
    )

    apps = tuple(args.apps.split(",")) if args.apps else BENCH_APPS
    policies = (
        tuple(args.policies.split(",")) if args.policies else BENCH_POLICIES
    )

    if args.chaos_resume:
        from .harness.bench import chaos_resume_proof

        outcome = chaos_resume_proof()
        print(json.dumps(outcome, indent=2))
        return 0 if outcome["passed"] else 1

    if args.chaos:
        kwargs = {}
        if args.apps:
            kwargs["apps"] = apps
        if args.policies:
            kwargs["policies"] = policies
        if args.trace_len:
            kwargs["trace_len"] = args.trace_len
        if args.jobs:
            kwargs["jobs"] = args.jobs
        if args.timeout:
            kwargs["timeout_s"] = args.timeout
        outcome = chaos_smoke(**kwargs)
        print(json.dumps(outcome, indent=2))
        ok = outcome["identical_results"] and outcome["faults_accounted"]
        return 0 if ok else 1

    if args.profile:
        from .harness.microbench import profile_run

        print(profile_run(
            apps[0], policies[0],
            trace_len=args.trace_len or 20_000,
        ))
        return 0

    if args.stage:
        if args.stage == "policy_build":
            from .harness.microbench import policy_build_batch

            outcome = policy_build_batch(
                apps, policies, trace_len=args.trace_len or 20_000
            )
        elif args.stage == "trace_build":
            from .harness.microbench import trace_build_batch

            outcome = trace_build_batch(
                apps, trace_len=args.trace_len or 20_000,
                repeats=args.repeats,
            )
        elif args.stage == "frontend_sim":
            from .harness.microbench import frontend_sim_batch

            outcome = frontend_sim_batch(
                apps, policies, trace_len=args.trace_len or 20_000,
                repeats=args.repeats,
            )
        elif args.stage == "offline_sim":
            from .harness.microbench import (
                OFFLINE_BENCH_POLICIES, offline_sim_batch,
            )

            outcome = offline_sim_batch(
                apps,
                policies if args.policies else OFFLINE_BENCH_POLICIES,
                trace_len=args.trace_len or 20_000,
                repeats=args.repeats,
            )
        elif args.stage == "fused_sim":
            from .harness.microbench import (
                FUSED_BENCH_POLICIES, fused_sim_batch,
            )

            outcome = fused_sim_batch(
                apps,
                policies if args.policies else FUSED_BENCH_POLICIES,
                trace_len=args.trace_len or 20_000,
                repeats=args.repeats,
            )
        else:
            print(f"unknown --stage {args.stage!r}; 'policy_build', "
                  "'trace_build', 'frontend_sim', 'offline_sim' and "
                  "'fused_sim' are available",
                  file=sys.stderr)
            return 2
        text = json.dumps(outcome, indent=2)
        print(text)
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(text + "\n")
        if args.baseline:
            from .harness.microbench import check_baseline

            with open(args.baseline) as handle:
                baseline = json.load(handle)
            ok, message = check_baseline(
                outcome["aggregate"], baseline["aggregate"],
                tolerance=args.tolerance,
            )
            print(message, file=sys.stderr)
            if not ok:
                return 1
        if args.stage in ("frontend_sim", "offline_sim", "fused_sim"):
            return 0 if outcome["aggregate"]["identical_results"] else 1
        return 0

    if args.micro:
        from .harness.microbench import check_baseline, microbench_batch

        outcome = microbench_batch(
            apps, policies,
            trace_len=args.trace_len or 20_000,
            repeats=args.repeats,
        )
        text = json.dumps(outcome, indent=2)
        print(text)
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(text + "\n")
        if args.baseline:
            with open(args.baseline) as handle:
                baseline = json.load(handle)
            ok, message = check_baseline(
                outcome["aggregate"], baseline["aggregate"],
                tolerance=args.tolerance,
            )
            print(message, file=sys.stderr)
            if not ok:
                return 1
        return 0 if outcome["aggregate"]["identical_results"] else 1

    requests = representative_requests(apps=apps, trace_len=args.trace_len)
    outcome = compare_serial_parallel(requests, jobs=args.jobs)
    print(json.dumps(outcome, indent=2))
    return 0 if outcome["identical_results"] else 1


def _render(name: str) -> str:
    experiment = EXPERIMENTS[name]
    started = time.time()
    result = experiment()
    elapsed = time.time() - started
    parts = [format_table(result["headers"], result["rows"],
                          title=f"== {name} ==")]
    for key, value in result.items():
        if key in ("headers", "rows"):
            continue
        if (
            isinstance(value, dict)
            and value
            and all(isinstance(v, float) for v in value.values())
        ):
            parts.append(bar_chart(
                [(str(k), v) for k, v in value.items()], title=f"{key}:"
            ))
        else:
            parts.append(f"{key}: {value}")
    from .harness.parallel import last_batch_report

    report = last_batch_report()
    if report is not None:
        parts.append(format_batch_report(report))
    parts.append(f"[{elapsed:.1f}s]")
    return "\n".join(parts)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "trace":
        # Trace-file utilities have their own subcommand tree (shared
        # with the standalone ``repro-trace`` entry point).
        from .tools.trace_tool import main as trace_main

        return trace_main(argv[1:])
    if argv and argv[0] in ("experiments", "query"):
        # The durable experiment ledger (record / resume / query) also
        # has its own subcommand tree.
        from .tools.ledger_tool import main as ledger_main

        return ledger_main(argv)
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the FLACK/FURBYS micro-op cache replacement "
                    "experiments (HPCA 2025).",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see 'repro list'), 'list', 'bench', or 'all'",
    )
    parser.add_argument(
        "--apps",
        help="comma-separated application subset (sets REPRO_APPS)",
    )
    parser.add_argument(
        "--trace-len", type=int,
        help="PW lookups per trace (sets REPRO_TRACE_LEN)",
    )
    parser.add_argument(
        "--jobs", type=int,
        help="worker processes for cold simulation batches (sets REPRO_JOBS; "
             "1 = serial, default REPRO_JOBS or the machine's cpu count)",
    )
    parser.add_argument(
        "--on-error", choices=("raise", "skip", "retry"),
        help="batch failure mode (sets REPRO_ON_ERROR): raise = fail fast, "
             "skip = keep partial results, retry = retry transient faults",
    )
    parser.add_argument(
        "--timeout", type=float,
        help="per-chunk timeout in seconds for parallel batches "
             "(sets REPRO_TIMEOUT_S; hung workers are terminated and the "
             "chunk is retried/rerouted)",
    )
    parser.add_argument(
        "--micro", action="store_true",
        help="bench only: per-stage single-run microbenchmark "
             "(trace gen / policy build / run / reference / hooks)",
    )
    parser.add_argument(
        "--chaos", action="store_true",
        help="bench only: fault-injection smoke — inject a worker crash, "
             "a hang and a corrupt cache artifact into a batch and verify "
             "bit-identical results vs a clean serial run",
    )
    parser.add_argument(
        "--chaos-resume", action="store_true",
        help="bench only: end-to-end ledger proof — SIGKILL a recorded "
             "experiment mid-batch (plus a worker crash, a hang and a "
             "torn ledger row), resume it, and verify bit-identical "
             "stats with zero re-execution of journaled requests",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="bench only: cProfile one cold run (first app x first policy)",
    )
    parser.add_argument(
        "--stage",
        help="bench only: time a single stage instead of full runs "
             "('policy_build': policy construction with its per-stage "
             "breakdown; 'trace_build': cold trace construction — no "
             "simulation loops either way; 'frontend_sim': kernel vs "
             "reference simulation arms; 'offline_sim': the "
             "same over the offline/profile-guided policies; 'fused_sim': "
             "one arm-fused sweep vs the per-arm kernels)",
    )
    parser.add_argument(
        "--policies",
        help="bench only: comma-separated policy subset for --micro/--profile",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="bench only: loop repetitions per --micro timing (best-of)",
    )
    parser.add_argument(
        "--baseline",
        help="bench only: microbench JSON to guard against (exit 1 when "
             "lookups/s falls more than --tolerance below it)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.30,
        help="bench only: allowed fractional regression vs --baseline",
    )
    parser.add_argument(
        "--output",
        help="bench only: also write the --micro report to this file",
    )
    args = parser.parse_args(argv)

    if args.apps:
        os.environ["REPRO_APPS"] = args.apps
    if args.trace_len:
        os.environ["REPRO_TRACE_LEN"] = str(args.trace_len)
    if args.jobs:
        os.environ["REPRO_JOBS"] = str(args.jobs)
    if args.on_error:
        os.environ["REPRO_ON_ERROR"] = args.on_error
    if args.timeout:
        os.environ["REPRO_TIMEOUT_S"] = str(args.timeout)

    if args.experiment == "bench":
        return _bench(args)
    if args.experiment == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0

    from .harness.parallel import BatchExecutionError

    try:
        if args.experiment == "all":
            for name in EXPERIMENTS:
                print(_render(name))
                print()
            return 0
        if args.experiment not in EXPERIMENTS:
            print(f"unknown experiment {args.experiment!r}; try 'repro list'",
                  file=sys.stderr)
            return 2
        print(_render(args.experiment))
    except BatchExecutionError as exc:
        print(format_failure(exc), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
