"""Command-line interface: regenerate any table or figure.

Examples::

    repro list                 # available experiments
    repro fig8                 # FURBYS miss-reduction table
    repro fig10 --apps kafka   # FLACK ablation on one app
    repro fig8 --jobs 4        # fan cold runs out over 4 workers
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
from .harness.parallel import ON_ERROR_MODES, last_batch_report
from .harness.reporting import (
    bar_chart, format_batch_report, format_failure, format_table,
)


def add_run_options(
    parser: argparse.ArgumentParser, workload: bool = True
) -> None:
    """The batch options every running command shares; ``workload``
    adds the app subset and trace length too."""
    if workload:
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
        "--on-error", choices=ON_ERROR_MODES,
        help="batch failure mode (sets REPRO_ON_ERROR): raise = fail fast, "
             "skip = keep partial results, retry = retry transient faults",
    )
    parser.add_argument(
        "--timeout", type=float,
        help="per-chunk timeout in seconds for parallel batches "
             "(sets REPRO_TIMEOUT_S; hung workers are terminated and the "
             "chunk is retried/rerouted)",
    )


def export_run_options(args: argparse.Namespace) -> None:
    """Publish the :func:`add_run_options` values as ``REPRO_*`` env."""
    if getattr(args, "apps", None):
        os.environ["REPRO_APPS"] = args.apps
    if getattr(args, "trace_len", None) is not None:
        os.environ["REPRO_TRACE_LEN"] = str(args.trace_len)
    if getattr(args, "jobs", None):
        os.environ["REPRO_JOBS"] = str(args.jobs)
    if getattr(args, "on_error", None):
        os.environ["REPRO_ON_ERROR"] = args.on_error
    if getattr(args, "timeout", None):
        os.environ["REPRO_TIMEOUT_S"] = str(args.timeout)


def _bench(args: argparse.Namespace) -> int:
    """Run one of the batch engine's correctness proofs."""
    if args.chaos_resume:
        from .harness.bench import chaos_resume_proof

        outcome = chaos_resume_proof()
        print(json.dumps(outcome, indent=2))
        return 0 if outcome["passed"] else 1

    if args.chaos:
        from .harness.bench import chaos_smoke

        kwargs = {}
        if args.apps:
            kwargs["apps"] = tuple(args.apps.split(","))
        if args.policies:
            kwargs["policies"] = tuple(args.policies.split(","))
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

    print("repro bench runs the correctness proofs --chaos and "
          "--chaos-resume; performance is measured by "
          "'python3 -m bench' (see bench/README.md)", file=sys.stderr)
    return 2


def _render(name: str) -> str:
    experiment = EXPERIMENTS[name]
    before = last_batch_report()
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
    # An experiment that submits no batch leaves the previous report.
    report = last_batch_report()
    if report is not None and report is not before:
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
    add_run_options(parser)
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
        "--policies",
        help="bench only: comma-separated policy subset for --chaos",
    )
    args = parser.parse_args(argv)
    export_run_options(args)

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
