"""``repro experiments`` / ``repro query`` — the durable experiment ledger CLI.

Subcommands::

    repro experiments run fig8 --name nightly        # record while running
    repro experiments run bench --apps kafka         # fast figure-shaped grid
    repro experiments resume 3                       # replay only missing rows
    repro experiments resume nightly --force         # take over a stale run
    repro experiments list                           # lifecycle overview
    repro query experiments --format csv             # same rows, any format
    repro query results 3 --metric uop_miss_rate     # per-request metrics
    repro query delta 3 7                            # A/B across git hashes

``run`` executes an experiment (any ``repro list`` id, or ``bench``)
inside an :class:`~repro.harness.ledger.ExperimentRun`, journaling every
completed chunk into the SQLite store as it lands; ``resume`` replays a
killed or failed run, serving journaled rows with zero re-executions.
``query`` renders the store as table/csv/json — ``delta`` joins two
experiments by cache key, so recording the same figure at two git
hashes gives a per-request regression report.  ``resume`` prints pure
JSON on stdout (scripts parse it); refusals exit with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ..cli import add_run_options, export_run_options
from ..errors import ReproError
from ..harness.ledger import Ledger, resume_experiment

#: Metric aliases accepted by ``--metric`` (anything else is looked up
#: as a SimulationStats attribute, so raw counters work too).
DEFAULT_METRIC = "uop_miss_rate"


def _metric_value(stats_payload: dict | None, metric: str) -> float | None:
    """Evaluate ``metric`` against a journaled stats dict.

    The stored payload is the raw ``dataclasses.asdict`` of a
    :class:`~repro.core.stats.SimulationStats` — counters only, no
    derived properties — so rebuild the object and ``getattr`` it:
    that resolves ``uop_miss_rate`` and friends as well as any field.
    """
    if stats_payload is None:
        return None
    from ..harness.runner import RunResult

    stats = RunResult.stats_from_json({"stats": stats_payload})
    value = getattr(stats, metric, None)
    if value is None or not isinstance(value, (int, float)):
        raise ReproError(
            f"unknown metric {metric!r}; use a SimulationStats field or "
            "property (e.g. uop_miss_rate, pw_miss_rate, uops_missed)"
        )
    return float(value)


def _open_ledger(args: argparse.Namespace) -> Ledger:
    ledger = Ledger.open(getattr(args, "ledger", None))
    if ledger is None:
        raise ReproError(
            "experiment ledger is disabled (REPRO_LEDGER=0)"
        )
    return ledger


def _find(ledger: Ledger, token: str):
    row = ledger.find(token)
    if row is None:
        raise ReproError(f"no experiment matches {token!r}")
    return row


def _emit(headers, rows, fmt: str, *, title: str | None = None) -> None:
    from ..harness.reporting import render_rows

    print(render_rows(headers, rows, fmt, title=title))


def _fmt(value: float | None, digits: int = 6) -> str:
    return "" if value is None else f"{value:.{digits}g}"


# -- experiments -----------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    from ..harness.experiments import run_recorded

    summary = run_recorded(
        args.figure,
        ledger=args.ledger,
        name=args.name,
        note=args.note,
        apps=tuple(args.apps.split(",")) if args.apps else None,
        policies=tuple(args.policies.split(",")) if args.policies else None,
        trace_len=args.trace_len,
    )
    summary.pop("result", None)  # tables render via `repro <figure>`
    print(json.dumps(summary, indent=2))
    return 0 if summary["state"] in ("COMPLETE", "unrecorded (REPRO_LEDGER=0)") else 1


def _cmd_resume(args: argparse.Namespace) -> int:
    summary = resume_experiment(
        args.experiment,
        path=args.ledger,
        jobs=args.jobs,
        on_error=args.on_error,
        timeout_s=args.timeout,
        force=args.force,
    )
    print(json.dumps(summary, indent=2))
    return 0 if summary["state"] in (None, "COMPLETE") else 1


def _experiment_rows(ledger: Ledger) -> tuple[tuple, list[tuple]]:
    headers = ("id", "name", "state", "done", "requests", "git", "elapsed_s",
               "note")
    rows = []
    for row in ledger.list_experiments():
        state = row["state"]
        if state == "RUNNING" and ledger.is_stale(row):
            state = "RUNNING (stale)"
        rows.append((
            row["id"], row["name"], state, row["done"], row["requests"],
            (row["git_hash"] or "")[:12],
            "" if row["elapsed_s"] is None else f"{row['elapsed_s']:.1f}",
            row["note"],
        ))
    return headers, rows


def _cmd_list(args: argparse.Namespace) -> int:
    ledger = _open_ledger(args)
    try:
        headers, rows = _experiment_rows(ledger)
    finally:
        ledger.close()
    _emit(headers, rows, args.format, title="== experiments ==")
    return 0


# -- query -----------------------------------------------------------------


def _cmd_query_results(args: argparse.Namespace) -> int:
    ledger = _open_ledger(args)
    try:
        row = _find(ledger, args.experiment)
        results = ledger.results_rows(int(row["id"]))
    finally:
        ledger.close()
    headers = ("idx", "app", "policy", "input", "trace_len", "status",
               "attempts", args.metric)
    rows = [
        (entry["idx"], entry["app"], entry["policy"], entry["input"],
         entry["trace_len"], entry["status"], entry["attempts"],
         _fmt(_metric_value(entry["stats"], args.metric)))
        for entry in results
    ]
    _emit(headers, rows, args.format,
          title=f"== experiment {row['id']} ({row['name']}) ==")
    return 0


def _cmd_query_delta(args: argparse.Namespace) -> int:
    """Join two experiments by cache key, diff the metric per request."""
    ledger = _open_ledger(args)
    try:
        row_a = _find(ledger, args.a)
        row_b = _find(ledger, args.b)
        results_a = ledger.results_rows(int(row_a["id"]))
        results_b = ledger.results_rows(int(row_b["id"]))
    finally:
        ledger.close()
    by_key = {entry["cache_key"]: entry for entry in results_b}
    headers = ("app", "policy", "input", "trace_len",
               f"{args.metric}@{row_a['id']}", f"{args.metric}@{row_b['id']}",
               "delta")
    rows = []
    unmatched = 0
    for entry in results_a:
        other = by_key.pop(entry["cache_key"], None)
        if other is None:
            unmatched += 1
            continue
        value_a = _metric_value(entry["stats"], args.metric)
        value_b = _metric_value(other["stats"], args.metric)
        delta = (
            None if value_a is None or value_b is None else value_b - value_a
        )
        rows.append((
            entry["app"], entry["policy"], entry["input"], entry["trace_len"],
            _fmt(value_a), _fmt(value_b),
            "" if delta is None else f"{delta:+.6g}",
        ))
    unmatched += len(by_key)
    title = (
        f"== {row_a['id']} ({(row_a['git_hash'] or '')[:12]}) vs "
        f"{row_b['id']} ({(row_b['git_hash'] or '')[:12]}) =="
    )
    _emit(headers, rows, args.format, title=title)
    if unmatched and args.format == "table":
        print(f"({unmatched} request(s) present in only one experiment)")
    return 0


# -- entry point -----------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ledger",
        help="ledger database path (default REPRO_LEDGER or "
             ".repro-cache/ledger.sqlite)",
    )


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("table", "csv", "json"), default="table",
        help="output rendering (default: table)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Durable experiment ledger: record, resume and query "
                    "experiment runs.",
    )
    top = parser.add_subparsers(dest="group", required=True)

    experiments = top.add_parser(
        "experiments", help="record, resume and list ledger experiments"
    )
    commands = experiments.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="run an experiment under ledger recording"
    )
    run.add_argument(
        "figure",
        help="experiment id (see 'repro list'), or 'bench' for a fast "
             "representative app x policy grid",
    )
    run.add_argument("--name", help="experiment name (default: the figure id)")
    run.add_argument("--note", default="", help="free-form note to store")
    add_run_options(run)
    run.add_argument("--policies",
                     help="bench only: comma-separated policy subset")
    _add_common(run)

    resume = commands.add_parser(
        "resume", help="replay the missing rows of a recorded experiment"
    )
    resume.add_argument(
        "experiment", help="experiment id, or latest run with this name"
    )
    add_run_options(resume, workload=False)
    resume.add_argument(
        "--force", action="store_true",
        help="take over even a RUNNING experiment with a fresh heartbeat,"
             " and merge journaled results recorded under another model"
             " version",
    )
    _add_common(resume)

    listing = commands.add_parser("list", help="list recorded experiments")
    _add_common(listing)
    _add_format(listing)

    query = top.add_parser(
        "query", help="render the ledger as table/csv/json"
    )
    query_commands = query.add_subparsers(dest="command", required=True)

    q_experiments = query_commands.add_parser(
        "experiments", help="one row per recorded experiment"
    )
    _add_common(q_experiments)
    _add_format(q_experiments)

    q_results = query_commands.add_parser(
        "results", help="per-request rows of one experiment"
    )
    q_results.add_argument("experiment")
    q_results.add_argument("--metric", default=DEFAULT_METRIC,
                           help=f"stats field/property (default "
                                f"{DEFAULT_METRIC})")
    _add_common(q_results)
    _add_format(q_results)

    q_delta = query_commands.add_parser(
        "delta", help="per-request metric deltas between two experiments"
    )
    q_delta.add_argument("a", help="baseline experiment id or name")
    q_delta.add_argument("b", help="comparison experiment id or name")
    q_delta.add_argument("--metric", default=DEFAULT_METRIC)
    _add_common(q_delta)
    _add_format(q_delta)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    export_run_options(args)

    handlers = {
        ("experiments", "run"): _cmd_run,
        ("experiments", "resume"): _cmd_resume,
        ("experiments", "list"): _cmd_list,
        ("query", "experiments"): _cmd_list,
        ("query", "results"): _cmd_query_results,
        ("query", "delta"): _cmd_query_delta,
    }
    try:
        return handlers[(args.group, args.command)](args)
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe early.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ReproError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"repro {args.group}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
