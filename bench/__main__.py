"""Command line of the benchmark; see ``bench/README.md``.

    python3 -m bench [--workload NAME[,NAME...]] [--seed N] [--seconds S]
                     [--trace 0|1] [--repeats N] [--src PATH] [--output FILE]
    python3 -m bench compare BASE.json NEW.json
    python3 -m bench record-digests [--src PATH]

The last line printed by a run is one JSON object with ``correct``,
``attempted``, ``failed`` and the declared metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness
from .compare import compare
from .workloads import WORKLOADS


def _workloads(text: str) -> list[str]:
    names = [name for name in text.split(",") if name]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown or not names:
        raise argparse.ArgumentTypeError(
            f"unknown workload(s) {unknown}; choose from {list(WORKLOADS)}")
    return names


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="python3 -m bench compare")
        parser.add_argument("base", type=Path)
        parser.add_argument("new", type=Path)
        args = parser.parse_args(argv[1:])
        rows, table = compare(args.base, args.new)
        print(table)
        return 1 if any(row["verdict"] == "regressed" for row in rows) else 0

    parser = argparse.ArgumentParser(prog="python3 -m bench")
    if argv[:1] == ["record-digests"]:
        parser.add_argument("--src", type=Path, default=harness.ROOT / "src")
        args = parser.parse_args(argv[1:])
        digests = harness.record_digests(args.src.resolve())
        print(f"recorded {sum(map(len, digests.values()))} digests in "
              f"{harness.DIGESTS_PATH}")
        return 0

    parser.add_argument("--workload", type=_workloads, default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=harness.BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=None,
                        help="fewest repeats (default: 3 e2e, 1 traced)")
    parser.add_argument("--src", type=Path, default=harness.ROOT / "src",
                        help="the src/ directory of the checkout to measure")
    parser.add_argument("--output", type=Path,
                        help="append this run to a JSON file")
    args = parser.parse_args(argv)
    record = harness.run(
        args.workload, seed=args.seed, seconds=args.seconds,
        traced=bool(args.trace), src=args.src.resolve(), repeats=args.repeats)
    if args.output is not None:
        harness.append_output(args.output, record)
    line = harness.result_line(record)
    print(harness.report(record))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except harness.BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
