"""``repro-trace`` / ``repro trace`` — generate, inspect and convert PW traces.

Subcommands::

    repro-trace generate kafka out.trace --lookups 40000 --input alt-seed
    repro-trace stats out.trace
    repro-trace head out.trace --count 20
    repro-trace apps
    repro trace inspect out.trace          # metadata + totals, any format
    repro trace convert out.trace out.bin  # v1 text <-> v2 binary
    repro trace gen kafka out.bin --format v2

Traces come in two formats (see :mod:`repro.core.trace`): the
line-oriented v1 text format, which diffs and compresses well, and the
struct-packed v2 binary format the disk trace cache uses (~10x smaller,
loads without parsing).  Reading commands sniff the format from the
file's magic; ``convert`` translates between them losslessly.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from ..core.trace import BINARY_MAGIC, Trace
from ..workloads.apps import app_names, get_profile
from ..workloads.generator import reuse_distance_tail
from ..workloads.registry import available_inputs, get_trace


def _trace_format(path: str) -> str:
    """``"v2"`` when the file carries the binary magic, else ``"v1"``."""
    with open(path, "rb") as stream:
        return "v2" if stream.read(len(BINARY_MAGIC)) == BINARY_MAGIC else "v1"


def _cmd_apps(_: argparse.Namespace) -> int:
    for app in app_names():
        profile = get_profile(app)
        inputs = ",".join(available_inputs(app))
        print(f"{app:12s} mpki={profile.branch_mpki:<5} "
              f"functions={profile.functions:<5} inputs={inputs}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    trace = get_trace(args.app, args.input, args.lookups)
    trace.save(args.output)
    print(f"wrote {len(trace)} lookups ({trace.total_uops} uops) "
          f"to {args.output}")
    return 0


def _cmd_head(args: argparse.Namespace) -> int:
    trace = Trace.load_any(args.trace)
    print("start        uops insts bytes branch mispred")
    for lookup in trace.lookups[: args.count]:
        print(f"{lookup.start:#010x}  {lookup.uops:4d} {lookup.insts:5d} "
              f"{lookup.bytes_len:5d} {int(lookup.terminated_by_branch):6d} "
              f"{int(lookup.mispredicted):7d}")
    return 0


def _histogram(counter: Counter, *, width: int = 40) -> list[str]:
    total = sum(counter.values())
    lines = []
    for key in sorted(counter):
        share = counter[key] / total
        bar = "#" * max(1, round(share * width))
        lines.append(f"  {key:>4}: {bar} {share * 100:.1f}%")
    return lines


def _cmd_stats(args: argparse.Namespace) -> int:
    trace = Trace.load_any(args.trace)
    meta = trace.metadata
    insts = trace.total_instructions
    print(f"app={meta.app} input={meta.input_name} seed={meta.seed}")
    print(f"lookups            : {len(trace)}")
    print(f"micro-ops          : {trace.total_uops} "
          f"({trace.total_uops / max(1, len(trace)):.2f}/PW)")
    print(f"instructions       : {insts}")
    print(f"distinct PW starts : {len(trace.unique_starts())}")
    print(f"branch PWs         : {trace.total_branches} "
          f"({trace.total_branches / max(1, len(trace)) * 100:.1f}%)")
    print(f"mispredict MPKI    : "
          f"{1000 * trace.total_mispredictions / max(1, insts):.2f}")
    sizes = Counter(min(4, (pw.uops + 7) // 8) for pw in trace)
    print("PW size distribution (entries, 4 = 4+):")
    print("\n".join(_histogram(sizes)))
    if args.reuse:
        sample = trace.slice(0, min(len(trace), 8000))
        tail = reuse_distance_tail(sample, threshold=30)
        print(f"reuse distance > 30 (first {len(sample)} lookups): "
              f"{tail * 100:.1f}% of reuses")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    if args.cache_stats:
        from ..workloads.registry import trace_cache_cap, trace_cache_stats

        stats = trace_cache_stats()
        cap = trace_cache_cap()
        print(f"registry LRU cap   : {cap}"
              f"{' (unbounded)' if cap <= 0 else ''}")
        print(f"memory-resident    : {stats['cached']}")
        print(f"memory hits        : {stats['memory_hits']}")
        print(f"disk hits          : {stats['disk_hits']}")
        print(f"generated (misses) : {stats['generated']}")
        print(f"LRU evictions      : {stats['evictions']}")
        print(f"CFG builds         : {stats['cfg_builds']}")
        print(f"CFG reuses         : {stats['cfg_reuses']}")
        from ..harness.resilience import global_counters

        sim_fallbacks = {
            name: count
            for name, count in sorted(global_counters().items())
            if name.startswith("sim_fallback:")
        }
        print(f"sim kernel fallbacks: {sum(sim_fallbacks.values())}")
        for name, count in sim_fallbacks.items():
            print(f"  {name.removeprefix('sim_fallback:'):24s}: {count}")
        from ..core.trace import memo_census

        census = memo_census()
        holder = census["holder"]
        print("memo holder        : "
              + ("none" if holder is None
                 else "{} input={} lookups={}".format(*holder)))
        print(f"memo entries       : {census['entries']} "
              f"({census['evicted']} dropped)")
        for kind, count in sorted(census["kinds"].items()):
            print(f"  {kind:24s}: {count}")
        from ..harness.artifacts import census as store_census

        for tier, counts in store_census().items():
            print(f"store {tier:13s}: "
                  + " ".join(f"{kind}={n}" for kind, n in counts.items()))
        if args.trace is None:
            return 0
    if args.trace is None:
        print("repro-trace inspect: a trace file is required "
              "(or pass --cache-stats)", file=sys.stderr)
        return 2
    fmt = _trace_format(args.trace)
    trace = Trace.load_any(args.trace)
    meta = trace.metadata
    insts = trace.total_instructions
    size = Path(args.trace).stat().st_size
    print(f"format             : {'v2 binary' if fmt == 'v2' else 'v1 text'} "
          f"({size} bytes)")
    print(f"app={meta.app} input={meta.input_name} seed={meta.seed}")
    if meta.description:
        print(f"description        : {meta.description}")
    print(f"lookups            : {len(trace)}")
    print(f"micro-ops          : {trace.total_uops}")
    print(f"instructions       : {insts}")
    print(f"branch PWs         : {trace.total_branches}")
    print(f"mispredict MPKI    : "
          f"{1000 * trace.total_mispredictions / max(1, insts):.2f}")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    source = _trace_format(args.trace)
    target = args.to or ("v1" if source == "v2" else "v2")
    trace = Trace.load_any(args.trace)
    if target == "v2":
        trace.save_binary(args.output)
    else:
        trace.save(args.output)
    print(f"converted {len(trace)} lookups: {args.trace} ({source}) -> "
          f"{args.output} ({target})")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    trace = get_trace(args.app, args.input, args.lookups)
    if args.format == "v2":
        trace.save_binary(args.output)
    else:
        trace.save(args.output)
    print(f"wrote {len(trace)} lookups ({trace.total_uops} uops) "
          f"to {args.output} ({args.format})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Generate and inspect micro-op cache PW traces.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("apps", help="list available applications")

    generate = commands.add_parser("generate", help="write a trace file")
    generate.add_argument("app")
    generate.add_argument("output")
    generate.add_argument("--input", default="default")
    generate.add_argument("--lookups", type=int, default=None)

    head = commands.add_parser("head", help="print the first lookups")
    head.add_argument("trace")
    head.add_argument("--count", type=int, default=20)

    stats = commands.add_parser("stats", help="summarize a trace file")
    stats.add_argument("trace")
    stats.add_argument("--reuse", action="store_true",
                       help="also compute the reuse-distance tail (slow)")

    inspect = commands.add_parser(
        "inspect", help="metadata + totals of a trace file (any format)"
    )
    inspect.add_argument("trace", nargs="?", default=None)
    inspect.add_argument(
        "--cache-stats", action="store_true",
        help="print the registry LRU counters, the memo holder and the "
        "artifact store census (entries per kind in memory, on disk, corrupt)",
    )

    convert = commands.add_parser(
        "convert", help="translate a trace between v1 text and v2 binary"
    )
    convert.add_argument("trace")
    convert.add_argument("output")
    convert.add_argument("--to", choices=("v1", "v2"), default=None,
                         help="target format (default: the other one)")

    gen = commands.add_parser(
        "gen", help="export a workload trace to disk"
    )
    gen.add_argument("app")
    gen.add_argument("output")
    gen.add_argument("--input", default="default")
    gen.add_argument("--lookups", type=int, default=None)
    gen.add_argument("--format", choices=("v1", "v2"), default="v2")

    args = parser.parse_args(argv)
    handlers = {
        "apps": _cmd_apps,
        "generate": _cmd_generate,
        "head": _cmd_head,
        "stats": _cmd_stats,
        "inspect": _cmd_inspect,
        "convert": _cmd_convert,
        "gen": _cmd_gen,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
