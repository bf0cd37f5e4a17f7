"""Parent side of the benchmark: repeats, metrics, correctness, output.

Every repeat runs in a fresh interpreter (``bench.child``) with its own
cache directory, ledger and temp directory under ``.bench_work/`` in
the checkout, and with every inherited ``REPRO_*`` variable removed, so
neither a warm ``.repro-cache/`` nor a stray knob can change the program
being measured.  The parent itself never imports ``repro``.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

from .workloads import WORKLOADS, Workload, child_env

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
DIGESTS_PATH = Path(__file__).resolve().parent / "expected_digests.json"

#: Fewest e2e repeats per run; more run while ``--seconds`` lasts.
MIN_REPEATS = 3
#: Every run must finish within this, whatever ``--seconds`` says.
DEADLINE_S = 170.0

UNITS = {
    "wall_s": "s",
    "lookups_per_s": "lookups/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "failed_ratio": "fraction",
    "workloads.generate_s": "s",
    "workloads.generate_lookups_per_s": "lookups/s",
    "workloads.cfg_build_s": "s",
    "workloads.trace_walk_s": "s",
    "workloads.generated": "count",
    "artifacts.trace_store_s": "s",
    "artifacts.trace_load_s": "s",
    "artifacts.trace_load_mib_per_s": "MiB/s",
    "policy.build_s": "s",
    "offline.build_s": "s",
    "offline.build_calls": "count",
    "offline.future_index_s": "s",
    "offline.intervals_s": "s",
    "offline.greedy_admission_s": "s",
    "offline.flow_admission_s": "s",
    "profiling.build_s": "s",
    "profiling.build_calls": "count",
    "profiling.profile_sim_s": "s",
    "profiling.hint_build_s": "s",
    "frontend.run_s": "s",
    "frontend.lookups_per_s": "lookups/s",
    "frontend.kernel_s": "s",
    "frontend.fallback_s": "s",
    "frontend.fallback_runs": "count",
    "frontend.kernel_share": "fraction",
    "runner.store_s": "s",
    "runner.probe_s": "s",
    "ledger.record_s": "s",
    "ledger.rows": "count",
    "ledger.db_mib": "MiB",
    "parallel.batch_speedup": "ratio",
    "parallel.dedup_ratio": "ratio",
    "parallel.fused_served": "count",
    "parallel.fallbacks": "count",
    "trace.wall_s": "s",
    "trace.attributed_s": "s",
    "trace.attributed_share": "fraction",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
    "trace.mismatches": "count",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def check_src(src: Path) -> None:
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {src}")


@contextmanager
def work_dir():
    """A private directory inside the checkout, removed afterwards."""
    parent = ROOT / ".bench_work"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            parent.rmdir()
        except OSError:
            pass


def run_child(mode: str, spec: dict, src: Path, repro_env: dict,
              cwd: Path, deadline: float) -> dict:
    """Run ``bench.child`` in a fresh interpreter and return its result."""
    tmp = cwd / "tmp"
    tmp.mkdir(exist_ok=True)
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONPATH"
    }
    env.update(repro_env, TMPDIR=str(tmp),
               PYTHONPATH=os.pathsep.join([str(src), str(ROOT)]))
    spec_path = cwd / f"{mode}-spec.json"
    spec = dict(spec, result=str(cwd / f"{mode}-result.json"),
                spawned=time.monotonic())
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench.child", mode, str(spec_path)],
        cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        err = None
    finally:
        # The child's own children (pool workers, resource tracker) share
        # its process group; none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if err is None:
        raise BenchError(f"{mode} repeat did not finish before the deadline")
    if proc.returncode != 0:
        raise BenchError(f"{mode} repeat failed:\n{err[-4000:]}")
    return json.loads(Path(spec["result"]).read_text())


def count_failures(rows: list[dict], expected: dict | None) -> tuple[int, int]:
    """``(checked, failed)`` over the distinct cache keys of one repeat.

    A key fails when any of its rows is not ``done``, when ``expected``
    (cache key -> stats sha256) is given and the key is missing from the
    rows, absent from ``expected``, or any row's digest differs.
    """
    by_key: dict[str, list] = {}
    for row in rows:
        by_key.setdefault(row["cache_key"], []).append(row)
    keys = set(by_key) | set(expected or ())
    failed = 0
    for key in keys:
        found = by_key.get(key, [])
        ok = bool(found) and all(row["status"] == "done" for row in found)
        if ok and expected is not None:
            ok = all(row["sha256"] == expected.get(key) for row in found)
        failed += not ok
    return len(keys), failed


def summarize(samples: list[float]) -> dict:
    if len(samples) > 1:
        q1, median, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = median = q3 = samples[0]
    return {"median": median, "q1": q1, "q3": q3, "samples": samples}


def _git_hash(src: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(src), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10.0,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def measure(workload: Workload, *, seed: int = 0, seconds: float = 0.0,
            traced: bool = False, src: Path = ROOT / "src",
            trace_len: int | None = None, repeats: int | None = None,
            expected: dict | None = None) -> dict:
    """Run one workload for at least ``repeats`` repeats and ``seconds``.

    ``trace_len`` overrides the workload's scale (the self-test runs
    every workload small).  ``expected`` maps cache keys to the stats
    digests every row must match.  A traced run pairs each e2e repeat
    with a traced replay and reports the per-layer metrics; an untraced
    run reports the end-to-end metrics.
    """
    check_src(src)
    apps = workload.apps_for_seed(seed)
    length = trace_len or workload.trace_len
    if repeats is None:
        repeats = 1 if traced else MIN_REPEATS
    spec = {
        "apps": list(apps),
        "trace_len": length,
        "figures": list(workload.figures),
        "inputs": [] if workload.cold else list(workload.inputs),
        "cold": workload.cold,
    }
    started = time.monotonic()
    deadline = started + DEADLINE_S
    samples: list[dict] = []
    checked = failed = 0
    last_s = 0.0
    # Past the fewest repeats, start another only if it fits in ``seconds``.
    while (len(samples) < repeats
           or time.monotonic() - started + last_s <= seconds):
        repeat_started = time.monotonic()
        with work_dir() as e2e_dir:
            e2e_env = child_env(workload, apps, length, str(e2e_dir))
            e2e = run_child("e2e", dict(spec, ledger=e2e_env["REPRO_LEDGER"]),
                            src, e2e_env, e2e_dir, deadline)
            n_keys, n_failed = count_failures(e2e["rows"], expected)
            checked += n_keys
            failed += n_failed
            if traced:
                with work_dir() as traced_dir:
                    traced_env = child_env(workload, apps, length,
                                           str(traced_dir))
                    layers = run_child(
                        "traced",
                        dict(spec, ledger=traced_env["REPRO_LEDGER"],
                             e2e_ledger=e2e_env["REPRO_LEDGER"],
                             experiments=e2e["experiments"]),
                        src, traced_env, traced_dir, deadline)
                failed += layers["trace.mismatches"] > 0
                samples.append(_layer_sample(layers, e2e))
            else:
                samples.append(_e2e_sample(e2e, n_failed / n_keys))
        last_s = time.monotonic() - repeat_started
    return {
        "apps": list(apps),
        "trace_len": length,
        "env": child_env(workload, apps, length, "<private>"),
        "versions": {"python": e2e["python"], "numpy": e2e["numpy"]},
        "repeats": len(samples),
        "correct": failed == 0,
        "attempted": checked,
        "failed": failed,
        "digests": {row["cache_key"]: row["sha256"] for row in e2e["rows"]},
        "metrics": {
            name: dict(unit=UNITS[name],
                       **summarize([sample[name] for sample in samples]))
            for name in samples[0]
        },
    }


def _e2e_sample(e2e: dict, failed_ratio: float) -> dict:
    lookups = sum({
        row["cache_key"]: row["trace_len"] for row in e2e["rows"]
    }.values())
    return {
        "wall_s": e2e["wall_s"],
        "lookups_per_s": lookups / e2e["wall_s"],
        "setup_s": e2e["setup_s"],
        "peak_rss_mib": e2e["peak_rss_mib"],
        "failed_ratio": failed_ratio,
    }


def _layer_sample(layers: dict, e2e: dict) -> dict:
    """The traced replay's metrics plus those read from its e2e repeat."""
    rows = e2e["rows"]
    return dict(layers, **{
        "workloads.generated": e2e["generated"],
        "parallel.batch_speedup": layers["trace.attributed_s"] / e2e["wall_s"],
        "parallel.dedup_ratio":
            len(rows) / len({row["cache_key"] for row in rows}),
        "parallel.fused_served": e2e["fused_served"],
        "parallel.fallbacks": e2e["fallbacks"],
        "trace.overhead_s": layers["trace.wall_s"] - e2e["wall_s"],
    })


def expected_digests(name: str) -> dict | None:
    """Recorded digests of a workload at its own scale.

    Seeds only reorder the apps, so every seed issues the same requests
    and one set of digests serves them all.
    """
    if not DIGESTS_PATH.exists():
        return None
    return json.loads(DIGESTS_PATH.read_text()).get(name)


def run(names: list[str], *, seed: int, seconds: float, traced: bool,
        src: Path, repeats: int | None = None) -> dict:
    """Measure each named workload; returns one output record."""
    results = {}
    for name in names:
        results[name] = measure(
            WORKLOADS[name], seed=seed, seconds=seconds, traced=traced,
            src=src, repeats=repeats,
            expected=expected_digests(name),
        )
    versions = next(iter(results.values()))["versions"]
    return {
        "provenance": {
            "git_hash": _git_hash(src),
            "nproc": os.cpu_count(),
            **versions,
        },
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "workloads": {
            name: {k: v for k, v in result.items()
                   if k not in ("digests", "versions")}
            for name, result in results.items()
        },
    }


def declared_metrics(traced: bool) -> list[dict]:
    return BENCHMARK["per_layer" if traced else "end_to_end"]


def report(record: dict) -> str:
    """Human-readable table of every metric of every workload."""
    lines = [f"provenance: {json.dumps(record['provenance'])}"]
    for name, result in record["workloads"].items():
        lines.append(
            f"\n== {name}  apps={','.join(result['apps'])}  "
            f"trace_len={result['trace_len']}  repeats={result['repeats']}  "
            f"correct={result['correct']} ({result['failed']} failed of "
            f"{result['attempted']})")
        lines.append(f"   env: {json.dumps(result['env'])}")
        for metric, value in result["metrics"].items():
            lines.append(
                f"   {metric:<34} {value['median']:>14.6g} {value['unit']:<10}"
                f" q1={value['q1']:.6g} q3={value['q3']:.6g}")
    return "\n".join(lines)


def result_line(record: dict) -> dict:
    """The final stdout line: declared metrics only, medians as values.

    With several workloads each metric name is prefixed with its
    workload's name.
    """
    workloads = record["workloads"]
    declared = [m["name"] for m in declared_metrics(record["traced"])]
    metrics = {}
    for name, result in workloads.items():
        prefix = f"{name}." if len(workloads) > 1 else ""
        for metric in declared:
            value = result["metrics"][metric]
            metrics[prefix + metric] = {
                "value": value["median"], "unit": value["unit"]}
    return {
        "correct": all(r["correct"] for r in workloads.values()),
        "attempted": sum(r["attempted"] for r in workloads.values()),
        "failed": sum(r["failed"] for r in workloads.values()),
        "metrics": metrics,
    }


def append_output(path: Path, record: dict) -> None:
    """Add ``record`` to the ``runs`` list of the JSON file at ``path``."""
    data = json.loads(path.read_text()) if path.exists() else {"runs": []}
    data["runs"].append(record)
    path.write_text(json.dumps(data, indent=1) + "\n")


def record_digests(src: Path) -> dict:
    """Digests of every workload at seed 0, checked by the traced oracle."""
    digests = {}
    for name, workload in WORKLOADS.items():
        result = measure(workload, seed=0, traced=True, src=src)
        if not result["correct"]:
            raise BenchError(f"{name}: traced replay disagrees with e2e run")
        digests[name] = dict(sorted(result["digests"].items()))
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1) + "\n")
    return digests
