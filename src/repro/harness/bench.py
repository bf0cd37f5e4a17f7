"""Correctness proofs of the batch engine (``repro bench --chaos`` and
``repro bench --chaos-resume``) and the representative figure batch.

:func:`chaos_smoke` injects a worker crash, a hang and a corrupt cache
artifact into a parallel batch and checks it against a clean serial
run; :func:`chaos_resume_proof` SIGKILLs a recorded experiment
mid-batch and checks that resuming it re-executes nothing journaled.
:func:`representative_requests` is the Figure 5/8-shaped batch both
proofs and the ledger's ``"bench"`` experiment run.  Performance is
measured elsewhere, by the ``bench`` package (``python3 -m bench``).
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from .. import faultinject
from ..workloads.registry import clear_trace_cache, get_trace
from .parallel import resolve_jobs, run_batch
from .runner import RunRequest, clear_memory_cache

#: Policies of the default bench batch: the Figure 5/8 comparison mix.
BENCH_POLICIES = ("lru", "srrip", "ghrp", "flack", "furbys")
BENCH_APPS = ("kafka", "clang", "postgres")


def representative_requests(
    apps: tuple[str, ...] = BENCH_APPS,
    policies: tuple[str, ...] = BENCH_POLICIES,
    trace_len: int | None = None,
) -> list[RunRequest]:
    """A figure-shaped batch: every policy on every app."""
    return [
        RunRequest(app=app, policy=policy, trace_len=trace_len)
        for app in apps
        for policy in policies
    ]


def _cold_start() -> None:
    clear_memory_cache()
    clear_trace_cache()


_CHAOS_ENV = (
    "REPRO_CACHE", "REPRO_CACHE_DIR", "REPRO_FAULT_SPEC", "REPRO_FAULT_STATE",
)


def chaos_smoke(
    apps: tuple[str, ...] = ("kafka", "clang"),
    policies: tuple[str, ...] = BENCH_POLICIES,
    trace_len: int = 6_000,
    jobs: int | None = None,
    timeout_s: float = 60.0,
) -> dict:
    """Prove the fault-tolerance claim end to end (``repro bench --chaos``).

    Runs a two-figure-shaped batch twice: once serially with no faults
    (the reference), then in parallel under ``on_error="retry"`` with
    three injected faults — one worker crash, one worker hang (long
    enough that the per-chunk timeout must fire), and one corrupted
    disk-cached trace artifact.  Passes when the chaotic run's results
    are bit-identical to the clean serial run *and* every injected
    fault shows up in the batch's fault counters.

    The crash targets task 0 and the hang task 1: chunk-mates, executed
    sequentially by one worker, so the crash always precedes the hang —
    the crash is observed in round one (``BrokenProcessPool``), and the
    hang first fires on the round-two singleton resubmission, where the
    per-chunk timeout must catch it.  The trace cache is pre-warmed in
    a private directory so the corruption fault has a real artifact to
    garble; fault once-state lives in a fresh directory so repeated
    invocations re-inject.
    """
    requests = representative_requests(
        apps=apps, policies=policies, trace_len=trace_len
    )
    jobs = max(2, resolve_jobs(jobs)) if jobs is not None else 2
    spec = "task:0:crash;task:1:hang=900;artifact:trace:corrupt"
    state_dir = tempfile.mkdtemp(prefix="repro-chaos-state-")
    cache_dir = tempfile.mkdtemp(prefix="repro-chaos-cache-")
    saved = {name: os.environ.get(name) for name in _CHAOS_ENV}
    try:
        # Fault-free serial reference, no caches in play.
        os.environ["REPRO_CACHE"] = "0"
        os.environ.pop("REPRO_FAULT_SPEC", None)
        os.environ.pop("REPRO_FAULT_STATE", None)
        faultinject.reset_plan_cache()
        _cold_start()
        started = time.perf_counter()
        serial_stats, serial_report = run_batch(requests, jobs=1)
        serial_s = time.perf_counter() - started

        # Chaos arm: private disk cache, trace entries pre-warmed so
        # the artifact fault has something to corrupt.
        os.environ["REPRO_CACHE"] = "1"
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        _cold_start()
        for request in requests:
            get_trace(
                request.app, request.input_name, request.resolved_trace_len()
            )
        _cold_start()

        os.environ["REPRO_FAULT_SPEC"] = spec
        os.environ["REPRO_FAULT_STATE"] = state_dir
        faultinject.reset_plan_cache()
        started = time.perf_counter()
        chaos_stats, chaos_report = run_batch(
            requests, jobs=jobs, on_error="retry", timeout_s=timeout_s
        )
        chaos_s = time.perf_counter() - started
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        faultinject.reset()
        _cold_start()
        shutil.rmtree(state_dir, ignore_errors=True)
        shutil.rmtree(cache_dir, ignore_errors=True)

    identical = len(chaos_stats) == len(serial_stats) and all(
        a is not None
        and b is not None
        and dataclasses.asdict(a) == dataclasses.asdict(b)
        for a, b in zip(chaos_stats, serial_stats)
    )
    faults = chaos_report.faults
    accounted = (
        faults.crashed >= 1
        and faults.timed_out >= 1
        and faults.corrupt_artifacts >= 1
        and faults.retried >= 2
    )
    return {
        "requests": len(requests),
        "jobs": jobs,
        "spec": spec,
        "timeout_s": timeout_s,
        "serial_s": round(serial_s, 3),
        "chaos_s": round(chaos_s, 3),
        "identical_results": identical,
        "faults_accounted": accounted,
        "chaos_report": chaos_report.to_json(),
        "serial_report": serial_report.to_json(),
    }


_RESUME_ENV = _CHAOS_ENV + ("REPRO_LEDGER", "REPRO_HEARTBEAT_S")


def _ledger_cli(argv: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    """Run ``repro <argv>`` as a subprocess with ``src`` on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[2])
    merged = dict(os.environ)
    merged.update(env)
    merged["PYTHONPATH"] = (
        src + os.pathsep + merged["PYTHONPATH"]
        if merged.get("PYTHONPATH") else src
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True, timeout=timeout, env=merged,
    )


def chaos_resume_proof(
    apps: tuple[str, ...] = ("kafka", "clang"),
    policies: tuple[str, ...] = BENCH_POLICIES,
    trace_len: int = 2_000,
    timeout_s: float = 6.0,
) -> dict:
    """End-to-end ledger durability proof (``repro bench --chaos-resume``).

    Three arms against one private ledger database:

    1. **Reference** — the ``bench`` request grid recorded cleanly
       in-process (experiment ``ref``).
    2. **Chaos** — the same grid via a real ``repro experiments run``
       subprocess with a worker crash, a worker hang (caught by the
       per-chunk timeout) *and* ``exp:<n>:kill`` armed: the parent
       SIGKILLs itself inside the journal commit that lands the final
       result, so every row is journaled but the experiment dies
       RUNNING — heartbeat thread, SQLite connection and all, exactly
       like an OOM kill.
    3. **Resume** — after the heartbeat goes stale, ``repro experiments
       resume`` in a second subprocess with ``ledger:rows:corrupt``
       armed, tearing one journaled row mid-takeover.

    Passes when the kill/crash/hang claims all fired, the resume served
    every intact row from the ledger with zero re-execution (exactly
    one row — the torn one — is recomputed), the final per-request
    stats are bit-identical to the reference experiment, and ``repro
    query delta`` reports zero delta on every request.  Disk caches are
    off throughout (``REPRO_CACHE=0``), so the ledger is the only thing
    standing between the SIGKILL and a from-scratch rerun.
    """
    total = len(apps) * len(policies)
    spec = f"task:0:crash;task:1:hang=12;exp:{total}:kill"
    state_dir = tempfile.mkdtemp(prefix="repro-chaos-resume-state-")
    ledger_dir = tempfile.mkdtemp(prefix="repro-chaos-resume-ledger-")
    db_path = os.path.join(ledger_dir, "ledger.sqlite")
    saved = {name: os.environ.get(name) for name in _RESUME_ENV}
    outcome: dict = {
        "requests": total, "spec": spec, "timeout_s": timeout_s,
    }
    try:
        # Arm 1: clean in-process reference recording.
        os.environ["REPRO_CACHE"] = "0"
        for name in ("REPRO_FAULT_SPEC", "REPRO_FAULT_STATE"):
            os.environ.pop(name, None)
        faultinject.reset_plan_cache()
        _cold_start()
        from .experiments import run_recorded

        reference = run_recorded(
            "bench", ledger=db_path, name="ref",
            apps=apps, policies=policies, trace_len=trace_len,
        )
        outcome["reference"] = reference

        # Arm 2: recorded run in a subprocess, SIGKILLed by the final
        # journal commit (plus one crash and one timed-out hang).
        chaos_env = {
            "REPRO_CACHE": "0",
            "REPRO_FAULT_SPEC": spec,
            "REPRO_FAULT_STATE": state_dir,
            "REPRO_HEARTBEAT_S": "0.2",
        }
        run_argv = [
            "experiments", "run", "bench", "--name", "chaos",
            "--ledger", db_path, "--apps", ",".join(apps),
            "--policies", ",".join(policies),
            "--trace-len", str(trace_len), "--jobs", "2",
            "--on-error", "retry", "--timeout", str(timeout_s),
        ]
        started = time.perf_counter()
        chaos = _ledger_cli(run_argv, chaos_env, timeout=300.0)
        outcome["chaos_s"] = round(time.perf_counter() - started, 3)
        outcome["sigkilled"] = chaos.returncode == -signal.SIGKILL
        outcome["claims_fired"] = {
            claim: os.path.exists(
                os.path.join(state_dir, f"{claim}.fired")
            )
            for claim in ("task-0-crash", "task-1-hang", f"exp-{total}-kill")
        }

        from .ledger import Ledger

        ledger = Ledger.open(db_path)
        row = ledger.find("chaos")
        chaos_id = int(row["id"]) if row is not None else None
        outcome["state_after_kill"] = row["state"] if row is not None else None
        outcome["journaled_before_resume"] = (
            len(ledger.done_keys(chaos_id)) if chaos_id is not None else 0
        )
        ledger.close()

        # Arm 3: wait out the (fast) heartbeat staleness window, then
        # resume in a second subprocess with one torn row injected.
        time.sleep(1.6)
        resume_env = {
            "REPRO_CACHE": "0",
            "REPRO_FAULT_SPEC": "ledger:rows:corrupt",
            "REPRO_FAULT_STATE": state_dir,
        }
        resume = _ledger_cli(
            ["experiments", "resume", "chaos", "--ledger", db_path,
             "--jobs", "1"],
            resume_env, timeout=300.0,
        )
        outcome["resume_exit"] = resume.returncode
        try:
            summary = json.loads(resume.stdout)
        except ValueError:
            summary = {"stdout": resume.stdout, "stderr": resume.stderr}
        outcome["resume"] = summary

        # Verdicts: the torn row is the only re-execution, the takeover
        # was noted, and the merged rows match the reference bit for bit.
        journaled = outcome["journaled_before_resume"]
        served = summary.get("ledger_served")
        outcome["zero_reexecution_of_journaled"] = (
            summary.get("state") == "COMPLETE"
            and served == journaled - 1
            and summary.get("re_executed") == total - served
            and summary.get("memory_hits") == served
        )
        notes = (summary.get("faults") or {}).get("notes") or {}
        outcome["takeover_noted"] = bool(notes.get("note:ledger_takeover"))

        ledger = Ledger.open(db_path)
        ref_rows = {
            entry["cache_key"]: entry["stats"]
            for entry in ledger.results_rows(int(reference["id"]))
        }
        chaos_rows = {
            entry["cache_key"]: entry["stats"]
            for entry in ledger.results_rows(chaos_id)
        } if chaos_id is not None else {}
        ledger.close()
        outcome["identical_results"] = (
            len(ref_rows) == total
            and ref_rows == chaos_rows
            and None not in ref_rows.values()
        )

        # The query CLI ties it off: per-request deltas, all zero.
        delta = _ledger_cli(
            ["query", "delta", str(reference["id"]), str(chaos_id),
             "--ledger", db_path, "--format", "json"],
            {"REPRO_CACHE": "0"}, timeout=120.0,
        )
        try:
            delta_rows = json.loads(delta.stdout)
        except ValueError:
            delta_rows = []
        outcome["query_delta_ok"] = (
            delta.returncode == 0
            and len(delta_rows) == total
            and all(entry["delta"] == "+0" for entry in delta_rows)
        )
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        faultinject.reset()
        _cold_start()
        shutil.rmtree(state_dir, ignore_errors=True)
        shutil.rmtree(ledger_dir, ignore_errors=True)

    outcome["passed"] = bool(
        outcome.get("sigkilled")
        and all(outcome.get("claims_fired", {}).values())
        and outcome.get("state_after_kill") == "RUNNING"
        and outcome.get("journaled_before_resume") == total
        and outcome.get("zero_reexecution_of_journaled")
        and outcome.get("takeover_noted")
        and outcome.get("identical_results")
        and outcome.get("query_delta_ok")
    )
    return outcome
