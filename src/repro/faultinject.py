"""Deterministic, env-gated fault injection for the execution stack.

The resilience layer (:mod:`repro.harness.resilience`,
``harness/parallel.py``) claims to survive worker crashes, hangs and
corrupt cache artifacts.  This module makes those conditions
*reproducible on demand* so the chaos suite
(``tests/test_resilience.py``) and ``repro bench --chaos`` can prove
the claim: with no ``REPRO_FAULT_SPEC`` in the environment every hook
is a no-op costing one attribute check.

Spec grammar (``REPRO_FAULT_SPEC``, ``;``-separated faults)::

    task:<n>:crash            worker task #n calls os._exit(1) mid-chunk
    task:<n>:hang[=<secs>]    worker task #n sleeps (default 300s) so the
                              per-chunk timeout fires
    task:<n>:raise            worker task #n raises FaultInjectionError
    artifact:<kind>:corrupt   garble the next <kind>-artifact file read
                              (kind: stats|hitstats|profile|trace|ledger)
    exp:<n>:kill              SIGKILL the experiment process the moment
                              its ledger journal commits result #n — the
                              durable analog of task:crash (the process
                              dies with journaled chunks on disk)
    ledger:rows:corrupt       garble one journaled result row in the
                              experiment ledger before the next resume
                              verifies it (simulating a torn DB write)

Task numbers count the batch's cold (post-dedup, post-cache-probe)
requests in submission order, so a spec names the same simulation every
run.  Each fault fires **exactly once per state directory**: firing
atomically claims a marker file under ``REPRO_FAULT_STATE`` (created
with ``open(..., "x")``), which is what keeps retries convergent — a
crashed task, resubmitted after the pool rebuild, finds its fault
already claimed and completes normally.  Point ``REPRO_FAULT_STATE`` at
a fresh directory per chaos run; when unset, a spec-keyed directory
under the system temp dir is used (stale claims from a previous run
with the same spec then suppress refiring — fine for tests, which pass
an explicit directory).  :func:`reset` removes the claim files of every
plan this process has seen, so chaos runs do not leak ``*.fired``
markers into the temp dir.

Faults only arm inside pool workers, the artifact paths, and the
experiment-ledger journal/resume hooks; a request run in the parent
never injects, so a fault-free serial run is always available as the
bit-identity reference.
"""

from __future__ import annotations

import hashlib
import os
import signal
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from .errors import FaultInjectionError

__all__ = [
    "FaultPlan",
    "active_plan",
    "maybe_corrupt_artifact",
    "maybe_corrupt_ledger_rows",
    "maybe_kill_experiment",
    "on_worker_task",
    "reset",
    "reset_plan_cache",
]

#: Bytes written over a corrupted artifact: long enough to survive the
#: magic-sniffing in Trace.load_any, invalid in every format.
_GARBAGE = b"\x00repro-fault-injected-corruption\xff" * 4

ARTIFACT_KINDS = ("stats", "hitstats", "profile", "trace", "ledger")


@dataclass(frozen=True, slots=True)
class _Fault:
    """One parsed fault: where it hooks, what it does, once-claim id."""

    kind: str  # "task" | "artifact" | "exp" | "ledger"
    target: str  # task/result index / artifact kind / "rows"
    action: str  # "crash" | "hang" | "raise" | "corrupt" | "kill"
    arg: float | None = None

    @property
    def claim_id(self) -> str:
        return f"{self.kind}-{self.target}-{self.action}"


def _parse_fault(text: str) -> _Fault:
    parts = text.strip().split(":")
    if len(parts) != 3:
        raise FaultInjectionError(
            f"bad fault {text!r}: expected kind:target:action"
        )
    kind, target, action = (part.strip() for part in parts)
    arg: float | None = None
    if "=" in action:
        action, _, raw = action.partition("=")
        try:
            arg = float(raw)
        except ValueError as exc:
            raise FaultInjectionError(
                f"bad fault argument in {text!r}: {raw!r}"
            ) from exc
    valid = {
        "task": ("crash", "hang", "raise"),
        "artifact": ("corrupt",),
        "exp": ("kill",),
        "ledger": ("corrupt",),
    }
    if kind not in valid:
        raise FaultInjectionError(f"unknown fault kind {kind!r} in {text!r}")
    if action not in valid[kind]:
        raise FaultInjectionError(
            f"fault kind {kind!r} does not support action {action!r}"
        )
    if kind in ("task", "exp"):
        try:
            int(target)
        except ValueError as exc:
            raise FaultInjectionError(
                f"{kind} fault needs an integer index, got {target!r}"
            ) from exc
    if kind == "artifact" and target not in ARTIFACT_KINDS:
        raise FaultInjectionError(
            f"unknown artifact kind {target!r}; choose from {ARTIFACT_KINDS}"
        )
    return _Fault(kind=kind, target=target, action=action, arg=arg)


class FaultPlan:
    """The parsed spec plus the cross-process once-per-fault state."""

    def __init__(self, spec: str, state_dir: Path):
        self.spec = spec
        self.state_dir = state_dir
        self.faults = tuple(
            _parse_fault(part) for part in spec.split(";") if part.strip()
        )

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        spec = os.environ.get("REPRO_FAULT_SPEC", "").strip()
        if not spec:
            return None
        state = os.environ.get("REPRO_FAULT_STATE", "").strip()
        if not state:
            digest = hashlib.sha256(spec.encode()).hexdigest()[:12]
            state = str(Path(tempfile.gettempdir()) / f"repro-faults-{digest}")
        return cls(spec, Path(state))

    def _claim(self, fault: _Fault) -> bool:
        """Atomically claim one firing; False when already fired.

        ``open(..., "x")`` is the cross-process arbiter: of all workers
        (and the parent) racing to fire one fault, exactly one wins.
        """
        try:
            self.state_dir.mkdir(parents=True, exist_ok=True)
            with open(self.state_dir / f"{fault.claim_id}.fired", "x") as f:
                f.write(f"pid={os.getpid()}\n")
            return True
        except FileExistsError:
            return False
        except OSError:
            # An unwritable state dir must not take the harness down;
            # better to skip injection than to inject unboundedly.
            return False

    def fire_task_faults(self, task_index: int) -> None:
        for fault in self.faults:
            if fault.kind != "task" or int(fault.target) != task_index:
                continue
            if not self._claim(fault):
                continue
            if fault.action == "crash":
                os._exit(1)
            if fault.action == "hang":
                time.sleep(fault.arg if fault.arg is not None else 300.0)
                continue
            raise FaultInjectionError(
                f"injected failure for worker task #{task_index}"
            )

    def corrupt_artifact(self, path: Path, kind: str) -> bool:
        """Garble ``path`` before a read of a ``kind`` artifact; True if hit."""
        for fault in self.faults:
            if fault.kind != "artifact" or fault.target != kind:
                continue
            if not self._claim(fault):
                continue
            try:
                path.write_bytes(_GARBAGE)
            except OSError:
                return False
            return True
        return False

    def kill_experiment(self, recorded: int) -> None:
        """SIGKILL this process once ``recorded`` reaches the threshold.

        A real SIGKILL (not an exception): finally-blocks, heartbeat
        threads and the SQLite connection all die with the process,
        exactly like an OOM kill mid-experiment.
        """
        for fault in self.faults:
            if fault.kind != "exp" or fault.action != "kill":
                continue
            if recorded < int(fault.target):
                continue
            if self._claim(fault):
                os.kill(os.getpid(), signal.SIGKILL)

    def corrupt_ledger_rows(self, connection, experiment_id: int) -> bool:
        """Garble one journaled result row of ``experiment_id``.

        Emulates a torn write inside the ledger DB file: the row still
        exists but its stats payload no longer matches its sha256, so
        the resume path must detect and re-execute it.
        """
        for fault in self.faults:
            if fault.kind != "ledger" or fault.action != "corrupt":
                continue
            if not self._claim(fault):
                continue
            row = connection.execute(
                "SELECT idx FROM requests WHERE experiment_id = ? "
                "AND status = 'done' ORDER BY idx LIMIT 1",
                (experiment_id,),
            ).fetchone()
            if row is None:
                return False
            connection.execute(
                "UPDATE requests SET stats = ? "
                "WHERE experiment_id = ? AND idx = ?",
                (_GARBAGE.decode("latin1"), experiment_id, row[0]),
            )
            connection.commit()
            return True
        return False


# The plan is cached per (spec, state) pair so the hot hooks cost one
# env read + tuple scan; tests flip the env mid-process, hence the key.
_plan_cache: dict[tuple[str, str], FaultPlan | None] = {}


def reset_plan_cache() -> None:
    """Drop the memoized plan (tests that rewrite the env use this)."""
    _plan_cache.clear()


def reset() -> None:
    """Remove once-per-fault claim files and drop the plan cache.

    Chaos runs that leave ``REPRO_FAULT_STATE`` unset claim their
    faults in a spec-keyed directory under the system temp dir; without
    cleanup those ``*.fired`` markers leak and suppress re-injection on
    the next run with the same spec.  This clears the state of every
    plan this process has instantiated plus the currently active one,
    then drops the plan cache.  Only the claim markers are removed —
    the directory itself is deleted only once empty, so an explicitly
    configured state dir shared with other files is left alone.
    """
    plans = {plan for plan in _plan_cache.values() if plan is not None}
    current = active_plan()
    if current is not None:
        plans.add(current)
    for plan in plans:
        try:
            for claim in plan.state_dir.glob("*.fired"):
                claim.unlink(missing_ok=True)
        except OSError:  # pragma: no cover - unreadable state dir
            continue
        try:
            plan.state_dir.rmdir()
        except OSError:
            pass  # non-empty or already gone; either is fine
    _plan_cache.clear()


def active_plan() -> FaultPlan | None:
    """The current plan, or ``None`` when fault injection is unarmed."""
    key = (
        os.environ.get("REPRO_FAULT_SPEC", ""),
        os.environ.get("REPRO_FAULT_STATE", ""),
    )
    if not key[0].strip():
        return None
    if key not in _plan_cache:
        _plan_cache[key] = FaultPlan.from_env()
    return _plan_cache[key]


def on_worker_task(task_index: int) -> None:
    """Hook: a pool worker is about to execute cold task ``task_index``."""
    plan = active_plan()
    if plan is not None:
        plan.fire_task_faults(task_index)


def maybe_corrupt_artifact(path: Path, kind: str) -> bool:
    """Hook: ``path`` (a ``kind`` artifact) is about to be read."""
    plan = active_plan()
    if plan is None:
        return False
    return plan.corrupt_artifact(Path(path), kind)


def maybe_kill_experiment(recorded: int) -> None:
    """Hook: an experiment journal just committed its ``recorded``-th result."""
    plan = active_plan()
    if plan is not None:
        plan.kill_experiment(recorded)


def maybe_corrupt_ledger_rows(connection, experiment_id: int) -> bool:
    """Hook: journaled ledger rows are about to be verified for resume."""
    plan = active_plan()
    if plan is None:
        return False
    return plan.corrupt_ledger_rows(connection, experiment_id)
