"""Retry policy, fault taxonomy and fallback accounting.

Three pieces, consumed by the batch engine (``harness/parallel.py``)
and the artifact store (``harness/artifacts.py``):

* :class:`RetryPolicy` — how many attempts a failing simulation gets,
  which exception classes are worth retrying (transient infrastructure
  failures yes, deterministic configuration errors no), and a
  deterministic seeded-jitter backoff so two runs of the same batch
  sleep identically;
* :class:`FaultReport` — the per-batch fault taxonomy: crashed /
  timed-out / retried / skipped / corrupt-artifact / degraded-fallback
  counters plus an itemized failure list, attached to every
  :class:`~repro.harness.parallel.BatchReport`;
* the **global fallback counters** — every place the stack degrades
  gracefully (shared-memory export/attach/cleanup failures, disk-cache
  write failures, quarantined artifacts) calls :func:`note_fallback`
  instead of silently passing, so ``last_batch_report()`` can account
  for each one.  Counters are process-local; worker processes ship
  their deltas back with each chunk result and the parent merges them.
"""

from __future__ import annotations

import dataclasses
import hashlib
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from ..errors import (
    ArtifactError,
    ConfigurationError,
    FaultInjectionError,
    FlowError,
    OfflinePolicyError,
    ProfilingError,
    TraceError,
    UnknownPolicyError,
    UnknownWorkloadError,
)

__all__ = [
    "FaultReport",
    "RetryPolicy",
    "global_counters",
    "note_fallback",
    "reset_counters",
]

#: Transient failures: the environment (a killed worker, a torn cache
#: file, an exhausted /dev/shm) may well have healed by the next attempt.
RETRYABLE_TYPES = (
    BrokenProcessPool,
    TimeoutError,
    ConnectionError,
    OSError,
    MemoryError,
    FaultInjectionError,
    ArtifactError,
    TraceError,
)

#: Deterministic failures: the same request will fail the same way
#: forever, so burning attempts on them only delays the report.
NON_RETRYABLE_TYPES = (
    UnknownPolicyError,
    UnknownWorkloadError,
    ConfigurationError,
    OfflinePolicyError,
    FlowError,
    ProfilingError,
)

_RETRYABLE_NAMES = frozenset(t.__name__ for t in RETRYABLE_TYPES)


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How the batch engine retries a failing unit of work.

    ``delay_for`` is exponential backoff with *deterministic* jitter:
    the jitter fraction is derived by hashing ``(seed, key, attempt)``,
    so a given request backs off identically across runs — determinism
    is the house rule even for failure handling.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    backoff: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def is_retryable(self, exc: BaseException) -> bool:
        """Classify a caught exception (parent-side failures)."""
        if isinstance(exc, NON_RETRYABLE_TYPES):
            return False
        return isinstance(exc, RETRYABLE_TYPES)

    def is_retryable_name(self, type_name: str) -> bool:
        """Classify by exception type name (worker failures arrive as
        formatted text, not live objects).  Unknown names are treated
        as non-retryable: a deterministic simulation raising the same
        programming error three times helps nobody."""
        return type_name in _RETRYABLE_NAMES

    def delay_for(self, attempt: int, key: str = "") -> float:
        """Seconds to sleep before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            return 0.0
        base = self.base_delay_s * (self.backoff ** (attempt - 1))
        digest = hashlib.sha256(
            f"{self.seed}:{key}:{attempt}".encode()
        ).digest()
        fraction = int.from_bytes(digest[:8], "little") / 2**64
        return base * (1.0 + self.jitter * fraction)


@dataclass(slots=True)
class FaultReport:
    """Per-batch fault taxonomy; all-zero on a clean batch."""

    #: Worker processes that died mid-chunk (``BrokenProcessPool``).
    crashed: int = 0
    #: Chunks abandoned because their per-chunk timeout expired.
    timed_out: int = 0
    #: Extra execution attempts beyond each request's first.
    retried: int = 0
    #: Requests given up on under ``on_error="skip"`` (``None`` result).
    skipped: int = 0
    #: Disk artifacts that failed validation and were quarantined.
    corrupt_artifacts: int = 0
    #: Silent-degradation events (shm/disk fallbacks), from the global
    #: counters — see :func:`note_fallback`.
    degraded_fallbacks: int = 0
    #: fallback site -> count, the breakdown behind degraded_fallbacks.
    fallbacks: dict = field(default_factory=dict)
    #: ``sim_fallback:<policy>:<reason>`` -> count: simulations that ran
    #: the reference loop instead of a vectorized kernel.  Informational
    #: (the results are bit-identical, only slower), so excluded from
    #: :attr:`total_faults`.
    sim_fallbacks: dict = field(default_factory=dict)
    #: ``note:<what>`` -> count: observability notes that are not
    #: degradations (a legacy cache entry upgraded in place, a stale
    #: RUNNING experiment taken over); excluded from :attr:`total_faults`.
    notes: dict = field(default_factory=dict)
    #: Itemized skipped/failed requests: ``{"request", "error", "attempts"}``.
    failures: list = field(default_factory=list)

    def merge_counters(self, deltas: dict) -> None:
        """Fold a fallback-counter delta (e.g. from a worker) in."""
        for name, count in deltas.items():
            if count <= 0:
                continue
            if name == "corrupt_artifact":
                self.corrupt_artifacts += count
            elif name.startswith("sim_fallback:"):
                self.sim_fallbacks[name] = (
                    self.sim_fallbacks.get(name, 0) + count
                )
            elif name.startswith("note:"):
                self.notes[name] = self.notes.get(name, 0) + count
            else:
                self.fallbacks[name] = self.fallbacks.get(name, 0) + count
                self.degraded_fallbacks += count

    @property
    def total_faults(self) -> int:
        return (
            self.crashed + self.timed_out + self.skipped
            + self.corrupt_artifacts + self.degraded_fallbacks
        )

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


# --- global fallback counters ------------------------------------------------
#
# Process-local accounting of every graceful degradation.  Names in use:
#   shm_export      parent could not stage a trace in shared memory
#   shm_attach      worker could not attach/decode a shared segment
#   shm_cleanup     parent could not close/unlink a segment
#   disk_write      a cache write failed (entry simply not persisted)
#   corrupt_artifact  a disk artifact failed validation (quarantined)
#   sim_fallback:<policy>:<reason>
#                   a simulation ran the reference loop instead of a
#                   vectorized kernel (bit-identical, only slower)
#   ledger_write    an experiment-ledger write failed (the run proceeds,
#                   that chunk is simply not journaled)
#   note:cache_upgraded
#                   a legacy checksum-less JSON cache entry was
#                   rewritten with an embedded sha256 on read
#   note:ledger_takeover
#                   a stale RUNNING experiment was marked INTERRUPTED
#                   and taken over by a resume

_counters: dict[str, int] = {}


def note_fallback(name: str, count: int = 1) -> None:
    """Record one graceful degradation (visible, not silent)."""
    _counters[name] = _counters.get(name, 0) + count


def global_counters() -> dict[str, int]:
    """Snapshot of this process's fallback counters (copy)."""
    return dict(_counters)


def counters_since(snapshot: dict[str, int]) -> dict[str, int]:
    """Positive deltas of the current counters vs. ``snapshot``."""
    current = global_counters()
    return {
        name: count - snapshot.get(name, 0)
        for name, count in current.items()
        if count - snapshot.get(name, 0) > 0
    }


def reset_counters() -> None:
    """Zero the fallback counters (tests and bench arms use this)."""
    _counters.clear()
