"""Parallel batch execution engine over the memoized runner.

Every figure/table is a fan-out of independent simulations, so the
experiments hand their full :class:`~repro.harness.runner.RunRequest`
list to :func:`run_many` instead of looping over ``run()``:

1. **dedup** — requests are collapsed by ``cache_key()`` (figures share
   baselines heavily), then by simulation: the cache key of their
   canonical form (:meth:`~repro.harness.runner.RunRequest.canonical`).
   Each simulation runs once, in canonical form, and its result (or
   skip) is handed to, and journaled under, every request key it serves;
2. **cache probe** — memory/disk hits are served inline in the parent
   (a hit serves a request asking for hit stats only when the store
   holds those too), and the cold simulations are ordered by trace
   (first appearance of ``(app, input, trace_len)``), each trace's
   FURBYS/Thermometer requests last, so an arm that is a profiling
   replay publishes its hit stats before the requests that need them;
3. **fan-out** — the parent builds (or disk-loads) each distinct cold
   ``(app, input, trace_len)`` trace once, then forks the
   :class:`~concurrent.futures.ProcessPoolExecutor`, so every worker
   inherits the registry's trace cache instead of regenerating the
   trace; the remaining cold runs are grouped by that key, in that
   order, so one worker's chunk shares its trace and profile, and a
   group split across workers keeps its profile-source arms in the
   chunk of its FURBYS/Thermometer requests;
4. **write-back** — results are published to the artifact store's
   memory and disk by the parent only (workers never write a result),
   so each executed simulation is written once.  A worker writes the
   hit stats it records (a profile-source arm, a profiling replay, a
   request that asks for them) itself; those it cannot write
   (``REPRO_CACHE=0``) come back with its results, and the parent
   holds them in memory.

Every cold request then has one path: :func:`~repro.harness.runner.execute`
builds its pipeline and :meth:`~repro.frontend.pipeline.FrontendPipeline.run`
simulates it — through :func:`repro.frontend.simd.run_kernel`, or the
reference loop for the shapes no kernel serves — serially in the parent
for ``jobs=1``, otherwise in a pool worker.

Within each worker the artifact store (:mod:`repro.harness.artifacts`)
collapses the per-policy offline work further: FURBYS and Thermometer
requests for one training trace share a single profiling replay, an
ordinary request the runner executes — none at all when the ``flack``,
``belady`` or ``foo-ohr`` arm that is that replay ran before them and
published its hit stats (:data:`~repro.profiling.hitrate.PROFILE_ARMS`,
:mod:`repro.harness.runner`) — FLACK
ablation variants share the trace's future index and interval
decomposition, and profiling artifacts persist to the same
``.repro-cache/`` directory (atomically, so concurrent workers may race
on a key but never corrupt it), priming later batches even across
processes.

``jobs=1`` (or ``REPRO_JOBS=1``) creates no pool: every cold request
runs in the parent, through the same attempt/retry/skip bookkeeping a
pooled request's parent-side last attempt uses, so both paths keep one
failure contract.  Traces, profiles and the simulation itself are
deterministic, so parallel results are bit-identical to serial ones —
the test suite asserts this.

Failure handling (:mod:`repro.harness.resilience`) wraps all of the
above.  ``on_error`` selects the contract:

* ``"raise"`` (default) — fail fast: the first failure aborts the batch
  with a :class:`BatchExecutionError` carrying the offending request,
  attempt count and the worker's traceback;
* ``"retry"`` — transient failures (a crashed worker process, a chunk
  timeout, a torn cache artifact — see
  :data:`~repro.harness.resilience.RETRYABLE_TYPES`) are retried per
  the :class:`~repro.harness.resilience.RetryPolicy`: the pool is
  rebuilt after a ``BrokenProcessPool``, surviving cold work is
  resubmitted as singleton chunks, and a request's **final** attempt is
  rerouted to the parent so a persistent error surfaces with a clean
  local traceback.  Retryability is decided where the exception is
  caught (:meth:`~repro.harness.resilience.RetryPolicy.is_retryable`,
  in the worker or the parent), so both paths retry the same failures;
* ``"skip"`` — like ``"retry"``, but exhausted (or deterministic)
  failures yield ``None`` in that request's result slot instead of
  raising, with every skip itemized in ``BatchReport.faults`` — a sweep
  returns its 95% of good results instead of dying.

Per-chunk timeouts (``timeout_s`` / ``REPRO_TIMEOUT_S``) bound hung
workers; an expired chunk counts as ``timed_out``, its pool is torn
down (hung processes terminated) and its requests re-enter the retry
loop.  Deterministic chaos coverage for all of this lives in
``tests/test_resilience.py`` and ``repro bench --chaos``, driven by
:mod:`repro.faultinject`.

When an experiment recording context is active
(:mod:`repro.harness.ledger`, installed by ``repro experiments
run/resume``), the batch additionally journals durably: unique
requests are registered in the ledger up front and every landed chunk
is committed as one atomic SQLite transaction, so a process killed
mid-batch can be resumed with only its missing requests re-executed.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .. import faultinject
from ..config import env_number
from ..core.stats import SimulationStats
from ..errors import ReproError
from ..profiling.hitrate import PROFILE_ARMS
from . import artifacts, resilience
from .ledger import active_journal
from .resilience import FaultReport, RetryPolicy
from .runner import (
    PROFILE_POLICIES,
    RunRequest,
    RunResult,
    collected_hit_stats,
    execute,
    simulation,
    store_stats,
    unrecorded_replay,
)

__all__ = [
    "BatchExecutionError",
    "BatchReport",
    "last_batch_report",
    "resolve_jobs",
    "resolve_on_error",
    "run_batch",
    "run_many",
]

ON_ERROR_MODES = ("raise", "skip", "retry")


@dataclass(slots=True)
class BatchReport:
    """Per-batch accounting: where each request was served from."""

    requests: int = 0
    #: Distinct request keys, and the distinct simulations they run
    #: (canonical requests); hits and executions count simulations.
    unique: int = 0
    simulations: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    executed: int = 0
    jobs: int = 1
    chunks: int = 0
    elapsed_s: float = 0.0
    on_error: str = "raise"
    #: Crash/timeout/retry/skip/corruption/fallback taxonomy; all-zero
    #: on a clean batch.
    faults: FaultReport = field(default_factory=FaultReport)

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


class BatchExecutionError(RuntimeError):
    """A simulation failed inside a batch; carries the offending request.

    ``request`` is the failing :class:`RunRequest`, ``attempts`` how
    many executions were tried before giving up, and ``detail`` the full
    worker traceback text (or local traceback for serial failures) —
    everything :func:`repro.harness.reporting.format_failure` needs to
    print a readable failure block.
    """

    def __init__(self, request: RunRequest, detail: str, attempts: int = 1):
        super().__init__(
            f"simulation failed after {attempts} attempt(s) for "
            f"{request!r}:\n{detail}"
        )
        self.request = request
        self.detail = detail
        self.attempts = attempts


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count: explicit arg, else ``REPRO_JOBS``, else cpu count."""
    if jobs is None:
        jobs = env_number("REPRO_JOBS", int)
        if jobs is None:
            jobs = os.cpu_count() or 1
    return max(1, int(jobs))


def resolve_on_error(on_error: str | None = None) -> str:
    """Failure mode: explicit arg, else ``REPRO_ON_ERROR``, else raise."""
    if on_error is None:
        on_error = os.environ.get("REPRO_ON_ERROR", "").strip() or "raise"
    if on_error not in ON_ERROR_MODES:
        raise ReproError(
            f"unknown on_error mode {on_error!r}; choose from {ON_ERROR_MODES}"
        )
    return on_error


def _resolve_timeout(timeout_s: float | None) -> float | None:
    """Per-chunk timeout: explicit arg, else ``REPRO_TIMEOUT_S``, else off."""
    if timeout_s is None:
        timeout_s = env_number("REPRO_TIMEOUT_S", float)
    if timeout_s is not None and timeout_s <= 0:
        return None
    return timeout_s


def _trace_of(request: RunRequest) -> tuple[str, str, int]:
    """The ``(app, input, trace_len)`` trace a request simulates."""
    return request.app, request.input_name, request.resolved_trace_len()


def _chunk_cold_requests(
    requests: Sequence[RunRequest], jobs: int
) -> list[list[RunRequest]]:
    """Group requests into worker chunks that maximize trace reuse.

    Requests sharing ``(app, input, trace_len)`` re-derive the same
    trace (and, for profile-guided policies, mostly the same profile),
    so they are kept on one worker.  Groups larger than the batch can
    keep ``jobs`` workers busy are split in half until there are enough
    chunks, largest-first so the pool schedules long chunks earliest.
    A split never parts a trace's profile-guided requests from its
    profile-source arms (:data:`~repro.profiling.hitrate.PROFILE_ARMS`):
    they share one chunk, arms first, so the arm's published hit stats
    spare the FURBYS/Thermometer requests their profiling replay.
    """
    groups: dict[tuple[str, str, int], list[RunRequest]] = {}
    for request in requests:
        groups.setdefault(_trace_of(request), []).append(request)
    # Each chunk is a list of units a split keeps whole.
    chunks = [_split_units(group) for group in groups.values()]

    def size(chunk: list[list[RunRequest]]) -> int:
        return sum(map(len, chunk))

    while len(chunks) < jobs:
        chunks.sort(key=size, reverse=True)
        at = next((i for i, chunk in enumerate(chunks) if len(chunk) > 1), None)
        if at is None:
            break
        mid = len(chunks[at]) // 2
        chunks[at:at + 1] = [chunks[at][:mid], chunks[at][mid:]]
    chunks.sort(key=size, reverse=True)
    return [[request for unit in chunk for request in unit] for chunk in chunks]


def _split_units(group: list[RunRequest]) -> list[list[RunRequest]]:
    """One trace's requests as units no split parts: each request alone,
    except that the profile-source arms and the profile-guided requests
    form one last unit, arms first, when there are profile-guided
    requests."""
    guided = [r for r in group if r.policy in PROFILE_POLICIES]
    if not guided:
        return [[request] for request in group]
    arms = [r for r in group if r.policy in PROFILE_ARMS.values()]
    return [[r] for r in group if r not in arms and r not in guided] + [
        arms + guided]


def _simulate_chunk(
    requests: list[RunRequest],
    task_indices: list[int],
    retry_policy: RetryPolicy,
) -> tuple[list[tuple[str, object]], dict[str, int]]:
    """Worker entry point: run each request, never raise.

    Runs inside a forked pool process, which inherited the parent's
    trace cache, so same-trace requests grouped onto this worker build
    nothing.  A request's result comes back with the hit stats its
    execution recorded but could not write to disk
    (:func:`~repro.harness.runner.collected_hit_stats`).
    An exception is shipped back as its type name, formatted
    traceback and ``retry_policy``'s verdict on the live exception, so
    the parent can retry it and attach the offending request.  The
    second return value is this chunk's fallback-counter delta
    (quarantined artifacts, failed disk writes, ...) for the parent's
    :class:`~repro.harness.resilience.FaultReport`.

    ``task_indices`` are the batch-wide cold-task numbers of each
    request, consumed by the fault-injection hooks (and by nothing
    else) so ``REPRO_FAULT_SPEC`` can name a specific simulation.
    """
    counters_before = resilience.global_counters()
    out: list[tuple[str, object]] = []
    for index, request in zip(task_indices, requests):
        try:
            faultinject.on_worker_task(index)
            with collected_hit_stats() as recorded:
                stats = execute(request)
            out.append(("ok", (stats, recorded)))
        except Exception as exc:
            out.append(("err", {
                "type": type(exc).__name__,
                "traceback": traceback.format_exc(),
                "retryable": retry_policy.is_retryable(exc),
            }))
    return out, resilience.counters_since(counters_before)


def _serve(aliases, stats, results, journal) -> None:
    """Hand one simulation's stats to every request it serves."""
    for key, request in aliases:
        results[key] = stats
        if journal is not None:
            journal.record(key, request, stats)


def _by_trace(cold: list) -> list:
    """Cold simulations grouped by trace, in first-appearance order,
    with each trace's profile-guided requests last.

    An arm that is a profiling replay (a ``flack``, ``belady`` or
    ``foo-ohr`` run) then publishes its hit stats before the FURBYS or
    Thermometer request that needs them runs, and a trace, once left,
    is never returned to (a return would rebuild its memoized columns
    and future index).
    """
    first: dict[tuple[str, str, int], int] = {}
    for _, request, _ in cold:
        first.setdefault(_trace_of(request), len(first))
    return sorted(cold, key=lambda task: (
        first[_trace_of(task[1])], task[1].policy in PROFILE_POLICIES))


_last_report: BatchReport | None = None


def last_batch_report() -> BatchReport | None:
    """The report of the most recent :func:`run_many` / :func:`run_batch`."""
    return _last_report


@dataclass(slots=True)
class _PendingTask:
    """One cold simulation's execution state across attempts."""

    key: str  # the simulation key
    request: RunRequest  # canonical, plus any hit-stats ask: what runs
    #: ``(request key, request)`` of every request this simulation
    #: serves, first asker first; failures name the first.
    aliases: list[tuple[str, RunRequest]]
    index: int  # batch-wide cold-task number (fault-injection identity)
    attempts: int = 0
    error_type: str = ""
    detail: str = ""
    state: str = "pending"  # pending | parent | done | failed


class _BatchExecutor:
    """Runs a batch's cold simulations: rounds of chunk submission over
    (re)built process pools with per-chunk deadlines, then the
    parent-side queue.  ``jobs=1`` skips the pool and queues every
    simulation in the parent."""

    def __init__(
        self,
        cold: list[tuple[str, RunRequest, list[tuple[str, RunRequest]]]],
        jobs: int,
        report: BatchReport,
        on_error: str,
        retry_policy: RetryPolicy,
        timeout_s: float | None,
        results: dict[str, SimulationStats | None],
        journal=None,
    ):
        self.tasks = [
            _PendingTask(key=key, request=request, aliases=aliases, index=i)
            for i, (key, request, aliases) in enumerate(cold)
        ]
        self.jobs = jobs
        self.report = report
        self.on_error = on_error
        self.retry_policy = retry_policy
        self.timeout_s = timeout_s
        self.results = results
        self.journal = journal
        self.parent_queue: list[_PendingTask] = []
        if jobs == 1:
            for task in self.tasks:
                self._queue_in_parent(task)

    # -- failure classification ------------------------------------------------

    def _queue_in_parent(self, task: _PendingTask) -> None:
        if task.state != "parent":
            task.state = "parent"
            self.parent_queue.append(task)

    def _finalize_failure(self, task: _PendingTask) -> None:
        task.state = "failed"
        if self.on_error == "skip":
            self.report.faults.skipped += 1
            self.report.faults.failures.append({
                "request": repr(task.aliases[0][1]),
                "error": task.error_type,
                "attempts": task.attempts,
            })
            for key, _ in task.aliases:
                self.results[key] = None
            return
        raise BatchExecutionError(
            task.aliases[0][1], task.detail, attempts=task.attempts
        )

    def _note_attempt_failure(
        self, task: _PendingTask, error_type: str, detail: str,
        retryable: bool,
    ) -> None:
        """One execution attempt of ``task`` failed; decide its future."""
        task.attempts += 1
        task.error_type = error_type
        task.detail = detail
        if self.on_error == "raise":
            raise BatchExecutionError(
                task.aliases[0][1], detail, attempts=task.attempts
            )
        if not retryable or task.attempts >= self.retry_policy.max_attempts:
            self._finalize_failure(task)
            return
        self.report.faults.retried += 1
        if (
            self.jobs == 1
            or task.attempts >= self.retry_policy.max_attempts - 1
        ):
            # jobs=1 runs every attempt in the parent; a pool reserves
            # the last one for it: a failure there produces a clean
            # local traceback, and a parent-side run cannot be lost to
            # another worker crash.
            self._queue_in_parent(task)
        else:
            task.state = "pending"

    def _record_success(
        self, task: _PendingTask, stats: SimulationStats, recorded=(),
    ) -> None:
        for store_key, hit_stats in recorded:
            artifacts.publish(store_key, hit_stats)
        store_stats(task.request, stats, task.key)
        task.state = "done"
        _serve(task.aliases, stats, self.results, self.journal)

    # -- rounds ---------------------------------------------------------------

    def _run_round(self, pending: list[_PendingTask], first: bool) -> None:
        if first:
            request_chunks = _chunk_cold_requests(
                [task.request for task in pending], self.jobs
            )
            by_request = {task.request: task for task in pending}
            chunks = [[by_request[r] for r in chunk] for chunk in request_chunks]
        else:
            # Retry rounds resubmit singleton chunks so one bad request
            # cannot take innocent chunk-mates down with it again.
            chunks = [[task] for task in pending]
        self.report.chunks += len(chunks)
        # Fork, whatever the platform default: workers must inherit the
        # trace cache the parent filled in _materialize_traces.
        pool = ProcessPoolExecutor(
            max_workers=min(self.jobs, len(chunks)),
            mp_context=multiprocessing.get_context("fork"),
        )
        abandon = False
        pool_broken = False
        try:
            futures = {}
            deadlines: dict = {}
            submitted = time.monotonic()
            for chunk in chunks:
                future = pool.submit(
                    _simulate_chunk,
                    [task.request for task in chunk],
                    [task.index for task in chunk],
                    self.retry_policy,
                )
                futures[future] = chunk
                deadlines[future] = (
                    submitted + self.timeout_s if self.timeout_s else None
                )
            not_done = set(futures)
            while not_done:
                timeout = None
                if self.timeout_s:
                    next_deadline = min(deadlines[f] for f in not_done)
                    timeout = max(0.0, next_deadline - time.monotonic())
                done, not_done = wait(
                    not_done, timeout=timeout, return_when=FIRST_COMPLETED
                )
                for future in done:
                    chunk = futures[future]
                    try:
                        chunk_results, counter_delta = future.result()
                    except BrokenProcessPool:
                        if not pool_broken:
                            pool_broken = True
                            self.report.faults.crashed += 1
                        for task in chunk:
                            self._note_attempt_failure(
                                task, "BrokenProcessPool",
                                "worker process crashed mid-chunk "
                                "(BrokenProcessPool); results of this "
                                "chunk's attempt were lost",
                                retryable=True,
                            )
                        continue
                    self.report.faults.merge_counters(counter_delta)
                    for task, (status, payload) in zip(chunk, chunk_results):
                        if status == "ok":
                            self._record_success(task, *payload)
                        else:
                            self._note_attempt_failure(
                                task, payload["type"], payload["traceback"],
                                payload["retryable"],
                            )
                    if self.journal is not None:
                        # One atomic ledger transaction per landed chunk:
                        # a SIGKILL between chunks loses at most the
                        # in-flight chunk, never a committed one.
                        self.journal.commit()
                if pool_broken:
                    abandon = True
                elif not_done and self.timeout_s:
                    now = time.monotonic()
                    for future in [
                        f for f in list(not_done)
                        if deadlines[f] is not None and now >= deadlines[f]
                    ]:
                        chunk = futures[future]
                        if future.cancel():
                            # Never started (queued behind a slow chunk):
                            # not a failure, just resubmit next round.
                            not_done.discard(future)
                            continue
                        self.report.faults.timed_out += 1
                        not_done.discard(future)
                        abandon = True
                        for task in chunk:
                            self._note_attempt_failure(
                                task, "TimeoutError",
                                f"chunk exceeded its {self.timeout_s}s "
                                "timeout (worker hung); abandoned",
                                retryable=True,
                            )
                if abandon:
                    break
        finally:
            if abandon or pool_broken:
                self._teardown(pool)
            else:
                pool.shutdown(wait=True)

    @staticmethod
    def _teardown(pool: ProcessPoolExecutor) -> None:
        """Abandon a pool that contains hung or crashed workers.

        The process list must be snapshotted *before* ``shutdown()``:
        CPython drops ``_processes`` to ``None`` there even with
        ``wait=False``, so reading it afterwards would leave hung
        workers alive — and the interpreter's atexit hook would then
        block on the pool's management thread until the hang ended.
        """
        processes = getattr(pool, "_processes", None) or {}
        if isinstance(processes, dict):  # a list while the pool is breaking
            processes = list(processes.values())
        else:
            processes = list(processes)
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            # SIGKILL, not SIGTERM: the chunk's results are already
            # written off, and a hung worker must not outlive the round.
            try:
                process.kill()
            except (OSError, AttributeError):  # pragma: no cover - racing exit
                pass
        for process in processes:
            try:
                process.join(timeout=5.0)
            except (OSError, AttributeError, ValueError):  # pragma: no cover
                pass

    def _run_parent_queue(self) -> None:
        """Run each queued task in the parent until it is done or failed."""
        for task in self.parent_queue:
            while task.state == "parent":
                if task.attempts:
                    time.sleep(min(
                        self.retry_policy.delay_for(task.attempts, task.key),
                        1.0,
                    ))
                try:
                    stats = execute(task.request)
                except Exception as exc:
                    self._note_attempt_failure(
                        task, type(exc).__name__, traceback.format_exc(),
                        self.retry_policy.is_retryable(exc),
                    )
                    continue
                self._record_success(task, stats)
                if self.journal is not None:
                    self.journal.commit()

    def _materialize_traces(self) -> None:
        """Build (or disk-load) each distinct cold trace once, before
        the first fork, so every worker inherits it."""
        from ..workloads.registry import get_trace

        keys = {_trace_of(task.request) for task in self.tasks}
        for app, input_name, trace_len in sorted(keys):
            try:
                get_trace(app, input_name, trace_len)
            except Exception:
                # The request's own attempt raises this again, under
                # the batch's on_error contract.
                continue

    def run(self) -> None:
        if self.jobs > 1:
            self._materialize_traces()
        first = True
        rounds = 0
        max_rounds = 3 * max(1, self.retry_policy.max_attempts) + 3
        while True:
            pending = [t for t in self.tasks if t.state == "pending"]
            if not pending:
                break
            rounds += 1
            if rounds > max_rounds:  # pragma: no cover - safety valve
                raise ReproError(
                    f"batch did not converge after {rounds} pool rounds; "
                    f"{len(pending)} request(s) still pending"
                )
            if not first:
                time.sleep(min(max(
                    self.retry_policy.delay_for(t.attempts, t.key)
                    for t in pending
                ), 1.0))
            self._run_round(pending, first)
            first = False
        self._run_parent_queue()


def run_batch(
    requests: Iterable[RunRequest],
    jobs: int | None = None,
    *,
    on_error: str | None = None,
    retry_policy: RetryPolicy | None = None,
    timeout_s: float | None = None,
) -> tuple[list[SimulationStats | None], BatchReport]:
    """Like :func:`run_many`, returning the :class:`BatchReport` too.

    See the module docstring for the ``on_error`` / retry / timeout
    semantics; under ``on_error="skip"`` a failed request's result slot
    is ``None`` and the failure is itemized in ``report.faults``.
    """
    global _last_report
    requests = list(requests)
    jobs = resolve_jobs(jobs)
    on_error = resolve_on_error(on_error)
    retry_policy = retry_policy or RetryPolicy()
    timeout_s = _resolve_timeout(timeout_s)
    report = BatchReport(requests=len(requests), jobs=jobs, on_error=on_error)
    counters_before = resilience.global_counters()
    started = time.perf_counter()

    # 1. dedup by request key, preserving request order for the
    # result list.
    order: list[str] = []
    unique: dict[str, RunRequest] = {}
    for request in requests:
        key = request.cache_key()
        order.append(key)
        unique.setdefault(key, request)
    report.unique = len(unique)

    # When an experiment recording context is active (repro experiments
    # run/resume), every unique request is registered up front and each
    # landed chunk is journaled — see repro.harness.ledger.
    journal = active_journal()
    if journal is not None:
        journal.register(list(unique.items()))

    # 2. dedup again by simulation: requests whose canonical forms are
    # equal run once, and the result serves every one of them.
    simulations: dict[str, tuple[RunRequest, list]] = {}
    for key, request in unique.items():
        canonical, sim_key = simulation(request, key)
        simulations.setdefault(sim_key, (canonical, []))[1].append(
            (key, request))
    report.simulations = len(simulations)

    # 3. serve cache hits inline.  A run records hit stats when a
    # request it serves asks, so a stored result serves an ask only when
    # the store holds its hit stats too.
    results: dict[str, SimulationStats | None] = {}
    cold = []
    for sim_key, (canonical, aliases) in simulations.items():
        asks = any(request.record_hit_stats for _, request in aliases)
        if asks:
            canonical = dataclasses.replace(canonical, record_hit_stats=True)
        stats, tier = None, None
        if not asks or unrecorded_replay(canonical) is None:
            stats, tier = artifacts.lookup(
                artifacts.key("stats", sim_key), RunResult.stats_from_json
            )
        if stats is not None:
            if tier == "memory":
                report.memory_hits += 1
            else:
                report.disk_hits += 1
            _serve(aliases, stats, results, journal)
        else:
            cold.append((sim_key, canonical, aliases))
    report.executed = len(cold)
    if journal is not None:
        journal.commit()

    # 4. execute the cold remainder (in the parent, or fanned out),
    # 5. writing every result back into both cache layers here.
    if cold:
        _BatchExecutor(
            _by_trace(cold), jobs, report, on_error, retry_policy, timeout_s,
            results, journal,
        ).run()
    if journal is not None:
        journal.commit()

    # Parent-side graceful degradations during this batch (quarantined
    # cache entries, failed disk writes) land in the report too;
    # worker-side deltas were merged per chunk.
    report.faults.merge_counters(resilience.counters_since(counters_before))
    report.elapsed_s = time.perf_counter() - started
    _last_report = report
    return [results[key] for key in order], report


def run_many(
    requests: Iterable[RunRequest],
    jobs: int | None = None,
    *,
    on_error: str | None = None,
    retry_policy: RetryPolicy | None = None,
    timeout_s: float | None = None,
) -> list[SimulationStats | None]:
    """Execute a batch of simulations, results in request order.

    Duplicate requests are simulated once; every request's stats are
    bit-identical to what serial ``run()`` would produce.  The batch
    accounting is available via :func:`last_batch_report`.  Under
    ``on_error="skip"`` (argument or ``REPRO_ON_ERROR``), failed
    requests yield ``None`` slots instead of aborting the batch.
    """
    results, _ = run_batch(
        requests, jobs=jobs, on_error=on_error, retry_policy=retry_policy,
        timeout_s=timeout_s,
    )
    return results
