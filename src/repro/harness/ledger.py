"""Durable experiment ledger: a crash-safe SQLite run store with resume.

Every figure run today recomputes from scratch, and a SIGKILL or OOM
mid-experiment loses the whole run — PR 5's retry/timeout machinery
only protects *individual batches* inside one live process.  This
module adds the missing durability layer, fuzzbench-style: a named
experiment is a row in a WAL-mode SQLite database
(``REPRO_LEDGER``, default ``.repro-cache/ledger.sqlite``) with

* the request specs (resolved trace geometry included, so a resume is
  immune to env drift), config preset, git hash, ``REPRO_*`` env
  snapshot and timings;
* one row per unique request, journaled **as each chunk lands** in the
  batch engine — append-only, one atomic transaction per chunk, with a
  sha256 over the serialized stats so torn DB writes are detectable;
* the batch's :class:`~repro.harness.resilience.FaultReport`;
* a lifecycle state machine::

      PENDING -> RUNNING -> COMPLETE
                        \\-> INTERRUPTED   (ctrl-C / stale takeover)
                        \\-> FAILED        (exception, or pending rows left)

A heartbeat thread stamps the experiment row every
``REPRO_HEARTBEAT_S`` seconds while RUNNING; a new process finding a
RUNNING row whose heartbeat is older than three beats may take it over
(``resume --force`` skips the staleness check).  :func:`resume_experiment`
rebuilds the recorded requests, verifies every journaled row's
checksum (corrupt rows are demoted to pending and counted as
``corrupt_artifact``), seeds the artifact store's memory with the valid
results — so the batch engine serves them with **zero re-executions**,
visible in ``BatchReport.memory_hits`` — and replays only the missing
rows.  Results are bit-identical to an uninterrupted run because every
simulation is deterministic; ``repro bench --chaos-resume`` proves it
end to end under SIGKILL + crash + hang + row corruption.

Recording is opt-in per scope: :func:`run_batch` journals only while an
:class:`ExperimentRun` context is active (installed by
``repro experiments run/resume``), so plain figure runs never touch
SQLite.  Ledger write failures degrade gracefully (``ledger_write``
fallback counter); a corrupt ledger *file* is quarantined like any
other artifact and a fresh one is started.

Each experiment row also records the
:data:`~repro.harness.artifacts.MODEL_VERSION` it was computed under,
and a resume refuses (unless forced) to merge journaled results across
versions, so a journaled row never outlives the simulator that
produced it.

**Connection lifetime.**  Closing the last connection to a WAL-mode
database makes SQLite checkpoint the WAL into the main file and sync
it, which costs tens of milliseconds — per experiment, when every
:class:`ExperimentRun` closed its ledger.  :meth:`Ledger.close`
therefore *parks* the connection (rolling back any open transaction,
as a real close would) and the next :meth:`Ledger.open` of the same
file by the same process and thread takes it back, skipping the
integrity check and schema step it already ran.  Any other open first
really closes the parked connection, and then connects, checks and
quarantines exactly as a first open does; a file that was replaced or
unlinked (a different ``(st_dev, st_ino)``) is never served from the
parked connection.  The checkpoint runs once, when an ``atexit`` hook
really closes the parked connection, and leaves the file at rest as a
per-experiment close used to.  Crash safety is unchanged: every
journaled chunk is still one committed transaction, and the WAL a
SIGKILL leaves behind is recovered by the next open, as it always was.
A forked child never reuses or closes a connection it inherited.

The ``repro query`` CLI (:mod:`repro.tools.ledger_tool`) renders the
store as table/csv/json and diffs per-request metrics between two
recorded runs — e.g. the same figure at two git hashes.
"""

from __future__ import annotations

import atexit
import dataclasses
import functools
import hashlib
import json
import os
import sqlite3
import subprocess
import threading
import time
from pathlib import Path

from .. import faultinject
from ..errors import ReproError
from . import artifacts, resilience
from .runner import RunRequest, RunResult, stats_key

__all__ = [
    "ExperimentJournal",
    "ExperimentRun",
    "Ledger",
    "STATES",
    "active_journal",
    "heartbeat_seconds",
    "ledger_path",
    "resume_experiment",
]

STATES = ("PENDING", "RUNNING", "INTERRUPTED", "COMPLETE", "FAILED")

#: A RUNNING experiment is considered stale (eligible for takeover)
#: once its heartbeat is older than this many beat periods.
STALE_BEATS = 3

_SCHEMA = """
CREATE TABLE IF NOT EXISTS experiments (
    id           INTEGER PRIMARY KEY AUTOINCREMENT,
    name         TEXT NOT NULL,
    state        TEXT NOT NULL DEFAULT 'PENDING',
    git_hash     TEXT NOT NULL DEFAULT '',
    created_at   REAL NOT NULL,
    started_at   REAL,
    finished_at  REAL,
    elapsed_s    REAL,
    heartbeat_at REAL,
    heartbeat_s  REAL,
    owner_pid    INTEGER,
    env          TEXT NOT NULL DEFAULT '{}',
    note         TEXT NOT NULL DEFAULT '',
    model_version TEXT NOT NULL DEFAULT ''
);
CREATE TABLE IF NOT EXISTS requests (
    experiment_id INTEGER NOT NULL,
    idx           INTEGER NOT NULL,
    cache_key     TEXT NOT NULL,
    request       TEXT NOT NULL,
    status        TEXT NOT NULL DEFAULT 'pending',
    attempts      INTEGER NOT NULL DEFAULT 0,
    stats         TEXT,
    sha256        TEXT,
    updated_at    REAL,
    PRIMARY KEY (experiment_id, idx)
);
CREATE INDEX IF NOT EXISTS requests_by_key
    ON requests (experiment_id, cache_key);
CREATE TABLE IF NOT EXISTS faults (
    experiment_id INTEGER NOT NULL,
    recorded_at   REAL NOT NULL,
    payload       TEXT NOT NULL
);
"""


def ledger_path(path: str | os.PathLike | None = None) -> Path | None:
    """The ledger DB path: explicit arg > ``REPRO_LEDGER`` > default.

    ``REPRO_LEDGER=0`` disables recording entirely (``None``).
    """
    if path is not None:
        return Path(path)
    env = os.environ.get("REPRO_LEDGER", "").strip()
    if env == "0":
        return None
    if env:
        return Path(env)
    return Path(".repro-cache") / "ledger.sqlite"


def heartbeat_seconds() -> float:
    """Heartbeat period (``REPRO_HEARTBEAT_S``, default 5s, floor 0.2s)."""
    raw = os.environ.get("REPRO_HEARTBEAT_S", "").strip()
    try:
        value = float(raw) if raw else 5.0
    except ValueError:
        value = 5.0
    return max(0.2, value)


@functools.lru_cache(maxsize=1)
def _git_hash() -> str:
    """HEAD of the checkout the imported ``repro`` package lives in.

    Resolved once per process, and independent of the caller's cwd.
    """
    package = Path(__file__).resolve().parents[1]
    try:
        out = subprocess.run(
            ["git", "-C", str(package), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10.0,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _request_payload(request: RunRequest) -> dict:
    """Request JSON with env-dependent defaults resolved.

    Storing the resolved ``trace_len``/``warmup`` makes a resumed run
    independent of the resuming process's ``REPRO_TRACE_LEN``.
    """
    payload = request.to_json()
    payload["trace_len"] = request.resolved_trace_len()
    payload["warmup"] = request.resolved_warmup()
    return payload


def _stats_text(stats) -> str:
    return json.dumps(dataclasses.asdict(stats), sort_keys=True)


def _stats_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _file_identity(path: Path) -> tuple[int, int] | None:
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_dev, st.st_ino


#: The one idle connection :meth:`Ledger.close` parked, as
#: ``(owner, identity, connection)``: ``owner`` is ``(pid, thread id,
#: resolved path)`` and ``identity`` the file's ``(st_dev, st_ino)``.
_parked: tuple | None = None
_park_lock = threading.Lock()
#: Connections a forked child inherited from its parent.  They are held
#: here, never used and never closed: closing one could checkpoint or
#: unlink the parent's WAL.
_inherited: list[sqlite3.Connection] = []


def _take_parked() -> tuple | None:
    global _parked
    with _park_lock:
        parked, _parked = _parked, None
    return parked


def _release(parked: tuple) -> None:
    owner, _identity, db = parked
    if owner[0] != os.getpid():
        _inherited.append(db)
        return
    try:
        db.close()
    except sqlite3.Error:  # pragma: no cover - close never really fails
        pass


def _release_parked() -> None:
    """Really close this process's parked connection.

    Registered with :mod:`atexit`: when it is the last connection to
    the file, SQLite checkpoints the WAL into the database and removes
    it, leaving the file at rest.
    """
    parked = _take_parked()
    if parked is not None:
        _release(parked)


atexit.register(_release_parked)


class Ledger:
    """One open connection to the experiment store.

    Parent-process only; workers never touch the ledger.  All writes
    happen in explicit transactions (``with self._db``), so a SIGKILL
    between chunks can never leave a half-journaled chunk behind —
    WAL-mode SQLite guarantees the last committed transaction survives.
    """

    def __init__(
        self,
        path: Path,
        connection: sqlite3.Connection,
        owner: tuple[int, int, str],
        identity: tuple[int, int] | None,
    ):
        self.path = path
        self._db = connection
        self._owner = owner
        self._identity = identity

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def open(cls, path: str | os.PathLike | None = None) -> "Ledger | None":
        """Open (creating or recovering) the store; ``None`` when disabled.

        The connection this process and thread parked on the same file
        is taken back as is.  Otherwise any parked connection is really
        closed first, and a file that is not a valid SQLite database —
        bit rot, a torn page, injected corruption — is quarantined as
        ``*.corrupt`` (with its WAL sidecars removed) and a fresh store
        is started; the event is counted, never silent.
        """
        resolved = ledger_path(path)
        if resolved is None:
            return None
        owner = (
            os.getpid(), threading.get_ident(), os.path.realpath(resolved)
        )
        identity = _file_identity(resolved)
        parked = _take_parked()
        if parked is not None:
            if identity is not None and parked[:2] == (owner, identity):
                return cls(resolved, parked[2], owner, identity)
            _release(parked)
        try:
            resolved.parent.mkdir(parents=True, exist_ok=True)
        except OSError:
            resilience.note_fallback("ledger_write")
            return None
        if resolved.exists():
            faultinject.maybe_corrupt_artifact(resolved, "ledger")
        try:
            db = cls._connect(resolved)
        except sqlite3.DatabaseError as exc:
            from .artifacts import quarantine

            quarantine(resolved, f"ledger is not a readable database ({exc})")
            for suffix in ("-wal", "-shm"):
                Path(str(resolved) + suffix).unlink(missing_ok=True)
            db = cls._connect(resolved)
        return cls(resolved, db, owner, _file_identity(resolved))

    @staticmethod
    def _connect(path: Path) -> sqlite3.Connection:
        # A parked connection may be really closed from another thread
        # (the atexit hook runs on the main one); reuse stays per thread.
        db = sqlite3.connect(path, timeout=30.0, check_same_thread=False)
        try:
            db.row_factory = sqlite3.Row
            db.execute("PRAGMA journal_mode=WAL")
            db.execute("PRAGMA synchronous=NORMAL")
            check = db.execute("PRAGMA quick_check").fetchone()[0]
            if check != "ok":
                raise sqlite3.DatabaseError(f"quick_check: {check}")
            db.executescript(_SCHEMA)
            columns = {
                row["name"]
                for row in db.execute("PRAGMA table_info(experiments)")
            }
            if "model_version" not in columns:
                db.execute(
                    "ALTER TABLE experiments"
                    " ADD COLUMN model_version TEXT NOT NULL DEFAULT ''"
                )
            db.commit()
        except sqlite3.DatabaseError:
            db.close()
            raise
        return db

    def close(self) -> None:
        """Roll back uncommitted work and park the connection.

        The connection is parked for this process's next :meth:`open`
        of the same file (replacing, and really closing, any connection
        parked before).  It is closed for real when the file no longer
        has the identity it was opened with.
        """
        global _parked
        db, self._db = self._db, None
        if db is None:
            return
        parkable = self._owner[0] == os.getpid()
        if parkable:
            try:
                if db.in_transaction:
                    db.rollback()
            except sqlite3.Error:
                parkable = False
        identity = _file_identity(self.path)
        if not parkable or identity is None or identity != self._identity:
            _release((self._owner, self._identity, db))
            return
        with _park_lock:
            previous, _parked = _parked, (self._owner, self._identity, db)
        if previous is not None:
            _release(previous)

    # -- experiment rows -------------------------------------------------------

    def create_experiment(self, name: str, note: str = "") -> int:
        env = {
            key: value for key, value in sorted(os.environ.items())
            if key.startswith("REPRO_")
        }
        with self._db:
            cursor = self._db.execute(
                "INSERT INTO experiments"
                " (name, state, git_hash, model_version, created_at, env,"
                " note) VALUES (?, 'PENDING', ?, ?, ?, ?, ?)",
                (name, _git_hash(), artifacts.MODEL_VERSION, time.time(),
                 json.dumps(env, sort_keys=True), note),
            )
        return int(cursor.lastrowid)

    def mark_running(self, experiment_id: int) -> None:
        now = time.time()
        with self._db:
            self._db.execute(
                "UPDATE experiments SET state = 'RUNNING', started_at = ?,"
                " heartbeat_at = ?, heartbeat_s = ?, owner_pid = ?"
                " WHERE id = ?",
                (now, now, heartbeat_seconds(), os.getpid(), experiment_id),
            )

    def set_state(self, experiment_id: int, state: str) -> None:
        with self._db:
            self._db.execute(
                "UPDATE experiments SET state = ? WHERE id = ?",
                (state, experiment_id),
            )

    def finish(self, experiment_id: int, state: str) -> None:
        now = time.time()
        with self._db:
            self._db.execute(
                "UPDATE experiments SET state = ?, finished_at = ?,"
                " elapsed_s = ? - COALESCE(started_at, ?) WHERE id = ?",
                (state, now, now, now, experiment_id),
            )

    def experiment(self, experiment_id: int) -> sqlite3.Row | None:
        return self._db.execute(
            "SELECT * FROM experiments WHERE id = ?", (experiment_id,)
        ).fetchone()

    def find(self, token: str) -> sqlite3.Row | None:
        """Resolve an experiment by id, or latest-by-name."""
        text = str(token).strip()
        if text.isdigit():
            return self.experiment(int(text))
        return self._db.execute(
            "SELECT * FROM experiments WHERE name = ?"
            " ORDER BY id DESC LIMIT 1",
            (text,),
        ).fetchone()

    def list_experiments(self) -> list[dict]:
        rows = self._db.execute(
            "SELECT e.*,"
            " (SELECT COUNT(*) FROM requests r"
            "   WHERE r.experiment_id = e.id) AS requests,"
            " (SELECT COUNT(*) FROM requests r"
            "   WHERE r.experiment_id = e.id AND r.status = 'done') AS done"
            " FROM experiments e ORDER BY e.id"
        ).fetchall()
        return [dict(row) for row in rows]

    def is_stale(self, row: sqlite3.Row) -> bool:
        """Whether a RUNNING experiment's owner looks dead.

        Stale = no heartbeat for :data:`STALE_BEATS` periods of the
        *recorded* beat interval (each run stores its own period, so a
        fast-beating test run goes stale quickly while a default run
        gets the full grace window).
        """
        if row["state"] != "RUNNING":
            return False
        beat = row["heartbeat_at"]
        if beat is None:
            return True
        period = row["heartbeat_s"] or 5.0
        return (time.time() - beat) > max(STALE_BEATS * period, 1.0)

    # -- request rows ----------------------------------------------------------

    def register_requests(
        self, experiment_id: int, pairs: list[tuple[str, RunRequest]]
    ) -> None:
        """Append rows for cache keys this experiment has not seen yet.

        Idempotent: an experiment spanning several ``run_many`` calls
        registers each batch as it arrives, and a resume re-registers
        the same keys harmlessly.
        """
        existing = {
            row["cache_key"] for row in self._db.execute(
                "SELECT cache_key FROM requests WHERE experiment_id = ?",
                (experiment_id,),
            )
        }
        fresh: list[tuple[str, RunRequest]] = []
        for key, request in pairs:
            if key in existing:
                continue
            existing.add(key)
            fresh.append((key, request))
        if not fresh:
            return
        next_idx = self._db.execute(
            "SELECT COALESCE(MAX(idx) + 1, 0) FROM requests"
            " WHERE experiment_id = ?",
            (experiment_id,),
        ).fetchone()[0]
        now = time.time()
        with self._db:
            self._db.executemany(
                "INSERT INTO requests"
                " (experiment_id, idx, cache_key, request, status, updated_at)"
                " VALUES (?, ?, ?, ?, 'pending', ?)",
                [
                    (experiment_id, next_idx + offset, key,
                     json.dumps(_request_payload(request), sort_keys=True),
                     now)
                    for offset, (key, request) in enumerate(fresh)
                ],
            )

    def record_results(
        self, experiment_id: int, batch: list[tuple[str, RunRequest, object]]
    ) -> None:
        """Journal one chunk's results in a single atomic transaction."""
        now = time.time()
        with self._db:
            for key, _request, stats in batch:
                text = _stats_text(stats)
                self._db.execute(
                    "UPDATE requests SET status = 'done', stats = ?,"
                    " sha256 = ?, attempts = attempts + 1, updated_at = ?"
                    " WHERE experiment_id = ? AND cache_key = ?"
                    " AND status != 'done'",
                    (text, _stats_digest(text), now, experiment_id, key),
                )

    def done_keys(self, experiment_id: int) -> set[str]:
        return {
            row["cache_key"] for row in self._db.execute(
                "SELECT cache_key FROM requests"
                " WHERE experiment_id = ? AND status = 'done'",
                (experiment_id,),
            )
        }

    def request_count(self, experiment_id: int) -> int:
        return self._db.execute(
            "SELECT COUNT(*) FROM requests WHERE experiment_id = ?",
            (experiment_id,),
        ).fetchone()[0]

    def pending_count(self, experiment_id: int) -> int:
        return self._db.execute(
            "SELECT COUNT(*) FROM requests"
            " WHERE experiment_id = ? AND status != 'done'",
            (experiment_id,),
        ).fetchone()[0]

    def stored_requests(
        self, experiment_id: int
    ) -> list[tuple[str, RunRequest]]:
        """Every recorded request, rebuilt, in journal (idx) order."""
        rows = self._db.execute(
            "SELECT cache_key, request FROM requests"
            " WHERE experiment_id = ? ORDER BY idx",
            (experiment_id,),
        ).fetchall()
        return [
            (row["cache_key"], RunRequest.from_json(json.loads(row["request"])))
            for row in rows
        ]

    def journaled_stats(self, experiment_id: int) -> dict[str, object]:
        """Verified journaled results, keyed by cache key.

        Each done row's stats payload is re-hashed against its stored
        sha256 and decoded; rows failing either check are demoted back
        to pending (counted as ``corrupt_artifact``) so the resume
        re-executes exactly them.  The fault-injection hook runs first,
        so the chaos suite can tear a row here on demand.
        """
        faultinject.maybe_corrupt_ledger_rows(self._db, experiment_id)
        rows = self._db.execute(
            "SELECT idx, cache_key, stats, sha256 FROM requests"
            " WHERE experiment_id = ? AND status = 'done' ORDER BY idx",
            (experiment_id,),
        ).fetchall()
        verified: dict[str, object] = {}
        demoted: list[int] = []
        for row in rows:
            text = row["stats"] or ""
            if _stats_digest(text) != (row["sha256"] or ""):
                demoted.append(row["idx"])
                continue
            try:
                stats = RunResult.stats_from_json({"stats": json.loads(text)})
            except (ValueError, KeyError, TypeError):
                demoted.append(row["idx"])
                continue
            verified[row["cache_key"]] = stats
        if demoted:
            resilience.note_fallback("corrupt_artifact", len(demoted))
            with self._db:
                self._db.executemany(
                    "UPDATE requests SET status = 'pending', stats = NULL,"
                    " sha256 = NULL WHERE experiment_id = ? AND idx = ?",
                    [(experiment_id, idx) for idx in demoted],
                )
        return verified

    def results_rows(self, experiment_id: int) -> list[dict]:
        """Per-request rows with the request identity and stats decoded."""
        rows = self._db.execute(
            "SELECT idx, cache_key, request, status, attempts, stats"
            " FROM requests WHERE experiment_id = ? ORDER BY idx",
            (experiment_id,),
        ).fetchall()
        out = []
        for row in rows:
            request = json.loads(row["request"])
            stats = None
            if row["status"] == "done" and row["stats"]:
                try:
                    stats = json.loads(row["stats"])
                except ValueError:
                    stats = None
            out.append({
                "idx": row["idx"],
                "cache_key": row["cache_key"],
                "app": request.get("app"),
                "policy": request.get("policy"),
                "input": request.get("input_name"),
                "trace_len": request.get("trace_len"),
                "status": row["status"],
                "attempts": row["attempts"],
                "request": request,
                "stats": stats,
            })
        return out

    # -- fault reports ---------------------------------------------------------

    def record_faults(self, experiment_id: int, payload: dict) -> None:
        with self._db:
            self._db.execute(
                "INSERT INTO faults (experiment_id, recorded_at, payload)"
                " VALUES (?, ?, ?)",
                (experiment_id, time.time(),
                 json.dumps(payload, sort_keys=True, default=str)),
            )

    def fault_rows(self, experiment_id: int) -> list[dict]:
        rows = self._db.execute(
            "SELECT recorded_at, payload FROM faults"
            " WHERE experiment_id = ? ORDER BY recorded_at",
            (experiment_id,),
        ).fetchall()
        return [
            {"recorded_at": row["recorded_at"],
             "payload": json.loads(row["payload"])}
            for row in rows
        ]


class ExperimentJournal:
    """Parent-side chunk journal for one RUNNING experiment.

    The batch engine calls :meth:`register` once per batch (after
    dedup), :meth:`record` as each result lands, and :meth:`commit` at
    chunk boundaries — so each committed transaction is exactly one
    chunk's worth of new results.  Already-journaled keys are skipped,
    which is what makes the resume's zero-re-execution guarantee
    auditable: ``recorded`` counts only results this process computed.
    """

    def __init__(self, ledger: Ledger, experiment_id: int):
        self.ledger = ledger
        self.experiment_id = experiment_id
        self._done = ledger.done_keys(experiment_id)
        self._pending: list[tuple[str, RunRequest, object]] = []
        self.recorded = 0

    def register(self, pairs: list[tuple[str, RunRequest]]) -> None:
        try:
            self.ledger.register_requests(self.experiment_id, pairs)
        except sqlite3.Error:
            resilience.note_fallback("ledger_write")

    def record(self, key: str, request: RunRequest, stats) -> None:
        if stats is None or key in self._done:
            return
        self._done.add(key)
        self._pending.append((key, request, stats))

    def commit(self) -> None:
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        try:
            self.ledger.record_results(self.experiment_id, batch)
        except sqlite3.Error:
            resilience.note_fallback("ledger_write")
            self._done.difference_update(key for key, _, _ in batch)
            return
        self.recorded += len(batch)
        faultinject.maybe_kill_experiment(self.recorded)


_active: ExperimentJournal | None = None


def active_journal() -> ExperimentJournal | None:
    """The journal of the enclosing :class:`ExperimentRun`, if any."""
    return _active


class _Heartbeat(threading.Thread):
    """Stamps the experiment row every period on its own connection."""

    def __init__(self, path: Path, experiment_id: int, period: float):
        super().__init__(name="repro-ledger-heartbeat", daemon=True)
        self._path = path
        self._experiment_id = experiment_id
        self._period = period
        self._halt = threading.Event()

    def run(self) -> None:  # pragma: no cover - exercised via integration
        try:
            db = sqlite3.connect(self._path, timeout=30.0)
        except sqlite3.Error:
            return
        try:
            while not self._halt.wait(self._period):
                try:
                    db.execute(
                        "UPDATE experiments SET heartbeat_at = ? WHERE id = ?",
                        (time.time(), self._experiment_id),
                    )
                    db.commit()
                except sqlite3.Error:
                    resilience.note_fallback("ledger_write")
        finally:
            db.close()

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)


class ExperimentRun:
    """Context manager that records an experiment while it runs.

    Inside the ``with`` block every :func:`~repro.harness.parallel.run_batch`
    journals into this experiment.  On exit the final state is chosen
    from the outcome: ``COMPLETE`` when every registered row is done,
    ``INTERRUPTED`` on ctrl-C, ``FAILED`` otherwise.  With the ledger
    disabled (``REPRO_LEDGER=0``) the context is a transparent no-op.
    """

    def __init__(
        self,
        name: str | None = None,
        *,
        path: str | os.PathLike | None = None,
        note: str = "",
        ledger: Ledger | None = None,
        experiment_id: int | None = None,
    ):
        self.name = name
        self.note = note
        self._path = path
        self.ledger = ledger
        self.experiment_id = experiment_id
        self.journal: ExperimentJournal | None = None
        self.state: str | None = None
        self._beat: _Heartbeat | None = None

    def __enter__(self) -> "ExperimentRun":
        global _active
        if self.ledger is None:
            self.ledger = Ledger.open(self._path)
        if self.ledger is None:
            return self
        if self.experiment_id is None:
            self.experiment_id = self.ledger.create_experiment(
                self.name or "experiment", note=self.note
            )
        self.ledger.mark_running(self.experiment_id)
        self.journal = ExperimentJournal(self.ledger, self.experiment_id)
        self._beat = _Heartbeat(
            self.ledger.path, self.experiment_id, heartbeat_seconds()
        )
        self._beat.start()
        _active = self.journal
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _active
        if self.journal is None:
            return False
        _active = None
        try:
            self.journal.commit()
        finally:
            if self._beat is not None:
                self._beat.stop()
        from .parallel import last_batch_report

        report = last_batch_report()
        if report is not None:
            try:
                self.ledger.record_faults(
                    self.experiment_id, report.faults.to_json()
                )
            except sqlite3.Error:
                resilience.note_fallback("ledger_write")
        if exc_type is None:
            pending = self.ledger.pending_count(self.experiment_id)
            self.state = "COMPLETE" if pending == 0 else "FAILED"
        elif issubclass(exc_type, (KeyboardInterrupt, SystemExit)):
            self.state = "INTERRUPTED"
        else:
            self.state = "FAILED"
        self.ledger.finish(self.experiment_id, self.state)
        self.ledger.close()
        return False


def resume_experiment(
    token: str,
    *,
    path: str | os.PathLike | None = None,
    jobs: int | None = None,
    on_error: str | None = None,
    timeout_s: float | None = None,
    force: bool = False,
) -> dict:
    """Replay the missing/failed requests of a recorded experiment.

    Journaled rows are checksum-verified and served through the
    artifact store's memory (0 re-executions — ``re_executed`` in the
    returned summary counts only truly cold runs, straight from
    ``BatchReport.executed``); corrupt rows are demoted and recomputed.
    An experiment recorded under another ``MODEL_VERSION``, or a
    RUNNING one with a fresh heartbeat, is refused unless ``force``; a
    stale RUNNING one is marked INTERRUPTED and taken over.
    Because every simulation is deterministic, the merged results are
    bit-identical to an uninterrupted run.
    """
    ledger = Ledger.open(path)
    if ledger is None:
        raise ReproError(
            "experiment ledger is disabled (REPRO_LEDGER=0); nothing to resume"
        )
    row = ledger.find(token)
    if row is None:
        ledger.close()
        raise ReproError(f"no experiment matches {token!r}")
    experiment_id = int(row["id"])
    total = ledger.request_count(experiment_id)
    if row["state"] == "COMPLETE":
        done = len(ledger.done_keys(experiment_id))
        ledger.close()
        return {
            "id": experiment_id, "name": row["name"], "state": "COMPLETE",
            "resumed": False, "requests": total, "ledger_served": done,
            "re_executed": 0,
        }
    recorded_version = row["model_version"]
    if recorded_version != artifacts.MODEL_VERSION and not force:
        ledger.close()
        raise ReproError(
            f"experiment {experiment_id} was recorded under model version "
            f"{recorded_version!r} but this code is model version "
            f"{artifacts.MODEL_VERSION!r}; its journaled results may differ "
            "from what this code computes (pass force to merge them anyway)"
        )
    counters_before = resilience.global_counters()
    if row["state"] == "RUNNING":
        if not force and not ledger.is_stale(row):
            ledger.close()
            raise ReproError(
                f"experiment {experiment_id} is RUNNING with a fresh "
                "heartbeat (owner pid "
                f"{row['owner_pid']}); pass force to take it over"
            )
        resilience.note_fallback("note:ledger_takeover")
        ledger.set_state(experiment_id, "INTERRUPTED")
    stored = ledger.journaled_stats(experiment_id)
    pairs = ledger.stored_requests(experiment_id)
    requests = dict(pairs)
    for key, stats in stored.items():
        artifacts.publish(stats_key(requests[key], key), stats)
    from .parallel import run_batch

    # Takeover/demotion notes accrued above predate run_batch's own
    # counter snapshot, so fold that delta into the report explicitly.
    pre_batch = resilience.counters_since(counters_before)
    started = time.perf_counter()
    with ExperimentRun(
        row["name"], ledger=ledger, experiment_id=experiment_id
    ) as record:
        _stats, report = run_batch(
            [request for _, request in pairs],
            jobs=jobs, on_error=on_error, timeout_s=timeout_s,
        )
    report.faults.merge_counters(pre_batch)
    return {
        "id": experiment_id,
        "name": row["name"],
        "state": record.state,
        "resumed": True,
        "requests": total,
        "ledger_served": len(stored),
        "re_executed": report.executed,
        "memory_hits": report.memory_hits,
        "disk_hits": report.disk_hits,
        "elapsed_s": round(time.perf_counter() - started, 3),
        "faults": report.faults.to_json(),
    }
