"""Durable experiment ledger: store, journaling, resume and chaos.

Covers :mod:`repro.harness.ledger` (the WAL-mode SQLite run store and
its lifecycle/heartbeat rules), the journal wiring inside
:func:`repro.harness.parallel.run_batch`, checksum-verified resume with
zero re-execution of journaled requests, and the SIGKILL-and-resume
CLI path (``repro experiments run`` / ``resume``) end to end.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import faultinject
from repro.errors import FaultInjectionError, ReproError
from repro.harness import artifacts, resilience
from repro.harness import ledger as ledger_module
from repro.harness.ledger import (
    ExperimentRun,
    Ledger,
    active_journal,
    ledger_path,
    resume_experiment,
)
from repro.harness.parallel import run_many
from repro.harness.runner import RunRequest, clear_memory_cache, run
from repro.workloads.registry import clear_trace_cache

SMALL = dict(trace_len=1500, warmup=500)


def _cold():
    clear_memory_cache()
    clear_trace_cache()


def _small_batch() -> list[RunRequest]:
    return [
        RunRequest(app="kafka", policy="lru", **SMALL),
        RunRequest(app="kafka", policy="srrip", **SMALL),
        RunRequest(app="clang", policy="lru", **SMALL),
    ]


@pytest.fixture(autouse=True)
def _ledger_hygiene(monkeypatch):
    """Isolated env: no disk cache, no fault spec, clean counters."""
    for name in (
        "REPRO_FAULT_SPEC", "REPRO_FAULT_STATE", "REPRO_LEDGER",
        "REPRO_HEARTBEAT_S", "REPRO_APPS", "REPRO_TRACE_LEN", "REPRO_JOBS",
        "REPRO_ON_ERROR", "REPRO_TIMEOUT_S",
    ):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("REPRO_CACHE", "0")
    faultinject.reset_plan_cache()
    resilience.reset_counters()
    _cold()
    yield
    faultinject.reset()
    resilience.reset_counters()
    ledger_module._release_parked()
    _cold()


class TestLedgerStore:
    def test_env_disable_and_path_resolution(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", "0")
        assert ledger_path() is None
        assert Ledger.open() is None
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "env.sqlite"))
        assert ledger_path() == tmp_path / "env.sqlite"
        # An explicit argument beats the environment.
        assert ledger_path(tmp_path / "arg.sqlite") == tmp_path / "arg.sqlite"

    def test_lifecycle_and_listing(self, tmp_path):
        ledger = Ledger.open(tmp_path / "l.sqlite")
        experiment_id = ledger.create_experiment("alpha", note="first")
        row = ledger.experiment(experiment_id)
        assert row["state"] == "PENDING"
        assert row["git_hash"]
        ledger.mark_running(experiment_id)
        row = ledger.experiment(experiment_id)
        assert row["state"] == "RUNNING"
        assert row["owner_pid"] == os.getpid()
        ledger.finish(experiment_id, "COMPLETE")
        assert ledger.find("alpha")["id"] == experiment_id
        assert ledger.find(str(experiment_id))["state"] == "COMPLETE"
        assert ledger.find("nope") is None
        listed = ledger.list_experiments()
        assert [entry["name"] for entry in listed] == ["alpha"]
        assert listed[0]["requests"] == 0
        ledger.close()

    def test_register_is_idempotent(self, tmp_path):
        ledger = Ledger.open(tmp_path / "l.sqlite")
        experiment_id = ledger.create_experiment("reg")
        pairs = [(r.cache_key(), r) for r in _small_batch()]
        ledger.register_requests(experiment_id, pairs)
        ledger.register_requests(experiment_id, pairs)
        assert ledger.request_count(experiment_id) == len(pairs)
        stored = ledger.stored_requests(experiment_id)
        assert [key for key, _ in stored] == [key for key, _ in pairs]
        # Rebuilt requests resolve to the same cache keys.
        assert all(req.cache_key() == key for key, req in stored)
        ledger.close()

    def test_record_and_checksum_verify(self, tmp_path):
        ledger = Ledger.open(tmp_path / "l.sqlite")
        experiment_id = ledger.create_experiment("rec")
        request = _small_batch()[0]
        key = request.cache_key()
        stats = run(request)
        ledger.register_requests(experiment_id, [(key, request)])
        ledger.record_results(experiment_id, [(key, request, stats)])
        assert ledger.done_keys(experiment_id) == {key}
        assert ledger.pending_count(experiment_id) == 0
        verified = ledger.journaled_stats(experiment_id)
        assert dataclasses.asdict(verified[key]) == dataclasses.asdict(stats)
        ledger.close()

    def test_torn_row_is_demoted_and_counted(self, tmp_path):
        ledger = Ledger.open(tmp_path / "l.sqlite")
        experiment_id = ledger.create_experiment("torn")
        request = _small_batch()[0]
        key = request.cache_key()
        ledger.register_requests(experiment_id, [(key, request)])
        ledger.record_results(experiment_id, [(key, request, run(request))])
        with ledger._db:
            ledger._db.execute(
                "UPDATE requests SET stats = 'garbage' WHERE experiment_id = ?",
                (experiment_id,),
            )
        before = resilience.global_counters()
        assert ledger.journaled_stats(experiment_id) == {}
        assert ledger.pending_count(experiment_id) == 1
        delta = resilience.counters_since(before)
        assert delta.get("corrupt_artifact", 0) == 1
        ledger.close()

    def test_corrupt_database_file_is_quarantined(self, tmp_path):
        path = tmp_path / "l.sqlite"
        ledger = Ledger.open(path)
        ledger.create_experiment("old")
        ledger.close()
        # The file rots at rest: after the process that wrote it exited.
        ledger_module._release_parked()
        path.write_bytes(b"\x00garbage, not a database\x00" * 64)
        reopened = Ledger.open(path)
        assert reopened is not None
        assert reopened.list_experiments() == []  # fresh store
        assert list(tmp_path.glob("l.sqlite.*corrupt*")), "quarantine missing"
        reopened.close()

    def test_fault_spec_corrupts_ledger_file_on_open(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "l.sqlite"
        ledger = Ledger.open(path)
        ledger.create_experiment("doomed")
        ledger.close()
        # The file rots at rest: after the process that wrote it exited.
        ledger_module._release_parked()
        monkeypatch.setenv("REPRO_FAULT_SPEC", "artifact:ledger:corrupt")
        monkeypatch.setenv(
            "REPRO_FAULT_STATE", str(tmp_path / "fault-state")
        )
        faultinject.reset_plan_cache()
        reopened = Ledger.open(path)  # the injected garble hits here
        assert reopened.list_experiments() == []
        assert list(tmp_path.glob("l.sqlite.*corrupt*"))
        reopened.close()

    def test_git_hash_is_the_imported_package_checkout(
        self, tmp_path, monkeypatch
    ):
        src = Path(__file__).resolve().parents[1] / "src"
        head = subprocess.run(
            ["git", "-C", str(src), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
        if head.returncode != 0:
            pytest.skip("src is not in a git checkout")
        monkeypatch.chdir(tmp_path)  # not a git checkout
        ledger = Ledger.open(tmp_path / "l.sqlite")
        row = ledger.experiment(ledger.create_experiment("where"))
        ledger.close()
        assert row["git_hash"] == head.stdout.strip()

    def test_model_version_column_added_to_existing_ledger(self, tmp_path):
        path = tmp_path / "l.sqlite"
        old_schema = "\n".join(
            line for line in ledger_module._SCHEMA.splitlines()
            if "model_version" not in line
        ).replace("DEFAULT '',\n);", "DEFAULT ''\n);")
        con = sqlite3.connect(path)
        con.executescript(old_schema)
        con.execute(
            "INSERT INTO experiments (name, created_at) VALUES ('old', 0)"
        )
        con.commit()
        con.close()
        ledger = Ledger.open(path)
        assert ledger.find("old")["model_version"] == ""
        fresh = ledger.experiment(ledger.create_experiment("new"))
        assert fresh["model_version"] == artifacts.MODEL_VERSION
        ledger.close()

    def test_stale_heartbeat_detection(self, tmp_path):
        ledger = Ledger.open(tmp_path / "l.sqlite")
        experiment_id = ledger.create_experiment("beat")
        ledger.mark_running(experiment_id)
        assert not ledger.is_stale(ledger.experiment(experiment_id))
        with ledger._db:
            ledger._db.execute(
                "UPDATE experiments SET heartbeat_at = ?, heartbeat_s = 0.2"
                " WHERE id = ?",
                (time.time() - 60.0, experiment_id),
            )
        assert ledger.is_stale(ledger.experiment(experiment_id))
        ledger.close()


class TestConnectionLifetime:
    """``close`` parks the connection; the real close runs at exit."""

    def test_runs_on_one_path_connect_once(self, tmp_path, monkeypatch):
        db = tmp_path / "l.sqlite"
        connects = []
        connect = Ledger._connect

        def counting(path):
            connects.append(path)
            return connect(path)

        monkeypatch.setattr(Ledger, "_connect", staticmethod(counting))
        for index in range(5):
            with ExperimentRun(f"run{index}", path=db) as record:
                pass
            assert record.state == "COMPLETE"
        assert connects == [db]
        ledger = Ledger.open(db)
        assert [row["state"] for row in ledger.list_experiments()] == [
            "COMPLETE"] * 5
        ledger.close()

    def test_unlinked_file_reopens_as_empty_store(self, tmp_path):
        path = tmp_path / "l.sqlite"
        ledger = Ledger.open(path)
        ledger.create_experiment("gone")
        ledger.close()
        parked = ledger_module._parked[2]
        for suffix in ("", "-wal", "-shm"):
            Path(str(path) + suffix).unlink(missing_ok=True)
        reopened = Ledger.open(path)
        assert reopened._db is not parked
        assert reopened.list_experiments() == []
        reopened.close()
        with pytest.raises(sqlite3.ProgrammingError):
            parked.execute("SELECT 1")  # really closed, not leaked

    def test_close_rolls_back_uncommitted_work(self, tmp_path):
        path = tmp_path / "l.sqlite"
        ledger = Ledger.open(path)
        ledger._db.execute(
            "INSERT INTO experiments (name, created_at) VALUES ('torn', 0)"
        )
        assert ledger._db.in_transaction
        ledger.close()
        reopened = Ledger.open(path)
        assert reopened.list_experiments() == []
        reopened.close()

    def test_process_exit_checkpoints_the_wal(self, tmp_path):
        db = tmp_path / "l.sqlite"
        wal = Path(str(db) + "-wal")
        script = (
            "import os, sys\n"
            "from repro.harness.ledger import ExperimentRun\n"
            "for name in ('one', 'two'):\n"
            "    with ExperimentRun(name, path=sys.argv[1]):\n"
            "        pass\n"
            "print(os.path.exists(sys.argv[1] + '-wal'))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", script, str(db)],
            capture_output=True, text=True, timeout=120.0, env=env,
            cwd=tmp_path,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "True"  # not checkpointed per run
        assert not wal.exists()  # ... but once, at exit
        ledger = Ledger.open(db)
        assert [(row["name"], row["state"])
                for row in ledger.list_experiments()] == [
            ("one", "COMPLETE"), ("two", "COMPLETE")]
        ledger.close()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_gets_its_own_connection(self, tmp_path):
        path = tmp_path / "l.sqlite"
        ledger = Ledger.open(path)
        ledger.create_experiment("parent")
        ledger.close()
        parked = ledger_module._parked[2]
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            code = 1
            try:
                child = Ledger.open(path)
                own = child._db is not parked
                child.create_experiment("child")
                child.close()
                ledger_module._release_parked()  # the child's own exit
                kept = any(db is parked for db in ledger_module._inherited)
                code = 0 if own and kept else 2
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        reopened = Ledger.open(path)
        assert reopened._db is parked
        reopened.create_experiment("after")
        assert [row["name"] for row in reopened.list_experiments()] == [
            "parent", "child", "after"]
        reopened.close()


class TestJournalWiring:
    def test_run_batch_journals_inside_experiment_run(self, tmp_path):
        db = tmp_path / "l.sqlite"
        requests = _small_batch()
        with ExperimentRun("wired", path=db) as record:
            assert active_journal() is record.journal
            stats = run_many(requests)
        assert active_journal() is None
        assert record.state == "COMPLETE"
        ledger = Ledger.open(db)
        rows = ledger.results_rows(record.experiment_id)
        assert [r["status"] for r in rows] == ["done"] * len(requests)
        journaled = {r["cache_key"]: r["stats"] for r in rows}
        for request, result in zip(requests, stats):
            assert journaled[request.cache_key()] == dataclasses.asdict(result)
        assert ledger.fault_rows(record.experiment_id)  # report recorded
        ledger.close()

    def test_no_ledger_touched_outside_context(self, tmp_path, monkeypatch):
        db = tmp_path / "l.sqlite"
        monkeypatch.setenv("REPRO_LEDGER", str(db))
        run_many(_small_batch()[:1])
        assert not db.exists()

    def test_disabled_ledger_is_transparent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", "0")
        with ExperimentRun("ghost") as record:
            stats = run_many(_small_batch()[:1])
        assert record.ledger is None
        assert record.state is None
        assert stats[0].uops_total > 0

    def test_cache_hits_are_journaled_too(self, tmp_path):
        requests = _small_batch()
        run_many(requests)  # warm the in-memory cache, unrecorded
        with ExperimentRun("warm", path=tmp_path / "l.sqlite") as record:
            run_many(requests)
        assert record.state == "COMPLETE"
        ledger = Ledger.open(tmp_path / "l.sqlite")
        assert len(ledger.done_keys(record.experiment_id)) == len(requests)
        ledger.close()

    def test_failed_when_rows_left_pending(self, tmp_path):
        db = tmp_path / "l.sqlite"
        request = _small_batch()[0]
        with ExperimentRun("partial", path=db) as record:
            record.journal.register([(request.cache_key(), request)])
            # No results land: the experiment cannot be COMPLETE.
        assert record.state == "FAILED"

    def test_exception_marks_failed(self, tmp_path):
        with pytest.raises(RuntimeError):
            with ExperimentRun("boom", path=tmp_path / "l.sqlite") as record:
                raise RuntimeError("mid-experiment")
        assert record.state == "FAILED"

    def test_keyboard_interrupt_marks_interrupted(self, tmp_path):
        with pytest.raises(KeyboardInterrupt):
            with ExperimentRun("ctrlc", path=tmp_path / "l.sqlite") as record:
                raise KeyboardInterrupt
        assert record.state == "INTERRUPTED"


class TestResume:
    def _recorded(self, db, name="base") -> tuple[int, list[dict]]:
        requests = _small_batch()
        with ExperimentRun(name, path=db) as record:
            stats = run_many(requests)
        assert record.state == "COMPLETE"
        return record.experiment_id, [dataclasses.asdict(s) for s in stats]

    def test_resume_complete_is_a_noop(self, tmp_path):
        db = tmp_path / "l.sqlite"
        experiment_id, _ = self._recorded(db)
        out = resume_experiment(str(experiment_id), path=db)
        assert out["resumed"] is False
        assert out["state"] == "COMPLETE"
        assert out["re_executed"] == 0

    def test_resume_reexecutes_only_missing_rows(self, tmp_path):
        db = tmp_path / "l.sqlite"
        experiment_id, reference = self._recorded(db)
        con = sqlite3.connect(db)
        con.execute(
            "UPDATE requests SET status = 'pending', stats = NULL,"
            " sha256 = NULL WHERE idx = 1"
        )
        con.execute("UPDATE experiments SET state = 'FAILED'")
        con.commit()
        con.close()
        _cold()
        out = resume_experiment(str(experiment_id), path=db)
        assert out["state"] == "COMPLETE"
        assert out["ledger_served"] == 2
        assert out["re_executed"] == 1
        assert out["memory_hits"] == 2  # journaled rows: 0 re-executions
        ledger = Ledger.open(db)
        merged = [r["stats"] for r in ledger.results_rows(experiment_id)]
        ledger.close()
        assert merged == reference  # bit-identical to the clean run

    def test_resume_refuses_fresh_running_heartbeat(self, tmp_path):
        db = tmp_path / "l.sqlite"
        experiment_id, _ = self._recorded(db)
        con = sqlite3.connect(db)
        con.execute(
            "UPDATE experiments SET state = 'RUNNING', heartbeat_at = ?,"
            " heartbeat_s = 60.0",
            (time.time(),),
        )
        con.commit()
        con.close()
        with pytest.raises(ReproError, match="fresh"):
            resume_experiment(str(experiment_id), path=db)
        # force takes it over; the takeover is noted in the report.
        out = resume_experiment(str(experiment_id), path=db, force=True)
        assert out["state"] == "COMPLETE"
        assert out["faults"]["notes"].get("note:ledger_takeover") == 1

    def test_resume_stale_running_is_taken_over(self, tmp_path):
        db = tmp_path / "l.sqlite"
        experiment_id, _ = self._recorded(db)
        con = sqlite3.connect(db)
        con.execute(
            "UPDATE experiments SET state = 'RUNNING', heartbeat_at = ?,"
            " heartbeat_s = 0.2",
            (time.time() - 30.0,),
        )
        con.commit()
        con.close()
        out = resume_experiment(str(experiment_id), path=db)
        assert out["state"] == "COMPLETE"
        assert out["faults"]["notes"].get("note:ledger_takeover") == 1

    def test_resume_refuses_other_model_version(self, tmp_path, monkeypatch):
        db = tmp_path / "l.sqlite"
        requests = _small_batch()
        with pytest.raises(KeyboardInterrupt):
            with ExperimentRun("cut", path=db) as record:
                record.journal.register(
                    [(request.cache_key(), request) for request in requests]
                )
                run_many(requests[:2])
                raise KeyboardInterrupt
        assert record.state == "INTERRUPTED"
        experiment_id = record.experiment_id
        recorded = artifacts.MODEL_VERSION
        monkeypatch.setattr(artifacts, "MODEL_VERSION", "bumped")
        _cold()
        with pytest.raises(ReproError, match="model version") as refused:
            resume_experiment(str(experiment_id), path=db)
        assert repr(recorded) in str(refused.value)
        assert "'bumped'" in str(refused.value)
        # Refused before any journaled row was published or touched.
        for request in requests:
            store_key = artifacts.key("stats", request.cache_key())
            assert artifacts.lookup(store_key, dict) == (None, None)
        ledger = Ledger.open(db)
        assert ledger.experiment(experiment_id)["state"] == "INTERRUPTED"
        assert ledger.pending_count(experiment_id) == 1
        ledger.close()
        out = resume_experiment(str(experiment_id), path=db, force=True)
        assert out["state"] == "COMPLETE"
        assert out["ledger_served"] == 2
        assert out["re_executed"] == 1

    def test_resume_unknown_or_disabled(self, tmp_path, monkeypatch):
        with pytest.raises(ReproError, match="matches"):
            resume_experiment("ghost", path=tmp_path / "l.sqlite")
        monkeypatch.setenv("REPRO_LEDGER", "0")
        with pytest.raises(ReproError, match="disabled"):
            resume_experiment("1")

    def test_resume_recomputes_torn_row_bit_identically(
        self, tmp_path, monkeypatch
    ):
        db = tmp_path / "l.sqlite"
        experiment_id, reference = self._recorded(db)
        con = sqlite3.connect(db)
        con.execute("UPDATE experiments SET state = 'INTERRUPTED'")
        con.commit()
        con.close()
        monkeypatch.setenv("REPRO_FAULT_SPEC", "ledger:rows:corrupt")
        monkeypatch.setenv(
            "REPRO_FAULT_STATE", str(tmp_path / "fault-state")
        )
        faultinject.reset_plan_cache()
        _cold()
        out = resume_experiment(str(experiment_id), path=db)
        assert out["state"] == "COMPLETE"
        assert out["ledger_served"] == 2
        assert out["re_executed"] == 1
        assert out["faults"]["corrupt_artifacts"] == 1
        ledger = Ledger.open(db)
        merged = [r["stats"] for r in ledger.results_rows(experiment_id)]
        ledger.close()
        assert merged == reference


def _repro_cli(argv, tmp_path, extra_env, timeout=240.0):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env.pop("REPRO_APPS", None)
    env.pop("REPRO_TRACE_LEN", None)
    env["REPRO_CACHE"] = "0"
    env["PYTHONPATH"] = (
        f"{src}{os.pathsep}{env['PYTHONPATH']}"
        if env.get("PYTHONPATH") else str(src)
    )
    env.update(extra_env)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True, timeout=timeout, env=env,
        cwd=tmp_path,
    )


class TestSigkillResumeCLI:
    def test_sigkill_mid_run_then_resume_is_bit_identical(self, tmp_path):
        """Satellite proof: a SIGKILLed ``repro experiments run`` resumes
        to bit-identical stats without re-executing journaled rows."""
        db = tmp_path / "ledger.sqlite"
        grid = [
            "--apps", "kafka", "--policies", "lru,srrip,ghrp",
            "--trace-len", "1500",
        ]
        # jobs=1: the serial path journals per request with no worker
        # processes, so the SIGKILL leaves no orphans holding our pipes.
        killed = _repro_cli(
            ["experiments", "run", "bench", "--name", "torn",
             "--ledger", str(db), "--jobs", "1", *grid],
            tmp_path,
            {
                "REPRO_FAULT_SPEC": "exp:1:kill",
                "REPRO_FAULT_STATE": str(tmp_path / "fault-state"),
                "REPRO_HEARTBEAT_S": "0.2",
            },
        )
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        assert (tmp_path / "fault-state" / "exp-1-kill.fired").exists()

        ledger = Ledger.open(db)
        row = ledger.find("torn")
        assert row is not None and row["state"] == "RUNNING"
        journaled = len(ledger.done_keys(int(row["id"])))
        ledger.close()
        assert 1 <= journaled <= 3

        time.sleep(1.6)  # let the 0.2s heartbeat go stale
        resumed = _repro_cli(
            ["experiments", "resume", "torn", "--ledger", str(db),
             "--jobs", "1"],
            tmp_path, {},
        )
        assert resumed.returncode == 0, resumed.stderr
        summary = json.loads(resumed.stdout)  # stdout is pure JSON
        assert summary["state"] == "COMPLETE"
        assert summary["ledger_served"] == journaled
        assert summary["re_executed"] == 3 - journaled
        assert summary["memory_hits"] == journaled
        assert summary["faults"]["notes"].get("note:ledger_takeover") == 1

        # Bit-identity: a clean in-process recording of the same grid
        # journals byte-for-byte the same stats payloads per cache key.
        from repro.harness.experiments import run_recorded

        _cold()
        reference = run_recorded(
            "bench", ledger=db, name="ref", apps=("kafka",),
            policies=("lru", "srrip", "ghrp"), trace_len=1500,
        )
        assert reference["state"] == "COMPLETE"
        ledger = Ledger.open(db)
        torn_rows = {
            r["cache_key"]: r["stats"]
            for r in ledger.results_rows(int(row["id"]))
        }
        ref_rows = {
            r["cache_key"]: r["stats"]
            for r in ledger.results_rows(reference["id"])
        }
        ledger.close()
        assert torn_rows == ref_rows

    def test_query_cli_formats(self, tmp_path):
        db = tmp_path / "ledger.sqlite"
        with ExperimentRun("q", path=db):
            run_many(_small_batch()[:2])
        table = _repro_cli(
            ["query", "experiments", "--ledger", str(db)], tmp_path, {}
        )
        assert table.returncode == 0
        assert "COMPLETE" in table.stdout
        rows = _repro_cli(
            ["query", "results", "q", "--ledger", str(db),
             "--format", "json", "--metric", "uops_total"],
            tmp_path, {},
        )
        assert rows.returncode == 0
        decoded = json.loads(rows.stdout.split("\n", 0)[0])
        assert len(decoded) == 2
        assert all(float(entry["uops_total"]) > 0 for entry in decoded)


class TestFaultInjectReset:
    def test_reset_removes_claim_files(self, tmp_path, monkeypatch):
        state = tmp_path / "fault-state"
        monkeypatch.setenv("REPRO_FAULT_SPEC", "task:5:raise")
        monkeypatch.setenv("REPRO_FAULT_STATE", str(state))
        faultinject.reset_plan_cache()
        with pytest.raises(FaultInjectionError):
            faultinject.on_worker_task(5)
        assert list(state.glob("*.fired"))
        faultinject.reset()
        assert not state.exists()  # emptied and removed

    def test_kill_below_threshold_is_inert(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "exp:100:kill")
        monkeypatch.setenv(
            "REPRO_FAULT_STATE", str(tmp_path / "fault-state")
        )
        faultinject.reset_plan_cache()
        faultinject.maybe_kill_experiment(5)  # must not SIGKILL us


class TestRenderRows:
    def test_three_formats(self):
        from repro.harness.reporting import render_rows

        headers = ("a", "b")
        rows = [(1, "x"), (2, "y")]
        table = render_rows(headers, rows, "table", title="T")
        assert table.splitlines()[0] == "T"
        csv_text = render_rows(headers, rows, "csv")
        assert csv_text.splitlines() == ["a,b", "1,x", "2,y"]
        decoded = json.loads(render_rows(headers, rows, "json"))
        assert decoded == [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        with pytest.raises(ValueError):
            render_rows(headers, rows, "xml")
