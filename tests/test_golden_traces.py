"""Golden digests of generated traces: the trace layer cannot drift silently.

``tests/fixtures/golden_traces.json`` records, for 3 apps x 3 inputs x
4 lengths, the sha256 of the five packed trace columns produced by
:func:`repro.workloads.registry.build_app_trace`, together with the
:data:`~repro.workloads.generator.GENERATOR_VERSION` they were recorded
under.  The lengths straddle the 12,000-lookup MPKI calibration prefix
(below it, at it, one past it, well past it).

A generator change that alters any emitted lookup must bump
``GENERATOR_VERSION`` (it keys the disk trace store) and re-record::

    PYTHONPATH=src python tests/test_golden_traces.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.workloads.apps import get_profile
from repro.workloads.generator import GENERATOR_VERSION
from repro.workloads.registry import build_app_trace

FIXTURE = Path(__file__).parent / "fixtures" / "golden_traces.json"
APPS = ("kafka", "postgres", "wordpress")
INPUTS = ("default", "alt-seed", "mixed-load")
LENGTHS = (5000, 12000, 12001, 30000)


def trace_digest(app: str, input_name: str, n_lookups: int) -> str:
    trace = build_app_trace(get_profile(app), input_name, n_lookups)
    return hashlib.sha256(trace.columns.to_payload()).hexdigest()


def _record() -> dict:
    return {
        "generator_version": GENERATOR_VERSION,
        "digests": {
            f"{app}/{input_name}/{n}": trace_digest(app, input_name, n)
            for app in APPS
            for input_name in INPUTS
            for n in LENGTHS
        },
    }


GOLDEN = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else None
STALE = (
    "re-record with `PYTHONPATH=src python tests/test_golden_traces.py "
    "--record` after bumping GENERATOR_VERSION if the change is intended"
)


def test_golden_traces_version():
    assert GOLDEN is not None, f"missing {FIXTURE.name}; {STALE}"
    assert GOLDEN["generator_version"] == GENERATOR_VERSION, (
        f"GENERATOR_VERSION is {GENERATOR_VERSION!r} but the golden "
        f"digests were recorded under {GOLDEN['generator_version']!r}; "
        f"{STALE}"
    )
    assert len(GOLDEN["digests"]) == len(APPS) * len(INPUTS) * len(LENGTHS)


@pytest.mark.parametrize("app", APPS)
def test_golden_trace_digests(app):
    assert GOLDEN is not None, f"missing {FIXTURE.name}; {STALE}"
    for input_name in INPUTS:
        for n in LENGTHS:
            key = f"{app}/{input_name}/{n}"
            assert trace_digest(app, input_name, n) == GOLDEN["digests"][key], (
                f"generated trace {key} changed: bump GENERATOR_VERSION "
                f"(it keys the disk trace store) and {STALE}"
            )


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden_traces.py --record")
    FIXTURE.write_text(json.dumps(_record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
