"""Simulated Intel PT collection and PW-lookup recording (STEP 1-2).

In production, FURBYS profiles applications with Intel PT — a hardware
branch trace with ≤1% overhead that data centers already collect — and
reconstructs the dynamic micro-op stream from the binary.  Here the
workload generator plays the role of the traced application, so "PT
collection" is trace construction; the functions below keep the
pipeline's stages explicit and give tests a place to assert STEP-2
semantics (a zero-size micro-op cache observes every lookup as a miss,
exposing the raw PW lookup sequence independent of replacement).
"""

from __future__ import annotations

from ..core.pw import PWLookup
from ..core.trace import Trace
from ..workloads.registry import get_trace


def simulate_pt_collection(
    app: str, input_name: str = "default", n_lookups: int | None = None
) -> Trace:
    """STEP 1: collect an execution trace of an application input.

    Stands in for ``perf record -e intel_pt//`` plus binary-guided
    micro-op reconstruction; returns the dynamic PW lookup trace.
    """
    return get_trace(app, input_name, n_lookups)


def record_lookup_sequence(trace: Trace) -> list[PWLookup]:
    """STEP 2: the PW lookup sequence a size-0 micro-op cache observes.

    With no capacity, every lookup misses, is accumulated, and fails to
    insert — so the insertion stream equals the lookup stream,
    independent of any replacement policy.  In this reproduction the
    trace already *is* that sequence, so the profiling pipeline skips
    this step (calling it would only build and pin ``PWLookup``
    objects); the function documents STEP 2 and lets tests verify the
    equivalence claim against an actual zero-capacity run.
    """
    return list(trace.lookups)
