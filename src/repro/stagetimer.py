"""Opt-in wall-clock attribution for the stages inside a layer.

Trace construction (CFG build, walk with its MPKI calibration) and policy
construction (future index, interval decomposition, admission
planning, flow solving, profiling simulation, hint building) each span
several stages.  Each stage wraps its work in :func:`timed`; when no
capture is active (the normal case — every experiment run) the wrapper
is a no-op, so the instrumentation costs nothing on the hot path.  The
traced replay of ``python3 -m bench --trace 1`` (``bench/child.py``)
activates :func:`capture` around each layer it times and reports the
per-stage breakdown under that layer.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Iterator

#: The active collector, or None when capture is off.
_active: dict[str, float] | None = None
#: Per-stage invocation counts of the active capture.
_counts: dict[str, int] | None = None


def record(stage: str, seconds: float) -> None:
    """Attribute ``seconds`` to ``stage`` in the active capture (if any)."""
    if _active is not None:
        _active[stage] = _active.get(stage, 0.0) + seconds
        _counts[stage] = _counts.get(stage, 0) + 1  # type: ignore[index]


@contextmanager
def timed(stage: str) -> Iterator[None]:
    """Time the enclosed block into ``stage`` when a capture is active."""
    if _active is None:
        yield
        return
    started = perf_counter()
    try:
        yield
    finally:
        record(stage, perf_counter() - started)


@contextmanager
def capture() -> Iterator[dict[str, float]]:
    """Collect stage timings for the enclosed block.

    Yields the (live) ``stage -> seconds`` dict; on exit it additionally
    holds ``<stage>_calls`` count entries.  Captures do not nest — an
    inner capture simply redirects recording until it exits.
    """
    global _active, _counts
    saved, saved_counts = _active, _counts
    _active, _counts = {}, {}
    try:
        yield _active
    finally:
        for stage, count in _counts.items():
            _active[f"{stage}_calls"] = count
        _active, _counts = saved, saved_counts
