"""FOO: flow-based offline optimal replacement (Berger et al. [23]).

FOO frames offline replacement as interval admission (Section III-D):
after each lookup, decide whether the window stays cached until its
next use, subject to capacity.  The LP relaxation solves exactly via
min-cost flow; this implementation uses the scalable greedy admission
of :mod:`repro.offline.plan`.  The exact flow solver
(:func:`repro.offline.mincostflow.flow_admission`) stays as the oracle
the greedy plan is measured against.

As in the paper, FOO here is *deliberately* blind to the micro-op
cache's specifics — that is what FLACK fixes:

* objective is OHR (missed PWs) or BHR (missed entries), never
  micro-ops, so costs stay proportional to size (Figure 3's flaw);
* same-start windows of different lengths are separate objects, so
  partial hits earn nothing (Figure 4's flaw);
* admission ignores the decode-pipeline insertion delay, so intervals
  too short to ever become resident waste planned capacity, and stale
  lookup-time decisions govern insertions (Section III-C(3)'s flaw).
"""

from __future__ import annotations

from typing import Callable

from ..config import UopCacheConfig
from ..core.trace import Trace
from .base import OfflineReplayPolicy
from .intervals import ValueMetric


class FOOPolicy(OfflineReplayPolicy):
    """FOO with the OHR (default) or BHR objective."""

    def __init__(
        self,
        trace: Trace,
        config: UopCacheConfig,
        *,
        objective: str = "ohr",
        set_index_fn: Callable[[int, int], int] | None = None,
    ) -> None:
        if objective not in ("ohr", "bhr"):
            raise ValueError(f"objective must be 'ohr' or 'bhr', got {objective!r}")
        metric = ValueMetric.OHR if objective == "ohr" else ValueMetric.ENTRIES
        super().__init__(
            trace,
            config,
            plan_mode=True,
            async_aware=False,
            variable_cost=False,
            selective_bypass=False,
            metric=metric,
            set_index_fn=set_index_fn,
            name=f"foo-{objective}",
        )
