"""Shared machinery for offline-policy replay.

Offline policies replay through the same behavioural simulator as
online policies.  Two replay modes exist, matching the paper's
narrative:

* **plan mode** (FOO, Section III-D): a static interval-admission plan
  is computed up front (greedy density allocation or exact min-cost
  flow) and followed verbatim — insertions the plan did not admit are
  eagerly bypassed, and plan-bypassed residents are preferred victims.
  Because the plan assumed synchronous insertion and exact-identity
  objects, it degrades under asynchrony and partial hits — exactly the
  failure the paper describes ("FOO cannot efficiently recompute future
  decisions for every asynchronous insertion").
* **greedy mode** (FLACK and its ablation steps, Section IV): decisions
  are recomputed *at insertion time* from the future index, using the
  evictability score ``(next_use - now) · size / value`` — Belady's
  rule generalized to variable disproportional costs.  The asynchrony
  feature ("A") evaluates the future at the actual insertion time and
  bypasses windows whose reuse already raced past in the decode
  pipeline; "VC" switches the score to micro-op values; "SB" switches
  object identity to start-address chains so partial hits earn credit.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Sequence

from ..config import UopCacheConfig
from ..core.pw import PWLookup, StoredPW
from ..core.trace import Trace
from ..uopcache.cache import default_set_index
from ..uopcache.replacement import EvictionReason, ReplacementPolicy
from .future import (  # re-exported: historic home of these names
    NEVER,
    ColumnarFutureIndex,
    FutureIndex,
    shared_future_index,
)
from .intervals import IdentityMode, ValueMetric, shared_intervals
from .plan import AdmissionPlan, greedy_admission

__all__ = [
    "NEVER", "ColumnarFutureIndex", "FutureIndex", "OfflineReplayPolicy",
    "shared_future_index",
]


class OfflineReplayPolicy(ReplacementPolicy):
    """Future-knowledge replacement with plan or greedy replay.

    Constructed from the full trace.  ``plan_mode=True`` yields FOO-like
    static-plan behaviour; ``plan_mode=False`` yields the FLACK family,
    with ``async_aware`` / ``variable_cost`` / ``selective_bypass``
    toggling the Section IV features (the Figure 10 ablation axes).
    """

    name = "offline"

    def __init__(
        self,
        trace: Trace,
        config: UopCacheConfig,
        *,
        plan_mode: bool,
        async_aware: bool,
        variable_cost: bool,
        selective_bypass: bool,
        metric: ValueMetric | None = None,
        set_index_fn: Callable[[int, int], int] | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__()
        if name:
            self.name = name
        self._plan_mode = plan_mode
        self._async_aware = async_aware
        self._selective_bypass = selective_bypass
        self._identity = (
            IdentityMode.START if selective_bypass else IdentityMode.EXACT
        )
        if metric is None:
            metric = ValueMetric.UOPS if variable_cost else ValueMetric.OHR
        self._metric = metric
        self.future = shared_future_index(trace, self._identity)
        # Hot-path aliases: _score runs per resident per insertion
        # attempt, so the future-index internals and the metric dispatch
        # are bound once here instead of per call.
        self._key_fn = self.future._key_fn
        self._occ = self.future.occ_list
        self._span = self.future.span
        self._metric_mode = (
            0 if metric is ValueMetric.OHR
            else 1 if metric is ValueMetric.ENTRIES
            else 2
        )
        self.plan: AdmissionPlan | None = None
        if plan_mode:
            set_fn = set_index_fn or default_set_index
            min_gap = config.insertion_delay if async_aware else 0

            def build_plan() -> AdmissionPlan:
                per_set, slots = shared_intervals(
                    trace,
                    config,
                    identity=self._identity,
                    metric=metric,
                    set_index_fn=set_fn,
                    min_gap=min_gap,
                )
                return greedy_admission(per_set, slots, config.ways, len(trace))

            # The plan is a pure function of the decomposition, so
            # plan-mode policies with identical parameters (e.g. foo-ohr
            # and flack[foo]) share one admission pass.
            self.plan = trace.memo(
                ("greedy_plan", self._identity, metric, set_fn, min_gap,
                 config.sets, config.ways, config.uops_per_entry),
                build_plan,
            )

    def reset(self) -> None:
        #: start -> global lookup time that began the current residency
        #: interval (refreshed on every hit; used by plan mode).
        self._interval_start: dict[int, int] = {}
        #: start -> lookup time of the miss awaiting async insertion.
        self._pending_lookup_t: dict[int, int] = {}

    # --- event hooks ---------------------------------------------------------

    def on_hit(self, now: int, set_index: int, stored: StoredPW,
               lookup: PWLookup) -> None:
        self._interval_start[stored.start] = now

    def on_partial_hit(self, now: int, set_index: int, stored: StoredPW,
                       lookup: PWLookup) -> None:
        self._interval_start[stored.start] = now
        self._pending_lookup_t[lookup.start] = now

    def on_miss(self, now: int, set_index: int, lookup: PWLookup) -> None:
        self._pending_lookup_t[lookup.start] = now

    def on_insert(self, now: int, set_index: int, stored: StoredPW) -> None:
        self._interval_start[stored.start] = self._pending_lookup_t.pop(
            stored.start, now
        )

    def on_evict(self, now: int, set_index: int, stored: StoredPW,
                 reason: EvictionReason) -> None:
        if reason is not EvictionReason.UPGRADE:
            self._interval_start.pop(stored.start, None)

    # --- scoring ---------------------------------------------------------------

    # ``_score`` and its test oracle ``_score_reference`` compute the
    # same number: ``(next_use - now) * size / value`` generalizes Belady's
    # furthest-next-use rule (the size = value case) to variable
    # disproportional costs — a far-future, many-entry, few-micro-op
    # window is the cheapest thing to sacrifice.  ``now`` is an
    # insertion-completion time; the lookup at ``now`` has not been
    # served yet, so a use *at* ``now`` counts (``now - 1`` below).

    def _score_reference(self, pw: StoredPW, now: int) -> float:
        """:meth:`_score` over ``self._times``, the per-key lookup-time
        lists of a reference :class:`FutureIndex` that tests attach."""
        times = self._times.get(self._key_fn(pw))
        if times:
            index = bisect_right(times, now - 1)
            if index < len(times):
                distance = float(times[index] - now)
                mode = self._metric_mode
                if mode == 0:
                    return distance * pw.size  # equal value, per-entry cost
                if mode == 1:
                    return distance  # value proportional to size: cancels
                return distance * pw.size / max(1, pw.uops)
        return float("inf")

    def _score(self, pw: StoredPW, now: int) -> float:
        span = self._span.get(self._key_fn(pw))
        if span is not None:
            lo, hi = span
            occ = self._occ
            index = bisect_right(occ, now - 1, lo, hi)
            if index < hi:
                distance = float(occ[index] - now)
                mode = self._metric_mode
                if mode == 0:
                    return distance * pw.size  # equal value, per-entry cost
                if mode == 1:
                    return distance  # value proportional to size: cancels
                return distance * pw.size / max(1, pw.uops)
        return float("inf")

    def _planned(self, start: int) -> bool:
        """Is the resident window's *current* interval plan-admitted?"""
        if self.plan is None:
            return True
        t = self._interval_start.get(start)
        return t is not None and self.plan.keep_from(t)

    # --- decisions ---------------------------------------------------------------

    def should_bypass(self, now: int, set_index: int, incoming: StoredPW,
                      resident: Sequence[StoredPW], need_ways: int) -> bool:
        lookup_t = self._pending_lookup_t.get(incoming.start, now)
        if self._plan_mode:
            # FOO follows its static plan eagerly (Section III-D): if the
            # interval starting at the lookup was not admitted, bypass —
            # even into free space.
            assert self.plan is not None
            return not self.plan.keep_from(lookup_t)
        # Greedy (FLACK) mode: insertion-time decisions.  Without the
        # asynchrony feature the policy still believes the stale view it
        # computed when the lookup missed.
        time_ref = now if self._async_aware else lookup_t
        # At insertion time the lookup at `now` is still unserved; the
        # stale lookup-time view keeps its own (exclusive) reference.
        next_use = self.future.next_use_of(
            incoming, time_ref - 1 if self._async_aware else time_ref
        )
        if self._async_aware and next_use == NEVER:
            # Reuse raced past during decode, or the window is dead:
            # inserting now only forces an eviction ("safeguarding late
            # insertions").
            return True
        if need_ways > 0:
            # Never insert a window that would immediately be the best
            # victim.
            incoming_score = self._score(incoming, time_ref)
            if all(
                self._score(pw, time_ref) <= incoming_score for pw in resident
            ):
                return True
        return False

    def victim_order(self, now: int, set_index: int, incoming: StoredPW,
                     resident: Sequence[StoredPW]) -> list[StoredPW]:
        if self._plan_mode:
            # Static plan adherence: plan-bypassed residents leave first,
            # furthest next use first within each class.
            def plan_rank(pw: StoredPW) -> tuple[int, int]:
                return (
                    1 if self._planned(pw.start) else 0,
                    -self.future.next_use_of(pw, now),
                )

            return sorted(resident, key=plan_rank)
        # Lazy eviction: residents are only displaced when an insertion
        # needs the space, ranked by evictability score at *this* moment.
        score = self._score
        return sorted(resident, key=lambda pw: -score(pw, now))
