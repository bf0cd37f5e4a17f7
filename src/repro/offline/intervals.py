"""Request-interval extraction from a PW lookup trace.

Offline caching decisions decompose the trace into *request intervals*:
for each lookup of an object, the span until the object's next lookup.
Keeping the object cached across the interval turns the lookup at the
far end into a hit; the interval occupies ``size`` entries of its set
for its whole duration.  FOO's insight (Section III-D) is that the
optimal decision is constant between consecutive accesses, so choosing
which intervals to cache — subject to per-set way capacity over time —
*is* the offline replacement problem.

Two object-identity modes reproduce the paper's distinction:

* ``IdentityMode.EXACT`` — a PW is ``(start, uops)``; same-start
  windows of different lengths are unrelated objects.  This is what
  Belady and plain FOO assume, and what makes them blind to partial
  hits (Figure 4).
* ``IdentityMode.START`` — a PW is its start address; consecutive
  same-start lookups chain regardless of length, and the interval's
  value is the micro-ops actually served (``min(uops_i, uops_j)``, the
  intermediate-exit-point benefit).  This is FLACK's view.

Three value metrics reproduce the objectives:

* ``ValueMetric.OHR`` — every avoided miss is worth 1 (object hit
  ratio);
* ``ValueMetric.ENTRIES`` — worth the PW's size in entries (byte hit
  ratio analogue);
* ``ValueMetric.UOPS`` — worth the micro-ops served (FLACK's variable
  disproportional cost).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Hashable

import numpy as np

from .. import stagetimer
from ..config import UopCacheConfig
from ..core.pw import PWLookup
from ..core.trace import Trace, callable_token


class IdentityMode(Enum):
    """How lookups are matched into reuse chains."""

    EXACT = "exact"
    START = "start"

    def key_fn(self) -> Callable[[PWLookup], Hashable]:
        if self is IdentityMode.EXACT:
            return lambda pw: (pw.start, pw.uops)
        return lambda pw: pw.start


class ValueMetric(Enum):
    """What a kept interval is worth (the avoided miss cost)."""

    OHR = "ohr"
    ENTRIES = "entries"
    UOPS = "uops"


@dataclass(slots=True)
class Interval:
    """One request interval within a single cache set.

    ``i_slot``/``j_slot`` index the set-local timeline (the sequence of
    lookups mapping to this set); ``t_start``/``t_end`` are the global
    lookup indices of the two endpoint accesses.
    """

    set_index: int
    i_slot: int
    j_slot: int
    t_start: int
    t_end: int
    size: int
    value: float

    @property
    def duration_slots(self) -> int:
        return self.j_slot - self.i_slot

    def density(self) -> float:
        """Value per entry-slot of cache occupancy (greedy ranking key)."""
        return self.value / (self.size * max(1, self.duration_slots))


def interval_value(
    metric: ValueMetric, stored: PWLookup, next_lookup: PWLookup,
    uops_per_entry: int,
) -> float:
    """Miss cost avoided at ``next_lookup`` if ``stored`` is kept."""
    served_uops = min(stored.uops, next_lookup.uops)
    if metric is ValueMetric.OHR:
        return 1.0
    if metric is ValueMetric.ENTRIES:
        return float(min(
            stored.size(uops_per_entry), next_lookup.size(uops_per_entry)
        ))
    return float(served_uops)


def extract_intervals(
    trace: Trace,
    config: UopCacheConfig,
    *,
    identity: IdentityMode,
    metric: ValueMetric,
    set_index_fn: Callable[[int, int], int],
    min_gap: int = 0,
) -> tuple[list[list[Interval]], list[int]]:
    """Decompose a trace into per-set request intervals.

    ``min_gap`` drops intervals whose global-time span is not greater
    than the decode-pipeline insertion delay: with asynchronous
    insertion the window cannot be resident in time, so such an
    interval can never produce a hit (FLACK's asynchrony awareness).

    Returns ``(per_set_intervals, slot_counts)``: the intervals grouped
    by set and the number of timeline slots of each set.
    """
    n_sets = config.sets
    key_fn = identity.key_fn()
    per_set: list[list[Interval]] = [[] for _ in range(n_sets)]
    slot_counts = [0] * n_sets
    # key -> (set_index, slot, global_t, lookup)
    last_seen: dict[Hashable, tuple[int, int, int, PWLookup]] = {}

    for t, pw in enumerate(trace):
        s = set_index_fn(pw.start, n_sets)
        slot = slot_counts[s]
        slot_counts[s] += 1
        key = key_fn(pw)
        previous = last_seen.get(key)
        if previous is not None:
            _, i_slot, t_start, stored = previous
            if t - t_start > min_gap:
                per_set[s].append(
                    Interval(
                        set_index=s,
                        i_slot=i_slot,
                        j_slot=slot,
                        t_start=t_start,
                        t_end=t,
                        size=min(stored.size(config.uops_per_entry), config.ways),
                        value=interval_value(metric, stored, pw, config.uops_per_entry),
                    )
                )
        last_seen[key] = (s, slot, t, pw)
    return per_set, slot_counts


def _set_timeline(
    trace: Trace, n_sets: int, set_index_fn: Callable[[int, int], int]
) -> tuple[list[int], list[int], list[int]]:
    """Per-lookup set index and set-local slot, memoized on the trace.

    Returns ``(set_ids, slot_of, slot_counts)``; every interval
    decomposition over one trace geometry shares the single pass.
    """

    def build() -> tuple[list[int], list[int], list[int]]:
        set_of: dict[int, int] = {}
        set_ids: list[int] = []
        slot_of: list[int] = []
        slot_counts = [0] * n_sets
        starts = (
            trace.columns.starts if trace.has_columns()
            else (pw.start for pw in trace.lookups)
        )
        for start in starts:
            s = set_of.get(start)
            if s is None:
                s = set_of[start] = set_index_fn(start, n_sets)
            set_ids.append(s)
            slot_of.append(slot_counts[s])
            slot_counts[s] += 1
        return set_ids, slot_of, slot_counts

    return trace.memo(
        ("set_timeline", n_sets, callable_token(set_index_fn)), build
    )


def _extract_intervals_columnar(
    trace: Trace,
    config: UopCacheConfig,
    *,
    identity: IdentityMode,
    metric: ValueMetric,
    set_index_fn: Callable[[int, int], int],
    min_gap: int,
) -> tuple[list[list[Interval]], list[int]]:
    """Interval decomposition driven by the shared successor array.

    The reuse chains :func:`extract_intervals` re-derives with its
    ``last_seen`` scan are exactly the pairs ``(t, succ[t])`` of the
    trace's columnar future index, so this consumes that shared
    artifact and only walks the surviving pairs.  Pairs are emitted in
    ascending end-time order — the same per-set order the reference
    scan appends in.
    """
    from .future import NEVER, shared_future_index

    succ = shared_future_index(trace, identity).succ
    set_ids, slot_of, slot_counts = _set_timeline(
        trace, config.sets, set_index_fn
    )
    ways = config.ways
    uops_per_entry = config.uops_per_entry
    per_set: list[list[Interval]] = [[] for _ in range(config.sets)]

    starts = np.nonzero(succ != NEVER)[0]
    ends = succ[starts]
    if min_gap:
        keep = ends - starts > min_gap
        starts, ends = starts[keep], ends[keep]
    order = np.argsort(ends, kind="stable")
    starts, ends = starts[order], ends[order]

    # Vectorized size/value computation (same arithmetic as
    # interval_value / PWLookup.size, broadcast over all pairs).
    uops = trace.memo(
        ("uops_arr",),
        lambda: (
            np.asarray(trace.columns.uops).astype(np.int64)
            if trace.has_columns()
            else np.fromiter(
                (pw.uops for pw in trace.lookups), dtype=np.int64,
                count=len(trace.lookups),
            )
        ),
    )
    stored_uops = uops[starts]
    sizes = np.minimum(-(-stored_uops // uops_per_entry), ways)
    if metric is ValueMetric.OHR:
        values = np.ones(len(starts))
    elif metric is ValueMetric.ENTRIES:
        values = np.minimum(
            -(-stored_uops // uops_per_entry), -(-uops[ends] // uops_per_entry)
        ).astype(float)
    else:
        values = np.minimum(stored_uops, uops[ends]).astype(float)

    for t_start, t_end, size, value in zip(
        starts.tolist(), ends.tolist(), sizes.tolist(), values.tolist()
    ):
        s = set_ids[t_start]
        per_set[s].append(
            Interval(
                set_index=s,
                i_slot=slot_of[t_start],
                j_slot=slot_of[t_end],
                t_start=t_start,
                t_end=t_end,
                size=size,
                value=value,
            )
        )
    return per_set, slot_counts


def shared_intervals(
    trace: Trace,
    config: UopCacheConfig,
    *,
    identity: IdentityMode,
    metric: ValueMetric,
    set_index_fn: Callable[[int, int], int],
    min_gap: int = 0,
) -> tuple[list[list[Interval]], list[int]]:
    """Memoized interval decomposition shared across policy instances.

    Keyed by everything that shapes the result (identity, metric, cache
    geometry, ``min_gap``); FOO and the FLACK plan-mode ablation step
    requesting the same decomposition of one trace pay for it once.
    Callers must not mutate the returned structures.
    """
    kwargs = dict(
        identity=identity, metric=metric, set_index_fn=set_index_fn,
        min_gap=min_gap,
    )
    key = (
        "intervals", identity, metric, callable_token(set_index_fn), min_gap,
        config.sets, config.ways, config.uops_per_entry,
    )

    def build() -> tuple[list[list[Interval]], list[int]]:
        with stagetimer.timed("intervals"):
            return _extract_intervals_columnar(trace, config, **kwargs)

    return trace.memo(key, build)
