"""Next-use indices over a fixed trace, shared across policy instances.

Two implementations with one query interface:

* :class:`FutureIndex` — the semantic reference and test oracle: a
  dict of per-key lookup-time lists, bisected per query.
* :class:`ColumnarFutureIndex` — the production layout: one pass over the trace
  produces a columnar CSR layout (a flat occurrence array grouped by
  key plus per-key spans) and a numpy *successor array* ``succ`` where
  ``succ[t]`` is the next lookup time of the object observed at ``t``
  (:data:`NEVER` when it never recurs).  Point queries bisect the flat
  array within the key's span — same complexity and same answers as the
  reference — while bulk consumers
  (:func:`repro.offline.intervals.shared_intervals`) read ``succ``
  directly instead of re-deriving reuse chains.

:func:`shared_future_index` memoizes the columnar index on the
:class:`~repro.core.trace.Trace`, so every policy replaying one trace
under the same identity mode shares a single build.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from typing import Hashable

import numpy as np

from .. import stagetimer
from ..core.pw import PWLookup, StoredPW
from ..core.trace import Trace
from .intervals import IdentityMode

#: Sentinel "never used again".
NEVER = sys.maxsize


class FutureIndex:
    """Next-use queries over a fixed trace (reference implementation)."""

    def __init__(self, trace: Trace, identity: IdentityMode) -> None:
        self._key_fn = identity.key_fn()
        self._times: dict[Hashable, list[int]] = {}
        for t, pw in enumerate(trace):
            self._times.setdefault(self._key_fn(pw), []).append(t)

    def key_of(self, pw: PWLookup | StoredPW) -> Hashable:
        # StoredPW quacks enough like PWLookup for both key functions.
        return self._key_fn(pw)  # type: ignore[arg-type]

    def next_use(self, key: Hashable, after: int) -> int:
        """First lookup time of ``key`` strictly after ``after``."""
        times = self._times.get(key)
        if not times:
            return NEVER
        index = bisect_right(times, after)
        if index >= len(times):
            return NEVER
        return times[index]

    def next_use_of(self, pw: PWLookup | StoredPW, after: int) -> int:
        return self.next_use(self.key_of(pw), after)


class ColumnarFutureIndex:
    """Columnar next-use representation built in one pass.

    Layout (all parallel to the trace, length ``n``):

    ``succ``
        int64 numpy array; ``succ[t]`` is the next lookup time of the
        key observed at ``t``, or :data:`NEVER`.
    ``occ`` / ``occ_list``
        the lookup times ``0..n-1`` grouped by key (ascending within
        each group) — a CSR occurrence array, as numpy and as a plain
        list (C ``bisect`` on a list is what the per-resident scoring
        hot path wants).
    ``span``
        key -> ``(lo, hi)`` half-open range into ``occ``.
    """

    def __init__(self, trace: Trace, identity: IdentityMode) -> None:
        key_fn = identity.key_fn()
        self._key_fn = key_fn
        # Packed traces yield the key stream straight from the columns
        # (ints for START, (start, uops) tuples for EXACT — the same
        # values key_fn computes), skipping PWLookup materialization.
        if trace.has_columns():
            columns = trace.columns
            n = len(columns)
            if identity is IdentityMode.START:
                keys = iter(columns.starts)
            else:
                keys = zip(columns.starts, columns.uops)
        else:
            lookups = trace.lookups
            n = len(lookups)
            keys = map(key_fn, lookups)
        ids = np.empty(n, dtype=np.int64)
        key_id: dict[Hashable, int] = {}
        next_id = 0
        for t, k in enumerate(keys):
            i = key_id.get(k)
            if i is None:
                i = key_id[k] = next_id
                next_id += 1
            ids[t] = i
        # CSR occurrence layout: a stable sort by key id groups the
        # (already time-ordered) positions per key.
        occ = np.argsort(ids, kind="stable").astype(np.int64, copy=False)
        offsets = np.zeros(next_id + 1, dtype=np.int64)
        np.cumsum(np.bincount(ids, minlength=next_id), out=offsets[1:])
        # Successor array: within each key group, each occurrence's
        # successor is the next group element; group tails get NEVER.
        succ = np.empty(n, dtype=np.int64)
        if n:
            succ[occ[:-1]] = occ[1:]
            succ[occ[offsets[1:] - 1]] = NEVER
        self.succ = succ
        self.occ = occ
        self.occ_list: list[int] = occ.tolist()
        off = offsets.tolist()
        self.span: dict[Hashable, tuple[int, int]] = {
            key: (off[i], off[i + 1]) for key, i in key_id.items()
        }

    def key_of(self, pw: PWLookup | StoredPW) -> Hashable:
        return self._key_fn(pw)  # type: ignore[arg-type]

    def next_use(self, key: Hashable, after: int) -> int:
        """First lookup time of ``key`` strictly after ``after``."""
        span = self.span.get(key)
        if span is None:
            return NEVER
        lo, hi = span
        index = bisect_right(self.occ_list, after, lo, hi)
        if index >= hi:
            return NEVER
        return self.occ_list[index]

    def next_use_of(self, pw: PWLookup | StoredPW, after: int) -> int:
        return self.next_use(self._key_fn(pw), after)  # type: ignore[arg-type]


def shared_future_index(
    trace: Trace, identity: IdentityMode
) -> ColumnarFutureIndex:
    """The trace's memoized columnar index for one identity mode.

    All policies (and the interval extractor) replaying ``trace`` under
    ``identity`` share one build.
    """

    def build() -> ColumnarFutureIndex:
        with stagetimer.timed("future_index"):
            return ColumnarFutureIndex(trace, identity)

    return trace.memo(("future_index", identity), build)
