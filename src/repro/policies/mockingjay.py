"""Mockingjay: effective mimicry of Belady's MIN (Shah et al., HPCA'22).

Mockingjay predicts each line's reuse distance from sampled history and
evicts the line whose *estimated time remaining* (ETR) says Belady
would pick it.  Predictions are learned per PC; the paper notes that
for the micro-op cache every PC maps to exactly one PW, so PC-indexed
sharing degenerates and the sampler must effectively observe all sets
(Section III-E) — this reproduction therefore trains one reuse-distance
EWMA per PW start.

PW reuse is strongly bimodal (tight loop bursts vs. long request-loop
cycles), so a scalar reuse prediction is frequently wrong; acting on
*positive* ETR comparisons evicts soon-to-return windows and performs
far below LRU.  Following the conservative reading of the design, the
predictor here is used where it is reliable — declaring windows *dead*
(idle well past their predicted reuse) and bypassing insertions whose
predicted reuse exceeds any plausible residency — and recency ranks the
rest.  This lands Mockingjay near LRU with a modest gain, matching its
modest standing in the paper's Figure 5/8 comparison.

The clock is per-set lookup count, matching the per-set replacement
decisions the predictor feeds.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..core.pw import PWLookup, StoredPW
from ..uopcache.replacement import EvictionReason, ReplacementPolicy

#: EWMA weight for new reuse-distance observations.
_ALPHA = 0.4
#: A resident idle for more than this multiple of its predicted reuse
#: distance is declared dead.
_DEAD_FACTOR = 2.0
#: Minimum samples before the prediction is trusted at all.
_MIN_SAMPLES = 2
#: Predicted reuse beyond this many set-local lookups can never survive
#: to its reuse in an 8-way set under pressure; bypass the insertion.
_BYPASS_DISTANCE = 512.0


class MockingjayPolicy(ReplacementPolicy):
    """Mockingjay adapted to PW granularity."""

    name = "mockingjay"

    def reset(self) -> None:
        self._set_clock: dict[int, int] = {}
        self._last_seen: dict[int, int] = {}      # start -> set-clock of last use
        self._prediction: dict[int, float] = {}   # start -> EWMA reuse distance
        self._samples: dict[int, int] = {}
        self._last_use: dict[int, int] = {}       # recency fallback

    # --- reuse-distance training ----------------------------------------------

    def train(self, starts: Iterable[int], set_indices: Iterable[int]) -> None:
        """Learn from a run of lookups, in order.

        What the predictor learns depends on the trace alone, so the
        simulation kernel trains a run of lookups at once; the
        reference loop trains each lookup from :meth:`on_lookup`.
        """
        set_clock = self._set_clock
        last_seen = self._last_seen
        prediction = self._prediction
        samples = self._samples
        for start, set_index in zip(starts, set_indices):
            clock = set_clock.get(set_index, 0) + 1
            set_clock[set_index] = clock
            last = last_seen.get(start)
            if last is not None:
                observed = float(clock - last)
                previous = prediction.get(start, observed)
                prediction[start] = (1 - _ALPHA) * previous + _ALPHA * observed
                samples[start] = samples.get(start, 0) + 1
            last_seen[start] = clock

    def on_lookup(self, now: int, set_index: int, lookup: PWLookup) -> None:
        self.train((lookup.start,), (set_index,))

    # --- recency bookkeeping -----------------------------------------------------

    def on_hit(self, now: int, set_index: int, stored: StoredPW,
               lookup: PWLookup) -> None:
        self._last_use[stored.start] = now

    def on_partial_hit(self, now: int, set_index: int, stored: StoredPW,
                       lookup: PWLookup) -> None:
        self._last_use[stored.start] = now

    def on_insert(self, now: int, set_index: int, stored: StoredPW) -> None:
        self._last_use[stored.start] = now

    def on_evict(self, now: int, set_index: int, stored: StoredPW,
                 reason: EvictionReason) -> None:
        self._last_use.pop(stored.start, None)

    # --- prediction-driven decisions ------------------------------------------------

    def _overdue(self, set_index: int, start: int) -> float:
        """How far past its predicted reuse the window is (<= 0: not yet)."""
        if self._samples.get(start, 0) < _MIN_SAMPLES:
            return 0.0
        clock = self._set_clock.get(set_index, 0)
        idle = clock - self._last_seen.get(start, clock)
        return idle - _DEAD_FACTOR * self._prediction.get(start, float(idle))

    def _bypasses(self, start: int) -> bool:
        """Whether the trusted reuse prediction of ``start`` exceeds any
        plausible residency."""
        return (self._samples.get(start, 0) >= _MIN_SAMPLES
                and self._prediction[start] > _BYPASS_DISTANCE)

    def _rank(self, set_index: int, start: int) -> tuple[int, float, int]:
        """Victim sort key: dead windows first, most overdue first;
        then LRU."""
        overdue = self._overdue(set_index, start)
        if overdue > 0:
            return (0, -overdue, 0)
        return (1, 0.0, self._last_use.get(start, -1))

    def should_bypass(self, now: int, set_index: int, incoming: StoredPW,
                      resident: Sequence[StoredPW], need_ways: int) -> bool:
        return self._bypasses(incoming.start)

    def victim_order(self, now: int, set_index: int, incoming: StoredPW,
                     resident: Sequence[StoredPW]) -> list[StoredPW]:
        return sorted(resident, key=lambda pw: self._rank(set_index, pw.start))
