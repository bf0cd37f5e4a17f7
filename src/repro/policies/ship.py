"""SHiP++: Signature-based Hit Predictor (Young et al., CRC-2 2017).

SHiP learns, per *signature*, whether insertions tend to be re-used.  A
Signature History Counter Table (SHCT) of saturating counters is
indexed by a 14-bit hash of the miss-causing address (for the micro-op
cache: the PW start).  Each resident PW carries its signature and a
reuse bit.  On eviction without reuse the signature's counter is
decremented; on the first reuse it is incremented.  Insertions whose
signature counter is zero are predicted dead and inserted at the
distant RRPV; SHiP++ additionally inserts *confident* signatures at the
near RRPV and never bypasses.
"""

from __future__ import annotations

from typing import Sequence

from ..core.pw import PWLookup, StoredPW
from ..uopcache.replacement import EvictionReason, ReplacementPolicy
from .srrip import RRPV_HIT, RRPV_INSERT, RRPV_MAX, RRPVTable

_SHCT_BITS = 14
_SHCT_SIZE = 1 << _SHCT_BITS
_COUNTER_MAX = 7  # 3-bit saturating counters
_COUNTER_INIT = 1
_CONFIDENT = _COUNTER_MAX


def signature_of(start: int) -> int:
    """14-bit signature hash of a PW start address."""
    return ((start >> 4) ^ (start >> 11) ^ (start >> 18)) & (_SHCT_SIZE - 1)


class SHiPPlusPlusPolicy(ReplacementPolicy):
    """SHiP++ adapted to PW granularity."""

    name = "ship++"

    def reset(self) -> None:
        self.rrpv = RRPVTable()
        self._shct = [_COUNTER_INIT] * _SHCT_SIZE
        self._reused: dict[int, bool] = {}
        self._signature: dict[int, int] = {}

    # --- SHCT training ----------------------------------------------------------
    #
    # One method per event, shared with the simulation kernel, which
    # calls them on this policy's live dicts.

    def _train_hit(self, start: int) -> None:
        """A first reuse trains the signature up."""
        if not self._reused.get(start, False):
            self._reused[start] = True
            sig = self._signature.get(start, signature_of(start))
            self._shct[sig] = min(_COUNTER_MAX, self._shct[sig] + 1)

    def _admit(self, start: int) -> int:
        """Record an insertion's signature; return its RRPV."""
        sig = signature_of(start)
        self._signature[start] = sig
        self._reused[start] = False
        counter = self._shct[sig]
        if counter == 0:
            return RRPV_MAX  # predicted dead: distant
        if counter >= _CONFIDENT:
            return RRPV_HIT  # confident: near
        return RRPV_INSERT

    def _depart(self, start: int, upgrade: bool) -> None:
        """Forget a departing entry; one leaving unreused trains its
        signature down (an in-place upgrade is not a departure)."""
        if not upgrade and not self._reused.get(start, True):
            sig = self._signature.get(start, signature_of(start))
            self._shct[sig] = max(0, self._shct[sig] - 1)
        self._reused.pop(start, None)
        self._signature.pop(start, None)

    def on_hit(self, now: int, set_index: int, stored: StoredPW,
               lookup: PWLookup) -> None:
        self.rrpv.on_hit(stored.start)
        self._train_hit(stored.start)

    def on_partial_hit(self, now: int, set_index: int, stored: StoredPW,
                       lookup: PWLookup) -> None:
        self.rrpv.on_hit(stored.start)
        self._train_hit(stored.start)

    def on_insert(self, now: int, set_index: int, stored: StoredPW) -> None:
        self.rrpv.set(stored.start, self._admit(stored.start))

    def on_evict(self, now: int, set_index: int, stored: StoredPW,
                 reason: EvictionReason) -> None:
        self.rrpv.on_evict(stored.start)
        self._depart(stored.start, reason is EvictionReason.UPGRADE)

    def victim_order(self, now: int, set_index: int, incoming: StoredPW,
                     resident: Sequence[StoredPW]) -> list[StoredPW]:
        return self.rrpv.victim_order(resident)
