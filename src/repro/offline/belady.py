"""Belady's MIN algorithm, adapted to the micro-op cache as in the paper.

Classic Belady evicts the block whose next use is furthest in the
future.  Two adaptations from Section III-C:

* decisions are made at **insertion time** (the asynchronous-insertion
  fix Belady *can* make, unlike FOO, because the greedy rule is cheap
  to re-evaluate);
* an insertion is **bypassed** when the incoming window itself has the
  furthest next use — inserting it would make it the next victim.

Belady still treats same-start windows of different lengths as distinct
objects (``IdentityMode.EXACT``) and values every PW equally, which is
exactly why FLACK outperforms it on the micro-op-level miss metric
(Figures 3 and 4).
"""

from __future__ import annotations

from typing import Sequence

from ..core.pw import StoredPW
from ..core.trace import Trace
from ..uopcache.replacement import ReplacementPolicy
from .future import NEVER, shared_future_index
from .intervals import IdentityMode


class BeladyPolicy(ReplacementPolicy):
    """Insertion-time Belady MIN with bypass."""

    name = "belady"

    def __init__(self, trace: Trace) -> None:
        super().__init__()
        self.future = shared_future_index(trace, IdentityMode.EXACT)

    def reset(self) -> None:
        pass

    def should_bypass(self, now: int, set_index: int, incoming: StoredPW,
                      resident: Sequence[StoredPW], need_ways: int) -> bool:
        # Insertions complete before the lookup at `now` is served, so a
        # use *at* `now` still counts — hence `now - 1`.
        incoming_next = self.future.next_use_of(incoming, now - 1)
        if incoming_next == NEVER:
            return True
        if need_ways <= 0:
            return False
        # Bypass when the incoming window would itself be the victim.
        return all(
            self.future.next_use_of(pw, now - 1) <= incoming_next
            for pw in resident
        )

    def victim_order(self, now: int, set_index: int, incoming: StoredPW,
                     resident: Sequence[StoredPW]) -> list[StoredPW]:
        return sorted(
            resident, key=lambda pw: -self.future.next_use_of(pw, now - 1)
        )
