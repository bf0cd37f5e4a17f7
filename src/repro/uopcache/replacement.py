"""Replacement-policy interface for the micro-op cache.

A policy answers one question — *which resident PWs should make room for
an incoming PW, or should the insertion be bypassed?* — and observes the
cache's lookup/insert/evict events to maintain whatever metadata it
needs (recency stacks, RRPVs, signature tables, profile weights, ...).

Unlike a conventional cache, an incoming PW may need *several* ways
(its ``size``), so victim selection can evict multiple PWs.  The base
class implements the greedy multi-victim loop; concrete policies
usually only implement :meth:`victim_order` (a preference ranking of
the resident PWs) and optionally :meth:`should_bypass`.
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Sequence

from ..core.pw import StoredPW

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.pw import PWLookup
    from .cache import UopCache


class EvictionReason(Enum):
    """Why a PW left the cache (policies may treat these differently)."""

    REPLACEMENT = "replacement"
    INCLUSIVE = "inclusive"
    #: A same-start, larger PW replaced this one (keep-larger rule).
    UPGRADE = "upgrade"
    #: Bulk :meth:`~repro.uopcache.cache.UopCache.flush` (e.g. between
    #: warmup and measurement) — not an inclusivity event.
    FLUSH = "flush"


class Bypass:
    """Sentinel decision: do not insert the incoming PW."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "BYPASS"


#: The singleton bypass decision.
BYPASS = Bypass()


@dataclass(slots=True)
class Victims:
    """Decision: evict these resident PWs, then insert."""

    pws: list[StoredPW]


Decision = Bypass | Victims


class ReplacementPolicy(ABC):
    """Base class for micro-op cache replacement policies.

    Lifecycle: the cache calls :meth:`attach` once, then streams events.
    ``now`` arguments are the lookup index (the simulator's clock).
    """

    #: Short name used by the experiment harness and reports.
    name: str = "base"

    def __init__(self) -> None:
        self._cache: "UopCache | None" = None

    # --- wiring ---------------------------------------------------------------

    def attach(self, cache: "UopCache") -> None:
        """Bind the policy to a cache (geometry becomes available)."""
        self._cache = cache
        self.reset()

    @property
    def cache(self) -> "UopCache":
        if self._cache is None:
            raise RuntimeError(f"policy {self.name} used before attach()")
        return self._cache

    def reset(self) -> None:
        """Clear per-run state; called by :meth:`attach`."""

    # --- observation hooks ------------------------------------------------------

    def on_lookup(self, now: int, set_index: int, lookup: "PWLookup") -> None:
        """Every lookup, before the outcome is known (history policies)."""

    def on_hit(self, now: int, set_index: int, stored: StoredPW,
               lookup: "PWLookup") -> None:
        """A full hit on ``stored``."""

    def on_partial_hit(self, now: int, set_index: int, stored: StoredPW,
                       lookup: "PWLookup") -> None:
        """A same-start hit that only covers part of the lookup."""

    def on_miss(self, now: int, set_index: int, lookup: "PWLookup") -> None:
        """A full miss."""

    def on_insert(self, now: int, set_index: int, stored: StoredPW) -> None:
        """``stored`` has been inserted."""

    def on_evict(self, now: int, set_index: int, stored: StoredPW,
                 reason: EvictionReason) -> None:
        """``stored`` has been evicted."""

    # --- decision -----------------------------------------------------------------

    def should_bypass(self, now: int, set_index: int, incoming: StoredPW,
                      resident: Sequence[StoredPW], need_ways: int) -> bool:
        """Whether to skip inserting ``incoming`` entirely.

        Consulted on *every* insertion attempt, even when the set has
        free space (``need_ways <= 0``) — offline policies and
        energy-saving online policies bypass eagerly, not only under
        pressure.
        """
        return False

    def victim_order(self, now: int, set_index: int, incoming: StoredPW,
                     resident: Sequence[StoredPW]) -> list[StoredPW]:
        """Residents ranked most-evictable first.

        The default multi-victim loop pops from the front of this list
        until enough ways are free.  Policies that need full control can
        override :meth:`choose_victims` instead.
        """
        raise NotImplementedError

    def choose_victims(self, now: int, set_index: int, incoming: StoredPW,
                       resident: Sequence[StoredPW], need_ways: int) -> Decision:
        """Free at least ``need_ways`` entries, or decide to bypass.

        ``resident`` excludes any same-start PW being upgraded in place
        (the cache handles the keep-larger bookkeeping; it has already
        consulted :meth:`should_bypass` before calling this).
        """
        if need_ways <= 0:
            return Victims([])
        ranked = self.victim_order(now, set_index, incoming, resident)
        victims: list[StoredPW] = []
        freed = 0
        for candidate in ranked:
            victims.append(candidate)
            freed += candidate.size
            if freed >= need_ways:
                return Victims(victims)
        # The set genuinely cannot host the PW (should not happen for
        # PWs no larger than the associativity); fall back to bypass.
        return BYPASS
