"""Set-associative micro-op cache storage.

Stores :class:`~repro.core.pw.StoredPW` objects, each occupying
``size`` of its set's ways (Section II-C: multi-entry PWs are fetched
and evicted as a whole).  The cache itself is policy-free — all
replacement decisions are delegated to a
:class:`~repro.uopcache.replacement.ReplacementPolicy` — and
orchestration (hit/miss semantics, asynchronous insertion) lives in
:mod:`repro.frontend.pipeline`.

Inclusivity support: the cache maintains a reverse map from icache line
address to resident PW starts so an L1i eviction can invalidate every
overlapping PW in O(overlap).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, Iterator, NamedTuple

from ..config import UopCacheConfig
from ..core.pw import PWLookup, StoredPW
from ..errors import ConfigurationError
from .replacement import Bypass, EvictionReason, ReplacementPolicy, Victims


def default_set_index(start: int, n_sets: int) -> int:
    """Map a PW start address to a set.

    Folds higher address bits into the index (as hardware hash-index
    functions do) so windows from one code region spread across sets
    instead of piling conflict misses into a few of them.
    """
    return ((start >> 5) ^ (start >> 11)) % n_sets


class InsertResult(NamedTuple):
    """Outcome of one insertion attempt."""

    inserted: bool
    evicted_pws: int
    evicted_entries: int


#: Shared no-insertion outcome (bypass / oversize / keep-larger).
NOT_INSERTED = InsertResult(False, 0, 0)


@dataclass(slots=True)
class CacheSet:
    """One cache set: resident PWs keyed by start address.

    ``free_slots`` tracks physical way indices so policies that reason
    about ways (FURBYS's miss-pitfall detector) see hardware-accurate
    victim way ids.  It is maintained as a min-heap: insertion pops the
    lowest-numbered free ways (the same assignment order the previous
    sort-per-insert implementation produced) without re-sorting.
    """

    pws: dict[int, StoredPW] = field(default_factory=dict)
    used_ways: int = 0
    free_slots: list[int] = field(default_factory=list)

    def __iter__(self) -> Iterator[StoredPW]:
        return iter(self.pws.values())

    def __len__(self) -> int:
        return len(self.pws)


class UopCache:
    """The micro-op cache storage array.

    Parameters
    ----------
    config:
        Geometry (entries/ways/uops-per-entry).
    policy:
        Replacement policy; it is attached to this cache.
    line_bytes:
        Icache line size, for the inclusivity reverse map.
    set_index:
        Optional custom set-index function ``(start, n_sets) -> int``.
    """

    def __init__(
        self,
        config: UopCacheConfig,
        policy: ReplacementPolicy,
        *,
        line_bytes: int = 64,
        set_index: Callable[[int, int], int] | None = None,
    ) -> None:
        self.config = config
        self.policy = policy
        self.line_bytes = line_bytes
        self._set_index = set_index or default_set_index
        #: start address -> set index memo; index functions are pure,
        #: so each distinct start is hashed exactly once per cache.
        self._set_index_memo: dict[int, int] = {}
        # An ascending range is already a valid min-heap.
        self.sets = [
            CacheSet(free_slots=list(range(config.ways)))
            for _ in range(config.sets)
        ]
        self._line_map: dict[int, set[int]] = {}
        # Event counters the pipeline folds into SimulationStats.
        self.eviction_count = 0
        self.evicted_entries = 0
        self.inclusive_invalidations = 0
        self.upgrades = 0
        self.flushes = 0
        # should_bypass is consulted on every insertion attempt; when
        # the policy inherits the never-bypass default, the hot path can
        # skip the call (and the candidate-list build it would need).
        self._policy_may_bypass = (
            type(policy).should_bypass is not ReplacementPolicy.should_bypass
        )
        policy.attach(self)

    # --- geometry ------------------------------------------------------------

    @property
    def n_sets(self) -> int:
        return self.config.sets

    @property
    def ways(self) -> int:
        return self.config.ways

    def set_index(self, start: int) -> int:
        memo = self._set_index_memo
        index = memo.get(start)
        if index is None:
            index = memo[start] = self._set_index(start, self.config.sets)
        return index

    def resident_entries(self) -> int:
        """Total entries currently occupied (for occupancy invariants)."""
        return sum(s.used_ways for s in self.sets)

    def resident_pws(self) -> int:
        return sum(len(s) for s in self.sets)

    # --- probing --------------------------------------------------------------

    def probe(self, lookup: PWLookup) -> StoredPW | None:
        """Return the resident same-start PW, if any (no side effects)."""
        return self.sets[self.set_index(lookup.start)].pws.get(lookup.start)

    def contains(self, start: int) -> bool:
        return start in self.sets[self.set_index(start)].pws

    # --- line reverse map (inclusivity) ----------------------------------------

    def _lines_of(self, stored: StoredPW) -> range:
        first = stored.start // self.line_bytes
        last = (stored.end - 1) // self.line_bytes
        return range(first, last + 1)

    def _map_lines(self, stored: StoredPW) -> None:
        # The line span is cached on the PW so the matching unmap (and
        # any re-map) skips the divisions.
        stored.lines = lines = self._lines_of(stored)
        line_map = self._line_map
        start = stored.start
        for line in lines:
            starts = line_map.get(line)
            if starts is None:
                line_map[line] = {start}
            else:
                starts.add(start)

    def _unmap_lines(self, stored: StoredPW) -> None:
        line_map = self._line_map
        start = stored.start
        for line in stored.lines:
            starts = line_map.get(line)
            if starts is not None:
                starts.discard(start)
                if not starts:
                    del line_map[line]

    # --- mutation ---------------------------------------------------------------

    def _remove(
        self,
        now: int,
        stored: StoredPW,
        reason: EvictionReason,
        set_index: int | None = None,
    ) -> None:
        if set_index is None:
            set_index = self.set_index(stored.start)
        cset = self.sets[set_index]
        del cset.pws[stored.start]
        cset.used_ways -= stored.size
        free_slots = cset.free_slots
        for slot in stored.slots:
            heappush(free_slots, slot)
        self._unmap_lines(stored)
        if reason is EvictionReason.REPLACEMENT:
            self.eviction_count += 1
            self.evicted_entries += stored.size
        elif reason is EvictionReason.INCLUSIVE:
            self.inclusive_invalidations += 1
        elif reason is EvictionReason.FLUSH:
            self.flushes += 1
        else:
            self.upgrades += 1
        self.policy.on_evict(now, set_index, stored, reason)

    def invalidate_line(self, now: int, line_addr: int) -> int:
        """Invalidate every PW overlapping an evicted icache line.

        ``line_addr`` is the byte address of the line start.  Returns the
        number of PWs invalidated (for the inclusive-invalidation stat).
        """
        line = line_addr // self.line_bytes
        starts = self._line_map.get(line)
        if not starts:
            return 0
        count = 0
        for start in list(starts):
            set_index = self.set_index(start)
            stored = self.sets[set_index].pws.get(start)
            if stored is not None:
                self._remove(now, stored, EvictionReason.INCLUSIVE, set_index)
                count += 1
        return count

    def try_insert(
        self,
        now: int,
        lookup: PWLookup,
        weight: int | None = None,
        set_index: int = -1,
    ) -> InsertResult:
        """Insert the PW described by ``lookup``, consulting the policy.

        Implements the keep-larger rule for same-start PWs: a smaller
        incoming window never displaces a larger resident one, and a
        larger incoming window upgrades the resident entry in place
        (acquiring extra ways through the policy if needed).

        ``weight`` is the FURBYS hint group carried by the accumulator
        (None for unhinted windows).  ``set_index`` may be passed by
        callers that already know it (the pipeline hot loop precomputes
        it per lookup); negative means "compute here".  Returns an
        :class:`InsertResult`; ``inserted`` is False when the policy
        bypassed or the PW cannot fit the set.
        """
        config = self.config
        start = lookup.start
        if set_index < 0:
            set_index = self.set_index(start)
        cset = self.sets[set_index]
        uops = lookup.uops
        size = -(-uops // config.uops_per_entry)
        ways = config.ways
        if size > ways:
            # Oversize PW: can never be cached; served by the legacy path.
            return NOT_INSERTED

        existing = cset.pws.get(start)
        if existing is not None:
            if config.keep_larger and existing.uops >= uops:
                # Keep-larger: the resident window already covers this one.
                return NOT_INSERTED
            extra_needed = size - existing.size
        else:
            extra_needed = size

        incoming = StoredPW(
            start=start, uops=uops, insts=lookup.insts,
            bytes_len=lookup.bytes_len, size=size, weight=weight,
        )
        need = extra_needed - (ways - cset.used_ways)
        if need > 0 or self._policy_may_bypass:
            if existing is None:
                candidates = list(cset.pws.values())
            else:
                candidates = [pw for pw in cset.pws.values() if pw is not existing]
            if self._policy_may_bypass and self.policy.should_bypass(
                now, set_index, incoming, candidates, need
            ):
                return NOT_INSERTED
        evicted_pws = 0
        evicted_entries = 0
        if need > 0:
            decision = self.policy.choose_victims(
                now, set_index, incoming, candidates, need
            )
            if isinstance(decision, Bypass):
                return NOT_INSERTED
            assert isinstance(decision, Victims)
            for victim in decision.pws:
                self._remove(now, victim, EvictionReason.REPLACEMENT, set_index)
                evicted_pws += 1
                evicted_entries += victim.size
            if ways - cset.used_ways < extra_needed:
                raise ConfigurationError(
                    f"policy {self.policy.name} freed too few ways in set {set_index}"
                )
        if existing is not None:
            # Upgrade in place: same tag, more entries (Section II-D).
            if incoming.weight is None:
                incoming.weight = existing.weight
            self._remove(now, existing, EvictionReason.UPGRADE, set_index)
        free_slots = cset.free_slots
        if size == 1:
            incoming.slots = (heappop(free_slots),)
        else:
            incoming.slots = tuple(heappop(free_slots) for _ in range(size))
        cset.pws[start] = incoming
        cset.used_ways += size
        self._map_lines(incoming)
        self.policy.on_insert(now, set_index, incoming)
        return InsertResult(True, evicted_pws, evicted_entries)

    def flush(self, now: int = 0) -> None:
        """Empty the cache (used between warmup and measurement).

        Flushed PWs are accounted under :attr:`flushes` (reason
        ``FLUSH``), *not* as inclusive invalidations — a warmup flush
        says nothing about icache inclusivity.
        """
        for set_index, cset in enumerate(self.sets):
            for stored in list(cset.pws.values()):
                self._remove(now, stored, EvictionReason.FLUSH, set_index)

    # --- introspection -------------------------------------------------------------

    def residents(self, set_index: int) -> list[StoredPW]:
        """Resident PWs of one set (copy; mutation-safe for callers)."""
        return list(self.sets[set_index].pws.values())
