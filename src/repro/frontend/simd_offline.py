"""Vectorized simulation kernel for offline and profile-guided policies.

The online kernel (:mod:`repro.frontend.simd`) covers the policies
whose per-event updates are plain recency/RRPV dict writes.  This
sibling extends the same machinery to the paper's headline arms:

* **Belady** and the **FOO/FLACK replay family** — their decisions are
  bisect queries into the shared columnar future index
  (:class:`~repro.offline.future.ColumnarFutureIndex`): ``occ_list``
  and ``span`` are bound once and queried directly on the cold
  (insertion) path, exactly the computation the reference ``_score`` /
  ``next_use`` methods perform.  Each resident record additionally
  caches its occurrence bracket ``[idx, lo, hi]`` in the (otherwise
  unused) aux slot: a query is valid iff ``occ[idx-1] <= after <
  occ[idx]``, which replaces the per-candidate tuple-key hash, span
  lookup and bisect with two list compares on the hot path (the bisect
  only reruns when the cached next use actually went by — at most once
  per occurrence).  Plan mode additionally reads the precomputed
  admission bytearray.
* **FURBYS / Thermometer** — static per-PW hints and classes; the hit
  path is the same inlined probe-and-stamp loop as LRU, with the live
  policy dicts (``_last_use``, RRPV table, pitfall detector) mirrored
  in event order.
* **per-PW hit-rate recording** (``record_hit_rates=True``) — a live
  mirror of ``pipeline.pw_hit_stats``, so the FURBYS/Thermometer
  profiling replay in :mod:`repro.harness.artifacts` routes through
  the kernel instead of triggering a fallback.

Unlike the online kernel — which keeps policy state in the resident
records and rebuilds the dicts before the drain — this kernel mutates
the *live* policy dicts throughout.  The offline policies' state is
keyed by start address and touched once per event (no per-set aging
offsets to batch), so mirroring costs what the records would and keeps
``_rebuild_policy_dicts`` a no-op; key insertion order then matches the
reference hook order by construction.

Bit-identity discipline is inherited wholesale: unsupported shapes
(miss classification, mid-stream pipelines) run the reference loop
with a ``sim_fallback:*`` counter, and ``tests/test_offline_kernel.py`` sweeps
geometries x policies x trace lengths against ``run_reference``.
"""

from __future__ import annotations

from bisect import bisect_right

from ..policies.srrip import RRPV_HIT, RRPV_INSERT, RRPV_MAX
from ..policies.thermometer import COLD, HOT
from ._specialize import compile_flagged
from .simd import (
    _INCLUSIVE,
    _REPLACEMENT,
    _SIZE,
    _UOPS,
    _UPGRADE,
    _WEIGHT,
    _Kernel,
    _np,
    offline_kernel_kind,
)

#: "Never used again" sentinel of the future index (sys.maxsize).
from ..offline.future import NEVER as _NEVER

_INF = float("inf")


class _OfflineKernel(_Kernel):
    """Kernel run for the offline / profile-guided policy kinds.

    Reuses the base kernel's columns, storage mirrors, orchestration
    and ``_sync_back`` unchanged; overrides the policy-state handling
    (live dict mirroring instead of record-resident state) and the
    insertion decisions (future-index bisects / hint comparisons
    instead of recency ranking).
    """

    def __init__(self, pipeline, columns: dict, n: int) -> None:
        super().__init__(pipeline, columns, n)
        policy = pipeline.policy
        # The base constructor resolved the *online* kind (None here);
        # rebind to the offline one — every inherited kind branch in
        # __init__/_sync_back is a no-op for these values.
        kind = offline_kernel_kind(policy)
        self.kind = kind

        # Live policy dicts.  Unused kinds get empty placeholders so
        # the segment's unconditional alias hoists stay valid under
        # specialization.
        self.interval_start: dict[int, int] = {}
        self.pending_lookup_t: dict[int, int] = {}
        self.o_last_use: dict[int, int] = {}
        self.o_rrpv: dict[int, int] = {}
        self.classes_get = self.interval_start.get
        self.occ: list[int] = []
        self.span_get = self.interval_start.get
        self.admit = b""
        self.n_admit = 0
        self.start_identity = False
        self.async_aware = False
        self.metric_mode = 0
        if kind in ("plan", "greedy"):
            from ..offline.intervals import IdentityMode

            self.interval_start = policy._interval_start
            self.pending_lookup_t = policy._pending_lookup_t
            self.occ = policy._occ
            self.span_get = policy._span.get
            self.start_identity = policy._identity is IdentityMode.START
            self.async_aware = policy._async_aware
            self.metric_mode = policy._metric_mode
            if kind == "plan":
                self.admit = policy.plan._admit_from
                self.n_admit = len(self.admit)
        elif kind == "belady":
            self.occ = policy.future.occ_list
            self.span_get = policy.future.span.get
        elif kind == "furbys":
            self.o_last_use = policy._last_use
            self.o_rrpv = policy.rrpv._rrpv
            self.f_bypass_enabled = policy._bypass_enabled
            self.f_bypass_floor = policy._bypass_floor
            self.f_bypass_margin = policy._bypass_margin
            self.f_pitfall_depth = policy._pitfall_depth
            # Bound method: the detector lazily creates per-set deques
            # in the policy's _pitfall dict, which is itself compared
            # state — let the policy maintain it.
            self.f_detector = policy._detector
        else:  # thermometer
            self.o_last_use = policy._last_use
            self.classes_get = policy._classes.get

        phs = pipeline.pw_hit_stats
        self.has_phs = phs is not None
        self.phs: dict[int, list[int]] = phs if phs is not None else {}

    # --- orchestration -------------------------------------------------------

    def _bind_specialized(self) -> None:
        """Bind the flag-specialized attempt before the segments run.

        The generic segment, the specialized segment and ``_drain`` all
        call through ``self._attempt``, so the instance binding covers
        every path; if compilation fails, the generic method branches
        on its flag locals per attempt instead.
        """
        spec = _off_specialized_attempt({
            "is_belady": self.kind == "belady",
            "is_plan": self.kind == "plan",
            "is_greedy": self.kind == "greedy",
            "is_furbys": self.kind == "furbys",
            "start_identity": self.start_identity,
            "async_aware": self.async_aware,
            "metric0": self.metric_mode == 0,
            "metric1": self.metric_mode == 1,
            "keep_larger": self.keep_larger,
        })
        if spec is not None:
            self._attempt = spec.__get__(self)

    def _spec_flags(self) -> dict:
        """Run-constant flags the specialized segment bakes in."""
        kind = self.kind
        return {
            "is_replay": kind in ("plan", "greedy"),
            "is_furbys": kind == "furbys",
            "track_lu": kind in ("furbys", "thermometer"),
            "has_phs": self.has_phs,
            "has_hints": bool(self.pipeline.accumulator._hints),
            "perfect_icache": self.pipeline.config.perfect_icache,
            "inclusive": self.inclusive,
        }

    def _specialized(self):
        """Compiled flag-specialized segment variant (None on failure)."""
        return _off_specialized_segment(self._spec_flags())

    def _rebuild_policy_dicts(self) -> None:
        """No-op: the policy dicts are mirrored live by the hot loop."""

    # --- storage engine ------------------------------------------------------

    def _remove(self, now: int, start: int, rec: list, reason: int) -> None:
        """Evict a resident record, mirroring the policy's on_evict."""
        set_index = rec[2]
        del self.sets_pws[set_index][start]
        del self.resident[start]
        self.used_ways[set_index] -= rec[1]
        if reason == _REPLACEMENT:
            self.cache_evictions += 1
            self.cache_evicted_entries += rec[1]
        elif reason == _INCLUSIVE:
            self.cache_invalidations += 1
        else:
            self.cache_upgrades += 1
        kind = self.kind
        if kind == "furbys":
            self.o_last_use.pop(start, None)
            self.o_rrpv.pop(start, None)
        elif kind == "thermometer":
            self.o_last_use.pop(start, None)
        elif kind != "belady" and reason != _UPGRADE:
            # Replay modes keep the interval across an in-place upgrade
            # (EvictionReason.UPGRADE is excluded in the reference).
            self.interval_start.pop(start, None)

    # The bracket-cache pattern below repeats inline in every ranking
    # loop on purpose: a shared helper would reintroduce the very
    # function-call overhead the cache removes.  The cached [idx, lo,
    # hi] answers ``first occurrence > after`` iff ``occ[idx-1] <=
    # after < occ[idx]`` (with the boundary cases); any other query —
    # the next use went by, or a stale FLACK time_ref looks backwards —
    # falls back to one bisect and re-caches.

    def _attempt(self, now: int, start: int, request: tuple) -> None:
        """One insertion attempt (mirrors ``UopCache.try_insert``).

        The reference splits this across ``try_insert`` plus the
        policy's ``should_bypass`` / ``choose_victims`` / ``on_evict``
        hooks; here the whole decision is one straight-line body so the
        per-kind specialization (module tail) prunes every cross-kind
        branch and the bypass-check ranking doubles as the victim order
        without a handoff.  Candidate sets are never materialized: the
        ranking loops iterate ``cset`` directly (dict order ==
        residency order), skipping ``skip`` (the same-start entry being
        upgraded); the unique running index ``i`` breaks sort ties in
        residency order.
        """
        is_belady = self.kind == "belady"
        is_plan = self.kind == "plan"
        is_greedy = self.kind == "greedy"
        is_furbys = self.kind == "furbys"
        start_identity = self.start_identity
        async_aware = self.async_aware
        metric0 = self.metric_mode == 0
        metric1 = self.metric_mode == 1
        keep_larger = self.keep_larger

        self.st_attempts += 1
        uops = request[0]
        weight = request[3]
        set_index = request[4]
        size = request[5]
        ways = self.ways
        if size > ways:
            self.st_bypasses += 1
            return
        cset = self.sets_pws[set_index]
        existing = cset.get(start)
        if existing is not None:
            if keep_larger and existing[_UOPS] >= uops:
                self.st_bypasses += 1
                return
            extra_needed = size - existing[_SIZE]
            skip = start
        else:
            extra_needed = size
            skip = None
        need = extra_needed - (ways - self.used_ways[set_index])

        # --- should_bypass (every offline kind overrides it, so the
        # reference consults it on *every* attempt) ---
        decorated = None
        if is_belady:
            # A use *at* `now` still counts — insertions complete
            # before the lookup at `now` is served.
            span = self.span_get((start, uops))
            if span is None:
                self.st_bypasses += 1
                return
            occ = self.occ
            after = now - 1
            idx = bisect_right(occ, after, span[0], span[1])
            if idx >= span[1]:
                self.st_bypasses += 1
                return
            incoming_next = occ[idx]
            if need > 0:
                # Bypass when the incoming window would itself be the
                # best victim.  The ranking built for the check is the
                # victim order of this attempt (same `after`).
                span_get = self.span_get
                decorated = []
                i = 0
                bypass = True
                for s, rec in cset.items():
                    if s == skip:
                        continue
                    aux = rec[9]
                    if aux is None:
                        span = span_get((s, rec[0]))
                        aux = rec[9] = (
                            [span[0], span[0], span[1]]
                            if span is not None else [0, 0, 0])
                    idx, blo, bhi = aux
                    if not ((idx == blo or occ[idx - 1] <= after)
                            and (idx == bhi or occ[idx] > after)):
                        idx = bisect_right(occ, after, blo, bhi)
                        aux[0] = idx
                    nuv = occ[idx] if idx < bhi else _NEVER
                    if nuv > incoming_next:
                        # NEVER or a later next use: not the best
                        # victim.
                        bypass = False
                    decorated.append((-nuv, i, s))
                    i += 1
                if bypass:
                    self.st_bypasses += 1
                    return
        elif is_plan:
            # FOO follows its static plan eagerly: if the interval
            # starting at the lookup was not admitted, bypass — even
            # into free space.
            lookup_t = self.pending_lookup_t.get(start, now)
            if (not 0 <= lookup_t < self.n_admit
                    or self.admit[lookup_t] == 0):
                self.st_bypasses += 1
                return
        elif is_greedy:
            key = start if start_identity else (start, uops)
            occ = self.occ
            span_get = self.span_get
            if async_aware:
                time_ref = now
                span = span_get(key)
                if (span is None
                        or bisect_right(occ, now - 1, span[0], span[1])
                        >= span[1]):
                    # Reuse raced past during decode, or the window is
                    # dead ("safeguarding late insertions").
                    self.st_bypasses += 1
                    return
            else:
                # Without the asynchrony feature the policy still
                # believes the stale view from when the lookup missed.
                time_ref = self.pending_lookup_t.get(start, now)
            if need > 0:
                # Never insert a window that would immediately be the
                # best victim.  When the stale view coincides with
                # `now` (always under async awareness) the scores
                # computed for the check ARE the victim ranking of
                # this attempt.
                t = time_ref
                incoming_score = _INF
                span = span_get(key)
                if span is not None:
                    idx = bisect_right(occ, t - 1, span[0], span[1])
                    if idx < span[1]:
                        distance = float(occ[idx] - t)
                        if metric0:
                            incoming_score = distance * size
                        elif metric1:
                            incoming_score = distance
                        else:
                            incoming_score = (distance * size
                                              / max(1, uops))
                stale = t != now
                after = t - 1
                decorated = []
                i = 0
                bypass = True
                for s, rec in cset.items():
                    if s == skip:
                        continue
                    aux = rec[9]
                    if aux is None:
                        k = s if start_identity else (s, rec[0])
                        span = span_get(k)
                        aux = rec[9] = (
                            [span[0], span[0], span[1]]
                            if span is not None else [0, 0, 0])
                    idx, blo, bhi = aux
                    if not ((idx == blo or occ[idx - 1] <= after)
                            and (idx == bhi or occ[idx] > after)):
                        idx = bisect_right(occ, after, blo, bhi)
                        aux[0] = idx
                    if idx < bhi:
                        distance = float(occ[idx] - t)
                        if metric0:
                            sc = distance * rec[1]
                        elif metric1:
                            sc = distance
                        else:
                            sc = distance * rec[1] / max(1, rec[0])
                    else:
                        sc = _INF
                    if sc > incoming_score:
                        if stale:
                            # The stale ranking is NOT the victim
                            # order — rebuild below at `now`.
                            decorated = None
                            bypass = False
                            break
                        bypass = False
                    decorated.append((-sc, i, s))
                    i += 1
                if bypass:
                    self.st_bypasses += 1
                    return
        elif is_furbys:
            if (self.f_bypass_enabled and need > 0
                    and weight is not None
                    and weight < self.f_bypass_floor
                    and len(cset) != (skip is not None)):
                # Only profiled-cold windows (with a hint that reached
                # the decoder) are bypass candidates, measured against
                # the set's weight floor.
                min_weight = None
                for s, rec in cset.items():
                    if s == skip:
                        continue
                    rw = rec[5]
                    if rw is None:
                        rw = 0
                    if min_weight is None or rw < min_weight:
                        min_weight = rw
                if weight < min_weight - self.f_bypass_margin:
                    self.pipeline.policy.bypass_decisions += 1
                    self.st_bypasses += 1
                    return
        elif need > 0:
            # thermometer: a cold insertion never displaces an all-hot
            # set.
            classes_get = self.classes_get
            if (classes_get(start, COLD) == COLD
                    and len(cset) != (skip is not None)):
                for s in cset:
                    if s == skip:
                        continue
                    if classes_get(s, COLD) != HOT:
                        break
                else:
                    self.st_bypasses += 1
                    return

        if need > 0:
            # --- choose_victims ---
            if is_furbys:
                victims = self._furbys_victims(now, set_index, cset,
                                               skip, need)
                if victims is None:
                    # The policy could not (or chose not to) free
                    # enough ways: bypass, same as a Bypass decision.
                    self.st_bypasses += 1
                    return
            else:
                if decorated is None:
                    decorated = []
                    i = 0
                    if is_plan:
                        # Static plan adherence: plan-bypassed
                        # residents leave first, furthest next use
                        # first within each class (the plan ranking
                        # queries the future at `now`, not `now - 1`).
                        interval_get = self.interval_start.get
                        admit = self.admit
                        n_admit = self.n_admit
                        occ = self.occ
                        span_get = self.span_get
                        after = now
                        for s, rec in cset.items():
                            if s == skip:
                                continue
                            pt = interval_get(s)
                            planned = 1 if (pt is not None
                                            and 0 <= pt < n_admit
                                            and admit[pt]) else 0
                            aux = rec[9]
                            if aux is None:
                                k = (s if start_identity
                                     else (s, rec[0]))
                                span = span_get(k)
                                aux = rec[9] = (
                                    [span[0], span[0], span[1]]
                                    if span is not None else [0, 0, 0])
                            idx, blo, bhi = aux
                            if not ((idx == blo
                                     or occ[idx - 1] <= after)
                                    and (idx == bhi
                                         or occ[idx] > after)):
                                idx = bisect_right(occ, after, blo, bhi)
                                aux[0] = idx
                            nuv = occ[idx] if idx < bhi else _NEVER
                            decorated.append((planned, -nuv, i, s))
                            i += 1
                    elif is_greedy:
                        # The bypass check ran on a stale time_ref; the
                        # victim ranking queries the future at `now`.
                        occ = self.occ
                        span_get = self.span_get
                        after = now - 1
                        for s, rec in cset.items():
                            if s == skip:
                                continue
                            aux = rec[9]
                            if aux is None:
                                k = (s if start_identity
                                     else (s, rec[0]))
                                span = span_get(k)
                                aux = rec[9] = (
                                    [span[0], span[0], span[1]]
                                    if span is not None else [0, 0, 0])
                            idx, blo, bhi = aux
                            if not ((idx == blo
                                     or occ[idx - 1] <= after)
                                    and (idx == bhi
                                         or occ[idx] > after)):
                                idx = bisect_right(occ, after, blo, bhi)
                                aux[0] = idx
                            if idx < bhi:
                                distance = float(occ[idx] - now)
                                if metric0:
                                    sc = distance * rec[1]
                                elif metric1:
                                    sc = distance
                                else:
                                    sc = (distance * rec[1]
                                          / max(1, rec[0]))
                            else:
                                sc = _INF
                            decorated.append((-sc, i, s))
                            i += 1
                    elif not is_belady:
                        # thermometer: cold before warm before hot, LRU
                        # within a class (last use lives in the record
                        # stamp).
                        classes_get = self.classes_get
                        for s, rec in cset.items():
                            if s == skip:
                                continue
                            decorated.append(
                                (classes_get(s, COLD), rec[8], i, s))
                            i += 1
                # Base-protocol greedy accumulation (stable sort; ties
                # fall back to residency order via `i`).
                decorated.sort()
                victims = []
                freed = 0
                for tup in decorated:
                    vs = tup[-1]
                    victims.append(vs)
                    freed += cset[vs][_SIZE]
                    if freed >= need:
                        break
                else:
                    self.st_bypasses += 1
                    return
            # Evict (inlined _remove with EvictionReason.REPLACEMENT).
            resident = self.resident
            used_ways = self.used_ways
            for victim in victims:
                rec = cset[victim]
                vsize = rec[_SIZE]
                self.st_evictions += 1
                self.st_evicted_entries += vsize
                del cset[victim]
                del resident[victim]
                used_ways[set_index] -= vsize
                self.cache_evictions += 1
                self.cache_evicted_entries += vsize
                if is_furbys:
                    self.o_last_use.pop(victim, None)
                    self.o_rrpv.pop(victim, None)
                elif is_plan or is_greedy:
                    self.interval_start.pop(victim, None)
                elif not is_belady:  # thermometer
                    self.o_last_use.pop(victim, None)
        if existing is not None:
            # Upgrade in place: same tag, more entries (keep-larger).
            # Inlined _remove with EvictionReason.UPGRADE — the replay
            # modes keep the residency interval across the upgrade.
            if weight is None:
                weight = existing[_WEIGHT]
            del cset[start]
            del self.resident[start]
            self.used_ways[set_index] -= existing[_SIZE]
            self.cache_upgrades += 1
            if is_furbys:
                self.o_last_use.pop(start, None)
                self.o_rrpv.pop(start, None)
            elif not (is_belady or is_plan or is_greedy):
                self.o_last_use.pop(start, None)
        first_line = request[6]
        last_line = request[7]
        rec = [uops, size, set_index, request[1], request[2], weight,
               first_line, last_line, now, None, False]
        cset[start] = rec
        self.resident[start] = rec
        self.used_ways[set_index] += size
        line_map = self.line_map
        for line in range(first_line, last_line + 1):
            starts = line_map.get(line)
            if starts is None:
                line_map[line] = {start}
            else:
                starts.add(start)
        self.st_insertions += 1
        self.st_writes += size
        if is_furbys:
            self.o_last_use[start] = now
            self.o_rrpv[start] = RRPV_INSERT
        elif is_belady or is_plan or is_greedy:
            if not is_belady:
                # The residency interval starts at the lookup that
                # missed (async insertion), falling back to the
                # completion time.
                self.interval_start[start] = \
                    self.pending_lookup_t.pop(start, now)
            # Seed the record's occurrence-bracket cache ([idx, lo, hi]
            # into occ_list; [0, 0, 0] = no occurrences).
            key = start if start_identity else (start, uops)
            span = self.span_get(key)
            rec[9] = ([span[0], span[0], span[1]] if span is not None
                      else [0, 0, 0])
        else:
            self.o_last_use[start] = now

    def _furbys_victims(self, now: int, set_index: int, cset: dict,
                        skip, need: int) -> list | None:
        """Mirror of ``FurbysPolicy.choose_victims``."""
        policy = self.pipeline.policy
        decorated = []
        i = 0
        for s, rec in cset.items():
            if s == skip:
                continue
            w = rec[5]
            decorated.append((w if w is not None else 0,
                              rec[8], i, s))
            i += 1
        if not decorated:
            return []
        decorated.sort()
        ranked = [tup[3] for tup in decorated]
        use_fallback = False
        if self.f_pitfall_depth > 0:
            if ranked[0] in self.f_detector(set_index):
                # The weight-based victim was itself evicted from this
                # set just recently: degrade to SRRIP for one decision.
                use_fallback = True
        if use_fallback:
            candidates = [s for s in cset if s != skip]
            ranked = self._rrpv_victims(cset, candidates)
            policy.fallback_selections += 1
        else:
            policy.primary_selections += 1
        victims = []
        freed = 0
        for vs in ranked:
            if freed >= need:
                break
            victims.append(vs)
            freed += cset[vs][_SIZE]
        if freed < need:
            return None
        if self.f_pitfall_depth > 0:
            detector = self.f_detector(set_index)
            if use_fallback:
                detector.clear()
            else:
                for vs in victims:
                    detector.append(vs)
        return victims

    def _rrpv_victims(self, cset: dict, candidates: list) -> list:
        """Mirror of ``RRPVTable.victim_order`` with LRU tie-breaks."""
        o_rrpv = self.o_rrpv
        values = [o_rrpv.get(s, RRPV_MAX) for s in candidates]
        current_max = max(values)
        if current_max < RRPV_MAX:
            # Age the set until a distant entry exists, writing the
            # aged values back (hardware counter increments would).
            delta = RRPV_MAX - current_max
            values = [value + delta for value in values]
            for s, value in zip(candidates, values):
                o_rrpv[s] = value
        decorated = sorted(
            (-values[i], cset[s][8], i)
            for i, s in enumerate(candidates))
        return [candidates[i] for _, _, i in decorated]

    # --- main loop -----------------------------------------------------------

    def _segment(self, begin: int, end: int) -> None:
        """Simulate lookups ``[begin, end)`` into ``pipeline.stats``.

        Modeled on the online kernel's segment loop (same BTB pass,
        hit/miss/partial accounting, icache block and scheduling);
        the policy-state writes mirror the offline hooks live, and
        insertion completions run through :meth:`_attempt` (their cost
        is the ranking sorts and bisects, not the call overhead the
        online kinds inline away).
        """
        pipeline = self.pipeline
        stats = pipeline.stats
        cfg = pipeline.config
        cols = self.cols

        perfect_bp = cfg.perfect_branch_predictor
        perfect_icache = cfg.perfect_icache
        inclusive = self.inclusive
        line_bytes = self.line_bytes
        decode_width = cfg.core.decode_width
        delay = self.delay
        base = self.col_base

        starts_l = cols["starts"]
        uops_l = cols["uops"]
        reqs_l = cols["reqs"]
        ff_l = cols["first_line"]
        fl_l = cols["last_line"]
        cont_l = cols["contains"]
        ic_si_l = cols["ic_si"]

        kind = self.kind
        is_replay = kind in ("plan", "greedy")
        is_furbys = kind == "furbys"
        track_lu = is_furbys or kind == "thermometer"
        has_phs = self.has_phs
        interval_start = self.interval_start
        pending_lookup_t = self.pending_lookup_t
        o_last_use = self.o_last_use
        o_rrpv = self.o_rrpv
        phs = self.phs
        phs_get = phs.get

        resident = self.resident
        resident_get = resident.get
        pending = self.pending
        pending_append = pending.append
        pending_popleft = pending.popleft
        in_flight = self.in_flight
        in_flight_get = in_flight.get
        in_flight_pop = in_flight.pop
        in_flight_setdefault = in_flight.setdefault
        attempt = self._attempt
        remove = self._remove

        hints = pipeline.accumulator._hints
        has_hints = bool(hints)
        hints_get = hints.get

        icache = pipeline.icache
        isets = icache._sets
        ic_n_sets = icache.config.sets
        ic_ways = icache.config.ways
        line_map_get = self.line_map.get

        # --- compressed BTB pass (independent of cache state) ---
        if not cfg.perfect_btb:
            btb = pipeline.btb
            bsets = btb._sets
            btb_ways = btb.config.btb_ways
            branch_pos = cols["branch_pos"]
            lo = int(_np.searchsorted(branch_pos, begin))
            hi = int(_np.searchsorted(branch_pos, end))
            btb_misses = 0
            prev_pc = None
            for pc, bi in zip(cols["branch_pcs"][lo:hi],
                              cols["branch_si"][lo:hi]):
                if pc == prev_pc:
                    continue  # still the MRU entry of its set
                prev_pc = pc
                bset = bsets[bi]
                if pc in bset:
                    bset.move_to_end(pc)
                else:
                    btb_misses += 1
                    if len(bset) >= btb_ways:
                        bset.popitem(last=False)
                    bset[pc] = None
            self.btb_accesses += hi - lo
            self.btb_misses += btb_misses
            stats.btb_misses += btb_misses

        # --- segment-local counters ---
        pw_partial_hits = 0
        uops_missed = 0
        reads_corr = 0
        path_switches = icache_accesses = inclusive_invalidations = 0
        dec_episodes = dec_insts = dec_uops = dec_cycles = 0
        ic_acc = ic_miss = 0
        accumulated = 0
        on_uop_path = self.on_uop_path
        # Full misses record their index only; the per-miss totals are
        # numpy fancy-indexed sums over the precomputed columns.
        miss_idx: list[int] = []
        miss_append = miss_idx.append
        ic_prev = None  # last icache line touched (still MRU in its set)
        NEVER = 1 << 62  # int sentinel keeps the per-lookup compare int-int
        next_due = pending[0] + delay if pending else NEVER

        for now, start, uops in zip(range(begin, end),
                                    starts_l[begin - base:end - base],
                                    uops_l[begin - base:end - base]):
            if next_due <= now:
                lim = now - delay
                while pending and pending[0] <= lim:
                    qi = pending_popleft()
                    queued_start = starts_l[qi - base]
                    request = in_flight_pop(queued_start, None)
                    if request is None:
                        continue  # superseded and already completed
                    attempt(now, queued_start, request)
                next_due = pending[0] + delay if pending else NEVER

            rec = resident_get(start)
            if rec is not None and rec[0] >= uops:
                # Full hit: probe + live policy-dict stamp.
                if has_phs:
                    entry = phs_get(start)
                    if entry is None:
                        phs[start] = [uops, uops]
                    else:
                        entry[0] += uops
                        entry[1] += uops
                if track_lu:
                    rec[8] = now  # ranking reads the record stamp
                    o_last_use[start] = now
                    if is_furbys:
                        o_rrpv[start] = RRPV_HIT
                elif is_replay:
                    interval_start[start] = now
                if not on_uop_path:
                    path_switches += 1
                    on_uop_path = True
            else:
                request = reqs_l[now - base]
                if rec is None:
                    # Full miss: record the index; totals are fancy-indexed
                    # numpy sums at segment fold time.
                    miss_append(now)
                    if has_phs:
                        entry = phs_get(start)
                        if entry is None:
                            phs[start] = [0, uops]
                        else:
                            entry[1] += uops
                    if is_replay:
                        pending_lookup_t[start] = now
                    if on_uop_path:
                        path_switches += 1
                        on_uop_path = False
                    fetch_first = ff_l[now - base]
                    fetch_last = fl_l[now - base]
                else:
                    # Partial hit: stored prefix served, remainder decodes,
                    # merged larger window is scheduled for insertion.
                    served = rec[0]
                    missed = uops - served
                    insts_now = request[1]
                    pw_partial_hits += 1
                    uops_missed += missed
                    reads_corr += rec[1] - request[5]
                    if has_phs:
                        entry = phs_get(start)
                        if entry is None:
                            phs[start] = [served, uops]
                        else:
                            entry[0] += served
                            entry[1] += uops
                    missed_insts = max(1, round(insts_now * missed / uops))
                    dec_episodes += 1
                    dec_insts += missed_insts
                    dec_uops += missed
                    cycles = -(-missed_insts // decode_width)
                    dec_cycles += cycles if cycles > 1 else 1
                    if track_lu:
                        rec[8] = now  # ranking reads the record stamp
                        o_last_use[start] = now
                        if is_furbys:
                            o_rrpv[start] = RRPV_HIT
                    elif is_replay:
                        interval_start[start] = now
                        pending_lookup_t[start] = now
                    path_switches += 1 if on_uop_path else 2
                    on_uop_path = False
                    fetch_start = start + rec[4]
                    fetch_end = start + request[2]
                    fetch_first = fetch_start // line_bytes
                    if fetch_end > fetch_start:
                        fetch_last = (fetch_end - 1) // line_bytes
                    else:
                        fetch_last = fetch_first

                n_lines = fetch_last - fetch_first + 1
                icache_accesses += n_lines
                if not perfect_icache:
                    ic_acc += n_lines
                    # Same line as the previous icache access: still the MRU
                    # entry of its set, so the hit is free — no probe.
                    if n_lines == 1:
                        if fetch_first != ic_prev:
                            ic_prev = fetch_first
                            icset = isets[ic_si_l[now - base] if rec is None
                                          else fetch_first % ic_n_sets]
                            if fetch_first in icset:
                                icset.move_to_end(fetch_first)
                            else:
                                ic_miss += 1
                                if len(icset) >= ic_ways:
                                    victim_line, _ = icset.popitem(last=False)
                                    if inclusive:
                                        victim_starts = line_map_get(victim_line)
                                        if victim_starts:
                                            for vstart in list(victim_starts):
                                                vrec = resident_get(vstart)
                                                if (vrec is not None
                                                        and vrec[6] <= victim_line
                                                        <= vrec[7]):
                                                    remove(now, vstart, vrec,
                                                           _INCLUSIVE)
                                                    inclusive_invalidations += 1
                                icset[fetch_first] = None
                    else:
                        evicted = []
                        for line in range(fetch_first, fetch_last + 1):
                            if line == ic_prev:
                                continue
                            ic_prev = line
                            icset = isets[line % ic_n_sets]
                            if line in icset:
                                icset.move_to_end(line)
                                continue
                            ic_miss += 1
                            if len(icset) >= ic_ways:
                                victim_line, _ = icset.popitem(last=False)
                                evicted.append(victim_line)
                            icset[line] = None
                        if inclusive and evicted:
                            for victim_line in evicted:
                                victim_starts = line_map_get(victim_line)
                                if victim_starts:
                                    for vstart in list(victim_starts):
                                        vrec = resident_get(vstart)
                                        if (vrec is not None
                                                and vrec[6] <= victim_line
                                                <= vrec[7]):
                                            remove(now, vstart, vrec, _INCLUSIVE)
                                            inclusive_invalidations += 1

                # Schedule the insertion (inlined accumulate + supersede).
                if has_hints:
                    cur = in_flight_get(start)
                    if cur is None:
                        accumulated += 1
                        if cont_l[now - base]:
                            request = (request[:3] + (hints_get(start),)
                                       + request[4:])
                        in_flight[start] = request
                        pending_append(now)
                        if next_due == NEVER:
                            next_due = now + delay
                    elif uops > cur[0]:
                        # A longer same-start window supersedes the pending
                        # one (the original due time is kept by the pending
                        # entry).
                        accumulated += 1
                        if cont_l[now - base]:
                            request = (request[:3] + (hints_get(start),)
                                       + request[4:])
                        in_flight[start] = request
                else:
                    # setdefault fuses the probe and the store; each reqs_l
                    # tuple is stored at most once, so identity with the
                    # just-read request means the slot was empty.
                    cur = in_flight_setdefault(start, request)
                    if cur is request:
                        accumulated += 1
                        pending_append(now)
                        if next_due == NEVER:
                            next_due = now + delay
                    elif uops > cur[0]:
                        accumulated += 1
                        in_flight[start] = request

        # --- fold the segment into stats ---
        pw_misses = len(miss_idx)
        if pw_misses:
            idx = _np.array(miss_idx, dtype=_np.int64) - base
            miss_uops = int(cols["arr_uops"][idx].sum())
            uops_missed += miss_uops
            dec_uops += miss_uops
            dec_episodes += pw_misses
            dec_insts += int(cols["arr_insts"][idx].sum())
            dec_cycles += int(cols["arr_cycles"][idx].sum())
            reads_corr -= int(cols["arr_esize"][idx].sum())
        n_seg = end - begin
        cum_uops = cols["cum_uops"]
        cum_insts = cols["cum_insts"]
        cum_esize = cols["cum_esize"]
        cum_branches = cols["cum_branches"]
        b0 = begin - base
        e0 = end - base
        seg_uops = int(cum_uops[e0] - cum_uops[b0])
        seg_branches = int(cum_branches[e0] - cum_branches[b0])
        stats.lookups += n_seg
        stats.uops_total += seg_uops
        stats.instructions += int(cum_insts[e0] - cum_insts[b0])
        stats.branches += seg_branches
        stats.btb_accesses += seg_branches
        if not perfect_bp:
            cum_mispred = cols["cum_mispred"]
            stats.mispredictions += int(cum_mispred[e0] - cum_mispred[b0])
        stats.pw_hits += n_seg - pw_partial_hits - pw_misses
        stats.pw_partial_hits += pw_partial_hits
        stats.pw_misses += pw_misses
        stats.uops_hit += seg_uops - uops_missed
        stats.uops_missed += uops_missed
        stats.uop_cache_reads += (
            int(cum_esize[e0] - cum_esize[b0]) + reads_corr
        )
        stats.decoder_uops += uops_missed
        stats.path_switches += path_switches
        stats.icache_accesses += icache_accesses
        stats.inclusive_invalidations += inclusive_invalidations
        # Insertion outcomes accumulate on self (every completion goes
        # through the _attempt/_remove methods, which also maintain the
        # cache-object counters); fold and reset like the drain does.
        stats.insertion_attempts += self.st_attempts
        stats.insertions += self.st_insertions
        stats.bypasses += self.st_bypasses
        stats.uop_cache_writes += self.st_writes
        stats.evictions += self.st_evictions
        stats.evicted_entries += self.st_evicted_entries
        self.st_attempts = self.st_insertions = self.st_bypasses = 0
        self.st_writes = self.st_evictions = self.st_evicted_entries = 0
        self.dec_episodes += dec_episodes
        self.dec_insts += dec_insts
        self.dec_uops += dec_uops
        self.dec_cycles += dec_cycles
        self.ic_accesses += ic_acc
        self.ic_misses += ic_miss
        self.accumulated += accumulated
        self.on_uop_path = on_uop_path


# --- per-kind loop specialization ---------------------------------------------

#: Run-constant flags baked into specialized offline segment variants.
_OFF_SPEC_NAMES = ("is_replay", "is_furbys", "track_lu", "has_phs",
                   "has_hints", "perfect_icache", "inclusive")
#: Compiled variants keyed by flag tuple (None = compilation unavailable).
_off_spec_cache: dict[tuple, object] = {}
#: One-element cache for the extracted segment source.
_off_spec_template: list[str] = []


def _off_specialized_segment(flags: dict):
    """Cached specialized offline segment for ``flags`` (None on failure)."""
    key = tuple(bool(flags[n]) for n in _OFF_SPEC_NAMES)
    if key not in _off_spec_cache:
        try:
            _off_spec_cache[key] = compile_flagged(
                _OfflineKernel._segment, _OFF_SPEC_NAMES, flags,
                new_name="_segment_spec", namespace=globals(),
                prefix="offline-segment", template=_off_spec_template,
            )
        except Exception:  # pragma: no cover - source unavailable
            _off_spec_cache[key] = None
    return _off_spec_cache[key]


#: Run-constant flags baked into specialized ``_attempt`` variants.
#: The kind flags prune the decision branches; the policy-config flags
#: (identity mode, asynchrony, metric, keep-larger) fold their per-call
#: tests away too.
_OFF_ATT_NAMES = ("is_belady", "is_plan", "is_greedy", "is_furbys",
                  "start_identity", "async_aware", "metric0", "metric1",
                  "keep_larger")
#: Compiled variants keyed by flag tuple (None = compilation unavailable).
_off_att_cache: dict[tuple, object] = {}
#: One-element cache for the extracted attempt source.
_off_att_template: list[str] = []


def _off_specialized_attempt(flags: dict):
    """Cached specialized insertion attempt for ``flags`` (None on failure)."""
    key = tuple(bool(flags[n]) for n in _OFF_ATT_NAMES)
    if key not in _off_att_cache:
        try:
            _off_att_cache[key] = compile_flagged(
                _OfflineKernel._attempt, _OFF_ATT_NAMES, flags,
                new_name="_attempt_spec", namespace=globals(),
                prefix="offline-attempt", template=_off_att_template,
            )
        except Exception:  # pragma: no cover - source unavailable
            _off_att_cache[key] = None
    return _off_att_cache[key]


#: Cumulative evictions via :func:`clear_segment_caches`.
_off_evictions = 0


def segment_cache_stats() -> dict[str, int]:
    """Resident and cumulatively evicted compiled offline segments."""
    return {"entries": len(_off_spec_cache) + len(_off_att_cache),
            "evicted": _off_evictions}


def clear_segment_caches() -> int:
    """Drop the compiled offline segment/attempt variants."""
    global _off_evictions
    dropped = len(_off_spec_cache) + len(_off_att_cache)
    _off_evictions += dropped
    _off_spec_cache.clear()
    _off_att_cache.clear()
    return dropped
