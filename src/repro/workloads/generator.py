"""Dynamic trace generation: walking a CFG into a PW lookup stream.

The generator executes a :class:`~repro.workloads.cfg.ProgramCFG` the way
a decoupled frontend would observe it (Section II-B of the paper):

* execution follows blocks, sampling each terminating conditional branch
  against its bias;
* a prediction window accumulates instructions from a control-flow
  target until the first predicted-taken branch, or until the next
  instruction would start outside the icache line of the PW's start
  (PWs are "terminated by the last instruction of a cache line");
* *phases* periodically shift which functions are hot, producing the
  globally-cold-but-locally-hot windows that motivate FURBYS's local
  miss-pitfall detector (Section V).

Because the static code image is deterministic, two dynamic PWs with the
same start address and same branch outcomes are identical — and the same
start with a different outcome on an internal branch yields the
overlapping same-start/different-length windows of Section II-D.

:meth:`TraceGenerator.generate` walks straight into packed trace
columns and calibrates the branch MPKI from the walk's own first
:data:`CALIBRATION_LOOKUPS` lookups.  The object walk
(``_run_function``/``_emit``) is kept only as the test oracle behind
``TraceGenerator._generate_reference``, which calibrates with two
explicit pilot walks instead.
"""

from __future__ import annotations

import bisect
import random
from array import array
from dataclasses import dataclass

import numpy as np

from .. import stagetimer
from ..core.pw import PWLookup
from ..core.trace import (
    FLAG_CONTAINS,
    FLAG_MISPREDICTED,
    FLAG_TERMINATED,
    Trace,
    TraceColumns,
    TraceMetadata,
)
from ..errors import ConfigurationError
from .cfg import BasicBlock, ProgramCFG

#: Version of the generation algorithm.  Any change that alters the
#: emitted lookup sequence for a given (CFG, parameters) pair must bump
#: this — it keys the disk trace cache
#: (:func:`repro.harness.artifacts.load_cached_trace`), so a stale
#: cached trace can never masquerade as a regenerated one.
GENERATOR_VERSION = "1"

#: Lookups the branch-MPKI calibration measures: the first
#: ``min(n, CALIBRATION_LOOKUPS)`` lookups of an ``n``-lookup trace.
CALIBRATION_LOOKUPS = 12000

#: One icache-line run of a block: ``(abs_start, uops, insts, abs_end, line)``.
Segment = tuple[int, int, int, int, int]
#: Every block's segments, indexed ``[function][block]``.
BlockSegments = list[list[tuple[Segment, ...]]]

#: Flags of a window terminated by a (correctly predicted / mispredicted)
#: branch.
_BRANCH = FLAG_TERMINATED | FLAG_CONTAINS
_BRANCH_MISPREDICTED = _BRANCH | FLAG_MISPREDICTED


class _TraceComplete(Exception):
    """Internal signal: the requested number of lookups was emitted."""


def _segment_block(block: BasicBlock, line_bytes: int) -> tuple[Segment, ...]:
    """Static line-boundary segmentation of one block.

    Returns ``(abs_start, uops, insts, abs_end, line)`` runs of
    consecutive instructions whose start addresses share an icache
    line — exactly the granularity at which the walk splits PWs.
    """
    addr = block.addr
    uop_prefix = block.uop_prefix
    segments: list[Segment] = []
    prev_end = prev_uops = 0
    seg_start = seg_line = -1
    seg_end = uops = insts = 0
    for i, inst_end in enumerate(block.inst_ends):
        inst_start = addr + prev_end
        line = inst_start // line_bytes
        if seg_line < 0:
            seg_start, seg_line = inst_start, line
        elif line != seg_line:
            segments.append((seg_start, uops, insts, seg_end, seg_line))
            seg_start, seg_line = inst_start, line
            uops = insts = 0
        uops += uop_prefix[i] - prev_uops
        prev_uops = uop_prefix[i]
        insts += 1
        seg_end = addr + inst_end
        prev_end = inst_end
    segments.append((seg_start, uops, insts, seg_end, seg_line))
    return tuple(segments)


def segment_blocks(cfg: ProgramCFG, line_bytes: int = 64) -> BlockSegments:
    """Every block's static segmentation, indexed ``[function][block]``.

    Depends only on the CFG's addresses, so generators walking the same
    CFG (the inputs of one application) can share it.
    """
    return [
        [_segment_block(block, line_bytes) for block in function.blocks]
        for function in cfg.functions
    ]


@dataclass(slots=True)
class _PendingPW:
    """Prediction window being accumulated."""

    start: int = -1
    line: int = -1
    uops: int = 0
    insts: int = 0
    end: int = 0
    #: The window includes a block-terminating (branch) instruction.
    has_branch: bool = False

    @property
    def empty(self) -> bool:
        return self.start < 0

    def reset(self) -> None:
        self.start = -1
        self.line = -1
        self.uops = 0
        self.insts = 0
        self.end = 0
        self.has_branch = False


class TraceGenerator:
    """Walk a CFG and emit a deterministic PW lookup trace.

    Parameters mirror the application-profile knobs in
    :mod:`repro.workloads.apps`; see :func:`generate_trace` for the
    common entry point.
    """

    #: Maximum modelled call depth (beyond it, call edges are ignored).
    MAX_CALL_DEPTH = 2

    def __init__(
        self,
        cfg: ProgramCFG,
        *,
        seed: int,
        zipf_alpha: float = 1.1,
        phase_length: int = 4000,
        phase_count: int = 4,
        in_phase_bias: float = 0.85,
        phase_loop_length: int = 90,
        phase_stability: float = 0.7,
        structure_seed: int | None = None,
        line_bytes: int = 64,
        target_mispredict_mpki: float | None = None,
        block_segments: BlockSegments | None = None,
    ) -> None:
        if not cfg.functions:
            raise ConfigurationError("cannot generate a trace from an empty CFG")
        if phase_count <= 0 or phase_length <= 0:
            raise ConfigurationError("phase_count and phase_length must be positive")
        self._cfg = cfg
        self._seed = seed
        self._rng = random.Random(seed)
        self._target_mpki = target_mispredict_mpki
        self._phase_length = phase_length
        self._in_phase_bias = in_phase_bias
        self._lookups: list[PWLookup] = []
        self._limit = 0
        self._pending = _PendingPW()
        self._mispredict_mult = self._calibrate_mispredictions(
            target_mispredict_mpki
        )
        # The icache-line segmentation of a block is static (addresses
        # never change), so it is computed once per block instead of per
        # execution in the walk — by the caller when it shares one CFG
        # across generators (``block_segments``, which must be
        # ``segment_blocks(cfg, line_bytes)``); likewise the effective
        # mispredict probability (bias x calibration multiplier, clamped).
        if block_segments is None:
            block_segments = segment_blocks(cfg, line_bytes)
        self._block_segments = block_segments
        self._block_mis_rate: list[list[float]] = [[] for _ in cfg.functions]
        self._refresh_mis_rates()
        # Per-branch Bresenham accumulators: outcomes follow the branch's
        # bias as a deterministic periodic pattern, so both directions of
        # every branch surface early (matching steady-state code, where
        # rare paths are rare but not forever-unseen) instead of as an
        # unbounded random novelty tail.
        self._outcome_acc: dict[int, float] = {}

        nfuncs = len(cfg.functions)
        weights = [1.0 / (rank + 1) ** zipf_alpha for rank in range(nfuncs)]
        total = sum(weights)
        cumulative = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            cumulative.append(acc)
        self._zipf_cdf = cumulative
        # Each phase gets its own hotness permutation so different
        # functions are hot in different program phases — but the top
        # ``phase_stability`` fraction of hotness ranks maps to the same
        # functions in every phase.  Real services keep their core
        # request paths hot across phases; only peripheral features
        # rotate, and those rotating functions are what exercises
        # FURBYS's local miss-pitfall detector.
        # Phase permutations and request loops describe the *binary's*
        # handler structure, not one run's randomness: they derive from
        # ``structure_seed`` so different inputs of the same application
        # share them (the property the Figure 18 cross-validation
        # depends on), while the walk itself still differs per input.
        if structure_seed is None:
            structure_seed = seed
        perm_rng = random.Random(structure_seed ^ 0x5EED)
        stable = round(nfuncs * min(1.0, max(0.0, phase_stability)))
        self._phase_perms: list[list[int]] = []
        for _ in range(phase_count):
            tail = list(range(stable, nfuncs))
            perm_rng.shuffle(tail)
            self._phase_perms.append(list(range(stable)) + tail)
        # Each phase serves requests through a fixed *request loop* — a
        # cyclic sequence of handler functions, as a server iterating
        # over its request-processing paths.  Cyclic working sets larger
        # than the micro-op cache are what make replacement policy
        # quality matter (LRU degenerates on them; Section III-B).
        #
        # All phases share a stable core (the service's main request
        # paths — the paper's "warm" PWs, which profile-guided policies
        # learn to keep); each phase replaces the remaining
        # ``1 - phase_stability`` of the loop with its own functions,
        # producing the locally-hot-but-globally-cold windows that
        # exercise the miss-pitfall detector.
        base_loop: list[int] = []
        for _ in range(max(1, phase_loop_length)):
            rank = bisect.bisect_left(self._zipf_cdf, perm_rng.random())
            base_loop.append(min(rank, nfuncs - 1))
        self._phase_loops: list[list[int]] = []
        stability = min(1.0, max(0.0, phase_stability))
        for perm in self._phase_perms:
            loop = list(base_loop)
            for slot in range(len(loop)):
                if perm_rng.random() >= stability:
                    rank = bisect.bisect_left(self._zipf_cdf, perm_rng.random())
                    loop[slot] = perm[min(rank, nfuncs - 1)]
            self._phase_loops.append(loop)
        self._loop_cursor = 0

    # --- misprediction calibration -------------------------------------------

    def _calibrate_mispredictions(self, target_mpki: float | None) -> float:
        """Scale factor so expected mispredictions/kilo-inst ≈ target.

        Uses a static estimate (uniform block usage); dynamic skew makes
        the measured value deviate modestly, which is fine — Table II
        only needs the per-app ordering and magnitude.
        """
        if target_mpki is None:
            return 1.0
        total_insts = self._cfg.total_insts
        expected_mispredicts = sum(
            block.mispredict_rate
            for function in self._cfg.functions
            for block in function.blocks
        )
        if expected_mispredicts <= 0 or total_insts <= 0:
            return 1.0
        current_mpki = 1000.0 * expected_mispredicts / total_insts
        return target_mpki / current_mpki

    # --- PW accumulation ------------------------------------------------------

    def _emit(self, terminated_by_branch: bool, mispredicted: bool) -> None:
        pending = self._pending
        if pending.empty:
            return
        self._lookups.append(
            PWLookup(
                start=pending.start,
                uops=pending.uops,
                insts=pending.insts,
                bytes_len=max(1, pending.end - pending.start),
                terminated_by_branch=terminated_by_branch,
                contains_branch=terminated_by_branch or pending.has_branch,
                mispredicted=mispredicted,
            )
        )
        pending.reset()
        if len(self._lookups) >= self._limit:
            raise _TraceComplete

    def _consume_block(self, segments: tuple[Segment, ...]) -> None:
        """Append a block's instructions, splitting at line boundaries.

        ``segments`` is the block's precomputed static segmentation; the
        emit sequence (and every emitted window) is identical to walking
        the block instruction by instruction.
        """
        pending = self._pending
        for seg_start, uops, insts, seg_end, line in segments:
            if pending.start < 0:
                pending.start = seg_start
                pending.line = line
            elif line != pending.line:
                # Line-boundary termination: not a branch PW.
                self._emit(terminated_by_branch=False, mispredicted=False)
                pending.start = seg_start
                pending.line = line
            pending.uops += uops
            pending.insts += insts
            pending.end = seg_end
        # The block's final instruction (last segment) is its branch.
        pending.has_branch = True

    # --- execution ------------------------------------------------------------

    def _refresh_mis_rates(self) -> None:
        """Recompute per-block mispredict probabilities, in place.

        Must be re-run whenever ``_mispredict_mult`` changes.  The lists
        are updated in place because running columnar walk frames hold
        references to them when the calibration rescales mid-walk.
        """
        mult = self._mispredict_mult
        for rates, function in zip(self._block_mis_rate, self._cfg.functions):
            rates[:] = [
                min(0.5, block.mispredict_rate * mult) for block in function.blocks
            ]

    def _rescale(self, insts: int, mispredictions: int) -> None:
        """One calibration step: scale the mispredict multiplier toward
        the MPKI target from a measured pass (clamped to [0.05, 20])."""
        measured = 1000.0 * mispredictions / max(1, insts)
        if measured > 0:
            factor = self._target_mpki / measured
            self._mispredict_mult *= min(20.0, max(0.05, factor))

    def _periodic_outcome(self, key: int, bias: float) -> bool:
        """Deterministic Bresenham-style outcome with long-run rate ``bias``."""
        acc = self._outcome_acc.get(key, 0.5) + bias
        if acc >= 1.0:
            self._outcome_acc[key] = acc - 1.0
            return True
        self._outcome_acc[key] = acc
        return False

    def _run_function(self, findex: int, depth: int) -> None:
        function = self._cfg.functions[findex]
        blocks = function.blocks
        n_blocks = len(blocks)
        segments = self._block_segments[findex]
        mis_rates = self._block_mis_rate[findex]
        rng_random = self._rng.random
        consume = self._consume_block
        emit = self._emit
        periodic = self._periodic_outcome
        max_depth = self.MAX_CALL_DEPTH
        # Geometric iteration count with the function's configured mean.
        p_continue = 1.0 - 1.0 / max(1.0, function.mean_iterations)
        iterating = True
        while iterating:
            i = 0
            while i < n_blocks:
                block = blocks[i]
                consume(segments[i])
                mispredicted = rng_random() < mis_rates[i]
                # Call edge: modelled as a taken call terminating the PW,
                # with return to the next block.
                if (
                    block.callee >= 0
                    and depth < max_depth
                    and periodic(block.addr ^ 0x1, block.call_bias)
                ):
                    emit(terminated_by_branch=True, mispredicted=mispredicted)
                    self._run_function(block.callee, depth + 1)
                    i += 1
                    continue
                if i == n_blocks - 1:
                    # Loop back edge (taken) or function exit (taken ret).
                    iterating = rng_random() < p_continue
                    emit(terminated_by_branch=True, mispredicted=mispredicted)
                    break
                if periodic(block.addr, block.taken_bias):
                    emit(terminated_by_branch=True, mispredicted=mispredicted)
                    if (
                        periodic(block.addr ^ 0x2, block.skip_bias)
                        and i + 2 < n_blocks
                    ):
                        i += 2  # if/else shape: skip the next block
                    else:
                        i += 1
                else:
                    # Fall through: the next block joins the current PW.
                    i += 1
            else:
                iterating = False

    def _pick_function(self, emitted: int) -> int:
        phase = (emitted // self._phase_length) % len(self._phase_loops)
        if self._rng.random() < self._in_phase_bias:
            loop = self._phase_loops[phase]
            function = loop[self._loop_cursor % len(loop)]
            self._loop_cursor += 1
            return function
        rank = bisect.bisect_left(self._zipf_cdf, self._rng.random())
        return min(rank, len(self._zipf_cdf) - 1)

    def _run_function_cols(self, findex: int, depth: int) -> None:
        """Columnar twin of :meth:`_run_function`, the walk
        :meth:`generate` runs.

        Identical control flow and RNG consumption order (the trace
        engine tests assert the emitted sequence matches
        :meth:`_generate_reference`), but windows append straight into
        the packed columns and the pending window lives in locals —
        valid because a function always enters and exits with an empty
        pending window (every exit path flushes it).  :meth:`_consume_block`,
        :meth:`_emit` and :meth:`_periodic_outcome` are inlined; any
        behavioural change there must be mirrored here.

        Every block takes its mispredict draw, but only a block that
        terminates a window compares it against its rate; a fall-through
        block's draw is discarded.  Within the calibration prefix each
        terminated window also records its draw and base rate for
        :meth:`_calibrate_prefix`.
        """
        function = self._cfg.functions[findex]
        blocks = function.blocks
        n_blocks = len(blocks)
        segments = self._block_segments[findex]
        mis_rates = self._block_mis_rate[findex]
        rng_random = self._rng.random
        outcome_acc = self._outcome_acc
        acc_get = outcome_acc.get
        max_depth = self.MAX_CALL_DEPTH
        recurse = self._run_function_cols
        columns = self._columns
        starts_col = columns.starts
        uops_col = columns.uops
        insts_col = columns.insts
        bytes_col = columns.bytes_len
        flags_col = columns.flags
        limit = self._limit
        prefix = self._calibration_len
        record_draw = self._calibration_draws.append
        record_rate = self._calibration_rates.append

        p_start = -1
        p_line = -1
        p_uops = 0
        p_insts = 0
        p_end = 0
        p_branch = False

        def emit_line() -> None:
            # Line-boundary termination (never on an empty window): not
            # a branch PW.
            nonlocal p_start, p_line, p_uops, p_insts, p_end, p_branch
            starts_col.append(p_start)
            uops_col.append(p_uops)
            insts_col.append(p_insts)
            span = p_end - p_start
            bytes_col.append(span if span > 0 else 1)
            flags_col.append(FLAG_CONTAINS if p_branch else 0)
            p_start = -1
            p_line = -1
            p_uops = 0
            p_insts = 0
            p_end = 0
            p_branch = False
            n = len(starts_col)
            if n == prefix:
                self._calibrate_prefix()
            if n >= limit:
                raise _TraceComplete

        def emit_branch(draw: float, i: int) -> None:
            # Terminated by block i's branch: mispredicted when the
            # block's draw falls under its rate.
            nonlocal p_start, p_line, p_uops, p_insts, p_end, p_branch
            if p_start < 0:
                return
            starts_col.append(p_start)
            uops_col.append(p_uops)
            insts_col.append(p_insts)
            span = p_end - p_start
            bytes_col.append(span if span > 0 else 1)
            flags_col.append(
                _BRANCH_MISPREDICTED if draw < mis_rates[i] else _BRANCH)
            p_start = -1
            p_line = -1
            p_uops = 0
            p_insts = 0
            p_end = 0
            p_branch = False
            n = len(starts_col)
            if n <= prefix:
                record_draw(draw)
                record_rate(blocks[i].mispredict_rate)
                if n == prefix:
                    self._calibrate_prefix()
            if n >= limit:
                raise _TraceComplete

        p_continue = 1.0 - 1.0 / max(1.0, function.mean_iterations)
        iterating = True
        while iterating:
            i = 0
            while i < n_blocks:
                block = blocks[i]
                # _consume_block, inlined over the pending locals.
                for seg_start, uops, insts, seg_end, line in segments[i]:
                    if p_start < 0:
                        p_start = seg_start
                        p_line = line
                    elif line != p_line:
                        emit_line()
                        p_start = seg_start
                        p_line = line
                    p_uops += uops
                    p_insts += insts
                    p_end = seg_end
                p_branch = True
                draw = rng_random()
                # Call edge; _periodic_outcome inlined (short-circuit
                # order preserved: the accumulator only advances when
                # the callee/depth guard passes).
                if block.callee >= 0 and depth < max_depth:
                    key = block.addr ^ 0x1
                    acc = acc_get(key, 0.5) + block.call_bias
                    if acc >= 1.0:
                        outcome_acc[key] = acc - 1.0
                        emit_branch(draw, i)
                        recurse(block.callee, depth + 1)
                        i += 1
                        continue
                    outcome_acc[key] = acc
                if i == n_blocks - 1:
                    iterating = rng_random() < p_continue
                    emit_branch(draw, i)
                    break
                key = block.addr
                acc = acc_get(key, 0.5) + block.taken_bias
                if acc >= 1.0:
                    outcome_acc[key] = acc - 1.0
                    emit_branch(draw, i)
                    # The skip accumulator always advances, even when
                    # the i+2 bound forbids the skip (reference
                    # evaluates _periodic_outcome first).
                    key = block.addr ^ 0x2
                    acc = acc_get(key, 0.5) + block.skip_bias
                    if acc >= 1.0:
                        outcome_acc[key] = acc - 1.0
                        if i + 2 < n_blocks:
                            i += 2
                        else:
                            i += 1
                    else:
                        outcome_acc[key] = acc
                        i += 1
                else:
                    outcome_acc[key] = acc
                    i += 1
            else:
                iterating = False

    def _calibrate_prefix(self) -> None:
        """Calibrate the branch MPKI from the walk's own prefix.

        The columnar walk calls this from the emit that completes its
        first ``_calibration_len`` lookups.  Neither the walk's control
        flow nor its RNG draws depend on the mispredict rates (every
        block takes exactly one mispredict draw), so each pilot walk of
        :meth:`_generate_reference` equals this prefix except for its
        mispredicted flags, which the recorded draws and base rates
        re-derive at any multiplier.  Both pilot updates are replayed
        here; the rate lists are refreshed in place (running walk frames
        hold them) for the rest of the walk, and the prefix's
        mispredicted flags are rewritten at the final rates.
        """
        columns = self._columns
        draws = np.array(self._calibration_draws)
        base_rates = np.array(self._calibration_rates)
        insts = sum(columns.insts)
        for _ in range(2):  # two passes converge well within tolerance
            rates = np.minimum(base_rates * self._mispredict_mult, 0.5)
            self._rescale(insts, int(np.count_nonzero(draws < rates)))
        self._refresh_mis_rates()
        rates = np.minimum(base_rates * self._mispredict_mult, 0.5)
        flags = np.array(columns.flags, dtype=np.uint8)
        branches = np.flatnonzero(flags & FLAG_TERMINATED)
        assert len(branches) == len(draws), "calibration record out of step"
        flags[branches] = np.where(draws < rates, _BRANCH_MISPREDICTED, _BRANCH)
        # In place: running walk frames hold the flag column.
        columns.flags[:] = array(columns.flags.typecode, flags.tobytes())

    def _reset_walk(self) -> None:
        self._rng = random.Random(self._seed)
        self._outcome_acc.clear()
        self._lookups = []
        self._columns = TraceColumns()
        self._pending.reset()
        self._loop_cursor = 0
        # Calibration state of the columnar walk (see _calibrate_prefix);
        # generate() sets the prefix length.
        self._calibration_len = 0
        self._calibration_draws: list[float] = []
        self._calibration_rates: list[float] = []

    def _walk(self, n_lookups: int, fast: bool = False) -> None:
        self._limit = n_lookups
        run = self._run_function_cols if fast else self._run_function
        columns = self._columns
        try:
            # Startup sweep: initialization code touches every function
            # once (in a shuffled order), so first-touch cold misses
            # concentrate in the warmup window, as with real services.
            order = list(range(len(self._cfg.functions)))
            random.Random(self._rng.random()).shuffle(order)
            for findex in order:
                run(findex, self.MAX_CALL_DEPTH)
            while True:
                emitted = len(columns) if fast else len(self._lookups)
                findex = self._pick_function(emitted)
                run(findex, 0)
        except _TraceComplete:
            pass

    def _needs_calibration(self, n_lookups: int) -> bool:
        """Validate ``n_lookups``; True when an MPKI target is set."""
        if n_lookups <= 0:
            raise ConfigurationError("n_lookups must be positive")
        return self._target_mpki is not None and self._target_mpki > 0

    def generate(self, n_lookups: int, metadata: TraceMetadata | None = None) -> Trace:
        """Produce a trace of exactly ``n_lookups`` PW lookups.

        When a misprediction-MPKI target is set, the walk calibrates
        itself: its first ``min(n_lookups, CALIBRATION_LOOKUPS)``
        lookups measure the dynamic misprediction rate (the static
        calibration cannot see hotness skew), the per-branch rates are
        rescaled for the rest of the walk, and that prefix's
        mispredicted flags are re-derived at the final rates
        (:meth:`_calibrate_prefix`).  Windows are emitted straight into
        packed :class:`~repro.core.trace.TraceColumns`.
        """
        calibrating = self._needs_calibration(n_lookups)
        with stagetimer.timed("trace_walk"):
            self._reset_walk()
            if calibrating:
                self._calibration_len = min(n_lookups, CALIBRATION_LOOKUPS)
            self._walk(n_lookups, fast=True)
        return Trace(columns=self._columns, metadata=metadata or TraceMetadata())

    def _generate_reference(
        self, n_lookups: int, metadata: TraceMetadata | None = None
    ) -> Trace:
        """:meth:`generate` over the object walk (:meth:`_run_function`),
        calibrated by two explicit pilot walks of the prefix.

        The test oracle for the columnar walk and its single-walk
        calibration: tests assert both emit the same lookup sequence.
        Call it on a fresh generator — calibration rescales the branch
        rates in place.
        """
        if self._needs_calibration(n_lookups):
            for _ in range(2):  # two passes converge well within tolerance
                self._reset_walk()
                self._walk(min(n_lookups, CALIBRATION_LOOKUPS))
                pilot = Trace(self._lookups)
                self._rescale(pilot.total_instructions, pilot.total_mispredictions)
                self._refresh_mis_rates()
        self._reset_walk()
        self._walk(n_lookups)
        return Trace(self._lookups, metadata or TraceMetadata())


def generate_trace(
    cfg: ProgramCFG,
    n_lookups: int,
    *,
    seed: int,
    zipf_alpha: float = 1.1,
    phase_length: int = 4000,
    phase_count: int = 4,
    in_phase_bias: float = 0.85,
    phase_loop_length: int = 90,
    target_mispredict_mpki: float | None = None,
    metadata: TraceMetadata | None = None,
) -> Trace:
    """One-shot helper: build a generator and produce a trace."""
    generator = TraceGenerator(
        cfg,
        seed=seed,
        zipf_alpha=zipf_alpha,
        phase_length=phase_length,
        phase_count=phase_count,
        in_phase_bias=in_phase_bias,
        phase_loop_length=phase_loop_length,
        target_mispredict_mpki=target_mispredict_mpki,
    )
    return generator.generate(n_lookups, metadata)


def reuse_distance_tail(trace: Trace, threshold: int = 30) -> float:
    """Fraction of PW lookups whose stack reuse distance exceeds ``threshold``.

    Section III-E reports that over 20% of micro-op cache PWs have a
    reuse distance above 30 (versus 10%/2% for icache/BTB); this helper
    lets tests assert the generator reproduces that heavy tail.
    """
    last_seen: dict[int, int] = {}
    stack: list[int] = []  # most recent at the end
    long_reuses = 0
    reuses = 0
    for pw in trace:
        key = pw.start
        if key in last_seen:
            # Stack distance = number of distinct addresses since last use.
            position = stack.index(key)  # O(n) but fine for test-sized traces
            distance = len(stack) - position - 1
            reuses += 1
            if distance > threshold:
                long_reuses += 1
            stack.pop(position)
        stack.append(key)
        last_seen[key] = 1
    if reuses == 0:
        return 0.0
    return long_reuses / reuses
