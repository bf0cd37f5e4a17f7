"""Trace registry: build (and cache) traces for (app, input, length).

Trace generation is deterministic, so a process-wide cache keyed by
``(app, input, n_lookups)`` lets the many figure benches share workload
construction.  ``REPRO_TRACE_LEN`` scales the default trace length for
quick smoke runs; :func:`default_trace_len` reads it at call time.

Two cache layers sit in front of generation:

* an in-process LRU bounded by ``REPRO_TRACE_CACHE_CAP`` (default 16
  traces; ``<= 0`` means unbounded; read when a trace is cached) so
  long sweeps over many (app, input, length) combinations can't grow
  memory without bound;
* the on-disk binary trace store in :mod:`repro.harness.artifacts`
  (``REPRO_CACHE=0`` disables it), keyed by the trace identity plus
  :data:`~repro.workloads.generator.GENERATOR_VERSION`, so cold batches
  and CI never regenerate the same trace twice.

Generation itself shares one CFG per application: all inputs of an app
run the same binary, so :func:`build_app_trace` keeps the last app's
CFG and its static block segmentation in a one-entry memo and reuses
it for the app's other inputs.
"""

from __future__ import annotations

from collections import OrderedDict

from .. import stagetimer
from ..config import env_number
from ..core.trace import Trace, TraceMetadata
from ..errors import ReproError
from .apps import AppProfile, get_profile
from .cfg import ProgramCFG, build_cfg
from .generator import (
    GENERATOR_VERSION,
    BlockSegments,
    TraceGenerator,
    segment_blocks,
)

#: Default dynamic trace length (PW lookups) used by the experiments
#: when ``REPRO_TRACE_LEN`` is unset.  One third is treated as warmup
#: by the harness.
DEFAULT_TRACE_LEN = 45000

#: Max traces held in process memory when ``REPRO_TRACE_CACHE_CAP`` is
#: unset (LRU eviction; ``<= 0`` = unbounded).
DEFAULT_TRACE_CACHE_CAP = 16

_trace_cache: OrderedDict[tuple[str, str, int], Trace] = OrderedDict()

#: The last application's ``(build_cfg arguments, CFG, segment_blocks
#: of it)``, or None.  At most one CFG is ever held: the memo is emptied
#: before a different CFG is built, and by :func:`clear_trace_cache`.
#: Generators never write to the CFG (the MPKI calibration rescales
#: generator-local rate lists), so sharing it across inputs is safe.
_cfg_memo: tuple[tuple, ProgramCFG, BlockSegments] | None = None

#: How get_trace satisfied requests since the last clear (observability
#: for the CI disk-cache smoke and for cache-sizing experiments), and
#: how often build_app_trace built or reused a CFG.
_cache_counters = {
    "memory_hits": 0, "disk_hits": 0, "generated": 0, "evictions": 0,
    "cfg_builds": 0, "cfg_reuses": 0,
}


def trace_cache_cap() -> int:
    """The in-process LRU bound: ``REPRO_TRACE_CACHE_CAP`` or the default.

    Read on every call, so a value set after import still applies; a
    malformed value raises :class:`~repro.errors.ReproError` naming the
    variable.
    """
    cap = env_number("REPRO_TRACE_CACHE_CAP", int)
    return DEFAULT_TRACE_CACHE_CAP if cap is None else cap


def env_trace_len() -> int | None:
    """``REPRO_TRACE_LEN`` as a positive int, None when unset or blank.

    A malformed or non-positive value raises
    :class:`~repro.errors.ReproError` naming the variable.
    """
    n = env_number("REPRO_TRACE_LEN", int)
    if n is not None and n <= 0:
        raise ReproError(f"REPRO_TRACE_LEN={n} must be positive")
    return n


def default_trace_len() -> int:
    """The experiments' trace length: ``REPRO_TRACE_LEN`` or the default.

    Read on every call, so a value set after import (``repro
    --trace-len``) still applies; see :func:`env_trace_len`.
    """
    n = env_trace_len()
    return DEFAULT_TRACE_LEN if n is None else n


def available_inputs(app: str) -> tuple[str, ...]:
    """Names of the inputs defined for an application."""
    return tuple(inp.name for inp in get_profile(app).inputs)


def _app_cfg(profile: AppProfile) -> tuple[ProgramCFG, BlockSegments]:
    """The application's CFG and its block segmentation, memoized for
    the last application built (see :data:`_cfg_memo`)."""
    global _cfg_memo
    args = dict(
        seed=profile.base_seed,
        functions=profile.functions,
        blocks_per_function=profile.blocks_per_function,
        insts_per_block=profile.insts_per_block,
        mean_iterations=profile.mean_iterations,
        call_fraction=profile.call_fraction,
    )
    key = tuple(args.values())
    if _cfg_memo is not None and _cfg_memo[0] == key:
        _cache_counters["cfg_reuses"] += 1
        return _cfg_memo[1], _cfg_memo[2]
    _cfg_memo = None  # release the previous CFG before building the next
    with stagetimer.timed("cfg_build"):
        cfg = build_cfg(**args)
        segments = segment_blocks(cfg)
    _cache_counters["cfg_builds"] += 1
    _cfg_memo = (key, cfg, segments)
    return cfg, segments


def build_app_trace(
    profile: AppProfile, input_name: str, n_lookups: int
) -> Trace:
    """Construct a trace for one application input (no trace cache;
    the app's CFG comes from the one-entry CFG memo)."""
    with stagetimer.timed("trace_build"):
        app_input = profile.input_named(input_name)
        cfg, segments = _app_cfg(profile)
        with stagetimer.timed("trace_setup"):
            generator = TraceGenerator(
                cfg,
                seed=profile.base_seed * 7919 + app_input.seed_offset,
                zipf_alpha=max(
                    0.1, profile.zipf_alpha + app_input.zipf_alpha_delta
                ),
                phase_length=max(
                    1, round(profile.phase_length * app_input.phase_length_scale)
                ),
                phase_count=profile.phase_count,
                in_phase_bias=min(
                    0.99,
                    max(0.0, profile.in_phase_bias + app_input.in_phase_bias_delta),
                ),
                phase_loop_length=profile.phase_loop_length,
                structure_seed=profile.base_seed,
                target_mispredict_mpki=profile.branch_mpki,
                block_segments=segments,
            )
        metadata = TraceMetadata(
            app=profile.name,
            input_name=input_name,
            seed=profile.base_seed + app_input.seed_offset,
            description=profile.description,
        )
        return generator.generate(n_lookups, metadata)


def _remember(key: tuple[str, str, int], trace: Trace) -> None:
    _trace_cache[key] = trace
    _trace_cache.move_to_end(key)
    cap = trace_cache_cap()
    if cap > 0:
        while len(_trace_cache) > cap:
            _trace_cache.popitem(last=False)
            _cache_counters["evictions"] += 1


def get_trace(
    app: str, input_name: str = "default", n_lookups: int | None = None
) -> Trace:
    """Return the (cached) trace for one application input.

    Note: the CFG is shared across inputs of an app (same binary,
    different inputs), while the dynamic walk differs — exactly the
    setting of the paper's cross-validation study.
    """
    length = n_lookups if n_lookups is not None else default_trace_len()
    key = (app, input_name, length)
    cached = _trace_cache.get(key)
    if cached is not None:
        _trace_cache.move_to_end(key)
        _cache_counters["memory_hits"] += 1
        return cached
    # Lazy import: artifacts imports this module at top level.
    from ..harness.artifacts import load_cached_trace, store_cached_trace

    cached = load_cached_trace(app, input_name, length, GENERATOR_VERSION)
    if cached is not None:
        _cache_counters["disk_hits"] += 1
        _remember(key, cached)
        return cached
    cached = build_app_trace(get_profile(app), input_name, length)
    _cache_counters["generated"] += 1
    _remember(key, cached)
    store_cached_trace(cached, app, input_name, length, GENERATOR_VERSION)
    return cached


def trace_cache_stats() -> dict[str, int]:
    """Counters since the last :func:`clear_trace_cache` (copy)."""
    return dict(_cache_counters, cached=len(_trace_cache))


def clear_trace_cache() -> None:
    """Drop all cached traces and the CFG memo (tests use this to bound
    memory)."""
    global _cfg_memo
    _trace_cache.clear()
    _cfg_memo = None
    for counter in _cache_counters:
        _cache_counters[counter] = 0
