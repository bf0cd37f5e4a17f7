"""Trace registry: build (and cache) traces for (app, input, length).

Trace generation is deterministic, so a process-wide cache keyed by
``(app, input, n_lookups)`` lets the many figure benches share workload
construction.  ``REPRO_TRACE_LEN`` scales the default trace length for
quick smoke runs; :func:`default_trace_len` reads it at call time.

Two cache layers sit in front of generation:

* an in-process LRU bounded by ``REPRO_TRACE_CACHE_CAP`` (default 16
  traces; ``<= 0`` means unbounded) so long sweeps over many
  (app, input, length) combinations can't grow memory without bound;
* the on-disk binary trace store in :mod:`repro.harness.artifacts`
  (``REPRO_CACHE=0`` disables it), keyed by the trace identity plus
  :data:`~repro.workloads.generator.GENERATOR_VERSION`, so cold batches
  and CI never regenerate the same trace twice.
"""

from __future__ import annotations

import os
from collections import OrderedDict

from .. import stagetimer
from ..core.trace import Trace, TraceMetadata
from .apps import AppProfile, get_profile
from .cfg import build_cfg
from .generator import GENERATOR_VERSION, TraceGenerator

#: Default dynamic trace length (PW lookups) used by the experiments
#: when ``REPRO_TRACE_LEN`` is unset.  One third is treated as warmup
#: by the harness.
DEFAULT_TRACE_LEN = 45000

#: Max traces held in process memory (LRU eviction; ``<= 0`` = unbounded).
TRACE_CACHE_CAP = int(os.environ.get("REPRO_TRACE_CACHE_CAP", "16"))

_trace_cache: OrderedDict[tuple[str, str, int], Trace] = OrderedDict()

#: How get_trace satisfied requests since the last clear (observability
#: for the CI disk-cache smoke and for cache-sizing experiments).
_cache_counters = {
    "memory_hits": 0, "disk_hits": 0, "generated": 0, "evictions": 0,
}


def default_trace_len() -> int:
    """The experiments' trace length: ``REPRO_TRACE_LEN`` or the default.

    Read on every call, so a value set after import (``repro
    --trace-len``) still applies.
    """
    return int(os.environ.get("REPRO_TRACE_LEN", DEFAULT_TRACE_LEN))


def available_inputs(app: str) -> tuple[str, ...]:
    """Names of the inputs defined for an application."""
    return tuple(inp.name for inp in get_profile(app).inputs)


def build_app_trace(
    profile: AppProfile, input_name: str, n_lookups: int
) -> Trace:
    """Construct a trace for one application input (uncached)."""
    with stagetimer.timed("trace_build"):
        app_input = profile.input_named(input_name)
        with stagetimer.timed("cfg_build"):
            cfg = build_cfg(
                seed=profile.base_seed,
                functions=profile.functions,
                blocks_per_function=profile.blocks_per_function,
                insts_per_block=profile.insts_per_block,
                mean_iterations=profile.mean_iterations,
                call_fraction=profile.call_fraction,
            )
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
    if TRACE_CACHE_CAP > 0:
        while len(_trace_cache) > TRACE_CACHE_CAP:
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


def seed_trace_cache(
    app: str, input_name: str, n_lookups: int, trace: Trace
) -> None:
    """Install an externally supplied trace (e.g. received over shared
    memory by a batch worker) unless the key is already present.

    A trace whose length contradicts the key is rejected (counted as a
    ``shm_attach`` degradation): seeding it would serve a wrong-geometry
    trace to every later :func:`get_trace` call in the process, which is
    far worse than regenerating.
    """
    if len(trace) != n_lookups:
        from ..harness import resilience

        resilience.note_fallback("shm_attach")
        return
    key = (app, input_name, n_lookups)
    if key not in _trace_cache:
        _remember(key, trace)


def trace_cache_stats() -> dict[str, int]:
    """Counters since the last :func:`clear_trace_cache` (copy)."""
    return dict(_cache_counters, cached=len(_trace_cache))


def clear_trace_cache() -> None:
    """Drop all cached traces (tests use this to bound memory)."""
    _trace_cache.clear()
    for counter in _cache_counters:
        _cache_counters[counter] = 0
