"""Simulation configuration (Table I of the paper).

The defaults model the AMD Zen3-like machine the paper simulates with
Scarab: a 3.2 GHz 6-wide out-of-order core with a 4-wide 5-cycle legacy
decoder, a 512-entry 8-way micro-op cache holding up to 8 micro-ops per
entry, and a 32 KiB 8-way L1 instruction cache that the micro-op cache is
inclusive with.  A Zen4-like preset (larger micro-op cache and frontend
structures, Figure 17) is provided as well.

Perfect-structure switches (``perfect_uop_cache`` etc.) implement the
"change the configuration of a single structure to be perfect (always
hit)" methodology of Figure 2.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

from .errors import ConfigurationError, ReproError

#: Known configuration preset names, in the order they appear in the paper.
PRESETS = ("zen3", "zen4")


def env_number(name: str, parse):
    """``parse`` of env var ``name``, None when unset or blank.

    A malformed value raises :class:`ReproError` naming the variable.
    """
    env = os.environ.get(name, "").strip()
    if not env:
        return None
    try:
        return parse(env)
    except ValueError:
        raise ReproError(
            f"{name}={env!r} is not a valid {parse.__name__}"
        ) from None


@dataclass(frozen=True, slots=True)
class UopCacheConfig:
    """Geometry and behaviour of the micro-op cache.

    ``entries`` is the total number of fixed-size entries; a prediction
    window occupies ``ceil(uops / uops_per_entry)`` consecutive entries
    in one set.  ``ways`` entries of each set can be resident at a time.
    """

    entries: int = 512
    ways: int = 8
    uops_per_entry: int = 8
    #: Cycles lost when the frontend switches between the micro-op cache
    #: path and the legacy decode path (Section II-B: one cycle).
    switch_delay: int = 1
    #: Micro-op cache evictions follow L1i evictions (inclusive) when True.
    inclusive_with_icache: bool = True
    #: Same-start PWs keep the larger window (AMD intermediate-exit-point
    #: behaviour, Section II-D).  Disabled only by the keep-larger
    #: ablation bench, where the latest window always overwrites.
    keep_larger: bool = True
    #: Number of lookups between a miss and the completed insertion of the
    #: decoded PW (the asynchronous-insertion window, Section II-B).  This
    #: tracks the legacy decode pipeline depth.
    insertion_delay: int = 5

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ConfigurationError("micro-op cache needs at least one entry")
        if self.ways <= 0:
            raise ConfigurationError("micro-op cache needs at least one way")
        if self.entries % self.ways != 0:
            raise ConfigurationError(
                f"entries ({self.entries}) must be a multiple of ways ({self.ways})"
            )
        if self.uops_per_entry <= 0:
            raise ConfigurationError("uops_per_entry must be positive")
        if self.insertion_delay < 0:
            raise ConfigurationError("insertion_delay cannot be negative")

    @property
    def sets(self) -> int:
        """Number of cache sets."""
        return self.entries // self.ways

    def entries_for_uops(self, uops: int) -> int:
        """Number of entries a PW with ``uops`` micro-ops occupies."""
        if uops <= 0:
            raise ConfigurationError("a prediction window holds at least one uop")
        return math.ceil(uops / self.uops_per_entry)

    @property
    def max_pw_uops(self) -> int:
        """Largest PW (in micro-ops) that fits in one set."""
        return self.ways * self.uops_per_entry


@dataclass(frozen=True, slots=True)
class ICacheConfig:
    """L1 instruction cache geometry (Table I: 32 KiB, 8-way, 64 B lines)."""

    size_bytes: int = 32 * 1024
    ways: int = 8
    line_bytes: int = 64
    latency_cycles: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0 or self.line_bytes <= 0:
            raise ConfigurationError("icache geometry values must be positive")
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise ConfigurationError("icache size must divide evenly into sets")

    @property
    def sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)

    @property
    def lines(self) -> int:
        return self.size_bytes // self.line_bytes


@dataclass(frozen=True, slots=True)
class BranchPredictorConfig:
    """Branch predictor / BTB parameters (Table I)."""

    btb_entries: int = 8192
    btb_ways: int = 4
    ras_entries: int = 32
    ibtb_entries: int = 4096
    #: Modelled conditional-predictor accuracy for a TAGE-SC-L-like
    #: predictor; per-application bias is layered on top of this ceiling.
    base_accuracy: float = 0.995
    misprediction_penalty_cycles: int = 14

    def __post_init__(self) -> None:
        if not 0.0 < self.base_accuracy <= 1.0:
            raise ConfigurationError("base_accuracy must be in (0, 1]")


@dataclass(frozen=True, slots=True)
class CoreConfig:
    """Out-of-order core parameters (Table I)."""

    frequency_ghz: float = 3.2
    issue_width: int = 6
    decode_width: int = 4
    decode_latency_cycles: int = 5
    rob_entries: int = 256
    rs_entries: int = 96

    def __post_init__(self) -> None:
        if self.issue_width <= 0 or self.decode_width <= 0:
            raise ConfigurationError("pipeline widths must be positive")
        if self.decode_latency_cycles < 0:
            raise ConfigurationError("decode latency cannot be negative")


@dataclass(frozen=True, slots=True)
class SimulationConfig:
    """Complete machine configuration for one simulation.

    Compose with :func:`zen3_config` / :func:`zen4_config` and tweak via
    :meth:`with_uop_cache` style helpers or :func:`dataclasses.replace`.
    """

    name: str = "zen3"
    uop_cache: UopCacheConfig = field(default_factory=UopCacheConfig)
    icache: ICacheConfig = field(default_factory=ICacheConfig)
    branch: BranchPredictorConfig = field(default_factory=BranchPredictorConfig)
    core: CoreConfig = field(default_factory=CoreConfig)
    #: Perfect-structure switches (Figure 2 methodology).
    perfect_uop_cache: bool = False
    perfect_icache: bool = False
    perfect_btb: bool = False
    perfect_branch_predictor: bool = False

    def with_uop_cache(self, **changes: object) -> "SimulationConfig":
        """Return a copy with the micro-op cache reconfigured."""
        return replace(self, uop_cache=replace(self.uop_cache, **changes))

    def with_perfect(self, structure: str) -> "SimulationConfig":
        """Return a copy with one structure made perfect (always hit).

        ``structure`` is one of ``"uop_cache"``, ``"icache"``, ``"btb"``,
        ``"branch_predictor"``.
        """
        flag = f"perfect_{structure}"
        if not hasattr(self, flag):
            raise ConfigurationError(f"unknown structure {structure!r}")
        return replace(self, **{flag: True})

    def scaled_uop_cache(self, factor: float) -> "SimulationConfig":
        """Return a copy with the micro-op cache capacity scaled.

        Scaling changes the number of sets (associativity is preserved),
        mirroring the ISO-performance experiment of Figure 12.  The result
        is rounded to the nearest whole number of sets.
        """
        sets = max(1, round(self.uop_cache.sets * factor))
        return self.with_uop_cache(entries=sets * self.uop_cache.ways)


def zen3_config() -> SimulationConfig:
    """The paper's default machine (Table I)."""
    return SimulationConfig(name="zen3")


def zen4_config() -> SimulationConfig:
    """AMD Zen4-like frontend used for the Figure 17 sensitivity test.

    Zen4 enlarges the micro-op cache to 6.75k micro-ops (here: 864
    8-uop entries in 8 ways), the BTB, and the issue width.
    """
    return SimulationConfig(
        name="zen4",
        uop_cache=UopCacheConfig(entries=864, ways=8),
        icache=ICacheConfig(size_bytes=32 * 1024, ways=8),
        branch=BranchPredictorConfig(btb_entries=2 * 8192, ibtb_entries=8192),
        core=CoreConfig(issue_width=8, decode_width=4, decode_latency_cycles=4),
    )


def preset(name: str) -> SimulationConfig:
    """Look up a configuration preset by name (``zen3`` or ``zen4``)."""
    factories = {"zen3": zen3_config, "zen4": zen4_config}
    try:
        return factories[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown preset {name!r}; expected one of {PRESETS}"
        ) from None
