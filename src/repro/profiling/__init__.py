"""FURBYS profiling pipeline (Figure 6, STEP 1-7).

Turns a trace (simulated Intel PT recording) into per-PW weight-group
hints by replaying the trace under FLACK, measuring whole-execution hit
rates, clustering them with Jenks natural breaks, and injecting the
3-bit group into each PW's terminating branch.
"""

from .hints import HintColumns, HintMap, build_hints
from .hitrate import HitStats, collect_hit_rates, collect_hit_stats, three_class_profile
from .jenks import jenks_breaks, jenks_groups
from .pipeline import FurbysProfile, make_furbys, profile_application
from .ptrace import record_lookup_sequence, simulate_pt_collection

__all__ = [
    "HintColumns",
    "HintMap",
    "HitStats",
    "build_hints",
    "collect_hit_rates",
    "collect_hit_stats",
    "three_class_profile",
    "jenks_breaks",
    "jenks_groups",
    "FurbysProfile",
    "make_furbys",
    "profile_application",
    "record_lookup_sequence",
    "simulate_pt_collection",
]
