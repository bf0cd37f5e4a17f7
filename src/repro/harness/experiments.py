"""One experiment function per table/figure of the paper.

Every function returns a dict with ``headers``/``rows`` (ready for
:func:`~repro.harness.reporting.format_table`) plus experiment-specific
summary fields.  Workload scope defaults to all 11 applications and can
be narrowed with the ``REPRO_APPS`` environment variable (comma list)
for smoke runs.

See DESIGN.md §5 for the experiment index and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

from ..config import preset
from ..core.stats import SimulationStats
from ..power.mcpat import CorePowerModel
from ..power.ppw import ppw_gain
from ..timing.model import TimingModel
from ..workloads.apps import app_names
from ..workloads.registry import env_trace_len, get_trace
from .parallel import run_many
from .reporting import mean, percent
from .runner import RunRequest, shared_hit_stats, shared_profile

#: Policies of the Figure 5/8/11 comparisons, display order.
COMPARISON_POLICIES = (
    "srrip", "ship++", "mockingjay", "ghrp", "thermometer", "furbys",
)


def selected_apps() -> tuple[str, ...]:
    """Applications in scope (REPRO_APPS narrows for smoke runs)."""
    override = os.environ.get("REPRO_APPS")
    if not override:
        return app_names()
    chosen = tuple(name.strip() for name in override.split(",") if name.strip())
    return chosen or app_names()


def _baseline_request(app: str, **kwargs) -> RunRequest:
    return RunRequest(app=app, policy="lru", **kwargs)


def _run_map(
    requests: dict, on_error: str | None = None
) -> dict[object, SimulationStats]:
    """Execute a keyed request dict as one batch, results under the keys.

    This is how every figure goes through the batch engine: build all
    requests first, one :func:`run_many` call, then assemble the table
    from the returned stats.  ``on_error`` defaults to the environment
    (``REPRO_ON_ERROR``); with ``"skip"``, failed requests are dropped
    from the mapping — callers then render the rows they have, and the
    failures stay itemized in ``last_batch_report().faults``.
    """
    keys = list(requests)
    stats = run_many([requests[key] for key in keys], on_error=on_error)
    return {
        key: stat for key, stat in zip(keys, stats) if stat is not None
    }


# --------------------------------------------------------------------------
# Table I / Table II
# --------------------------------------------------------------------------

def tab1_parameters() -> dict:
    """Table I: the simulated machine configuration."""
    config = preset("zen3")
    rows = [
        ("CPU", f"{config.core.frequency_ghz}GHz, {config.core.issue_width}-wide OoO, "
                f"{config.core.rob_entries}-entry ROB, {config.core.rs_entries}-entry RS"),
        ("Decoder", f"{config.core.decode_width}-wide, "
                    f"{config.core.decode_latency_cycles}-cycle latency"),
        ("Branch", f"{config.branch.btb_entries}-entry {config.branch.btb_ways}-way BTB, "
                   f"{config.branch.ras_entries}-entry RAS, "
                   f"{config.branch.ibtb_entries}-entry IBTB"),
        ("Micro-op cache", f"{config.uop_cache.entries}-entry, {config.uop_cache.ways}-way, "
                           f"{config.uop_cache.uops_per_entry} uops/entry, "
                           f"inclusive={config.uop_cache.inclusive_with_icache}, "
                           f"{config.uop_cache.switch_delay}-cycle switch"),
        ("L1i", f"{config.icache.size_bytes // 1024}KiB, {config.icache.ways}-way, "
                f"{config.icache.line_bytes}B lines"),
    ]
    return {"headers": ("Parameter", "Value"), "rows": rows}


def tab2_workloads() -> dict:
    """Table II: applications with measured vs. target branch MPKI."""
    from ..workloads.apps import get_profile

    rows = []
    for app in selected_apps():
        trace = get_trace(app)
        measured = 1000.0 * trace.total_mispredictions / max(1, trace.total_instructions)
        profile = get_profile(app)
        rows.append((
            app, profile.description, f"{profile.branch_mpki:.2f}",
            f"{measured:.2f}", len(trace.unique_starts()),
        ))
    return {
        "headers": ("App", "Description", "MPKI (paper)", "MPKI (measured)",
                    "PW starts"),
        "rows": rows,
    }


# --------------------------------------------------------------------------
# Section III-B: miss classification
# --------------------------------------------------------------------------

def miss_classification() -> dict:
    """Cold/capacity/conflict split under LRU and FLACK (Section III-B)."""
    rows = []
    sums = defaultdict(float)
    apps = selected_apps()
    stats_by = _run_map({
        (app, policy): RunRequest(app=app, policy=policy, classify_misses=True)
        for app in apps
        for policy in ("lru", "flack")
    })
    for app in apps:
        lru = stats_by[(app, "lru")]
        flack = stats_by[(app, "flack")]
        row = [app]
        for stats, tag in ((lru, "lru"), (flack, "flack")):
            breakdown = stats.miss_breakdown
            total = max(1, breakdown.total)
            row += [f"{breakdown.cold / total:.3f}",
                    f"{breakdown.capacity / total:.3f}",
                    f"{breakdown.conflict / total:.3f}"]
            sums[f"{tag}_cold"] += breakdown.cold / total
            sums[f"{tag}_cap"] += breakdown.capacity / total
            sums[f"{tag}_conf"] += breakdown.conflict / total
        row.append(percent(flack.miss_reduction_vs(lru)))
        rows.append(tuple(row))
    n = len(apps)
    return {
        "headers": ("App", "LRU cold", "LRU cap", "LRU conf",
                    "FLACK cold", "FLACK cap", "FLACK conf", "FLACK red."),
        "rows": rows,
        "lru_capacity_fraction": sums["lru_cap"] / n,
        "lru_conflict_fraction": sums["lru_conf"] / n,
        "lru_cold_fraction": sums["lru_cold"] / n,
    }


# --------------------------------------------------------------------------
# Figure 2: perfect structures
# --------------------------------------------------------------------------

def fig2_perfect_structures() -> dict:
    """PPW gain of making one structure perfect (Figure 2)."""
    structures = ("uop_cache", "icache", "btb", "branch_predictor")
    rows = []
    sums = defaultdict(float)
    apps = selected_apps()
    requests: dict = {(app, None): _baseline_request(app) for app in apps}
    requests.update({
        (app, structure): RunRequest(app=app, policy="lru", perfect=(structure,))
        for app in apps
        for structure in structures
    })
    stats_by = _run_map(requests)
    config = preset("zen3")
    for app in apps:
        base = stats_by[(app, None)]
        row = [app]
        for structure in structures:
            gain = ppw_gain(config, stats_by[(app, structure)], base)
            sums[structure] += gain
            row.append(percent(gain))
        rows.append(tuple(row))
    summary = {s: sums[s] / len(apps) for s in structures}
    return {
        "headers": ("App", "perfect uop$", "perfect L1i", "perfect BTB",
                    "perfect BP"),
        "rows": rows,
        "mean_gains": summary,
    }


# --------------------------------------------------------------------------
# Figures 5 and 8: miss reductions
# --------------------------------------------------------------------------

def _miss_reduction_matrix(policies: tuple[str, ...], **req_kwargs) -> dict:
    rows = []
    sums = defaultdict(float)
    apps = selected_apps()
    stats_by = _run_map({
        (app, policy): RunRequest(app=app, policy=policy, **req_kwargs)
        for app in apps
        for policy in ("lru", *policies)
    })
    for app in apps:
        base = stats_by[(app, "lru")]
        row = [app]
        for policy in policies:
            reduction = stats_by[(app, policy)].miss_reduction_vs(base)
            sums[policy] += reduction
            row.append(percent(reduction, 1))
        rows.append(tuple(row))
    means = {policy: sums[policy] / len(apps) for policy in policies}
    return {
        "headers": ("App", *policies),
        "rows": rows,
        "mean_reductions": means,
    }


def fig5_existing_policies() -> dict:
    """Existing policies vs. the FLACK bound (Figure 5)."""
    return _miss_reduction_matrix(
        ("srrip", "ship++", "mockingjay", "ghrp", "thermometer", "flack")
    )


def fig8_furbys_miss() -> dict:
    """FURBYS miss reduction vs. every baseline (Figure 8)."""
    result = _miss_reduction_matrix((*COMPARISON_POLICIES, "flack"))
    means = result["mean_reductions"]
    flack = means.get("flack", 0.0)
    furbys = means.get("furbys", 0.0)
    result["furbys_fraction_of_flack"] = furbys / flack if flack else 0.0
    best_existing = max(
        (means[p] for p in COMPARISON_POLICIES if p != "furbys"), default=0.0
    )
    result["furbys_vs_best_existing"] = (
        furbys / best_existing if best_existing > 0 else float("inf")
    )
    return result


# --------------------------------------------------------------------------
# Figure 9 / Figure 17: performance-per-watt
# --------------------------------------------------------------------------

def _ppw_matrix(config_name: str) -> dict:
    config = preset(config_name)
    model = CorePowerModel(config)
    policies = COMPARISON_POLICIES
    rows = []
    sums = defaultdict(float)
    apps = selected_apps()
    stats_by = _run_map({
        (app, policy): RunRequest(app=app, policy=policy, config=config_name)
        for app in apps
        for policy in ("lru", *policies)
    })
    for app in apps:
        base = stats_by[(app, "lru")]
        row = [app]
        for policy in policies:
            gain = ppw_gain(config, stats_by[(app, policy)], base, model=model)
            sums[policy] += gain
            row.append(percent(gain))
        rows.append(tuple(row))
    return {
        "headers": ("App", *policies),
        "rows": rows,
        "mean_gains": {p: sums[p] / len(apps) for p in policies},
    }


def fig9_furbys_ppw() -> dict:
    """Performance-per-watt gains over LRU (Figure 9)."""
    return _ppw_matrix("zen3")


def fig17_zen4() -> dict:
    """PPW gains under the Zen4 frontend configuration (Figure 17)."""
    return _ppw_matrix("zen4")


# --------------------------------------------------------------------------
# Figure 10: FLACK ablation
# --------------------------------------------------------------------------

def fig10_flack_ablation() -> dict:
    """FOO → A → A+VC → A+VC+SB ladder vs. Belady, perfect icache."""
    steps = ("foo-ohr", "flack[A]", "flack[A+VC]", "flack[A+VC+SB]", "belady")
    result = _miss_reduction_matrix(steps, perfect=("icache",))
    means = result["mean_reductions"]
    result["flack_minus_belady"] = (
        means["flack[A+VC+SB]"] - means["belady"]
    )
    return result


# --------------------------------------------------------------------------
# Figure 11: IPC speedup
# --------------------------------------------------------------------------

def fig11_ipc() -> dict:
    """IPC speedup over LRU (Figure 11)."""
    config = preset("zen3")
    timing = TimingModel(config)
    policies = (*COMPARISON_POLICIES, "flack")
    rows = []
    sums = defaultdict(float)
    apps = selected_apps()
    stats_by = _run_map({
        (app, policy): RunRequest(app=app, policy=policy)
        for app in apps
        for policy in ("lru", *policies)
    })
    for app in apps:
        base = timing.evaluate(stats_by[(app, "lru")])
        row = [app]
        for policy in policies:
            result = timing.evaluate(stats_by[(app, policy)])
            speedup = result.speedup_vs(base)
            sums[policy] += speedup
            row.append(percent(speedup))
        rows.append(tuple(row))
    means = {p: sums[p] / len(apps) for p in policies}
    furbys, flack = means.get("furbys", 0.0), means.get("flack", 0.0)
    return {
        "headers": ("App", *policies),
        "rows": rows,
        "mean_speedups": means,
        "furbys_fraction_of_flack": furbys / flack if flack else 0.0,
    }


# --------------------------------------------------------------------------
# Figure 12: ISO-performance
# --------------------------------------------------------------------------

def fig12_iso_performance(
    scales: tuple[float, ...] = (1.0, 1.25, 1.5, 1.75, 2.0)
) -> dict:
    """LRU at scaled capacities vs. FURBYS at 512 entries (Figure 12)."""
    config = preset("zen3")
    rows = []
    equivalents = []
    apps = selected_apps()

    def scaled_entries(scale: float) -> int:
        entries = round(config.uop_cache.entries * scale / config.uop_cache.ways)
        return entries * config.uop_cache.ways

    requests: dict = {}
    for app in apps:
        requests[(app, "base")] = _baseline_request(app)
        requests[(app, "furbys")] = RunRequest(app=app, policy="furbys")
        for scale in scales[1:]:
            requests[(app, scale)] = RunRequest(
                app=app, policy="lru", cache_entries=scaled_entries(scale)
            )
    stats_by = _run_map(requests)
    for app in apps:
        base = stats_by[(app, "base")]
        furbys = stats_by[(app, "furbys")]
        furbys_red = furbys.miss_reduction_vs(base)
        row = [app, percent(furbys_red, 1)]
        equivalent = scales[-1]
        for scale in scales[1:]:
            reduction = stats_by[(app, scale)].miss_reduction_vs(base)
            row.append(percent(reduction, 1))
            if reduction >= furbys_red and scale < equivalent:
                equivalent = scale
        equivalents.append(equivalent)
        row.append(f"{equivalent:.2f}x")
        rows.append(tuple(row))
    return {
        "headers": ("App", "FURBYS@1x",
                    *[f"LRU@{s}x" for s in scales[1:]], "ISO size"),
        "rows": rows,
        "mean_equivalent_scale": mean(equivalents),
    }


# --------------------------------------------------------------------------
# Figures 13 and 14: energy
# --------------------------------------------------------------------------

def fig13_energy_breakdown(app: str = "clang") -> dict:
    """Per-core energy breakdown on one app (Figure 13)."""
    config = preset("zen3")
    model = CorePowerModel(config)
    base, furbys = run_many([
        _baseline_request(app), RunRequest(app=app, policy="furbys"),
    ])
    reference = model.breakdown(base, uop_cache_present=False)
    lru = model.breakdown(base)
    improved = model.breakdown(furbys)
    rows = []
    for name, bd in (("no uop cache", reference), ("LRU uop cache", lru),
                     ("FURBYS uop cache", improved)):
        rows.append((
            name,
            f"{bd.fraction('decoder'):.3f}",
            f"{bd.fraction('icache'):.3f}",
            f"{bd.fraction('uop_cache'):.3f}",
            f"{bd.fraction('backend_other') + bd.fraction('branch'):.3f}",
            f"{bd.total / reference.total:.3f}",
        ))
    return {
        "headers": ("Configuration", "decoder", "icache", "uop$", "other",
                    "energy vs no-uop$"),
        "rows": rows,
        "lru_saving": 1.0 - lru.total / reference.total,
        "furbys_extra_saving": 1.0 - improved.total / lru.total,
    }


def fig14_energy_reduction() -> dict:
    """Where FURBYS's energy reduction comes from (Figure 14)."""
    config = preset("zen3")
    model = CorePowerModel(config)
    component_sums: dict[str, float] = defaultdict(float)
    rows = []
    apps = selected_apps()
    stats_by = _run_map({
        (app, policy): RunRequest(app=app, policy=policy)
        for app in apps
        for policy in ("lru", "furbys")
    })
    for app in apps:
        base_bd = model.breakdown(stats_by[(app, "lru")])
        furbys_bd = model.breakdown(stats_by[(app, "furbys")])
        deltas = {
            name: base_bd.as_dict()[name] - furbys_bd.as_dict()[name]
            for name in base_bd.as_dict()
        }
        total_saved = sum(deltas.values())
        row = [app]
        for name in ("decoder", "icache", "uop_cache"):
            share = deltas[name] / total_saved if total_saved > 0 else 0.0
            component_sums[name] += share
            row.append(f"{share:.2f}")
        row.append(f"{total_saved / base_bd.total * 100:+.2f}%")
        rows.append(tuple(row))
    n = len(apps)
    return {
        "headers": ("App", "decoder share", "icache share", "uop$ share",
                    "total saving"),
        "rows": rows,
        "mean_shares": {k: v / n for k, v in component_sums.items()},
    }


# --------------------------------------------------------------------------
# Figure 15: offline profile sources
# --------------------------------------------------------------------------

def fig15_profile_sources() -> dict:
    """FURBYS trained on Belady/FOO/FLACK decisions (Figure 15)."""
    sources = ("belady", "foo", "flack")
    rows = []
    sums = defaultdict(float)
    apps = selected_apps()
    requests: dict = {(app, None): _baseline_request(app) for app in apps}
    requests.update({
        (app, source): RunRequest(app=app, policy="furbys", profile_source=source)
        for app in apps
        for source in sources
    })
    stats_by = _run_map(requests)
    for app in apps:
        base = stats_by[(app, None)]
        row = [app]
        for source in sources:
            reduction = stats_by[(app, source)].miss_reduction_vs(base)
            sums[source] += reduction
            row.append(percent(reduction, 1))
        rows.append(tuple(row))
    means = {s: sums[s] / len(apps) for s in sources}
    return {
        "headers": ("App", *[f"profile={s}" for s in sources]),
        "rows": rows,
        "mean_reductions": means,
        "flack_advantage_over_belady": means["flack"] - means["belady"],
        "flack_advantage_over_foo": means["flack"] - means["foo"],
    }


# --------------------------------------------------------------------------
# Figure 16: size / associativity sensitivity
# --------------------------------------------------------------------------

def fig16_size_assoc(
    entry_counts: tuple[int, ...] = (256, 512, 1024, 2048),
    way_counts: tuple[int, ...] = (4, 16),
) -> dict:
    """FURBYS vs. the strongest baselines across geometries (Figure 16)."""
    rows = []
    configs: list[tuple[str, dict]] = []
    for entries in entry_counts:
        configs.append((f"{entries}e/8w", {"cache_entries": entries}))
    for ways in way_counts:
        configs.append((f"512e/{ways}w", {"cache_ways": ways}))
    gaps = []
    apps = selected_apps()
    stats_by = _run_map({
        (app, label, policy): RunRequest(app=app, policy=policy, **overrides)
        for app in apps
        for label, overrides in configs
        for policy in ("lru", "furbys", "ghrp")
    })
    for app in apps:
        row = [app]
        for label, overrides in configs:
            base = stats_by[(app, label, "lru")]
            furbys_red = stats_by[(app, label, "furbys")].miss_reduction_vs(base)
            ghrp_red = stats_by[(app, label, "ghrp")].miss_reduction_vs(base)
            gaps.append(furbys_red - ghrp_red)
            row.append(f"{furbys_red * 100:+.1f}/{ghrp_red * 100:+.1f}")
        rows.append(tuple(row))
    return {
        "headers": ("App", *[f"{label} (FURBYS/GHRP %)" for label, _ in configs]),
        "rows": rows,
        "mean_gap_over_ghrp": mean(gaps),
    }


# --------------------------------------------------------------------------
# Figure 18: cross-validation
# --------------------------------------------------------------------------

def fig18_cross_validation(
    train_inputs: tuple[str, ...] = ("default", "alt-seed"),
    test_input: str = "mixed-load",
) -> dict:
    """Train the profile on some inputs, evaluate on another (Figure 18)."""
    rows = []
    ratios = []
    cross_reductions = []
    apps = selected_apps()
    requests: dict = {}
    for app in apps:
        requests[(app, "base")] = _baseline_request(app, input_name=test_input)
        requests[(app, "same")] = RunRequest(
            app=app, policy="furbys", input_name=test_input
        )
        requests[(app, "cross")] = RunRequest(
            app=app, policy="furbys", input_name=test_input,
            profile_inputs=train_inputs,
        )
    stats_by = _run_map(requests)
    for app in apps:
        base = stats_by[(app, "base")]
        same_red = stats_by[(app, "same")].miss_reduction_vs(base)
        cross_red = stats_by[(app, "cross")].miss_reduction_vs(base)
        ratio = cross_red / same_red if same_red > 0 else 0.0
        ratios.append(ratio)
        cross_reductions.append(cross_red)
        rows.append((app, percent(same_red, 1), percent(cross_red, 1),
                     f"{ratio:.2f}"))
    return {
        "headers": ("App", "same-input red.", "cross-input red.",
                    "cross/same"),
        "rows": rows,
        "mean_ratio": mean(ratios),
        "mean_cross_reduction": mean(cross_reductions),
    }


# --------------------------------------------------------------------------
# Figure 19: weight-group bits
# --------------------------------------------------------------------------

def fig19_weight_groups(bit_widths: tuple[int, ...] = (1, 2, 3, 4, 6, 8)) -> dict:
    """Miss reduction vs. hint width (Figure 19)."""
    rows = []
    sums = defaultdict(float)
    apps = selected_apps()
    requests: dict = {(app, None): _baseline_request(app) for app in apps}
    requests.update({
        (app, bits): RunRequest(app=app, policy="furbys", hint_bits=bits)
        for app in apps
        for bits in bit_widths
    })
    stats_by = _run_map(requests)
    for app in apps:
        base = stats_by[(app, None)]
        row = [app]
        for bits in bit_widths:
            reduction = stats_by[(app, bits)].miss_reduction_vs(base)
            sums[bits] += reduction
            row.append(percent(reduction, 1))
        rows.append(tuple(row))
    return {
        "headers": ("App", *[f"{b} bits" for b in bit_widths]),
        "rows": rows,
        "mean_by_bits": {b: sums[b] / len(apps) for b in bit_widths},
    }


# --------------------------------------------------------------------------
# Figure 20: pitfall detector depth
# --------------------------------------------------------------------------

def fig20_pitfall_depth(depths: tuple[int, ...] = (0, 1, 2, 4, 8)) -> dict:
    """Miss reduction vs. miss-pitfall detector depth (Figure 20)."""
    rows = []
    sums = defaultdict(float)
    apps = selected_apps()
    requests: dict = {(app, None): _baseline_request(app) for app in apps}
    requests.update({
        (app, depth): RunRequest(
            app=app, policy="furbys", furbys_pitfall_depth=depth
        )
        for app in apps
        for depth in depths
    })
    stats_by = _run_map(requests)
    for app in apps:
        base = stats_by[(app, None)]
        row = [app]
        for depth in depths:
            reduction = stats_by[(app, depth)].miss_reduction_vs(base)
            sums[depth] += reduction
            row.append(percent(reduction, 1))
        rows.append(tuple(row))
    return {
        "headers": ("App", *[f"depth {d}" for d in depths]),
        "rows": rows,
        "mean_by_depth": {d: sums[d] / len(apps) for d in depths},
    }


# --------------------------------------------------------------------------
# Figure 21 + Section VI-C: bypass and coverage
# --------------------------------------------------------------------------

def fig21_bypass() -> dict:
    """FURBYS with and without the bypass mechanism (Figure 21)."""
    rows = []
    deltas = []
    bypass_fractions = []
    apps = selected_apps()
    requests: dict = {}
    for app in apps:
        requests[(app, "base")] = _baseline_request(app)
        requests[(app, True)] = RunRequest(
            app=app, policy="furbys", furbys_bypass=True
        )
        requests[(app, False)] = RunRequest(
            app=app, policy="furbys", furbys_bypass=False
        )
    stats_by = _run_map(requests)
    for app in apps:
        base = stats_by[(app, "base")]
        on = stats_by[(app, True)]
        off = stats_by[(app, False)]
        red_on = on.miss_reduction_vs(base)
        red_off = off.miss_reduction_vs(base)
        deltas.append(red_on - red_off)
        bypass_fractions.append(on.bypass_fraction)
        rows.append((app, percent(red_on, 1), percent(red_off, 1),
                     percent(red_on - red_off, 2), f"{on.bypass_fraction:.2f}"))
    return {
        "headers": ("App", "bypass on", "bypass off", "delta",
                    "bypassed insertions"),
        "rows": rows,
        "mean_delta": mean(deltas),
        "mean_bypass_fraction": mean(bypass_fractions),
    }


def sec6c_coverage() -> dict:
    """Replacement coverage: FURBYS vs. SRRIP-fallback decisions."""
    rows = []
    coverages = []
    apps = selected_apps()
    all_stats = run_many(
        [RunRequest(app=app, policy="furbys") for app in apps]
    )
    for app, stats in zip(apps, all_stats):
        coverages.append(stats.policy_coverage)
        rows.append((app, f"{stats.policy_coverage:.3f}",
                     f"{stats.bypass_fraction:.3f}"))
    return {
        "headers": ("App", "FURBYS victim coverage", "bypass fraction"),
        "rows": rows,
        "mean_coverage": mean(coverages),
    }


# --------------------------------------------------------------------------
# Figure 22: hit rate by hotness class
# --------------------------------------------------------------------------

def fig22_hotness(app: str = "kafka") -> dict:
    """Per-policy hit rate over PW hotness deciles on one app (Figure 22)."""
    from ..frontend.pipeline import FrontendPipeline
    from ..policies import make_policy
    from ..policies.furbys import FurbysPolicy

    config = preset("zen3")
    trace = get_trace(app)
    warmup = len(trace) // 3

    def hit_stats_for(policy, hints=None):
        pipeline = FrontendPipeline(config, policy, hints=hints,
                                    record_hit_rates=True)
        pipeline.run(trace, warmup=warmup)
        assert pipeline.pw_hit_stats is not None
        return pipeline.pw_hit_stats

    # The flack column is FURBYS's profiling replay, from the store.
    furbys = RunRequest(app=app, policy="furbys")
    flack = shared_hit_stats(furbys, "default")
    runs = {
        "lru": hit_stats_for(make_policy("lru")),
        "srrip": hit_stats_for(make_policy("srrip")),
        "furbys": hit_stats_for(FurbysPolicy(),
                                hints=shared_profile(furbys, "default")),
        "flack": dict(zip(flack.starts.tolist(),
                          zip(flack.hits.tolist(), flack.totals.tolist()))),
    }
    # Sort PWs by total access volume (hot -> cold), split into deciles.
    reference = runs["lru"]
    ranked = sorted(reference, key=lambda s: -reference[s][1])
    deciles = 10
    rows = []
    for d in range(deciles):
        lo = len(ranked) * d // deciles
        hi = len(ranked) * (d + 1) // deciles
        bucket = ranked[lo:hi]
        row = [f"{d * 10}-{(d + 1) * 10}%"]
        for name, stats in runs.items():
            hit = sum(stats.get(s, (0, 0))[0] for s in bucket)
            total = sum(stats.get(s, (0, 1))[1] for s in bucket)
            row.append(f"{hit / max(1, total):.3f}")
        rows.append(tuple(row))
    return {
        "headers": ("Access-rank decile", *runs.keys()),
        "rows": rows,
        "app": app,
    }


# --------------------------------------------------------------------------
# Section VII: non-inclusive micro-op cache
# --------------------------------------------------------------------------

def sec7_noninclusive() -> dict:
    """IPC speedup with a non-inclusive micro-op cache (Section VII)."""
    config = preset("zen3")
    timing = TimingModel(config)
    rows = []
    inclusive_speedups = []
    noninclusive_speedups = []
    apps = selected_apps()
    stats_by = _run_map({
        (app, policy, inclusive): RunRequest(
            app=app, policy=policy, inclusive=inclusive
        )
        for app in apps
        for policy in ("lru", "furbys")
        for inclusive in (True, False)
    })
    for app in apps:
        base_incl = timing.evaluate(stats_by[(app, "lru", True)])
        furbys_incl = timing.evaluate(stats_by[(app, "furbys", True)])
        base_non = timing.evaluate(stats_by[(app, "lru", False)])
        furbys_non = timing.evaluate(stats_by[(app, "furbys", False)])
        s_incl = furbys_incl.speedup_vs(base_incl)
        s_non = furbys_non.speedup_vs(base_non)
        inclusive_speedups.append(s_incl)
        noninclusive_speedups.append(s_non)
        rows.append((app, percent(s_incl), percent(s_non)))
    return {
        "headers": ("App", "inclusive IPC gain", "non-inclusive IPC gain"),
        "rows": rows,
        "mean_inclusive": mean(inclusive_speedups),
        "mean_noninclusive": mean(noninclusive_speedups),
    }


# --------------------------------------------------------------------------
# Ablation benches beyond the paper (DESIGN.md §6)
# --------------------------------------------------------------------------

def abl_jenks_vs_uniform() -> dict:
    """Jenks natural breaks vs. equal-width hit-rate binning."""
    from ..frontend.pipeline import FrontendPipeline
    from ..policies.furbys import FurbysPolicy

    config = preset("zen3")
    rows = []
    deltas = []
    apps = selected_apps()
    stats_by = _run_map({
        (app, policy): RunRequest(app=app, policy=policy)
        for app in apps
        for policy in ("lru", "furbys")
    })
    for app in apps:
        trace = get_trace(app)
        warmup = len(trace) // 3
        base = stats_by[(app, "lru")]
        furbys = RunRequest(app=app, policy="furbys")
        hit_stats = shared_hit_stats(furbys, "default")
        jenks_hints = shared_profile(furbys, "default")
        # Equal-width binning of the same hit rates.
        uniform_hints = {
            start: min(7, int(rate * 8))
            for start, rate in zip(hit_stats.starts.tolist(),
                                   hit_stats.rates().tolist())
            if start in jenks_hints
        }
        def evaluate(hints):
            pipeline = FrontendPipeline(config, FurbysPolicy(), hints=hints)
            return pipeline.run(trace, warmup=warmup)
        jenks_red = stats_by[(app, "furbys")].miss_reduction_vs(base)
        uniform_red = evaluate(uniform_hints).miss_reduction_vs(base)
        deltas.append(jenks_red - uniform_red)
        rows.append((app, percent(jenks_red, 1), percent(uniform_red, 1)))
    return {
        "headers": ("App", "Jenks", "equal-width"),
        "rows": rows,
        "mean_jenks_advantage": mean(deltas),
    }


def abl_weight_scope() -> dict:
    """Per-set vs. global weight computation."""
    rows = []
    deltas = []
    apps = selected_apps()
    requests: dict = {(app, "base"): _baseline_request(app) for app in apps}
    requests.update({
        (app, scope): RunRequest(app=app, policy="furbys", weight_scope=scope)
        for app in apps
        for scope in ("per_set", "global")
    })
    stats_by = _run_map(requests)
    for app in apps:
        base = stats_by[(app, "base")]
        r_set = stats_by[(app, "per_set")].miss_reduction_vs(base)
        r_glob = stats_by[(app, "global")].miss_reduction_vs(base)
        deltas.append(r_set - r_glob)
        rows.append((app, percent(r_set, 1), percent(r_glob, 1)))
    return {
        "headers": ("App", "per-set", "global"),
        "rows": rows,
        "mean_per_set_advantage": mean(deltas),
    }


def abl_extended_baselines() -> dict:
    """Beyond-the-paper baselines: DRRIP set-dueling and Hawkeye.

    Both belong to the related-work families the paper argues inherit
    Belady's blind spots on the micro-op cache (Section VIII); this
    bench verifies they land in the same near-LRU band as the Figure 5
    policies rather than closing the FURBYS gap.
    """
    result = _miss_reduction_matrix(("drrip", "hawkeye", "furbys"))
    means = result["mean_reductions"]
    result["furbys_beats_extended"] = (
        means["furbys"] >= max(means["drrip"], means["hawkeye"])
    )
    return result


def abl_keep_larger() -> dict:
    """Keep-larger rule for overlapping PWs, on vs off (DESIGN.md §6).

    With the rule off, the latest same-start window always overwrites
    the resident one, so intermediate exit points are repeatedly lost
    and re-decoded.
    """
    rows = []
    deltas = []
    apps = selected_apps()
    stats_by = _run_map({
        (app, policy, keep): RunRequest(app=app, policy=policy, keep_larger=keep)
        for app in apps
        for policy in ("lru", "furbys")
        for keep in (True, False)
    })
    for app in apps:
        base_on = stats_by[(app, "lru", True)]
        base_off = stats_by[(app, "lru", False)]
        on = stats_by[(app, "furbys", True)].miss_reduction_vs(base_on)
        off = stats_by[(app, "furbys", False)].miss_reduction_vs(base_off)
        lru_delta = base_off.uops_missed / max(1, base_on.uops_missed) - 1.0
        deltas.append(lru_delta)
        rows.append((app, percent(on, 1), percent(off, 1),
                     percent(lru_delta, 2)))
    return {
        "headers": ("App", "FURBYS (keep-larger)", "FURBYS (overwrite)",
                    "LRU miss delta when off"),
        "rows": rows,
        "mean_lru_miss_delta_when_off": mean(deltas),
    }


def abl_async_window(delays: tuple[int, ...] = (0, 2, 5, 10)) -> dict:
    """Decode-pipeline depth (asynchrony window) sensitivity (DESIGN.md §6).

    Longer insertion delays turn short-reuse lookups into unavoidable
    misses; FLACK's asynchrony handling should degrade more gracefully
    than LRU.
    """
    rows = []
    lru_by_delay = defaultdict(list)
    flack_by_delay = defaultdict(list)
    apps = selected_apps()
    stats_by = _run_map({
        (app, policy, delay): RunRequest(
            app=app, policy=policy, insertion_delay=delay
        )
        for app in apps
        for policy in ("lru", "flack")
        for delay in delays
    })
    for app in apps:
        row = [app]
        for delay in delays:
            lru = stats_by[(app, "lru", delay)]
            flack = stats_by[(app, "flack", delay)]
            lru_by_delay[delay].append(lru.uop_miss_rate)
            flack_by_delay[delay].append(flack.uop_miss_rate)
            row.append(f"{lru.uop_miss_rate:.3f}/{flack.uop_miss_rate:.3f}")
        rows.append(tuple(row))
    return {
        "headers": ("App", *[f"delay {d} (LRU/FLACK)" for d in delays]),
        "rows": rows,
        "mean_lru_by_delay": {d: mean(v) for d, v in lru_by_delay.items()},
        "mean_flack_by_delay": {d: mean(v) for d, v in flack_by_delay.items()},
    }


def abl_online_scale(trace_len: int = 1_000_000) -> dict:
    """Online policies at production scale: 1M-lookup traces (extension).

    The paper's data-center recordings are hundreds of millions of
    micro-ops; the default experiment length trades that for iteration
    speed.  With the columnar trace engine and the vectorized
    simulation kernel (:mod:`repro.frontend.simd`) million-lookup
    traces are cheap enough to be this figure's *default* scale, so it
    re-checks the Figure 5 online-policy ordering (SRRIP/GHRP/random
    vs. LRU) at ~22x the default length, where warmup transients have
    fully decayed and capacity pressure is closer to the deployments.

    ``REPRO_TRACE_LEN`` still wins when set, so smoke runs stay
    smoke-sized.
    """
    trace_len = env_trace_len() or trace_len
    result = _miss_reduction_matrix(
        ("srrip", "random", "ghrp"), trace_len=trace_len
    )
    result["trace_len"] = trace_len
    return result


def abl_offline_scale(trace_len: int = 1_000_000) -> dict:
    """Offline + profile-guided arms at 1M-lookup scale (extension).

    Companion to :func:`abl_online_scale` for the paper's headline
    arms: the Belady bound, FLACK and the deployable FURBYS /
    Thermometer policies.  These were previously too slow to run at
    production scale — each lookup pays future-index or hint/RRPV
    bookkeeping on top of the cache model — but the simulation
    kernel's offline kinds (:mod:`repro.frontend.simd`) replay them
    columnar, so million-lookup traces are this figure's default.
    It re-checks the FLACK-bound / FURBYS / Thermometer miss-reduction
    ordering (Figures 5 and 8) at ~22x the default length.

    ``REPRO_TRACE_LEN`` still wins when set, so smoke runs stay
    smoke-sized.
    """
    trace_len = env_trace_len() or trace_len
    result = _miss_reduction_matrix(
        ("belady", "flack", "furbys", "thermometer"), trace_len=trace_len
    )
    result["trace_len"] = trace_len
    return result


#: Registry used by the CLI and the bench harness.
EXPERIMENTS = {
    "tab1": tab1_parameters,
    "tab2": tab2_workloads,
    "miss-classes": miss_classification,
    "fig2": fig2_perfect_structures,
    "fig5": fig5_existing_policies,
    "fig8": fig8_furbys_miss,
    "fig9": fig9_furbys_ppw,
    "fig10": fig10_flack_ablation,
    "fig11": fig11_ipc,
    "fig12": fig12_iso_performance,
    "fig13": fig13_energy_breakdown,
    "fig14": fig14_energy_reduction,
    "fig15": fig15_profile_sources,
    "fig16": fig16_size_assoc,
    "fig17": fig17_zen4,
    "fig18": fig18_cross_validation,
    "fig19": fig19_weight_groups,
    "fig20": fig20_pitfall_depth,
    "fig21": fig21_bypass,
    "fig22": fig22_hotness,
    "sec6c": sec6c_coverage,
    "sec7": sec7_noninclusive,
    "abl-jenks": abl_jenks_vs_uniform,
    "abl-scope": abl_weight_scope,
    "abl-keep-larger": abl_keep_larger,
    "abl-async": abl_async_window,
    "abl-extended": abl_extended_baselines,
    "abl-online-scale": abl_online_scale,
    "abl-offline-scale": abl_offline_scale,
}


def run_recorded(
    figure: str,
    *,
    ledger: str | None = None,
    name: str | None = None,
    note: str = "",
    apps: tuple[str, ...] | None = None,
    policies: tuple[str, ...] | None = None,
    trace_len: int | None = None,
) -> dict:
    """Run one experiment under a durable ledger recording.

    Every ``run_many`` issued by the experiment journals into a new
    ledger row (see :mod:`repro.harness.ledger`); the returned summary
    carries the experiment id so ``repro experiments resume <id>`` can
    pick up an interrupted run.  ``figure`` is any :data:`EXPERIMENTS`
    key, or the special name ``"bench"`` — a representative
    app x policy grid (honouring ``apps``/``policies``/``trace_len``)
    that the chaos-resume proof and tests use as a fast, figure-shaped
    workload.
    """
    from .ledger import ExperimentRun

    if figure != "bench" and figure not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {figure!r}; try 'repro list' or 'bench'"
        )
    started = time.perf_counter()
    with ExperimentRun(name or figure, path=ledger, note=note) as record:
        if figure == "bench":
            from .bench import BENCH_APPS, BENCH_POLICIES, representative_requests

            requests = representative_requests(
                apps=apps or BENCH_APPS,
                policies=policies or BENCH_POLICIES,
                trace_len=trace_len,
            )
            run_many(requests)
            result = None
        else:
            result = EXPERIMENTS[figure]()
    from .parallel import last_batch_report

    report = last_batch_report()
    summary = {
        "id": record.experiment_id,
        "name": name or figure,
        "state": record.state,
        "elapsed_s": round(time.perf_counter() - started, 3),
    }
    if record.ledger is None:
        summary["state"] = "unrecorded (REPRO_LEDGER=0)"
    if report is not None:
        summary["requests"] = report.requests
        summary["unique"] = report.unique
        summary["simulations"] = report.simulations
        summary["executed"] = report.executed
        summary["faults"] = report.faults.to_json()
    if result is not None:
        summary["result"] = result
    return summary
