"""``python -m bench compare BASE.json NEW.json``: verdicts per metric.

Each file is what ``--output`` wrote: a list of runs.  Run ``i`` of BASE
pairs with run ``i`` of NEW, and each side's value of a metric in a run
is that run's median.  The verdict rules:

* improved — at least 10 pairs, NEW wins at least 9/10 of them (ties
  count for neither), and the medians differ by more than BASE's
  interquartile range;
* unresolved — the spread (interquartile range over median) of either
  side is wider than the bound, unless every NEW run reads better than
  every BASE run;
* regressed — NEW's median is worse than BASE's by more than the bound
  (a share of BASE's median; for ``failed_ratio`` any increase);
* within bound — otherwise.
"""

from __future__ import annotations

import json
from pathlib import Path

from .harness import BENCHMARK, summarize

#: failed_ratio is never in BENCHMARK.json (it is 0 on a good run), but
#: any increase in it is a regression.
FAILED = {"name": "failed_ratio", "unit": "fraction", "better": "lower",
          "bound": 0.0}
MIN_PAIRS_FOR_GAIN = 10


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    summary = summarize(values)
    return summary["q1"], summary["median"], summary["q3"]


def verdict(base: list[float], new: list[float], better: str,
            bound: float, absolute: bool = False) -> tuple[str, int, int]:
    """``(verdict, wins, pairs)`` for one metric of one workload."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, new))
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    b_q1, b_med, b_q3 = _quartiles(base)
    n_q1, n_med, n_q3 = _quartiles(new)
    if (len(pairs) >= MIN_PAIRS_FOR_GAIN and wins >= 0.9 * len(pairs)
            and abs(n_med - b_med) > b_q3 - b_q1):
        return "improved", wins, len(pairs)
    worse_by = sign * (b_med - n_med)
    if absolute:
        return ("regressed" if worse_by > bound else "within bound",
                wins, len(pairs))
    spread = max((b_q3 - b_q1) / abs(b_med) if b_med else 0.0,
                 (n_q3 - n_q1) / abs(n_med) if n_med else 0.0)
    all_better = all(sign * (n - b) > 0 for b in base for n in new)
    if spread > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if worse_by > bound * abs(b_med):
        return "regressed", wins, len(pairs)
    return "within bound", wins, len(pairs)


def _values(runs: list[dict], workload: str, metric: str) -> list[float]:
    return [
        run["workloads"][workload]["metrics"][metric]["median"]
        for run in runs
        if metric in run["workloads"].get(workload, {}).get("metrics", {})
    ]


def compare(base_path: Path, new_path: Path) -> tuple[list[dict], str]:
    """Compare two output files; returns the rows and a printable table."""
    base_runs = json.loads(Path(base_path).read_text())["runs"]
    new_runs = json.loads(Path(new_path).read_text())["runs"]
    new_workloads = {w for run in new_runs for w in run["workloads"]}
    workloads = [w for w in dict.fromkeys(
        w for run in base_runs for w in run["workloads"]) if w in new_workloads]
    rows = []
    for workload in workloads:
        for spec in [*BENCHMARK["end_to_end"], FAILED]:
            base = _values(base_runs, workload, spec["name"])
            new = _values(new_runs, workload, spec["name"])
            if not base or not new:
                continue
            result, wins, pairs = verdict(
                base, new, spec["better"], spec["bound"],
                absolute=spec is FAILED)
            rows.append({
                "workload": workload, "metric": spec["name"],
                "base": _quartiles(base), "new": _quartiles(new),
                "wins": wins, "pairs": pairs, "verdict": result,
            })
    lines = [f"{'workload':<13} {'metric':<14} {'base median [q1, q3]':<34} "
             f"{'new median [q1, q3]':<34} {'wins':>7}  verdict"]
    for row in rows:
        b_q1, b_med, b_q3 = row["base"]
        n_q1, n_med, n_q3 = row["new"]
        lines.append(
            f"{row['workload']:<13} {row['metric']:<14} "
            f"{f'{b_med:.5g} [{b_q1:.5g}, {b_q3:.5g}]':<34} "
            f"{f'{n_med:.5g} [{n_q1:.5g}, {n_q3:.5g}]':<34} "
            f"{row['wins']:>3}/{row['pairs']:<3}  {row['verdict']}")
    return rows, "\n".join(lines)
