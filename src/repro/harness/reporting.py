"""Plain-text rendering of experiment results.

Each experiment returns rows of plain Python values; these helpers
render them as aligned ASCII tables, which is what the benches print
(the paper's figures, as rows/series).
"""

from __future__ import annotations

from typing import Iterable, Sequence


def percent(value: float, digits: int = 2) -> str:
    """Format a ratio as a signed percentage string."""
    return f"{value * 100:+.{digits}f}%"


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """Render an aligned ASCII table."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in materialized:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_rows(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    fmt: str = "table",
    *,
    title: str | None = None,
) -> str:
    """Render rows as ``table`` (aligned ASCII), ``csv``, or ``json``.

    The ledger query CLI funnels every listing through this so the same
    rows can feed a terminal, a spreadsheet, or a script.  ``json``
    emits a list of objects keyed by header; ``csv`` quotes per RFC via
    the stdlib writer.  ``title`` is only used by the table format.
    """
    if fmt == "table":
        return format_table(headers, rows, title=title)
    materialized = [list(row) for row in rows]
    if fmt == "csv":
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(materialized)
        return buffer.getvalue().rstrip("\n")
    if fmt == "json":
        import json

        return json.dumps(
            [dict(zip(headers, row)) for row in materialized], indent=2
        )
    raise ValueError(f"unknown format {fmt!r}; expected table, csv, or json")


def bar_chart(
    items: Sequence[tuple[str, float]],
    *,
    width: int = 44,
    unit: str = "%",
    scale: float = 100.0,
    title: str | None = None,
) -> str:
    """Render labelled values as a horizontal ASCII bar chart.

    Negative values draw left of the axis.  ``scale`` converts raw
    values into the displayed unit (default: ratios → percent), so the
    mean-gain dictionaries the experiments return plot directly::

        bar_chart(sorted(result["mean_reductions"].items()))
    """
    if not items:
        return title or ""
    label_width = max(len(label) for label, _ in items)
    magnitude = max(abs(value) for _, value in items) or 1.0
    lines = [title] if title else []
    for label, value in items:
        length = round(abs(value) / magnitude * width)
        bar = ("-" if value < 0 else "#") * length
        lines.append(
            f"{label.ljust(label_width)} | {bar} {value * scale:+.2f}{unit}"
        )
    return "\n".join(lines)


def format_batch_report(report) -> str:
    """Summary of a :class:`~repro.harness.parallel.BatchReport`.

    One line for a clean batch; when any fault counter is non-zero a
    second line itemizes the taxonomy (crashed / timed-out / retried /
    skipped / corrupt artifacts / degraded fallbacks) so degradations
    are never silent.
    """
    served = (
        f"{report.memory_hits} memory + {report.disk_hits} disk hits, "
        f"{report.executed} executed"
    )
    fan_out = (
        f"{report.chunks} chunks on {report.jobs} jobs"
        if report.chunks
        else f"serial ({report.jobs} job)" if report.jobs == 1 else f"{report.jobs} jobs"
    )
    line = (
        f"batch: {report.requests} requests ({report.unique} unique, "
        f"{report.simulations} simulations) | "
        f"{served} | {fan_out} | {report.elapsed_s:.1f}s"
    )
    faults = getattr(report, "faults", None)
    if faults is None:
        return line
    sim_fallbacks = getattr(faults, "sim_fallbacks", None) or {}
    if faults.total_faults == 0 and faults.retried == 0 and not sim_fallbacks:
        return line
    parts = []
    for label, count in (
        ("crashed", faults.crashed),
        ("timed-out", faults.timed_out),
        ("retried", faults.retried),
        ("skipped", faults.skipped),
        ("corrupt-artifacts", faults.corrupt_artifacts),
    ):
        if count:
            parts.append(f"{count} {label}")
    if faults.degraded_fallbacks:
        breakdown = ", ".join(
            f"{name}={count}" for name, count in sorted(faults.fallbacks.items())
        )
        parts.append(f"{faults.degraded_fallbacks} degraded fallbacks ({breakdown})")
    if sim_fallbacks:
        breakdown = ", ".join(
            f"{name.removeprefix('sim_fallback:')}={count}"
            for name, count in sorted(sim_fallbacks.items())
        )
        parts.append(
            f"{sum(sim_fallbacks.values())} sim kernel fallbacks ({breakdown})"
        )
    return line + "\nfaults: " + " | ".join(parts)


def format_failure(exc) -> str:
    """Readable failure block for a
    :class:`~repro.harness.parallel.BatchExecutionError`.

    Shows the full failing request, how many attempts it got, and the
    worker traceback the error chained — everything needed to reproduce
    the failure with a single serial run.
    """
    lines = [
        "=" * 64,
        "batch execution failed",
        f"  request : {getattr(exc, 'request', None)!r}",
        f"  attempts: {getattr(exc, 'attempts', 1)}",
        "-" * 64,
    ]
    detail = getattr(exc, "detail", "") or str(exc)
    lines.append(detail.rstrip("\n"))
    lines.append("=" * 64)
    return "\n".join(lines)


def mean(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    return sum(values) / len(values)
