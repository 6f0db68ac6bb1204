"""Plain-text report rendering for every table and figure of the paper.

The paper presents its results as figures (log-scale bar charts) and tables.
The harness renders the same data as aligned text tables: one row per query
or dataset, one column per engine, so the *ordering* and *relative factors*
— the properties the reproduction aims to preserve — are directly readable
in a terminal or a log file.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from repro.bench.results import ExecutionStatus, ResultSet
from repro.bench.spaces import SpaceMeasurement

_STATUS_MARKERS = {
    ExecutionStatus.TIMEOUT: "TIMEOUT",
    ExecutionStatus.OUT_OF_MEMORY: "OOM",
    ExecutionStatus.ERROR: "ERROR",
    ExecutionStatus.UNSUPPORTED: "N/A",
}


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]], title: str = "") -> str:
    """Render an aligned text table."""
    materialised = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialised:
        for position, cell in enumerate(row):
            widths[position] = max(widths[position], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(header.ljust(widths[position]) for position, header in enumerate(headers)))
    lines.append("  ".join("-" * width for width in widths))
    for row in materialised:
        lines.append("  ".join(cell.ljust(widths[position]) for position, cell in enumerate(row)))
    return "\n".join(lines)


def format_seconds(value: float | None) -> str:
    """Format an elapsed time in engineering-friendly units."""
    if value is None:
        return "-"
    if value >= 1.0:
        return f"{value:.3f}s"
    return f"{value * 1000:.2f}ms"


def format_bytes(value: int) -> str:
    """Format a byte count in MiB/KiB as the paper's space figures do."""
    if value >= 1024 * 1024:
        return f"{value / (1024 * 1024):.1f}MB"
    if value >= 1024:
        return f"{value / 1024:.1f}KB"
    return f"{value}B"


def timing_table(
    results: ResultSet,
    query_ids: Sequence[str],
    dataset: str,
    title: str = "",
) -> str:
    """One row per query, one column per engine: mean single-mode elapsed time."""
    engines = results.engines()
    rows = []
    for query_id in query_ids:
        row: list[str] = [query_id]
        for engine in engines:
            status = results.status_of(engine, dataset, query_id)
            if status in _STATUS_MARKERS:
                row.append(_STATUS_MARKERS[status])
            else:
                row.append(format_seconds(results.elapsed(engine, dataset, query_id)))
        rows.append(row)
    return format_table(["Query"] + engines, rows, title=title)


def dataset_sweep_table(
    results: ResultSet,
    query_id: str,
    datasets: Sequence[str],
    title: str = "",
) -> str:
    """One row per dataset, one column per engine, for a single query (single mode).

    This matches the layout of the paper's per-query figures, where the
    x-axis sweeps the Freebase samples of increasing size.
    """
    engines = results.engines()
    rows = []
    for dataset in datasets:
        row: list[str] = [dataset]
        for engine in engines:
            status = results.status_of(engine, dataset, query_id)
            if status in _STATUS_MARKERS:
                row.append(_STATUS_MARKERS[status])
            else:
                row.append(format_seconds(results.elapsed(engine, dataset, query_id)))
        rows.append(row)
    return format_table(["Dataset"] + engines, rows, title=title)


def space_table(measurements: Sequence[SpaceMeasurement], title: str = "Space occupancy") -> str:
    """Figure 1(a)/(b): one row per dataset, one column per engine, plus raw size."""
    engines = sorted({measurement.engine for measurement in measurements})
    datasets = sorted({measurement.dataset for measurement in measurements})
    by_key = {(m.engine, m.dataset): m for m in measurements}
    rows = []
    for dataset in datasets:
        row: list[str] = [dataset]
        raw = 0
        for engine in engines:
            measurement = by_key.get((engine, dataset))
            row.append(format_bytes(measurement.total_bytes) if measurement else "-")
            if measurement:
                raw = measurement.raw_json_bytes
        row.append(format_bytes(raw))
        rows.append(row)
    return format_table(["Dataset"] + engines + ["Raw JSON"], rows, title=title)


def timeout_table(results: ResultSet) -> str:
    """Figure 1(c): failures per engine, split by single vs batch mode."""
    rows = []
    for engine in results.engines():
        rows.append(
            [
                engine,
                results.timeout_count(engine, mode="single"),
                results.timeout_count(engine, mode="batch"),
                results.timeout_count(engine),
            ]
        )
    return format_table(
        ["Engine", "Interactive", "Batch", "Total"], rows, title="Failed executions (Figure 1c)"
    )


def overall_table(results: ResultSet, mode: str = "single", title: str = "") -> str:
    """Figure 7(c)/(d): cumulative time per engine and dataset."""
    engines = results.engines()
    datasets = results.datasets()
    rows = []
    for dataset in datasets:
        row: list[str] = [dataset]
        for engine in engines:
            row.append(format_seconds(results.total_elapsed(engine, dataset=dataset, mode=mode)))
        rows.append(row)
    totals: list[str] = ["TOTAL"]
    for engine in engines:
        totals.append(format_seconds(results.total_elapsed(engine, mode=mode)))
    rows.append(totals)
    return format_table(["Dataset"] + engines, rows, title=title or f"Overall ({mode})")


def rows_table(headers: Sequence[str], rows: Iterable[Mapping[str, Any]], title: str = "") -> str:
    """Render dictionaries (e.g. Table 1 / Table 3 rows) as a text table."""
    return format_table(headers, [[row.get(header, "") for header in headers] for row in rows], title=title)
