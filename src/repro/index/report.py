"""Rendering of the reachability-index benchmark.

Paths, persistence and gating live in :mod:`repro.bench.registry` (the
``reachability`` entry); this module only turns a payload into the text figure.
"""

from __future__ import annotations

from typing import Any

from repro.bench.registry import text_table

_COLUMNS = (
    ("shape", "shape", "{:s}"),
    ("coverage", "tree-cov", "{:.0%}"),
    ("build", "build", "{:d}"),
    ("bfs_total", "bfs-chg", "{:d}"),
    ("indexed_total", "idx-chg", "{:d}"),
    ("speedup", "speedup", "{:.1f}x"),
    ("amortize", "amortize", "{:s}"),
)


def format_reachability_report(report: dict[str, Any]) -> str:
    """Render the engine × shape matrix as aligned per-engine tables."""
    lines = [
        "Figure 14: reachability charges — interval index vs charged BFS, "
        "per engine and structural shape",
        f"|V|={report['vertices']}  label={report['label']!r}  "
        f"{report['reachable_pairs']} reachable pairs + "
        f"{report['descendant_sources']} descendant sources per cell  "
        f"seed={report['seed']}",
    ]
    groups: dict[str, list[dict[str, Any]]] = {}
    for cell in report["cells"]:
        groups.setdefault(cell["engine"], []).append(cell)
    for engine_id, cells in groups.items():
        best = max(cells, key=lambda c: c["charge_speedup"])
        lines.append("")
        lines.append(
            f"{engine_id} — best charge speedup {best['charge_speedup']:.1f}x "
            f"on {best['shape']}"
        )
        rows = []
        for cell in cells:
            amortize = cell["amortize_after_queries"]
            values = {
                "shape": cell["shape"],
                "coverage": cell["index"]["tree_coverage"],
                "build": cell["index"]["build_charge"],
                "bfs_total": cell["bfs"]["total_charge"],
                "indexed_total": cell["indexed"]["total_charge"],
                "speedup": cell["charge_speedup"],
                "amortize": f"{amortize:g}q" if amortize is not None else "never",
            }
            rows.append(("  ", values))
        lines.extend(text_table(_COLUMNS, rows, dashes=False))
    return "\n".join(lines)
