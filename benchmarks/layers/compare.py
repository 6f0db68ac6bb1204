"""``python -m benchmarks.layers.compare A B`` — gate one result set on another.

``A`` and ``B`` are ``--output`` directories of two ``run`` invocations
(same seed, same ``--seconds``).  One row per workload × metric:

* **simulated metrics and counts** must be identical — they are pure
  functions of the seed, so any difference is a behaviour change;
* **end-to-end host metrics** may get worse by at most the bound
  ``BENCHMARK.json`` fixes for them.  When either side's own round-to-round
  spread is wider than that bound the metric is *unresolved*, not
  *unchanged*: the run cannot tell;
* per-layer host metrics are printed for reading only.

Exit status is non-zero on a regression or on any exact-metric difference.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parent.parent
for _path in (str(_ROOT / "src"), str(_ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.layers.harness import END_TO_END, PER_LAYER, spread  # noqa: E402

#: End-to-end metrics in the simulated currency: exact.
SIMULATED = frozenset({"charge_per_op", "sim_p95_charge"})
#: Per-layer units whose values are wall-clock (everything else is a count).
_HOST_UNITS = frozenset({"s", "us", "1/s"})
#: Per-layer ratios of two wall-clock quantities.
_HOST_RATIOS = frozenset({
    "storage.self_share", "gremlin.self_share", "concurrency.session_wall_ratio",
    "versions.asof_wall_ratio", "trace.overhead_share", "trace.unattributed_share",
})


def load_bounds() -> dict[str, tuple[str, float]]:
    """``metric -> (better, bound)`` from ``BENCHMARK.json``."""
    spec = json.loads((_ROOT / "BENCHMARK.json").read_text())
    return {row["name"]: (row["better"], row["bound"]) for row in spec["end_to_end"]}


def host_verdict(name: str, a: dict[str, Any], b: dict[str, Any],
                 better: str, bound: float) -> tuple[str, float]:
    """Judge one end-to-end host metric of two payloads."""
    old, new = a["end_to_end"][name], b["end_to_end"][name]
    change = (new - old) / old if old else 0.0
    worse = change if better == "lower" else -change
    series = "setup_runs_s" if name == "setup_s" else None
    noise = max(
        spread(side[series] if series else side["rounds"].get(name, ()))
        for side in (a, b)
    )
    if noise > bound:
        return "unresolved", change
    if worse > bound:
        return "REGRESSED", change
    return ("improved" if worse < -bound else "unchanged"), change


def compare(a_dir: Path, b_dir: Path) -> tuple[list[tuple[str, ...]], int]:
    bounds = load_bounds()
    rows: list[tuple[str, ...]] = []
    bad = 0
    names = sorted(path.name[: -len("-untraced.json")] for path in a_dir.glob("*-untraced.json"))
    for workload in names:
        a = json.loads((a_dir / f"{workload}-untraced.json").read_text())
        b = json.loads((b_dir / f"{workload}-untraced.json").read_text())
        for name, unit in END_TO_END:
            old, new = a["end_to_end"][name], b["end_to_end"][name]
            if name in SIMULATED:
                verdict = "identical" if old == new else "DIFFERS"
                change = 0.0 if old == new else (new - old) / old if old else float("inf")
            else:
                verdict, change = host_verdict(name, a, b, *bounds[name])
            bad += verdict in ("REGRESSED", "DIFFERS")
            rows.append((workload, name, f"{old:.6g}", f"{new:.6g}", unit, f"{change:+.2%}", verdict))
        for key in ("failed", "attempted"):
            same = a[key] == b[key]
            bad += not same
            rows.append((workload, key, str(a[key]), str(b[key]), "count", "",
                         "identical" if same else "DIFFERS"))
        same = a["simulated"] == b["simulated"]
        bad += not same
        rows.append((workload, "simulated ledger + result digest", "", "", "", "",
                     "identical" if same else "DIFFERS"))
        traced = [json.loads((side / f"{workload}-traced.json").read_text())
                  if (side / f"{workload}-traced.json").exists() else None for side in (a_dir, b_dir)]
        if None in traced:
            continue
        for name, unit in PER_LAYER:
            old, new = traced[0]["per_layer"][name], traced[1]["per_layer"][name]
            if not old and not new:
                continue
            if unit in _HOST_UNITS or name in _HOST_RATIOS:
                verdict = "info"
            else:
                verdict = "identical" if old == new else "DIFFERS"
                bad += old != new
            change = f"{(new - old) / old:+.2%}" if old else ""
            rows.append((workload, name, f"{old:.6g}", f"{new:.6g}", unit, change, verdict))
    return rows, bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="baseline --output directory")
    parser.add_argument("b", type=Path, help="candidate --output directory")
    args = parser.parse_args(argv)
    rows, bad = compare(args.a, args.b)
    if not rows:
        print(f"no *-untraced.json results under {args.a}", file=sys.stderr)
        return 2
    widths = [max(len(row[column]) for row in rows) for column in range(7)]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    print(f"{bad} regressions or exact-metric differences")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
