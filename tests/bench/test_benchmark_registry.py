"""The benchmark registry: generated CLI, one gate, committed baselines.

The cross-commit identity test here is what keeps the committed
``BENCH_*.json`` payloads and ``benchmarks/reports/fig*.txt`` figures
honest: every charge-deterministic benchmark is regenerated with its
registry baseline args and must reproduce both, so a cost-model change
that forgets to regenerate a baseline fails tier-1, not just CI.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro.cli
from repro.bench.gates import check_payload_identity
from repro.bench.registry import SPECS, check, markdown_table, write_report
from repro.cli import main

ROOT = Path(__file__).resolve().parents[2]
DETERMINISTIC = [name for name, spec in SPECS.items() if not spec.wall_clock]

#: A matrix small enough to run in well under a second per subcommand.
TINY = {
    name: flags.split()
    for name, flags in {
        "traversal": "--engine nativelinked-1.9 --dataset yeast --scale 0.1 --repeats 1",
        "concurrent": "--engines nativelinked-1.9 --clients 2 --txns 2 --scale 0.1",
        "saturate": "--engines nativelinked-1.9 --clients 2 --txns 2 --scale 0.1 "
        "--start-interval 64 --min-interval 32",
        "scaleout": "--engines nativelinked-1.9 --partitioners hash --shards 1 2 "
        "--scale 0.1 --depth 1 --bfs-sources 1",
        "chaos": "--mixes one-hop --shards 2 --rates 0 30 --policies fixed --scale 0.1",
        "readscale": "--engines nativelinked-1.9 --replicas 0 1 --bounds 64 --caches 0 "
        "--scale 0.1 --steady-ops 20 --storm-rounds 1",
        "txn": "--engines nativelinked-1.9 --partitioners hash --shards 1 2 "
        "--scale 0.1 --transactions 4",
        "reachability": "--engines nativelinked-3.0 --shapes tree --vertices 16 "
        "--pairs 2 --sources 1",
        "versions": "--engines nativelinked-1.9 --depths 2 --mixes read "
        "--retentions keep-all --base-vertices 8 --churn-ops 2",
    }.items()
}

#: One out-of-range knob per subcommand; each must be refused by ``run_*``.
BAD_KNOB = {
    "traversal": ["--engine", "bogus"],
    "concurrent": ["--backoff", "-1"],
    "saturate": ["--retries", "-1"],
    "scaleout": ["--latency", "-1"],
    "chaos": ["--superstep-timeout", "0"],
    "readscale": ["--steady-ops", "0"],
    "txn": ["--arrival-gap", "0"],
    "reachability": ["--vertices", "2"],
    "versions": ["--retentions", "depth-x"],
}


@pytest.fixture(scope="module")
def gate_runs(tmp_path_factory):
    """``graphbench gate NAME`` for every deterministic benchmark, once.

    The eight regenerations cost ~20 CPU-seconds, so they run as parallel
    worker processes from the repo root (committed paths are root-relative).
    """
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(repro.cli.__file__).parents[1]),
        TMPDIR=str(tmp_path_factory.mktemp("gate")),
    )

    def gate(name: str) -> subprocess.CompletedProcess:
        command = [sys.executable, "-m", "repro", "gate", name]
        return subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600
        )

    with ThreadPoolExecutor(max_workers=os.cpu_count()) as pool:
        return dict(zip(DETERMINISTIC, pool.map(gate, DETERMINISTIC)))


def _committed(name: str) -> dict:
    return json.loads((ROOT / SPECS[name].baseline).read_text())


class TestCommittedBaselines:
    @pytest.mark.parametrize("name", DETERMINISTIC)
    def test_baseline_and_figure_regenerate_identically(self, name, gate_runs):
        """Payload identity, payload invariants and the tracked figure, at once."""
        run = gate_runs[name]
        assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
        assert f"{name} gate passed" in run.stdout

    @pytest.mark.parametrize("name", DETERMINISTIC)
    def test_a_perturbed_baseline_fails_the_gate(self, name):
        spec, committed = SPECS[name], _committed(name)
        assert check(spec, committed, committed) == []
        perturbed = copy.deepcopy(committed)
        perturbed["seed"] += 1
        (failure,) = check(spec, perturbed, committed)
        assert spec.regenerate_command in failure

    def test_a_slower_traversal_fails_the_gate(self):
        spec, committed = SPECS["traversal"], _committed("traversal")
        assert check(spec, committed, committed) == []
        slower = copy.deepcopy(committed)
        for entry in slower["engines"].values():
            entry["queries"]["Q32"]["optimized_median_s"] *= 2
        failures = check(spec, committed, slower)
        assert len(failures) == len(committed["engines"])
        assert all("/Q32:" in failure for failure in failures)
        assert check(spec, committed, slower, max_regression=1.5) == []

    def test_identity_ignores_only_wall_clock(self):
        committed = _committed("saturate")
        other = dict(committed, wall_seconds=1e9)
        assert check_payload_identity(committed, other, "regen") == []
        other["seed"] = 1
        (failure,) = check_payload_identity(committed, other, "regen-hint")
        assert "regen-hint" in failure
        assert f"/seed: {committed['seed']} → 1" in failure

    def test_identity_failure_names_the_differing_paths(self):
        committed = _committed("versions")
        other = copy.deepcopy(committed)
        other["cells"][5]["catalog"]["retained_entries"] += 1
        del other["cells"][0]["mix"]
        other["cells"][1]["extra"] = [1]
        other["cells"].pop()
        retained = committed["cells"][5]["catalog"]["retained_entries"]
        (failure,) = check_payload_identity(committed, other, "regen")
        assert failure.splitlines()[1:] == [
            f"    /cells[0]/mix: {json.dumps(committed['cells'][0]['mix'])} → (absent)",
            "    /cells[1]/extra: (absent) → [1]",
            f"    /cells[5]/catalog/retained_entries: {retained} → {retained + 1}",
            f"    /cells: {len(committed['cells'])} → {len(committed['cells']) - 1} items",
        ]
        # More than ten differences are counted, not listed.
        for cell in other["cells"]:
            cell["depth"] += 1
        (failure,) = check_payload_identity(committed, other, "regen")
        assert len(failure.splitlines()) == 1 + 10 + 1
        assert failure.endswith(f"… and {len(other['cells']) + 4 - 10} more")

    def test_gate_command_exit_codes(self, monkeypatch, tmp_path, capsys):
        spec = SPECS["reachability"]
        figure = tmp_path / spec.report
        figure.parent.mkdir(parents=True)
        shutil.copy(ROOT / spec.report, figure)
        shutil.copy(ROOT / spec.baseline, tmp_path / spec.baseline)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert main(["gate", "reachability"]) == 0
        assert "reachability gate passed" in capsys.readouterr().out
        stale = _committed("reachability")
        stale["cells"][0]["index"]["build_charge"] += 1
        (tmp_path / spec.baseline).write_text(json.dumps(stale))
        assert main(["gate", "reachability"]) == 1
        assert "reachability gate FAILED" in capsys.readouterr().out
        figure.write_text("stale figure\n")
        assert main(["gate", "reachability"]) == 1
        assert "rendered figure differs" in capsys.readouterr().out

    def test_gate_refuses_bad_invocations(self, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)  # not the repository root: no baselines here
        for argv in (["gate"], ["gate", "--all", "txn"], ["gate", "bogus"], ["gate", "txn"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
        assert "gate runs from the repository root" in capsys.readouterr().err


class TestGeneratedSubcommands:
    @pytest.mark.parametrize("name", list(SPECS))
    def test_empty_output_and_report_mean_skip(self, name, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([name, *TINY[name], "--output", "", "--report", ""]) == 0
        assert "wrote" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", list(SPECS))
    def test_bad_knob_exits_2(self, name, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([name, *TINY[name], *BAD_KNOB[name], "--output", "", "--report", ""]) == 2
        assert capsys.readouterr().err.startswith(f"graphbench {name}: ")

    @pytest.mark.parametrize("name", [name for name in SPECS if name != "traversal"])
    def test_bad_engine_exits_2(self, name, capsys):
        assert main([name, "--engines", "bogus"]) == 2
        assert "unknown engine" in capsys.readouterr().err

    def test_engine_prefixes_resolve(self, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["concurrent", *TINY["concurrent"], "--engines", "triple"]
        assert main(argv) == 0
        assert "triplegraph-2.1" in capsys.readouterr().out

    def test_only_baseline_compatible_defaults_write_the_baseline(self):
        parser = repro.cli.build_parser()
        for name, spec in SPECS.items():
            args = parser.parse_args([name])
            if spec.baseline_args:
                assert (args.output, args.report) == ("", "")
            else:
                assert (args.output, args.report) == (spec.baseline, spec.report)

    def test_saturate_compare_loops_writes_figure_9b(self, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["saturate", *TINY["saturate"], "--output", "", "--report", ""]
        assert main([*argv, "--compare-loops", "--loop-report", "fig9b.txt"]) == 0
        assert (tmp_path / "fig9b.txt").read_text().startswith("Figure 9b")
        assert "Figure 9b" in capsys.readouterr().out


class TestWriteReport:
    def test_round_trip_and_skip(self, tmp_path):
        payload = {"seed": 7, "wall_seconds": 0.5, "cells": [1, 2]}
        json_path = tmp_path / "nested" / "BENCH.json"
        text_path = tmp_path / "fig.txt"
        assert write_report(payload, "Figure", json_path, text_path) == [json_path, text_path]
        assert json.loads(json_path.read_text()) == payload
        assert text_path.read_text() == "Figure\n"
        assert write_report(payload, "Figure", "", None) == []
        assert write_report(payload, "Figure", "", text_path) == [text_path]


class TestDocs:
    def test_readme_table_matches_the_registry(self):
        assert markdown_table() in (ROOT / "README.md").read_text()

    def test_cli_docstring_lists_every_registry_subcommand(self):
        for name in SPECS:
            assert f"``graphbench {name}``" in repro.cli.__doc__
