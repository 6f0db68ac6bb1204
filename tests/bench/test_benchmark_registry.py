"""The benchmark registry: generated CLI, one gate, committed baselines.

The cross-commit identity test here is what keeps the committed
``BENCH_*.json`` payloads and ``benchmarks/reports/fig*.txt`` figures
honest: every benchmark is regenerated with its registry baseline args
and must reproduce both, so a cost-model change that forgets to
regenerate a baseline fails tier-1, not just CI.
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
from repro.bench.registry import SPECS, check, markdown_table, output_paths, write_report
from repro.cli import main
from repro.queries.complex_ldbc import COMPLEX_QUERIES

ROOT = Path(__file__).resolve().parents[2]

#: A matrix small enough to run in well under a second per subcommand.
TINY = {
    name: flags.split()
    for name, flags in {
        "traversal": "--engine nativelinked-1.9 --dataset yeast --scale 0.1",
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

#: One out-of-range value per ranged flag (a test holds the table complete),
#: plus two names only ``run_*`` can refuse; each must exit 2.
BAD_KNOB = {
    "traversal": "--engine=bogus --scale=0 --depth=-1",
    "concurrent": "--clients=0 --txns=0 --scale=0 --group-commit=0 --arrival-interval=-1 "
    "--retries=-1 --backoff=-1",
    "saturate": "--clients=0 --txns=0 --scale=0 --group-commit=0 --start-interval=0 "
    "--min-interval=0 --max-steps=0 --retries=-1 --backoff=-1",
    "scaleout": "--shards=0 --scale=0 --depth=-1 --bfs-sources=-2 --latency=-1 --per-item=-1",
    "chaos": "--shards=0 --rates=101 --scale=0 --max-restarts=-1 --superstep-timeout=0 "
    "--checkpoint-interval=0",
    "readscale": "--replicas=-1 --bounds=-1 --caches=-5 --scale=0 --shards=0 "
    "--apply-interval=0 --steady-ops=0 --storm-rounds=-1 --hot-set=0",
    "txn": "--shards=0 --scale=0 --transactions=0 --footprint=0 --arrival-gap=0 "
    "--base-duration=-1",
    "reachability": "--vertices=2 --pairs=0 --sources=0",
    "versions": "--retentions=depth-x --depths=0 --base-vertices=4 --churn-ops=0 --tag-every=0",
}
BAD_KNOBS = [(name, knob) for name, knobs in BAD_KNOB.items() for knob in knobs.split()]


@pytest.fixture(scope="module")
def gate_runs(tmp_path_factory):
    """``graphbench gate NAME`` for every benchmark, once.

    The nine regenerations cost ~25 CPU-seconds, so they run as parallel
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
        return dict(zip(SPECS, pool.map(gate, SPECS)))


def _committed(name: str) -> dict:
    return json.loads((ROOT / SPECS[name].baseline).read_text())


class TestCommittedBaselines:
    @pytest.mark.parametrize("name", list(SPECS))
    def test_baseline_and_figure_regenerate_identically(self, name, gate_runs):
        """Payload identity, payload invariants and the tracked figure, at once."""
        run = gate_runs[name]
        assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
        assert f"{name} gate passed" in run.stdout

    @pytest.mark.parametrize("name", list(SPECS))
    def test_a_perturbed_baseline_fails_the_gate(self, name):
        spec, committed = SPECS[name], _committed(name)
        assert check(spec, committed, committed) == []
        perturbed = copy.deepcopy(committed)
        perturbed["seed"] += 1
        (failure,) = check(spec, perturbed, committed)
        assert spec.regenerate_command in failure

    @pytest.mark.parametrize(
        "field, clause", [("optimized_charge", "exceeds"), ("optimized_digest", "differs")]
    )
    def test_a_worse_traversal_machine_fails_its_invariant(self, field, clause):
        spec, committed = SPECS["traversal"], _committed("traversal")
        assert spec.invariants(committed) == []
        worse = copy.deepcopy(committed)
        for entry in worse["engines"].values():
            entry["queries"]["Q32"][field] += 1
        failures = spec.invariants(worse)
        assert len(failures) == len(committed["engines"])
        assert all("/Q32:" in failure and clause in failure for failure in failures)
        # The gate reports the invariant on top of the identity mismatch.
        assert check(spec, committed, worse)[1:] == failures

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

    @pytest.mark.parametrize("name, knob", BAD_KNOBS)
    def test_bad_knob_exits_2(self, name, knob, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([name, *TINY[name], knob, "--output", "", "--report", ""]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"graphbench {name}: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("name", list(SPECS))
    def test_every_ranged_flag_has_a_bad_knob(self, name):
        ranged = {
            arg.flag for arg in SPECS[name].args if (arg.minimum, arg.maximum) != (None, None)
        }
        assert ranged <= {knob.split("=")[0] for knob in BAD_KNOB[name].split()}

    @pytest.mark.parametrize("name", [name for name in SPECS if name != "traversal"])
    def test_bad_engine_exits_2(self, name, capsys):
        assert main([name, "--engines", "bogus"]) == 2
        assert "unknown engine" in capsys.readouterr().err

    def test_engine_prefixes_resolve(self, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["concurrent", *TINY["concurrent"], "--engines", "triple"]
        assert main(argv) == 0
        assert "triplegraph-2.1" in capsys.readouterr().out

    @pytest.mark.parametrize("name", list(SPECS))
    def test_only_the_baseline_invocation_defaults_to_the_committed_paths(self, name):
        spec, parser = SPECS[name], repro.cli.build_parser()
        baseline = parser.parse_args([name, *spec.baseline_args])
        assert output_paths(spec, baseline, baseline) == (spec.baseline, spec.report)
        # One differing run parameter is enough to stop clobbering them...
        tiny = parser.parse_args([name, *TINY[name]])
        assert output_paths(spec, tiny, baseline) == ("", "")
        # ...and an explicit path always wins, '' included.
        explicit = parser.parse_args([name, *spec.baseline_args, "--output", "", "--report", "f"])
        assert output_paths(spec, explicit, baseline) == ("", "f")

    @pytest.mark.parametrize("name", list(SPECS))
    def test_a_plain_tiny_run_leaves_the_committed_files_alone(self, name, monkeypatch, capsys):
        """From the repo root, without ``--output``: nothing tracked may change
        (the root conftest also fails the session on a ``git status`` change)."""
        tracked = [ROOT / path for spec in SPECS.values() for path in (spec.baseline, spec.report)]
        before = [path.read_bytes() for path in tracked]
        monkeypatch.chdir(ROOT)
        assert main([name, *TINY[name]]) == 0
        assert "wrote" not in capsys.readouterr().out
        assert [path.read_bytes() for path in tracked] == before

    def test_saturate_compare_loops_writes_figure_9b(self, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["saturate", *TINY["saturate"], "--output", "", "--report", ""]
        assert main([*argv, "--compare-loops", "--loop-report", "fig9b.txt"]) == 0
        assert (tmp_path / "fig9b.txt").read_text().startswith("Figure 9b")
        assert "Figure 9b" in capsys.readouterr().out


class TestComplexSubcommand:
    def test_figure_2_lists_all_thirteen_queries(self, capsys):
        assert main(["complex", "--engines", "nativelinked-1.9", "--scale", "0.05"]) == 0
        table = capsys.readouterr().out
        assert "Figure 2" in table
        assert len(COMPLEX_QUERIES) == 13
        for query_name in COMPLEX_QUERIES:
            assert f"\n{query_name} " in table


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
