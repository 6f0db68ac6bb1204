"""Examples smoke: every ``examples/*.py`` runs to completion, tree untouched.

The examples import the public query, runner, suite and summary surfaces, so
a rename there breaks them before any user notices.  Each script runs in its
own interpreter, at ``--scale 0.05`` where it takes one (about 3 s for all
four), and must exit 0 without adding or changing a file in the checkout.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).parent.parent
_EXAMPLES = sorted((_ROOT / "examples").glob("*.py"))


def _tree_state() -> str | None:
    try:
        result = subprocess.run(
            ["git", "status", "--porcelain"], cwd=_ROOT, capture_output=True, text=True, timeout=60
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout if result.returncode == 0 else None


def test_there_are_four_examples():
    assert [path.name for path in _EXAMPLES] == [
        "compare_engines.py", "index_effect.py", "quickstart.py", "social_network_analysis.py",
    ]


@pytest.mark.parametrize("script", _EXAMPLES, ids=lambda path: path.stem)
def test_example_runs_and_leaves_the_tree_clean(script):
    command = [sys.executable, str(script)]
    if "--scale" in script.read_text():
        command += ["--scale", "0.05"]
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    before = _tree_state()
    completed = subprocess.run(
        command, cwd=_ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip()
    assert _tree_state() == before
