"""Tier-1 must leave the working tree exactly as it found it.

Tests write figures, payloads and caches; everything they write is either
git-ignored or byte-identical to what is tracked.  This hook makes that a
checked property: ``git status --porcelain`` is compared before and after
the session, and any new entry fails the run.  Outside a git checkout the
check is skipped.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

import pytest

_ROOT = Path(__file__).parent
_BEFORE = pytest.StashKey[object]()


def _tree_state() -> str | None:
    try:
        result = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=_ROOT,
            capture_output=True,
            text=True,
            timeout=60,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout if result.returncode == 0 else None


def pytest_sessionstart(session: pytest.Session) -> None:
    session.config.stash[_BEFORE] = _tree_state()


def pytest_sessionfinish(session: pytest.Session) -> None:
    before = session.config.stash[_BEFORE]
    after = _tree_state()
    if before is None or after is None:
        return
    dirtied = sorted(set(after.splitlines()) - set(before.splitlines()))
    if not dirtied:
        return
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    reporter.ensure_newline()
    reporter.write_line("the test run dirtied the working tree:", red=True)
    for line in dirtied:
        reporter.write_line(f"  {line}", red=True)
    session.exitstatus = pytest.ExitCode.TESTS_FAILED

