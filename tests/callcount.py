"""Counting interpreter work without a clock.

The cost model books a primitive's *logical* work; the guards built on this
module (``storage/test_write_path_scaling.py``,
``engines/test_read_path_scaling.py``) assert that the interpreter's work
for the same primitive does not grow with anything the model does not book.
They compare ``sys.setprofile`` call events between two runs of the same
code, so they are deterministic on any machine.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from types import CodeType
from typing import Any, Callable

import repro

_PACKAGE = os.path.dirname(repro.__file__)


def python_call_profile(fn: Callable[[], Any]) -> Counter[CodeType]:
    """Call events of the package's own Python functions while ``fn`` runs,
    per code object (a generator counts one event per resume).

    C calls are not counted (a ``bisect`` per tree level is booked as a
    probe, not host overhead), nor are frames from outside the package (a
    garbage-collection callback another library registered can fire
    anywhere).
    """
    calls: Counter[CodeType] = Counter()

    def hook(frame: Any, event: str, _arg: Any) -> None:
        if event == "call" and frame.f_code.co_filename.startswith(_PACKAGE):
            calls[frame.f_code] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


def python_calls(fn: Callable[[], Any]) -> int:
    """Total of :func:`python_call_profile`."""
    return sum(python_call_profile(fn).values())
