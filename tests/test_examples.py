"""Smoke test: every shipped example still runs against the public API.

Nothing else imports ``examples/``, so a public name removed from
``repro`` would otherwise first fail on a reader's machine.
"""

from __future__ import annotations

import multiprocessing
import os
import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs_and_leaves_nothing_behind(script, monkeypatch, capsys):
    # As a reader runs it: no arguments, no environment overrides.
    monkeypatch.setattr(sys, "argv", [str(script)])
    monkeypatch.delenv("REPRO_EXECUTION_WORKERS", raising=False)
    children_before = set(multiprocessing.active_children())
    segments_before = set(os.listdir("/dev/shm"))
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.strip(), "the example printed nothing"
    assert set(multiprocessing.active_children()) <= children_before
    assert set(os.listdir("/dev/shm")) <= segments_before
