"""Smoke test: every shipped example still runs against the public API.

Nothing else imports ``examples/``, so a public name removed from
``repro`` would otherwise first fail on a reader's machine.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

from repro.matching.process_shard import ProcessShardPool

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs_and_leaves_nothing_behind(script, monkeypatch, capsys, new_leaks):
    # As a reader runs it: no arguments.  Environment overrides stay, so
    # under REPRO_EXECUTION_WORKERS=2 every engine runs on shard processes.
    monkeypatch.setattr(sys, "argv", [str(script)])
    # A pool dropped without close() is still reaped by its GC finalizer
    # once main() returns, so the process and segment checks alone cannot
    # see it: every pool an example starts must also be closed explicitly.
    opened, closed = [], set()
    real_init, real_close = ProcessShardPool.__init__, ProcessShardPool.close

    def tracking_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        opened.append(id(self))

    def tracking_close(self):
        closed.add(id(self))
        real_close(self)

    monkeypatch.setattr(ProcessShardPool, "__init__", tracking_init)
    monkeypatch.setattr(ProcessShardPool, "close", tracking_close)
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.strip(), "the example printed nothing"
    assert set(opened) <= closed, "a shard pool was left to the garbage collector"
    assert not new_leaks()
