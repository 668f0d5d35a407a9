"""The names in BENCHMARK.json, the runner's registry and the README agree.

Runs no workload: it only reads the three places a later issue may cite a
workload or a metric from, so a rename in one of them fails here instead of
silently forking the yardstick.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spine_workloads as registry  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
README = (HERE / "README.md").read_text()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_has_exactly_the_contract_keys():
    assert sorted(SPEC) == sorted(
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    )
    assert SPEC["paths"] == ["benchmarks/spine"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


def test_workloads_match_the_registry():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (name, why) for name, why in registry.WORKLOADS.items() if name not in registry.UNGATED
    ]
    assert set(registry.UNGATED) < set(registry.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


def test_metrics_match_the_registry():
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]
    ] == registry.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == registry.PER_LAYER
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_names_and_units_are_well_formed_and_unique():
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names), names
    units = [m["unit"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert all(UNIT.fullmatch(unit) for unit in units), units


def test_readme_names_every_workload_and_metric():
    for name in registry.WORKLOADS:
        assert f"`{name}`" in README, name
    for name, *_ in registry.END_TO_END + registry.PER_LAYER:
        # query.Q1.ms_p50 ... query.Q14.ms_p50 are documented as one family.
        documented = "query.<id>.ms_p50" if name.startswith("query.") else name
        assert f"`{documented}`" in README, name


def test_sizes_cover_both_modes():
    assert set(registry.SIZES) == {"full", "quick"}
