#!/usr/bin/env python3
"""Compare two sets of spine runs, one row per workload × metric.

    python3 benchmarks/spine/compare.py A.jsonl B.jsonl

Each file holds the records ``run.py --out`` appended (any number of seeds
and workloads).  A is the parent, B the change — or two sets of the same
commit, to see whether the benchmark repeats.  Every end-to-end metric gets
both medians with their quartiles, the bound ``BENCHMARK.json`` fixes, and
a verdict:

* ``unresolved`` — the quartile distance of either side, as a share of its
  median, is wider than the bound, so the bound cannot be checked (the
  spread of ``setup_s`` is exempt, as in the driver);
* ``regressed``  — B's median is worse than A's by more than the bound;
* ``improved``   — B's median is better than A's by more than the distance
  between either side's own quartiles (a claim additionally needs paired
  runs, see the choosing-metrics guide);
* ``unchanged``  — anything else.

Per-layer metrics have no bound; they are listed with medians only.  The
exit code is 1 when any row is ``regressed`` or ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

from spine_workloads import WORKLOADS

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(path: str) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) → values`` over every record of a file."""
    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            for name, metric in record["metrics"].items():
                values[(record["workload"], name)].append(metric["value"])
    return values


def summary(values: List[float]) -> Tuple[float, float, float]:
    """Median and the first and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(a: List[float], b: List[float], better: str, bound: float, name: str) -> str:
    a_med, a_q1, a_q3 = summary(a)
    b_med, b_q1, b_q3 = summary(b)
    if name != "setup_s" and max(
        (a_q3 - a_q1) / abs(a_med), (b_q3 - b_q1) / abs(b_med)
    ) > bound:
        return "unresolved"
    worse = (b_med - a_med) / abs(a_med) * (1 if better == "lower" else -1)
    if worse > bound:
        return "regressed"
    if -worse * abs(a_med) > max(a_q3 - a_q1, b_q3 - b_q1):
        return "improved"
    return "unchanged"


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    a, b = load(sys.argv[1]), load(sys.argv[2])
    spec = json.loads(BENCHMARK.read_text())
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    order = {m["name"]: i for i, m in enumerate(spec["end_to_end"] + spec["per_layer"])}
    workloads = list(WORKLOADS)  # all seven: BENCHMARK.json leaves the ungated out
    bad = 0
    print(f"{'workload':15s} {'metric':30s} {'A median [q1, q3]':>36s} "
          f"{'B median [q1, q3]':>36s} {'bound':>6s} {'B vs A':>8s}  verdict")
    for key in sorted(
        set(a) & set(b), key=lambda k: (workloads.index(k[0]), order.get(k[1], 1 << 30))
    ):
        workload, name = key
        cells = []
        for values in (a[key], b[key]):
            med, q1, q3 = summary(values)
            cells.append(f"{med:12.4f} [{q1:10.4f},{q3:10.4f}]")
        a_med, b_med = summary(a[key])[0], summary(b[key])[0]
        change = f"{(b_med - a_med) / abs(a_med):+8.1%}" if a_med else f"{'':>8s}"
        if name in bounded:
            metric = bounded[name]
            outcome = verdict(a[key], b[key], metric["better"], metric["bound"], name)
            bad += outcome in ("regressed", "unresolved")
            limit = f"{metric['bound']:6.2f}"
        else:
            outcome, limit = "-", f"{'':>6s}"
        print(f"{workload:15s} {name:30s} {cells[0]:>36s} {cells[1]:>36s} "
              f"{limit} {change}  {outcome} (n={len(a[key])},{len(b[key])})")
    print(f"{bad} row(s) regressed or unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
