#!/usr/bin/env python
"""LUBM walkthrough: generate the benchmark, compare engines, inspect scaling.

Reproduces (at laptop scale) the core of the paper's Section 7.2: the 14 LUBM
queries are answered by TurboHOM++ and the three baseline engines, and the
dataset is generated at two scale factors so the constant- vs
increasing-solution query behaviour is visible.

Run with:  python examples/lubm_benchmark.py  [universities ...]
"""

import sys

from repro.bench.harness import compare_engines, make_engines, timing_table
from repro.datasets import load_lubm
from repro.datasets.lubm.queries import CONSTANT_SOLUTION_QUERIES, INCREASING_SOLUTION_QUERIES


def main(scales) -> None:
    previous_counts = {}
    for scale in scales:
        dataset = load_lubm(universities=scale)
        print(f"\n=== {dataset.name}: {dataset.original_triples} original triples, "
              f"{dataset.total_triples} after inference ===")

        engines = make_engines()
        try:
            timings = compare_engines(dataset, engines, repeats=3)
        finally:
            # TurboHOM++ runs on shard processes when REPRO_EXECUTION_WORKERS
            # asks for them; the baselines hold nothing to release.
            for engine in engines:
                close = getattr(engine, "close", None)
                if close is not None:
                    close()
        print(timing_table(f"elapsed time in {dataset.name} [ms]", timings, engines).to_text())

        # Show which queries have scale-independent answers.
        counts = {qid: t[0].solutions for qid, t in timings.items()}
        if previous_counts:
            constant = [q for q in CONSTANT_SOLUTION_QUERIES if counts[q] == previous_counts[q]]
            growing = [q for q in INCREASING_SOLUTION_QUERIES if counts[q] > previous_counts[q]]
            print(f"\nconstant-solution queries (same answer as previous scale): {constant}")
            print(f"increasing-solution queries (answer grew): {growing}")
        previous_counts = counts


if __name__ == "__main__":
    requested = [int(arg) for arg in sys.argv[1:]] or [1, 2]
    main(requested)
