"""Property sweep: process shards ≡ the naive oracle.

The hard part of multi-process sharding is keeping it semantically
identical to the serial path under skewed, adversarial inputs.  This sweep
generates random *multigraph* workloads — duplicate query edges, predicate
variables (blank edge labels), multi-labelled vertices — and asserts that
``ProcessShardPool`` and the :class:`GenericMatcher`
oracle return the same solutions **as unordered multisets** (a Counter
comparison also catches duplicate or dropped emissions, which plain set
comparison would mask), in both isomorphism and homomorphism modes.

Seeds that exposed historical bugs (1597: the degree-filter multigraph
over-pruning) are pinned deterministically on top of the Hypothesis sweep.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching.config import MatchConfig
from repro.matching.generic import GenericMatcher
from repro.matching.process_shard import ProcessShardPool
from repro.graph.labeled_graph import GraphBuilder
from repro.graph.query_graph import QueryGraph

#: Pinned regression seeds: 1597 is the historical degree-filter loss, the
#: others exercise dense multigraphs and predicate variables.
REGRESSION_SEEDS = (1597, 5, 977, 4242)

MODES = {
    "isomorphism": MatchConfig.isomorphism,
    "homomorphism": MatchConfig.turbo_hom_pp,
}


def random_multigraph(rng: random.Random, vertices: int = 18, edges: int = 44):
    """A labelled multigraph with multi-labelled vertices and self-loops."""
    builder = GraphBuilder()
    for vertex in range(vertices):
        builder.add_vertex(vertex, rng.sample((0, 1, 2), rng.randint(1, 2)))
    for _ in range(edges):
        builder.add_edge(
            rng.randrange(vertices), rng.choice((0, 1)), rng.randrange(vertices)
        )
    return builder.build()


def random_multigraph_query(rng: random.Random, size: int = 3) -> QueryGraph:
    """A connected query with duplicate edges and predicate variables.

    Edge labels are drawn from {0, 1, None}: ``None`` is a blank label
    (predicate-variable semantics — any edge label matches).  One existing
    edge is duplicated verbatim, making the query a true multigraph.
    """
    query = QueryGraph()
    indexes = []
    for i in range(size):
        labels = frozenset(rng.sample((0, 1, 2), rng.randint(0, 1)))
        indexes.append(query.add_vertex(f"v{i}", labels))
    label_pool = (0, 1, None)
    for i in range(1, size):
        query.add_edge(indexes[i - 1], indexes[i], rng.choice(label_pool))
    # One extra (possibly non-tree) edge and one verbatim duplicate edge.
    query.add_edge(
        indexes[rng.randrange(size)], indexes[rng.randrange(size)], rng.choice(label_pool)
    )
    victim = query.edges[rng.randrange(len(query.edges))]
    query.add_edge(victim.source, victim.target, victim.label)
    return query


def solution_multiset(solutions) -> Counter:
    return Counter(tuple(solution) for solution in solutions)


def assert_shards_match_oracle(seed: int, mode_name: str) -> None:
    rng = random.Random(seed)
    graph = random_multigraph(rng)
    query = random_multigraph_query(rng)
    config = MODES[mode_name]()

    oracle = solution_multiset(GenericMatcher(graph, config).match(query))
    # The oracle cannot emit duplicates; neither may the shard pool.
    assert all(count == 1 for count in oracle.values())

    processes = ProcessShardPool(graph, config, workers=2, chunk_size=2)
    try:
        process_solutions, _ = processes.match(query)
        assert solution_multiset(process_solutions) == oracle, f"processes != oracle (seed {seed})"
    finally:
        processes.close()


class TestShardParity:
    @pytest.mark.parametrize("mode_name", sorted(MODES))
    @pytest.mark.parametrize("seed", REGRESSION_SEEDS)
    def test_pinned_regression_seeds(self, seed, mode_name):
        assert_shards_match_oracle(seed, mode_name)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_homomorphism_sweep(self, seed):
        assert_shards_match_oracle(seed, "homomorphism")

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_isomorphism_sweep(self, seed):
        assert_shards_match_oracle(seed, "isomorphism")


class TestShardParityWithLimits:
    """Early termination must deliver exactly-k *valid* solutions."""

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_limited_results_are_a_sub_multiset(self, seed):
        rng = random.Random(seed)
        graph = random_multigraph(rng)
        query = random_multigraph_query(rng)
        config = MatchConfig.turbo_hom_pp()
        oracle = solution_multiset(GenericMatcher(graph, config).match(query))
        total = sum(oracle.values())
        if total < 2:
            return
        limit = max(1, total // 2)
        pool = ProcessShardPool(graph, config, workers=2, chunk_size=2)
        try:
            limited, stats = pool.match(query, max_results=limit)
            assert len(limited) == limit
            assert stats.solutions == limit
            assert solution_multiset(limited) <= oracle
        finally:
            pool.close()
