"""End-to-end matcher tests: Figure 1 semantics, TurboMatcher vs the generic
oracle (including property-based random graphs), optimizations equivalence,
and parallel matching."""

import random
from contextlib import closing

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.labeled_graph import GraphBuilder
from repro.graph.query_graph import QueryGraph
from repro.matching.config import MatchConfig
from repro.matching.generic import GenericMatcher
from repro.matching.process_shard import ProcessShardPool
from repro.matching.turbo import TurboMatcher, turbo_hom, turbo_hom_pp, turbo_iso

# Labels shared with the conftest fixtures (Figure 1 of the paper).
LABEL_A, LABEL_B, LABEL_C = 0, 1, 2
EDGE_A, EDGE_B, EDGE_C = 0, 1, 2


def as_sets(solutions):
    return {tuple(solution) for solution in solutions}


class TestFigure1Semantics:
    """The paper's Figure 1: one isomorphism, three e-graph homomorphisms."""

    def test_subgraph_isomorphism_has_one_solution(self, figure1_data_graph, figure1_query_graph):
        matcher = TurboMatcher(figure1_data_graph, MatchConfig.isomorphism())
        solutions = matcher.match(figure1_query_graph)
        assert as_sets(solutions) == {(0, 1, 2, 3, 4)}

    def test_homomorphism_has_three_solutions(self, figure1_data_graph, figure1_query_graph):
        matcher = TurboMatcher(figure1_data_graph, MatchConfig.turbo_hom_pp())
        solutions = matcher.match(figure1_query_graph)
        assert as_sets(solutions) == {(0, 1, 2, 3, 4), (2, 3, 2, 3, 5), (2, 1, 2, 3, 5)}

    def test_generic_matcher_agrees_with_figure1(self, figure1_data_graph, figure1_query_graph):
        hom = GenericMatcher(figure1_data_graph, MatchConfig.turbo_hom_pp())
        iso = GenericMatcher(figure1_data_graph, MatchConfig.isomorphism())
        assert len(hom.match(figure1_query_graph)) == 3
        assert len(iso.match(figure1_query_graph)) == 1

    def test_edge_label_mapping_is_recoverable(self, figure1_data_graph, figure1_query_graph):
        # The e-graph homomorphism's Me: every matched query edge maps to the
        # data edge's label; verify through edge_labels_between.
        matcher = TurboMatcher(figure1_data_graph, MatchConfig.turbo_hom_pp())
        for solution in matcher.match(figure1_query_graph):
            for edge in figure1_query_graph.edges:
                labels = figure1_data_graph.edge_labels_between(
                    solution[edge.source], solution[edge.target]
                )
                assert edge.label in labels


class TestMatcherBasics:
    def test_single_vertex_query(self, figure1_data_graph):
        query = QueryGraph()
        query.add_vertex("x", frozenset((LABEL_C,)))
        solutions = turbo_hom_pp(figure1_data_graph).match(query)
        assert as_sets(solutions) == {(4,), (5,)}

    def test_single_vertex_query_with_blank_label(self, figure1_data_graph):
        query = QueryGraph()
        query.add_vertex("x")
        assert len(turbo_hom_pp(figure1_data_graph).match(query)) == 6

    def test_empty_query_graph_yields_one_empty_solution(self, figure1_data_graph):
        assert turbo_hom_pp(figure1_data_graph).match(QueryGraph()) == [[]]

    def test_disconnected_query_rejected(self, figure1_data_graph):
        query = QueryGraph()
        query.add_vertex("a", frozenset((LABEL_A,)))
        query.add_vertex("b", frozenset((LABEL_B,)))
        with pytest.raises(ValueError):
            turbo_hom_pp(figure1_data_graph).match(query)

    def test_vertex_id_attribute_pins_the_match(self, figure1_data_graph):
        query = QueryGraph()
        a = query.add_vertex("a", vertex_id=2, is_variable=False)
        b = query.add_vertex("b", frozenset((LABEL_B,)))
        query.add_edge(a, b, EDGE_A)
        solutions = turbo_hom_pp(figure1_data_graph).match(query)
        assert as_sets(solutions) == {(2, 1), (2, 3)}

    def test_unsatisfiable_label_returns_nothing(self, figure1_data_graph):
        query = QueryGraph()
        a = query.add_vertex("a", frozenset((99,)))
        b = query.add_vertex("b")
        query.add_edge(a, b, EDGE_A)
        assert turbo_hom_pp(figure1_data_graph).match(query) == []

    def test_blank_edge_label_matches_any_predicate(self, figure1_data_graph):
        query = QueryGraph()
        a = query.add_vertex("a", vertex_id=3, is_variable=False)
        b = query.add_vertex("b")
        query.add_edge(a, b, None, "p")
        solutions = turbo_hom_pp(figure1_data_graph).match(query)
        assert as_sets(solutions) == {(3, 4), (3, 5)}

    def test_max_results_stops_early(self, figure1_data_graph):
        query = QueryGraph()
        query.add_vertex("x")
        solutions = turbo_hom_pp(figure1_data_graph).match(query, max_results=2)
        assert len(solutions) == 2

    def test_count_matches_len(self, figure1_data_graph, figure1_query_graph):
        matcher = turbo_hom_pp(figure1_data_graph)
        assert matcher.count(figure1_query_graph) == len(matcher.match(figure1_query_graph))

    def test_statistics_are_populated(self, figure1_data_graph, figure1_query_graph):
        matcher = turbo_hom_pp(figure1_data_graph)
        matcher.match(figure1_query_graph)
        stats = matcher.last_statistics
        assert stats.solutions == 3
        assert stats.candidate_regions >= 1
        assert stats.search.recursions > 0

    def test_self_loop_pattern(self):
        builder = GraphBuilder()
        builder.add_vertex(0, (LABEL_A,))
        builder.add_vertex(1, (LABEL_A,))
        builder.add_edge(0, EDGE_A, 0)   # self loop
        builder.add_edge(0, EDGE_A, 1)
        graph = builder.build()
        query = QueryGraph()
        x = query.add_vertex("x", frozenset((LABEL_A,)))
        query.add_edge(x, x, EDGE_A)
        solutions = turbo_hom_pp(graph).match(query)
        assert as_sets(solutions) == {(0,)}


class TestOptimizationEquivalence:
    """Every optimization combination must return exactly the same solutions."""

    CONFIGS = {
        "all": MatchConfig.turbo_hom_pp(),
        "no-int": MatchConfig.turbo_hom_pp().without("INT"),
        "no-reuse": MatchConfig.turbo_hom_pp().without("REUSE"),
        "with-nlf": MatchConfig.turbo_hom_pp().without("NLF"),
        "with-deg": MatchConfig.turbo_hom_pp().without("DEG"),
        "none": MatchConfig.no_optimizations(),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_same_solutions_figure1(self, figure1_data_graph, figure1_query_graph, name):
        expected = as_sets(
            GenericMatcher(figure1_data_graph, MatchConfig.turbo_hom_pp()).match(figure1_query_graph)
        )
        matcher = TurboMatcher(figure1_data_graph, self.CONFIGS[name])
        assert as_sets(matcher.match(figure1_query_graph)) == expected


def random_labeled_graph(rng: random.Random, vertices: int = 14, edges: int = 30):
    builder = GraphBuilder()
    for vertex in range(vertices):
        labels = rng.sample((LABEL_A, LABEL_B, LABEL_C), rng.randint(1, 2))
        builder.add_vertex(vertex, labels)
    for _ in range(edges):
        builder.add_edge(
            rng.randrange(vertices), rng.choice((EDGE_A, EDGE_B)), rng.randrange(vertices)
        )
    return builder.build()


def random_query(rng: random.Random, size: int = 3):
    query = QueryGraph()
    indexes = []
    for i in range(size):
        labels = frozenset(rng.sample((LABEL_A, LABEL_B, LABEL_C), rng.randint(0, 1)))
        indexes.append(query.add_vertex(f"v{i}", labels))
    # Chain to keep it connected, plus one extra random (possibly non-tree) edge.
    for i in range(1, size):
        query.add_edge(indexes[i - 1], indexes[i], rng.choice((EDGE_A, EDGE_B)))
    query.add_edge(
        indexes[rng.randrange(size)], indexes[rng.randrange(size)], rng.choice((EDGE_A, EDGE_B))
    )
    return query


class TestAgainstOracle:
    """TurboMatcher must agree with the naive backtracking oracle."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_homomorphism_counts_match_oracle(self, seed):
        rng = random.Random(seed)
        graph = random_labeled_graph(rng)
        query = random_query(rng)
        turbo = TurboMatcher(graph, MatchConfig.turbo_hom_pp())
        oracle = GenericMatcher(graph, MatchConfig.turbo_hom_pp())
        assert as_sets(turbo.match(query)) == as_sets(oracle.match(query))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_isomorphism_counts_match_oracle(self, seed):
        rng = random.Random(seed)
        graph = random_labeled_graph(rng)
        query = random_query(rng)
        turbo = TurboMatcher(graph, MatchConfig.isomorphism())
        oracle = GenericMatcher(graph, MatchConfig.isomorphism())
        assert as_sets(turbo.match(query)) == as_sets(oracle.match(query))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_isomorphisms_are_a_subset_of_homomorphisms(self, seed):
        rng = random.Random(seed)
        graph = random_labeled_graph(rng)
        query = random_query(rng)
        iso = as_sets(TurboMatcher(graph, MatchConfig.isomorphism()).match(query))
        hom = as_sets(TurboMatcher(graph, MatchConfig.turbo_hom_pp()).match(query))
        assert iso <= hom
        # Injectivity really holds on the isomorphism side.
        assert all(len(set(solution)) == len(solution) for solution in iso)


class TestAgainstOracleLarger:
    """Oracle parity beyond toy sizes: 60 vertices / 240 edges, query size 4."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_homomorphism_matches_oracle_on_larger_graphs(self, seed):
        rng = random.Random(seed)
        graph = random_labeled_graph(rng, vertices=60, edges=240)
        query = random_query(rng, size=4)
        turbo = TurboMatcher(graph, MatchConfig.turbo_hom_pp())
        oracle = GenericMatcher(graph, MatchConfig.turbo_hom_pp())
        assert as_sets(turbo.match(query)) == as_sets(oracle.match(query))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_isomorphism_matches_oracle_on_larger_graphs(self, seed):
        rng = random.Random(seed)
        graph = random_labeled_graph(rng, vertices=60, edges=240)
        query = random_query(rng, size=4)
        turbo = TurboMatcher(graph, MatchConfig.isomorphism())
        oracle = GenericMatcher(graph, MatchConfig.isomorphism())
        assert as_sets(turbo.match(query)) == as_sets(oracle.match(query))


class TestIterMatch:
    """The streaming generator API must agree with the materializing one."""

    CONFIGS = ["isomorphism", "homomorphism_baseline", "turbo_hom_pp"]

    @pytest.mark.parametrize("factory", CONFIGS)
    def test_iter_match_yields_identical_solution_set(self, factory):
        rng = random.Random(1597)
        graph = random_labeled_graph(rng)
        query = random_query(rng)
        config = getattr(MatchConfig, factory)()
        matcher = TurboMatcher(graph, config)
        assert as_sets(matcher.iter_match(query)) == as_sets(matcher.match(query))

    def test_iter_match_is_lazy(self, figure1_data_graph, figure1_query_graph):
        matcher = turbo_hom_pp(figure1_data_graph)
        iterator = matcher.iter_match(figure1_query_graph)
        first = next(iterator)
        assert len(first) == figure1_query_graph.vertex_count()
        # Abandoning the generator mid-stream must be safe.
        iterator.close()

    def test_iter_match_respects_max_results(self, figure1_data_graph, figure1_query_graph):
        matcher = turbo_hom_pp(figure1_data_graph)
        assert len(list(matcher.iter_match(figure1_query_graph, max_results=2))) == 2

    def test_parallel_iter_match_equals_match(self):
        rng = random.Random(5)
        graph = random_labeled_graph(rng, vertices=60, edges=240)
        query = random_query(rng, size=3)
        pool = ProcessShardPool(graph, MatchConfig.turbo_hom_pp(), workers=4, chunk_size=2)
        with closing(pool) as parallel:
            streamed = as_sets(parallel.iter_match(query))
            assert parallel.last_stats is not None
            assert parallel.last_stats.solutions == len(streamed)
            solutions, _ = parallel.match(query)
            assert streamed == as_sets(solutions)


class TestProcessShardPool:
    @pytest.mark.parametrize("max_results", [None, 1, 300])
    def test_parallel_on_larger_random_graph(self, max_results):
        """Answers match, and every chunk a worker claimed is counted, also
        one it left mid-way because its own limit or the consumer's stop
        ended the job."""
        rng = random.Random(3)
        graph = random_labeled_graph(rng, vertices=80, edges=800)
        query = random_query(rng, size=3)
        sequential = TurboMatcher(graph, MatchConfig.turbo_hom_pp()).match(query)
        assert len(sequential) > 300  # ~28 rows per region, 30 regions
        pool = ProcessShardPool(graph, MatchConfig.turbo_hom_pp(), workers=2, chunk_size=2)
        with closing(pool) as parallel:
            solutions, stats = parallel.match(query, max_results=max_results)
        if max_results is None:
            assert as_sets(solutions) == as_sets(sequential)
        else:
            assert len(solutions) == max_results
            assert as_sets(solutions) <= as_sets(sequential)
        assert stats.workers == 2
        assert stats.total_work > 0
        assert sum(stats.per_chunk_work) == stats.total_work

    def test_simulated_speedup_bounds(self):
        rng = random.Random(9)
        graph = random_labeled_graph(rng, vertices=60, edges=240)
        query = random_query(rng, size=3)
        pool = ProcessShardPool(graph, MatchConfig.turbo_hom_pp(), workers=4, chunk_size=1)
        with closing(pool) as parallel:
            _, stats = parallel.match(query)
        speedup = stats.simulated_speedup(4)
        assert 1.0 <= speedup <= 4.0

    def test_single_worker_falls_back_to_sequential(self, figure1_data_graph, figure1_query_graph):
        parallel = ProcessShardPool(figure1_data_graph, MatchConfig.turbo_hom_pp(), workers=1)
        solutions, stats = parallel.match(figure1_query_graph)
        assert stats.workers == 1
        assert len(solutions) == 3
        assert not parallel._processes  # no worker was ever started

    def test_config_max_results_honored_across_worker_counts(self):
        from dataclasses import replace

        rng = random.Random(2)
        graph = random_labeled_graph(rng, vertices=60, edges=240)
        query = random_query(rng, size=3)
        total = len(TurboMatcher(graph, MatchConfig.turbo_hom_pp()).match(query))
        assert total > 2
        config = replace(MatchConfig.turbo_hom_pp(), max_results=2)
        zero = replace(MatchConfig.turbo_hom_pp(), max_results=0)
        for workers in (1, 4):
            for limited, expected in ((config, 2), (zero, 0)):
                pool = ProcessShardPool(graph, limited, workers=workers, chunk_size=2)
                with closing(pool) as parallel:
                    solutions, _ = parallel.match(query)
                assert len(solutions) == expected
