"""Labeled graph storage: adjacency grouping, label index, predicate index."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import GraphError
from repro.graph.labeled_graph import GraphBuilder, LabeledGraph

A, B, C = 0, 1, 2
E1, E2 = 0, 1


def run(window):
    """The sorted vertices a ``(base, lo, hi)`` posting window views."""
    base, lo, hi = window
    return list(base[lo:hi])


@pytest.fixture
def graph():
    builder = GraphBuilder()
    builder.add_vertex(0, (A,))
    builder.add_vertex(1, (B,))
    builder.add_vertex(2, (B, C))
    builder.add_vertex(3, (C,))
    builder.add_edge(0, E1, 1)
    builder.add_edge(0, E1, 2)
    builder.add_edge(0, E2, 3)
    builder.add_edge(1, E1, 2)
    builder.add_edge(2, E2, 3)
    return builder.build()


class TestBuilder:
    def test_counts(self, graph):
        assert graph.vertex_count == 4
        assert graph.edge_count == 5

    def test_negative_vertex_rejected(self):
        with pytest.raises(GraphError):
            GraphBuilder().add_vertex(-1)

    def test_duplicate_edges_collapse(self):
        builder = GraphBuilder()
        builder.add_edge(0, E1, 1)
        builder.add_edge(0, E1, 1)
        graph = builder.build()
        assert graph.edge_count == 1
        assert run(graph.out_window(0, E1)) == [1]

    def test_isolated_vertices_allowed(self):
        builder = GraphBuilder()
        builder.add_vertex(5, (A,))
        graph = builder.build()
        assert graph.vertex_count == 6
        assert graph.vertex_labels(5) == frozenset((A,))
        assert graph.vertex_labels(0) == frozenset()


class TestAdjacency:
    def test_out_window_by_edge_label(self, graph):
        assert run(graph.out_window(0, E1)) == [1, 2]
        assert run(graph.out_window(0, E2)) == [3]
        assert run(graph.out_window(3, E1)) == []

    def test_out_window_any_label(self, graph):
        assert run(graph.out_window(0)) == [1, 2, 3]

    def test_in_window(self, graph):
        assert run(graph.in_window(2, E1)) == [0, 1]
        assert run(graph.in_window(3)) == [0, 2]

    def test_neighbors_by_type_single_label(self, graph):
        assert run(graph.neighbors_by_type_window(0, E1, frozenset((B,)))) == [1, 2]
        assert run(graph.neighbors_by_type_window(0, E1, frozenset((C,)))) == [2]

    def test_neighbors_by_type_multiple_labels_intersect(self, graph):
        assert run(graph.neighbors_by_type_window(0, E1, frozenset((B, C)))) == [2]

    def test_neighbors_by_type_blank_vertex_label(self, graph):
        assert run(graph.neighbors_by_type_window(0, E1, frozenset())) == [1, 2]

    def test_neighbors_by_type_blank_edge_label(self, graph):
        assert run(graph.neighbors_by_type_window(0, None, frozenset((C,)))) == [2, 3]
        assert run(graph.neighbors_by_type_window(0, None, frozenset())) == [1, 2, 3]

    def test_neighbors_by_type_incoming(self, graph):
        window = graph.neighbors_by_type_window(3, E2, frozenset((A,)), outgoing=False)
        assert run(window) == [0]

    def test_has_edge(self, graph):
        assert graph.has_edge(0, 1, E1)
        assert not graph.has_edge(1, 0, E1)
        assert graph.has_edge(0, 3)
        assert not graph.has_edge(0, 3, E1)

    def test_edge_labels_between(self, graph):
        assert graph.edge_labels_between(0, 3) == [E2]
        assert graph.edge_labels_between(3, 0) == []

    def test_degree(self, graph):
        assert graph.degree(0) == 3
        assert graph.degree(2) == 3  # two in, one out

    def test_count_neighbors_by_type(self, graph):
        assert graph.count_neighbors_by_type(0, E1, frozenset((B,))) == 2
        assert graph.count_neighbors_by_type(0, E1, frozenset((C,))) == 1
        assert graph.count_neighbors_by_type(0, E2, frozenset((C,))) == 1
        assert graph.count_neighbors_by_type(0, E2, frozenset((B,))) == 0
        assert graph.count_neighbors_by_type(0, None, frozenset((C,))) == 2
        assert graph.count_neighbors_by_type(2, E1, frozenset((A,)), outgoing=False) == 1

    def test_iter_edges(self, graph):
        assert sorted(graph.iter_edges()) == sorted(
            [(0, E1, 1), (0, E1, 2), (0, E2, 3), (1, E1, 2), (2, E2, 3)]
        )


class TestLabelAndPredicateIndexes:
    def test_inverse_vertex_label_list(self, graph):
        assert graph.vertices_with_labels(frozenset((B,))) == [1, 2]
        assert graph.vertices_with_labels(frozenset((C,))) == [2, 3]
        assert graph.vertices_with_labels(frozenset((99,))) == []

    def test_vertices_with_multiple_labels(self, graph):
        assert graph.vertices_with_labels(frozenset((B, C))) == [2]
        assert graph.vertices_with_labels(frozenset()) == [0, 1, 2, 3]

    def test_label_frequency(self, graph):
        assert graph.label_frequency(frozenset((B,))) == 2
        assert graph.label_frequency(frozenset((B, C))) == 1
        assert graph.label_frequency(frozenset()) == 4

    def test_predicate_index(self, graph):
        assert graph.predicate_subjects(E1) == [0, 1]
        assert graph.predicate_objects(E1) == [1, 2]
        assert graph.predicate_subjects(99) == []

    def test_stats(self, graph):
        stats = graph.stats()
        assert stats == {"vertices": 4, "edges": 5, "vertex_labels": 3, "edge_labels": 2}

    def test_mismatched_labels_length_rejected(self):
        with pytest.raises(GraphError):
            LabeledGraph(2, [frozenset()], [])

    @pytest.mark.parametrize("edge", [(0, E1, -1), (-1, E1, 0)])
    def test_negative_edge_endpoint_rejected(self, edge):
        with pytest.raises(GraphError):
            LabeledGraph(3, [frozenset()] * 3, [edge])

    @pytest.mark.parametrize("edge", [(0, E1, 3), (3, E1, 0), (1, E1, 7)])
    def test_edge_endpoint_past_vertex_count_rejected(self, edge):
        with pytest.raises(GraphError):
            LabeledGraph(3, [frozenset()] * 3, [edge])


class TestAdjacencyProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=15),
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=15),
            ),
            max_size=60,
        )
    )
    def test_out_in_adjacency_are_consistent(self, edges):
        builder = GraphBuilder()
        for source, label, target in edges:
            builder.add_edge(source, label, target)
        graph = builder.build()
        rebuilt_from_out = set(graph.iter_edges())
        rebuilt_from_in = {
            (source, label, target)
            for target in graph.vertices()
            for label in graph.edge_labels()
            for source in run(graph.in_window(target, label))
        }
        assert rebuilt_from_out == set(edges) == rebuilt_from_in
        # Every adjacency list is sorted and duplicate free.
        for vertex in graph.vertices():
            neighbours = run(graph.out_window(vertex))
            assert neighbours == sorted(set(neighbours))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_csr_matches_brute_force(self, data):
        """Every CSR look-up equals the answer computed from the edge set.

        Vertices carry 0-3 labels from a small pool (equal sets built as
        separate objects), and the edge list has self-loops, duplicates and
        labelled isolated vertices.  A pickle round trip (how a spawned
        shard worker receives the graph) must answer the same.
        """
        pool = (10, 11, 12, 13)
        vertex_count = data.draw(st.integers(min_value=1, max_value=12))
        labels = [
            frozenset(data.draw(st.lists(st.sampled_from(pool), max_size=3)))
            for _ in range(vertex_count)
        ]
        vertex = st.integers(min_value=0, max_value=vertex_count - 1)
        drawn = data.draw(
            st.lists(st.tuples(vertex, st.integers(0, 2), vertex), max_size=40)
        )
        loops = [(v, 2, v) for v in data.draw(st.lists(vertex, max_size=3))]
        edges = drawn + loops + drawn[: len(drawn) // 2]
        graph = LabeledGraph(vertex_count, labels, edges)
        self._assert_brute_force(graph, vertex_count, labels, set(edges))
        copied = pickle.loads(pickle.dumps(graph))
        self._assert_brute_force(copied, vertex_count, labels, set(edges))

    @staticmethod
    def _assert_brute_force(graph, vertex_count, labels, edges):
        pool = (10, 11, 12, 13, 99)
        label_queries = [frozenset()] + [frozenset((a,)) for a in pool]
        label_queries += [frozenset((a, b)) for a in pool for b in pool if a < b]
        arcs = {True: edges, False: {(t, l, s) for s, l, t in edges}}
        for v in range(vertex_count):
            degree = len({(l, n) for s, l, n in arcs[True] if s == v})
            degree += len({(l, n) for s, l, n in arcs[False] if s == v})
            assert graph.degree(v) == degree
            for outgoing, rows in arcs.items():
                for edge_label in (None, 0, 1, 2, 3):
                    for wanted in label_queries:
                        expected = sorted(
                            {
                                n
                                for s, l, n in rows
                                if s == v
                                and edge_label in (None, l)
                                and wanted <= labels[n]
                            }
                        )
                        window = graph.neighbors_by_type_window(
                            v, edge_label, wanted, outgoing
                        )
                        assert run(window) == expected
                        assert graph.count_neighbors_by_type(
                            v, edge_label, wanted, outgoing
                        ) == len(expected)
        for edge_label in (0, 1, 2, 3):
            assert graph.predicate_subjects(edge_label) == sorted(
                {s for s, l, _ in edges if l == edge_label}
            )
            assert graph.predicate_objects(edge_label) == sorted(
                {t for _, l, t in edges if l == edge_label}
            )
        for wanted in label_queries:
            assert graph.vertices_with_labels(wanted) == [
                v for v in range(vertex_count) if wanted <= labels[v]
            ]
