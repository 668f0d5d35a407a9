"""Lifecycle guarantees of the process shard pool.

Covers the failure modes that only show up around pool shutdown and
cancellation: worker exceptions and crashes propagating to the consumer,
``limit_hint`` fanning a prompt stop out to every shard, shared-memory
segments being unlinked on engine close *and* on interpreter exit, and the
regression where closing the engine mid-iteration deadlocked on the
bounded result queue.  Workers hold rows back until a batch is full, so the
last class checks that holding them cost neither ``LIMIT`` its early stop
nor the next job its complete answer when a job is cancelled around them.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import time

import pytest

from repro.engine.turbo_engine import TurboHomPPEngine
from repro.graph.labeled_graph import GraphBuilder
from repro.graph.query_graph import QueryGraph
from repro.matching.config import MatchConfig
from repro.matching.process_shard import ProcessShardPool, ShardWorkerError
from repro.matching.shard_protocol import ShardCollector, run_chunk
from repro.matching.solution_batch import SOLUTION_BATCH_SIZE
from repro.matching.turbo import prepare_query

HUB, SPOKE = 0, 1
LINK = 0

PREFIX = (
    "PREFIX ex: <http://example.org/> "
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
)


def star_graph(spokes: int, hubs: int = 1):
    """``hubs`` star centres, each linked to its own ``spokes`` leaves."""
    builder = GraphBuilder()
    vertex = 0
    for _ in range(hubs):
        hub = vertex
        builder.add_vertex(hub, (HUB,))
        vertex += 1
        for _ in range(spokes):
            builder.add_vertex(vertex, (SPOKE,))
            builder.add_edge(hub, LINK, vertex)
            vertex += 1
    return builder.build()


def star_query() -> QueryGraph:
    query = QueryGraph()
    hub = query.add_vertex("hub", frozenset((HUB,)))
    leaf = query.add_vertex("leaf", frozenset((SPOKE,)))
    query.add_edge(hub, leaf, LINK)
    return query


def make_pool(graph, workers: int = 2):
    """The shard pool over ``graph``, one region per chunk."""
    return ProcessShardPool(
        graph, MatchConfig.turbo_hom_pp(), workers=workers, chunk_size=1
    )


def segment_exists(name: str) -> bool:
    return os.path.exists(f"/dev/shm/{name}")


def exploding_predicate(_data_vertex: int) -> bool:
    """Module-level so it pickles into shard worker processes."""
    raise RuntimeError("predicate boom")


# ---------------------------------------------------------- process lifecycle
class TestProcessPoolLifecycle:
    def test_worker_exception_propagates(self):
        graph = star_graph(spokes=30)
        pool = ProcessShardPool(graph, MatchConfig.turbo_hom_pp(), workers=2, chunk_size=4)
        try:
            # Predicate on the non-root query vertex, so it raises inside
            # the shard workers, not during parent-side start filtering.
            with pytest.raises(RuntimeError, match="predicate boom"):
                pool.match(star_query(), vertex_predicates={1: exploding_predicate})
        finally:
            pool.close()

    def test_worker_crash_raises_instead_of_hanging(self):
        graph = star_graph(spokes=200, hubs=40)
        pool = ProcessShardPool(graph, MatchConfig.turbo_hom_pp(), workers=2, chunk_size=1)
        try:
            stream = pool.iter_match(star_query())
            next(stream)
            pool._processes[0].kill()
            with pytest.raises(ShardWorkerError, match="died"):
                for _ in stream:
                    pass
            # The pool retires itself and transparently restarts.
            solutions, _ = pool.match(star_query())
            assert len(solutions) == 40 * 200
        finally:
            pool.close()

    def test_cancel_counter_shares_no_lock_with_workers(self):
        """Every worker reads the cancel counter between regions and while
        its bounded put waits.  A lock on it would be held by a worker
        killed mid-read, and the parent's next cancel would wait on it
        forever, so the counter must be a lock-free shared word."""
        pool = ProcessShardPool(star_graph(spokes=20), MatchConfig.turbo_hom_pp(), workers=2)
        try:
            pool.match(star_query())
            assert not hasattr(pool._cancel, "get_lock")
        finally:
            pool.close()

    def test_limit_cancels_all_shards_promptly(self):
        graph = star_graph(spokes=400, hubs=30)
        pool = ProcessShardPool(graph, MatchConfig.turbo_hom_pp(), workers=2, chunk_size=1)
        try:
            begin = time.monotonic()
            capped = list(pool.iter_match(star_query(), max_results=5))
            elapsed = time.monotonic() - begin
            assert len(capped) == 5
            assert pool.last_stats is not None
            assert pool.last_stats.solutions == 5
            # The cancel counter fans out between regions/batches: ending the
            # stream must not wait for the full 12000-solution enumeration.
            assert elapsed < 10.0
            # Workers all acknowledged the cancel and accept the next job.
            solutions, _ = pool.match(star_query(), max_results=7)
            assert len(solutions) == 7
        finally:
            pool.close()

    def test_unpicklable_predicate_raises_without_poisoning_the_pool(self):
        graph = star_graph(spokes=30)
        pool = ProcessShardPool(graph, MatchConfig.turbo_hom_pp(), workers=2, chunk_size=4)
        try:
            with pytest.raises(Exception):  # lambdas cannot cross the boundary
                list(pool.iter_match(star_query(), vertex_predicates={1: lambda v: True}))
            # No phantom active job: the next match must run, not hang.
            solutions, _ = pool.match(star_query())
            assert len(solutions) == 30
        finally:
            pool.close()

    def test_new_job_supersedes_open_stream(self):
        """A match() while an earlier stream is still open must not deadlock.

        The earlier stream is superseded: it keeps what it delivered and
        ends quietly; the new job gets complete results.
        """
        graph = star_graph(spokes=5000)
        pool = ProcessShardPool(graph, MatchConfig.turbo_hom_pp(), workers=2, chunk_size=1)
        try:
            stale = pool.iter_match(star_query())
            first = next(stale)
            assert first is not None
            solutions, _ = pool.match(star_query())  # would deadlock before
            assert len(solutions) == 5000
            leftovers = list(stale)  # superseded stream ends instead of stealing
            assert len(leftovers) < 5000
        finally:
            pool.close()

    def test_stream_open_across_pool_close_ends_quietly(self):
        graph = star_graph(spokes=3000)
        pool = ProcessShardPool(graph, MatchConfig.turbo_hom_pp(), workers=2, chunk_size=1)
        stream = pool.iter_match(star_query())
        next(stream)
        pool.close()
        assert len(list(stream)) < 3000  # ends, no hang, no queue access
        pool.close()
        solutions, _ = pool.match(star_query())  # a later match restarts it
        assert len(solutions) == 3000
        pool.close()

    def test_abandoned_generator_stops_shards(self):
        graph = star_graph(spokes=300, hubs=10)
        pool = ProcessShardPool(graph, MatchConfig.turbo_hom_pp(), workers=2, chunk_size=1)
        try:
            stream = pool.iter_match(star_query())
            next(stream)
            stream.close()  # abandon: must cancel the job, not hang in GC
            solutions, _ = pool.match(star_query(), max_results=3)
            assert len(solutions) == 3
        finally:
            pool.close()


# ------------------------------------------------- worker-owned batch, limits
class TestHeldRowsUnderLimitsAndCancellation:
    """Rows a worker holds back for a full batch must not delay ``LIMIT k``
    nor wedge the pool when the job is cancelled around them."""

    #: 6000 hubs of 3 spokes: many small regions, 18000 solutions.
    HUBS, SPOKES = 6000, 3

    @pytest.fixture(scope="class")
    def graph(self):
        return star_graph(spokes=self.SPOKES, hubs=self.HUBS)

    @staticmethod
    def collect(graph, limit, stop_after=None):
        """Run every start vertex through one collector, then flush its tail.

        Returns the row counts of the emitted batches; the job counts as
        stopped once ``stop_after`` batches were emitted.
        """
        query = star_query()
        prepared = prepare_query(graph, query, MatchConfig.turbo_hom_pp())
        emitted = []

        def emit(batch):
            emitted.append(batch.rows)
            return True

        collector = ShardCollector(
            query.vertex_count(), limit, emit,
            lambda: stop_after is not None and len(emitted) >= stop_after,
        )
        run_chunk(
            graph, MatchConfig.turbo_hom_pp(), query, prepared, {}, None,
            prepared.start_candidates, collector,
        )
        collector.flush()
        return emitted

    def test_collector_ships_at_the_limit_not_at_the_batch_size(self):
        graph = star_graph(spokes=3, hubs=100)  # 100 regions, 300 rows
        tail = 300 - SOLUTION_BATCH_SIZE
        assert self.collect(graph, limit=None) == [SOLUTION_BATCH_SIZE, tail]
        assert self.collect(graph, limit=1000) == [SOLUTION_BATCH_SIZE, tail]
        # A worker holding k rows ships them without waiting for 256.
        assert self.collect(graph, limit=4) == [4] * 75

    def test_collector_drops_held_rows_after_a_stop(self):
        graph = star_graph(spokes=3, hubs=100)
        # Stopped once the full batch went out: the rest of the region in
        # progress is still searched and held, but never emitted.
        assert self.collect(graph, limit=None, stop_after=1) == [SOLUTION_BATCH_SIZE]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_limits_stop_early_sequential_and_sharded(self, workers, graph):
        pool = make_pool(graph, workers)
        try:
            solutions, stats = pool.match(star_query())
            assert len(solutions) == self.HUBS * self.SPOKES
            exhaustive = stats.total_work
            per_region = exhaustive / self.HUBS
            for limit in (1, 3, 300):
                solutions, stats = pool.match(star_query(), max_results=limit)
                assert len(solutions) == limit
                assert len(set(map(tuple, solutions))) == limit
                assert stats.solutions == limit
                assert stats.total_work < exhaustive / 2
                if limit <= self.SPOKES:
                    # One region fills the batch.  Had the workers waited for
                    # 256 rows they would have searched ~85 regions each; the
                    # bounded output queue caps the overshoot at a few dozen.
                    assert stats.total_work < 60 * per_region
            # The pool is not wedged: the next query is answered completely.
            solutions, _ = pool.match(star_query())
            assert len(solutions) == self.HUBS * self.SPOKES
        finally:
            pool.close()

    def test_dropped_rows_leave_the_pool_answering(self, graph):
        pool = make_pool(graph)
        query = star_query()

        def drained():
            """The stopped job is retired and left nothing on the queue."""
            return pool._active_job is None and pool._results.empty()

        try:
            solutions, _ = pool.match(query, max_results=300)  # limit stop
            assert len(solutions) == 300 and drained()

            stream = pool.iter_match_batches(query)  # explicit close mid-stream
            assert next(stream).rows == SOLUTION_BATCH_SIZE
            stream.close()
            assert drained()

            stream = pool.iter_match_batches(query)  # abandoned to the GC
            assert next(stream).rows == SOLUTION_BATCH_SIZE
            del stream
            gc.collect()
            assert drained()

            solutions, _ = pool.match(query)
            assert len(solutions) == self.HUBS * self.SPOKES and drained()
        finally:
            pool.close()


# ----------------------------------------------------------- segment hygiene
class TestSharedSegmentCleanup:
    def test_segments_unlinked_on_pool_close(self):
        graph = star_graph(spokes=20)
        pool = ProcessShardPool(graph, MatchConfig.turbo_hom_pp(), workers=2)
        try:
            pool.match(star_query())
            name = pool._handle.name
            assert segment_exists(name)
        finally:
            pool.close()
        assert not segment_exists(name)

    def test_segments_unlinked_on_engine_close(self, small_rdf_store):
        engine = TurboHomPPEngine(workers=2)
        engine.load(small_rdf_store)
        try:
            result = engine.query(PREFIX + "SELECT ?a ?b WHERE { ?a ex:knows ?b . }")
            assert len(result) == 3
            name = engine._executor.pool._handle.name
            assert segment_exists(name)
        finally:
            engine.close()
        assert not segment_exists(name)

    def test_engine_close_query_close_does_not_leak(self, small_rdf_store):
        """A query after close() rebuilds tracked state the next close() finds."""
        engine = TurboHomPPEngine(workers=2)
        engine.load(small_rdf_store)
        query = PREFIX + "SELECT ?a ?b WHERE { ?a ex:knows ?b . }"
        assert len(engine.query(query)) == 3
        engine.close()
        assert len(engine.query(query)) == 3  # transparently restarts
        name = engine._executor.pool._handle.name
        assert segment_exists(name)
        engine.close()
        assert not segment_exists(name)

    def test_workers_alone_picks_sequential_or_shards(self, lubm1):
        """``workers=1`` never builds a pool; the spine's retired spelling
        ``workers=2, execution_mode="processes"`` runs on 2 shard workers."""
        sequential = TurboHomPPEngine(workers=1)
        sharded = TurboHomPPEngine(workers=2, execution_mode="processes")
        sequential.load(lubm1.store)
        sharded.load(lubm1.store)
        try:
            expected = sequential.query(lubm1.queries["Q9"])
            assert len(expected) > 0
            assert sequential._executor is None
            assert sequential.stats()["transport"] is None
            assert sharded.query(lubm1.queries["Q9"]).same_solutions(expected)
            assert len(sharded._executor.pool._processes) == 2
            assert sharded.stats()["workers"] == 2
            assert sharded.stats()["transport"]["queue_batches"] > 0
        finally:
            sharded.close()

    def test_segments_unlinked_on_interpreter_exit(self, tmp_path):
        """An engine abandoned without close() must not leak /dev/shm entries."""
        script = tmp_path / "leaky.py"
        script.write_text(
            "import sys\n"
            "from repro.graph.labeled_graph import GraphBuilder\n"
            "from repro.graph.query_graph import QueryGraph\n"
            "from repro.matching.config import MatchConfig\n"
            "from repro.matching.process_shard import ProcessShardPool\n"
            "builder = GraphBuilder()\n"
            "builder.add_vertex(0, (0,))\n"
            "for v in range(1, 30):\n"
            "    builder.add_vertex(v, (1,))\n"
            "    builder.add_edge(0, 0, v)\n"
            "query = QueryGraph()\n"
            "hub = query.add_vertex('hub', frozenset((0,)))\n"
            "leaf = query.add_vertex('leaf', frozenset((1,)))\n"
            "query.add_edge(hub, leaf, 0)\n"
            "pool = ProcessShardPool(builder.build(), MatchConfig.turbo_hom_pp(), workers=2)\n"
            "solutions, _ = pool.match(query)\n"
            "assert len(solutions) == 29\n"
            "print(pool._handle.name)\n"
            "sys.exit(0)  # deliberately no close()\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert completed.returncode == 0, completed.stderr
        name = completed.stdout.strip().splitlines()[-1]
        assert name
        assert not segment_exists(name), "segment outlived the interpreter"
