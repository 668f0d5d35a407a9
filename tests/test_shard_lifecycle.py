"""Lifecycle guarantees of the process shard pool.

Covers the failure modes that only show up around pool shutdown and
cancellation: worker exceptions and crashes propagating to the consumer
(also a worker killed while blocked on a full pipe or while holding a
claimed range), ``limit_hint`` fanning a prompt stop out to every shard, a
live pool adding no ``/dev/shm`` entry and no thread (workers inherit the
graph), the workers stopping on pool or engine close, on GC and at
interpreter exit, and the regression where closing the engine
mid-iteration deadlocked on a full result transport.  Workers hold rows back until a batch is full, so the
last class checks that holding them cost neither ``LIMIT`` its early stop
nor the next job its complete answer when a job is cancelled around them.
"""

from __future__ import annotations

import fcntl
import gc
import multiprocessing
import os
import pickle
import struct
import subprocess
import sys
import termios
import threading
import time
from itertools import islice
from types import SimpleNamespace

import pytest

from repro.engine.turbo_engine import TurboHomPPEngine
from repro.graph.labeled_graph import GraphBuilder
from repro.graph.query_graph import QueryGraph
from repro.matching.config import MatchConfig
from repro.matching.process_shard import (
    ProcessShardPool,
    ShardPayload,
    ShardWorkerError,
    _shard_worker_main,
)
from repro.matching.shard_protocol import chunk_ranges
from repro.matching.solution_batch import SOLUTION_BATCH_SIZE
from repro.matching.turbo import MatchStatistics, iter_region_batches, prepare_query

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


def exploding_predicate(_data_vertex: int) -> bool:
    """Module-level so it pickles into shard worker processes."""
    raise RuntimeError("predicate boom")


class BoomOn:
    """Push-down predicate raising on one data vertex (pickles into workers)."""

    def __init__(self, vertex: int):
        self.vertex = vertex

    def __call__(self, data_vertex: int) -> bool:
        if data_vertex == self.vertex:
            raise RuntimeError("late boom")
        return True


class SleepOn:
    """Push-down predicate that writes its worker's pid to ``path`` and
    sleeps when it reaches one data vertex (pickles into workers)."""

    def __init__(self, vertex: int, path: str):
        self.vertex = vertex
        self.path = path

    def __call__(self, data_vertex: int) -> bool:
        if data_vertex == self.vertex:
            with open(self.path, "w") as handle:
                handle.write(str(os.getpid()))
            time.sleep(60)
        return True


def pipe_backlog(conn) -> int:
    """Bytes waiting unread in the parent's end of a worker pipe."""
    return struct.unpack("i", fcntl.ioctl(conn.fileno(), termios.FIONREAD, b"\0" * 4))[0]


def wait_until(condition, timeout: float = 20.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition not reached"
        time.sleep(0.05)


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

    def test_start_method_is_not_an_argument(self):
        # Workers fork where the platform can and spawn otherwise.
        with pytest.raises(TypeError, match="start_method"):
            ProcessShardPool(star_graph(spokes=1), start_method="spawn")

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

    def test_superseded_stream_drops_late_errors(self, new_leaks):
        """A worker error that arrives after a same-thread match superseded
        its stream belongs to a stream its consumer abandoned: the stream
        ends quietly instead of raising it when resumed."""
        graph = star_graph(spokes=3, hubs=200)
        pool = make_pool(graph)
        try:
            stream = pool.iter_match_batches(
                star_query(), vertex_predicates={1: BoomOn(graph.vertex_count - 1)}
            )
            next(stream)
            time.sleep(0.5)  # the failing region is searched meanwhile
            solutions, _ = pool.match(star_query())
            assert len(solutions) == 600
            assert sum(batch.rows for batch in stream) < 600
        finally:
            pool.close()
        assert not new_leaks()


# ------------------------------------------------------------- worker death
class TestWorkerDeath:
    """A worker killed at either point where the parent might wait on it
    surfaces within a fixed bound, and the pool answers the next match."""

    @staticmethod
    def assert_dies_loudly(pool, stream, victim, expected):
        victim.kill()
        victim.join(2.0)
        begin = time.monotonic()
        with pytest.raises(ShardWorkerError, match="died"):
            next(stream)
        assert time.monotonic() - begin < 2.0
        begin = time.monotonic()
        pool.close()
        assert time.monotonic() - begin < 2.0
        solutions, _ = pool.match(star_query())
        assert len(solutions) == expected

    def test_kill_while_blocked_on_a_full_pipe(self, new_leaks):
        # One hub is one range of 20000 rows, ~300 kB of batches: more than
        # a pipe holds, so a worker blocks in send without claiming again.
        graph = star_graph(spokes=20000, hubs=4)
        pool = make_pool(graph)
        try:
            stream = pool.iter_match_batches(star_query())
            next(stream)
            # Nobody reads now: each worker fills its pipe and blocks in send.
            sizes = []

            def blocked():
                sizes.append([pipe_backlog(conn) for conn in pool._conns])
                return len(sizes) > 4 and all(
                    size > 64 * 1024 for size in sizes[-1]
                ) and sizes[-1] == sizes[-5]

            wait_until(blocked)
            self.assert_dies_loudly(pool, stream, pool._processes[0], 4 * 20000)
        finally:
            pool.close()
        assert not new_leaks()

    def test_kill_while_holding_a_claimed_range(self, tmp_path, new_leaks):
        graph = star_graph(spokes=3, hubs=200)
        pid_file = tmp_path / "sleeper.pid"
        pool = make_pool(graph)
        try:
            # The first spoke of hub 10 stalls whichever worker claims it.
            stream = pool.iter_match_batches(
                star_query(), vertex_predicates={1: SleepOn(10 * 4 + 1, str(pid_file))}
            )
            next(stream)  # the other worker fills a batch meanwhile
            wait_until(lambda: pid_file.exists() and pid_file.read_text())
            pid = int(pid_file.read_text())
            (victim,) = [process for process in pool._processes if process.pid == pid]
            self.assert_dies_loudly(pool, stream, victim, 600)
        finally:
            pool.close()
        assert not new_leaks()

    def test_rebuild_keeps_a_waiting_thread_waiting(self, new_leaks):
        """A same-thread match that finds a dead worker rebuilds the pool
        while another thread waits for the stream gate: that thread must
        keep waiting, not run its job on the pool being rebuilt."""
        pool = make_pool(star_graph(spokes=3, hubs=2000))
        outcome = {}

        def other_thread():
            try:
                outcome["rows"] = len(pool.match(star_query())[0])
            except BaseException as exc:  # noqa: BLE001 - reported below
                outcome["error"] = exc

        try:
            first = pool.iter_match_batches(star_query())
            next(first)  # this thread holds the stream gate
            waiter = threading.Thread(target=other_thread)
            waiter.start()
            wait_until(lambda: pool._gate._lock.locked() and waiter.is_alive())
            time.sleep(0.2)  # the waiter is parked on the gate
            pool._processes[0].kill()
            pool._processes[0].join(2.0)
            rows = sum(batch.rows for batch in pool.iter_match_batches(star_query()))
            waiter.join(60)
            assert not waiter.is_alive()
            assert rows == 6000 and outcome == {"rows": 6000}
        finally:
            pool.close()
        assert not new_leaks()

    def test_live_pool_starts_no_thread(self, new_leaks):
        before = threading.active_count()
        pool = make_pool(star_graph(spokes=20, hubs=20))
        try:
            solutions, _ = pool.match(star_query())
            assert len(solutions) == 400
            assert all(process.is_alive() for process in pool._processes)
            assert threading.active_count() == before
        finally:
            pool.close()
        assert not new_leaks()


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
    def batch_rows(graph, limit):
        """Row counts of the batches one start-vertex loop yields over every
        start vertex, fed as a plain iterator (as a shard worker feeds it)."""
        query = star_query()
        config = MatchConfig.turbo_hom_pp()
        prepared = prepare_query(graph, query, config)
        return [
            batch.rows
            for batch in iter_region_batches(
                graph, config, query, prepared, {},
                iter(prepared.start_candidates), limit, MatchStatistics(),
            )
        ]

    def test_loop_ships_at_the_limit_not_at_the_batch_size(self):
        graph = star_graph(spokes=3, hubs=100)  # 100 regions, 300 rows
        tail = 300 - SOLUTION_BATCH_SIZE
        assert self.batch_rows(graph, limit=None) == [SOLUTION_BATCH_SIZE, tail]
        assert self.batch_rows(graph, limit=1000) == [SOLUTION_BATCH_SIZE, tail]
        # k rows ship without waiting for 256, and the loop ends there.
        assert self.batch_rows(graph, limit=4) == [4]

    def test_worker_drops_held_rows_after_a_stop(self):
        """The worker, run in-process on a pipe, with a consumer (the test)
        that answers its claims and stops once the first full batch went
        out: the rest of the region in progress is still searched and held,
        but never shipped, and the worker claims its way to the end and
        reports ``done``."""
        graph = star_graph(spokes=3, hubs=100)  # 300 rows: 256 + a 44-row tail
        query = star_query()
        config = MatchConfig.turbo_hom_pp()
        prepared = prepare_query(graph, query, config)
        cancel = SimpleNamespace(value=0)
        ranges = iter(chunk_ranges(len(prepared.start_candidates), 10))
        parent, child = multiprocessing.Pipe()
        shipped = []

        class StoppingConsumer:
            """The worker's end of the pipe; plays the parent on every send."""

            def recv(self):
                return child.recv()

            def send(self, message):
                shipped.append(message[0])
                if message[0] == "batch":
                    assert message[1].rows == SOLUTION_BATCH_SIZE
                    cancel.value = 1
                elif message[0] == "claim":
                    parent.send([] if cancel.value else list(islice(ranges, 1)))
                elif message[0] == "done":
                    shipped.append(message[1:3])
                    parent.send(None)  # shut down after the job

        parent.send(("job", 1, None, pickle.dumps(ShardPayload(query, prepared)), None))
        parent.send([next(ranges)])
        try:
            _shard_worker_main(graph, config, None, StoppingConsumer(), cancel)
        finally:
            parent.close()
            child.close()
        *messages, (work, chunk_works) = shipped
        assert messages.count("batch") == 1 and messages[-1] == "done"
        assert set(messages) == {"claim", "batch", "done"}
        # The chunk the stop interrupted is counted too.
        assert sum(chunk_works) == work > 0

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
                    # 256 rows they would have searched ~85 regions each; a
                    # worker stops at the limit of its own rows instead.
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
            """The stopped job is retired and left nothing in a worker pipe."""
            return pool._active_job is None and not any(
                conn.poll() for conn in pool._conns
            )

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


# -------------------------------------------------------------- pool hygiene
def worker_running(pid: int) -> bool:
    """Whether process ``pid`` still runs (a zombie awaiting reaping does not)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestSharedSegmentCleanup:
    def test_live_pool_adds_no_dev_shm_entry(self, small_rdf_store):
        """Workers inherit the engine's graph: while the pool is up after a
        query, ``/dev/shm`` holds nothing it did not hold before."""
        before = set(os.listdir("/dev/shm"))
        engine = TurboHomPPEngine(workers=2)
        engine.load(small_rdf_store)
        try:
            assert len(engine.query(PREFIX + "SELECT ?a ?b WHERE { ?a ex:knows ?b . }")) == 3
            processes = engine._pool._processes
            assert len(processes) == 2
            assert all(process.is_alive() for process in processes)
            assert set(os.listdir("/dev/shm")) - before == set()
        finally:
            engine.close()

    def test_workers_stopped_on_pool_close(self, new_leaks):
        pool = ProcessShardPool(star_graph(spokes=20), MatchConfig.turbo_hom_pp(), workers=2)
        try:
            solutions, _ = pool.match(star_query())
            assert len(solutions) == 20
            processes = list(pool._processes)
            assert all(process.is_alive() for process in processes)
        finally:
            pool.close()
        assert all(process.exitcode is not None for process in processes)
        assert not new_leaks()

    def test_workers_stopped_on_engine_close(self, small_rdf_store, new_leaks):
        engine = TurboHomPPEngine(workers=2)
        engine.load(small_rdf_store)
        try:
            result = engine.query(PREFIX + "SELECT ?a ?b WHERE { ?a ex:knows ?b . }")
            assert len(result) == 3
            processes = list(engine._pool._processes)
            assert len(processes) == 2
        finally:
            engine.close()
        assert all(process.exitcode is not None for process in processes)
        assert not new_leaks()

    def test_engine_close_query_close_does_not_leak(self, small_rdf_store, new_leaks):
        """A query after close() starts a new pool the next close() stops."""
        engine = TurboHomPPEngine(workers=2)
        engine.load(small_rdf_store)
        query = PREFIX + "SELECT ?a ?b WHERE { ?a ex:knows ?b . }"
        try:
            assert len(engine.query(query)) == 3
            first = list(engine._pool._processes)
            engine.close()
            assert all(process.exitcode is not None for process in first)
            assert len(engine.query(query)) == 3  # transparently restarts
            second = list(engine._pool._processes)
            assert len(second) == 2 and not set(second) & set(first)
            assert all(process.is_alive() for process in second)
        finally:
            engine.close()
        assert all(process.exitcode is not None for process in second)
        assert not new_leaks()

    def test_pool_dropped_without_close_is_reaped(self):
        """The GC finalizer stops the workers of a pool nobody closed."""
        pool = ProcessShardPool(star_graph(spokes=20), MatchConfig.turbo_hom_pp(), workers=2)
        solutions, _ = pool.match(star_query())
        assert len(solutions) == 20
        processes = list(pool._processes)
        assert all(process.is_alive() for process in processes)
        del pool
        gc.collect()
        assert all(process.exitcode is not None for process in processes)

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
            assert sequential._pool is None
            assert sequential.stats()["transport"] is None
            assert sharded.query(lubm1.queries["Q9"]).same_solutions(expected)
            assert len(sharded._pool._processes) == 2
            assert sharded.stats()["workers"] == 2
            assert sharded.stats()["transport"]["queue_batches"] > 0
        finally:
            sharded.close()

    def test_workers_do_not_outlive_the_interpreter(self, tmp_path):
        """An interpreter that exits without close() stops its workers."""
        script = tmp_path / "unclosed.py"
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
            "print(' '.join(str(process.pid) for process in pool._processes))\n"
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
        pids = [int(pid) for pid in completed.stdout.strip().splitlines()[-1].split()]
        assert len(pids) == 2
        assert not any(worker_running(pid) for pid in pids), "a worker outlived the interpreter"
