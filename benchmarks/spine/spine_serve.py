"""The serving workloads' two halves: the server child and the load generators.

Run as a script this file *is* the server child: it generates LUBM, loads a
default ``TurboHomPPEngine``, starts ``ServerThread``, prints ``READY
<port>`` and serves until its stdin closes.  Imported, it gives the runner
:class:`ServerChild` (spawn / ready / stop-and-reap) and the closed- and
open-loop generators, which keep at most ``CONNECTIONS`` keep-alive
connections and hand back raw bodies so answers are parsed and checked
after the clock has stopped.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import subprocess
import sys
import threading
import time
import urllib.parse
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

ACCEPT = {"json": "application/sparql-results+json", "csv": "text/csv"}

#: One request to send: ``(op id, SPARQL text, format)``.
Request = Tuple[str, str, str]


@dataclass
class Response:
    op_id: str
    fmt: str
    status: int
    body: bytes
    #: Seconds from the request's start (closed loop) or due time (open loop).
    latency: float
    first_byte: float
    #: Open loop only: the due time (seconds into the round) and how long
    #: after it the request was actually sent.
    due: float = 0.0
    late: float = 0.0


# ------------------------------------------------------------- server child
class ServerChild:
    """The server in its own process, owned by one workload."""

    def __init__(self, universities: int):
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(src), env.get("PYTHONPATH")) if part
        )
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(universities)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )
        self.port: Optional[int] = None

    def wait_ready(self) -> int:
        line = self.process.stdout.readline().decode().split()
        if len(line) != 2 or line[0] != "READY":
            self.stop()
            raise RuntimeError(f"server child failed to start: {line!r}")
        self.port = int(line[1])
        return self.port

    def stats(self) -> dict:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", "/stats")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def stop(self) -> None:
        """Ask the child to shut down cleanly; kill it if it will not."""
        if self.process.poll() is None:
            try:
                self.process.stdin.close()
                self.process.wait(timeout=20)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def _serve(universities: int) -> None:
    from repro.datasets import load_lubm
    from repro.engine.turbo_engine import TurboHomPPEngine
    from repro.serving import ServerThread

    dataset = load_lubm(universities=universities)
    engine = TurboHomPPEngine()
    engine.load(dataset.store)
    try:
        with ServerThread(engine) as server:
            print(f"READY {server.port}", flush=True)
            sys.stdin.read()  # the runner closes our stdin to stop us
    finally:
        engine.close()


# ---------------------------------------------------------- load generators
def _exchange(connection, request: Request, clock_start: float) -> Response:
    op_id, text, fmt = request
    connection.request(
        "GET", "/sparql?query=" + urllib.parse.quote(text), headers={"Accept": ACCEPT[fmt]}
    )
    reply = connection.getresponse()
    head = reply.read(1)
    first_byte = time.perf_counter() - clock_start
    body = head + reply.read()
    latency = time.perf_counter() - clock_start
    return Response(op_id, fmt, reply.status, body, latency, first_byte)


def _run_clients(port: int, connections: int, client) -> float:
    """Run ``client(index, connection)`` on each connection; wall seconds."""
    errors: List[BaseException] = []

    def guarded(index: int) -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            client(index, connection)
        except BaseException as error:  # surfaced on the runner thread below
            errors.append(error)
        finally:
            connection.close()

    threads = [threading.Thread(target=guarded, args=(i,)) for i in range(connections)]
    begin = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - begin
    if errors:
        raise errors[0]
    return wall


def closed_loop(port: int, requests: Sequence[Request], connections: int):
    """Each connection sends its next request when the previous completes."""
    responses: List[List[Response]] = [[] for _ in range(connections)]

    def client(index: int, connection) -> None:
        for request in requests[index::connections]:
            responses[index].append(_exchange(connection, request, time.perf_counter()))

    wall = _run_clients(port, connections, client)
    return [r for per_client in responses for r in per_client], wall


def open_loop(
    port: int, requests: Sequence[Request], rate: float, rng: random.Random, connections: int
):
    """Poisson arrivals at ``rate``/s; latency runs from each due time.

    Given how many arrive within a horizon, the arrival times of a Poisson
    process are independent uniform draws over it — so the due times are
    drawn that way over ``len(requests) / rate`` seconds, and every seed
    offers the same load over the same time, bursts included.

    A request whose due time passes while every connection is busy is sent
    late; the wait still counts, and ``late`` records it so a slow generator
    cannot pass for a fast server.
    """
    horizon = len(requests) / rate
    due = sorted(rng.uniform(0.0, horizon) for _ in requests)
    responses: List[Response] = []
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05

    def client(_: int, connection) -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(requests):
                return
            due_at = start + due[index]
            wait = due_at - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            late = max(0.0, time.perf_counter() - due_at)
            response = _exchange(connection, requests[index], due_at)
            response.due, response.late = due[index], late
            with lock:
                responses.append(response)

    wall = _run_clients(port, connections, client)
    return responses, wall


if __name__ == "__main__":
    _serve(int(sys.argv[1]))
