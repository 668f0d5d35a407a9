"""Answer checking: order-independent digests, the oracle and the goldens.

Every answer the spine times is reduced to ``(row count, digest)`` over the
lexical form of its cells, which every surface can produce — a
``ResultSet``, a SPARQL-JSON body, a CSV body — and compared with what
:class:`~repro.baselines.BitmapEngine` (its own storage and BGP evaluation,
the scalar algebra) says for the same text.  Queries no baseline can answer
(transitive paths) compare against ``expected/*.json``, regenerable with
``run.py --regenerate-expected`` and keyed by the dataset's triple count so
stale goldens fail instead of passing.
"""

from __future__ import annotations

import csv
import io
import json
import zlib
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.baselines import BitmapEngine
from repro.rdf.terms import Literal

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: ``(rows, digest)`` of one answer.
Answer = Tuple[int, int]


def _digest(rows: Iterable[Sequence[str]]) -> Answer:
    """Row count and the sum of per-row CRC32s (order-independent, stable
    across processes — ``hash()`` is salted per interpreter)."""
    count = 0
    total = 0
    for row in rows:
        count += 1
        total += zlib.crc32("\x1f".join(row).encode("utf-8"))
    return count, total


def _lexical(term) -> str:
    if term is None:
        return ""
    if isinstance(term, Literal):
        return term.lexical
    return str(term)


def answer_of_result(result) -> Answer:
    """The answer of a materialized ``ResultSet``."""
    variables = result.variables
    return _digest(
        [_lexical(row.get(var)) for var in variables] for row in result.rows
    )


def answer_of_body(body: bytes, fmt: str) -> Answer:
    """The answer carried by one HTTP response body (``json`` or ``csv``)."""
    if fmt == "json":
        data = json.loads(body)
        variables = data["head"]["vars"]
        return _digest(
            [row.get(var, {}).get("value", "") for var in variables]
            for row in data["results"]["bindings"]
        )
    reader = csv.reader(io.StringIO(body.decode("utf-8"), newline=""))
    next(reader)  # header
    return _digest(reader)


class Oracle:
    """Expected answers for one dataset, computed once per distinct text."""

    def __init__(self, dataset, golden_name: Optional[str] = None):
        self.engine = BitmapEngine()
        self.engine.load(dataset.store)
        self.triples = dataset.total_triples
        self.golden_name = golden_name
        self._expected: Dict[str, Answer] = {}

    def expect(self, op_id: str, text: str, golden: bool = False) -> None:
        """Record the expected answer of ``op_id`` (idempotent)."""
        if op_id in self._expected:
            return
        if golden:
            self._expected[op_id] = self._golden(op_id)
        else:
            self._expected[op_id] = answer_of_result(self.engine.query(text))

    def _golden(self, op_id: str) -> Answer:
        path = EXPECTED_DIR / f"{self.golden_name}.json"
        data = json.loads(path.read_text())
        if data["triples"] != self.triples:
            raise SystemExit(
                f"{path} was recorded for {data['triples']} triples, the dataset "
                f"has {self.triples}: rerun with --regenerate-expected"
            )
        rows, digest = data["answers"][op_id]
        return rows, digest

    def matches(self, op_id: str, answer: Answer) -> bool:
        return self._expected[op_id] == tuple(answer)


def write_goldens(name: str, triples: int, answers: Dict[str, Answer]) -> Path:
    """Write ``expected/<name>.json`` from the engine's current answers."""
    EXPECTED_DIR.mkdir(exist_ok=True)
    path = EXPECTED_DIR / f"{name}.json"
    payload = {
        "triples": triples,
        "answers": {op_id: list(answer) for op_id, answer in sorted(answers.items())},
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path
