"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish parse errors from query errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class RDFSyntaxError(ReproError):
    """Raised when an RDF serialization (N-Triples / Turtle) cannot be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SPARQLSyntaxError(ReproError):
    """Raised when a SPARQL query string cannot be parsed."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"at offset {position}: {message}"
        super().__init__(message)


class QueryError(ReproError):
    """Raised when a structurally valid query cannot be evaluated."""


class ExpressionError(QueryError):
    """Raised when a FILTER expression cannot be evaluated for a binding."""


class GraphError(ReproError):
    """Raised for malformed graph construction or transformation input."""


class EngineError(ReproError, ValueError):
    """Raised when an engine is used before data has been loaded, or misused.

    Also a :class:`ValueError`: engine misconfiguration (a retired
    ``execution_mode``, a non-positive worker count, a
    malformed environment override) is a bad value, and callers validating
    configuration should be able to catch it as one without importing the
    library's hierarchy.
    """
