"""Query result containers shared by every engine.

A :class:`Binding` maps variable names to decoded RDF terms (``None`` marks a
variable left unbound by an OPTIONAL clause).  A :class:`ResultSet` is an
ordered collection of bindings plus the projected variable list, with helpers
for DISTINCT / ORDER BY / LIMIT and for order-insensitive comparison between
engines (used heavily by the cross-engine consistency tests).

This module is also the *materialization boundary* of the batch result
pipeline: :meth:`ResultSet.from_batches` is where columnar
:class:`~repro.sparql.binding_batch.BindingBatch` streams — which carry
vertex **ids** through the whole engine — finally decode into term-valued
binding dicts.  Nothing above a ``ResultSet`` ever sees an id.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.rdf.namespaces import XSD
from repro.rdf.terms import Literal, Term

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sparql.binding_batch import BindingBatch

#: Datatypes whose literals ORDER BY compares by numeric value.
_INTEGER_DATATYPES = frozenset((XSD.integer, XSD.int, XSD.long))
_NUMERIC_DATATYPES = _INTEGER_DATATYPES | frozenset(
    (XSD.decimal, XSD.double, XSD.float)
)

Binding = Dict[str, Optional[Term]]


class ResultSet:
    """Ordered bag of solution bindings."""

    def __init__(self, variables: Sequence[str], rows: Optional[Iterable[Binding]] = None):
        self.variables: List[str] = list(variables)
        self.rows: List[Binding] = list(rows) if rows is not None else []

    @classmethod
    def from_batches(
        cls, variables: Sequence[str], batches: Iterable["BindingBatch"]
    ) -> "ResultSet":
        """Materialize a columnar batch stream into a result set.

        Where the batch pipeline decodes ids to RDF terms (late
        materialization): every batch that reaches this boundary has already
        been joined, deduplicated and sliced on its raw columns.  Rows are
        built eagerly, column by column (:meth:`BindingBatch.iter_bindings`).
        """
        result = cls(variables)
        for batch in batches:
            result.rows.extend(batch.iter_bindings())
        return result

    # ------------------------------------------------------------- collection
    def append(self, binding: Binding) -> None:
        """Add one solution."""
        self.rows.append(binding)

    def extend(self, bindings: Iterable[Binding]) -> None:
        """Add many solutions."""
        self.rows.extend(bindings)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Binding]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    # -------------------------------------------------------------- modifiers
    def project(self, variables: Sequence[str]) -> "ResultSet":
        """Project each solution onto the given variables."""
        projected = ResultSet(variables)
        for row in self.rows:
            projected.append({var: row.get(var) for var in variables})
        return projected

    def distinct(self) -> "ResultSet":
        """Remove duplicate solutions, preserving first-seen order."""
        seen = set()
        unique = ResultSet(self.variables)
        for row in self.rows:
            key = tuple(row.get(var) for var in self.variables)
            if key not in seen:
                seen.add(key)
                unique.append(row)
        return unique

    def order_by(self, keys: Sequence[Tuple[str, bool]]) -> "ResultSet":
        """Sort by ``(variable, ascending)`` keys; None sorts first."""
        ordered = ResultSet(self.variables, self.rows)
        for var, ascending in reversed(list(keys)):
            ordered.rows.sort(
                key=lambda row: (row.get(var) is not None, _sort_key(row.get(var))),
                reverse=not ascending,
            )
        return ordered

    def slice(self, limit: Optional[int], offset: int = 0) -> "ResultSet":
        """Apply OFFSET / LIMIT."""
        end = None if limit is None else offset + limit
        return ResultSet(self.variables, self.rows[offset:end])

    # ------------------------------------------------------------- comparison
    def as_multiset(self, order: Optional[Sequence[str]] = None) -> Counter:
        """Multiset of solution tuples, for order-insensitive comparison.

        ``order`` fixes the tuple column order (defaults to this result's
        projected variables), so two result sets with the same variables in
        different order compare under one ordering.
        """
        if order is None:
            order = self.variables
        return Counter(
            tuple(row.get(var) for var in order) for row in self.rows
        )

    def same_solutions(self, other: "ResultSet") -> bool:
        """True when both result sets contain the same solutions (as bags).

        The projected variables must match as sets; column order is ignored.
        """
        if set(self.variables) != set(other.variables):
            return False
        order = list(self.variables)
        return self.as_multiset(order) == other.as_multiset(order)

    def grouped_counts(
        self, group_vars: Sequence[str], count_vars: Sequence[str]
    ) -> Dict[Tuple, Tuple[int, ...]]:
        """Group-key → integer count values, for aggregate-result comparison.

        An aggregate query emits one row per group; this flattens such a
        result into a comparable dict keyed on the ``group_vars`` tuple,
        with each ``count_vars`` column parsed back to ``int`` (count
        literals are ``xsd:integer``, so the lexical form is the value —
        this deliberately ignores datatype spelling differences between
        pipelines).
        """
        grouped: Dict[Tuple, Tuple[int, ...]] = {}
        for row in self.rows:
            key = tuple(row.get(var) for var in group_vars)
            if key in grouped:
                raise ValueError(f"duplicate group key {key!r}")
            grouped[key] = tuple(
                int(str(getattr(row.get(var), "lexical", row.get(var))))
                for var in count_vars
            )
        return grouped

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"ResultSet(vars={self.variables}, rows={len(self.rows)})"


def _sort_key(term: Optional[Term]):
    """Stable sort key for heterogeneous terms.

    Typed numeric literals compare by *value* (so ``9`` sorts before
    ``10``), everything else by its lexical/string form.  The key is a
    ``(rank, number, text)`` tuple so a column mixing numerics with other
    terms still has a total order: numerics first, then the rest
    lexically, with the lexical form breaking ties between numerically
    equal spellings (``1`` vs ``1.0``) deterministically.
    """
    if term is None:
        return (0, 0, "")
    if isinstance(term, Literal) and term.datatype in _NUMERIC_DATATYPES:
        try:
            value = (
                int(term.lexical)
                if term.datatype in _INTEGER_DATATYPES
                else float(term.lexical)
            )
            return (0, value, term.lexical)
        except ValueError:
            pass  # ill-typed lexical form: fall through to the string rank
    if hasattr(term, "lexical"):
        return (1, 0, str(term.lexical))  # type: ignore[union-attr]
    return (1, 0, str(term))
