"""repro — reproduction of "Taming Subgraph Isomorphism for RDF Query Processing".

The package implements TurboHOM++ (an e-graph homomorphism matcher derived
from TurboISO, tamed for RDF/SPARQL processing) together with every substrate
the paper's evaluation depends on: an RDF data model and parsers, a SPARQL
parser and evaluator, the direct and type-aware graph transformations,
baseline RDF engines (RDF-3X-style, TripleBit-style, bitmap), benchmark data
generators (LUBM, BSBM, YAGO-like, BTC-like) and the benchmark harness that
regenerates the paper's tables and figures.

Quickstart
----------
>>> from repro import TripleStore, TurboHomPPEngine, parse_ntriples
>>> store = TripleStore()
>>> _ = store.load(parse_ntriples('''
... <http://ex/alice> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .
... <http://ex/alice> <http://ex/knows> <http://ex/bob> .
... <http://ex/bob> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .
... '''))
>>> engine = TurboHomPPEngine()
>>> engine.load(store)
>>> result = engine.query(
...     'SELECT ?x WHERE { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> . }')
>>> len(result)
2
"""

from repro.exceptions import (
    EngineError,
    ExpressionError,
    GraphError,
    QueryError,
    RDFSyntaxError,
    ReproError,
    SPARQLSyntaxError,
)
from repro.rdf import (
    IRI,
    BlankNode,
    Dictionary,
    Literal,
    Namespace,
    Ontology,
    RDFSInferencer,
    Triple,
    TripleStore,
    parse_ntriples,
    parse_turtle,
    serialize_ntriples,
)
from repro.sparql import ResultSet, SelectQuery, parse_sparql
from repro.graph import (
    GraphBuilder,
    LabeledGraph,
    QueryGraph,
    direct_transform,
    type_aware_transform,
)
from repro.matching import (
    GenericMatcher,
    MatchConfig,
    TurboMatcher,
    turbo_hom,
    turbo_hom_pp,
    turbo_iso,
)
from repro.engine import PlanCache, QueryPlan, TurboEngine, TurboHomEngine, TurboHomPPEngine
from repro.baselines import BitmapEngine, RDF3XEngine, TripleBitEngine

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # exceptions
    "ReproError",
    "RDFSyntaxError",
    "SPARQLSyntaxError",
    "QueryError",
    "ExpressionError",
    "GraphError",
    "EngineError",
    # rdf
    "IRI",
    "BlankNode",
    "Literal",
    "Triple",
    "Namespace",
    "Dictionary",
    "TripleStore",
    "parse_ntriples",
    "serialize_ntriples",
    "parse_turtle",
    "Ontology",
    "RDFSInferencer",
    # sparql
    "parse_sparql",
    "SelectQuery",
    "ResultSet",
    # graph
    "LabeledGraph",
    "GraphBuilder",
    "QueryGraph",
    "direct_transform",
    "type_aware_transform",
    # matching
    "MatchConfig",
    "TurboMatcher",
    "GenericMatcher",
    "turbo_iso",
    "turbo_hom",
    "turbo_hom_pp",
    # engines
    "PlanCache",
    "QueryPlan",
    "TurboEngine",
    "TurboHomEngine",
    "TurboHomPPEngine",
    "RDF3XEngine",
    "TripleBitEngine",
    "BitmapEngine",
]
