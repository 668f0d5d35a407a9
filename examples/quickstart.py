#!/usr/bin/env python
"""Quickstart: load RDF triples, run SPARQL with TurboHOM++, compare semantics.

This walks the public API end to end:

1. parse an N-Triples snippet into a :class:`~repro.rdf.store.TripleStore`,
2. load it into the TurboHOM++ engine (type-aware transformation under the hood),
3. run a few SPARQL queries,
4. peek under the hood: run the same pattern as subgraph *isomorphism* vs
   *homomorphism* directly on the labeled graph to see why the distinction
   matters for RDF.

Run with:  python examples/quickstart.py
"""

from repro import (
    MatchConfig,
    TripleStore,
    TurboHomPPEngine,
    parse_ntriples,
    type_aware_transform,
)
from repro.graph.transform import type_aware_transform_query
from repro.matching import TurboMatcher
from repro.sparql.parser import parse_sparql

DATA = """
<http://ex/alice>  <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .
<http://ex/bob>    <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .
<http://ex/carol>  <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .
<http://ex/acme>   <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Company> .
<http://ex/alice>  <http://ex/knows>    <http://ex/bob> .
<http://ex/bob>    <http://ex/knows>    <http://ex/carol> .
<http://ex/carol>  <http://ex/knows>    <http://ex/alice> .
<http://ex/alice>  <http://ex/worksFor> <http://ex/acme> .
<http://ex/bob>    <http://ex/worksFor> <http://ex/acme> .
<http://ex/alice>  <http://ex/age>      "31"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/bob>    <http://ex/age>      "27"^^<http://www.w3.org/2001/XMLSchema#integer> .
"""


def main() -> None:
    # 1. Load the data.
    store = TripleStore()
    store.load(parse_ntriples(DATA))
    print(f"loaded {len(store)} triples")

    # 2. Build the engine (applies the type-aware transformation).
    engine = TurboHomPPEngine()
    try:
        engine.load(store)

        # 3. SPARQL queries.
        people = engine.query(
            "PREFIX ex: <http://ex/> SELECT ?p WHERE { ?p a ex:Person . }"
        )
        print("\npersons:", [str(row["p"]) for row in people])

        colleagues = engine.query(
            """
            PREFIX ex: <http://ex/>
            SELECT ?a ?b WHERE {
                ?a ex:worksFor ?c . ?b ex:worksFor ?c . ?a ex:knows ?b .
            }
            """
        )
        print("colleagues who know each other:", [(str(r["a"]), str(r["b"])) for r in colleagues])

        adults = engine.query(
            """
            PREFIX ex: <http://ex/>
            SELECT ?p ?age WHERE { ?p ex:age ?age . FILTER (?age > 30) }
            """
        )
        print("over 30:", [(str(r["p"]), r["age"].lexical) for r in adults])
    finally:
        engine.close()

    # 4. Isomorphism vs homomorphism on the triangle pattern ?x→?y→?z→?x.
    graph, mapping = type_aware_transform(store)
    pattern = parse_sparql(
        "PREFIX ex: <http://ex/> SELECT * WHERE { ?x ex:knows ?y . ?y ex:knows ?z . ?z ex:knows ?x . }"
    ).where.triples
    query_graph = type_aware_transform_query(pattern, mapping).query_graph

    homomorphisms = TurboMatcher(graph, MatchConfig.turbo_hom_pp()).match(query_graph)
    isomorphisms = TurboMatcher(graph, MatchConfig.isomorphism()).match(query_graph)
    print(
        f"\ntriangle pattern: {len(homomorphisms)} homomorphisms (RDF semantics), "
        f"{len(isomorphisms)} subgraph isomorphisms (injective)"
    )


if __name__ == "__main__":
    main()
