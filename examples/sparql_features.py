#!/usr/bin/env python
"""General SPARQL features on the BSBM e-commerce dataset.

Demonstrates the Section 5.1 features of TurboHOM++ — OPTIONAL, FILTER
(cheap and expensive), UNION, REGEX, language matching — on the synthetic
Berlin SPARQL Benchmark data, and shows how inexpensive filters are pushed
into graph exploration while expensive ones run after pattern matching.

Run with:  python examples/sparql_features.py
"""

from repro import TurboHomPPEngine
from repro.datasets import load_bsbm

QUERIES = {
    "products with a feature, price-like property above a threshold (cheap FILTER)": """
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
        PREFIX bsbm: <http://www4.wiwiss.fu-berlin.de/bizer/bsbm/v01/vocabulary/>
        PREFIX inst: <http://www4.wiwiss.fu-berlin.de/bizer/bsbm/v01/instances/>
        SELECT ?product ?value WHERE {
            ?product bsbm:productFeature inst:ProductFeature1 .
            ?product bsbm:productPropertyNumeric1 ?value .
            FILTER (?value > 1500)
        }""",
    "offers with vendor, keeping products that have no offer (OPTIONAL)": """
        PREFIX bsbm: <http://www4.wiwiss.fu-berlin.de/bizer/bsbm/v01/vocabulary/>
        PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
        PREFIX inst: <http://www4.wiwiss.fu-berlin.de/bizer/bsbm/v01/instances/>
        SELECT ?label ?price WHERE {
            inst:Product2 rdfs:label ?label .
            OPTIONAL { ?offer bsbm:product inst:Product2 . ?offer bsbm:price ?price . }
        }""",
    "products carrying either of two features (UNION)": """
        PREFIX bsbm: <http://www4.wiwiss.fu-berlin.de/bizer/bsbm/v01/vocabulary/>
        PREFIX inst: <http://www4.wiwiss.fu-berlin.de/bizer/bsbm/v01/instances/>
        SELECT DISTINCT ?product WHERE {
            { ?product bsbm:productFeature inst:ProductFeature1 . }
            UNION
            { ?product bsbm:productFeature inst:ProductFeature2 . }
        }""",
    "label keyword search (expensive REGEX filter)": """
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
        PREFIX bsbm: <http://www4.wiwiss.fu-berlin.de/bizer/bsbm/v01/vocabulary/>
        SELECT ?product ?label WHERE {
            ?product rdf:type bsbm:Product .
            ?product rdfs:label ?label .
            FILTER (REGEX(?label, "alpha.*bravo|bravo.*alpha"))
        }""",
    "English reviews of a product (language tags)": """
        PREFIX bsbm: <http://www4.wiwiss.fu-berlin.de/bizer/bsbm/v01/vocabulary/>
        PREFIX inst: <http://www4.wiwiss.fu-berlin.de/bizer/bsbm/v01/instances/>
        SELECT ?review ?text WHERE {
            ?review bsbm:reviewFor inst:Product3 .
            ?review bsbm:text ?text .
            FILTER (LANGMATCHES(LANG(?text), "en"))
        }""",
}


def main() -> None:
    dataset = load_bsbm(products=200)
    print(f"BSBM dataset: {dataset.total_triples} triples")
    engine = TurboHomPPEngine()
    try:
        engine.load(dataset.store)
        for description, sparql in QUERIES.items():
            result = engine.query(sparql)
            print(f"\n--- {description}")
            print(f"    {len(result)} solutions; first 3:")
            for row in result.rows[:3]:
                printable = {var: getattr(value, "lexical", str(value)) for var, value in row.items()}
                print(f"    {printable}")
    finally:
        engine.close()


if __name__ == "__main__":
    main()
