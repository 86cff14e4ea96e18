"""Query texts and their expected answers, computed from the generated documents.

The answers are derived without the store or the engine: from each generated
version document the benchmark keeps, per graph, the serialized triples
(its own N-Triples rendering, not converg's), and builds the TSV the query
must print. A whole result is compared by SHA-256, so every byte counts.

The five classes are the paper queries of tests/fixtures/queries, rewritten
for the BSBM vocabulary the generator emits.
"""

from __future__ import annotations

import hashlib

BSBM = "http://www4.wiwiss.fu-berlin.de/bizer/bsbm/"
RATING = f"<{BSBM}v01/vocabulary/rating2>"
RDF_TYPE = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
PRODUCT = f"<{BSBM}v01/vocabulary/Product>"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"

CLASSES = ("all_versions", "count_by_version", "max_by_version", "distinct_versions_by_graph", "graph_diff")

_PREFIXES = """PREFIX vers: <urn:converg:vocab:>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX bsbm: <http://www4.wiwiss.fu-berlin.de/bizer/bsbm/>
"""

_TEXTS = {
    "all_versions": """SELECT ?version ?subj ?obj WHERE {
    GRAPH ?vng { ?subj bsbm:v01/vocabulary/rating2 ?obj . }
    ?vng vers:is-in-version ?version .
}""",
    "count_by_version": """SELECT ?version COUNT(?subj) WHERE {
    GRAPH ?vng { ?subj bsbm:v01/vocabulary/rating2 ?obj . }
    ?vng vers:is-in-version ?version .
} GROUP BY ?version""",
    "max_by_version": """SELECT ?version MAX(?o) WHERE {
    GRAPH ?vng {
        ?s bsbm:v01/vocabulary/rating2 ?o .
    }
    ?vng vers:is-in-version ?version .
} GROUP BY ?version""",
    "distinct_versions_by_graph": """SELECT ?graph COUNT(DISTINCT ?version) WHERE {
    GRAPH ?vng { ?subj rdf:type bsbm:v01/vocabulary/Product . }
    ?vng vers:is-in-version ?version ;
         vers:is-version-of ?graph .
} GROUP BY ?graph""",
    "graph_diff": """SELECT ?subj ?pred ?obj WHERE {
{ SELECT ?subj ?pred ?obj WHERE {
    GRAPH <urn:converg:vng:%d> { ?subj ?pred ?obj . }
} } MINUS {
    SELECT ?subj ?pred ?obj WHERE {
    GRAPH <urn:converg:vng:%d> { ?subj ?pred ?obj . }
} } }""",
}


def query_text(cls: str, params=None) -> str:
    body = _TEXTS[cls] % params if params is not None else _TEXTS[cls]
    return _PREFIXES + body + "\n"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def render(term) -> str:
    """N-Triples form of the terms the generator emits (IRIs and plain-digit
    typed literals); anything else is outside what this oracle can render."""
    if term.kind == "iri":
        return f"<{term.lexical}>"
    if term.kind == "literal" and term.language is None and term.lexical.isdigit():
        return f'"{term.lexical}"^^<{term.datatype}>' if term.datatype else f'"{term.lexical}"'
    raise ValueError(f"oracle cannot render {term!r}")


def _integer(n: int) -> str:
    return f'"{n}"^^<{XSD_INTEGER}>'


def _version(m: int) -> str:
    return f"<urn:converg:version:{m}>"


def _tsv(columns, rows) -> bytes:
    rows = sorted(rows)
    return "".join("\t".join(r) + "\n" for r in [columns] + rows).encode("utf-8")


class Expected:
    """What the store must hold and answer after each of the first k versions."""

    def __init__(self):
        self.versions: list[dict[str, list[tuple[str, str, str]]]] = []  # graph -> triples
        self.quads: list[int] = []
        self.new_entries: list[int] = []
        self.vngs: list[tuple[int, str, int]] = []  # (counter, graph, ordinal), minting order
        self._seen: set = set()
        self._cache: dict = {}

    def add_version(self, doc) -> None:
        graphs: dict[str, list[tuple[str, str, str]]] = {}
        keys = set()
        for q in doc.quads:
            g = render(q.graph)
            triple = (render(q.subject), render(q.predicate), render(q.object))
            keys.add((g,) + triple)
            graphs.setdefault(g, []).append(triple)
        ordinal = len(self.versions) + 1
        for g in graphs:
            self.vngs.append((len(self.vngs) + 1, g, ordinal))
        self.versions.append(graphs)
        self.quads.append(len(keys))
        self.new_entries.append(len(keys - self._seen))
        self._seen |= keys

    def entries(self, k: int) -> int:
        return sum(self.new_entries[:k])

    def flat_quads(self, k: int) -> int:
        return sum(self.quads[:k])

    def vng_counters(self, k: int) -> list[tuple[int, str, int]]:
        return [v for v in self.vngs if v[2] <= k]

    def answer(self, cls: str, k: int, params=None) -> tuple[str, int]:
        """(sha256 of the TSV, data rows) for `cls` over versions 1..k."""
        key = (cls, k, params)
        if key not in self._cache:
            columns, rows = getattr(self, "_" + cls)(k, params)
            self._cache[key] = (digest(_tsv(columns, rows)), len(rows))
        return self._cache[key]

    def diff_rows(self, params) -> set[tuple[str, str, str]]:
        return set(self._graph_diff(None, params)[1])

    def _ratings(self, k: int):
        for m, graphs in enumerate(self.versions[:k], start=1):
            for triples in graphs.values():
                for s, p, o in triples:
                    if p == RATING:
                        yield m, s, o

    def _all_versions(self, k, _params):
        return ("version", "subj", "obj"), [(_version(m), s, o) for m, s, o in self._ratings(k)]

    def _count_by_version(self, k, _params):
        counts: dict[int, int] = {}
        for m, _s, _o in self._ratings(k):
            counts[m] = counts.get(m, 0) + 1
        return ("version", "agg1"), [(_version(m), _integer(c)) for m, c in counts.items()]

    def _max_by_version(self, k, _params):
        best: dict[int, tuple[int, str]] = {}
        for m, _s, o in self._ratings(k):
            value = int(o[1 : o.index('"', 1)])
            if m not in best or value > best[m][0]:
                best[m] = (value, o)
        return ("version", "agg1"), [(_version(m), o) for m, (_v, o) in best.items()]

    def _distinct_versions_by_graph(self, k, _params):
        versions: dict[str, set[int]] = {}
        for m, graphs in enumerate(self.versions[:k], start=1):
            for g, triples in graphs.items():
                if any(p == RDF_TYPE and o == PRODUCT for _s, p, o in triples):
                    versions.setdefault(g, set()).add(m)
        return ("graph", "agg1"), [(g, _integer(len(ms))) for g, ms in versions.items()]

    def _graph_diff(self, _k, params):
        (_ca, ga, ma), (_cb, gb, mb) = (self.vngs[c - 1] for c in params)
        minus = set(self.versions[mb - 1][gb])
        return ("subj", "pred", "obj"), [t for t in set(self.versions[ma - 1][ga]) if t not in minus]
