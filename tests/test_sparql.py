import copy
import pickle
import random
import re
from collections import Counter

import pytest

from conftest import read_query
from converg.engine import eval_oracle, execute_query
from converg.errors import ParseError, QueryValidationError, UnsupportedQueryError
from converg.model import RDF_TYPE, XSD, Term, iri, literal
from converg.nquads import parse_nquads
from converg.sparql import (
    MAX_GROUP_DEPTH,
    SUPPORTED_SUBSET,
    Bgp,
    GraphPat,
    Join,
    Minus,
    Query,
    SelectAgg,
    SelectVar,
    SubSelect,
    TriplePattern,
    Var,
    column_names,
    parse_query,
    validate_and_name,
    visible_vars,
)
from converg.store import Store

LISTING_STYLE_ALL = """
PREFIX vers: <urn:converg:vocab:>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?version ?subj ?obj WHERE {
    GRAPH ?vng { ?subj rdf:type ?obj . }
    ?vng vers:is-in-version ?version .
}
"""

LISTING_STYLE_DISTINCT = """
PREFIX vers: <urn:converg:vocab:>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?graph COUNT(DISTINCT ?version) WHERE {
    GRAPH ?vng { ?subj rdf:type "sensor" . }
    ?vng vers:is-in-version ?version ;
         vers:is-version-of ?graph .
} GROUP BY ?graph
"""


def test_graph_plus_metadata_join_structure():
    q = parse_query(LISTING_STYLE_ALL)
    assert [type(i) for i in q.projection] == [SelectVar, SelectVar, SelectVar]
    assert isinstance(q.pattern, Join) and len(q.pattern.parts) == 2
    graph_part, meta_part = q.pattern.parts
    assert isinstance(graph_part, GraphPat)
    assert graph_part.target == Var("vng")
    assert graph_part.inner == Bgp(
        (TriplePattern(Var("subj"), iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"), Var("obj")),)
    )
    assert meta_part == Bgp(
        (TriplePattern(Var("vng"), iri("urn:converg:vocab:is-in-version"), Var("version")),)
    )


def test_count_distinct_with_property_list():
    q = parse_query(LISTING_STYLE_DISTINCT)
    assert q.group_by == (Var("graph"),)
    agg = q.projection[1]
    assert agg == SelectAgg("COUNT", True, Var("version"), None)
    graph_part = q.pattern.parts[0]
    assert graph_part.inner.patterns[0].object == literal("sensor")
    meta = q.pattern.parts[1]
    assert len(meta.patterns) == 2
    assert meta.patterns[0].subject == meta.patterns[1].subject == Var("vng")


def test_projected_variable_must_be_visible():
    with pytest.raises(QueryValidationError, match="not visible"):
        parse_query("SELECT ?x WHERE { ?y <urn:p> ?z . }")


def test_unknown_prefix_is_a_parse_error():
    with pytest.raises(ParseError, match="unknown prefix"):
        parse_query("SELECT ?s WHERE { ?s ex:p ?o . }")


@pytest.mark.parametrize(
    "keyword,text",
    [
        ("FILTER", "SELECT ?s WHERE { ?s <urn:p> ?o . FILTER(?o > 1) }"),
        ("OPTIONAL", "SELECT ?s WHERE { ?s <urn:p> ?o . OPTIONAL { ?s <urn:q> ?x . } }"),
        ("UNION", "SELECT ?s WHERE { { ?s <urn:p> ?o . } UNION { ?s <urn:q> ?o . } }"),
        ("ORDER", "SELECT ?s WHERE { ?s <urn:p> ?o . } ORDER BY ?s"),
        ("LIMIT", "SELECT ?s WHERE { ?s <urn:p> ?o . } LIMIT 5"),
    ],
)
def test_unsupported_operators_are_named(keyword, text):
    with pytest.raises(UnsupportedQueryError) as exc:
        parse_query(text)
    assert keyword in str(exc.value)
    assert "SELECT, GRAPH" in str(exc.value)


def nested_groups(depth: int) -> str:
    """A query whose WHERE group and groups inside it nest `depth` deep
    around one triple pattern; group k opens at column 15 + 2k."""
    return "SELECT ?s WHERE " + "{ " * depth + "?s ?p ?o ." + " }" * depth


def test_groups_nest_as_deep_as_the_limit():
    store = Store()
    store.ingest_version(parse_nquads("<urn:s> <urn:p> <urn:o> <urn:g> .\n"))
    store.add_metadata([(iri("urn:d"), iri("urn:note"), literal("x"))])
    text = nested_groups(MAX_GROUP_DEPTH)
    table = execute_query(store, text)
    # the default graph: the two links of the one vng, and the note
    assert table.rows == [(iri("urn:converg:vng:1"),)] * 2 + [(iri("urn:d"),)]
    columns, rows = eval_oracle(list(store.export_flat()), parse_query(text))
    assert Counter(table.rows) == Counter(tuple(row.get(c) for c in columns) for row in rows)
    # GRAPH and MINUS blocks are groups too
    graphs = "SELECT ?s WHERE { " + "GRAPH ?g { " * (MAX_GROUP_DEPTH - 1) + "?s ?p ?o ." + " }" * MAX_GROUP_DEPTH
    assert isinstance(parse_query(graphs).pattern, GraphPat)


@pytest.mark.parametrize("depth", [MAX_GROUP_DEPTH + 1, 500])
def test_groups_nested_past_the_limit_are_a_positioned_parse_error(depth):
    with pytest.raises(ParseError) as exc:
        parse_query(nested_groups(depth))
    assert (exc.value.line, exc.value.column) == (1, 15 + 2 * (MAX_GROUP_DEPTH + 1))
    assert f"groups nested more than {MAX_GROUP_DEPTH} deep" in str(exc.value)
    minus = "SELECT ?s WHERE { ?s ?p ?o . " + "MINUS { ?s ?p ?o . " * MAX_GROUP_DEPTH + "}" * (MAX_GROUP_DEPTH + 1)
    with pytest.raises(ParseError, match="groups nested more than"):
        parse_query(minus)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_query("SELECT ?s WHERE {\n ?s <urn:p> }")
    assert exc.value.line == 2
    assert exc.value.column is not None


@pytest.mark.parametrize("text", ["", "ASK {}", "  \n# only a comment\n"])
def test_a_missing_select_states_the_expectation_once(text):
    with pytest.raises(ParseError) as exc:
        parse_query(text)
    assert str(exc.value).count("SELECT") == 1
    assert str(exc.value).endswith(": expected SELECT")


@pytest.mark.parametrize("newline", ["\n", "\r", "\r\n"])
def test_comments_and_lines_end_at_lf_cr_or_crlf(newline):
    text = newline.join(
        ["# a comment", "SELECT ?s # another", "WHERE { ?s <urn:p> ?o . }", "# last"]
    )
    q = parse_query(text)
    assert q.projection == (SelectVar(Var("s")),)
    with pytest.raises(ParseError) as exc:
        parse_query(text.replace("?o .", "?o . ]"))
    assert (exc.value.line, exc.value.column) == (3, 25)


def test_aggregate_mixed_with_plain_needs_group_by():
    with pytest.raises(QueryValidationError, match="GROUP BY"):
        parse_query("SELECT ?s COUNT(?o) WHERE { ?s <urn:p> ?o . }")


def test_aggregate_only_projection_without_group_by_is_fine():
    q = parse_query("SELECT COUNT(?o) WHERE { ?s <urn:p> ?o . }")
    assert column_names(q) == ("agg1",)


def test_projected_var_must_be_grouped():
    with pytest.raises(QueryValidationError, match="GROUP BY"):
        parse_query("SELECT ?o COUNT(?s) WHERE { ?s <urn:p> ?o . } GROUP BY ?s")


def test_group_by_variable_must_be_visible():
    q = parse_query("SELECT ?s WHERE { ?s <urn:p> ?o . } GROUP BY ?s")
    assert q.group_by == (Var("s"),)
    bad = Query((SelectVar(Var("s")),), q.pattern, (Var("nope"), Var("s")))
    with pytest.raises(QueryValidationError, match="GROUP BY variable"):
        validate_and_name(bad)


def test_alias_and_parenthesized_aggregates():
    q1 = parse_query("SELECT MAX(?o) AS ?top WHERE { ?s <urn:p> ?o . }")
    q2 = parse_query("SELECT (MAX(?o) AS ?top) WHERE { ?s <urn:p> ?o . }")
    assert q1.projection == q2.projection == (SelectAgg("MAX", False, Var("o"), "top"),)
    assert column_names(q1) == ("top",)


def test_select_star_is_rejected():
    with pytest.raises(ParseError, match="SELECT \\*"):
        parse_query("SELECT * WHERE { ?s <urn:p> ?o . }")


def test_object_and_property_lists_expand():
    q = parse_query(
        "SELECT ?s WHERE { ?s <urn:p> ?a , ?b ; <urn:q> ?c . }"
    )
    pats = q.pattern.patterns
    assert [(p.predicate, p.object) for p in pats] == [
        (Term("iri", "urn:p"), Var("a")),
        (Term("iri", "urn:p"), Var("b")),
        (Term("iri", "urn:q"), Var("c")),
    ]
    assert all(p.subject == Var("s") for p in pats)


def test_a_keyword_desugars_to_rdf_type():
    q = parse_query("SELECT ?s WHERE { ?s a <urn:Class> . }")
    assert q.pattern.patterns[0].predicate == RDF_TYPE


def test_slashed_local_name_expands_as_one_iri():
    q = parse_query(
        "PREFIX bsbm: <http://www4.wiwiss.fu-berlin.de/bizer/bsbm/>\n"
        "SELECT ?o WHERE { ?s bsbm:v01/vocabulary/rating2 ?o . }"
    )
    assert q.pattern.patterns[0].predicate == iri(
        "http://www4.wiwiss.fu-berlin.de/bizer/bsbm/v01/vocabulary/rating2"
    )


@pytest.mark.parametrize("step", ["ex:p2", ":p2", "<urn:ex:p2>"])
def test_a_prefixed_name_ends_before_the_next_path_step(step):
    prefixes = "PREFIX ex: <urn:ex:>\nPREFIX : <urn:ex:>\n"
    q = parse_query(f"{prefixes}SELECT ?s WHERE {{ ?s ex:p1/{step} ?o . }}")
    hop = q.pattern.patterns[0].object
    assert q.pattern.patterns == (
        TriplePattern(Var("s"), iri("urn:ex:p1"), hop),
        TriplePattern(hop, iri("urn:ex:p2"), Var("o")),
    )
    # a slashed local name stays one IRI, and a path may follow it
    q = parse_query(f"{prefixes}SELECT ?s WHERE {{ ?s ex:v01/vocabulary/rating2/{step} ?o . }}")
    assert [p.predicate for p in q.pattern.patterns] == [
        iri("urn:ex:v01/vocabulary/rating2"),
        iri("urn:ex:p2"),
    ]


def test_a_prefixed_names_local_part_takes_non_ascii_letters():
    q = parse_query("PREFIX ex: <urn:x:> SELECT ?s WHERE { ?s ex:caf\u00e9 ?o . }")
    assert q.pattern.patterns == (TriplePattern(Var("s"), iri("urn:x:caf\u00e9"), Var("o")),)
    q = parse_query("PREFIX ex: <urn:x:> SELECT ?s WHERE { ?s ex:\u00e9t\u00e9/ex:th\u00e9 ?o . }")
    assert [p.predicate for p in q.pattern.patterns] == [iri("urn:x:\u00e9t\u00e9"), iri("urn:x:th\u00e9")]


def test_iri_path_desugars_with_fresh_variable():
    q = parse_query("SELECT ?s ?o WHERE { ?s <urn:p1>/<urn:p2> ?o . }")
    pats = q.pattern.patterns
    assert len(pats) == 2
    hop = pats[0].object
    assert isinstance(hop, Var) and hop.name.startswith("_path")
    assert pats[0] == TriplePattern(Var("s"), iri("urn:p1"), hop)
    assert pats[1] == TriplePattern(hop, iri("urn:p2"), Var("o"))


def test_query_nodes_compare_and_hash_by_type_and_fields():
    def bgp():
        return Bgp((TriplePattern(Var("s"), iri("urn:p"), Var("o")),))

    pairs = [
        (Bgp((bgp(),)), Join((bgp(),))),
        (Minus(bgp(), Bgp(())), GraphPat(bgp(), Bgp(()))),
        (Var("s"), SelectVar("s")),
    ]
    for a, b in pairs:
        assert a != b and hash(a) != hash(b)
    assert Join((bgp(),)) == Join((bgp(),)) and hash(Join((bgp(),))) == hash(Join((bgp(),)))
    assert Var("s") != ("s",)
    assert SelectAgg("COUNT", False, Var("s")) == SelectAgg("COUNT", False, Var("s"), None)
    assert Query((), bgp()) == Query((), bgp(), None)
    with pytest.raises(TypeError):
        Minus(bgp())


def test_query_nodes_are_immutable_and_copy_equal():
    query = parse_query(LISTING_STYLE_DISTINCT)
    with pytest.raises(AttributeError):
        query.pattern = None
    with pytest.raises(AttributeError):
        query.pattern.parts[0].target = Var("other")
    with pytest.raises(AttributeError):
        del query.projection
    assert copy.deepcopy(query) == query == pickle.loads(pickle.dumps(query))
    assert repr(Var("s")) == "Var(name='s')"


def test_validate_is_idempotent():
    for text in [
        LISTING_STYLE_ALL,
        LISTING_STYLE_DISTINCT,
        "SELECT ?s ?o WHERE { ?s <urn:p1>/<urn:p2> ?o . }",
    ]:
        query = parse_query(text)
        assert validate_and_name(query) is query
        assert validate_and_name(validate_and_name(query)) == query


def test_duplicate_columns_are_rejected():
    with pytest.raises(QueryValidationError, match="duplicate"):
        validate_and_name(parse_query("SELECT ?s ?s WHERE { ?s <urn:p> ?o . }"))


def test_minus_binds_everything_to_its_left():
    q = parse_query(
        "SELECT ?s WHERE { ?s <urn:p> ?o . GRAPH ?g { ?s <urn:q> ?x . } MINUS { ?s <urn:p> ?y . } }"
    )
    assert isinstance(q.pattern, Minus)
    assert isinstance(q.pattern.left, Join)


def test_subselect_projection_is_visible_outside():
    q = parse_query(
        "SELECT ?s WHERE { { SELECT ?s WHERE { ?s <urn:p> ?o . } } ?s <urn:q> ?z . }"
    )
    assert isinstance(q.pattern, Join)
    assert visible_vars(q.pattern) == {"s", "z"}


def test_fixture_queries_parse(tmp_path):
    for name in (
        "all_versions.rq",
        "graph_diff.rq",
        "max_by_version.rq",
        "count_by_version.rq",
        "distinct_versions_by_graph.rq",
    ):
        assert isinstance(validate_and_name(parse_query(read_query(name))), Query)


def test_benchmark_style_aggregate_texts_parse():
    preamble = (
        "PREFIX vers: <urn:converg:vocab:>\n"
        "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
        "PREFIX bsbm: <http://www4.wiwiss.fu-berlin.de/bizer/bsbm/>\n"
    )
    texts = [
        "SELECT ?version MAX(?o) WHERE {\n"
        "    GRAPH ?vng {\n"
        "        ?s bsbm:v01/vocabulary/rating2 ?o .\n"
        "    }\n"
        "    ?vng vers:is-in-version ?version .\n"
        "} GROUP BY ?version",
        "SELECT ?version COUNT(?subj) WHERE {\n"
        "    GRAPH ?vng { ?subj rdf:type ?obj . }\n"
        "    ?vng vers:is-in-version ?version .\n"
        "} GROUP BY ?version",
        "SELECT ?graph COUNT(?obj) WHERE {\n"
        "    GRAPH ?vng { ?subj rdf:type ?obj . }\n"
        "    ?vng vers:is-version-of ?graph .\n"
        "} GROUP BY ?graph",
    ]
    for text in texts:
        assert validate_and_name(parse_query(preamble + text)).group_by is not None




# Malformed query terms, with the line, column and message of their error.
MALFORMED_TERMS = [
    ('SELECT ?s WHERE { ?s <urn:p> "x"@123 . }', 1, 33, "malformed language tag: '123'"),
    ('SELECT ?s WHERE {\n  ?s <urn:p> "x"@en- . }', 2, 17, "malformed language tag: 'en-'"),
    ('SELECT ?s WHERE { ?s <urn:p> "x"@abcdefghij . }', 1, 33, "malformed language tag"),
    ("SELECT ?s WHERE { ?s <> ?o . }", 1, 22, "IRI must be non-empty"),
    ('SELECT ?s WHERE { ?s <urn:p> "x"^^<> . }', 1, 35, "IRI must be non-empty"),
    ("PREFIX e: <>\nSELECT ?s WHERE { ?s e: ?o . }", 2, 22, "IRI must be non-empty"),
    ("SELECT ?s WHERE { GRAPH <> { ?s ?p ?o . } }", 1, 25, "IRI must be non-empty"),
    ('SELECT ?s WHERE { ?s <urn:p> "\\U00110000" . }', 1, 30, "escape beyond the Unicode range"),
    ('SELECT ?s WHERE {\n  ?s <urn:p> "a\\uD800" . }', 2, 14, "escape names a surrogate code point"),
    # numbers are ASCII digits only: other Unicode digits are no term
    ("SELECT ?s WHERE { ?s <urn:p> \u00b2 . }", 1, 30, "expected an object"),
    ("SELECT ?s WHERE { ?s <urn:p> \u0663 . }", 1, 30, "expected an object"),
    ("SELECT ?s WHERE { ?s <urn:p> 1\u00b2 . }", 1, 31, "expected a triple pattern"),
    # a word that holds a non-ASCII letter is quoted whole
    ("SELECT ?s WHERE { ?s <urn:p> \u00e9 . }", 1, 30, "unexpected word '\u00e9'"),
    ("PREFIX \u00e9: <urn:x:>\nSELECT ?s WHERE { ?s ?p ?o . }", 1, 8, "unexpected word '\u00e9'"),
    ("SELECT ?s WHERE { ?s <urn:p> a\u00e9 . }", 1, 30, "unexpected word 'a\u00e9'"),
    # a path of prefixed names is no subject or object
    ("PREFIX ex: <urn:ex:>\nSELECT ?s WHERE { ex:a/ex:b <urn:p> ?o . }", 2, 23, "expected a predicate"),
    ("PREFIX ex: <urn:ex:>\nSELECT ?s WHERE { ?s <urn:p> ex:a/ex:b . }", 2, 34, "expected a triple pattern"),
    # STRING_LITERAL2 excludes a raw line feed and a raw carriage return
    ('SELECT ?s WHERE { ?s ?p "a\nb" . }', 1, 25, "unterminated string"),
    ('SELECT ?s WHERE { ?s ?p "a\rb" . }', 1, 25, "unterminated string"),
]


@pytest.mark.parametrize("text,line,column,message", MALFORMED_TERMS)
def test_malformed_query_terms_are_positioned_parse_errors(text, line, column, message):
    with pytest.raises(ParseError) as exc:
        parse_query(text)
    assert (exc.value.line, exc.value.column) == (line, column)
    assert message in str(exc.value)


# Every error the lexer raises, with its message and position.
LEXER_ERRORS = [
    ("SELECT ?s WHERE { ?s <urn:p ?o . }", ParseError, "unterminated IRI", 1, 22),
    ("SELECT ?s WHERE { ?s <urn:p x> ?o . }", ParseError, "IRI may not contain whitespace or '<'", 1, 22),
    ("SELECT ?s WHERE { ?s <urn:<p> ?o . }", ParseError, "IRI may not contain whitespace or '<'", 1, 22),
    ("SELECT ? WHERE { ?s ?p ?o . }", ParseError, "variable name expected after '?'", 1, 8),
    ("SELECT ?1a WHERE { ?s ?p ?o . }", ParseError, "variable name expected after '?'", 1, 8),
    ('SELECT ?s WHERE { ?s ?p "x"@ . }', ParseError, "language tag expected after '@'", 1, 28),
    ('SELECT ?s WHERE { ?s ?p "a\\q" . }', ParseError, "unsupported escape \\q", 1, 25),
    ('SELECT ?s WHERE { ?s ?p "a\\u12" . }', ParseError, "malformed \\u escape", 1, 25),
    ('SELECT ?s WHERE { ?s ?p "a\\', ParseError, "dangling escape", 1, 25),
    ('SELECT ?s WHERE { ?s ?p "abc', ParseError, "unterminated string", 1, 25),
    # CRLF ends one line, and a tab is one column
    ("SELECT ?s WHERE {\r\n\t?s ?p $o . }", ParseError, "unexpected word 'o'", 2, 9),
    # a bare CR ends a line too
    (
        "SELECT ?s WHERE {\r ?s ?p ?o . } LIMIT 3",
        UnsupportedQueryError,
        f"unsupported operator LIMIT; this engine covers {SUPPORTED_SUBSET}",
        2,
        15,
    ),
    ("SELECT ?s WHERE { ?s ?p ?o . } foo", ParseError, "unexpected word 'foo'", 1, 32),
]


@pytest.mark.parametrize("text,error,message,line,column", LEXER_ERRORS)
def test_every_lexer_error_is_pinned_with_its_position(text, error, message, line, column):
    with pytest.raises(ParseError) as exc:
        parse_query(text)
    assert type(exc.value) is error
    assert (exc.value.message, exc.value.line, exc.value.column) == (message, line, column)


@pytest.mark.parametrize(
    "text,line,column",
    [
        ("SELECT ?s WHERE { ?s ?p ?o . # no closing brace", 1, 48),
        ("SELECT ?s WHERE {\r\n  ?s ?p ?o . # still open", 2, 26),
        ("SELECT ?s WHERE { ?s ?p ?o .\t ", 1, 31),
    ],
)
def test_an_error_at_the_end_of_the_text_points_past_its_last_character(text, line, column):
    with pytest.raises(ParseError) as exc:
        parse_query(text)
    assert (exc.value.message, exc.value.line, exc.value.column) == ("expected '}'", line, column)


def test_literals_resolve_to_terms():
    q = parse_query(
        "PREFIX v: <urn:v:>\n"
        'SELECT ?s WHERE { ?s <urn:p> "a"@en-GB , "b"^^v:dt , "c"^^<urn:dt> , 7 , 2.5 , "d" . }'
    )
    assert [p.object for p in q.pattern.patterns] == [
        literal("a", language="en-GB"),
        literal("b", datatype="urn:v:dt"),
        literal("c", datatype="urn:dt"),
        literal("7", datatype=XSD + "integer"),
        literal("2.5", datatype=XSD + "decimal"),
        literal("d"),
    ]


def test_fresh_path_variables_skip_every_spelled_name():
    q = parse_query("SELECT ?s ?_path0 WHERE { ?s <urn:p1>/<urn:p2> ?_path0 . }")
    assert q.pattern.patterns[0].object == Var("_path1")
    # an alias is spelled too, though it never appears in a pattern
    q = parse_query(
        "SELECT ?s WHERE { { SELECT (COUNT(?o) AS ?_path0) WHERE { ?a <urn:p> ?o . } } "
        "?s <urn:p>/<urn:q>/<urn:r> ?x . }"
    )
    hops = [p.object for p in q.pattern.parts[1].patterns[:2]]
    assert hops == [Var("_path1"), Var("_path2")]


# ----------------------------------------- generated texts and their queries

_PREAMBLE = "PREFIX ex: <urn:ex:>\nPREFIX v: <urn:v:>\n"
_VAR_POOL = ("a", "b", "c", "s", "_path1")
_ALIASES = (None, "total", "_path0")


class _QueryGen:
    """Random query text together with the `Query` the parser must build
    from it. Path hops are numbered `#0`, `#1`, ... in text order, and
    renamed once the whole text, and so every spelled name, is known."""

    def __init__(self, rng):
        self.rng = rng
        self.hops = 0

    def hop(self) -> Var:
        self.hops += 1
        return Var(f"#{self.hops - 1}")

    def subject(self):
        roll = self.rng.random()
        if roll < 0.5:
            name = self.rng.choice(_VAR_POOL)
            return f"?{name}", Var(name)
        if roll < 0.75:
            k = self.rng.randrange(5)
            return f"<urn:n:{k}>", iri(f"urn:n:{k}")
        k = self.rng.randrange(4)
        return f"ex:s{k}", iri(f"urn:ex:s{k}")

    def verb(self):
        """(text, the steps of the predicate)."""
        rng = self.rng
        roll = rng.random()
        if roll < 0.2:
            name = rng.choice("pq")
            return f"?{name}", [Var(name)]
        if roll < 0.35:
            k = rng.randrange(3)
            return f"v:p{k}", [iri(f"urn:v:p{k}")]
        if roll < 0.45:
            return "a", [RDF_TYPE]
        if roll < 0.5:
            return "ex:v01/vocabulary/rating", [iri("urn:ex:v01/vocabulary/rating")]
        if roll < 0.7:
            texts, steps = ["ex:hop"], [iri("urn:ex:hop")]
            if rng.random() < 0.5:
                k = rng.randrange(3)
                texts, steps = [f"<urn:p:{k}>"], [iri(f"urn:p:{k}")]
            for _ in range(rng.randint(1, 2)):
                k = rng.randrange(3)
                texts.append(f"<urn:p:{k}>")
                steps.append(iri(f"urn:p:{k}"))
            return "/".join(texts), steps
        k = rng.randrange(3)
        return f"<urn:p:{k}>", [iri(f"urn:p:{k}")]

    def object(self):
        rng = self.rng
        roll = rng.random()
        if roll < 0.35:
            name = rng.choice(_VAR_POOL + ("o",))
            return f"?{name}", Var(name)
        if roll < 0.45:
            k = rng.randrange(5)
            return f"<urn:n:{k}>", iri(f"urn:n:{k}")
        if roll < 0.55:
            k = rng.randrange(9)
            return f'"w{k}"', literal(f"w{k}")
        if roll < 0.62:
            k = rng.randrange(50)
            return f'"{k}"^^<urn:dt:int>', literal(str(k), datatype="urn:dt:int")
        if roll < 0.72:
            k = rng.randrange(9)
            return f'"t{k}"^^v:dt', literal(f"t{k}", datatype="urn:v:dt")
        if roll < 0.8:
            tag = rng.choice(("fr", "en-GB"))
            return f'"bonjour"@{tag}', literal("bonjour", language=tag)
        if roll < 0.87:
            k = rng.randrange(100)
            return str(k), literal(str(k), datatype=XSD + "integer")
        if roll < 0.93:
            return "4.25", literal("4.25", datatype=XSD + "decimal")
        return r'"say \"hi\"\té"', literal('say "hi"\té')

    def bgp(self):
        """(text, Bgp): subjects with `;` and `,` lists, in text order."""
        groups, patterns = [], []
        for _ in range(self.rng.randint(1, 2)):
            s_text, subject = self.subject()
            verbs = []
            for _ in range(self.rng.randint(1, 2)):
                v_text, steps = self.verb()
                objects = []
                for _ in range(self.rng.randint(1, 2)):
                    o_text, obj = self.object()
                    objects.append(o_text)
                    current = subject
                    for step in steps[:-1]:
                        hop = self.hop()
                        patterns.append(TriplePattern(current, step, hop))
                        current = hop
                    patterns.append(TriplePattern(current, steps[-1], obj))
                verbs.append(f"{v_text} {' , '.join(objects)}")
            groups.append(f"{s_text} {' ; '.join(verbs)}")
        return " . ".join(groups) + " .", Bgp(tuple(patterns))

    def pattern(self, depth):
        """(text as a group pattern reads it, text inside '{ }', node)."""
        roll = self.rng.random()
        if depth <= 0 or roll < 0.35:
            text, node = self.bgp()
            return text, text, node
        if roll < 0.55:
            target, target_text = Var("g"), "?g"
            if self.rng.random() < 0.4:
                target, target_text = self.rng.choice(
                    ((iri("urn:converg:vng:1"), "<urn:converg:vng:1>"), (iri("urn:ex:g1"), "ex:g1"))
                )
            inner, _, node = self.pattern(depth - 1)
            text = f"GRAPH {target_text} {{ {inner} }}"
            return text, text, GraphPat(target, node)
        if roll < 0.75:
            parts = [self.pattern(depth - 1) for _ in range(self.rng.randint(2, 3))]
            text = " ".join(f"{{ {body} }}" for _, body, _ in parts)
            return text, text, Join(tuple(node for _, _, node in parts))
        if roll < 0.9:
            left, _, left_node = self.pattern(depth - 1)
            _, right, right_node = self.pattern(depth - 1)
            text = f"{left} MINUS {{ {right} }}"
            return text, text, Minus(left_node, right_node)
        body, query = self.select(depth - 1)
        return f"{{ {body} }}", body, SubSelect(query)

    def select(self, depth):
        """(SELECT text, Query) over a random pattern."""
        rng = self.rng
        pattern_text, body, pattern = self.pattern(depth)
        if not any(not n.startswith("#") for n in visible_vars(pattern)):
            pattern_text = f"{{ ?s <urn:p:0> ?o . }} {{ {body} }}"
            pattern = Join((Bgp((TriplePattern(Var("s"), iri("urn:p:0"), Var("o")),)), pattern))
        names = sorted(n for n in visible_vars(pattern) if not n.startswith("#"))
        roll = rng.random()
        if roll < 0.6:
            chosen = rng.sample(names, rng.randint(1, len(names)))
            projection = tuple(SelectVar(Var(n)) for n in chosen)
            items, group_by = [f"?{n}" for n in chosen], None
        else:
            keys = rng.sample(names, rng.randint(1, len(names))) if roll < 0.85 else []
            func = rng.choice(("COUNT", "MAX", "MIN", "SUM"))
            distinct = rng.random() < 0.3
            arg = rng.choice(names)
            alias = rng.choice([a for a in _ALIASES if (a or "agg1") not in keys])
            agg = f"{func}({'DISTINCT ' if distinct else ''}?{arg})"
            if alias is not None:
                agg = f"({agg} AS ?{alias})" if rng.random() < 0.5 else f"{agg} AS ?{alias}"
            projection = tuple(SelectVar(Var(n)) for n in keys) + (
                SelectAgg(func, distinct, Var(arg), alias),
            )
            items = [f"?{n}" for n in keys] + [agg]
            group_by = tuple(Var(n) for n in keys) or None
        text = f"SELECT {' '.join(items)} WHERE {{ {pattern_text} }}"
        if group_by:
            text += " GROUP BY " + " ".join(f"?{v.name}" for v in group_by)
        return text, Query(projection, pattern, group_by)


def _rename(node, names):
    """`node` with each variable renamed through `names` (others kept)."""
    if isinstance(node, Var):
        return Var(names.get(node.name, node.name))
    if isinstance(node, TriplePattern):
        return TriplePattern(*(_rename(x, names) for x in (node.subject, node.predicate, node.object)))
    if isinstance(node, Bgp):
        return Bgp(tuple(_rename(p, names) for p in node.patterns))
    if isinstance(node, GraphPat):
        return GraphPat(node.target, _rename(node.inner, names))
    if isinstance(node, Join):
        return Join(tuple(_rename(p, names) for p in node.parts))
    if isinstance(node, Minus):
        return Minus(_rename(node.left, names), _rename(node.right, names))
    if isinstance(node, SubSelect):
        return SubSelect(_rename(node.query, names))
    if isinstance(node, Query):
        return Query(node.projection, _rename(node.pattern, names), node.group_by)
    return node


def generated_cases(seed, count):
    """`count` seeded (text, Query) pairs; `parse_query(text)` must equal
    the Query."""
    rng = random.Random(seed)
    for _ in range(count):
        gen = _QueryGen(rng)
        body, query = gen.select(depth=2)
        text = _PREAMBLE + body
        spelled = set(re.findall(r"\?(\w+)", text))
        fresh = (f"_path{n}" for n in range(10 ** 6) if f"_path{n}" not in spelled)
        yield text, _rename(query, {f"#{k}": next(fresh) for k in range(gen.hops)})


def test_parser_builds_the_generated_query():
    cases = list(generated_cases(20250101, 400))
    for i, (text, query) in enumerate(cases):
        assert parse_query(text) == query, f"case {i}:\n{text}"
    texts = "\n".join(text for text, _ in cases)
    for feature in ("ex:", " a ", "/<urn:p:", '"@', "^^v:dt", "GRAPH", "MINUS", "} {", "SELECT (",
                    " AS ?", "GROUP BY", "?_path1", "AS ?_path0"):
        assert feature in texts, feature
