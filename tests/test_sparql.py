import random

import pytest

from conftest import read_query
from converg.errors import ParseError, QueryValidationError, UnsupportedQueryError
from converg.model import RDF_TYPE, Term, iri
from converg.sparql import (
    A,
    AlgebraPlan,
    Bgp,
    GraphPat,
    Join,
    LiteralPat,
    Minus,
    PName,
    PathPred,
    Query,
    SelectAgg,
    SelectVar,
    TriplePattern,
    Var,
    column_names,
    parse_query,
    print_query,
    validate_and_name,
    visible_vars,
)

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
        (TriplePattern(Var("subj"), PName("rdf", "type"), Var("obj")),)
    )
    assert meta_part == Bgp(
        (TriplePattern(Var("vng"), PName("vers", "is-in-version"), Var("version")),)
    )


def test_count_distinct_with_property_list():
    q = parse_query(LISTING_STYLE_DISTINCT)
    assert q.group_by == (Var("graph"),)
    agg = q.projection[1]
    assert agg == SelectAgg("COUNT", True, Var("version"), None)
    graph_part = q.pattern.parts[0]
    assert graph_part.inner.patterns[0].object == LiteralPat("sensor")
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


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_query("SELECT ?s WHERE {\n ?s <urn:p> }")
    assert exc.value.line == 2
    assert exc.value.column is not None


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
    bad = Query((), (SelectVar(Var("s")),), q.pattern, (Var("nope"), Var("s")))
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
    assert q.pattern.patterns[0].predicate is A
    plan = validate_and_name(q)
    assert plan.query.pattern.patterns[0].predicate == RDF_TYPE


def test_slashed_local_name_expands_as_one_iri():
    q = parse_query(
        "PREFIX bsbm: <http://www4.wiwiss.fu-berlin.de/bizer/bsbm/>\n"
        "SELECT ?o WHERE { ?s bsbm:v01/vocabulary/rating2 ?o . }"
    )
    assert q.pattern.patterns[0].predicate == PName("bsbm", "v01/vocabulary/rating2")
    plan = validate_and_name(q)
    assert plan.query.pattern.patterns[0].predicate == iri(
        "http://www4.wiwiss.fu-berlin.de/bizer/bsbm/v01/vocabulary/rating2"
    )


def test_iri_path_desugars_with_fresh_variable():
    q = parse_query("SELECT ?s ?o WHERE { ?s <urn:p1>/<urn:p2> ?o . }")
    assert q.pattern.patterns[0].predicate == PathPred((iri("urn:p1"), iri("urn:p2")))
    plan = validate_and_name(q)
    pats = plan.query.pattern.patterns
    assert len(pats) == 2
    hop = pats[0].object
    assert isinstance(hop, Var) and hop.name.startswith("_path")
    assert pats[0] == TriplePattern(Var("s"), iri("urn:p1"), hop)
    assert pats[1] == TriplePattern(hop, iri("urn:p2"), Var("o"))


def test_validate_is_idempotent():
    for text in [
        LISTING_STYLE_ALL,
        LISTING_STYLE_DISTINCT,
        "SELECT ?s ?o WHERE { ?s <urn:p1>/<urn:p2> ?o . }",
    ]:
        plan1 = validate_and_name(parse_query(text))
        plan2 = validate_and_name(plan1)
        plan3 = validate_and_name(plan1.query)
        assert plan1 == plan2 == plan3


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
        plan = validate_and_name(parse_query(read_query(name)))
        assert isinstance(plan, AlgebraPlan)


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
        plan = validate_and_name(parse_query(preamble + text))
        assert plan.query.group_by is not None


# ------------------------------------------------------ print/parse cycle

_PREFIXES = (("ex", "urn:ex:"), ("v", "urn:v:"))


def _random_atom(rng, kind):
    roll = rng.random()
    if kind == "subject":
        if roll < 0.5:
            return Var(rng.choice("abcs"))
        if roll < 0.8:
            return iri(f"urn:n:{rng.randrange(5)}")
        return PName("ex", f"s{rng.randrange(4)}")
    if kind == "predicate":
        if roll < 0.25:
            return Var(rng.choice("pq"))
        if roll < 0.45:
            return PName("v", f"p{rng.randrange(3)}")
        if roll < 0.55:
            return A
        if roll < 0.7:
            first = (
                PName("ex", "hop") if rng.random() < 0.5 else iri(f"urn:p:{rng.randrange(3)}")
            )
            rest = tuple(iri(f"urn:p:{rng.randrange(3)}") for _ in range(rng.randint(1, 2)))
            return PathPred((first,) + rest)
        return iri(f"urn:p:{rng.randrange(3)}")
    if roll < 0.4:
        return Var(rng.choice("abco"))
    if roll < 0.6:
        return iri(f"urn:n:{rng.randrange(5)}")
    if roll < 0.7:
        return LiteralPat(f"w{rng.randrange(9)}")
    if roll < 0.8:
        return LiteralPat(str(rng.randrange(50)), datatype=iri("urn:dt:int"))
    if roll < 0.9:
        return LiteralPat(f"t{rng.randrange(9)}", datatype=PName("v", "dt"))
    return LiteralPat("bonjour", language="fr")


def _random_bgp(rng):
    return Bgp(
        tuple(
            TriplePattern(
                _random_atom(rng, "subject"),
                _random_atom(rng, "predicate"),
                _random_atom(rng, "object"),
            )
            for _ in range(rng.randint(1, 3))
        )
    )


def _random_pattern(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.4:
        return _random_bgp(rng)
    if roll < 0.6:
        target = Var("g") if rng.random() < 0.6 else iri("urn:converg:vng:1")
        return GraphPat(target, _random_pattern(rng, depth - 1))
    if roll < 0.8:
        return Join(tuple(_random_pattern(rng, depth - 1) for _ in range(rng.randint(2, 3))))
    return Minus(_random_pattern(rng, depth - 1), _random_pattern(rng, depth - 1))


def _random_query(rng, depth=2):
    pattern = _random_pattern(rng, depth)
    vars_in = sorted(visible_vars(pattern))
    if not vars_in:
        pattern = Join((Bgp((TriplePattern(Var("s"), iri("urn:p:0"), Var("o")),)), pattern))
        vars_in = sorted(visible_vars(pattern))
    if rng.random() < 0.3:
        group = tuple(Var(v) for v in rng.sample(vars_in, rng.randint(1, len(vars_in))))
        projection = tuple(SelectVar(v) for v in group) + (
            SelectAgg(
                rng.choice(("COUNT", "MAX", "MIN", "SUM")),
                rng.random() < 0.3,
                Var(rng.choice(vars_in)),
                rng.choice((None, "total")),
            ),
        )
        return Query(_PREFIXES, projection, pattern, group)
    names = rng.sample(vars_in, rng.randint(1, len(vars_in)))
    return Query(_PREFIXES, tuple(SelectVar(Var(v)) for v in names), pattern, None)


def test_print_parse_round_trip_on_random_asts():
    rng = random.Random(20250101)
    for i in range(300):
        query = _random_query(rng)
        text = print_query(query)
        again = parse_query(text)
        assert again == query, f"case {i}:\n{text}"
