import functools
import logging
import random
from collections import Counter
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from conftest import (
    BUILDINGS_V1_ROWS,
    BUILDINGS_V2_ROWS,
    GR_LYON,
    HEIGHT,
    IGN,
    query_path,
    read_query,
)
import converg.engine as engine
from converg.engine import (
    ResultTable,
    Rows,
    _bit_counts,
    _CondensedEvaluator,
    _group,
    _table,
    eval_oracle,
    eval_select,
    execute_plan,
    execute_query,
)
from converg.errors import EvalError, ParseError
from converg.gen import GenConfig, generate_version
from converg.model import XSD, blank, iri, literal, version_iri
from converg.nquads import parse_nquads
from converg.sparql import Bgp, GraphPat, SelectAgg, TriplePattern, Var, column_names, parse_query, validate_and_name
from converg.store import Store, render_bitmap
from randcases import (
    PREDICATE_POOL,
    SUBJECT_POOL,
    check_against_oracle,
    check_output,
    folds,
    random_query,
    random_store,
    random_wide_store,
    reference_output,
    rows_counter,
    run_differential_case,
)

DECIMAL = XSD + "decimal"
INTEGER = XSD + "integer"


def _height(value):
    return literal(value, datatype=DECIMAL)


def _pattern(s, p, o):
    return TriplePattern(s, p, o)


def _plan(text):
    return validate_and_name(parse_query(text))


def _versioned_rows(store, patterns):
    """(binding, graph id, bits) rows of GRAPH ?g { patterns }."""
    return _CondensedEvaluator(store).eval(GraphPat(Var("g"), Bgp(tuple(patterns))), None).rows


# ------------------------------------------------- condensed BGP matching


def test_two_pattern_bgp_ands_bitmaps(buildings_store):
    rows = _versioned_rows(
        buildings_store,
        [
            _pattern(Var("s"), HEIGHT, _height("10.5")),
            _pattern(Var("s2"), HEIGHT, _height("15")),
        ],
    )
    assert len(rows) == 1
    binding, graph_id, bits = rows[0]
    assert binding == {"s": iri("urn:ex:bldg1"), "s2": iri("urn:ex:bldg3")}
    assert buildings_store.dictionary.decode(graph_id) == GR_LYON
    assert render_bitmap(bits, 2) == "01"


def test_single_pattern_bitmaps_per_graph(buildings_store):
    rows = _versioned_rows(buildings_store, [_pattern(Var("s"), HEIGHT, Var("o"))])
    lyon_id = buildings_store.dictionary.lookup(GR_LYON)
    rendered = sorted(
        render_bitmap(bits, 2) for _b, g, bits in rows if g == lyon_id
    )
    assert rendered == ["01", "10", "11"]


def test_non_matching_bgp_is_empty(buildings_store):
    rows = _versioned_rows(buildings_store, [_pattern(Var("s"), iri("urn:ex:nothere"), Var("o"))])
    assert rows == []


def test_bitmap_and_soundness_exhaustive(buildings_store):
    """Every emitted bit must agree with a per-version flat re-evaluation."""
    store = buildings_store
    flat: dict[tuple, set] = {}
    for quad in store.export_flat():
        if quad.graph is None:
            continue
        pair = store.resolve_vng(quad.graph)
        flat.setdefault(pair, set()).add(quad.triple())
    objects = [_height(v) for v in ("10.5", "9.1", "11", "15")] + [Var("o")]
    bgps = [[_pattern(Var("s"), HEIGHT, o)] for o in objects]
    bgps += [
        [_pattern(Var("s"), HEIGHT, a), _pattern(Var("s2"), HEIGHT, b)]
        for a in objects
        for b in objects
    ]
    for bgp in bgps:
        for binding, graph_id, bits in _versioned_rows(store, bgp):
            for ordinal in range(1, store.version_count + 1):
                triples = flat.get((graph_id, ordinal), set())

                def instantiate(pattern):
                    out = []
                    for atom in (pattern.subject, pattern.predicate, pattern.object):
                        out.append(binding[atom.name] if isinstance(atom, Var) else atom)
                    return tuple(out)

                all_match = all(instantiate(p) in triples for p in bgp)
                bit_set = bool(bits >> (ordinal - 1) & 1)
                assert bit_set == all_match


# ------------------------------------------------------------------ GRAPH


def test_graph_variable_expansion_matches_raw_rows(buildings_store):
    table = execute_query(buildings_store, read_query("all_versions.rq"))
    assert len(table.rows) == 6
    expected = Counter()
    for ordinal, rows in ((1, BUILDINGS_V1_ROWS), (2, BUILDINGS_V2_ROWS)):
        for s, o, _g in rows:
            expected[(version_iri(ordinal), iri(f"urn:ex:{s}"), _height(o))] += 1
    assert Counter(table.rows) == expected


def test_graph_constant_target(buildings_store):
    table = execute_query(
        buildings_store, "SELECT ?s ?p ?o WHERE { GRAPH <urn:converg:vng:2> { ?s ?p ?o . } }"
    )
    assert table.rows == [(iri("urn:ex:bldg1"), HEIGHT, _height("11"))]


def test_graph_unknown_or_plain_iri_is_empty(buildings_store):
    for target in ("urn:example:unknown", "urn:ng:Gr-Lyon"):
        table = execute_query(
            buildings_store, f"SELECT ?s WHERE {{ GRAPH <{target}> {{ ?s ?p ?o . }} }}"
        )
        assert table.rows == []


# ------------------------------------------------------------------- join


A, B, C = iri("urn:a"), iri("urn:b"), iri("urn:c")


def _plain(rows) -> Rows:
    """(solution, bits) pairs as plain rows."""
    return Rows(Store(), [(solution, None, bits) for solution, bits in rows])


def eval_join(left, right) -> list:
    """The evaluator's join of plain rows given as (solution, bits) pairs."""
    joined = _CondensedEvaluator(Store()).join(_plain(left), _plain(right))
    return [(solution, bits) for solution, _graph_id, bits in joined.rows]


def eval_minus(left, right) -> list:
    """The evaluator's MINUS of plain rows given as (solution, bits) pairs."""
    names = {name for solution, _bits in left for name in solution}
    kept = _CondensedEvaluator(Store()).minus(_plain(left), _plain(right), names)
    return [(solution, bits) for solution, _graph_id, bits in kept.rows]


def test_join_with_empty_is_empty():
    assert eval_join([], [({"x": A}, -1)]) == []
    assert eval_join([({"x": A}, -1)], []) == []


def test_join_with_unit_is_identity():
    rows = [({"x": A}, -1), ({"x": B}, 0b10)]
    assert eval_join(rows, [({}, -1)]) == rows
    assert eval_join([({}, -1)], rows) == rows


def test_join_multiplicity_is_product():
    left = [({"x": A}, -1), ({"x": A}, -1)]
    right = [({"x": A, "y": C}, -1)] * 3
    assert len(eval_join(left, right)) == 6


def test_join_ands_two_different_bitmaps():
    left = [({"x": A}, 0b0110)]
    right = [({"x": A, "y": B}, 0b0011), ({"x": A, "y": C}, 0b1000), ({"x": B}, 0b1111)]
    assert eval_join(left, right) == [({"x": A, "y": B}, 0b0010)]
    # a shared variable unbound in some row: rows pair by compatibility
    right = [({"x": A, "y": B}, 0b0011), ({"y": C}, 0b0100), ({"x": B}, 0b0100)]
    assert eval_join(left, right) == [({"x": A, "y": B}, 0b0010), ({"x": A, "y": C}, 0b0100)]


def test_metadata_join_decorates_with_version(buildings_store):
    plan = _plan(read_query("all_versions.rq"))
    solutions = eval_select(buildings_store, plan).flat(-1).rows
    rows = [solution for solution, _graph_id, _bits in solutions]
    assert [bits for _solution, _graph_id, bits in solutions] == [-1] * len(rows)
    columns = column_names(plan)
    oracle_columns, oracle_rows = eval_oracle(list(buildings_store.export_flat()), plan)
    assert columns == oracle_columns
    assert rows_counter(columns, rows) == rows_counter(columns, oracle_rows)


# ------------------------------------------------------------------ minus


def test_minus_diff_query_matches_set_difference(buildings_store):
    table = execute_query(buildings_store, read_query("graph_diff.rq"))
    expected = sorted(
        (s, p, o)
        for (s, p, o) in (
            set(
                (iri(f"urn:ex:{s}"), HEIGHT, _height(o))
                for s, o, g in BUILDINGS_V2_ROWS
                if g == GR_LYON
            )
            - set(
                (iri(f"urn:ex:{s}"), HEIGHT, _height(o))
                for s, o, g in BUILDINGS_V1_ROWS
                if g == GR_LYON
            )
        )
    )
    assert table.rows == expected
    assert table.rows == [(iri("urn:ex:bldg3"), HEIGHT, _height("15"))]


def test_minus_self_is_empty():
    rows = [({"x": A}, -1), ({"x": B}, 0b11)]
    assert eval_minus(rows, rows) == []


def test_minus_with_disjoint_variables_keeps_left():
    left = [({"x": A}, 0b1)]
    right = [({"y": B}, -1)]
    assert eval_minus(left, right) == left


def test_minus_partial_domain_overlap():
    left = [({"x": A, "y": B}, -1)]
    right = [({"x": A, "z": C}, -1)]
    assert eval_minus(left, right) == []
    right2 = [({"x": iri("urn:other"), "z": C}, -1)]
    assert eval_minus(left, right2) == left


def test_minus_clears_only_the_overlapping_bits():
    left = [({"x": A, "y": B}, 0b0111)]
    # same domain as the shared key, and a partial domain overlap
    assert eval_minus(left, [({"x": A}, 0b0010)]) == [({"x": A, "y": B}, 0b0101)]
    assert eval_minus(left, [({"x": A, "z": C}, 0b1100)]) == [({"x": A, "y": B}, 0b0011)]
    assert eval_minus(left, [({"x": A}, 0b0010), ({"y": B}, 0b0101)]) == []


def test_minus_never_grows_and_join_unit_identity_random():
    rng = random.Random(8)
    pool = [iri(f"urn:v:{i}") for i in range(4)]

    def rows(n):
        return [
            ({name: rng.choice(pool) for name in rng.sample("wxyz", rng.randint(1, 3))}, rng.randint(1, 15))
            for _ in range(n)
        ]

    for _ in range(100):
        left, right = rows(rng.randint(0, 12)), rows(rng.randint(0, 12))
        out = eval_minus(left, right)
        assert len(out) <= len(left)
        for solution, bits in out:  # bits are only ever cleared
            assert any(solution is l and bits and not bits & ~l_bits for l, l_bits in left)
        assert eval_join(left, [({}, -1)]) == left


# -------------------------------------------------------------- aggregates


def test_max_by_version_matches_brute_force(buildings_store):
    # Brute-force oracle over the raw rows, numeric comparison.
    expected = {}
    for ordinal, rows in ((1, BUILDINGS_V1_ROWS), (2, BUILDINGS_V2_ROWS)):
        best = max(rows, key=lambda r: Decimal(r[1]))
        expected[version_iri(ordinal)] = _height(best[1])
    assert expected == {
        version_iri(1): _height("11"),
        version_iri(2): _height("15"),
    }
    table = execute_query(buildings_store, read_query("max_by_version.rq"))
    assert dict(table.rows) == expected


def test_count_by_version_matches_row_counts(buildings_store):
    expected = {
        version_iri(1): literal(str(len(BUILDINGS_V1_ROWS)), datatype=INTEGER),
        version_iri(2): literal(str(len(BUILDINGS_V2_ROWS)), datatype=INTEGER),
    }
    table = execute_query(buildings_store, read_query("count_by_version.rq"))
    assert dict(table.rows) == expected


def _group_solutions(solutions, group_by, aggregates):
    """`_group` over plain solutions, each entering as a row of bits -1 the
    way a top-level pattern's solutions do."""
    rows = Rows(Store(), [(solution, None, -1) for solution in solutions])
    return [result for result, _ordinal in _group(rows, group_by, aggregates)]


def test_group_aggregate_on_empty_input_with_group_by():
    out = _group_solutions([], (Var("g"),), [(SelectAgg("COUNT", False, Var("x")), "n")])
    assert out == []


def test_aggregate_only_group_over_empty_input():
    out = _group_solutions([], None, [(SelectAgg("COUNT", False, Var("x")), "n")])
    assert out == [{"n": literal("0", datatype=INTEGER)}]
    out = _group_solutions([], None, [(SelectAgg("MAX", False, Var("x")), "m")])
    assert out == [{}]


def test_count_distinct_versus_plain():
    rows = [{"g": iri("urn:g"), "x": iri("urn:a")}] * 3 + [
        {"g": iri("urn:g"), "x": iri("urn:b")}
    ]
    plain = _group_solutions(rows, (Var("g"),), [(SelectAgg("COUNT", False, Var("x")), "n")])
    distinct = _group_solutions(rows, (Var("g"),), [(SelectAgg("COUNT", True, Var("x")), "n")])
    assert plain[0]["n"] == literal("4", datatype=INTEGER)
    assert distinct[0]["n"] == literal("2", datatype=INTEGER)


def test_sum_over_non_numeric_names_group():
    rows = [{"g": iri("urn:g"), "x": literal("red")}]
    with pytest.raises(EvalError, match=r"SUM over non-numeric term \"red\" in group \(<urn:g>\)"):
        _group_solutions(rows, (Var("g"),), [(SelectAgg("SUM", False, Var("x")), "s")])


def test_sum_integer_and_decimal_typing():
    ints = [{"x": literal("2", datatype=INTEGER)}, {"x": literal("3", datatype=INTEGER)}]
    out = _group_solutions(ints, None, [(SelectAgg("SUM", False, Var("x")), "s")])
    assert out[0]["s"] == literal("5", datatype=INTEGER)
    mixed = ints + [{"x": _height("0.5")}]
    out = _group_solutions(mixed, None, [(SelectAgg("SUM", False, Var("x")), "s")])
    assert out[0]["s"] == literal("5.5", datatype=DECIMAL)


def test_unbound_aggregate_arguments_are_skipped():
    rows = [{"g": iri("urn:g"), "x": literal("1", datatype=INTEGER)}, {"g": iri("urn:g")}]
    out = _group_solutions(rows, (Var("g"),), [(SelectAgg("COUNT", False, Var("x")), "n")])
    assert out[0]["n"] == literal("1", datatype=INTEGER)


def test_per_bit_sum_over_non_numeric_names_the_version_of_its_group():
    store = Store()
    store.ingest_version(parse_nquads('<urn:a> <urn:p> "1"^^<http://www.w3.org/2001/XMLSchema#integer> <urn:g> .\n'))
    store.ingest_version(parse_nquads('<urn:a> <urn:p> "red" <urn:g> .\n'))
    text = (
        "SELECT ?version (SUM(?o) AS ?s) WHERE { GRAPH ?vng { ?a <urn:p> ?o . } "
        "?vng <urn:converg:vocab:is-in-version> ?version . } GROUP BY ?version"
    )
    assert folds(store, _plan(text))
    with pytest.raises(EvalError, match=r'term "red" in group \(<urn:converg:version:2>\)$'):
        execute_query(store, text)


# ---------------------------------------------------------- fast count path


def _count_by_version_plan(bgp_text):
    return _plan(
        f"SELECT ?version COUNT(?s) WHERE {{ GRAPH ?g {{ {bgp_text} }} "
        "?g <urn:converg:vocab:is-in-version> ?version . } GROUP BY ?version"
    )


def test_fast_count_vector(buildings_store):
    plan = _count_by_version_plan("?s <urn:ex:height> ?o .")
    assert folds(buildings_store, plan)
    table = check_against_oracle(buildings_store, plan)
    counts = {version: int(count.lexical) for version, count in table.rows}
    assert counts == {version_iri(1): 3, version_iri(2): 3}


def test_fast_count_zero_vector(buildings_store):
    plan = _count_by_version_plan("?s <urn:ex:nothere> ?o .")
    assert folds(buildings_store, plan)
    assert check_against_oracle(buildings_store, plan).rows == []


def test_fast_path_is_detected_and_used(buildings_store):
    plan = _plan(read_query("count_by_version.rq"))
    assert folds(buildings_store, plan)
    check_against_oracle(buildings_store, plan)
    # COUNT DISTINCT of a per-row variable by version folds too
    distinct_text = read_query("count_by_version.rq").replace("COUNT(?subj", "COUNT(DISTINCT ?subj")
    assert folds(buildings_store, _plan(distinct_text))
    check_against_oracle(buildings_store, _plan(distinct_text))
    # and a query whose graph and version variables coincide is no link:
    # it is matched against the metadata and meets the GRAPH rows as a mask
    degenerate = _plan(
        "SELECT ?vng COUNT(?s) WHERE { GRAPH ?vng { ?s ?p ?o . } "
        "?vng <urn:converg:vocab:is-in-version> ?vng . } GROUP BY ?vng"
    )
    assert folds(buildings_store, degenerate)
    check_against_oracle(buildings_store, degenerate)


def test_fast_path_equals_naive_pipeline_random():
    rng = random.Random(77)
    for _ in range(200):
        store, _ = random_store(rng)
        patterns = []
        for _n in range(rng.randint(1, 2)):
            subject = Var(rng.choice("ab")) if rng.random() < 0.8 else rng.choice(SUBJECT_POOL)
            obj = Var(rng.choice("xy")) if rng.random() < 0.6 else rng.choice(SUBJECT_POOL)
            patterns.append(_pattern(subject, rng.choice(PREDICATE_POOL), obj))
        arg_vars = sorted(
            {a.name for p in patterns for a in (p.subject, p.object) if isinstance(a, Var)}
        )
        if not arg_vars:
            continue
        body = " ".join(
            " ".join(
                f"?{a.name}" if isinstance(a, Var) else f"<{a.lexical}>"
                for a in (p.subject, p.predicate, p.object)
            )
            + " ."
            for p in patterns
        )
        text = (
            f"SELECT ?version COUNT(?{rng.choice(arg_vars)}) WHERE {{ "
            f"GRAPH ?vng {{ {body} }} "
            f"?vng <urn:converg:vocab:is-in-version> ?version . }} GROUP BY ?version"
        )
        plan = _plan(text)
        assert folds(store, plan), text
        check_against_oracle(store, plan)


def test_group_by_version_folds_over_minus_inside_graph(buildings_store):
    plan = _plan(
        "SELECT ?version (COUNT(?s) AS ?n) WHERE { GRAPH ?vng { { ?s <urn:ex:height> ?o . } "
        "MINUS { ?s <urn:ex:height> \"10.5\"^^<http://www.w3.org/2001/XMLSchema#decimal> . } } "
        "?vng <urn:converg:vocab:is-in-version> ?version . } GROUP BY ?version"
    )
    assert folds(buildings_store, plan)
    table = check_against_oracle(buildings_store, plan)
    # bldg1 is 10.5 in both versions of Gr-Lyon and in version 2 of IGN
    expected = {}
    for ordinal, raw in ((1, BUILDINGS_V1_ROWS), (2, BUILDINGS_V2_ROWS)):
        dropped = {(s, g) for s, o, g in raw if o == "10.5"}
        expected[version_iri(ordinal)] = sum(1 for s, o, g in raw if (s, g) not in dropped)
    assert {version: int(n.lexical) for version, n in table.rows} == expected


def test_grouped_sub_select_inside_graph_runs_per_version(buildings_store):
    plan = _plan(
        "SELECT ?version ?n WHERE { GRAPH ?vng { { SELECT (COUNT(?s) AS ?n) WHERE "
        "{ ?s <urn:ex:height> ?o . } } } ?vng <urn:converg:vocab:is-in-version> ?version . }"
    )
    table = check_against_oracle(buildings_store, plan)
    expected = Counter()
    for ordinal, raw in ((1, BUILDINGS_V1_ROWS), (2, BUILDINGS_V2_ROWS)):
        for graph in (GR_LYON, IGN):
            expected[(version_iri(ordinal), sum(1 for *_r, g in raw if g == graph))] += 1
    assert Counter((version, int(n.lexical)) for version, n in table.rows) == expected


def test_unbound_aggregate_alias_inside_graph_is_no_key_error(buildings_store):
    empty = "WHERE { ?s <urn:ex:nothere> ?o . }"
    # MAX over nothing leaves the alias unbound: GRAPH then binds ?vng, and
    # the link binds ?v once per version
    plan = _plan(f"SELECT ?vng WHERE {{ GRAPH ?vng {{ {{ SELECT (MAX(?o) AS ?vng) {empty} }} }} }}")
    assert len(check_against_oracle(buildings_store, plan).rows) == len(buildings_store.vng_records)
    plan = _plan(
        f"SELECT ?vng ?v WHERE {{ GRAPH ?vng {{ {{ SELECT (MIN(?o) AS ?v) {empty} }} }} "
        "?vng <urn:converg:vocab:is-in-version> ?v . }"
    )
    table = check_against_oracle(buildings_store, plan)
    assert Counter(table.rows) == Counter(
        (rec.vng_iri, version_iri(rec.ordinal)) for rec in buildings_store.vng_records
    )


@pytest.mark.parametrize("alias", ["_path0", "k"])
def test_a_sub_select_alias_does_not_capture_a_path_hop(alias):
    # The hop variable is named past every variable the query spells, so
    # the alias ?_path0 is a column of its own, as ?k is.
    store = Store()
    store.ingest_version(parse_nquads("<urn:a> <urn:p> <urn:b> <urn:g> .\n<urn:b> <urn:q> <urn:c> <urn:g> .\n"))
    text = (
        "PREFIX vers: <urn:converg:vocab:>\n"
        "SELECT ?s ?n WHERE {\n"
        "  GRAPH ?g {\n"
        f"    {{ SELECT (COUNT(?o) AS ?{alias}) WHERE {{ ?a <urn:p> ?o . }} }}\n"
        "    ?s <urn:p>/<urn:q> ?x .\n"
        "  }\n"
        "  ?g vers:is-in-version ?v ; vers:is-version-of ?n .\n"
        "}\n"
    )
    assert execute_query(store, text).rows == [(iri("urn:a"), iri("urn:g"))]
    check_against_oracle(store, _plan(text))


@pytest.mark.parametrize(
    "text",
    [
        "SELECT ?a WHERE { GRAPH ?vng { ?a <urn:nothing> ?b . } "
        "{ SELECT (SUM(?o) AS ?s) WHERE { GRAPH ?g { ?x ?y ?o . } } } }",
        "SELECT ?a WHERE { GRAPH ?vng { ?a <urn:nothing> ?b . } "
        "MINUS { SELECT (SUM(?o) AS ?a) WHERE { GRAPH ?g { ?x ?y ?o . } } } }",
    ],
    ids=["join", "minus"],
)
def test_an_error_in_a_part_after_an_empty_one_is_raised(text):
    store = Store()
    store.ingest_version(parse_nquads('<urn:s> <urn:p> "red" <urn:g> .\n'))
    plan = _plan(text)
    with pytest.raises(EvalError, match="SUM over non-numeric"):
        eval_oracle(list(store.export_flat()), plan)
    with pytest.raises(EvalError, match="SUM over non-numeric"):
        execute_plan(store, plan)


# ------------------------------------------------------------ executeQuery


def test_execute_query_is_deterministic(buildings_store):
    text = read_query("all_versions.rq")
    first = execute_query(buildings_store, text).to_tsv()
    second = execute_query(buildings_store, text).to_tsv()
    assert first == second


def test_execute_query_rejects_bad_syntax(buildings_store):
    with pytest.raises(ParseError):
        execute_query(buildings_store, "SELECT WHERE")


def test_result_serialization_formats(buildings_store):
    table = execute_query(buildings_store, read_query("max_by_version.rq"))
    tsv = table.to_tsv()
    assert tsv.splitlines()[0] == "version\tagg1"
    assert '"11"^^<http://www.w3.org/2001/XMLSchema#decimal>' in tsv
    csv_text = table.to_csv()
    assert csv_text.splitlines()[0] == "version,agg1"
    assert csv_text.count("\n") == 3


FIXTURE_QUERIES = (
    "all_versions",
    "count_by_version",
    "distinct_versions_by_graph",
    "graph_diff",
    "max_by_version",
)


def _refuse_rows(table):
    raise AssertionError("the output stage decoded result rows")


@pytest.mark.parametrize("name", FIXTURE_QUERIES)
def test_fixture_query_output_matches_golden(buildings_store, monkeypatch, name):
    # TSV and CSV are written from the lines alone: no row is decoded.
    with monkeypatch.context() as patch:
        patch.setattr(ResultTable, "rows", property(_refuse_rows))
        table = execute_query(buildings_store, read_query(f"{name}.rq"))
        for suffix, produced in (("tsv", table.to_tsv()), ("csv", table.to_csv())):
            with open(query_path(f"{name}.{suffix}"), "r", encoding="utf-8", newline="") as fh:
                assert produced == fh.read(), f"{name}.{suffix}"
    # Read afterwards, the rows are the oracle's, in the order of the lines.
    oracle = eval_oracle(list(buildings_store.export_flat()), _plan(read_query(f"{name}.rq")))
    rows, tsv, _csv = reference_output(*oracle)
    assert (table.rows, table.to_tsv()) == (rows, tsv)


def test_unknown_vng_warns_through_the_engine_logger(buildings_store, caplog):
    caplog.set_level(logging.WARNING, logger="converg.engine")
    table = execute_query(buildings_store, "SELECT ?s WHERE { GRAPH <urn:converg:vng:99> { ?s ?p ?o . } }")
    assert table.lines == [] and table.rows == []
    assert [(r.name, r.getMessage()) for r in caplog.records] == [
        ("converg.engine", "GRAPH names <urn:converg:vng:99>, which is not a versioned graph; empty match")
    ]


def test_result_rows_sort_on_the_tuple_of_cell_texts():
    # Cell texts that are prefixes of one another or hold control
    # characters; each row has fresh Term objects, equal terms included.
    def cells(o, x):
        return {"o": o(), **({"x": x()} if x else {})}

    plain = lambda: literal("a")
    tagged = lambda: literal("a", language="en")
    typed = lambda: literal("a", datatype="urn:dt")
    tab = lambda: literal("a\tb")
    control = lambda: literal("a\u0001")
    short = lambda: blank("a")
    long = lambda: blank("ab")
    expected = [
        (control, None),
        (plain, None),
        (plain, short),
        (plain, long),
        (tagged, plain),
        (typed, control),
        (typed, tab),
        (tab, plain),
        (short, long),
        (long, None),
        (long, short),
    ]
    rows = [cells(o, x) for o, x in expected]
    random.Random(3).shuffle(rows)
    table = _table(("o", "x"), Rows(Store(), [(row, None, -1) for row in rows]))
    assert table.rows == [(o(), x() if x else None) for o, x in expected]
    assert table.to_tsv() == (
        "o\tx\n"
        '"a\x01"\t\n'
        '"a"\t\n'
        '"a"\t_:a\n'
        '"a"\t_:ab\n'
        '"a"@en\t"a"\n'
        '"a"^^<urn:dt>\t"a\x01"\n'
        '"a"^^<urn:dt>\t"a\\tb"\n'
        '"a\\tb"\t"a"\n'
        "_:a\t_:ab\n"
        "_:ab\t\n"
        "_:ab\t_:a\n"
    )
    assert table.to_csv().splitlines()[1:4] == ['"""a\x01""",', '"""a""",', '"""a""",_:a']


_lexicals = st.text(st.characters(blacklist_categories=("Cs",)), max_size=3)
_cells = st.one_of(
    st.none(),
    st.builds(literal, _lexicals),
    st.builds(lambda s, tag: literal(s, language=tag), _lexicals, st.sampled_from(["e", "en", "en-GB"])),
    st.builds(lambda s, dt: literal(s, datatype=dt), _lexicals, st.sampled_from(["urn:d", "urn:dt"])),
    st.builds(lambda s: iri("urn:" + s), st.text("ab:~\x7f", max_size=3)),
    st.builds(lambda s: blank("a" + s), st.text("ab0_-", max_size=3)),
)


@functools.cache
def _two_graph_store() -> Store:
    """66 versions, each minting a vng for urn:g:1 and for urn:g:2."""
    store = Store()
    for _ in range(66):
        store.ingest_version(parse_nquads("<urn:s> <urn:p> <urn:o> <urn:g:1> .\n<urn:s> <urn:p> <urn:o> <urn:g:2> .\n"))
    return store


@given(
    st.lists(
        st.tuples(_cells, _cells, _cells, st.sampled_from([0, 1]), st.integers(1, (1 << 66) - 1)),
        max_size=25,
    ),
    st.permutations(("a", "b", "c", "y", "z")),
    st.integers(0, 4),
)
def test_result_table_matches_the_naive_reference_on_any_terms(rows, names, version_count):
    columns = ("a", "b", "c")
    solutions = [{name: t for name, t in zip(columns, row) if t is not None} for row in rows]
    table = _table(columns, Rows(store := _two_graph_store(), [(s, None, -1) for s in solutions]))
    assert (table.rows, table.to_tsv(), table.to_csv()) == reference_output(columns, solutions)
    # Condensed: ?vng and the version variables take any columns, or none
    # (?y and ?z are not projected); each row stands for a solution per bit.
    graph_ids = list(store.minted_versions())
    vng_var, version_vars = names[0], names[1 : 1 + version_count]
    per_bit = {vng_var, *version_vars}
    vrows = Rows(
        store,
        [
            ({name: t for name, t in zip(columns, row) if t is not None and name not in per_bit}, graph_ids[g], bits)
            for *row, g, bits in rows
        ],
        vng_var,
        version_vars,
    )
    table = _table(columns, vrows)
    expanded = [solution for solution, _graph_id, _bits in vrows.flat(-1).rows]
    rows, tsv, csv_text = reference_output(columns, expanded)
    # Rows are decoded from the lines on first read, after the text is out,
    # and kept.
    assert (table.to_tsv(), table.to_csv(), table.rows) == (tsv, csv_text, rows)
    assert table.rows is table.rows


_LINKED = (
    "PREFIX vers: <urn:converg:vocab:>\n"
    "SELECT %s WHERE { GRAPH ?vng { ?s ?p ?o . } ?vng vers:is-in-version ?v1 . "
    "?vng vers:is-in-version ?v2 . ?vng vers:is-version-of ?graph . }"
)


@pytest.mark.parametrize("wide", [False, True], ids=["buildings", "wide"])
@pytest.mark.parametrize(
    "projection",
    [
        "?vng ?v1 ?v2 ?graph ?s",
        "?s ?graph ?v2 ?v1 ?vng",
        "?v1 ?s ?vng ?v2 ?graph",
        "?graph ?v2 ?s ?vng",
        "?v2 ?o ?s",
        "?o ?v1 ?graph",
        "?vng",
        "?s ?o",
    ],
)
def test_condensed_output_matches_the_oracle_in_any_column_layout(buildings_store, wide, projection):
    store = random_wide_store(random.Random(64)) if wide else buildings_store
    text = _LINKED % projection
    rows = _CondensedEvaluator(store).eval(_plan(text).pattern, None)
    assert rows.vng_var == "vng"
    table = check_output(store, text, eval_oracle(list(store.export_flat()), _plan(text)))
    if "?vng" not in projection and "?graph" not in projection:
        # bldg1 is 10.5 in both graphs in version 2, and the wide store
        # draws the quads of its two graphs from one pool: lines recur.
        assert len(set(table.lines)) < len(table.lines)


_EVERY_VERSION = "GRAPH ?vng { ?s ?p ?o . } ?vng <urn:converg:vocab:is-in-version> ?version ."
_OUTPUT_LAYOUTS = {
    "version first": f"SELECT ?version ?s ?o WHERE {{ {_EVERY_VERSION} }}",
    "version alone": f"SELECT ?version WHERE {{ {_EVERY_VERSION} }}",
    "version last": f"SELECT ?s ?o ?version WHERE {{ {_EVERY_VERSION} }}",
    "vng, then version": f"SELECT ?vng ?s ?version WHERE {{ {_EVERY_VERSION} }}",
    "version, then vng": f"SELECT ?version ?o ?vng WHERE {{ {_EVERY_VERSION} }}",
    "two versions of one vng": "SELECT ?v2 ?s ?v1 WHERE { GRAPH ?vng { ?s ?p ?o . } "
    "?vng <urn:converg:vocab:is-in-version> ?v1 . ?vng <urn:converg:vocab:is-in-version> ?v2 . }",
    "no per-bit column": f"SELECT ?s ?o WHERE {{ {_EVERY_VERSION} }}",
    "grouped, rows repeat": "SELECT ?n ?version WHERE { { SELECT ?s ?version (COUNT(?o) AS ?n) "
    f"WHERE {{ {_EVERY_VERSION} }} GROUP BY ?s ?version }} }}",
    "empty": "SELECT ?version ?s WHERE { GRAPH ?vng { ?s <urn:p:none> ?o . } "
    "?vng <urn:converg:vocab:is-in-version> ?version . }",
    "every cell unbound": "SELECT (MAX(?o) AS ?m) WHERE { GRAPH ?vng { ?s <urn:p:none> ?o . } }",
    "only per-bit columns": f"SELECT ?vng ?version WHERE {{ {_EVERY_VERSION} }}",
    "one term, many objects": f"SELECT ?s ?version ?o WHERE {{ {_EVERY_VERSION} ?x <urn:p:about> ?s . }}",
}


@functools.cache
def _layout_store(versions: int) -> Store:
    # 13 versions: <urn:converg:version:10> sorts before <urn:converg:version:2>.
    store = random_wide_store(random.Random(versions), versions)
    # Each metadata triple holds its own copy of its subject IRI, two per IRI.
    store.add_metadata([(iri(f"urn:x:{i}"), iri("urn:p:about"), SUBJECT_POOL[i % 6]) for i in range(12)])
    return store


@pytest.mark.parametrize("versions", [13, 67])
@pytest.mark.parametrize("layout", list(_OUTPUT_LAYOUTS))
def test_every_output_layout_matches_the_naive_reference(layout, versions):
    store = _layout_store(versions)
    text = _OUTPUT_LAYOUTS[layout]
    table = check_output(store, text, eval_oracle(list(store.export_flat()), _plan(text)))
    if layout == "empty":
        assert table.lines == []
    elif layout == "every cell unbound":
        assert table.to_tsv() == "m\n\n" and table.rows == [(None,)]
    elif layout in ("version alone", "no per-bit column", "grouped, rows repeat", "only per-bit columns"):
        assert len(set(table.lines)) < len(table.lines)
    else:
        assert len(table.lines) > versions
    if layout == "one term, many objects":
        # The column's equal terms are distinct objects, and the rows hold them.
        rows = _CondensedEvaluator(store).eval(_plan(text).pattern, None)
        subjects = [binding["s"] for binding, _graph_id, _bits in rows.rows]
        assert len(set(map(id, subjects))) > len(set(subjects)) > 1


def test_ungrouped_versioned_rows_reach_the_output_stage_unexpanded(buildings_store, monkeypatch):
    def refuse(self, scope):
        raise AssertionError("versioned rows expanded before the output stage")

    monkeypatch.setattr(Rows, "flat", refuse)
    table = execute_query(buildings_store, read_query("all_versions.rq"))
    for suffix, produced in (("tsv", table.to_tsv()), ("csv", table.to_csv())):
        with open(query_path(f"all_versions.{suffix}"), "r", encoding="utf-8", newline="") as fh:
            assert produced == fh.read(), f"all_versions.{suffix}"


_LINK = "?vng <urn:converg:vocab:is-in-version> ?version ."
_GROUPED_WITHOUT_EXPANSION = [
    f"SELECT ?{key} ({aggregate} AS ?a) WHERE {{ GRAPH ?vng {{ ?s ?p ?o . }} {_LINK} }} GROUP BY ?{key}"
    for key in ("version", "vng")
    for aggregate in ("COUNT(DISTINCT ?s)", "COUNT(DISTINCT ?o)", "SUM(?o)", "MAX(?vng)", "MIN(?version)")
] + [
    "SELECT ?vng ?version ?s ?n WHERE { GRAPH ?vng { { SELECT ?s (SUM(?o) AS ?n) "
    f"WHERE {{ ?s ?p ?o . }} GROUP BY ?s }} }} {_LINK} }}",
    "SELECT ?vng ?n WHERE { GRAPH ?vng { { SELECT (COUNT(DISTINCT ?o) AS ?n) WHERE { ?s ?p ?o . } } } }",
]


@pytest.mark.parametrize(
    "store_kind, text",
    [
        (kind, text)
        for text in _GROUPED_WITHOUT_EXPANSION
        for kind in ("buildings", "numeric", "wide")
        if kind != "wide" or "SUM" not in text  # the wide store holds non-numeric objects
    ],
)
def test_no_group_by_expands_versioned_rows(buildings_store, monkeypatch, store_kind, text):
    store = {
        "buildings": buildings_store,
        "numeric": random_store(random.Random(41), numeric_only=True)[0],
        "wide": random_wide_store(random.Random(64)),
    }[store_kind]

    def refuse(self, scope):
        raise AssertionError("versioned rows expanded for GROUP BY")

    monkeypatch.setattr(Rows, "flat", refuse)
    table = check_against_oracle(store, _plan(text))
    assert table.rows


_CROSS_VERSION = {
    "grouped-metadata-join": "SELECT ?sc (COUNT(?s) AS ?n) WHERE { GRAPH ?vng { ?s ?p ?o . } "
    "?vng vers:is-in-version ?v . ?v ex:scenario ?sc . } GROUP BY ?sc",
    "ungrouped-metadata-filter": "SELECT ?vng ?s WHERE { GRAPH ?vng { ?s ?p ?o . } "
    '?vng vers:is-in-version ?v . ?v ex:scenario "A" . }',
    "version-left-minus": "SELECT ?vng ?s ?o WHERE { { GRAPH ?vng { ?s ?p ?o . } "
    "?vng vers:is-in-version ?version . } MINUS { GRAPH ?w { ?s ?p ?o . } "
    "?w vers:is-in-version <urn:converg:version:1> . } }",
}


@pytest.mark.parametrize("store_kind", ["generated", "wide"])
@pytest.mark.parametrize("shape", list(_CROSS_VERSION))
def test_cross_version_shapes_stay_condensed(monkeypatch, store_kind, shape):
    # Versions whose metadata says X, and "in these versions but not in
    # version 1": masks on the rows' bits, never one row per solution.
    if store_kind == "wide":
        store = random_wide_store(random.Random(64))
    else:
        store = Store()
        cfg = GenConfig(products=4, graphs=2, versions=5, change_rate=0.5, seed=7)
        for ordinal in range(1, cfg.versions + 1):
            store.ingest_version(generate_version(cfg, ordinal))
    scenario = iri("urn:ex:scenario")
    store.add_metadata([(v, scenario, literal("AB"[m % 3 % 2])) for m, v in enumerate(store.version_iris())])
    text = "PREFIX vers: <urn:converg:vocab:> PREFIX ex: <urn:ex:>\n" + _CROSS_VERSION[shape]
    expected = eval_oracle(list(store.export_flat()), _plan(text))

    def refuse(self, scope):
        raise AssertionError("versioned rows expanded")

    monkeypatch.setattr(Rows, "flat", refuse)
    assert check_output(store, text, expected).rows


def test_distinct_version_count_never_exceeds_version_count():
    rng = random.Random(5)
    store, _ = random_store(rng)
    text = (
        "SELECT ?graph COUNT(DISTINCT ?version) WHERE { "
        "GRAPH ?vng { ?s ?p ?o . } "
        "?vng <urn:converg:vocab:is-in-version> ?version ; "
        "<urn:converg:vocab:is-version-of> ?graph . } GROUP BY ?graph"
    )
    table = execute_query(store, text)
    for _graph, count in table.rows:
        assert int(count.lexical) <= store.version_count


# ---------------------------------------------------------- bit counting


def _per_bit_counts(bitmaps, width):
    """COUNT at every bit position one set bit at a time: the loop that
    `_bit_counts` replaced, kept as its reference."""
    counts = [0] * width
    for bits in bitmaps:
        while bits:
            low = bits & -bits
            counts[low.bit_length() - 1] += 1
            bits ^= low
    return [literal(str(n), datatype=INTEGER) for n in counts]


@pytest.mark.parametrize("width", [0, 1, 63, 64, 65, 130])
def test_bit_counts_equal_the_per_bit_loop(width):
    rng = random.Random(width)
    for n in [0, 1, 2, 300] + [rng.randint(0, 300) for _ in range(20)]:
        density = rng.choice([0.05, 0.5, 0.95])
        bitmaps = [
            sum(1 << i for i in range(width) if rng.random() < density) for _ in range(n)
        ]
        assert _bit_counts(bitmaps, width) == _per_bit_counts(bitmaps, width), (n, density)


@pytest.mark.parametrize("width", [1, 63, 64, 65, 130])
def test_bit_counts_carry_across_planes(width):
    # A run of 2**k - 1 equal bitmaps fills k planes; one more carries into
    # plane k, at every position the bitmap sets.
    rng = random.Random(width)
    full = (1 << width) - 1
    patterns = [full, 1 << (width - 1), full // 3, rng.getrandbits(width)]
    for k in range(9):
        for run in sorted({1, 2**k - 1, 2**k, 2**k + 1} - {0}):
            for bits in patterns:
                bitmaps = [bits] * run
                assert _bit_counts(bitmaps, width) == _per_bit_counts(bitmaps, width), (run, bits)
                # after other bitmaps, so the carry meets planes already set
                mixed = [rng.getrandbits(width) for _ in range(5)] + bitmaps
                assert _bit_counts(mixed, width) == _per_bit_counts(mixed, width), (run, bits)


# ------------------------------------------------------------- differential


def test_engine_matches_oracle_on_fixture_queries(buildings_store):
    flat = list(buildings_store.export_flat())
    for name in (
        "all_versions.rq",
        "graph_diff.rq",
        "max_by_version.rq",
        "count_by_version.rq",
    ):
        plan = _plan(read_query(name))
        table = execute_plan(buildings_store, plan)
        columns_o, rows_o = eval_oracle(flat, plan)
        assert table.columns == columns_o
        assert Counter(table.rows) == rows_counter(columns_o, rows_o)


def test_distinct_versions_by_graph_over_a_generated_store_matches_golden_and_oracle():
    # The buildings fixtures state no bsbm Product, so this query's other
    # golden files hold only a header; the generated store types every product.
    cfg = GenConfig(products=3, graphs=2, versions=4, change_rate=0.5, seed=7)
    store = Store()
    for ordinal in range(1, cfg.versions + 1):
        store.ingest_version(generate_version(cfg, ordinal))
    text = read_query("distinct_versions_by_graph.rq")
    produced = execute_query(store, text).to_tsv()
    with open(query_path("distinct_versions_by_graph.generated.tsv"), "r", encoding="utf-8", newline="") as fh:
        assert produced == fh.read()
    assert produced.count("\n") == 1 + cfg.graphs
    _rows, oracle_tsv, _csv = reference_output(*eval_oracle(list(store.export_flat()), _plan(text)))
    assert produced == oracle_tsv


def test_oracle_on_empty_store():
    plan = _plan("SELECT ?s WHERE { GRAPH ?g { ?s ?p ?o . } }")
    assert eval_oracle([], plan) == (("s",), [])
    table = execute_plan(Store(), plan)
    assert (table.columns, table.rows) == (("s",), [])


def test_differential_equivalence_quick():
    rng = random.Random(123456)
    outcomes = Counter(run_differential_case(rng) for _ in range(150))
    assert outcomes["ok"] > 0


def test_differential_equivalence_wide_stores():
    store = random_wide_store(random.Random(64))
    assert store.version_count > 64
    assert any(bits >> 64 for bits in store.entries.values())
    rng = random.Random(6464)
    outcomes = Counter(run_differential_case(rng, wide=True) for _ in range(40))
    assert outcomes["ok"] > 0


def _cross_version_minus(rng, store) -> str:
    """A random query whose top-level MINUS subtracts a GRAPH ?w block, linked
    to a version, from a GRAPH ?vng block."""
    while True:
        text = random_query(rng, store)
        if "GRAPH ?vng {" in text and "GRAPH ?w {" in text:
            return text


def test_cross_version_minus_is_keyed_and_matches_the_oracle(monkeypatch):
    def refuse(a, b):
        raise AssertionError("MINUS compared rows pairwise")

    rng = random.Random(1201)
    wide = random_wide_store(random.Random(64))
    cases = [random_store(rng)[0] for _ in range(200)] + [wide] * 40
    outcomes = Counter()
    for store in cases:
        text = _cross_version_minus(rng, store)
        query = _plan(text)
        try:
            expected = eval_oracle(list(store.export_flat()), query)
        except EvalError:
            expected = None
        with monkeypatch.context() as patch:
            patch.setattr(engine, "compatible", refuse)
            if expected is None:
                with pytest.raises(EvalError):
                    execute_plan(store, query)
                outcomes["error-agree"] += 1
            else:
                table = check_output(store, text, expected)
                outcomes["rows" if table.rows else "empty"] += 1
    assert outcomes["rows"] > 20, outcomes


@functools.cache
def _nesting_store() -> Store:
    """5 products in 2 graphs over 2 versions."""
    cfg = GenConfig(products=5, graphs=2, versions=2, change_rate=0.5, seed=3)
    store = Store()
    for ordinal in (1, 2):
        store.ingest_version(generate_version(cfg, ordinal))
    return store


def _nested_graph_query(depth: int) -> str:
    return "SELECT ?s WHERE { " + "GRAPH ?g { " * depth + "?s ?p ?o . " + "} " * depth + "}"


def test_a_nested_graph_block_runs_once_per_query(monkeypatch):
    store = _nesting_store()
    expected = execute_query(store, _nested_graph_query(1)).to_tsv()
    calls = []
    match = engine._match_bgp_in_graph
    monkeypatch.setattr(engine, "_match_bgp_in_graph", lambda *args: calls.append(args[2]) or match(*args))
    assert execute_query(store, _nested_graph_query(127)).to_tsv() == expected
    assert sorted(calls) == sorted(store.minted_versions())  # once per graph id


@pytest.mark.parametrize("depth", [2, 3, 6])
def test_nested_graph_blocks_match_the_oracle(depth):
    store = _nesting_store()
    text = _nested_graph_query(depth)
    check_output(store, text, eval_oracle(list(store.export_flat()), _plan(text)))
