"""Acceptance suite: every release-gating check, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import os
import random
import resource
import time
from collections import Counter
from contextlib import contextmanager
from decimal import Decimal

import pytest

from conftest import (
    BUILDINGS_V1_ROWS,
    BUILDINGS_V2_ROWS,
    build_buildings_store,
    fixture_path,
    read_query,
)
from converg.engine import execute_query
from converg.gen import GenConfig, generate_version, write_version_files
from converg.model import XSD, Quad, blank, iri, literal, version_iri
from converg.nquads import ParsedDocument, parse_nquads, serialize_nquads, serialize_term
from converg.store import Store, load_snapshot, render_bitmap, save_snapshot
from randcases import random_store, run_differential_case

DECIMAL = XSD + "decimal"
INTEGER = XSD + "integer"

WALL_BUDGET_SECONDS = 120.0
MEMORY_BUDGET_BYTES = 2 * 1024 ** 3
DIFFERENTIAL_BUDGET_SECONDS = 300.0


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


@pytest.fixture(scope="module")
def scaled(tmp_path_factory):
    """The scaled dataset: 1,000,000 quads over 1000 versioned graphs,
    generated to disk and loaded file by file like the CLI would. Each
    version then gets a metadata triple `<urn:ex:scenario> "A"` (odd
    ordinals) or `"B"` (even ones)."""
    base = tmp_path_factory.mktemp("scaled")
    cfg = GenConfig(products=500, graphs=10, versions=100, change_rate=0.1, seed=42)
    timings = {}
    start = time.monotonic()
    paths = write_version_files(cfg, base)
    timings["generate"] = time.monotonic() - start
    start = time.monotonic()
    store = Store()
    total_quads = 0
    for path in paths:
        with open(path, "rb") as fh:
            doc = parse_nquads(fh.read(), require_graph=True)
        report = store.ingest_version(doc)
        total_quads += report.quad_count
    timings["load"] = time.monotonic() - start
    scenario = iri("urn:ex:scenario")
    store.add_metadata([(v, scenario, literal("AB"[m % 2])) for m, v in enumerate(store.version_iris())])
    return store, cfg, total_quads, timings


def test_criterion_1_golden_condensation(tmp_path):
    with criterion("golden-condensation"):
        store = build_buildings_store()
        rendered = {}
        for (g, _, _, o), bits in store.entries.items():
            graph = store.dictionary.decode(g).lexical.rsplit(":", 1)[-1]
            obj = store.dictionary.decode(o).lexical
            rendered[(graph, obj)] = render_bitmap(bits, 2)
        assert rendered == {
            ("IGN", "11"): "10",
            ("IGN", "10.5"): "01",
            ("Gr-Lyon", "15"): "01",
            ("Gr-Lyon", "9.1"): "10",
            ("Gr-Lyon", "10.5"): "11",
        }
        assert len(store.entries) == 5
        save_snapshot(store, tmp_path)
        with open(os.path.join(tmp_path, "ENTRIES"), "rb") as fh:
            produced = fh.read()
        with open(fixture_path("entries.golden"), "rb") as fh:
            assert produced == fh.read()


def test_criterion_2_golden_flat_export():
    with criterion("golden-flat-export"):
        store = build_buildings_store()
        flat = list(store.export_flat())
        versioned = [q for q in flat if q.graph is not None]
        metadata = [q for q in flat if q.graph is None]
        assert len(versioned) == 6
        assert len(metadata) == 8
        pairs = {
            rec.vng_iri.lexical: (rec.graph, rec.ordinal) for rec in store.vng_records
        }
        assert pairs == {
            "urn:converg:vng:1": (iri("urn:ng:Gr-Lyon"), 1),
            "urn:converg:vng:2": (iri("urn:ng:IGN"), 1),
            "urn:converg:vng:3": (iri("urn:ng:Gr-Lyon"), 2),
            "urn:converg:vng:4": (iri("urn:ng:IGN"), 2),
        }
        by_vng = Counter(q.graph.lexical for q in versioned)
        assert by_vng == {
            "urn:converg:vng:1": 2,
            "urn:converg:vng:2": 1,
            "urn:converg:vng:3": 2,
            "urn:converg:vng:4": 1,
        }
        linking = {(q.subject.lexical, q.predicate.lexical, q.object.lexical) for q in metadata}
        for counter, (graph, ordinal) in (
            (1, ("urn:ng:Gr-Lyon", 1)),
            (2, ("urn:ng:IGN", 1)),
            (3, ("urn:ng:Gr-Lyon", 2)),
            (4, ("urn:ng:IGN", 2)),
        ):
            vng = f"urn:converg:vng:{counter}"
            assert (vng, "urn:converg:vocab:is-version-of", graph) in linking
            assert (vng, "urn:converg:vocab:is-in-version", f"urn:converg:version:{ordinal}") in linking


def test_criterion_3_query_suite():
    with criterion("query-suite"):
        store = build_buildings_store()

        table = execute_query(store, read_query("all_versions.rq"))
        assert len(table.rows) == 6

        table = execute_query(store, read_query("graph_diff.rq"))
        assert table.rows == [
            (iri("urn:ex:bldg3"), iri("urn:ex:height"), literal("15", datatype=DECIMAL))
        ]

        # Brute force the expected aggregates from the raw dataset rows.
        max_expected = {}
        count_expected = {}
        for ordinal, rows in ((1, BUILDINGS_V1_ROWS), (2, BUILDINGS_V2_ROWS)):
            top = max(rows, key=lambda r: Decimal(r[1]))[1]
            max_expected[version_iri(ordinal)] = literal(top, datatype=DECIMAL)
            count_expected[version_iri(ordinal)] = literal(str(len(rows)), datatype=INTEGER)
        assert max_expected[version_iri(1)].lexical == "11"
        assert max_expected[version_iri(2)].lexical == "15"

        table = execute_query(store, read_query("max_by_version.rq"))
        assert dict(table.rows) == max_expected
        table = execute_query(store, read_query("count_by_version.rq"))
        assert dict(table.rows) == count_expected
        assert count_expected[version_iri(1)].lexical == "3"
        assert count_expected[version_iri(2)].lexical == "3"


def test_criterion_4_differential_equivalence():
    with criterion("differential-equivalence"):
        rng = random.Random(20240808)
        start = time.monotonic()
        outcomes = Counter(run_differential_case(rng) for _ in range(1000))
        elapsed = time.monotonic() - start
        assert outcomes["ok"] + outcomes["error-agree"] == 1000
        assert elapsed < DIFFERENTIAL_BUDGET_SECONDS, f"took {elapsed:.1f}s"


def test_criterion_5_count_fast_path_equivalence():
    with criterion("count-fast-path"):
        from converg.sparql import parse_query, validate_and_name
        from randcases import PREDICATE_POOL, SUBJECT_POOL, check_against_oracle, folds

        rng = random.Random(31415)
        checked = 0
        for _ in range(200):
            store, _docs = random_store(rng)
            subject = f"?s{rng.randrange(2)}"
            predicate = f"<{rng.choice(PREDICATE_POOL).lexical}>"
            obj = (
                f"?o{rng.randrange(2)}"
                if rng.random() < 0.7
                else f"<{rng.choice(SUBJECT_POOL).lexical}>"
            )
            text = (
                f"SELECT ?version COUNT({subject}) WHERE {{ "
                f"GRAPH ?vng {{ {subject} {predicate} {obj} . }} "
                f"?vng <urn:converg:vocab:is-in-version> ?version . }} GROUP BY ?version"
            )
            plan = validate_and_name(parse_query(text))
            assert folds(store, plan), text
            check_against_oracle(store, plan)
            checked += 1
        assert checked == 200


def test_criterion_6_round_trips(tmp_path):
    with criterion("round-trips"):
        rng = random.Random(2718281)

        # snapshot save/load equality on 100 random stores
        for i in range(100):
            store, _ = random_store(rng)
            if rng.random() < 0.2:
                store.add_metadata([(iri("urn:d"), iri("urn:note"), literal(f"case {i}"))])
            target = tmp_path / f"snap{i}"
            save_snapshot(store, target)
            assert load_snapshot(target) == store

        # flat export re-ingested version by version reproduces ENTRIES
        for i in range(25):
            store, _ = random_store(rng)
            by_version = {}
            for q in store.export_flat():
                if q.graph is None:
                    continue
                graph_id, ordinal = store.resolve_vng(q.graph)
                graph = store.dictionary.decode(graph_id)
                by_version.setdefault(ordinal, []).append(
                    Quad(q.subject, q.predicate, q.object, graph)
                )
            rebuilt = Store()
            for ordinal in range(1, store.version_count + 1):
                rebuilt.ingest_version(ParsedDocument(quads=by_version.get(ordinal, [])))
            a, b = tmp_path / f"flat{i}a", tmp_path / f"flat{i}b"
            save_snapshot(store, a)
            save_snapshot(rebuilt, b)
            assert (a / "ENTRIES").read_bytes() == (b / "ENTRIES").read_bytes()

        # parse/serialize multiset identity on 1000 random quads
        quads = []
        for i in range(1000):
            subject = iri(f"urn:s:{rng.randrange(50)}") if rng.random() < 0.8 else blank(f"b{rng.randrange(9)}")
            predicate = iri(f"urn:p:{rng.randrange(9)}")
            roll = rng.random()
            if roll < 0.4:
                obj = iri(f"urn:o:{rng.randrange(30)}")
            elif roll < 0.6:
                obj = literal(str(rng.randrange(1000)), datatype=INTEGER)
            elif roll < 0.8:
                obj = literal(rng.choice(["a b", 'quo"te', "tab\tsep", "line\nbreak", "\\slash"]))
            else:
                obj = literal("bonjour", language="fr")
            graph = iri(f"urn:g:{rng.randrange(7)}") if rng.random() < 0.7 else None
            quads.append(Quad(subject, predicate, obj, graph))
        doc = parse_nquads(serialize_nquads(quads))
        assert Counter(doc.quads) == Counter(quads)


def test_criterion_7_scaled_throughput(scaled):
    with criterion("scaled-throughput"):
        store, cfg, total_quads, timings = scaled
        assert total_quads == 2 * cfg.products * cfg.graphs * cfg.versions == 1_000_000
        stats = store.stats()
        assert stats.vng_count == cfg.graphs * cfg.versions == 1000
        assert stats.version_count == 100

        bsbm = "http://www4.wiwiss.fu-berlin.de/bizer/bsbm/"
        rating2 = iri(bsbm + "v01/vocabulary/rating2")
        start = time.monotonic()
        max_table = execute_query(
            store,
            f"PREFIX vers: <urn:converg:vocab:>\n"
            f"PREFIX bsbm: <{bsbm}>\n"
            "SELECT ?version MAX(?o) WHERE {\n"
            "  GRAPH ?vng { ?s bsbm:v01/vocabulary/rating2 ?o . }\n"
            "  ?vng vers:is-in-version ?version .\n"
            "} GROUP BY ?version",
        )
        timings["max-by-version"] = time.monotonic() - start
        assert len(max_table.rows) == 100
        lo, hi = cfg.rating_range
        for _version, top in max_table.rows:
            assert lo <= int(top.lexical) <= hi

        start = time.monotonic()
        count_table = execute_query(
            store,
            f"PREFIX vers: <urn:converg:vocab:>\n"
            f"PREFIX bsbm: <{bsbm}>\n"
            "SELECT ?version COUNT(?s) WHERE {\n"
            "  GRAPH ?vng { ?s bsbm:v01/vocabulary/rating2 ?o . }\n"
            "  ?vng vers:is-in-version ?version .\n"
            "} GROUP BY ?version",
        )
        timings["count-by-version"] = time.monotonic() - start
        assert len(count_table.rows) == 100
        per_version = cfg.products * cfg.graphs
        assert all(int(c.lexical) == per_version for _v, c in count_table.rows)

        # ratings in version 100 whose (product, rating) is in no graph of version 1
        start = time.monotonic()
        minus_table = execute_query(
            store,
            f"PREFIX vers: <urn:converg:vocab:>\n"
            f"PREFIX bsbm: <{bsbm}>\n"
            "SELECT ?vng ?s ?o WHERE {\n"
            "  { GRAPH ?vng { ?s bsbm:v01/vocabulary/rating2 ?o . }\n"
            "    ?vng vers:is-in-version <urn:converg:version:100> . }\n"
            "  MINUS { GRAPH ?w { ?s bsbm:v01/vocabulary/rating2 ?o . }\n"
            "    ?w vers:is-in-version <urn:converg:version:1> . }\n"
            "}",
        )
        timings["cross-version-minus"] = time.monotonic() - start

        def ratings(ordinal):
            quads = generate_version(cfg, ordinal).quads
            return {(q.graph, q.subject, q.object) for q in quads if q.predicate == rating2}

        in_v1 = {(s, o) for _g, s, o in ratings(1)}
        expected = sum((s, o) not in in_v1 for _g, s, o in ratings(100))
        assert len(minus_table.rows) == expected > 0
        assert timings["cross-version-minus"] < 5.0, f"cross-version MINUS {timings['cross-version-minus']:.1f}s"

        # versions whose metadata says A or B, counted per scenario
        start = time.monotonic()
        scenario_table = execute_query(
            store,
            f"PREFIX vers: <urn:converg:vocab:>\n"
            f"PREFIX bsbm: <{bsbm}>\n"
            "SELECT ?scenario (COUNT(?s) AS ?n) WHERE {\n"
            "  GRAPH ?vng { ?s bsbm:v01/vocabulary/rating2 ?o . }\n"
            "  ?vng vers:is-in-version ?version .\n"
            "  ?version <urn:ex:scenario> ?scenario .\n"
            "} GROUP BY ?scenario",
        )
        scenario_tsv = scenario_table.to_tsv()
        timings["metadata-join"] = time.monotonic() - start
        half = cfg.products * cfg.graphs * cfg.versions // 2
        assert scenario_tsv == f'scenario\tn\n"A"\t"{half}"^^<{INTEGER}>\n"B"\t"{half}"^^<{INTEGER}>\n'
        assert timings["metadata-join"] < 1.0, f"metadata join {timings['metadata-join']:.1f}s"

        # ratings in any version whose (product, rating) is in no graph of
        # version 1: ?version on the left of the MINUS
        start = time.monotonic()
        left_table = execute_query(
            store,
            f"PREFIX vers: <urn:converg:vocab:>\n"
            f"PREFIX bsbm: <{bsbm}>\n"
            "SELECT ?vng ?s ?o WHERE {\n"
            "  { GRAPH ?vng { ?s bsbm:v01/vocabulary/rating2 ?o . }\n"
            "    ?vng vers:is-in-version ?version . }\n"
            "  MINUS { GRAPH ?w { ?s bsbm:v01/vocabulary/rating2 ?o . }\n"
            "    ?w vers:is-in-version <urn:converg:version:1> . }\n"
            "}",
        )
        left_tsv = left_table.to_tsv()
        timings["version-left-minus"] = time.monotonic() - start
        assert len(left_table.lines) == 405_920
        in_v100 = {serialize_term(rec.vng_iri) + "\t" for rec in store.vng_records if rec.ordinal == 100}
        assert sum(line[: line.index("\t") + 1] in in_v100 for line in left_table.lines) == expected
        assert timings["version-left-minus"] < 2.0, f"version-left MINUS {timings['version-left-minus']:.1f}s"
        del left_table, left_tsv

        # every rating in every version, written as TSV
        start = time.monotonic()
        all_table = execute_query(
            store,
            f"PREFIX vers: <urn:converg:vocab:>\n"
            f"PREFIX bsbm: <{bsbm}>\n"
            "SELECT ?version ?subj ?obj WHERE {\n"
            "  GRAPH ?vng { ?subj bsbm:v01/vocabulary/rating2 ?obj . }\n"
            "  ?vng vers:is-in-version ?version .\n"
            "}",
        )
        all_tsv = all_table.to_tsv()
        timings["all-versions"] = time.monotonic() - start
        assert len(all_table.lines) == cfg.products * cfg.graphs * cfg.versions == 500_000
        assert all_tsv.startswith("version\tsubj\tobj\n") and all_tsv.count("\n") == 1 + 500_000
        for ordinal in (1, 57, 100):
            cell = f"<urn:converg:version:{ordinal}>\t"
            produced = Counter(line for line in all_table.lines if line.startswith(cell))
            generated = Counter(
                cell + serialize_term(q.subject) + "\t" + serialize_term(q.object)
                for q in generate_version(cfg, ordinal).quads
                if q.predicate == rating2
            )
            assert produced == generated, ordinal
        del all_table, all_tsv

        total = sum(timings.values())
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        print(
            "ACCEPTANCE scaled-throughput timings: "
            + " ".join(f"{k}={v:.1f}s" for k, v in timings.items())
            + f" total={total:.1f}s peak-rss={peak / 1024 ** 2:.0f}MiB"
        )
        assert total < WALL_BUDGET_SECONDS, f"wall time {total:.1f}s"
        assert peak < MEMORY_BUDGET_BYTES, f"peak rss {peak} bytes"


def test_criterion_8_diff_consistency(scaled):
    with criterion("diff-consistency"):
        store, _cfg, _total, _timings = scaled
        rng = random.Random(606)
        for _ in range(100):
            a, b = rng.sample(store.vng_records, 2)
            direct = store.diff_vng(a.vng_iri, b.vng_iri)
            table = execute_query(
                store,
                "SELECT ?subj ?pred ?obj WHERE {\n"
                "{ SELECT ?subj ?pred ?obj WHERE {\n"
                f"    GRAPH <{a.vng_iri.lexical}> {{ ?subj ?pred ?obj . }}\n"
                "} } MINUS {\n"
                "    SELECT ?subj ?pred ?obj WHERE {\n"
                f"    GRAPH <{b.vng_iri.lexical}> {{ ?subj ?pred ?obj . }}\n"
                "} } }",
            )
            assert set(table.rows) == direct
            assert len(table.rows) == len(direct)
