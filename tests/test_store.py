import gc
import os
import random
import re
import stat

import pytest

from conftest import (
    BUILDINGS_V1_ROWS as V1_ROWS,
    BUILDINGS_V2_ROWS as V2_ROWS,
    GR_LYON,
    HEIGHT,
    IGN,
    build_buildings_store,
    fixture_path,
    read_fixture,
    rewrite_checksums,
    row_triples as _row_triples,
)
from converg.engine import execute_query
from converg.errors import IngestError, SnapshotError, UnknownVngError
from converg.gen import GenConfig, generate_version
from converg.model import IS_IN_VERSION, IS_VERSION_OF, XSD, Quad, Term, blank, iri, literal
from converg.nquads import ParsedDocument, parse_nquads, serialize_nquads, serialize_term
from converg.store import (
    Store,
    bit_for,
    bitmap_ordinals,
    load_snapshot,
    parse_bitmap,
    render_bitmap,
    save_snapshot,
)
from randcases import random_store

DECIMAL = XSD + "decimal"


# ----------------------------------------------------------------- bitmaps


def test_bitmap_helpers():
    bits = bit_for(1) | bit_for(3)
    assert list(bitmap_ordinals(bits)) == [1, 3]
    assert render_bitmap(bits, 3) == "101"
    assert parse_bitmap("101") == bits
    assert render_bitmap(0, 2) == "00"
    with pytest.raises(ValueError):
        parse_bitmap("10x")


def _render_per_character(bits, width):
    return "".join("1" if bits >> i & 1 else "0" for i in range(width))


def _parse_per_character(text):
    bits = 0
    for i, c in enumerate(text):
        if c == "1":
            bits |= 1 << i
        elif c != "0":
            raise ValueError(f"bitstring may only contain 0/1, got {c!r}")
    return bits


def test_bitstrings_match_the_per_character_reference():
    rng = random.Random(130)
    for width in range(131):
        for bits in (0, (1 << width) - 1, rng.getrandbits(width), rng.getrandbits(width)):
            text = _render_per_character(bits, width)
            assert render_bitmap(bits, width) == text
            assert parse_bitmap(text) == _parse_per_character(text) == bits


# The first five are numerals to a bare int(text[::-1], 2).
@pytest.mark.parametrize("text", ["1b0", "0_1", "1+", " 1", "1 ", "10x"])
def test_parse_bitmap_rejects_anything_but_0_and_1(text):
    with pytest.raises(ValueError) as reference:
        _parse_per_character(text)
    with pytest.raises(ValueError) as exc:
        parse_bitmap(text)
    assert str(exc.value) == str(reference.value)


# ------------------------------------------------------------------ ingest


def test_first_version_ingest():
    store = Store()
    report = store.ingest_version(parse_nquads(read_fixture("buildings_v1.nq")))
    assert report.ordinal == 1
    assert [(r.vng_iri, r.graph) for r in report.minted_vngs] == [
        (iri("urn:converg:vng:1"), GR_LYON),
        (iri("urn:converg:vng:2"), IGN),
    ]
    assert report.quad_count == 3 and report.new_entry_count == 3
    assert all(render_bitmap(bits, 1) == "1" for bits in store.entries.values())


def test_second_version_ingest(buildings_store):
    store = buildings_store
    assert len(store.entries) == 5
    gid = store.dictionary.lookup(GR_LYON)
    sid = store.dictionary.lookup(iri("urn:ex:bldg1"))
    pid = store.dictionary.lookup(HEIGHT)
    oid = store.dictionary.lookup(literal("10.5", datatype=DECIMAL))
    ((key, bits),) = store.lookup_pattern(gid, sid, pid, oid)
    assert key == (gid, sid, pid, oid)
    assert render_bitmap(bits, 2) == "11"


def test_condensed_bitstrings_match_expected(buildings_store):
    store = buildings_store
    rendered = {}
    for (gid, _, _, oid), bits in store.entries.items():
        g = store.dictionary.decode(gid).lexical.rsplit(":", 1)[-1]
        o = store.dictionary.decode(oid).lexical
        rendered[(g, o)] = render_bitmap(bits, 2)
    assert rendered == {
        ("IGN", "11"): "10",
        ("IGN", "10.5"): "01",
        ("Gr-Lyon", "15"): "01",
        ("Gr-Lyon", "9.1"): "10",
        ("Gr-Lyon", "10.5"): "11",
    }


def test_ingest_empty_document():
    store = Store()
    report = store.ingest_version(ParsedDocument())
    assert report.ordinal == 1
    assert report.minted_vngs == [] and report.new_entry_count == 0
    assert store.version_count == 1 and store.entries == {}


def test_duplicates_within_document_collapse():
    store = Store()
    q = Quad(iri("urn:s"), iri("urn:p"), iri("urn:o"), iri("urn:g"))
    report = store.ingest_version(ParsedDocument(quads=[q, q, q]))
    assert report.quad_count == 1 and report.duplicate_count == 2
    assert store.stats().flat_quad_count == 1


def test_default_graph_quads_are_rejected_atomically():
    store = build_buildings_store()
    before_entries = list(store.entries.items())
    bad = ParsedDocument(
        quads=[
            Quad(iri("urn:s"), iri("urn:p"), iri("urn:o"), iri("urn:g")),
            Quad(iri("urn:s"), iri("urn:p"), iri("urn:o")),  # default graph
        ]
    )
    with pytest.raises(IngestError):
        store.ingest_version(bad)
    assert store.version_count == 2
    assert list(store.entries.items()) == before_entries
    assert len(store.vng_records) == 4


def test_blank_nodes_are_scoped_per_load():
    store = Store()
    doc = "_:node <urn:p> <urn:o> <urn:g> .\n"
    store.ingest_version(parse_nquads(doc))
    store.ingest_version(parse_nquads(doc))
    subjects = {store.dictionary.decode(s) for _, s, _, _ in store.entries}
    assert subjects == {blank("v1b0"), blank("v2b0")}
    assert store.stats().entry_count == 2


def test_a_blank_term_shared_by_two_documents_is_rescoped_per_load():
    # The parser hands both documents the same `_:b1` Term object; each load
    # still gets its own blank node, and the raw label never reaches the store.
    first = parse_nquads("_:b1 <urn:p> <urn:o> <urn:g> .\n<urn:s> <urn:p> _:b1 <urn:g> .\n")
    second = parse_nquads("<urn:s> <urn:p> _:b1 <urn:g> .\n_:b1 <urn:p> <urn:o> <urn:g> .\n")
    assert first.quads[0].subject is second.quads[0].object
    store = Store()
    store.ingest_version(first)
    store.ingest_version(second)
    terms = {store.dictionary.decode(tid) for key in store.entries for tid in key}
    assert {t for t in terms if t.is_blank} == {blank("v1b0"), blank("v2b0")}
    assert blank("b1") not in set(store.dictionary)
    assert store.stats().entry_count == 4


GRAPH_AS_TERM_DOCUMENTS = [
    # The graph is also the subject of its own quad.
    "<urn:g> <urn:p> <urn:o> <urn:g> .\n",
    # The graph is an object in an earlier quad of another graph.
    "<urn:s> <urn:p> <urn:g> <urn:h> .\n<urn:s> <urn:p> <urn:o> <urn:g> .\n",
]


@pytest.mark.parametrize("parsed", [True, False], ids=["parsed", "quads"])
@pytest.mark.parametrize("text", GRAPH_AS_TERM_DOCUMENTS)
def test_a_graph_that_is_also_a_subject_or_object_mints_its_vng(tmp_path, text, parsed):
    # A parsed document hands over one Term object for `<urn:g>` in every
    # position, so the graph is no new term by the time its own position is
    # read; the quads below hold equal but distinct objects instead.
    quads = parse_nquads(text).quads
    if parsed:
        doc = parse_nquads(text)
    else:
        doc = ParsedDocument(
            quads=[Quad(*[Term(t.kind, t.lexical) for t in (q.subject, q.predicate, q.object, q.graph)]) for q in quads]
        )
    store = Store()
    report = store.ingest_version(doc)
    graphs = list(dict.fromkeys(q.graph for q in quads))
    assert [(r.vng_iri, r.graph) for r in report.minted_vngs] == [
        (iri(f"urn:converg:vng:{n}"), g) for n, g in enumerate(graphs, 1)
    ]
    graph_of = {r.vng_iri: r.graph for r in report.minted_vngs}
    flat = list(store.export_flat())
    assert sorted(
        serialize_nquads([Quad(q.subject, q.predicate, q.object, graph_of[q.graph])])
        for q in flat
        if q.graph is not None
    ) == sorted(serialize_nquads([q]) for q in quads)
    assert {(q.subject, q.object) for q in flat if q.predicate == IS_VERSION_OF} == set(graph_of.items())
    save_snapshot(store, tmp_path)
    reopened = load_snapshot(tmp_path)
    assert reopened == store
    assert list(reopened.export_flat()) == flat


def test_version_labels():
    store = Store()
    store.ingest_version(ParsedDocument(), label="first drop")
    assert store.version_labels == {1: "first drop"}
    with pytest.raises(IngestError):
        store.ingest_version(ParsedDocument(), label="two\nlines")


# ----------------------------------------------------------------- lookups


def test_lookup_by_graph_and_predicate(buildings_store):
    store = buildings_store
    gid = store.dictionary.lookup(GR_LYON)
    pid = store.dictionary.lookup(HEIGHT)
    heights = {
        (store.dictionary.decode(s).lexical, store.dictionary.decode(o).lexical)
        for (_, s, _, o), _ in store.lookup_pattern(graph=gid, predicate=pid)
    }
    assert heights == {("urn:ex:bldg1", "10.5"), ("urn:ex:bldg2", "9.1"), ("urn:ex:bldg3", "15")}


def test_lookup_fully_bound_and_unknown(buildings_store):
    store = buildings_store
    gid = store.dictionary.lookup(IGN)
    sid = store.dictionary.lookup(iri("urn:ex:bldg1"))
    pid = store.dictionary.lookup(HEIGHT)
    oid = store.dictionary.lookup(literal("11", datatype=DECIMAL))
    assert len(list(store.lookup_pattern(gid, sid, pid, oid))) == 1
    assert list(store.lookup_pattern(gid, subject=10 ** 6)) == []


def test_lookup_preserves_insertion_order(buildings_store):
    store = buildings_store
    graph_ids = {key[0] for key in store.entries}
    assert len(graph_ids) == 2
    for gid in graph_ids:
        positions = [key for key, _ in store.lookup_pattern(gid)]
        assert positions == [key for key in store.entries if key[0] == gid]


def test_a_subject_lookup_yields_the_graphs_own_keys_in_insertion_order():
    store = Store()
    store.ingest_version(
        parse_nquads(
            "<urn:s> <urn:p> <urn:o1> <urn:g1> .\n"
            "<urn:s> <urn:p> <urn:o1> <urn:g2> .\n"
            "<urn:s> <urn:q> <urn:o2> <urn:g2> .\n"
            "<urn:s> <urn:q> <urn:o2> <urn:g1> .\n"
            "<urn:t> <urn:p> <urn:o1> <urn:g1> .\n"
        )
    )
    store.ingest_version(parse_nquads("<urn:s> <urn:r> <urn:o3> <urn:g1> .\n<urn:s> <urn:r> <urn:o3> <urn:g2> .\n"))
    ids = store.dictionary.lookup
    s, g1 = ids(iri("urn:s")), ids(iri("urn:g1"))
    found = list(store.lookup_pattern(g1, subject=s))
    assert [key for key, _bits in found] == [key for key in store.entries if key[:2] == (g1, s)]
    assert [bits for _key, bits in found] == [1, 1, 2]


# -------------------------------------------------------------- vng lookup


def test_resolve_vng(buildings_store):
    store = buildings_store
    gid = store.dictionary.lookup(GR_LYON)
    assert store.resolve_vng(iri("urn:converg:vng:3")) == (gid, 2)
    assert store.resolve_vng(iri("urn:converg:vng:1")) == (gid, 1)
    with pytest.raises(UnknownVngError):
        store.resolve_vng(iri("urn:example:not-a-vng"))


def test_vng_pairings_follow_first_appearance(buildings_store):
    pairs = [(r.vng_iri.lexical, r.graph, r.ordinal) for r in buildings_store.vng_records]
    assert pairs == [
        ("urn:converg:vng:1", GR_LYON, 1),
        ("urn:converg:vng:2", IGN, 1),
        ("urn:converg:vng:3", GR_LYON, 2),
        ("urn:converg:vng:4", IGN, 2),
    ]


# ------------------------------------------------------------- flat export


def test_export_flat_counts_and_associations(buildings_store):
    flat = list(buildings_store.export_flat())
    versioned = [q for q in flat if q.graph is not None]
    metadata = [q for q in flat if q.graph is None]
    assert len(versioned) == 6 and len(metadata) == 8
    by_vng = {}
    for q in versioned:
        by_vng.setdefault(q.graph.lexical, set()).add(
            (q.subject.lexical, q.object.lexical)
        )
    assert by_vng == {
        "urn:converg:vng:1": {("urn:ex:bldg1", "10.5"), ("urn:ex:bldg2", "9.1")},
        "urn:converg:vng:2": {("urn:ex:bldg1", "11")},
        "urn:converg:vng:3": {("urn:ex:bldg1", "10.5"), ("urn:ex:bldg3", "15")},
        "urn:converg:vng:4": {("urn:ex:bldg1", "10.5")},
    }


def test_export_flat_empty_store():
    assert list(Store().export_flat()) == []


def test_flat_reingest_reproduces_entries(buildings_store):
    flat = list(buildings_store.export_flat())
    by_version: dict[int, list[Quad]] = {}
    for q in flat:
        if q.graph is None:
            continue
        graph_id, ordinal = buildings_store.resolve_vng(q.graph)
        graph = buildings_store.dictionary.decode(graph_id)
        by_version.setdefault(ordinal, []).append(
            Quad(q.subject, q.predicate, q.object, graph)
        )
    rebuilt = Store()
    for ordinal in sorted(by_version):
        rebuilt.ingest_version(ParsedDocument(quads=by_version[ordinal]))
    assert rebuilt == buildings_store


# -------------------------------------------------------------------- diff


def test_diff_vng_same_graph(buildings_store):
    # Independent derivation from the raw rows.
    expected = _row_triples(V2_ROWS, GR_LYON) - _row_triples(V1_ROWS, GR_LYON)
    assert expected == {(iri("urn:ex:bldg3"), HEIGHT, literal("15", datatype=DECIMAL))}
    got = buildings_store.diff_vng(iri("urn:converg:vng:3"), iri("urn:converg:vng:1"))
    assert got == expected
    reverse = buildings_store.diff_vng(iri("urn:converg:vng:1"), iri("urn:converg:vng:3"))
    assert reverse == _row_triples(V1_ROWS, GR_LYON) - _row_triples(V2_ROWS, GR_LYON)
    assert reverse == {(iri("urn:ex:bldg2"), HEIGHT, literal("9.1", datatype=DECIMAL))}


def test_diff_vng_self_is_empty(buildings_store):
    assert buildings_store.diff_vng(iri("urn:converg:vng:2"), iri("urn:converg:vng:2")) == set()


def test_diff_vng_cross_graph(buildings_store):
    got = buildings_store.diff_vng(iri("urn:converg:vng:1"), iri("urn:converg:vng:2"))
    assert got == _row_triples(V1_ROWS, GR_LYON) - _row_triples(V1_ROWS, IGN)


def test_diff_vng_unknown_iri(buildings_store):
    with pytest.raises(UnknownVngError):
        buildings_store.diff_vng(iri("urn:converg:vng:1"), iri("urn:nope"))


def test_diff_partition_property():
    rng = random.Random(4242)
    for _ in range(25):
        store, _ = random_store(rng)
        if len(store.vng_records) < 2:
            continue
        a, b = rng.sample(store.vng_records, 2)

        def triples_of(rec):
            mask = bit_for(rec.ordinal)
            gid = store.dictionary.lookup(rec.graph)
            return {
                tuple(store.dictionary.decode(t) for t in key[1:])
                for key, bits in store.lookup_pattern(graph=gid)
                if bits & mask
            }

        set_a, set_b = triples_of(a), triples_of(b)
        d_ab = store.diff_vng(a.vng_iri, b.vng_iri)
        d_ba = store.diff_vng(b.vng_iri, a.vng_iri)
        both = set_a & set_b
        assert d_ab == set_a - set_b
        assert d_ba == set_b - set_a
        assert d_ab | d_ba | both == set_a | set_b
        assert not (d_ab & d_ba) and not (d_ab & both) and not (d_ba & both)


# ------------------------------------------------------------------- stats


def test_stats_two_version_store(buildings_store):
    s = buildings_store.stats()
    assert (
        s.version_count,
        s.graph_count,
        s.vng_count,
        s.entry_count,
        s.flat_quad_count,
        s.metadata_triple_count,
    ) == (2, 2, 4, 5, 6, 8)


def test_stats_empty_store():
    s = Store().stats()
    assert (
        s.version_count,
        s.graph_count,
        s.vng_count,
        s.entry_count,
        s.flat_quad_count,
        s.metadata_triple_count,
    ) == (0, 0, 0, 0, 0, 0)


def test_flat_quad_count_grows_by_ingest_report():
    rng = random.Random(99)
    store = Store()
    from randcases import random_version_doc, GRAPH_POOL

    for _ in range(4):
        before = store.stats().flat_quad_count
        report = store.ingest_version(random_version_doc(rng, GRAPH_POOL))
        assert store.stats().flat_quad_count == before + report.quad_count


# ------------------------------------------------------------- invariants


def test_condensation_soundness_randomized():
    rng = random.Random(20240808)
    for _ in range(40):
        store, docs = random_store(rng)
        flat_by_version: dict[int, set] = {m: set() for m in range(1, len(docs) + 1)}
        for q in store.export_flat():
            if q.graph is None:
                continue
            graph_id, ordinal = store.resolve_vng(q.graph)
            graph = store.dictionary.decode(graph_id)
            flat_by_version[ordinal].add((graph, q.subject, q.predicate, q.object))
        for m, doc_quads in enumerate(docs, start=1):
            expected = {(q.graph, q.subject, q.predicate, q.object) for q in doc_quads}
            assert flat_by_version[m] == expected
        for bits in store.entries.values():
            assert bits != 0
            assert bits < (1 << store.version_count)
        minted_per_version: dict[int, int] = {}
        for rec in store.vng_records:
            minted_per_version[rec.ordinal] = minted_per_version.get(rec.ordinal, 0) + 1
        for m, doc_quads in enumerate(docs, start=1):
            assert minted_per_version.get(m, 0) == len({q.graph for q in doc_quads})
        # minting is injective over the whole run, in both directions
        assert len({rec.vng_iri for rec in store.vng_records}) == len(store.vng_records)
        assert len({(rec.graph, rec.ordinal) for rec in store.vng_records}) == len(
            store.vng_records
        )


# --------------------------------------------------------------- snapshots


def test_snapshot_round_trip(tmp_path, buildings_store):
    save_snapshot(buildings_store, tmp_path)
    loaded = load_snapshot(tmp_path)
    assert loaded == buildings_store


def test_snapshot_files_present(tmp_path, buildings_store):
    save_snapshot(buildings_store, tmp_path)
    names = sorted(os.listdir(tmp_path))
    assert names == ["CHECKSUM", "DICT", "ENTRIES", "MANIFEST", "META", "VNG"]


def test_save_fsyncs_the_directory_after_every_rename(tmp_path, buildings_store, monkeypatch):
    calls = []  # ("fsync", fd is a directory) or ("replace", None), in call order
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        calls.append(("fsync", stat.S_ISDIR(os.fstat(fd).st_mode)))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", None))
        real_replace(src, dst)

    monkeypatch.setattr("converg.store.os.fsync", fsync)
    monkeypatch.setattr("converg.store.os.replace", replace)
    save_snapshot(buildings_store, tmp_path)
    save_snapshot(buildings_store, tmp_path)  # over an existing snapshot too
    monkeypatch.undo()
    for save in (calls[: len(calls) // 2], calls[len(calls) // 2 :]):
        assert save.count(("replace", None)) == 6
        assert save[-1] == ("fsync", True)
        assert save.count(("fsync", False)) == 6
    assert load_snapshot(tmp_path) == buildings_store


def test_entries_file_matches_golden(tmp_path, buildings_store):
    save_snapshot(buildings_store, tmp_path)
    with open(tmp_path / "ENTRIES", "rb") as fh:
        produced = fh.read()
    with open(fixture_path("entries.golden"), "rb") as fh:
        golden = fh.read()
    assert produced == golden


def test_load_of_empty_directory_fails(tmp_path):
    with pytest.raises(SnapshotError):
        load_snapshot(tmp_path)


def test_load_detects_corruption(tmp_path, buildings_store):
    save_snapshot(buildings_store, tmp_path)
    path = tmp_path / "ENTRIES"
    data = path.read_text().replace("11", "10", 1)
    path.write_text(data)
    with pytest.raises(SnapshotError, match="checksum"):
        load_snapshot(tmp_path)


def test_load_rejects_future_format(tmp_path, buildings_store):
    save_snapshot(buildings_store, tmp_path)
    manifest = (tmp_path / "MANIFEST").read_text().replace("format-version=1", "format-version=2")
    (tmp_path / "MANIFEST").write_text(manifest)
    rewrite_checksums(tmp_path)
    with pytest.raises(SnapshotError, match="format"):
        load_snapshot(tmp_path)


@pytest.mark.parametrize("predicate", [IS_IN_VERSION, IS_VERSION_OF], ids=["in-version", "version-of"])
def test_load_rejects_linking_predicate_in_meta(tmp_path, buildings_store, predicate):
    save_snapshot(buildings_store, tmp_path)
    (tmp_path / "META").write_text(
        f"<urn:converg:vng:1> {serialize_term(predicate)} <urn:converg:version:7> .\n"
    )
    rewrite_checksums(tmp_path)
    with pytest.raises(SnapshotError, match="META line 1 uses the reserved predicate"):
        load_snapshot(tmp_path)


def test_load_rejects_duplicate_meta_line(tmp_path, buildings_store):
    save_snapshot(buildings_store, tmp_path)
    line = '<urn:dataset> <urn:dc:title> "heights" .\n'
    (tmp_path / "META").write_text(line + line)
    rewrite_checksums(tmp_path)
    with pytest.raises(SnapshotError, match="META line 2 duplicates"):
        load_snapshot(tmp_path)


# META texts the writer never writes, each with the first line that differs
# from what it would write for the triples they hold.
@pytest.mark.parametrize(
    "meta, message",
    [
        (
            '\n# a note\n<urn:d> <urn:p> "x" . # trailing\n',
            "META line 1 is not written as save_snapshot writes it: ''",
        ),
        ('<urn:d> <urn:p> "x" .\n\n', "META line 2 is not written as save_snapshot writes it: ''"),
        (
            '<urn:d>  <urn:p> "x" .\n',
            "META line 1 is not written as save_snapshot writes it: '<urn:d>  <urn:p> \"x\" .'",
        ),
        (
            '<urn:d> <urn:p> "a" .\n<urn:d> <urn:p> "\\u0078" .\n',
            "META line 2 is not written as save_snapshot writes it: '<urn:d> <urn:p> \"\\\\u0078\" .'",
        ),
        (
            '<urn:d> <urn:p> "x" <urn:g> .\n',
            "META line 1 is not written as save_snapshot writes it: '<urn:d> <urn:p> \"x\" <urn:g> .'",
        ),
        ('<urn:d> <urn:p> "x" .', "META line 1 is not written as save_snapshot writes it: '<urn:d> <urn:p> \"x\" .'"),
        ('<urn:d> <urn:p> "x .\n', "META malformed at line 1, column 21: unterminated literal"),
    ],
    ids=["comments-and-blank-line", "trailing-blank-line", "two-blanks", "escaped-x", "graph-term", "no-final-lf", "malformed"],
)
def test_load_rejects_meta_the_writer_never_writes(tmp_path, buildings_store, meta, message):
    save_snapshot(buildings_store, tmp_path)
    (tmp_path / "META").write_text(meta)
    rewrite_checksums(tmp_path)
    with pytest.raises(SnapshotError) as info:
        load_snapshot(tmp_path)
    assert str(info.value) == message


def test_meta_holds_the_writers_bytes_and_reopens(tmp_path, buildings_store):
    buildings_store.add_metadata(
        [
            (iri("urn:dataset"), iri("urn:dc:title"), literal('say "hi"\n\tthere\\')),
            (iri("urn:dataset"), iri("urn:dc:title"), literal("b\u00e2timents", language="fr")),
            (blank("n1"), iri("urn:note"), literal("a\u2028b\rc")),
            (iri("urn:dataset"), iri("urn:dc:created"), literal("2024", datatype=XSD + "gYear")),
        ]
    )
    save_snapshot(buildings_store, tmp_path)
    assert (tmp_path / "META").read_bytes().decode("utf-8") == (
        '<urn:dataset> <urn:dc:title> "say \\"hi\\"\\n\\tthere\\\\" .\n'
        '<urn:dataset> <urn:dc:title> "b\u00e2timents"@fr .\n'
        '_:n1 <urn:note> "a\u2028b\\rc" .\n'
        '<urn:dataset> <urn:dc:created> "2024"^^<http://www.w3.org/2001/XMLSchema#gYear> .\n'
    )
    assert load_snapshot(tmp_path) == buildings_store


def test_load_rejects_vng_whose_graph_is_not_an_iri(tmp_path, buildings_store):
    save_snapshot(buildings_store, tmp_path)
    literal_id = buildings_store.dictionary.lookup(literal("10.5", datatype=DECIMAL))
    vng = (tmp_path / "VNG").read_text().replace("4\t7\t2\n", f"4\t{literal_id}\t2\n")
    (tmp_path / "VNG").write_text(vng)
    rewrite_checksums(tmp_path)
    with pytest.raises(SnapshotError, match="VNG line 4 .* not an IRI"):
        load_snapshot(tmp_path)


def test_load_rejects_entry_bit_without_a_vng(tmp_path, buildings_store):
    save_snapshot(buildings_store, tmp_path)
    # Point the record of (IGN, version 2) at term 0, the IRI urn:ex:bldg1;
    # IGN's entry on line 5 still sets bit 2.
    vng = (tmp_path / "VNG").read_text().replace("4\t7\t2\n", "4\t0\t2\n")
    (tmp_path / "VNG").write_text(vng)
    rewrite_checksums(tmp_path)
    with pytest.raises(SnapshotError, match="ENTRIES line 5 sets a version with no versioned graph"):
        load_snapshot(tmp_path)


# Two-version bitstrings that int(text[::-1], 2) would take.
@pytest.mark.parametrize("bits_text", ["1+", " 1", "1 "])
def test_load_rejects_a_bitstring_of_other_characters(tmp_path, buildings_store, bits_text):
    save_snapshot(buildings_store, tmp_path)
    entries = (tmp_path / "ENTRIES").read_text()
    assert entries.startswith("3\t0\t1\t2\t11\n")
    (tmp_path / "ENTRIES").write_text(entries.replace("11", bits_text, 1))
    rewrite_checksums(tmp_path)
    with pytest.raises(SnapshotError, match="ENTRIES line 1 malformed"):
        load_snapshot(tmp_path)


@pytest.mark.parametrize("term_id", [99999, -1])
def test_load_rejects_a_term_id_outside_the_dictionary(tmp_path, buildings_store, term_id):
    save_snapshot(buildings_store, tmp_path)
    entries = (tmp_path / "ENTRIES").read_text()
    (tmp_path / "ENTRIES").write_text(entries.replace("3\t0\t", f"3\t{term_id}\t", 1))
    rewrite_checksums(tmp_path)
    with pytest.raises(SnapshotError, match="ENTRIES line 1 names a term id outside the dictionary"):
        load_snapshot(tmp_path)


def test_load_rejects_a_vng_graph_id_outside_the_dictionary(tmp_path, buildings_store):
    save_snapshot(buildings_store, tmp_path)
    vng = (tmp_path / "VNG").read_text().replace("4\t7\t2\n", "4\t99999\t2\n")
    (tmp_path / "VNG").write_text(vng)
    rewrite_checksums(tmp_path)
    with pytest.raises(SnapshotError, match="VNG line 4 names a term id outside the dictionary"):
        load_snapshot(tmp_path)


# The golden ENTRIES lines: 3 0 1 2 11 / 3 4 1 5 10 / 7 0 1 6 10 / 3 8 1 9 01 / 7 0 1 2 01.
@pytest.mark.parametrize(
    "old, new, message",
    [
        ("7\t0\t1\t2\t01\n", "7\t0\t1\t2\t01\n3\t0\t1\t2\t01\n", "ENTRIES line 6 duplicates a quad key"),
        ("3\t4\t1\t5\t10\n", "3\t4\t1\t5\t00\n", "ENTRIES line 2 has an all-zero bitmap"),
        ("7\t0\t1\t6\t10\n", "7\t0\t1\t6\t100\n", "ENTRIES line 3 malformed: bitstring width mismatch"),
    ],
    ids=["duplicate-key", "all-zero-bitmap", "width-mismatch"],
)
def test_load_rejects_inconsistent_entries(tmp_path, buildings_store, old, new, message):
    save_snapshot(buildings_store, tmp_path)
    entries = (tmp_path / "ENTRIES").read_text()
    assert old in entries
    (tmp_path / "ENTRIES").write_text(entries.replace(old, new))
    rewrite_checksums(tmp_path)
    with pytest.raises(SnapshotError, match=message):
        load_snapshot(tmp_path)


MALFORMED_MANIFEST = (
    "MANIFEST incomplete or malformed: it must open with format-version=N, version-count=N and vng-counter=N"
)


# Headers the writer never writes, each over an empty store ("init") or the
# buildings store, whose MANIFEST is format-version=1 / version-count=2 /
# vng-counter=4 and whose VNG lines are 1 3 1 / 2 7 1 / 3 3 2 / 4 7 2.
@pytest.mark.parametrize(
    "init, name, old, new, message",
    [
        (True, "MANIFEST", "version-count=0", "version-count=-1", MALFORMED_MANIFEST),
        (False, "MANIFEST", "version-count=2", "version-count=+2", MALFORMED_MANIFEST),
        (False, "MANIFEST", "version-count=2", "version-count= 2", MALFORMED_MANIFEST),
        (True, "MANIFEST", "version-count=0", "version-count=0_0", MALFORMED_MANIFEST),
        (False, "MANIFEST", "vng-counter=4\n", "vng-counter=4\ncreated=2024\n", "malformed MANIFEST label line: 'created=2024'"),
        (
            False,
            "MANIFEST",
            "version-count=2\nvng-counter=4\n",
            "vng-counter=4\nversion-count=2\n",
            MALFORMED_MANIFEST,
        ),
        (
            False,
            "MANIFEST",
            "version-count=2\n",
            "version-count=2\nversion-count=2\n",
            MALFORMED_MANIFEST,
        ),
        (False, "MANIFEST", "vng-counter=4\n", "vng-counter=4\nlabel 0 x\n", "malformed MANIFEST label line: 'label 0 x'"),
        (False, "MANIFEST", "vng-counter=4\n", "vng-counter=4\nlabel 3 x\n", "malformed MANIFEST label line: 'label 3 x'"),
        (True, "MANIFEST", "vng-counter=0\n", "vng-counter=0\nlabel 5 x\n", "malformed MANIFEST label line: 'label 5 x'"),
        (
            False,
            "MANIFEST",
            "vng-counter=4\n",
            "vng-counter=4\nlabel 2 b\nlabel 1 a\n",
            "malformed MANIFEST label line: 'label 1 a'",
        ),
        (
            False,
            "MANIFEST",
            "vng-counter=4\n",
            "vng-counter=4\nlabel 1 a\nlabel 1 b\n",
            "malformed MANIFEST label line: 'label 1 b'",
        ),
        (False, "VNG", "3\t3\t2\n4\t7\t2\n", "4\t7\t2\n3\t3\t2\n", "VNG line 3 out of range"),
        (False, "MANIFEST", "vng-counter=4", "vng-counter=5", "MANIFEST vng-counter=5 does not match the 4 VNG lines"),
        (False, "MANIFEST", "vng-counter=4\n", "vng-counter=4\nlabel 1 a\rb\n", "malformed MANIFEST label line: 'label 1 a\\rb'"),
    ],
    ids=[
        "negative-version-count",
        "signed-version-count",
        "spaced-version-count",
        "underscored-version-count",
        "unknown-key",
        "swapped-keys",
        "repeated-key",
        "label-0",
        "label-past-version-count",
        "label-on-no-versions",
        "labels-out-of-order",
        "label-repeated",
        "vng-lines-swapped",
        "vng-counter-past-the-lines",
        "label-holding-a-cr",
    ],
)
def test_load_rejects_a_header_the_writer_never_writes(tmp_path, buildings_store, init, name, old, new, message):
    save_snapshot(Store() if init else buildings_store, tmp_path)
    text = (tmp_path / name).read_text()
    assert old in text
    (tmp_path / name).write_text(text.replace(old, new))
    rewrite_checksums(tmp_path)
    with pytest.raises(SnapshotError) as info:
        load_snapshot(tmp_path)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: lines + lines[-1:], "malformed CHECKSUM line: 'META "),
        (lambda lines: [lines[1], lines[0], *lines[2:]], "malformed CHECKSUM line: 'DICT "),
    ],
    ids=["line-added", "lines-swapped"],
)
def test_load_rejects_checksum_lines_the_writer_never_writes(tmp_path, buildings_store, edit, message):
    save_snapshot(buildings_store, tmp_path)
    lines = (tmp_path / "CHECKSUM").read_text().splitlines()
    (tmp_path / "CHECKSUM").write_text("".join(line + "\n" for line in edit(lines)))
    with pytest.raises(SnapshotError) as info:
        load_snapshot(tmp_path)
    assert str(info.value).startswith(message)


# Term 2 is the literal "10.5", which ingest never puts in subject or
# predicate position.
@pytest.mark.parametrize(
    "new", ["3\t2\t1\t2\t11\n", "3\t0\t2\t2\t11\n"], ids=["literal-subject", "literal-predicate"]
)
def test_load_rejects_an_entry_term_that_cannot_stand_in_its_position(tmp_path, buildings_store, new):
    save_snapshot(buildings_store, tmp_path)
    entries = (tmp_path / "ENTRIES").read_text()
    (tmp_path / "ENTRIES").write_text(entries.replace("3\t0\t1\t2\t11\n", new, 1))
    rewrite_checksums(tmp_path)
    with pytest.raises(SnapshotError, match="ENTRIES line 1 names a term that cannot stand in its position"):
        load_snapshot(tmp_path)


@pytest.mark.parametrize("name", ["MANIFEST", "DICT", "VNG", "ENTRIES", "META", "CHECKSUM"])
def test_load_rejects_a_file_that_is_not_utf8(tmp_path, buildings_store, name):
    save_snapshot(buildings_store, tmp_path)
    with open(tmp_path / name, "ab") as fh:
        fh.write(b"\xff\n")
    if name != "CHECKSUM":
        rewrite_checksums(tmp_path)  # the digest matches, so decoding is what fails
    with pytest.raises(SnapshotError, match=f"{name} is not UTF-8: invalid start byte at byte "):
        load_snapshot(tmp_path)


def test_an_open_store_holds_no_tracked_object_per_entry(tmp_path):
    # Entries are int tuples and ints, which the collector stops tracking;
    # only the per-graph and per-subject index lists and the terms remain.
    cfg = GenConfig(products=100, graphs=4, versions=30, change_rate=0.1, seed=3)
    store = Store()
    for ordinal in range(1, cfg.versions + 1):
        store.ingest_version(generate_version(cfg, ordinal))
    save_snapshot(store, tmp_path)
    del store
    gc.collect()
    before = len(gc.get_objects())
    loaded = load_snapshot(tmp_path)
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert len(loaded.entries) == 1931
    assert grown < len(loaded.entries) // 2


def test_snapshot_preserves_labels_and_user_metadata(tmp_path):
    store = Store()
    store.ingest_version(parse_nquads(read_fixture("buildings_v1.nq")), label="survey 2023")
    store.add_metadata([(iri("urn:dataset"), iri("urn:dc:creator"), literal("city lab"))])
    save_snapshot(store, tmp_path)
    loaded = load_snapshot(tmp_path)
    assert loaded.version_labels == {1: "survey 2023"}
    assert loaded.user_metadata == [(iri("urn:dataset"), iri("urn:dc:creator"), literal("city lab"))]
    assert loaded == store


# The line breaks of `str.splitlines` other than LF and CR, which
# `serialize_term` escapes and a label may not hold.
OTHER_LINE_BREAKS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


@pytest.mark.parametrize("char", OTHER_LINE_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
def test_another_line_break_in_a_literal_or_label_round_trips(tmp_path, char):
    store = Store()
    doc = parse_nquads(f'<urn:s> <urn:p> "a{char}b" <urn:g> .\n', require_graph=True)
    store.ingest_version(doc, label=f"survey{char}2023")
    store.add_metadata([(iri("urn:dataset"), iri("urn:note"), literal(f"x{char}y"))])
    save_snapshot(store, tmp_path)
    loaded = load_snapshot(tmp_path)
    assert loaded == store
    assert loaded.version_labels == {1: f"survey{char}2023"}
    assert loaded.dictionary.lookup(literal(f"a{char}b")) is not None
    assert loaded.user_metadata == [(iri("urn:dataset"), iri("urn:note"), literal(f"x{char}y"))]


@pytest.mark.parametrize("predicate", [IS_IN_VERSION, IS_VERSION_OF], ids=["in-version", "version-of"])
def test_add_metadata_rejects_linking_predicates(buildings_store, predicate):
    before = list(buildings_store.metadata_graph())
    note = (iri("urn:dataset"), iri("urn:dc:title"), literal("heights"))
    link = (iri("urn:converg:vng:1"), predicate, iri("urn:converg:version:7"))
    with pytest.raises(IngestError, match="reserved predicate"):
        buildings_store.add_metadata([note, link])
    assert buildings_store.user_metadata == []
    assert list(buildings_store.metadata_graph()) == before


def test_add_metadata_rejects_literal_subject(tmp_path, buildings_store):
    note = (iri("urn:dataset"), iri("urn:dc:title"), literal("heights"))
    bad = (literal("dataset"), iri("urn:dc:title"), literal("heights"))
    with pytest.raises(IngestError, match="subject must be an IRI or blank node"):
        buildings_store.add_metadata([note, bad])
    assert buildings_store.user_metadata == []
    save_snapshot(buildings_store, tmp_path)
    assert load_snapshot(tmp_path) == buildings_store


def test_add_metadata_rejects_a_malformed_datatype_iri(tmp_path, buildings_store):
    # A Term made with object.__new__ never ran its constructor's checks;
    # add_metadata runs them again before it stores anything.
    bad = object.__new__(Term)
    for name, value in zip(("kind", "lexical", "datatype", "language"), ("literal", "x", "a b", None)):
        object.__setattr__(bad, name, value)
    note = (iri("urn:dataset"), iri("urn:dc:title"), literal("heights"))
    with pytest.raises(IngestError, match="datatype IRI must be non-empty, without whitespace"):
        buildings_store.add_metadata([note, (iri("urn:dataset"), iri("urn:dc:title"), bad)])
    assert buildings_store.user_metadata == []
    save_snapshot(buildings_store, tmp_path)
    assert load_snapshot(tmp_path) == buildings_store


def test_add_metadata_rejects_a_lone_surrogate(tmp_path, buildings_store):
    bad = object.__new__(Term)
    for name, value in zip(("kind", "lexical", "datatype", "language"), ("literal", "a\ud800", None, None)):
        object.__setattr__(bad, name, value)
    with pytest.raises(IngestError, match="a term's text may not hold a lone surrogate"):
        buildings_store.add_metadata([(iri("urn:dataset"), iri("urn:dc:title"), bad)])
    assert buildings_store.user_metadata == []
    save_snapshot(buildings_store, tmp_path)
    assert load_snapshot(tmp_path) == buildings_store


# A document built from Quads holds only Terms, and no Term holds what a
# snapshot cannot save.
@pytest.mark.parametrize(
    "build",
    [lambda: literal("a\ud800"), lambda: iri("urn:\udfff"), lambda: literal("x", datatype="urn:\udc00")],
    ids=["literal", "iri", "datatype"],
)
def test_a_term_holding_a_lone_surrogate_is_rejected(build):
    with pytest.raises(ValueError, match="a term's text may not hold a lone surrogate"):
        build()


@pytest.mark.parametrize(
    "triple",
    [
        ("urn:dataset", iri("urn:dc:title"), literal("heights")),
        (iri("urn:dataset"), iri("urn:dc:title"), "heights"),
        (iri("urn:dataset"), iri("urn:dc:title")),
    ],
    ids=["str-subject", "str-object", "two-terms"],
)
def test_add_metadata_rejects_non_terms(buildings_store, triple):
    with pytest.raises(IngestError, match="metadata triple"):
        buildings_store.add_metadata([triple])
    assert buildings_store.user_metadata == []
    assert execute_query(buildings_store, "SELECT ?s ?o WHERE { ?s ?p ?o . }").rows


def test_metadata_graph_two_triples_per_record():
    store = Store()
    store.ingest_version(
        ParsedDocument(
            quads=[Quad(iri("urn:ex:a"), HEIGHT, literal("1"), GR_LYON), Quad(iri("urn:ex:a"), HEIGHT, literal("2"), IGN)]
        )
    )
    note = (iri("urn:dataset"), iri("urn:dc:title"), literal("heights"))
    store.add_metadata([note])
    vng1, vng2 = iri("urn:converg:vng:1"), iri("urn:converg:vng:2")
    version1 = iri("urn:converg:version:1")
    assert store.metadata_graph() == (
        (vng1, IS_VERSION_OF, GR_LYON),
        (vng1, IS_IN_VERSION, version1),
        (vng2, IS_VERSION_OF, IGN),
        (vng2, IS_IN_VERSION, version1),
        note,
    )
    assert store.stats().metadata_triple_count == 5


def test_add_metadata_dedups_and_keeps_the_metadata_graph(buildings_store):
    graph = buildings_store.metadata_graph()
    assert len(graph) == 8
    assert buildings_store.metadata_graph() is graph
    note = (iri("urn:dataset"), iri("urn:dc:title"), literal("heights"))
    assert buildings_store.add_metadata([note, note]) == 1
    assert buildings_store.add_metadata([note]) == 0
    assert buildings_store.user_metadata == [note]
    graph = buildings_store.metadata_graph()
    assert note in graph and len(graph) == 9
    assert buildings_store.metadata_graph() is graph
    buildings_store.ingest_version(parse_nquads(read_fixture("buildings_v1.nq")))
    assert len(buildings_store.metadata_graph()) == 13


def test_metadata_graph_round_trips_through_flat_export(buildings_store):
    buildings_store.add_metadata(
        [(iri("urn:dataset"), iri("urn:dc:title"), literal("heights"))]
    )
    text = serialize_nquads(buildings_store.export_flat())
    doc = parse_nquads(text)
    reparsed = {q.triple() for q in doc.quads if q.graph is None}
    assert reparsed == set(buildings_store.metadata_graph())


def test_snapshot_round_trip_random_stores(tmp_path):
    rng = random.Random(31337)
    for i in range(20):
        store, _ = random_store(rng)
        if rng.random() < 0.3:
            store.add_metadata([(iri("urn:d"), iri("urn:note"), literal(f"case {i}"))])
        target = tmp_path / f"s{i}"
        save_snapshot(store, target)
        assert load_snapshot(target) == store


# ------------------------------------------------------------------- fuzz

_FUZZED_FILES = ("MANIFEST", "DICT", "VNG", "ENTRIES", "META")
_FUZZ_EDITS = ("delete", "duplicate", "swap", "tab", "digits")
_DIGIT_RUN = re.compile("[0-9]+")
_EXTRA_VERSION = (
    '<urn:ex:bldg4> <urn:ex:height> "12" <urn:ng:IGN> .\n'
    '<urn:ex:bldg1> <urn:ex:height> "10.5"^^<http://www.w3.org/2001/XMLSchema#decimal> <urn:ng:Gr-Lyon> .\n'
)


def _fuzz_sources(tmp_path) -> dict:
    """The lines of each snapshot file of an empty store and of the
    buildings store with a label and a metadata triple."""
    labelled = Store()
    labelled.ingest_version(parse_nquads(read_fixture("buildings_v1.nq")), label="survey 2023")
    labelled.ingest_version(parse_nquads(read_fixture("buildings_v2.nq")))
    labelled.add_metadata([(iri("urn:dataset"), iri("urn:dc:created"), literal("2024", datatype=XSD + "gYear"))])
    sources = {}
    for name, store in (("init", Store()), ("buildings", labelled)):
        save_snapshot(store, tmp_path / name)
        sources[name] = {f: (tmp_path / name / f).read_text().split("\n")[:-1] for f in _FUZZED_FILES}
    return sources


def _fits(kind: str, lines: list, index: int) -> bool:
    if kind == "swap":
        return index + 1 < len(lines)
    if kind == "tab":
        return "\t" in lines[index]
    if kind == "digits":
        return _DIGIT_RUN.search(lines[index]) is not None
    return True


def _fuzz_edit(rng, files: dict) -> str:
    """Edit one line of `files` in place, as one of `_FUZZ_EDITS`; returns
    what was done."""
    while True:
        kind = rng.choice(_FUZZ_EDITS)
        spots = [(f, i) for f in _FUZZED_FILES for i in range(len(files[f])) if _fits(kind, files[f], i)]
        if spots:
            break
    name, index = rng.choice(spots)
    lines = files[name]
    line = lines[index]
    if kind == "delete":
        del lines[index]
    elif kind == "duplicate":
        lines.insert(index, line)
    elif kind == "swap":
        lines[index], lines[index + 1] = lines[index + 1], line
    elif kind == "tab":
        tabs = [m.start() for m in re.finditer("\t", line)]
        at = rng.choice(tabs)
        lines[index] = line[:at] + " " + line[at + 1 :]
    else:
        run = rng.choice(list(_DIGIT_RUN.finditer(line)))
        value = int(run.group())
        new = rng.choice((-1, 0, value - 1, value + 1, 2 * value))
        lines[index] = line[: run.start()] + str(new) + line[run.end() :]
    return f"{kind} {name} line {index + 1} {line!r} -> {lines[index:index + 2]!r}"


def _check_fuzzed(directory, files: dict, resaved) -> bool:
    """Write `files` and open them: True if the open raised SnapshotError,
    False if the store it gave works and reopens equal once extended."""
    for name, lines in files.items():
        (directory / name).write_text("".join(line + "\n" for line in lines))
    rewrite_checksums(directory)
    try:
        store = load_snapshot(directory)
    except SnapshotError:
        return True
    store.stats()
    list(store.export_flat())
    store.ingest_version(parse_nquads(_EXTRA_VERSION, require_graph=True))
    save_snapshot(store, resaved)
    assert load_snapshot(resaved) == store
    return False


# Two edits that once opened and then failed in a later command: a negative
# version count (ingest shifted by -1) and a literal as an entry's subject
# (the flat export built a Quad it rejects).
_FIXED_FUZZ_CASES = [
    ("init", "MANIFEST", 1, "version-count=-1"),
    ("buildings", "ENTRIES", 0, "3\t2\t1\t2\t11"),
]


def test_every_edited_snapshot_is_rejected_or_works(tmp_path):
    sources = _fuzz_sources(tmp_path)
    target, resaved = tmp_path / "edited", tmp_path / "resaved"
    save_snapshot(Store(), target)
    cases = []
    for source, name, index, new in _FIXED_FUZZ_CASES:
        files = {f: list(lines) for f, lines in sources[source].items()}
        files[name][index] = new
        cases.append((f"{source}: {name} line {index + 1} -> {new!r}", files))
    rng = random.Random(2929)
    for _ in range(500):
        source = rng.choice(sorted(sources))
        files = {f: list(lines) for f, lines in sources[source].items()}
        cases.append((f"{source}: " + _fuzz_edit(rng, files), files))
    rejected = 0
    for what, files in cases:
        try:
            rejected += _check_fuzzed(target, files, resaved)
        except Exception as exc:
            raise AssertionError(f"after the edit {what}") from exc
    assert _check_fuzzed(target, sources["buildings"], resaved) is False  # the unedited store works
    assert 0 < rejected < len(cases)
