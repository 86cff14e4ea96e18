import io
import os
import pathlib
import subprocess
import sys

import pytest

from conftest import fixture_path, query_path, rewrite_checksums
from converg.cli import main
from converg.sparql import MAX_GROUP_DEPTH
from converg.store import load_snapshot

STATS_LINE = "versions=2 graphs=2 vngs=4 entries=5 flat-quads=6 metadata-triples=8"


def _setup_buildings(tmp_path):
    store_dir = str(tmp_path / "store")
    assert main(["init", store_dir]) == 0
    assert main(["load", store_dir, fixture_path("buildings_v1.nq")]) == 0
    assert main(["load", store_dir, fixture_path("buildings_v2.nq")]) == 0
    return store_dir


def test_init_load_stats_flow(tmp_path, capsys):
    store_dir = _setup_buildings(tmp_path)
    capsys.readouterr()
    assert main(["stats", store_dir]) == 0
    assert capsys.readouterr().out.strip() == STATS_LINE


def test_load_prints_report(tmp_path, capsys):
    store_dir = str(tmp_path / "store")
    main(["init", store_dir])
    capsys.readouterr()
    assert main(["load", store_dir, fixture_path("buildings_v1.nq"), "--label", "survey"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "version=1 vngs=2 quads=3 new-entries=3 duplicates=0"
    assert load_snapshot(store_dir).version_labels == {1: "survey"}


def test_init_refuses_existing_store(tmp_path, capsys):
    store_dir = _setup_buildings(tmp_path)
    capsys.readouterr()
    assert main(["init", store_dir]) == 1
    assert "already" in capsys.readouterr().err


def test_query_tsv_single_row(tmp_path, capsys):
    store_dir = _setup_buildings(tmp_path)
    capsys.readouterr()
    assert main(["query", store_dir, query_path("graph_diff.rq")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "subj\tpred\tobj"
    assert len(lines) == 2
    assert lines[1].startswith("<urn:ex:bldg3>")


def test_query_csv_format(tmp_path, capsys):
    store_dir = _setup_buildings(tmp_path)
    capsys.readouterr()
    assert main(["query", store_dir, query_path("max_by_version.rq"), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "version,agg1"
    assert len(out.splitlines()) == 3


def _stdin(data: bytes):
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def test_query_from_stdin(tmp_path, capsys, monkeypatch):
    store_dir = _setup_buildings(tmp_path)
    monkeypatch.setattr("sys.stdin", _stdin(b"SELECT ?s WHERE { GRAPH ?g { ?s ?p ?o . } }"))
    capsys.readouterr()
    assert main(["query", store_dir, "-"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 6


NON_UTF8_QUERY = b"\xff\xfe" + "SELECT ?s WHERE { ?s ?p ?o . }".encode("utf-16-le")


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_query_of_non_utf8_text_exits_1(tmp_path, capsys, monkeypatch, source):
    store_dir = _setup_buildings(tmp_path)
    path = tmp_path / "utf16.rq"
    path.write_bytes(NON_UTF8_QUERY)
    monkeypatch.setattr("sys.stdin", _stdin(NON_UTF8_QUERY))
    capsys.readouterr()
    assert main(["query", store_dir, str(path) if source == "file" else "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("converg query: ")
    assert "not UTF-8 text: invalid start byte at byte 0" in captured.err


def test_query_file_reads_with_universal_newlines(tmp_path, capsys):
    store_dir = _setup_buildings(tmp_path)
    path = tmp_path / "cr.rq"
    path.write_bytes(b"# one comment line\rSELECT ?s WHERE {\r\n GRAPH ?g { ?s ?p ?o . } }\r")
    capsys.readouterr()
    assert main(["query", store_dir, str(path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 6


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_query_lines_end_at_a_bare_carriage_return_from_file_or_stdin(tmp_path, capsys, monkeypatch, source):
    store_dir = _setup_buildings(tmp_path)

    def run(query: bytes):
        path = tmp_path / "query.rq"
        path.write_bytes(query)
        monkeypatch.setattr("sys.stdin", _stdin(query))
        capsys.readouterr()
        status = main(["query", store_dir, str(path) if source == "file" else "-"])
        return status, capsys.readouterr()

    status, out = run(b"# c\rSELECT ?s WHERE { GRAPH ?g { ?s ?p ?o . } }")
    assert status == 0
    assert len(out.out.splitlines()) == 1 + 6
    status, out = run(b"# c\rSELECT ?s WHERE {\r\n ?s <urn:p> ] }")
    assert status == 1
    assert out.err == "converg query: line 3, column 13: expected an object\n"


def test_query_with_groups_nested_past_the_limit_exits_1(tmp_path, capsys, monkeypatch):
    store_dir = _setup_buildings(tmp_path)
    for depth, status in ((MAX_GROUP_DEPTH, 0), (MAX_GROUP_DEPTH + 1, 1), (500, 1)):
        text = "SELECT ?s WHERE " + "{ " * depth + "?s ?p ?o ." + " }" * depth
        monkeypatch.setattr("sys.stdin", _stdin(text.encode()))
        capsys.readouterr()
        assert main(["query", store_dir, "-"]) == status
        out = capsys.readouterr()
        if status == 0:
            assert out.out.startswith("s\n") and out.err == ""
        else:
            where = f"line 1, column {15 + 2 * (MAX_GROUP_DEPTH + 1)}"
            assert out.err == f"converg query: {where}: groups nested more than {MAX_GROUP_DEPTH} deep\n"


def test_query_unsupported_operator_exits_1(tmp_path, capsys):
    store_dir = _setup_buildings(tmp_path)
    bad = tmp_path / "bad.rq"
    bad.write_text("SELECT ?s WHERE { ?s <urn:p> ?o . OPTIONAL { ?s <urn:q> ?x . } }")
    capsys.readouterr()
    assert main(["query", store_dir, str(bad)]) == 1
    err = capsys.readouterr().err
    assert "unsupported operator OPTIONAL" in err and "query" in err


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
_ENTRY = "from converg.cli import script_entry; script_entry()"
# The same entry, then the converg modules the command imported, and those
# of `logging`, `csv`, `dataclasses`, `inspect` and `decimal` it imported,
# on stderr.
_ENTRY_LISTING_MODULES = (
    "import atexit, sys\n"
    "atexit.register(lambda: print(*sorted(m for m in sys.modules if m.startswith('converg.')"
    " or m in ('logging', 'csv', 'dataclasses', 'inspect', 'decimal')), file=sys.stderr))\n"
    + _ENTRY
)


def _script(args, input=b"", code=_ENTRY):
    """Run `converg <args>` in a child process, as the console script does."""
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        input=input,
        env=dict(os.environ, PYTHONPATH=_SRC),
        capture_output=True,
        timeout=60,
    )


@pytest.mark.parametrize(
    "query, message",
    [
        ('SELECT ?s WHERE { ?s <urn:p> "x"@123 . }', "line 1, column 33: malformed language tag: '123'"),
        ('SELECT ?s WHERE { ?s <urn:p> "\\U00110000" . }', "line 1, column 30: escape beyond the Unicode range"),
    ],
    ids=["language-tag", "escape-beyond-unicode"],
)
def test_query_with_a_malformed_term_exits_1_without_a_traceback(tmp_path, query, message):
    store_dir = _setup_buildings(tmp_path)
    done = _script(["query", store_dir, "-"], input=query.encode())
    assert done.returncode == 1
    assert done.stdout == b""
    assert b"Traceback" not in done.stderr
    assert done.stderr.decode() == f"converg query: {message}\n"


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_query_with_a_raw_carriage_return_in_a_string_exits_1(tmp_path, source):
    # A file reads with universal newlines, stdin as it comes: both refuse it.
    store_dir = _setup_buildings(tmp_path)
    query = b'SELECT ?s WHERE { ?s ?p "a\rb" . }'
    path = tmp_path / "cr-in-string.rq"
    path.write_bytes(query)
    if source == "file":
        done = _script(["query", store_dir, str(path)])
    else:
        done = _script(["query", store_dir, "-"], input=query)
    assert done.returncode == 1
    assert done.stdout == b""
    assert b"Traceback" not in done.stderr
    assert done.stderr.decode() == "converg query: line 1, column 25: unterminated string\n"


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--versions", "0", "products, graphs, and versions must be positive"),
        ("--products", "-1", "products, graphs, and versions must be positive"),
        ("--change-rate", "1.5", "change_rate must be within [0, 1]"),
        ("--change-rate", "nan", "change_rate must be within [0, 1]"),
    ],
)
def test_gen_with_an_invalid_config_exits_1_without_a_traceback(tmp_path, option, value, message):
    out_dir = tmp_path / "synth"
    args = {"--products": "2", "--graphs": "2", "--versions": "2", "--change-rate": "0.5"}
    args[option] = value
    done = _script(["gen", "--out", str(out_dir), *(part for item in args.items() for part in item)])
    assert done.returncode == 1
    assert done.stdout == b""
    assert b"Traceback" not in done.stderr
    assert done.stderr.decode() == f"converg gen: {message}\n"
    assert not out_dir.exists()


def test_each_command_imports_only_what_it_runs(tmp_path):
    synth, store_dir = str(tmp_path / "synth"), str(tmp_path / "store")
    gen = ["gen", "--out", synth, "--products", "3", "--graphs", "2", "--versions", "2", "--seed", "7"]
    assert _script(gen).returncode == 0
    assert _script(["init", store_dir]).returncode == 0
    store_commands = [
        ["load", store_dir, os.path.join(synth, "v0001.nq")],
        ["load", store_dir, os.path.join(synth, "v0002.nq")],
        ["stats", store_dir],
        ["diff", store_dir, "urn:converg:vng:1", "urn:converg:vng:3"],
        ["export-flat", store_dir],
    ]
    for args in store_commands:
        done = _script(args, code=_ENTRY_LISTING_MODULES)
        assert done.returncode == 0, done.stderr
        loaded = set(done.stderr.decode().split())
        assert "converg.store" in loaded
        assert loaded.isdisjoint({"converg.engine", "converg.sparql", "converg.gen"}), args
        # Nor the slow standard modules: no converg module uses dataclasses,
        # and only comparing numbers in a query needs decimal.
        assert loaded.isdisjoint({"dataclasses", "inspect", "decimal"}), args
    done = _script(
        ["query", store_dir, "-"],
        input=b"SELECT ?version WHERE { ?vng <urn:converg:vocab:is-in-version> ?version . }",
        code=_ENTRY_LISTING_MODULES,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.decode().splitlines()[0] == "version"
    assert len(done.stdout.splitlines()) == 1 + 4  # two graphs in each of two versions
    # A TSV answer with nothing to warn about needs neither logging nor csv,
    # and one that neither sums nor compares numbers needs no decimal.
    loaded = set(done.stderr.decode().split())
    assert "converg.engine" in loaded
    assert loaded.isdisjoint({"logging", "csv", "dataclasses", "inspect", "decimal"}), loaded


def _refuse_rows(table):
    raise AssertionError("the output stage decoded result rows")


@pytest.mark.parametrize("fmt", ["tsv", "csv"])
def test_query_writes_golden_bytes_from_lines_without_decoding_rows(tmp_path, capsys, monkeypatch, fmt):
    from converg.engine import ResultTable

    monkeypatch.setattr(ResultTable, "rows", property(_refuse_rows))
    store_dir = _setup_buildings(tmp_path)
    capsys.readouterr()
    assert main(["query", store_dir, query_path("all_versions.rq"), "--format", fmt]) == 0
    with open(query_path(f"all_versions.{fmt}"), "r", encoding="utf-8", newline="") as fh:
        assert capsys.readouterr().out == fh.read()


def test_query_missing_file_exits_1(tmp_path, capsys):
    store_dir = _setup_buildings(tmp_path)
    assert main(["query", store_dir, str(tmp_path / "nope.rq")]) == 1
    assert "not found" in capsys.readouterr().err


def test_diff_prints_sorted_triples(tmp_path, capsys):
    store_dir = _setup_buildings(tmp_path)
    capsys.readouterr()
    assert main(["diff", store_dir, "urn:converg:vng:3", "urn:converg:vng:1"]) == 0
    out = capsys.readouterr().out
    assert out == (
        '<urn:ex:bldg3> <urn:ex:height> "15"^^<http://www.w3.org/2001/XMLSchema#decimal> .\n'
    )


def test_diff_writes_the_fixture_bytes(tmp_path, capsys):
    store_dir = _setup_buildings(tmp_path)
    capsys.readouterr()
    assert main(["diff", store_dir, "urn:converg:vng:1", "urn:converg:vng:3"]) == 0
    with open(fixture_path("diff_vng1_vng3.nt"), encoding="utf-8", newline="") as fh:
        assert capsys.readouterr().out == fh.read()


def test_diff_unknown_vng_exits_1(tmp_path, capsys):
    store_dir = _setup_buildings(tmp_path)
    capsys.readouterr()
    assert main(["diff", store_dir, "urn:converg:vng:3", "urn:nope"]) == 1
    assert "not a versioned named graph" in capsys.readouterr().err


@pytest.mark.parametrize(
    "vng_a, vng_b, named",
    [("a b", "urn:converg:vng:1", "'a b'"), ("urn:converg:vng:3", "", "''")],
    ids=["space", "empty"],
)
def test_diff_argument_that_is_not_an_iri_exits_1(tmp_path, capsys, vng_a, vng_b, named):
    store_dir = _setup_buildings(tmp_path)
    capsys.readouterr()
    assert main(["diff", store_dir, vng_a, vng_b]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("converg diff: not a versioned named graph: ")
    assert captured.err.rstrip().endswith(named)


def test_export_flat_is_idempotent(tmp_path, capsys):
    store_dir = _setup_buildings(tmp_path)
    capsys.readouterr()
    assert main(["export-flat", store_dir]) == 0
    first = capsys.readouterr().out
    assert main(["export-flat", store_dir]) == 0
    assert capsys.readouterr().out == first
    assert first.count("\n") == 14  # 6 versioned quads + 8 metadata triples
    assert "urn:converg:vng:4" in first


def test_query_output_is_idempotent(tmp_path, capsys):
    store_dir = _setup_buildings(tmp_path)
    capsys.readouterr()
    main(["query", store_dir, query_path("all_versions.rq")])
    first = capsys.readouterr().out
    main(["query", store_dir, query_path("all_versions.rq")])
    assert capsys.readouterr().out == first


def test_stats_on_missing_store_exits_2(tmp_path, capsys):
    assert main(["stats", str(tmp_path / "missing")]) == 2
    assert "no store directory" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, operands",
    [
        ("stats", []),
        ("query", [query_path("all_versions.rq")]),
        ("diff", ["urn:converg:vng:1", "urn:converg:vng:2"]),
        ("export-flat", []),
        ("load", [fixture_path("buildings_v1.nq")]),
    ],
)
def test_a_store_command_on_a_directory_without_a_store_exits_2_and_leaves_it_empty(tmp_path, capsys, command, operands):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main([command, str(empty), *operands]) == 2
    assert f"no snapshot at {empty} (missing CHECKSUM)" in capsys.readouterr().err
    assert os.listdir(empty) == []


def test_corrupt_snapshot_exits_2(tmp_path, capsys):
    store_dir = _setup_buildings(tmp_path)
    entries = os.path.join(store_dir, "ENTRIES")
    with open(entries, "a") as fh:
        fh.write("9\t9\t9\t9\t11\n")
    capsys.readouterr()
    assert main(["stats", store_dir]) == 2
    assert "checksum" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, old, new, message",
    [
        # graph id 2 is the literal "10.5"
        ("VNG", b"4\t7\t2\n", b"4\t2\t2\n", "not an IRI"),
        # term 0 is urn:ex:bldg1; IGN's entry keeps its version-2 bit
        ("VNG", b"4\t7\t2\n", b"4\t0\t2\n", "no versioned graph"),
        ("ENTRIES", b"3\t0\t1\t2\t11\n", b"3\t99999\t1\t2\t11\n", "ENTRIES line 1 names a term id outside the dictionary"),
        ("ENTRIES", b"3\t0\t1\t2\t11\n", b"3\t0\t1\t2\t1\xff\n", "ENTRIES is not UTF-8: invalid start byte at byte 9"),
        # term 2 is the literal "10.5", here an entry's subject
        ("ENTRIES", b"3\t0\t1\t2\t11\n", b"3\t2\t1\t2\t11\n", "ENTRIES line 1 names a term that cannot stand in its position"),
        # META is empty, so the edit is the whole file
        ("META", b"", b'\n# a note\n<urn:d> <urn:p> "x" . # trailing\n', "META line 1 is not written as save_snapshot writes it"),
    ],
    ids=[
        "vng-graph-literal",
        "entry-bit-without-vng",
        "entry-term-outside-dictionary",
        "entries-not-utf8",
        "entry-literal-subject",
        "meta-with-comments",
    ],
)
def test_inconsistent_snapshot_exits_2(tmp_path, capsys, name, old, new, message):
    store_dir = _setup_buildings(tmp_path)
    path = pathlib.Path(store_dir, name)
    path.write_bytes(path.read_bytes().replace(old, new))
    rewrite_checksums(pathlib.Path(store_dir))
    capsys.readouterr()
    for command in (["stats", store_dir], ["export-flat", store_dir]):
        assert main(command) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


def test_gen_writes_version_files(tmp_path, capsys):
    out_dir = str(tmp_path / "synth")
    assert (
        main(
            [
                "gen",
                "--out", out_dir,
                "--products", "3",
                "--graphs", "2",
                "--versions", "4",
                "--change-rate", "0.5",
                "--seed", "7",
            ]
        )
        == 0
    )
    assert sorted(os.listdir(out_dir)) == ["v0001.nq", "v0002.nq", "v0003.nq", "v0004.nq"]
    store_dir = str(tmp_path / "store")
    main(["init", store_dir])
    for name in sorted(os.listdir(out_dir)):
        assert main(["load", store_dir, os.path.join(out_dir, name)]) == 0
    capsys.readouterr()
    assert main(["stats", store_dir]) == 0
    assert "versions=4" in capsys.readouterr().out


def test_store_dir_from_environment(tmp_path, capsys, monkeypatch):
    store_dir = _setup_buildings(tmp_path)
    monkeypatch.setenv("CONVERG_STORE", store_dir)
    capsys.readouterr()
    assert main(["stats"]) == 0
    assert capsys.readouterr().out.strip() == STATS_LINE
    assert main(["load", fixture_path("buildings_v1.nq")]) == 0
    capsys.readouterr()
    assert main(["stats"]) == 0
    assert "versions=3" in capsys.readouterr().out


def test_missing_store_argument_without_env(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CONVERG_STORE", raising=False)
    assert main(["stats"]) == 1
    assert "CONVERG_STORE" in capsys.readouterr().err


def test_a_store_whose_literal_and_label_hold_other_line_breaks_reopens(tmp_path, capsys):
    store_dir = str(tmp_path / "db")
    version = tmp_path / "u.nq"
    version.write_text('<urn:s> <urn:p> "a\u2028b" <urn:g> .\n', encoding="utf-8")
    query = tmp_path / "q.rq"
    query.write_text("SELECT ?o WHERE { GRAPH ?g { ?s ?p ?o . } }", encoding="utf-8")
    assert main(["init", store_dir]) == 0
    assert main(["load", store_dir, str(version), "--label", "survey\x852023"]) == 0
    capsys.readouterr()
    assert main(["stats", store_dir]) == 0
    assert "versions=1" in capsys.readouterr().out
    assert main(["query", store_dir, str(query)]) == 0
    assert capsys.readouterr().out == 'o\n"a\u2028b"\n'
    assert load_snapshot(store_dir).version_labels == {1: "survey\x852023"}


def test_load_of_a_surrogate_escape_fails_and_keeps_the_snapshot(tmp_path, capsys):
    store_dir = pathlib.Path(_setup_buildings(tmp_path))

    def snapshot_bytes():
        return {p.name: p.read_bytes() for p in store_dir.iterdir() if not p.name.startswith(".")}

    before = snapshot_bytes()
    bad = tmp_path / "surrogate.nq"
    bad.write_text('<urn:s> <urn:p> "\\uD800" <urn:g> .\n', encoding="utf-8")
    capsys.readouterr()
    # a malformed version file is a user error, like every other ParseError
    assert main(["load", str(store_dir), str(bad)]) == 1
    assert "line 1, column 18" in capsys.readouterr().err
    assert snapshot_bytes() == before


def test_load_on_a_store_with_a_negative_version_count_exits_2(tmp_path, capsys):
    store_dir = tmp_path / "store"
    assert main(["init", str(store_dir)]) == 0
    (store_dir / "MANIFEST").write_text("format-version=1\nversion-count=-1\nvng-counter=0\n")
    rewrite_checksums(store_dir)
    capsys.readouterr()
    assert main(["load", str(store_dir), fixture_path("buildings_v1.nq")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("converg load: MANIFEST incomplete or malformed")
    assert "Traceback" not in err


def test_load_of_a_label_that_is_not_utf8_exits_1(tmp_path, capsys):
    store_dir = _setup_buildings(tmp_path)
    # What Python makes of --label "$(printf 'x\377y')" under a UTF-8 locale.
    label = "x\udcffy"
    capsys.readouterr()
    assert main(["load", store_dir, fixture_path("buildings_v1.nq"), "--label", label]) == 1
    err = capsys.readouterr().err
    assert err == "converg load: version label must be a single line of UTF-8 text\n"
    assert main(["stats", store_dir]) == 0
    assert capsys.readouterr().out.strip() == STATS_LINE


def test_load_of_a_version_file_that_is_not_utf8_names_it(tmp_path, capsys, monkeypatch):
    store_dir = _setup_buildings(tmp_path)
    (tmp_path / "bad.nq").write_bytes(b'<urn:s> <urn:p> "\xff" <urn:g> .\n')
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(["load", store_dir, "bad.nq"]) == 1
    assert capsys.readouterr().err == "converg load: bad.nq is not UTF-8 text: invalid start byte at byte 17\n"
    assert main(["stats", store_dir]) == 0
    assert capsys.readouterr().out.strip() == STATS_LINE


def test_interrupted_save_leaves_prior_snapshot_loadable(tmp_path, capsys, monkeypatch):
    store_dir = _setup_buildings(tmp_path)
    before = load_snapshot(store_dir)

    real_open = open
    calls = {"n": 0}

    def failing_open(path, *args, **kwargs):
        if isinstance(path, str) and ".tmp.ENTRIES" in path:
            raise OSError("simulated crash during write phase")
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr("builtins.open", failing_open)
    code = main(["load", store_dir, fixture_path("buildings_v1.nq")])
    monkeypatch.undo()
    assert code == 2
    after = load_snapshot(store_dir)
    assert after == before
    assert not [n for n in os.listdir(store_dir) if n.startswith(".tmp.")]
