from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from converg import nquads
from converg.errors import ParseError
from converg.model import XSD, Quad, blank, iri, literal
from converg.nquads import (
    _FAST_LINE,
    _parse_line,
    parse_nquads,
    parse_term,
    serialize_nquads,
    serialize_term,
)

DECIMAL = XSD + "decimal"


def serialize_quad(quad: Quad) -> str:
    """One quad term by term, without its line end: the reference that
    `serialize_nquads` is compared against."""
    parts = [
        serialize_term(quad.subject),
        serialize_term(quad.predicate),
        serialize_term(quad.object),
    ]
    if quad.graph is not None:
        parts.append(serialize_term(quad.graph))
    return " ".join(parts) + " ."


def test_single_quad_line():
    line = (
        '<urn:ex:bldg1> <urn:ex:height> "10.5"^^<http://www.w3.org/2001/XMLSchema#decimal>'
        " <urn:ng:Gr-Lyon> .\n"
    )
    doc = parse_nquads(line)
    assert len(doc.quads) == 1
    q = doc.quads[0]
    assert q.subject == iri("urn:ex:bldg1")
    assert q.predicate == iri("urn:ex:height")
    assert q.object == literal("10.5", datatype=DECIMAL)
    assert q.graph == iri("urn:ng:Gr-Lyon")


def test_empty_file():
    doc = parse_nquads("")
    assert doc.quads == []


def test_comments_and_blank_lines_are_skipped():
    doc = parse_nquads("# header\n\n   # indented comment\n<urn:s> <urn:p> <urn:o> .\n")
    assert len(doc.quads) == 1


def test_strict_mode_reports_line_and_column():
    with pytest.raises(ParseError) as exc:
        parse_nquads("<urn:s> <urn:p> <urn:o> .\n<urn:s> <urn:p> oops .\n")
    assert exc.value.line == 2
    assert exc.value.column == 17


def test_default_graph_quads_parse_as_triples():
    doc = parse_nquads("<urn:converg:vng:1> <urn:converg:vocab:is-version-of> <urn:ng:Gr-Lyon> .\n")
    assert doc.quads[0].graph is None


def test_require_graph_rejects_triples():
    with pytest.raises(ParseError):
        parse_nquads("<urn:s> <urn:p> <urn:o> .\n", require_graph=True)


def test_escape_handling_round_trip():
    q = Quad(iri("urn:s"), iri("urn:p"), literal('tab\there "quoted" \\ and\nnewline'))
    again = parse_nquads(serialize_nquads([q])).quads[0]
    assert again == q


def test_unicode_escapes():
    doc = parse_nquads('<urn:s> <urn:p> "\\u00e9\\U0001F600" .\n')
    assert doc.quads[0].object.lexical == "é\U0001F600"


@pytest.mark.parametrize("escape", ["\\uD800", "\\udfff", "\\U0000DC00"])
def test_surrogate_escape_is_a_positioned_error(escape):
    with pytest.raises(ParseError, match="surrogate") as exc:
        parse_nquads(f'<urn:s> <urn:p> <urn:o> .\n<urn:s> <urn:p> "a{escape}" <urn:g> .\n')
    assert exc.value.line == 2
    assert exc.value.column == 19


def test_unsupported_escape_is_strict_error():
    with pytest.raises(ParseError):
        parse_nquads('<urn:s> <urn:p> "\\q" .\n')


def test_language_tagged_literal():
    doc = parse_nquads('<urn:s> <urn:p> "chat"@fr .\n')
    assert doc.quads[0].object == literal("chat", language="fr")


def test_blank_nodes():
    doc = parse_nquads("_:a <urn:p> _:b.\n")
    assert doc.quads[0].subject == blank("a")
    assert doc.quads[0].object == blank("b")


def test_graph_must_be_iri():
    with pytest.raises(ParseError):
        parse_nquads("<urn:s> <urn:p> <urn:o> _:g .\n")


def test_serialize_empty_is_empty():
    assert serialize_nquads([]) == ""


def test_metadata_triple_layout():
    q = Quad(iri("urn:converg:vng:1"), iri("urn:converg:vocab:is-version-of"), iri("urn:ng:Gr-Lyon"))
    line = serialize_nquads([q])
    assert line == "<urn:converg:vng:1> <urn:converg:vocab:is-version-of> <urn:ng:Gr-Lyon> .\n"
    assert line.count(" ") == 3


def test_serialize_nquads_equals_line_by_line_serialization():
    # Terms repeat across quads and positions, as equal but distinct
    # objects too; literals differing only in datatype or language tag
    # must each keep their own text.
    g = iri("urn:ng:g")
    escaped = literal('say "hi"\\\n\tthere\r')
    quads = [
        Quad(iri("urn:s"), iri("urn:p"), escaped, g),
        Quad(iri("urn:s"), iri("urn:p"), literal('say "hi"\\\n\tthere\r'), None),
        Quad(blank("b1"), iri("urn:p"), literal("chat", language="fr"), g),
        Quad(blank("b1"), iri("urn:p"), literal("chat", language="en-GB"), iri("urn:ng:g")),
        Quad(iri("urn:ng:g"), iri("urn:p"), literal("chat"), None),
        Quad(blank("b1"), iri("urn:q"), literal("7", datatype=XSD + "integer"), g),
        Quad(blank("b2"), iri("urn:q"), literal("7", datatype=DECIMAL), g),
        Quad(iri("urn:s"), iri("urn:q"), g, g),
        Quad(iri("urn:s"), iri("urn:p"), escaped, g),
    ]
    expected = "".join(serialize_quad(q) + "\n" for q in quads)
    assert serialize_nquads(quads) == expected
    assert serialize_nquads(iter(quads)) == expected
    assert '"say \\"hi\\"\\\\\\n\\tthere\\r"' in expected
    assert Counter(parse_nquads(expected).quads) == Counter(quads)


def test_parse_term_single():
    assert parse_term('"1"^^<' + XSD + 'integer>') == literal("1", datatype=XSD + "integer")
    with pytest.raises(ParseError):
        parse_term("<urn:a> <urn:b>")


def test_invalid_utf8_is_a_strict_error():
    with pytest.raises(ParseError, match="UTF-8"):
        parse_nquads(b"<urn:s> <urn:p> \xff\xfe .\n")


def test_line_order_is_preserved():
    text = "".join(f"<urn:s:{i}> <urn:p> <urn:o:{i}> .\n" for i in range(10))
    doc = parse_nquads(text)
    assert [q.subject.lexical for q in doc.quads] == [f"urn:s:{i}" for i in range(10)]


# One row per error the line reader raises: (text, require_graph, message,
# line, column).
NQUADS_ERRORS = [
    # IRIs: a '<' with no '>' after it, and contents the constructor refuses
    ("<urn:s> <urn:p> <urn:o", False, "unterminated IRI", 1, 17),
    ("<> <urn:p> <urn:o> .", False, "IRI must be non-empty, without whitespace or angle brackets: ''", 1, 1),
    ("<urn:s> <urn:p> <urn:a b> .", False, "IRI must be non-empty, without whitespace or angle brackets: 'urn:a b'", 1, 17),
    ("<urn:s> <urn:p> <urn:<o> .", False, "IRI must be non-empty, without whitespace or angle brackets: 'urn:<o'", 1, 17),
    # blank node labels
    ("_: <urn:p> <urn:o> .", False, "malformed blank node label: ''", 1, 1),
    ("_:abé <urn:p> <urn:o> .", False, "malformed blank node label: 'abé'", 1, 1),
    # literals: an unclosed one fails at its first bad escape, else past its end
    ('<urn:s> <urn:p> "abc', False, "unterminated literal", 1, 21),
    ('<urn:s> <urn:p> "a\\tb', False, "unterminated literal", 1, 22),
    ('<urn:s> <urn:p> "a\\qb', False, "unsupported escape \\q", 1, 19),
    ('<urn:s> <urn:p> "a\\', False, "dangling escape", 1, 19),
    ('<urn:s> <urn:p> "a\\u12" .', False, "malformed \\u escape", 1, 19),
    ('<urn:s> <urn:p> "a\\U00110000" .', False, "escape beyond the Unicode range", 1, 19),
    ('<urn:s> <urn:p> "a\\uD800" .', False, "escape names a surrogate code point", 1, 19),
    ('<urn:s> <urn:p> "a\\qb" .', False, "unsupported escape \\q", 1, 19),
    # language tags and datatypes
    ('<urn:s> <urn:p> "x"@ .', False, "malformed language tag: ''", 1, 21),
    ('<urn:s> <urn:p> "x"@1en .', False, "malformed language tag: '1en'", 1, 21),
    ('<urn:s> <urn:p> "1"^^urn:dt .', False, "datatype must be an IRI", 1, 22),
    ('<urn:s> <urn:p> "1"^^<urn:dt', False, "unterminated IRI", 1, 22),
    ('<urn:s> <urn:p> "1"^^<urn:d t> .', False, "IRI must be non-empty, without whitespace or angle brackets: 'urn:d t'", 1, 22),
    # where a term should start
    ("<urn:s> <urn:p>", False, "unexpected end of line", 1, 16),
    ("<urn:s> <urn:p> x .", False, "unexpected character 'x'", 1, 17),
    ("<urn:s> <urn:p> # comment", False, "unexpected character '#'", 1, 17),
    ("<urn:s> <urn:p> <urn:o>\u00a0<urn:g> .", False, "unexpected character '\\xa0'", 1, 24),
    ("\ufeff<urn:s> <urn:p> <urn:o> .", False, "unexpected character '\\ufeff'", 1, 1),
    ("<urn:s> <urn:p> <urn:o> <urn:g> .\n<urn:s> <urn:p> oops .", False, "unexpected character 'o'", 2, 17),
    # the statement's shape
    ("<urn:s> <urn:p> <urn:o> <urn:g> <urn:h> .", False, "expected '.' after four terms", 1, 33),
    ("<urn:s> <urn:p> <urn:o> <urn:g> x .", False, "expected '.' after four terms", 1, 33),
    ("<urn:s> <urn:p> <urn:o> . x", False, "trailing content after '.'", 1, 27),
    ("<urn:s> <urn:p> _:o. <urn:g> .", False, "trailing content after '.'", 1, 22),
    ("<urn:s> <urn:p> .", False, "statement needs at least subject, predicate, object", 1, 18),
    ("<urn:s> <urn:p> . # comment", False, "statement needs at least subject, predicate, object", 1, 19),
    # the terms' kinds
    ('<urn:s> <urn:p> <urn:o> "g" .', False, "graph term must be an IRI", 1, 25),
    ("<urn:s> <urn:p> <urn:o> .", True, "version data must name a graph; default-graph quads are reserved for metadata", 1, 26),
    ("<urn:s> <urn:p> <urn:o> . # c", True, "version data must name a graph; default-graph quads are reserved for metadata", 1, 27),
    ('"s" <urn:p> <urn:o> <urn:g> .', False, "quad subject must be an IRI or blank node", 1, 1),
    ("<urn:s> _:p <urn:o> <urn:g> .", False, "quad predicate must be an IRI", 1, 9),
]

# `parse_term`'s own errors: (text, message, column).
TERM_ERRORS = [
    ("<urn:a> <urn:b>", "trailing content after term", 9),
    ('"x"^^<urn:dt> .', "trailing content after term", 15),
    ("", "unexpected end of line", 1),
    ('"a\\q"', "unsupported escape \\q", 3),
]


@pytest.mark.parametrize("text,require_graph,message,line,column", NQUADS_ERRORS)
def test_every_nquads_error_is_pinned_with_its_position(text, require_graph, message, line, column):
    for data in (text, text.replace("\n", "\r\n") + "\r\n", text.encode("utf-8")):
        with pytest.raises(ParseError) as exc:
            parse_nquads(data, require_graph=require_graph)
        assert (exc.value.message, exc.value.line, exc.value.column) == (message, line, column)


@pytest.mark.parametrize("text,message,column", TERM_ERRORS)
def test_every_term_error_is_pinned_with_its_position(text, message, column):
    with pytest.raises(ParseError) as exc:
        parse_term(text)
    assert (exc.value.message, exc.value.line, exc.value.column) == (message, 1, column)


def test_parse_term_allows_blanks_around_the_term_and_a_comment_after_it():
    assert parse_term(" \t<urn:a>\t # note") == iri("urn:a")


# ----------------------------------------------------------- property tests

_texts = st.text(min_size=0, max_size=12)
_iris = st.builds(lambda s: iri("urn:x:" + s), st.text("abcdef019-._~", max_size=8))
_literals = st.one_of(
    st.builds(literal, _texts),
    st.builds(lambda s: literal(s, datatype=XSD + "integer"), st.integers(-99, 99).map(str)),
    st.builds(lambda s: literal(s, language="en-GB"), _texts),
)
_blanks = st.builds(lambda s: blank("b" + s), st.text("abc019", max_size=5))
_subjects = st.one_of(_iris, _blanks)
_objects = st.one_of(_iris, _literals, _blanks)
_graphs = st.one_of(st.none(), _iris)
_quads = st.builds(Quad, _subjects, _iris, _objects, _graphs)


@given(st.lists(_quads, max_size=40))
@settings(max_examples=200)
def test_round_trip_preserves_quad_multiset(quads):
    text = serialize_nquads(quads)
    again = parse_nquads(text)
    assert Counter(again.quads) == Counter(quads)


@given(st.lists(st.sampled_from(range(6)), max_size=30), st.lists(_quads, min_size=1, max_size=6))
def test_serialize_nquads_matches_serialize_quad_on_repeats(picks, pool):
    quads = [pool[i % len(pool)] for i in picks]
    assert serialize_nquads(quads) == "".join(serialize_quad(q) + "\n" for q in quads)


@given(st.one_of(_subjects, _objects))
def test_term_serialization_round_trips(term):
    assert parse_term(serialize_term(term)) == term


_nquads_bytes = st.text("<>_:\"\\@^#. \t\r\nuU0aé-", max_size=300).map(str.encode)


@given(st.one_of(st.binary(max_size=300), _nquads_bytes), st.booleans())
@settings(max_examples=300)
def test_arbitrary_bytes_parse_or_raise_parse_error(data, require_graph):
    try:
        doc = parse_nquads(data, require_graph=require_graph)
    except ParseError:
        return
    assert isinstance(doc.quads, list)


# ------------------------------------------- fast path against the scanner


def _scanned(data, require_graph):
    """("quads", list) or ("error", message, line, column) of reading `data`
    with the scanner alone, line by line."""
    try:
        if isinstance(data, bytes):
            try:
                data = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"input is not UTF-8: {exc}")
        lines = enumerate(data.split("\n"), start=1)
        rows = [_parse_line(line.rstrip("\r"), n, require_graph) for n, line in lines]
    except ParseError as exc:
        return ("error", exc.message, exc.line, exc.column)
    return ("quads", [Quad(*row) for row in rows if row is not None])


def _parsed(data, require_graph):
    """`_scanned`'s outcome for `parse_nquads`, whose rows must be its
    quads' fields."""
    try:
        doc = parse_nquads(data, require_graph=require_graph)
    except ParseError as exc:
        return ("error", exc.message, exc.line, exc.column)
    assert doc.rows == [(q.subject, q.predicate, q.object, q.graph) for q in doc.quads]
    return ("quads", doc.quads)


def _assert_same_as_scanner(line, require_graph):
    # The second parse finds the line's tokens in the process-wide memo.
    assert _parsed(line, require_graph) == _scanned(line, require_graph), repr(line)
    assert _parsed(line, require_graph) == _scanned(line, require_graph), repr(line)


EDGE_LINES = [
    '<urn:s> <urn:p> "a\\tb" <urn:g> .',
    '<urn:s> <urn:p> "caf\\u00e9" <urn:g> .',
    '<urn:s> <urn:p> "\\uD800" <urn:g> .',
    '<urn:s> <urn:p> "\\q" <urn:g> .',
    "<urn:s> <urn:p> <urn:o> <urn:g> . # trailing comment",
    "# a comment",
    "   # an indented comment",
    "",
    " \t ",
    "<urn:s> <urn:p> <urn:o> <urn:g> .\r",
    "<urn:s>\t<urn:p>\t<urn:o>\t<urn:g>\t.\t",
    "\t<urn:s> <urn:p> <urn:o> <urn:g>.",
    "<a><b><c><g>.",
    "_:a <urn:p> _:b.",
    "_:a <urn:p> _:a. <urn:g> .",
    "_:a <urn:p> _:a..b <urn:g> .",
    "_:a <urn:p> _:a.. ",
    "_:a.b <urn:p> _:-b <urn:g> .",
    "_:ab\u00e9 <urn:p> <urn:o> <urn:g> .",
    '<urn:s> <urn:p> "x"@en- <urn:g> .',
    '<urn:s> <urn:p> "x"@abcdefghi <urn:g> .',
    '<urn:s> <urn:p> "x"@en-abcdefghi <urn:g> .',
    '<urn:s> <urn:p> "x"@en-GB-1 <urn:g> .',
    '<urn:s> <urn:p> "x"@en.',
    '<urn:s> <urn:p> "x"@1en <urn:g> .',
    '<urn:s> <urn:p> "\u00e9"@en <urn:g> .',
    '<urn:s> <urn:p> "\u00e9"@en\u00e9 <urn:g> .',
    "<> <urn:p> <urn:o> <urn:g> .",
    "<urn:s> <urn:p> <> .",
    '<urn:s> <urn:p> "1"^^<a b> <urn:g> .',
    '<urn:s> <urn:p> "1"^^<urn:"dt"> <urn:g> .',
    '<urn:s> <urn:p> "1"^^<urn:"abcd> <urn:g> .',
    '<urn:s> <urn:p> "1"^^<urn:dt><urn:g>.',
    '<urn:s> <urn:p> "1"^<urn:dt> <urn:g> .',
    '<urn:s> <urn:p> "1"^^urn:dt <urn:g> .',
    '"s" <urn:p> <urn:o> <urn:g> .',
    "<urn:s> _:p <urn:o> <urn:g> .",
    "<urn:s> <urn:p> <urn:o> _:g .",
    '<urn:s> <urn:p> <urn:o> "g" .',
    "<urn:s> <urn:p> <urn:o> <urn:g> <urn:h> .",
    "<urn:s> <urn:p> <urn:o>",
    "<urn:s> <urn:p> .",
    "<urn:s> <urn:p> <urn:o> . .",
    "<urn:s> <urn:p> <urn:o> <urn:g> ..",
    "<urn:s <urn:p> <urn:o> .",
    "<urn:s> <urn:p> <urn:o> .",
    '<urn:s> <urn:p> "unterminated .',
    '<urn:s> <urn:p> "a\rb" <urn:g> .',
    "\ufeff<urn:s> <urn:p> <urn:o> <urn:g> .",
    "<urn:s> <urn:p> <urn:o>\u00a0<urn:g> .",
]


@pytest.mark.parametrize("require_graph", [False, True])
@pytest.mark.parametrize("line", EDGE_LINES)
def test_fast_path_agrees_with_the_scanner_on_edge_lines(line, require_graph):
    _assert_same_as_scanner(line, require_graph)


@pytest.mark.parametrize(
    "line",
    [
        "<urn:s> <urn:p> <urn:o> <urn:g> .",
        '<urn:s> <urn:p> "10"^^<http://www.w3.org/2001/XMLSchema#integer> <urn:g> .',
        '_:b0 <urn:p> "chat"@fr-CA <urn:g>.',
        "<urn:s> <urn:p> _:b1 .",
    ],
)
def test_common_lines_take_the_fast_path(line):
    # Guards the differential tests against a fast path that never matches.
    assert _FAST_LINE(line) is not None


def test_repeated_tokens_share_one_term_per_document():
    doc = parse_nquads("<urn:s> <urn:p> <urn:o> <urn:g> .\n<urn:o> <urn:p> <urn:s> <urn:g> .\n")
    first, second = doc.quads
    assert first.subject is second.object and first.predicate is second.predicate
    assert first.graph is second.graph


def test_equal_tokens_in_two_documents_share_one_term():
    line = '<urn:s> <urn:p> "7"^^<urn:dt> <urn:g> .\n_:b1 <urn:p> "x"@en <urn:g> .\n'
    first = parse_nquads(line).quads
    second = parse_nquads("# another document\n" + line).quads
    assert first == second
    for a, b in zip(first, second):
        assert a.subject is b.subject and a.predicate is b.predicate
        assert a.object is b.object and a.graph is b.graph


def test_the_token_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(nquads, "_TERMS_BOUND", 4)
    monkeypatch.setattr(nquads, "_TERMS", {})
    text = "".join(f'<urn:s{i}> <urn:p> "{i}" <urn:g> .\n' for i in range(10))
    quads = parse_nquads(text).quads
    assert len(nquads._TERMS) <= 4
    assert quads == [Quad(iri(f"urn:s{i}"), iri("urn:p"), literal(str(i)), iri("urn:g")) for i in range(10)]


def test_a_rejected_token_fails_again_in_every_document():
    # `<urn:a b>` has the fast path's shape, but no IRI holds a space: the
    # constructor's error is not remembered, so each document falls through
    # to the scanner and reports its own line and column.
    bad = "<urn:s> <urn:p> <urn:a b> <urn:g> ."
    assert _FAST_LINE(bad) is not None
    with pytest.raises(ParseError) as exc:
        parse_nquads(bad + "\n")
    assert (exc.value.line, exc.value.column) == (1, 17)
    with pytest.raises(ParseError) as exc:
        parse_nquads("<urn:s> <urn:p> <urn:o> <urn:g> .\n\n\t" + bad + "\n")
    assert (exc.value.line, exc.value.column) == (3, 18)
    assert "IRI must be non-empty, without whitespace" in exc.value.message


_iri_tokens = st.builds(lambda s: f"<{s}>", st.text("urn:ab#\"\u00e9 <>", max_size=6))
_blank_tokens = st.builds(lambda s: f"_:{s}", st.text("ab0_-.\u00e9", max_size=5))
_escapes = st.sampled_from(["\\t", "\\\"", "\\u00e9", "\\U0001F600", "\\uD800", "\\q", "\\"])
_bodies = st.lists(st.one_of(st.text('ab \u00e9\t\r#.<>@^', max_size=3), _escapes), max_size=3)
_suffixes = st.one_of(
    st.just(""),
    st.builds(lambda s: f"@{s}", st.text("enGB-19\u00e9", max_size=10)),
    st.builds(lambda s: f"^^{s}", _iri_tokens),
    st.sampled_from(["^", "^^", "@"]),
)
_literal_tokens = st.builds(lambda body, suffix: '"' + "".join(body) + '"' + suffix, _bodies, _suffixes)
_tokens = st.one_of(_iri_tokens, _iri_tokens, _blank_tokens, _literal_tokens)
_separators = st.sampled_from([" ", " ", "\t", "", "  ", " \t"])
_ends = st.sampled_from([" .", ".", " .", "\t.\t ", " . # comment", " .\r", "\r", " ..", "", " . ."])


@st.composite
def _lines(draw):
    tokens = draw(st.lists(_tokens, min_size=2, max_size=5))
    if draw(st.booleans()):
        # The common shape: IRI or blank subject, IRI predicate, IRI graph.
        tokens = [draw(st.one_of(_iri_tokens, _blank_tokens)), draw(_iri_tokens), tokens[0]]
        if draw(st.booleans()):
            tokens.append(draw(_iri_tokens))
    lead = draw(st.sampled_from(["", "", " ", "\t", "# "]))
    text = lead + tokens[0]
    for token in tokens[1:]:
        text += draw(_separators) + token
    return text + draw(_ends)


@given(_lines(), st.booleans())
@settings(max_examples=1500)
def test_fast_path_agrees_with_the_scanner_on_generated_lines(line, require_graph):
    _assert_same_as_scanner(line, require_graph)


# ------------------------------------------ documents against the scanner

# Token pools small enough that a document repeats its tokens, so later
# lines find them in the memo, with fresh tokens drawn alongside.
_POOL_IRIS = ["<urn:s>", "<urn:p>", "<urn:o>", "<urn:g>", "<urn:h>", "<http://x.example/a#b>"]
_POOL_BLANKS = ["_:a", "_:b1", "_:x-y.z"]
_POOL_LITERALS = [
    '"x"',
    '""',
    '"a b"',
    '"x"@en',
    '"x"@en-GB',
    '"1"^^<urn:dt>',
    '"a\\tb"',
    '"caf\\u00e9"@fr',
    '"say \\"hi\\""',
]
# Tokens a constructor or the scanner refuses, some in the regex's shapes.
_POOL_BAD = ["<urn:a b>", "<>", "_:a.", '"\\q"', '"x"@1en', '"x"@', "_:", "<urn:s", '"open']
_fresh_iris = st.builds(lambda s: f"<urn:n:{s}>", st.text("ab01é", min_size=1, max_size=3))
_fresh_blanks = st.builds(lambda s: f"_:n{s}", st.text("ab01", max_size=3))
_fresh_literals = st.builds(lambda s: f'"{s}"', st.text("ab é", max_size=3))
_doc_iris = st.one_of(st.sampled_from(_POOL_IRIS), _fresh_iris)
_doc_subjects = st.one_of(_doc_iris, st.sampled_from(_POOL_BLANKS), _fresh_blanks)
_doc_objects = st.one_of(_doc_subjects, st.sampled_from(_POOL_LITERALS), _fresh_literals)
_doc_odd = st.one_of(st.sampled_from(_POOL_BAD), st.sampled_from(_POOL_LITERALS), st.sampled_from(_POOL_BLANKS))
_doc_separators = st.sampled_from([" "] * 6 + ["  ", "\t", " \t"])
_doc_ends = st.sampled_from([" ."] * 8 + [".", "\t.", " .\r", " . # comment", ". "])
_doc_bad_ends = st.sampled_from(["", " . .", " .. ", " _:a. ."])
_doc_other_lines = st.sampled_from(["", "# a comment", "  # indented", " \t ", "\r"])


@st.composite
def _statement_lines(draw, faulty):
    tokens = [draw(_doc_subjects), draw(_doc_iris), draw(_doc_objects)]
    if draw(st.integers(0, 7)):
        tokens.append(draw(_doc_iris))  # mostly a named graph
    if faulty and not draw(st.integers(0, 3)):
        # A literal subject or graph, a blank predicate or graph, or a
        # token the parser refuses.
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_doc_odd)
    lead = draw(st.sampled_from([""] * 8 + [" ", "\t"]))
    text = lead + tokens[0]
    for token in tokens[1:]:
        text += draw(_doc_separators) + token
    return text + draw(st.one_of(_doc_ends, _doc_bad_ends) if faulty else _doc_ends)


@st.composite
def nquads_documents(draw):
    """An N-Quads document as text, or as bytes that may not be UTF-8. One
    in three documents may hold lines the parser refuses."""
    faulty = not draw(st.integers(0, 2))
    lines = _statement_lines(faulty)
    text = "\n".join(draw(st.lists(st.one_of(lines, lines, lines, _doc_other_lines), max_size=25)))
    text += draw(st.sampled_from(["\n", ""]))
    if draw(st.booleans()):
        return text
    data = text.encode("utf-8")
    if faulty and draw(st.booleans()):
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


# Token memo bounds: the real one, and ones small enough that a document
# crosses a clear.
MEMO_BOUNDS = st.sampled_from([1 << 16, 1 << 16, 1, 2, 5])


def check_document_against_the_scanner(data, require_graph, bound):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nquads, "_TERMS_BOUND", bound)
        patch.setattr(nquads, "_TERMS", {})
        expected = _scanned(data, require_graph)
        # First every token is new to the memo; then the document's tokens
        # that the bound let stay are known.
        assert _parsed(data, require_graph) == expected, data
        assert _parsed(data, require_graph) == expected, data
        assert len(nquads._TERMS) <= bound


@given(nquads_documents(), st.booleans(), MEMO_BOUNDS)
@settings(max_examples=600, deadline=None)
def test_every_parser_tier_agrees_with_the_scanner_on_generated_documents(data, require_graph, bound):
    check_document_against_the_scanner(data, require_graph, bound)


def test_known_tokens_make_rows_without_the_regex(monkeypatch):
    line = "<urn:s> <urn:p> _:b1 <urn:g> ."
    first = parse_nquads(line).rows
    monkeypatch.setattr(nquads, "_FAST_LINE", None)  # any regex call now fails
    again = parse_nquads(f"{line}\n{line}").rows
    assert again == first * 2 and all(a is b for a, b in zip(again[0], first[0]))
    monkeypatch.undo()
    # A known literal is still no subject, and a known blank node no
    # predicate or graph; each error points at the term at fault.
    parse_nquads('<urn:s> <urn:p> "x" <urn:g> .')
    for line, message, column in [
        ('"x" <urn:p> <urn:o> <urn:g> .', "quad subject must be an IRI or blank node", 1),
        ("<urn:s> _:b1 <urn:o> <urn:g> .", "quad predicate must be an IRI", 9),
        ("<urn:s> <urn:p> <urn:o> _:b1 .", "graph term must be an IRI", 25),
    ]:
        with pytest.raises(ParseError) as exc:
            parse_nquads(line)
        assert (exc.value.message, exc.value.line, exc.value.column) == (message, 1, column), line


def test_crlf_lines_take_the_fast_tiers(monkeypatch):
    lines = ["<urn:s> <urn:p> <urn:o> <urn:g> .", '<urn:s>\t<urn:p> "a b" <urn:g> .', "<urn:s> <urn:p> <urn:o> <urn:g> ."]
    expected = parse_nquads("\n".join(lines)).rows
    monkeypatch.setattr(nquads, "_TERMS", {})
    monkeypatch.setattr(nquads, "_parse_line", None)  # any scanner call now fails
    # The first line's tokens are new to the memo, and known on the third.
    assert parse_nquads("\r\n".join(lines)).rows == expected
    assert parse_nquads("\r\n".join(lines).encode("utf-8")).rows == expected
