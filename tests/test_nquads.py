from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from converg.errors import ParseError
from converg.model import XSD, Quad, blank, iri, literal
from converg.nquads import parse_nquads, parse_term, serialize_nquads, serialize_term

DECIMAL = XSD + "decimal"


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
