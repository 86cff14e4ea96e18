import copy
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from converg.model import (
    XSD,
    Quad,
    Term,
    VngRecord,
    blank,
    iri,
    literal,
    mint_vng_iri,
    numeric_value,
    term_order_key,
    version_iri,
)

DECIMAL = XSD + "decimal"
INTEGER = XSD + "integer"


# ---------------------------------------------------------------- validity


def test_literal_language_and_datatype_are_exclusive():
    with pytest.raises(ValueError):
        literal("chat", datatype=XSD + "string", language="fr")


def test_language_tagged_literal_has_no_stored_datatype():
    t = literal("chat", language="fr")
    assert t.datatype is None
    assert t.language == "fr"


@pytest.mark.parametrize("bad", ["", "has space", "a<b", "a>b", "tab\there"])
def test_iri_rejects_whitespace_and_brackets(bad):
    with pytest.raises(ValueError):
        iri(bad)


@pytest.mark.parametrize("bad", ["", "a b", "a<b", "a>b", "tab\there"])
def test_literal_datatype_follows_the_iri_rule(bad):
    with pytest.raises(ValueError, match="datatype IRI"):
        literal("x", datatype=bad)


def test_blank_label_validation():
    assert blank("v1b0").lexical == "v1b0"
    with pytest.raises(ValueError):
        blank("")
    with pytest.raises(ValueError):
        blank("no spaces")


def test_term_equality_is_exact():
    assert literal("1", datatype=INTEGER) != literal("01", datatype=INTEGER)
    assert literal("1", datatype=INTEGER) != literal("1", datatype=DECIMAL)
    assert literal("1") != literal("1", datatype=INTEGER)
    assert iri("urn:x") != blank("x") or True  # different kinds never equal
    assert iri("urn:x") != Term("blank", "x")


def test_quad_validation():
    with pytest.raises(ValueError):
        Quad(literal("x"), iri("urn:p"), iri("urn:o"))
    with pytest.raises(ValueError):
        Quad(iri("urn:s"), literal("p"), iri("urn:o"))
    with pytest.raises(ValueError):
        Quad(iri("urn:s"), iri("urn:p"), iri("urn:o"), graph=literal("g"))


@pytest.mark.parametrize(
    "value, field",
    [
        (iri("urn:x"), "lexical"),
        (literal("chat", language="fr"), "_hash"),
        (Quad(iri("urn:s"), iri("urn:p"), literal("o")), "graph"),
        (VngRecord(iri("urn:converg:vng:1"), iri("urn:g"), 1), "ordinal"),
    ],
    ids=["term", "term-hash", "quad", "vng-record"],
)
def test_values_are_immutable(value, field):
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == before


def test_reprs_list_the_fields_as_keywords():
    # Store.add_metadata puts these reprs in its IngestError message.
    assert repr(literal("10.5", datatype=DECIMAL)) == (
        "Term(kind='literal', lexical='10.5', datatype='http://www.w3.org/2001/XMLSchema#decimal', language=None)"
    )
    assert repr(Quad(blank("b0"), iri("urn:p"), literal("chat", language="fr"))) == (
        "Quad(subject=Term(kind='blank', lexical='b0', datatype=None, language=None), "
        "predicate=Term(kind='iri', lexical='urn:p', datatype=None, language=None), "
        "object=Term(kind='literal', lexical='chat', datatype=None, language='fr'), graph=None)"
    )
    assert repr(VngRecord(iri("urn:converg:vng:1"), iri("urn:g"), 2)) == (
        "VngRecord(vng_iri=Term(kind='iri', lexical='urn:converg:vng:1', datatype=None, language=None), "
        "graph=Term(kind='iri', lexical='urn:g', datatype=None, language=None), ordinal=2)"
    )


def test_quads_and_vng_records_compare_by_type_and_fields_and_copy_through_the_constructor():
    s, p, o, g = iri("urn:s"), iri("urn:p"), literal("o"), iri("urn:g")
    quad = Quad(s, p, o, g)
    record = VngRecord(iri("urn:converg:vng:1"), g, 1)
    assert quad == Quad(s, p, o, g) and hash(quad) == hash(Quad(s, p, o, g))
    assert quad != Quad(s, p, o) and quad != (s, p, o, g)
    assert record != (record.vng_iri, record.graph, record.ordinal)
    for value in (quad, record):
        for again in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert again == value and hash(again) == hash(value)


# ----------------------------------------------------------------- minting


def test_vng_minting_is_counter_based():
    assert mint_vng_iri(1) == iri("urn:converg:vng:1")
    assert mint_vng_iri(2) == iri("urn:converg:vng:2")
    assert mint_vng_iri(4) == iri("urn:converg:vng:4")
    with pytest.raises(ValueError):
        mint_vng_iri(0)


def test_version_iri_formatting():
    assert version_iri(1) == iri("urn:converg:version:1")
    assert version_iri(2) == iri("urn:converg:version:2")
    assert version_iri(17) == iri("urn:converg:version:17")
    with pytest.raises(ValueError):
        version_iri(0)


# ---------------------------------------------------------------- ordering


def test_numeric_literals_compare_by_value():
    assert term_order_key(literal("10.5", datatype=DECIMAL)) < term_order_key(literal("11", datatype=DECIMAL))


def test_plain_numeric_fallback():
    # Independent check: brute-force maximum over the version-1 height
    # strings must pick 11, which it only does under numeric comparison.
    heights = [literal("10.5"), literal("9.1"), literal("11")]
    best = heights[0]
    for h in heights[1:]:
        if float(h.lexical) > float(best.lexical):
            best = h
    assert best == literal("11")
    assert max(heights, key=term_order_key) == best
    assert term_order_key(literal("11")) > term_order_key(literal("9.1"))


def test_kind_precedence():
    assert term_order_key(iri("urn:ex:a")) < term_order_key(literal("x"))
    assert term_order_key(blank("b")) < term_order_key(iri("urn:ex:a"))


def test_nan_is_not_numeric():
    assert numeric_value(literal("NaN", datatype=XSD + "double")) is None
    assert numeric_value(literal("NaN")) is None
    assert numeric_value(literal("Infinity")) is None


def test_same_value_different_spelling_stays_ordered():
    a = literal("10", datatype=INTEGER)
    b = literal("10.0", datatype=DECIMAL)
    assert term_order_key(a) != term_order_key(b)
    assert (term_order_key(a) < term_order_key(b)) != (term_order_key(b) < term_order_key(a))


# ------------------------------------------------------- order properties

_terms = st.one_of(
    st.builds(lambda s: iri("urn:t:" + s), st.text("abcxyz09", min_size=1, max_size=6)),
    st.builds(lambda s: blank("b" + s), st.text("abc01", max_size=4)),
    st.builds(
        lambda s, dt: literal(s, datatype=dt),
        st.one_of(
            st.text(max_size=6),
            st.integers(-1000, 1000).map(str),
            st.floats(-100, 100, allow_nan=False).map(lambda f: f"{f:.3f}"),
        ),
        st.sampled_from([None, INTEGER, DECIMAL, XSD + "string"]),
    ),
    st.builds(lambda s: literal(s, language="en"), st.text(max_size=4)),
)


@given(_terms, _terms)
def test_order_is_antisymmetric_and_consistent_with_equality(a, b):
    ka, kb = term_order_key(a), term_order_key(b)
    assert not (ka < kb and kb < ka)
    assert (ka == kb) == (a == b)
    assert (ka < kb or kb < ka) == (a != b)


@given(_terms, _terms, _terms)
def test_order_is_transitive(a, b, c):
    ka, kb, kc = term_order_key(a), term_order_key(b), term_order_key(c)
    if ka <= kb and kb <= kc:
        assert ka <= kc
    x, y, z = sorted([ka, kb, kc])
    assert x <= y <= z and x <= z


@given(_terms)
def test_order_is_reflexive(a):
    twin = Term(a.kind, a.lexical, a.datatype, a.language)
    assert term_order_key(a) == term_order_key(twin)
    assert not term_order_key(a) < term_order_key(twin)


# ------------------------------------------------- cached hash, pickling


_SAMPLE_TERMS = [
    iri("urn:a"),
    blank("b0"),
    literal("x"),
    literal("chat", language="fr"),
    literal("7", datatype=INTEGER),
]


@pytest.mark.parametrize("term", _SAMPLE_TERMS, ids=repr)
def test_copies_equal_the_original_and_hash_the_same(term):
    for again in (copy.copy(term), copy.deepcopy(term), pickle.loads(pickle.dumps(term))):
        assert again == term
        assert hash(again) == hash(term) == hash((term.kind, term.lexical, term.datatype, term.language))
        assert {term: 1}[again] == 1


def test_unpickling_runs_the_constructor_checks():
    bad = object.__new__(Term)
    for name, value in zip(("kind", "lexical", "datatype", "language"), ("iri", "a b", None, None)):
        object.__setattr__(bad, name, value)
    data = pickle.dumps(bad)
    with pytest.raises(ValueError, match="IRI must be non-empty"):
        pickle.loads(data)
    with pytest.raises(ValueError, match="IRI must be non-empty"):
        copy.copy(bad)


def _python(code, hash_seed, stdin=b""):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], input=stdin, env=env, capture_output=True, timeout=60, check=True
    )
    return done.stdout


def test_a_term_pickled_under_one_hash_seed_is_found_under_another():
    make = 'from converg.model import literal; term = literal("chat", language="fr")\n'
    data = _python(make + "import pickle, sys; sys.stdout.buffer.write(pickle.dumps(term))", 1)
    found = _python(
        make + "import pickle, sys; print({term: 'found'}[pickle.loads(sys.stdin.buffer.read())])",
        2,
        stdin=data,
    )
    assert found.decode().strip() == "found"
