"""RDF terms, quads, and the versioned-named-graph vocabulary.

Everything in this module is immutable and hashable, so values can be shared
freely between the store, the query engine, and concurrent readers.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Optional

IRI = "iri"
LITERAL = "literal"
BLANK = "blank"

XSD = "http://www.w3.org/2001/XMLSchema#"
RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDF_TYPE_IRI = RDF_NS + "type"

# Vocabulary for linking a versioned named graph to its graph and version.
VOCAB_NS = "urn:converg:vocab:"
IS_VERSION_OF_IRI = VOCAB_NS + "is-version-of"
IS_IN_VERSION_IRI = VOCAB_NS + "is-in-version"
VNG_NS = "urn:converg:vng:"
VERSION_NS = "urn:converg:version:"

NUMERIC_DATATYPE_IRIS = frozenset(
    XSD + local
    for local in (
        "integer",
        "decimal",
        "double",
        "float",
        "long",
        "int",
        "short",
        "byte",
        "nonNegativeInteger",
        "nonPositiveInteger",
        "negativeInteger",
        "positiveInteger",
        "unsignedLong",
        "unsignedInt",
        "unsignedShort",
        "unsignedByte",
    )
)

_LANG_TAG_RE = re.compile(r"[A-Za-z]{1,8}(-[A-Za-z0-9]{1,8})*$")
_PLAIN_NUMBER_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$")
_BLANK_LABEL_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]*$")
_IRI_FORBIDDEN_RE = re.compile(r"[\s<>]")  # \s is exactly str.isspace()
_LONE_SURROGATE = re.compile("[\ud800-\udfff]").search


def _check_iri(value: str, what: str) -> None:
    if not value or _IRI_FORBIDDEN_RE.search(value):
        raise ValueError(f"{what} must be non-empty, without whitespace or angle brackets: {value!r}")


class Frozen:
    """Base of the immutable value classes.

    A subclass names its fields in `_fields` and stores them in `__slots__`;
    its `__init__` sets each once, bypassing `__setattr__`, which like
    `__delattr__` raises AttributeError. Two values are equal only when they
    have the same class and equal fields, and hash by class and fields. The
    repr lists the fields as keyword arguments. Pickling and copying call the
    class with the fields, so its checks run again. The base `__init__` takes
    the fields in order; the last `_optional` of them default to None.
    """

    __slots__ = ()
    _fields: tuple = ()
    _optional = 0

    def __init__(self, *values):
        fields = self._fields
        if len(values) != len(fields):
            if not 0 < len(fields) - len(values) <= self._optional:
                raise TypeError(f"{self.__class__.__name__} takes {len(fields)} fields, got {len(values)}")
            values += (None,) * (len(fields) - len(values))
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash((self.__class__, *self._values()))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, self._values())


class Term(Frozen):
    """An RDF term: IRI, literal, or blank node.

    Equality is strictly syntactic: two literals are equal only if lexical
    form, datatype, and language tag all match ("1"^^xsd:int != "01"^^xsd:int).
    A language-tagged literal carries datatype None; rdf:langString is implied.
    No lexical form or datatype holds a lone surrogate, which UTF-8 cannot encode.

    The hash is computed once, by the constructor, after its checks; pickling
    and copying go through the constructor, so a restored Term is checked
    again and hashes under the current process's string hashing.
    """

    _fields = ("kind", "lexical", "datatype", "language")
    __slots__ = _fields + ("_hash",)

    def __init__(
        self, kind: str, lexical: str, datatype: Optional[str] = None, language: Optional[str] = None
    ):
        if kind == IRI:
            _check_iri(lexical, "IRI")
            if datatype is not None or language is not None:
                raise ValueError("only literals carry a datatype or language")
        elif kind == LITERAL:
            if datatype is not None and language is not None:
                raise ValueError("literal datatype and language are mutually exclusive")
            if datatype is not None:
                _check_iri(datatype, "datatype IRI")
            if language is not None and not _LANG_TAG_RE.fullmatch(language):
                raise ValueError(f"malformed language tag: {language!r}")
        elif kind == BLANK:
            if not _BLANK_LABEL_RE.fullmatch(lexical) or lexical.endswith("."):
                raise ValueError(f"malformed blank node label: {lexical!r}")
            if datatype is not None or language is not None:
                raise ValueError("only literals carry a datatype or language")
        else:
            raise ValueError(f"unknown term kind: {kind!r}")
        if not lexical.isascii() and _LONE_SURROGATE(lexical) or (
            datatype and not datatype.isascii() and _LONE_SURROGATE(datatype)
        ):
            raise ValueError("a term's text may not hold a lone surrogate, which UTF-8 cannot encode")
        _set_kind(self, kind)
        _set_lexical(self, lexical)
        _set_datatype(self, datatype)
        _set_language(self, language)
        _set_hash(self, hash((kind, lexical, datatype, language)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.lexical == other.lexical
            and self.kind == other.kind
            and self.datatype == other.datatype
            and self.language == other.language
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_iri(self) -> bool:
        return self.kind == IRI

    @property
    def is_blank(self) -> bool:
        return self.kind == BLANK


# The slots' own setters: an `__init__` sets its fields through these, the
# fastest way past the `__setattr__` that keeps the values immutable.
_set_kind, _set_lexical, _set_datatype, _set_language, _set_hash = (
    getattr(Term, name).__set__ for name in Term.__slots__
)


def iri(value: str) -> Term:
    return Term(IRI, value)


def literal(lexical: str, datatype: Optional[str] = None, language: Optional[str] = None) -> Term:
    return Term(LITERAL, lexical, datatype, language)


def blank(label: str) -> Term:
    return Term(BLANK, label)


RDF_TYPE = iri(RDF_TYPE_IRI)
IS_VERSION_OF = iri(IS_VERSION_OF_IRI)
IS_IN_VERSION = iri(IS_IN_VERSION_IRI)


class Quad(Frozen):
    """A triple plus an optional named graph; graph None means default graph."""

    __slots__ = _fields = ("subject", "predicate", "object", "graph")

    def __init__(self, subject: Term, predicate: Term, object: Term, graph: Optional[Term] = None):
        if subject.kind not in (IRI, BLANK):
            raise ValueError("quad subject must be an IRI or blank node")
        if predicate.kind != IRI:
            raise ValueError("quad predicate must be an IRI")
        if graph is not None and graph.kind != IRI:
            raise ValueError("quad graph must be an IRI")
        _set_subject(self, subject)
        _set_predicate(self, predicate)
        _set_object(self, object)
        _set_graph(self, graph)

    def triple(self) -> tuple[Term, Term, Term]:
        return (self.subject, self.predicate, self.object)


_set_subject, _set_predicate, _set_object, _set_graph = (
    getattr(Quad, name).__set__ for name in Quad.__slots__
)


class VngRecord(Frozen):
    """Identity of one versioned named graph: minted IRI, graph, version ordinal."""

    __slots__ = _fields = ("vng_iri", "graph", "ordinal")

    def __init__(self, vng_iri: Term, graph: Term, ordinal: int):
        if not vng_iri.is_iri or not graph.is_iri:
            raise ValueError("vng identity requires IRIs")
        if ordinal < 1:
            raise ValueError("version ordinals are 1-based")
        _set_vng_iri(self, vng_iri)
        _set_vng_graph(self, graph)
        _set_ordinal(self, ordinal)


_set_vng_iri, _set_vng_graph, _set_ordinal = (
    getattr(VngRecord, name).__set__ for name in VngRecord.__slots__
)


def mint_vng_iri(counter: int) -> Term:
    """Mint the IRI for versioned named graph number `counter`."""
    if counter < 1:
        raise ValueError("vng counters are 1-based")
    return iri(f"{VNG_NS}{counter}")


def version_iri(ordinal: int) -> Term:
    if ordinal < 1:
        raise ValueError("version ordinals are 1-based")
    return iri(f"{VERSION_NS}{ordinal}")


@lru_cache(maxsize=1 << 16)
def numeric_value(term: Term) -> Optional[Decimal]:
    """Decimal value of a numeric literal, else None.

    A literal counts as numeric when its datatype is one of the XSD numeric
    types, or when it is a plain literal whose lexical form looks like a
    number. NaN never counts (it would poison the total order). `decimal` is
    imported here, so a process that never compares numbers never loads it.
    """
    from decimal import Decimal, InvalidOperation

    if term.kind != LITERAL:
        return None
    if term.datatype is not None:
        if term.datatype not in NUMERIC_DATATYPE_IRIS:
            return None
        try:
            value = Decimal(term.lexical)
        except InvalidOperation:
            return None
        return None if value.is_nan() else value
    if term.language is not None:
        return None
    if not _PLAIN_NUMBER_RE.fullmatch(term.lexical):
        return None
    return Decimal(term.lexical)


_KIND_RANK = {BLANK: 0, IRI: 1, LITERAL: 2}


def term_order_key(term: Term):
    """Sort key realising the engine's total order over terms.

    Blank nodes < IRIs < literals. Numeric literals compare by value and sort
    as a band before non-numeric literals; ties and everything else fall back
    to (lexical, datatype, language) codepoint order, which keeps the order
    antisymmetric even for distinct spellings of the same number.
    """
    rank = _KIND_RANK[term.kind]
    if term.kind != LITERAL:
        return (rank, 0, term.lexical, "", "")
    value = numeric_value(term)
    dt = term.datatype or ""
    lang = term.language or ""
    if value is not None:
        return (rank, 0, value, term.lexical, dt, lang)
    return (rank, 1, term.lexical, dt, lang)
