"""RDF terms, quads, and the versioned-named-graph vocabulary.

Everything in this module is immutable and hashable, so values can be shared
freely between the store, the query engine, and concurrent readers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
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


def _check_iri(value: str, what: str) -> None:
    if not value or _IRI_FORBIDDEN_RE.search(value):
        raise ValueError(f"{what} must be non-empty, without whitespace or angle brackets: {value!r}")


@dataclass(frozen=True, slots=True)
class Term:
    """An RDF term: IRI, literal, or blank node.

    Equality is strictly syntactic: two literals are equal only if lexical
    form, datatype, and language tag all match ("1"^^xsd:int != "01"^^xsd:int).
    A language-tagged literal carries datatype None; rdf:langString is implied.

    The hash is computed once, by the constructor's checks; pickling and
    copying go through the constructor, so a restored Term is checked again
    and hashes under the current process's string hashing.
    """

    kind: str
    lexical: str
    datatype: Optional[str] = None
    language: Optional[str] = None
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == IRI:
            _check_iri(self.lexical, "IRI")
            if self.datatype is not None or self.language is not None:
                raise ValueError("only literals carry a datatype or language")
        elif self.kind == LITERAL:
            if self.datatype is not None and self.language is not None:
                raise ValueError("literal datatype and language are mutually exclusive")
            if self.datatype is not None:
                _check_iri(self.datatype, "datatype IRI")
            if self.language is not None and not _LANG_TAG_RE.fullmatch(self.language):
                raise ValueError(f"malformed language tag: {self.language!r}")
        elif self.kind == BLANK:
            if not _BLANK_LABEL_RE.fullmatch(self.lexical) or self.lexical.endswith("."):
                raise ValueError(f"malformed blank node label: {self.lexical!r}")
            if self.datatype is not None or self.language is not None:
                raise ValueError("only literals carry a datatype or language")
        else:
            raise ValueError(f"unknown term kind: {self.kind!r}")
        object.__setattr__(self, "_hash", hash((self.kind, self.lexical, self.datatype, self.language)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Term, (self.kind, self.lexical, self.datatype, self.language))

    @property
    def is_iri(self) -> bool:
        return self.kind == IRI

    @property
    def is_literal(self) -> bool:
        return self.kind == LITERAL

    @property
    def is_blank(self) -> bool:
        return self.kind == BLANK


def iri(value: str) -> Term:
    return Term(IRI, value)


def literal(lexical: str, datatype: Optional[str] = None, language: Optional[str] = None) -> Term:
    return Term(LITERAL, lexical, datatype, language)


def blank(label: str) -> Term:
    return Term(BLANK, label)


RDF_TYPE = iri(RDF_TYPE_IRI)
IS_VERSION_OF = iri(IS_VERSION_OF_IRI)
IS_IN_VERSION = iri(IS_IN_VERSION_IRI)


@dataclass(frozen=True, slots=True)
class Quad:
    """A triple plus an optional named graph; graph None means default graph."""

    subject: Term
    predicate: Term
    object: Term
    graph: Optional[Term] = None

    def __post_init__(self):
        if self.subject.kind not in (IRI, BLANK):
            raise ValueError("quad subject must be an IRI or blank node")
        if self.predicate.kind != IRI:
            raise ValueError("quad predicate must be an IRI")
        if self.graph is not None and self.graph.kind != IRI:
            raise ValueError("quad graph must be an IRI")

    def triple(self) -> tuple[Term, Term, Term]:
        return (self.subject, self.predicate, self.object)


@dataclass(frozen=True, slots=True)
class VngRecord:
    """Identity of one versioned named graph: minted IRI, graph, version ordinal."""

    vng_iri: Term
    graph: Term
    ordinal: int

    def __post_init__(self):
        if not self.vng_iri.is_iri or not self.graph.is_iri:
            raise ValueError("vng identity requires IRIs")
        if self.ordinal < 1:
            raise ValueError("version ordinals are 1-based")


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
    number. NaN never counts (it would poison the total order).
    """
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
