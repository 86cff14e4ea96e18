"""Line-based N-Quads parsing and serialization.

The grammar covered here is the part needed for version ingestion and flat
export: IRIs in angle brackets, literals with ``^^`` datatype or ``@lang``,
blank nodes, and an optional fourth graph term. Lines whose first non-blank
byte is ``#`` are comments. UTF-8 only.

`parse_nquads` turns each statement into a row, a ``(subject, predicate,
object, graph)`` tuple of `Term`s, in three tiers:

1. Known tokens. A line that ``split(" ")`` cuts into four tokens the
   token memo already holds, then ``.``, becomes a row of the memo's
   terms once the subject is an IRI or blank node and the predicate and
   graph are IRIs. This is the usual line of a version file whose terms
   an earlier line or document has seen.
2. One compiled regex for the common statement shape: terms separated by
   spaces or tabs, each an ``<iri>``, a ``_:label`` or a literal without
   escapes (optionally ``@tag`` or ``^^<iri>``), an optional graph IRI,
   then ``.`` and trailing spaces or tabs.
3. The scanner, `_parse_line`, takes every other line (escapes, comments, blank
   lines, a token a constructor rejects, malformed input). One compiled
   pattern, `_SCAN`, cuts each of its tokens and names its kind, so a
   `ParseError` carries the message, line and column of the first fault.

CRLF endings become LF once per document, so such lines take the first
two tiers too. `_token_term` turns every token of the last two tiers, and
the term `parse_term` reads, into a `Term`, and remembers it: a memo of at
most 65536 tokens (emptied when full) maps token text to its `Term`, so
equal tokens in any two documents, or in a document and a snapshot, give
the same object, which the store's dictionary then finds by identity. A
token that names no term is not remembered.

A line an earlier tier accepts is one the scanner accepts, with an
equal row.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .model import IRI, LITERAL, Quad, Term, blank, iri, literal

_ESCAPES = {"t": "\t", "n": "\n", "r": "\r", '"': '"', "\\": "\\"}
_UNESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def read_escape(text: str, pos: int) -> tuple[str, int]:
    """The character the escape at ``text[pos]`` (a backslash) stands for,
    and the index after the escape; ValueError says what is malformed."""
    if pos + 1 >= len(text):
        raise ValueError("dangling escape")
    marker = text[pos + 1]
    if marker in _ESCAPES:
        return _ESCAPES[marker], pos + 2
    if marker in ("u", "U"):
        width = 4 if marker == "u" else 8
        digits = text[pos + 2 : pos + 2 + width]
        if len(digits) < width or any(c not in "0123456789abcdefABCDEF" for c in digits):
            raise ValueError(f"malformed \\{marker} escape")
        code = int(digits, 16)
        if code > 0x10FFFF:
            raise ValueError("escape beyond the Unicode range")
        if 0xD800 <= code <= 0xDFFF:
            raise ValueError("escape names a surrogate code point")
        return chr(code), pos + 2 + width
    raise ValueError(f"unsupported escape \\{marker}")


# Token shapes only: each token is cut where the scanner would cut it, and
# `_token_term` checks its contents, as it does for the scanner.
_IRI_TOKEN = r"<[^>]+>"
_SUBJECT_TOKEN = rf"{_IRI_TOKEN}|_:[A-Za-z0-9_.-]+"
_OBJECT_TOKEN = rf'{_SUBJECT_TOKEN}|"[^"\\]*"(?:@[A-Za-z0-9-]+|\^\^{_IRI_TOKEN})?'
_FAST_LINE = re.compile(
    rf"[ \t]*({_SUBJECT_TOKEN})[ \t]+({_IRI_TOKEN})[ \t]+({_OBJECT_TOKEN})"
    rf"(?:[ \t]+({_IRI_TOKEN}))?[ \t]*\.[ \t]*"
).fullmatch


class ParsedDocument:
    """The statements of one document, in file line order.

    `rows` holds each statement as a ``(subject, predicate, object, graph)``
    tuple of `Term`s, graph None for the default graph, checked as `Quad`
    checks its fields; it is what `Store.ingest_version` reads. `quads` is
    the same statements as `Quad`s. A document is made from `Quad`s, or by
    `parse_nquads` from rows, and builds the other list on first read, then
    keeps it, so neither list may be changed once the document is made.
    """

    __slots__ = ("_rows", "_quads")

    def __init__(self, quads: list[Quad] | None = None):
        self._quads = quads
        self._rows = [] if quads is None else None

    @property
    def rows(self) -> list[tuple]:
        if self._rows is None:
            self._rows = [(q.subject, q.predicate, q.object, q.graph) for q in self._quads]
        return self._rows

    @property
    def quads(self) -> list[Quad]:
        if self._quads is None:
            self._quads = [Quad(*row) for row in self._rows]
        return self._quads


# Every token the scanner takes, with the blanks before it, named by the
# group that matched. A TERM is cut where its term ends, and `_token_term`
# checks its contents; OTHER is a character no term starts with. In a str
# pattern \w is exactly `isalnum()` or '_'.
_SCAN = re.compile(
    r"""[ \t]*(?:
      (?P<END>\#|\Z)                  # a comment only where a statement may end
    | (?P<TERM><[^>]*>
      | _:[\w-]*(?:\.+[\w-]+)*         # a label's trailing dots end the statement
      | "(?:[^"\\]|\\.)*"(?:@(?:[^\W_]|-)*|\^\^(?:<[^>]*>?)?)?)
    | (?P<BADIRI><)                   # no '>' after it
    | (?P<QUOTE>")                    # no quote closes the literal
    | (?P<DOT>\.)
    | (?P<OTHER>.)
    )""",
    re.VERBOSE | re.DOTALL,
).match


def _scan_term(text: str, lineno: int, match) -> Term:
    """The Term of the token `match` cut from `text`; ParseError where the
    token names no term."""
    kind = match.lastgroup
    start = match.start(kind)
    if kind == "TERM" or kind == "QUOTE":
        token = match.group(kind) if kind == "TERM" else text[start:]
        try:
            return _TERMS.get(token) or _token_term(token)
        except _TermError as exc:
            raise ParseError(str(exc), lineno, start + exc.offset + 1) from None
    if kind == "BADIRI":
        raise ParseError("unterminated IRI", lineno, start + 1)
    if start == len(text):
        raise ParseError("unexpected end of line", lineno, start + 1)
    raise ParseError(f"unexpected character {text[start]!r}", lineno, start + 1)


def _parse_line(text: str, lineno: int, require_graph: bool) -> tuple | None:
    """The row of one line, or None for a blank or comment line."""
    match = _SCAN(text)
    if match.lastgroup == "END":
        return None
    terms: list[Term] = []
    starts: list[int] = []  # each term's position, where an error about its kind points
    while match.lastgroup != "DOT":
        start = match.start(match.lastgroup)
        if len(terms) == 4:
            raise ParseError("expected '.' after four terms", lineno, start + 1)
        starts.append(start)
        terms.append(_scan_term(text, lineno, match))
        match = _SCAN(text, match.end())
    match = _SCAN(text, match.end())
    column = match.start(match.lastgroup) + 1  # where the statement's own errors point
    if match.lastgroup != "END":
        raise ParseError("trailing content after '.'", lineno, column)
    if len(terms) < 3:
        raise ParseError("statement needs at least subject, predicate, object", lineno, column)
    graph = terms[3] if len(terms) == 4 else None
    if graph is not None and not graph.is_iri:
        raise ParseError("graph term must be an IRI", lineno, starts[3] + 1)
    if require_graph and graph is None:
        raise ParseError("version data must name a graph; default-graph quads are reserved for metadata", lineno, column)
    try:
        Quad(terms[0], terms[1], terms[2], graph)  # the checks a row must pass
    except ValueError as exc:  # the subject's or else the predicate's: the graph passed above
        raise ParseError(str(exc), lineno, (starts[0] if terms[0].kind == LITERAL else starts[1]) + 1)
    return (terms[0], terms[1], terms[2], graph)


def parse_term(text: str) -> Term:
    """Parse exactly one N-Triples term (used by snapshot files)."""
    match = _SCAN(text)
    term = _scan_term(text, 1, match)
    match = _SCAN(text, match.end())
    if match.lastgroup != "END":
        raise ParseError("trailing content after term", 1, match.start(match.lastgroup) + 1)
    return term


def parse_nquads(data, require_graph: bool = False) -> ParsedDocument:
    """Parse an N-Quads document from bytes or text.

    Raises ParseError at the first malformed line. Line order is preserved.
    """
    if isinstance(data, (bytes, bytearray)):
        try:
            data = bytes(data).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8: {exc}")
    if "\r" in data:  # CRLF lines take the fast tiers; lines and columns stay
        data = data.replace("\r\n", "\n")
    doc = ParsedDocument()
    append = doc.rows.append
    known = _TERMS.get
    for lineno, line in enumerate(data.split("\n"), start=1):
        tokens = line.split(" ")
        if len(tokens) == 5 and tokens[4] == ".":
            s, p, o, g = known(tokens[0]), known(tokens[1]), known(tokens[2]), known(tokens[3])
            if (
                s is not None
                and p is not None
                and o is not None
                and g is not None
                and s.kind != LITERAL
                and p.kind == IRI
                and g.kind == IRI
            ):
                append((s, p, o, g))
                continue
        match = _FAST_LINE(line)
        if match is not None:
            s, p, o, g = match.groups()
            if g is not None or not require_graph:
                try:
                    subject = known(s) or _token_term(s)
                    predicate = known(p) or _token_term(p)
                    obj = known(o) or _token_term(o)
                    graph = None if g is None else known(g) or _token_term(g)
                except _TermError:
                    pass  # the scanner says where
                else:
                    append((subject, predicate, obj, graph))
                    continue
        row = _parse_line(line.rstrip("\r"), lineno, require_graph)
        if row is not None:
            append(row)
    return doc


# Token text -> Term, shared by every document the process parses (Terms
# are immutable). Emptied when it reaches the bound, so it stays small.
_TERMS: dict[str, Term] = {}
_TERMS_BOUND = 1 << 16


class _TermError(Exception):
    """A token that names no term: the message, and the offset in the token
    where the fault lies."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


def _token_term(token: str) -> Term:
    """The Term of one token `_FAST_LINE` or `_SCAN` cut, remembered in
    `_TERMS`. A token that names no term raises _TermError and is not
    remembered."""
    offset = 0  # where a constructor's error points: the token, or a literal's tag or datatype
    try:
        if token[0] == "<":
            term = iri(token[1:-1])
        elif token[0] == "_":
            term = blank(token[2:])
        else:
            close = token.find('"', 1)
            if close < 0 or "\\" in token:
                lexical, close = _unescape(token)
            else:
                lexical = token[1:close]
            suffix = token[close + 1 :]
            if not suffix:
                term = literal(lexical)
            elif suffix[0] == "@":
                offset = close + 2
                term = literal(lexical, language=suffix[1:])
            else:
                offset = close + 3
                if suffix == "^^":
                    raise _TermError("datatype must be an IRI", offset)
                if suffix[-1] != ">":
                    raise _TermError("unterminated IRI", offset)
                try:
                    term = literal(lexical, datatype=suffix[3:-1])
                except ValueError:
                    iri(suffix[3:-1])  # raises the message an IRI token gets
    except ValueError as exc:
        raise _TermError(str(exc), offset) from None
    if len(_TERMS) >= _TERMS_BOUND:
        _TERMS.clear()
    _TERMS[token] = term
    return term


def _unescape(token: str) -> tuple[str, int]:
    """The lexical form of the literal `token` starts with, and the index of
    the quote that closes it. _TermError at its first bad escape, else past
    its end if no quote closes it."""
    parts = []
    pos = 1
    while True:
        close = token.find('"', pos)
        escape = token.find("\\", pos)
        if escape < 0 or 0 <= close < escape:
            if close < 0:
                raise _TermError("unterminated literal", len(token))
            parts.append(token[pos:close])
            return "".join(parts), close
        parts.append(token[pos:escape])
        try:
            char, pos = read_escape(token, escape)
        except ValueError as exc:
            raise _TermError(str(exc), escape) from None
        parts.append(char)


def escape_literal(lexical: str) -> str:
    return "".join(_UNESCAPES.get(c, c) for c in lexical)


def serialize_term(term: Term) -> str:
    """One term in N-Triples syntax."""
    if term.is_iri:
        return f"<{term.lexical}>"
    if term.is_blank:
        return f"_:{term.lexical}"
    body = f'"{escape_literal(term.lexical)}"'
    if term.language is not None:
        return f"{body}@{term.language}"
    if term.datatype is not None:
        return f"{body}^^<{term.datatype}>"
    return body


class _TermText(dict):
    """`serialize_term` of each distinct term, computed on first lookup."""

    def __missing__(self, term: Term) -> str:
        text = self[term] = serialize_term(term)
        return text


def serialize_nquads(quads) -> str:
    """Canonical form: one quad per line, ``\\n`` endings, minimal escaping.

    A line is the quad's terms in ``serialize_term`` form, the graph last
    if any, joined by single spaces and ended by `` .``; each distinct term
    is serialized once per call."""
    text = _TermText()
    return "".join(
        f"{text[q.subject]} {text[q.predicate]} {text[q.object]} {text[q.graph]} .\n"
        if q.graph is not None
        else f"{text[q.subject]} {text[q.predicate]} {text[q.object]} .\n"
        for q in quads
    )
