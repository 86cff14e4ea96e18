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
   then ``.`` and trailing spaces or tabs. Each distinct token is turned
   into a `Term` by the constructors the scanner uses, and remembered: a
   memo of at most 65536 tokens (emptied when full) maps token text to its
   `Term`, so equal tokens in any two documents give the same object,
   which the store's dictionary then finds by identity. A token a
   constructor rejects is not remembered.
3. The character scanner takes every other line (escapes, comments, blank
   lines, CR endings, a token a constructor rejects, malformed input), so
   a `ParseError` carries the scanner's message, line and column.

A line an earlier tier accepts is one the scanner accepts, with an equal
row.
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
# the Term constructors check its contents, as they do for the scanner.
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
    the same statements as `Quad`s. A document is made from either list and
    builds the other on first read, then keeps it, so neither list may be
    changed once the document is made.
    """

    __slots__ = ("_rows", "_quads")

    def __init__(self, quads: list[Quad] | None = None, *, rows: list[tuple] | None = None):
        self._quads = quads
        self._rows = [] if quads is None and rows is None else rows

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


class _LineScanner:
    """Cursor over one line; all errors carry 1-based line/column."""

    def __init__(self, text: str, lineno: int):
        self.text = text
        self.pos = 0
        self.lineno = lineno

    def fail(self, message: str) -> "ParseError":
        return ParseError(message, line=self.lineno, column=self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        if self.pos >= len(self.text):
            return True
        return self.text[self.pos] == "#"

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def read_iri(self) -> Term:
        start = self.pos
        self.pos += 1  # consume '<'
        end = self.text.find(">", self.pos)
        if end < 0:
            self.pos = start
            raise self.fail("unterminated IRI")
        value = self.text[self.pos : end]
        self.pos = end + 1
        try:
            return iri(value)
        except ValueError as exc:
            self.pos = start
            raise self.fail(str(exc))

    def read_blank(self) -> Term:
        start = self.pos
        self.pos += 2  # consume '_:'
        label_start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] in "_-."
        ):
            self.pos += 1
        label = self.text[label_start : self.pos]
        # A trailing dot belongs to the statement, not the label.
        while label.endswith("."):
            label = label[:-1]
            self.pos -= 1
        try:
            return blank(label)
        except ValueError as exc:
            self.pos = start
            raise self.fail(str(exc))

    def read_literal(self) -> Term:
        self.pos += 1  # consume opening quote
        out: list[str] = []
        while True:
            if self.pos >= len(self.text):
                raise self.fail("unterminated literal")
            c = self.text[self.pos]
            if c == '"':
                self.pos += 1
                break
            if c == "\\":
                try:
                    c, self.pos = read_escape(self.text, self.pos)
                except ValueError as exc:
                    raise self.fail(str(exc)) from None
                out.append(c)
            else:
                out.append(c)
                self.pos += 1
        lexical = "".join(out)
        if self.peek() == "@":
            self.pos += 1
            tag_start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "-"
            ):
                self.pos += 1
            tag = self.text[tag_start : self.pos]
            try:
                return literal(lexical, language=tag)
            except ValueError as exc:
                self.pos = tag_start
                raise self.fail(str(exc))
        if self.text.startswith("^^", self.pos):
            self.pos += 2
            if self.peek() != "<":
                raise self.fail("datatype must be an IRI")
            dt = self.read_iri()
            return literal(lexical, datatype=dt.lexical)
        return literal(lexical)

    def read_term(self) -> Term:
        self.skip_ws()
        c = self.peek()
        if c == "<":
            return self.read_iri()
        if c == '"':
            return self.read_literal()
        if c == "_" and self.text.startswith("_:", self.pos):
            return self.read_blank()
        if c == "":
            raise self.fail("unexpected end of line")
        raise self.fail(f"unexpected character {c!r}")


def _parse_line(text: str, lineno: int, require_graph: bool) -> tuple | None:
    """The row of one line, or None for a blank or comment line."""
    scanner = _LineScanner(text, lineno)
    if scanner.at_end():
        return None
    terms: list[Term] = []
    starts: list[int] = []  # each term's position, where an error about its kind points
    while True:
        scanner.skip_ws()
        if scanner.peek() == ".":
            scanner.pos += 1
            break
        if len(terms) == 4:
            raise scanner.fail("expected '.' after four terms")
        starts.append(scanner.pos)
        terms.append(scanner.read_term())
    if not scanner.at_end():
        raise scanner.fail("trailing content after '.'")
    if len(terms) < 3:
        raise scanner.fail("statement needs at least subject, predicate, object")
    graph = terms[3] if len(terms) == 4 else None
    if graph is not None and not graph.is_iri:
        scanner.pos = starts[3]
        raise scanner.fail("graph term must be an IRI")
    if require_graph and graph is None:
        raise scanner.fail("version data must name a graph; default-graph quads are reserved for metadata")
    try:
        Quad(terms[0], terms[1], terms[2], graph)  # the checks a row must pass
    except ValueError as exc:  # the subject's or else the predicate's: the graph passed above
        scanner.pos = starts[0] if terms[0].kind == LITERAL else starts[1]
        raise scanner.fail(str(exc))
    return (terms[0], terms[1], terms[2], graph)


def parse_nquads(data, require_graph: bool = False) -> ParsedDocument:
    """Parse an N-Quads document from bytes or text.

    Raises ParseError at the first malformed line. Line order is preserved.
    """
    if isinstance(data, (bytes, bytearray)):
        try:
            data = bytes(data).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8: {exc}")
    rows: list[tuple] = []
    append = rows.append
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
                except ValueError:
                    pass  # a token the scanner rejects too, and it says where
                else:
                    append((subject, predicate, obj, graph))
                    continue
        row = _parse_line(line.rstrip("\r"), lineno, require_graph)
        if row is not None:
            append(row)
    return ParsedDocument(rows=rows)


# Token text -> Term, shared by every document the process parses (Terms
# are immutable). Emptied when it reaches the bound, so it stays small.
_TERMS: dict[str, Term] = {}
_TERMS_BOUND = 1 << 16


def _token_term(token: str) -> Term:
    """The Term of one token `_FAST_LINE` matched, remembered in `_TERMS`.
    A token a constructor rejects raises ValueError and is not remembered."""
    if token[0] == "<":
        term = iri(token[1:-1])
    elif token[0] == "_":
        term = blank(token[2:])
    else:
        close = token.index('"', 1)
        suffix = token[close + 1 :]
        if not suffix:
            term = literal(token[1:close])
        elif suffix[0] == "@":
            term = literal(token[1:close], language=suffix[1:])
        else:
            term = literal(token[1:close], datatype=suffix[3:-1])
    if len(_TERMS) >= _TERMS_BOUND:
        _TERMS.clear()
    _TERMS[token] = term
    return term


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


def parse_term(text: str) -> Term:
    """Parse exactly one N-Triples term (used by snapshot files)."""
    scanner = _LineScanner(text, 1)
    term = scanner.read_term()
    if not scanner.at_end():
        raise scanner.fail("trailing content after term")
    return term
