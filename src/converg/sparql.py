"""Parser for the supported query subset.

Covered: PREFIX, SELECT with plain variables and COUNT/MAX/MIN/SUM
aggregates (optionally DISTINCT, optionally aliased with AS), WHERE with
basic graph patterns (``;`` and ``,`` abbreviations, ``a`` for rdf:type),
GRAPH with an IRI or variable, nested ``{}`` joins, MINUS, sub-SELECT, and
GROUP BY. Everything else is rejected with a position-bearing error.

The parser builds the query the engine runs; there is no second pass.
Prefixed names, ``a``, literals and paths resolve while parsing: a prefixed
name becomes its IRI at the token, ``a`` becomes rdf:type, a string or
number (with ``@lang`` or ``^^datatype``) becomes a literal ``Term``, and a
predicate written as IRIs joined by ``/`` becomes a chain through fresh
``_pathN`` variables, numbered past every variable name the query spells.
A term the ``Term`` constructors reject (an empty IRI, a malformed language
tag) is a ``ParseError`` at its token's line and column.

A prefixed name's local part may contain ``/`` (as benchmark vocabularies
sometimes do: ``bsbm:v01/vocabulary/rating2`` is one IRI). It ends before a
``/`` followed by ``<``, by ``:`` or by another ``name:``, so that
``ex:p1/ex:p2`` is a path of two steps.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .errors import ParseError, QueryValidationError, UnsupportedQueryError
from .model import RDF_TYPE, XSD, Term, iri, literal
from .nquads import read_escape

SUPPORTED_SUBSET = (
    "SELECT, GRAPH, grouped-pattern joins, MINUS, sub-SELECT, "
    "GROUP BY with COUNT/MAX/MIN/SUM"
)

_AGG_FUNCS = ("COUNT", "MAX", "MIN", "SUM")
_KEYWORDS = {
    "PREFIX",
    "SELECT",
    "WHERE",
    "GRAPH",
    "MINUS",
    "GROUP",
    "BY",
    "AS",
    "DISTINCT",
    *_AGG_FUNCS,
}
_UNSUPPORTED = {
    "FILTER",
    "OPTIONAL",
    "UNION",
    "ORDER",
    "LIMIT",
    "OFFSET",
    "HAVING",
    "BIND",
    "VALUES",
    "SERVICE",
    "ASK",
    "CONSTRUCT",
    "DESCRIBE",
    "FROM",
    "NAMED",
    "REDUCED",
    "NOT",
    "EXISTS",
    "AVG",
    "SAMPLE",
    "GROUP_CONCAT",
    "UNDEF",
    "EXCEPT",
}

_WORD_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-"
)
# A prefixed name's local part: word characters and any of ./#%: , ending
# before a "/" that starts the next step of a path (`<`, `:` or `name:`).
_LOCAL_PART = re.compile(r"[\w\-.#%:]*(?:/(?![\w\-]*:|<)[\w\-.#%:]*)*", re.ASCII)
_DIGITS = frozenset("0123456789")


# ---------------------------------------------------------------------- AST


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class TriplePattern:
    subject: object
    predicate: object
    object: object


@dataclass(frozen=True)
class Bgp:
    patterns: tuple


@dataclass(frozen=True)
class GraphPat:
    target: object
    inner: object


@dataclass(frozen=True)
class Join:
    parts: tuple


@dataclass(frozen=True)
class Minus:
    left: object
    right: object


@dataclass(frozen=True)
class SubSelect:
    query: "Query"


@dataclass(frozen=True)
class SelectVar:
    var: Var


@dataclass(frozen=True)
class SelectAgg:
    func: str
    distinct: bool
    arg: Var
    alias: Optional[str] = None


@dataclass(frozen=True)
class Query:
    projection: tuple
    pattern: object
    group_by: Optional[tuple] = None


# -------------------------------------------------------------------- lexer


@dataclass(frozen=True)
class _Token:
    kind: str
    value: object
    line: int
    col: int


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def err(message, l=None, c=None):
        return ParseError(message, line=l or line, column=c or col)

    def emit(kind, value=None, l=None, c=None):
        tokens.append(_Token(kind, value, l or line, c or col))

    while i < n:
        ch = text[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch == "<":
            end = text.find(">", i + 1)
            if end < 0:
                raise err("unterminated IRI")
            value = text[i + 1 : end]
            if any(c.isspace() for c in value) or "<" in value:
                raise err("IRI may not contain whitespace or '<'")
            emit("IRIREF", value, start_line, start_col)
            col += end + 1 - i
            i = end + 1
            continue
        if ch == "?":
            j = i + 1
            if j >= n or not (text[j].isalpha() or text[j] == "_"):
                raise err("variable name expected after '?'")
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            emit("VAR", text[i + 1 : j], start_line, start_col)
            col += j - i
            i = j
            continue
        if ch == '"':
            j = i + 1
            out = []
            while True:
                if j >= n or text[j] == "\n":
                    raise err("unterminated string", start_line, start_col)
                c = text[j]
                if c == '"':
                    j += 1
                    break
                if c == "\\":
                    try:
                        c, j = read_escape(text, j)
                    except ValueError as exc:
                        raise err(str(exc), start_line, start_col) from None
                    out.append(c)
                    continue
                out.append(c)
                j += 1
            emit("STRING", "".join(out), start_line, start_col)
            col += j - i
            i = j
            continue
        if ch == "@":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "-"):
                j += 1
            if j == i + 1:
                raise err("language tag expected after '@'")
            emit("LANGTAG", text[i + 1 : j], start_line, start_col)
            col += j - i
            i = j
            continue
        if text.startswith("^^", i):
            emit("HATHAT")
            i, col = i + 2, col + 2
            continue
        punct = {
            "{": "LBRACE",
            "}": "RBRACE",
            "(": "LPAREN",
            ")": "RPAREN",
            ".": "DOT",
            ";": "SEMI",
            ",": "COMMA",
            "/": "SLASH",
            "*": "STAR",
        }.get(ch)
        if punct:
            emit(punct)
            i, col = i + 1, col + 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if j + 1 < n and text[j] == "." and text[j + 1] in _DIGITS:
                j += 1
                while j < n and text[j] in _DIGITS:
                    j += 1
            emit("NUMBER", text[i:j], start_line, start_col)
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_" or ch == ":":
            j = i
            while j < n and (text[j] in _WORD_CHARS or text[j].isalnum()):
                j += 1
            word = text[i:j]
            if not word.isascii():  # keywords and prefixes are ASCII only
                raise err(f"unexpected word {word!r}", start_line, start_col)
            if j < n and text[j] == ":":
                j += 1
                local_start = j
                j = _LOCAL_PART.match(text, j).end()
                local = text[local_start:j]
                while local.endswith("."):
                    local = local[:-1]
                    j -= 1
                while local.endswith("/"):
                    local = local[:-1]
                    j -= 1
                emit("PNAME", (word, local), start_line, start_col)
                col += j - i
                i = j
                continue
            if word == "a":
                emit("A", None, start_line, start_col)
            else:
                upper = word.upper()
                if upper in _KEYWORDS or upper in _UNSUPPORTED:
                    emit("KEYWORD", upper, start_line, start_col)
                else:
                    raise err(f"unexpected word {word!r}", start_line, start_col)
            col += j - i
            i = j
            continue
        # Leave classification to the parser so that an unsupported keyword
        # earlier in the text wins over a stray character after it.
        emit("OTHER", ch)
        i, col = i + 1, col + 1
    tokens.append(_Token("EOF", None, line, col))
    return tokens


# ------------------------------------------------------------------- parser


class _Parser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.pos = 0
        self.prefixes: dict[str, str] = {}
        # Fresh path variables skip every name the text spells, aliases too.
        self.spelled = {tok.value for tok in self.tokens if tok.kind == "VAR"}
        self.path_counter = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None, expected=None):
        tok = tok or self.peek()
        return ParseError(message, line=tok.line, column=tok.col, expected=expected)

    def unsupported(self, tok):
        return UnsupportedQueryError(
            f"unsupported operator {tok.value}; this engine covers {SUPPORTED_SUBSET}",
            line=tok.line,
            column=tok.col,
        )

    def expect_keyword(self, word) -> _Token:
        tok = self.next()
        if tok.kind != "KEYWORD" or tok.value != word:
            raise self.error(f"expected {word}", tok, expected=[word])
        return tok

    def expect(self, kind, what) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise self.error(f"expected {what}", tok, expected=[what])
        return tok

    def at_keyword(self, *words) -> bool:
        tok = self.peek()
        return tok.kind == "KEYWORD" and tok.value in words

    def term(self, tok, build, *args) -> Term:
        """`build(*args)`; a term it rejects is a ParseError at `tok`."""
        try:
            return build(*args)
        except ValueError as exc:
            raise self.error(str(exc), tok) from None

    def fresh_var(self) -> Var:
        while True:
            name = f"_path{self.path_counter}"
            self.path_counter += 1
            if name not in self.spelled:
                return Var(name)

    # grammar entry

    def parse(self) -> Query:
        while self.at_keyword("PREFIX"):
            self.next()
            tok = self.next()
            if tok.kind != "PNAME" or tok.value[1] != "":
                raise self.error("expected prefix declaration like 'ex:'", tok)
            self.prefixes[tok.value[0]] = self.expect("IRIREF", "IRI").value
        query = self.parse_select()
        _check_query(query)
        tail = self.peek()
        if tail.kind != "EOF":
            if tail.kind == "KEYWORD" and tail.value in _UNSUPPORTED:
                raise self.unsupported(tail)
            raise self.error("unexpected content after query", tail)
        return query

    def parse_select(self) -> Query:
        self.expect_keyword("SELECT")
        projection = []
        while True:
            tok = self.peek()
            if tok.kind == "VAR":
                self.next()
                projection.append(SelectVar(Var(tok.value)))
            elif tok.kind == "KEYWORD" and tok.value in _AGG_FUNCS:
                projection.append(self.parse_aggregate())
            elif tok.kind == "LPAREN":
                self.next()
                agg_tok = self.peek()
                if not (agg_tok.kind == "KEYWORD" and agg_tok.value in _AGG_FUNCS):
                    raise self.error("expected an aggregate inside '(...)'", agg_tok)
                agg = self.parse_aggregate(require_alias=True)
                self.expect("RPAREN", "')'")
                projection.append(agg)
            elif tok.kind == "STAR":
                raise self.error("SELECT * is not supported; list variables explicitly", tok)
            elif tok.kind == "KEYWORD" and tok.value == "DISTINCT":
                raise self.error(
                    "SELECT DISTINCT is not supported (DISTINCT applies inside aggregates)", tok
                )
            else:
                break
        if not projection:
            raise self.error("projection must name at least one variable or aggregate")
        self.expect_keyword("WHERE")
        self.expect("LBRACE", "'{'")
        pattern = self.parse_ggp()
        self.expect("RBRACE", "'}'")
        group_by = None
        if self.at_keyword("GROUP"):
            self.next()
            self.expect_keyword("BY")
            names = []
            while self.peek().kind == "VAR":
                names.append(Var(self.next().value))
            if not names:
                raise self.error("GROUP BY needs at least one variable")
            group_by = tuple(names)
        return Query(tuple(projection), pattern, group_by)

    def parse_aggregate(self, require_alias: bool = False) -> SelectAgg:
        func = self.next().value
        self.expect("LPAREN", "'('")
        distinct = False
        if self.at_keyword("DISTINCT"):
            self.next()
            distinct = True
        var_tok = self.expect("VAR", "variable")
        self.expect("RPAREN", "')'")
        alias = None
        if self.at_keyword("AS"):
            self.next()
            alias = self.expect("VAR", "variable").value
        elif require_alias:
            raise self.error("parenthesized aggregate needs 'AS ?name'")
        return SelectAgg(func, distinct, Var(var_tok.value), alias)

    def parse_ggp(self):
        elements = []
        while True:
            tok = self.peek()
            if tok.kind == "RBRACE" or tok.kind == "EOF":
                break
            if tok.kind == "KEYWORD" and tok.value in _UNSUPPORTED:
                raise self.unsupported(tok)
            if tok.kind == "KEYWORD" and tok.value == "GRAPH":
                self.next()
                target = self.parse_graph_target()
                self.expect("LBRACE", "'{'")
                inner = self.parse_ggp()
                self.expect("RBRACE", "'}'")
                elements.append(GraphPat(target, inner))
            elif tok.kind == "KEYWORD" and tok.value == "MINUS":
                self.next()
                if not elements:
                    raise self.error("MINUS needs a pattern on its left", tok)
                left = elements[0] if len(elements) == 1 else Join(tuple(elements))
                self.expect("LBRACE", "'{'")
                right = self.parse_group_body()
                self.expect("RBRACE", "'}'")
                elements = [Minus(left, right)]
            elif tok.kind == "LBRACE":
                self.next()
                elements.append(self.parse_group_body())
                self.expect("RBRACE", "'}'")
            elif tok.kind in ("VAR", "IRIREF", "PNAME"):
                elements.append(self.parse_triples_block())
            elif tok.kind == "STRING":
                raise self.error("a literal cannot be a subject", tok)
            else:
                raise self.error("expected a triple pattern, GRAPH, MINUS, or '{'", tok)
        if not elements:
            raise self.error("empty group pattern")
        return elements[0] if len(elements) == 1 else Join(tuple(elements))

    def parse_group_body(self):
        if self.at_keyword("SELECT"):
            return SubSelect(self.parse_select())
        return self.parse_ggp()

    def parse_graph_target(self):
        tok = self.next()
        if tok.kind == "VAR":
            return Var(tok.value)
        if tok.kind in ("IRIREF", "PNAME"):
            return self.iri_of(tok)
        raise self.error("GRAPH needs an IRI or a variable", tok)

    def parse_triples_block(self) -> Bgp:
        patterns = []
        while True:
            patterns.extend(self.parse_same_subject())
            if self.peek().kind == "DOT":
                self.next()
                if self.peek().kind in ("VAR", "IRIREF", "PNAME"):
                    continue
            break
        return Bgp(tuple(patterns))

    def parse_same_subject(self) -> list[TriplePattern]:
        subject = self.parse_atom(allow_literal=False, what="a subject")
        patterns = []
        while True:
            steps = self.parse_verb()
            while True:
                obj = self.parse_atom(allow_literal=True, what="an object")
                current = subject
                for step in steps[:-1]:
                    hop = self.fresh_var()
                    patterns.append(TriplePattern(current, step, hop))
                    current = hop
                patterns.append(TriplePattern(current, steps[-1], obj))
                if self.peek().kind == "COMMA":
                    self.next()
                    continue
                break
            if self.peek().kind == "SEMI":
                self.next()
                # allow a dangling ';' before '.' or '}'
                if self.peek().kind in ("VAR", "IRIREF", "PNAME", "A", "KEYWORD"):
                    if self.peek().kind == "KEYWORD":
                        break
                    continue
            break
        return patterns

    def parse_verb(self) -> list:
        """The predicate, or the steps of a path, in order."""
        tok = self.peek()
        if tok.kind == "A":
            self.next()
            return [RDF_TYPE]
        if tok.kind == "VAR":
            self.next()
            return [Var(tok.value)]
        if tok.kind in ("IRIREF", "PNAME"):
            steps = [self.expect_iri()]
            while self.peek().kind == "SLASH":
                self.next()
                steps.append(self.expect_iri())
            return steps
        raise self.error("expected a predicate", tok)

    def expect_iri(self) -> Term:
        tok = self.next()
        if tok.kind not in ("IRIREF", "PNAME"):
            raise self.error("expected an IRI", tok)
        return self.iri_of(tok)

    def iri_of(self, tok) -> Term:
        """The IRI an IRIREF or PNAME token names."""
        if tok.kind == "IRIREF":
            return self.term(tok, iri, tok.value)
        prefix, local = tok.value
        base = self.prefixes.get(prefix)
        if base is None:
            raise self.error(f"unknown prefix {prefix!r}", tok)
        return self.term(tok, iri, base + local)

    def parse_atom(self, allow_literal: bool, what: str):
        tok = self.peek()
        if tok.kind == "VAR":
            self.next()
            return Var(tok.value)
        if tok.kind in ("IRIREF", "PNAME"):
            self.next()
            return self.iri_of(tok)
        if tok.kind == "STRING" and allow_literal:
            self.next()
            if self.peek().kind == "LANGTAG":
                tag = self.next()
                return self.term(tag, literal, tok.value, None, tag.value)
            if self.peek().kind == "HATHAT":
                self.next()
                return literal(tok.value, self.expect_iri().lexical)
            return literal(tok.value)
        if tok.kind == "NUMBER" and allow_literal:
            self.next()
            return literal(tok.value, XSD + ("decimal" if "." in tok.value else "integer"))
        raise self.error(f"expected {what}", tok)


def parse_query(text: str) -> Query:
    return _Parser(text).parse()


# ----------------------------------------------------------- static checks


def visible_vars(node) -> set[str]:
    """Variables a pattern can bind (MINUS right sides do not count)."""
    if isinstance(node, Bgp):
        names = set()
        for pat in node.patterns:
            for atom in (pat.subject, pat.predicate, pat.object):
                if isinstance(atom, Var):
                    names.add(atom.name)
        return names
    if isinstance(node, GraphPat):
        names = visible_vars(node.inner)
        if isinstance(node.target, Var):
            names.add(node.target.name)
        return names
    if isinstance(node, Join):
        names = set()
        for part in node.parts:
            names |= visible_vars(part)
        return names
    if isinstance(node, Minus):
        return visible_vars(node.left)
    if isinstance(node, SubSelect):
        return set(column_names(node.query))
    raise TypeError(f"not a pattern node: {node!r}")


def column_names(query: Query) -> tuple:
    """Output column per projection item; aggregates default to agg1, agg2..."""
    names = []
    agg_index = 0
    for item in query.projection:
        if isinstance(item, SelectVar):
            names.append(item.var.name)
        else:
            agg_index += 1
            names.append(item.alias if item.alias is not None else f"agg{agg_index}")
    return tuple(names)


def _check_query(query: Query, where: str = "projection"):
    """Scoping, grouping and output-column checks of `query`, after those
    of every sub-select in it."""
    for sub in _subqueries(query.pattern):
        _check_query(sub, "sub-select")
    in_pattern = visible_vars(query.pattern)
    group_names = {v.name for v in query.group_by} if query.group_by else None
    has_agg = any(isinstance(item, SelectAgg) for item in query.projection)
    all_agg = all(isinstance(item, SelectAgg) for item in query.projection)
    if has_agg and not query.group_by and not all_agg:
        raise QueryValidationError(
            "mixing plain variables with aggregates requires GROUP BY"
        )
    for item in query.projection:
        if isinstance(item, SelectVar):
            name = item.var.name
            if group_names is not None:
                if name not in group_names:
                    raise QueryValidationError(
                        f"projected variable ?{name} must appear in GROUP BY"
                    )
            elif name not in in_pattern:
                raise QueryValidationError(
                    f"projected variable ?{name} is not visible in the pattern"
                )
    for var in query.group_by or ():
        if var.name not in in_pattern:
            raise QueryValidationError(f"GROUP BY variable ?{var.name} is not visible in the pattern")
    columns = column_names(query)
    if len(set(columns)) != len(columns):
        raise QueryValidationError(f"duplicate output column in {where}: {columns}")


def _subqueries(node):
    if isinstance(node, SubSelect):
        yield node.query
    elif isinstance(node, Join):
        for part in node.parts:
            yield from _subqueries(part)
    elif isinstance(node, Minus):
        yield from _subqueries(node.left)
        yield from _subqueries(node.right)
    elif isinstance(node, GraphPat):
        yield from _subqueries(node.inner)


def validate_and_name(query: Query) -> Query:
    """Run the checks `parse_query` runs (for a query built by hand) and
    return `query` unchanged."""
    _check_query(query)
    return query
