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
tag) is a ``ParseError`` at its token's line and column. LF, CR and CRLF
each end a line and a ``#`` comment. The lexer takes each token with one
match of one compiled pattern. A column counts code points from the start
of its line, so a tab is one column.

A prefixed name's local part may contain ``/`` (as benchmark vocabularies
sometimes do: ``bsbm:v01/vocabulary/rating2`` is one IRI). It ends before a
``/`` followed by ``<``, by ``:`` or by another ``name:``, so that
``ex:p1/ex:p2`` is a path of two steps.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .errors import ParseError, QueryValidationError, UnsupportedQueryError
from .model import RDF_TYPE, XSD, Frozen, Term, iri, literal
from .nquads import read_escape

# Groups (`{ ... }` of WHERE, GRAPH, MINUS and plain nesting) may nest this
# deep. The parser and the evaluators recurse once or twice per level, so a
# deeper query is a ParseError at its first group past the limit rather than
# a RecursionError.
MAX_GROUP_DEPTH = 128

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

# A prefixed name's local part: word characters (non-ASCII letters too) and
# any of ./#%: , ending before a "/" that starts the next step of a path
# (`<`, `:` or `name:`).
_LOCAL_PART = re.compile(r"[\w\-.#%:]*(?:/(?![\w\-]*:|<)[\w\-.#%:]*)*").match


# ---------------------------------------------------------------------- AST


# Each node is a `Frozen` value: built from its fields in order, immutable,
# and equal only to a node of the same type with equal fields.


class Var(Frozen):
    __slots__ = _fields = ("name",)


class TriplePattern(Frozen):
    __slots__ = _fields = ("subject", "predicate", "object")


class Bgp(Frozen):
    __slots__ = _fields = ("patterns",)


class GraphPat(Frozen):
    __slots__ = _fields = ("target", "inner")


class Join(Frozen):
    __slots__ = _fields = ("parts",)


class Minus(Frozen):
    __slots__ = _fields = ("left", "right")


class SubSelect(Frozen):
    __slots__ = _fields = ("query",)


class SelectVar(Frozen):
    __slots__ = _fields = ("var",)


class SelectAgg(Frozen):
    __slots__ = _fields = ("func", "distinct", "arg", "alias")
    _optional = 1  # alias


class Query(Frozen):
    __slots__ = _fields = ("projection", "pattern", "group_by")
    _optional = 1  # group_by


# -------------------------------------------------------------------- lexer


_Token = namedtuple("_Token", "kind value line col")

# One match per token: the blanks and the comment before it, then the token,
# whose kind is the name of the group that matched. A `<` or `"` that starts
# no well-formed IRIREF or plain STRING matches BADIRI or QUOTE instead, and
# `_lex` checks after the match what the pattern cannot say. Any other
# character is an OTHER token: the parser classifies it, so that an
# unsupported keyword earlier in the text wins over a stray character after it.
_TOKEN = re.compile(
    r"""[ \t]*(?:\#[^\r\n]*)?        # blanks, then a comment up to its line break
    (?:
      (?P<NEWLINE>\r\n?|\n)          # LF, CR and CRLF each end one line
    | (?P<EOF>\Z)
    | (?P<IRIREF><[^>\s<]*>)
    | (?P<BADIRI><)                  # unterminated, or holds whitespace or '<'
    | (?P<VAR>\?\w*)
    | (?P<STRING>"[^"\\\r\n]*")      # STRING_LITERAL2 holds no raw line break
    | (?P<QUOTE>")                   # a string with an escape, or unterminated
    | (?P<LANGTAG>@(?:[^\W_]|-)*)
    | (?P<NUMBER>[0-9]+(?:\.[0-9]+)?)
    | (?P<WORD>[^\W\d][\w-]*|(?=:))  # a prefixed name's prefix may be empty
    | (?P<HATHAT>\^\^)
    | (?P<LBRACE>\{) | (?P<RBRACE>\}) | (?P<LPAREN>\() | (?P<RPAREN>\))
    | (?P<DOT>\.) | (?P<SEMI>;) | (?P<COMMA>,) | (?P<SLASH>/) | (?P<STAR>\*)
    | (?P<OTHER>.)
    )""",
    re.VERBOSE | re.DOTALL,
).match
# The characters of a string literal up to its next `"`, `\\` or line break.
_STRING_RUN = re.compile(r'[^"\\\r\n]*').match


def _lex(text: str) -> list[_Token]:
    """The tokens of `text`, ending with EOF."""
    tokens: list[_Token] = []
    append = tokens.append
    pos, line, line_start = 0, 1, 0
    while True:
        m = _TOKEN(text, pos)
        kind = m.lastgroup
        start, pos = m.start(kind), m.end()
        col = start - line_start + 1
        if kind == "NEWLINE":
            line, line_start = line + 1, pos
        elif kind == "VAR":
            name = text[start + 1 : pos]
            if not (name[:1].isalpha() or name[:1] == "_"):
                raise ParseError("variable name expected after '?'", line, col)
            append(_Token(kind, name, line, col))
        elif kind == "IRIREF" or kind == "STRING":
            append(_Token(kind, text[start + 1 : pos - 1], line, col))
        elif kind == "WORD":
            word = text[start:pos]
            if not word.isascii():  # keywords and prefixes are ASCII only
                if word[0].isalpha() or word[0] == "_":
                    raise ParseError(f"unexpected word {word!r}", line, col)
                append(_Token("OTHER", word[0], line, col))  # '²' and the like start no word
                pos = start + 1
            elif text.startswith(":", pos):
                local_start = pos + 1
                local = text[local_start : _LOCAL_PART(text, local_start).end()]
                local = local.rstrip(".").rstrip("/")
                append(_Token("PNAME", (word, local), line, col))
                pos = local_start + len(local)
            elif word == "a":
                append(_Token("A", None, line, col))
            else:
                upper = word.upper()
                if upper not in _KEYWORDS and upper not in _UNSUPPORTED:
                    raise ParseError(f"unexpected word {word!r}", line, col)
                append(_Token("KEYWORD", upper, line, col))
        elif kind == "QUOTE":
            try:
                value, pos = _read_string(text, pos)
            except ValueError as exc:
                raise ParseError(str(exc), line, col) from None
            append(_Token("STRING", value, line, col))
        elif kind == "LANGTAG":
            if pos == start + 1:
                raise ParseError("language tag expected after '@'", line, col)
            append(_Token(kind, text[start + 1 : pos], line, col))
        elif kind == "NUMBER" or kind == "OTHER":
            append(_Token(kind, text[start:pos], line, col))
        elif kind == "BADIRI":
            if text.find(">", pos) < 0:
                raise ParseError("unterminated IRI", line, col)
            raise ParseError("IRI may not contain whitespace or '<'", line, col)
        elif kind == "EOF":
            append(_Token(kind, None, line, col))
            return tokens
        else:  # punctuation
            append(_Token(kind, None, line, col))


def _read_string(text: str, pos: int) -> tuple[str, int]:
    """The value of the string literal whose body starts at `pos`, and the
    index after its closing `"`; a ValueError says what is malformed."""
    parts = []
    end = _STRING_RUN(text, pos).end()
    while text.startswith("\\", end):
        parts.append(text[pos:end])
        char, pos = read_escape(text, end)
        parts.append(char)
        end = _STRING_RUN(text, pos).end()
    if not text.startswith('"', end):
        raise ValueError("unterminated string")
    parts.append(text[pos:end])
    return "".join(parts), end + 1


# ------------------------------------------------------------------- parser


class _Parser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.pos = 0
        self.prefixes: dict[str, str] = {}
        # Fresh path variables skip every name the text spells, aliases too.
        self.spelled = {tok.value for tok in self.tokens if tok.kind == "VAR"}
        self.path_counter = 0
        self.depth = 0  # groups open around the parse position

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        return ParseError(message, line=tok.line, column=tok.col)

    def unsupported(self, tok):
        return UnsupportedQueryError(
            f"unsupported operator {tok.value}; this engine covers {SUPPORTED_SUBSET}",
            line=tok.line,
            column=tok.col,
        )

    def expect_keyword(self, word) -> _Token:
        tok = self.next()
        if tok.kind != "KEYWORD" or tok.value != word:
            raise self.error(f"expected {word}", tok)
        return tok

    def expect(self, kind, what) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise self.error(f"expected {what}", tok)
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
        """The group whose `{` was just read, up to its `}`."""
        self.depth += 1
        if self.depth > MAX_GROUP_DEPTH:
            raise self.error(f"groups nested more than {MAX_GROUP_DEPTH} deep", self.tokens[self.pos - 1])
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
        self.depth -= 1
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
                return self.term(tok, literal, tok.value, self.expect_iri().lexical)
            return self.term(tok, literal, tok.value)
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
