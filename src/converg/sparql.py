"""Parser for the supported query subset.

Covered: PREFIX, SELECT with plain variables and COUNT/MAX/MIN/SUM
aggregates (optionally DISTINCT, optionally aliased with AS), WHERE with
basic graph patterns (``;`` and ``,`` abbreviations, ``a`` for rdf:type),
GRAPH with an IRI or variable, nested ``{}`` joins, MINUS, sub-SELECT, and
GROUP BY. Everything else is rejected with a position-bearing error.

A predicate written as IRIs joined by ``/`` is path sugar for a chain
through fresh variables. A prefixed name whose local part contains ``/``
(as benchmark vocabularies sometimes do) expands as one IRI: prefix
expansion wins over the path reading whenever the whole token resolves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import ParseError, QueryValidationError, UnsupportedQueryError
from .model import RDF_TYPE, Term, iri, literal

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
_LOCAL_CHARS = _WORD_CHARS | frozenset("./#%:")
_ESCAPES = {"t": "\t", "n": "\n", "r": "\r", '"': '"', "\\": "\\"}


# ---------------------------------------------------------------------- AST


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class PName:
    prefix: str
    local: str


@dataclass(frozen=True)
class LiteralPat:
    """A literal as written in the query; datatype may still be a PName."""

    lexical: str
    datatype: Union[Term, PName, None] = None
    language: Optional[str] = None


@dataclass(frozen=True)
class _AKeyword:
    """The ``a`` shorthand; desugars to rdf:type during validation."""


A = _AKeyword()


@dataclass(frozen=True)
class PathPred:
    steps: tuple


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
    prefixes: tuple            # ((prefix, iri), ...) in declaration order
    projection: tuple
    pattern: object
    group_by: Optional[tuple] = None


@dataclass(frozen=True)
class AlgebraPlan:
    """Normalized query: absolute IRIs only, ``a`` and paths desugared."""

    query: Query


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
                    if j + 1 >= n:
                        raise err("dangling escape", start_line, start_col)
                    marker = text[j + 1]
                    if marker in _ESCAPES:
                        out.append(_ESCAPES[marker])
                        j += 2
                        continue
                    if marker in ("u", "U"):
                        width = 4 if marker == "u" else 8
                        digits = text[j + 2 : j + 2 + width]
                        if len(digits) < width or any(
                            d not in "0123456789abcdefABCDEF" for d in digits
                        ):
                            raise err(f"malformed \\{marker} escape", start_line, start_col)
                        out.append(chr(int(digits, 16)))
                        j += 2 + width
                        continue
                    raise err(f"unsupported escape \\{marker}", start_line, start_col)
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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j + 1 < n and text[j] == "." and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            emit("NUMBER", text[i:j], start_line, start_col)
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_" or ch == ":":
            j = i
            while j < n and text[j] in _WORD_CHARS:
                j += 1
            word = text[i:j]
            if j < n and text[j] == ":":
                j += 1
                local_start = j
                while j < n and text[j] in _LOCAL_CHARS:
                    j += 1
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

    # grammar entry

    def parse(self) -> Query:
        prefixes = []
        while self.at_keyword("PREFIX"):
            self.next()
            tok = self.next()
            if tok.kind != "PNAME" or tok.value[1] != "":
                raise self.error("expected prefix declaration like 'ex:'", tok)
            iri_tok = self.expect("IRIREF", "IRI")
            prefixes.append((tok.value[0], iri_tok.value))
            self.prefixes[tok.value[0]] = iri_tok.value
        query = self.parse_select(prefixes=tuple(prefixes))
        tail = self.peek()
        if tail.kind != "EOF":
            if tail.kind == "KEYWORD" and tail.value in _UNSUPPORTED:
                raise self.unsupported(tail)
            raise self.error("unexpected content after query", tail)
        return query

    def parse_select(self, prefixes=()) -> Query:
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
        query = Query(tuple(prefixes), tuple(projection), pattern, group_by)
        _check_query(query)
        return query

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
        if tok.kind == "IRIREF":
            return iri(tok.value)
        if tok.kind == "PNAME":
            self.check_prefix(tok)
            return PName(*tok.value)
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
        subject = self.parse_atom(allow_literal=False, what="subject")
        patterns = []
        while True:
            verb = self.parse_verb()
            while True:
                obj = self.parse_atom(allow_literal=True, what="object")
                patterns.append(TriplePattern(subject, verb, obj))
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

    def parse_verb(self):
        tok = self.peek()
        if tok.kind == "A":
            self.next()
            return A
        if tok.kind == "VAR":
            self.next()
            return Var(tok.value)
        if tok.kind in ("IRIREF", "PNAME"):
            steps = [self.parse_iri_or_pname()]
            while self.peek().kind == "SLASH":
                self.next()
                steps.append(self.parse_iri_or_pname())
            return steps[0] if len(steps) == 1 else PathPred(tuple(steps))
        raise self.error("expected a predicate", tok)

    def parse_iri_or_pname(self):
        tok = self.next()
        if tok.kind == "IRIREF":
            return iri(tok.value)
        if tok.kind == "PNAME":
            self.check_prefix(tok)
            return PName(*tok.value)
        raise self.error("expected an IRI", tok)

    def parse_atom(self, allow_literal: bool, what: str):
        tok = self.peek()
        if tok.kind == "VAR":
            self.next()
            return Var(tok.value)
        if tok.kind == "IRIREF":
            self.next()
            return iri(tok.value)
        if tok.kind == "PNAME":
            self.next()
            self.check_prefix(tok)
            return PName(*tok.value)
        if tok.kind == "STRING" and allow_literal:
            self.next()
            if self.peek().kind == "LANGTAG":
                return LiteralPat(tok.value, language=self.next().value)
            if self.peek().kind == "HATHAT":
                self.next()
                dt = self.parse_iri_or_pname()
                return LiteralPat(tok.value, datatype=dt)
            return LiteralPat(tok.value)
        if tok.kind == "NUMBER" and allow_literal:
            self.next()
            xsd_type = "decimal" if "." in tok.value else "integer"
            return LiteralPat(
                tok.value, datatype=iri(f"http://www.w3.org/2001/XMLSchema#{xsd_type}")
            )
        raise self.error(f"expected a {what}", tok)

    def check_prefix(self, tok):
        prefix = tok.value[0]
        if prefix not in self.prefixes:
            raise self.error(f"unknown prefix {prefix!r}", tok)


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


def _check_query(query: Query):
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


def _check_group_by(query: Query):
    if query.group_by:
        in_pattern = visible_vars(query.pattern)
        for v in query.group_by:
            if v.name not in in_pattern:
                raise QueryValidationError(
                    f"GROUP BY variable ?{v.name} is not visible in the pattern"
                )
    for sub in _subqueries(query.pattern):
        _check_group_by(sub)


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


# ------------------------------------------------------------ normalization


def _all_var_names(node, acc: set):
    if isinstance(node, Bgp):
        for pat in node.patterns:
            for atom in (pat.subject, pat.predicate, pat.object):
                if isinstance(atom, Var):
                    acc.add(atom.name)
    elif isinstance(node, GraphPat):
        if isinstance(node.target, Var):
            acc.add(node.target.name)
        _all_var_names(node.inner, acc)
    elif isinstance(node, Join):
        for part in node.parts:
            _all_var_names(part, acc)
    elif isinstance(node, Minus):
        _all_var_names(node.left, acc)
        _all_var_names(node.right, acc)
    elif isinstance(node, SubSelect):
        for item in node.query.projection:
            if isinstance(item, SelectVar):
                acc.add(item.var.name)
            else:
                acc.add(item.arg.name)
        _all_var_names(node.query.pattern, acc)


class _Normalizer:
    def __init__(self, prefixes: dict[str, str], used_names: set[str]):
        self.prefixes = prefixes
        self.used = used_names
        self.counter = 0

    def fresh_var(self) -> Var:
        while True:
            name = f"_path{self.counter}"
            self.counter += 1
            if name not in self.used:
                self.used.add(name)
                return Var(name)

    def expand_pname(self, pname: PName) -> Term:
        base = self.prefixes.get(pname.prefix)
        if base is None:
            raise QueryValidationError(f"unknown prefix {pname.prefix!r}")
        return iri(base + pname.local)

    def atom(self, x):
        if isinstance(x, PName):
            return self.expand_pname(x)
        if isinstance(x, LiteralPat):
            dt = x.datatype
            if isinstance(dt, PName):
                dt = self.expand_pname(dt)
            return literal(x.lexical, datatype=dt.lexical if isinstance(dt, Term) else None,
                           language=x.language)
        if x is A:
            return RDF_TYPE
        return x

    def pattern(self, node):
        if isinstance(node, Bgp):
            out = []
            for pat in node.patterns:
                subject = self.atom(pat.subject)
                obj = self.atom(pat.object)
                pred = pat.predicate
                if isinstance(pred, PathPred):
                    steps = [self.atom(step) for step in pred.steps]
                    current = subject
                    for step in steps[:-1]:
                        nxt = self.fresh_var()
                        out.append(TriplePattern(current, step, nxt))
                        current = nxt
                    out.append(TriplePattern(current, steps[-1], obj))
                else:
                    out.append(TriplePattern(subject, self.atom(pred), obj))
            return Bgp(tuple(out))
        if isinstance(node, GraphPat):
            target = node.target
            if isinstance(target, PName):
                target = self.expand_pname(target)
            return GraphPat(target, self.pattern(node.inner))
        if isinstance(node, Join):
            return Join(tuple(self.pattern(part) for part in node.parts))
        if isinstance(node, Minus):
            return Minus(self.pattern(node.left), self.pattern(node.right))
        if isinstance(node, SubSelect):
            return SubSelect(self.query(node.query))
        raise TypeError(f"not a pattern node: {node!r}")

    def query(self, q: Query) -> Query:
        return Query((), q.projection, self.pattern(q.pattern), q.group_by)


def validate_and_name(ast: Union[Query, AlgebraPlan]) -> AlgebraPlan:
    """Expand prefixes, desugar ``a`` and predicate paths, check the result.

    Idempotent: validating an already-normalized query (or a plan) returns
    an equal plan.
    """
    query = ast.query if isinstance(ast, AlgebraPlan) else ast
    _check_query(query)
    prefixes = dict(query.prefixes)
    used: set[str] = set()
    _all_var_names(query.pattern, used)
    for item in query.projection:
        used.add(item.var.name if isinstance(item, SelectVar) else item.arg.name)
    normalizer = _Normalizer(prefixes, used)
    normalized = Query(
        (),
        query.projection,
        normalizer.pattern(query.pattern),
        query.group_by,
    )
    _check_query(normalized)
    _check_group_by(normalized)
    columns = column_names(normalized)
    if len(set(columns)) != len(columns):
        raise QueryValidationError(f"duplicate output column in projection: {columns}")
    for sub in _subqueries(normalized.pattern):
        sub_cols = column_names(sub)
        if len(set(sub_cols)) != len(sub_cols):
            raise QueryValidationError(f"duplicate output column in sub-select: {sub_cols}")
    return AlgebraPlan(normalized)


# ------------------------------------------------------------ pretty print


def _atom_text(x) -> str:
    if isinstance(x, Var):
        return f"?{x.name}"
    if isinstance(x, PName):
        return f"{x.prefix}:{x.local}"
    if isinstance(x, PathPred):
        return "/".join(_atom_text(step) for step in x.steps)
    if x is A:
        return "a"
    if isinstance(x, LiteralPat):
        body = '"' + x.lexical.replace("\\", "\\\\").replace('"', '\\"').replace(
            "\n", "\\n"
        ).replace("\r", "\\r").replace("\t", "\\t") + '"'
        if x.language is not None:
            return f"{body}@{x.language}"
        if x.datatype is not None:
            return f"{body}^^{_atom_text(x.datatype)}"
        return body
    if isinstance(x, Term):
        if x.is_iri:
            return f"<{x.lexical}>"
        if x.is_literal:
            return _atom_text(
                LiteralPat(
                    x.lexical,
                    datatype=iri(x.datatype) if x.datatype else None,
                    language=x.language,
                )
            )
    raise TypeError(f"cannot print {x!r}")


def _print_ggp(node) -> str:
    if isinstance(node, Bgp):
        return " ".join(
            f"{_atom_text(p.subject)} {_atom_text(p.predicate)} {_atom_text(p.object)} ."
            for p in node.patterns
        )
    if isinstance(node, GraphPat):
        return f"GRAPH {_atom_text(node.target)} {{ {_print_ggp(node.inner)} }}"
    if isinstance(node, Join):
        chunks = []
        for part in node.parts:
            # Bare adjacent BGPs would merge on reparse, a bare Minus would
            # capture its left siblings, and a bare Join would flatten.
            if isinstance(part, (Bgp, Minus, Join)):
                chunks.append("{ " + _print_ggp(part) + " }")
            else:
                chunks.append(_print_ggp(part))
        return " ".join(chunks)
    if isinstance(node, Minus):
        return f"{_print_ggp(node.left)} MINUS {{ {_print_ggp(node.right)} }}"
    if isinstance(node, SubSelect):
        return "{ " + print_query(node.query, with_prefixes=False) + " }"
    raise TypeError(f"not a pattern node: {node!r}")


def print_query(query: Query, with_prefixes: bool = True) -> str:
    """Render an AST back to query text; parse(print_query(q)) == q."""
    parts = []
    if with_prefixes:
        for prefix, base in query.prefixes:
            parts.append(f"PREFIX {prefix}: <{base}>")
    items = []
    for item in query.projection:
        if isinstance(item, SelectVar):
            items.append(f"?{item.var.name}")
        else:
            inner = f"DISTINCT ?{item.arg.name}" if item.distinct else f"?{item.arg.name}"
            text = f"{item.func}({inner})"
            if item.alias is not None:
                text += f" AS ?{item.alias}"
            items.append(text)
    parts.append("SELECT " + " ".join(items))
    parts.append("WHERE { " + _print_ggp(query.pattern) + " }")
    if query.group_by:
        parts.append("GROUP BY " + " ".join(f"?{v.name}" for v in query.group_by))
    return "\n".join(parts)
