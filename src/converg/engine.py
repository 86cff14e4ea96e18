"""Query evaluation over the condensed store.

Every pattern evaluates to (solution, bits) rows: a solution of term
bindings and the bitmap of the versions it holds in. Inside GRAPH a basic
graph pattern is matched once per named graph while the version dimension
stays a bitmap; a join ANDs the bits of compatible rows and MINUS clears
them. `GRAPH ?vng { ... }`, alone or joined with the linking metadata
patterns on ?vng, stays condensed as `VersionedRows`: the links are
resolved from each row's graph id and bits. Every GROUP BY folds over
rows, by whole row or per bit (counting a version is summing a bit
column). The output stage reads ungrouped top-level versioned rows
condensed: a row's cells are serialized once, and only the ?vng and
version cells change per set bit. Versioned rows expand only under MINUS,
joined with a non-link pattern, or in an ungrouped sub-select.

`eval_oracle` is the deliberately naive reference: it evaluates the same
query over the flat quad list with nested loops, no dictionary, no indexes,
and no bitmaps. The two evaluators must agree on every supported query,
which is what the differential tests exercise.
"""

from __future__ import annotations

import csv
import io
import logging
from collections import Counter
from itertools import repeat
from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache

from .errors import EvalError, UnknownVngError
from .model import (
    IS_IN_VERSION,
    IS_VERSION_OF,
    VERSION_NS,
    XSD,
    Term,
    literal,
    numeric_value,
    term_order_key,
)
from .nquads import serialize_term
from .sparql import (
    Bgp,
    GraphPat,
    Join,
    Minus,
    Query,
    SelectAgg,
    SubSelect,
    Var,
    column_names,
    parse_query,
    validate_and_name,
    visible_vars,
)
from .store import Store, bit_for, bitmap_ordinals

logger = logging.getLogger(__name__)

Solution = dict  # variable name -> Term

_XSD_INTEGER = XSD + "integer"
_XSD_DECIMAL = XSD + "decimal"


# --------------------------------------------------------------- solutions


def compatible(a: Solution, b: Solution) -> bool:
    for name, value in a.items():
        other = b.get(name)
        if other is not None and other != value:
            return False
    return True


def merge(a: Solution, b: Solution) -> Solution:
    out = dict(a)
    out.update(b)
    return out


def _extend(binding: Solution, name: str, term: Term):
    existing = binding.get(name)
    if existing is None:
        out = dict(binding)
        out[name] = term
        return out
    return binding if existing == term else None


def eval_join(left: list, right: list) -> list:
    """Natural join of (solution, bits) rows: compatible rows merge and
    their bits AND; a pair that shares no version is dropped. Multiplicity
    is the product of multiplicities."""
    if not left or not right:
        return []
    shared = set().union(*(row for row, _bits in left)) & set().union(*(row for row, _bits in right))
    key_vars = tuple(sorted(shared))
    if all(v in row for row, _bits in (*left, *right) for v in key_vars):
        index: dict[tuple, list] = {}
        for r in right:
            index.setdefault(tuple(r[0][v] for v in key_vars), []).append(r)
        pairs = ((l, r) for l in left for r in index.get(tuple(l[0][v] for v in key_vars), ()))
    else:
        # Rare: a shared variable may be unbound (e.g. MAX over an empty
        # group in a sub-select). Fall back to pairwise compatibility.
        pairs = ((l, r) for l in left for r in right if compatible(l[0], r[0]))
    out = []
    for (l, l_bits), (r, r_bits) in pairs:
        if l_bits & r_bits:
            out.append((merge(l, r), l_bits & r_bits))
    return out


def eval_minus(left: list, right: list) -> list:
    """Clear from each left (solution, bits) row the bits of every right
    row that is compatible with it and shares at least one bound variable;
    a row left with no bits is dropped."""
    index: dict[frozenset, tuple] = {}  # domain -> (its variables, key -> bits, rows)
    for r in right:
        domain = frozenset(r[0])
        if domain not in index:
            index[domain] = (tuple(sorted(domain)), {}, [])
        key_vars, keyed, rows = index[domain]
        keyed.setdefault(tuple(r[0][v] for v in key_vars), []).append(r[1])
        rows.append(r)
    out = []
    for row in left:
        l, bits = row
        for domain, (key_vars, keyed, rows) in index.items():
            common = domain.intersection(l)
            if common and common == domain:
                for r_bits in keyed.get(tuple(l[v] for v in key_vars), ()):
                    bits &= ~r_bits
            elif common:
                for r, r_bits in rows:
                    if compatible(l, r):
                        bits &= ~r_bits
        if bits:
            out.append(row if bits == row[1] else (l, bits))
    return out


# ------------------------------------------------- condensed BGP matching


def _pattern_ids(store: Store, pattern, binding: Solution):
    """(s, p, o) as TermId or None per position; False if a constant is
    absent from the dictionary (nothing can match)."""
    ids = []
    for atom in (pattern.subject, pattern.predicate, pattern.object):
        if isinstance(atom, Var):
            bound = binding.get(atom.name)
            if bound is None:
                ids.append(None)
                continue
            atom = bound
        tid = store.dictionary.lookup(atom)
        if tid is None:
            return False
        ids.append(tid)
    return ids


def _match_bgp_in_graph(store: Store, patterns, graph_id: int, mask: int):
    """Join the patterns inside one named graph, ANDing version bitmaps.

    Returns (binding, bits) rows with bits != 0; `mask` holds the versions
    in scope.
    """
    decode = store.dictionary.decode
    rows = [({}, mask)]
    for pattern in patterns:
        variables = [
            atom.name if isinstance(atom, Var) else None
            for atom in (pattern.subject, pattern.predicate, pattern.object)
        ]
        next_rows = []
        for binding, bits in rows:
            ids = _pattern_ids(store, pattern, binding)
            if ids is False:
                continue
            for entry in store.lookup_pattern(graph_id, ids[0], ids[1], ids[2]):
                joined = bits & entry.bits
                if not joined:
                    continue
                extended = binding
                ok = True
                for name, tid in zip(variables, (entry.subject, entry.predicate, entry.object)):
                    if name is None:
                        continue
                    term = decode(tid)
                    existing = extended.get(name)
                    if existing is None:
                        if extended is binding:
                            extended = dict(binding)
                        extended[name] = term
                    elif existing != term:
                        ok = False
                        break
                if ok:
                    next_rows.append((extended, joined))
        rows = next_rows
        if not rows:
            break
    return rows


# ---------------------------------------------------------- versioned rows


def _version_bit(store: Store, term: Term) -> int:
    """The bit of the existing version `term` names; 0 for any other term."""
    if term.is_iri and term.lexical.startswith(VERSION_NS):
        digits = term.lexical[len(VERSION_NS):]
        if digits.isdecimal():
            ordinal = int(digits)
            if 1 <= ordinal <= store.version_count and store.version_iris()[ordinal - 1] == term:
                return bit_for(ordinal)
    return 0


def _vng_bit(store: Store, term: Term, graph_id: int) -> int:
    """The bit of `term` when it names a versioned graph of `graph_id`."""
    try:
        vng_graph, ordinal = store.resolve_vng(term)
    except UnknownVngError:
        return 0
    return bit_for(ordinal) if vng_graph == graph_id else 0


def _is_link(pattern, vng_var: str) -> bool:
    """`?vng is-in-version X` or `?vng is-version-of X`, X not ?vng."""
    return (
        isinstance(pattern.subject, Var)
        and pattern.subject.name == vng_var
        and pattern.predicate in (IS_IN_VERSION, IS_VERSION_OF)
        and pattern.object != Var(vng_var)
    )


@dataclass
class VersionedRows:
    """Solutions of `GRAPH ?vng { ... }` and its link patterns, condensed.

    Each (binding, graph id, bits) row stands for one solution per set bit
    m: the binding, plus `vng_var` bound to the versioned graph (graph id,
    m) and each of `version_vars` bound to version m (none for plain rows).
    """

    store: Store
    rows: list
    vng_var: str | None
    version_vars: tuple = ()

    @property
    def per_bit(self) -> set[str]:
        """The variables whose value changes with the bit position."""
        return {self.vng_var, *self.version_vars}

    def expand(self, names=None) -> list[Solution]:
        """One solution per set bit of each row; with `names`, each holds
        only the variables among them."""
        vng_iri_for = self.store.vng_iri_for
        versions = self.store.version_iris()
        vng_var = self.vng_var if names is None or self.vng_var in names else None
        version_vars = [v for v in self.version_vars if names is None or v in names]
        out = []
        for binding, graph_id, bits in self.rows:
            if names is not None:
                binding = {name: binding[name] for name in names if name in binding}
            for ordinal in bitmap_ordinals(bits):
                solution = dict(binding)
                if vng_var is not None:
                    solution[vng_var] = vng_iri_for(graph_id, ordinal)
                for name in version_vars:
                    solution[name] = versions[ordinal - 1]
                out.append(solution)
        return out

    def value(self, binding: Solution, graph_id, ordinal: int, name: str):
        """What `name` is bound to at bit `ordinal` of a row; None if unbound."""
        if name == self.vng_var:
            return self.store.vng_iri_for(graph_id, ordinal)
        if name in self.version_vars:
            return self.store.version_iris()[ordinal - 1]
        return binding.get(name)


# ------------------------------------------------------ pattern evaluation


def _scope_bits(ctx) -> int:
    """The bits every row of a pattern that holds throughout `ctx` carries."""
    return -1 if ctx is None else ctx[1]


class _CondensedEvaluator:
    """Evaluates parsed patterns against a store.

    Every pattern evaluates to (solution, bits) rows under a context:
    None for the default graph (metadata), where every row carries -1, or
    (graph id, bits of the versions in scope), where a row stands for its
    solution once in each version whose bit it carries. Rows never carry 0.
    """

    def __init__(self, store: Store):
        self.store = store

    def versioned(self, node, ctx):
        """`node` as VersionedRows when it is GRAPH ?vng { ... }, alone or
        joined in the default graph with link patterns on ?vng; else None.
        The rows do not depend on `ctx`: they hold in every version of it."""
        if isinstance(node, GraphPat):
            graph, links = node, []
        elif isinstance(node, Join) and ctx is None:
            graphs = [p for p in node.parts if isinstance(p, GraphPat)]
            if len(graphs) != 1 or not all(isinstance(p, (Bgp, GraphPat)) for p in node.parts):
                return None
            graph = graphs[0]
            links = [pat for p in node.parts if isinstance(p, Bgp) for pat in p.patterns]
        else:
            return None
        if isinstance(graph.target, Var) and all(_is_link(p, graph.target.name) for p in links):
            return self.eval_versioned(graph, links)
        return None

    def eval_versioned(self, graph: GraphPat, links) -> VersionedRows:
        """`graph` (GRAPH ?vng { inner }) joined with the link patterns
        `links`; the inner pattern runs once per graph id, over the versions
        that minted a vng for it. A link to a constant filters rows by graph
        id or ANDs in that version's bit; a link to a new variable binds it
        once per row (the graph) or makes it per-bit (the version); a link
        to a variable already bound filters.
        """
        store = self.store
        vng_var = graph.target.name
        rows = [
            (binding, graph_id, bits)
            for graph_id, minted in store.minted_versions().items()
            for binding, bits in self.eval(graph.inner, (graph_id, minted))
        ]
        bound = visible_vars(graph.inner)
        if vng_var in bound:  # an inner ?vng (unless left unbound) must name the row's vng
            rows = [
                (b, g, bits if vng_var not in b else bits & _vng_bit(store, b[vng_var], g))
                for b, g, bits in rows
            ]
        version_vars: tuple = ()
        decode = store.dictionary.decode
        for pattern in links:
            obj = pattern.object
            name = obj.name if isinstance(obj, Var) else None
            if pattern.predicate == IS_VERSION_OF:
                if name is None:
                    graph_id = store.dictionary.lookup(obj)
                    rows = [row for row in rows if row[1] == graph_id]
                elif name in version_vars:
                    rows = [(b, g, bits & _version_bit(store, decode(g))) for b, g, bits in rows]
                else:
                    rows = [
                        (extended, g, bits)
                        for b, g, bits in rows
                        if (extended := _extend(b, name, decode(g))) is not None
                    ]
                    bound.add(name)
            elif name is None:
                mask = _version_bit(store, obj)
                rows = [(b, g, bits & mask) for b, g, bits in rows]
            elif name in bound:  # one row per version its value (or, unbound, it) takes
                versions = store.version_iris()
                rows = [
                    (extended, g, bit_for(m))
                    for b, g, bits in rows
                    for m in bitmap_ordinals(bits)
                    if (extended := _extend(b, name, versions[m - 1])) is not None
                ]
            elif name not in version_vars:
                version_vars += (name,)
        rows = [row for row in rows if row[2]]
        return VersionedRows(store, rows, vng_var, version_vars)

    def eval_rows(self, node, ctx):
        """VersionedRows where `node` stays condensed, else its rows."""
        versioned = self.versioned(node, ctx)
        return versioned if versioned is not None else self.eval(node, ctx)

    def eval(self, node, ctx) -> list:
        versioned = self.versioned(node, ctx)
        if versioned is not None:
            scope = _scope_bits(ctx)
            return [(solution, scope) for solution in versioned.expand()]
        if isinstance(node, Bgp):
            if ctx is None:
                return [(row, -1) for row in _match_triples(self.store.metadata_graph(), node.patterns)]
            return _match_bgp_in_graph(self.store, node.patterns, *ctx)
        if isinstance(node, Join):
            rows = self.eval(node.parts[0], ctx)
            for part in node.parts[1:]:  # every part, so its errors are raised too
                rows = eval_join(rows, self.eval(part, ctx))
            return rows
        if isinstance(node, Minus):
            return eval_minus(self.eval(node.left, ctx), self.eval(node.right, ctx))
        if isinstance(node, GraphPat):
            return self.eval_graph(node, ctx)
        if isinstance(node, SubSelect):
            _, solutions, bits = eval_select(self.store, node.query, ctx)
            return list(zip(solutions, bits))
        raise TypeError(f"not a pattern node: {node!r}")

    def eval_graph(self, node: GraphPat, ctx) -> list:
        """GRAPH <vng> { inner }: the inner rows, which hold throughout
        `ctx` whichever version of the outer scope is asked."""
        try:
            graph_id, ordinal = self.store.resolve_vng(node.target)
        except UnknownVngError:
            logger.warning(
                "GRAPH names %s, which is not a versioned graph; empty match",
                serialize_term(node.target),
            )
            return []
        scope = _scope_bits(ctx)
        return [(row, scope) for row, _bits in self.eval(node.inner, (graph_id, bit_for(ordinal)))]


def _match_triples(triples, patterns) -> list[Solution]:
    """Nested-loop BGP matching over a plain (s, p, o) list."""
    rows: list[Solution] = [{}]
    for pattern in patterns:
        atoms = (pattern.subject, pattern.predicate, pattern.object)
        next_rows = []
        for binding in rows:
            for triple in triples:
                extended = binding
                ok = True
                for atom, term in zip(atoms, triple):
                    if isinstance(atom, Var):
                        existing = extended.get(atom.name)
                        if existing is None:
                            if extended is binding:
                                extended = dict(binding)
                            extended[atom.name] = term
                        elif existing != term:
                            ok = False
                            break
                    elif atom != term:
                        ok = False
                        break
                if ok:
                    next_rows.append(extended)
        rows = next_rows
        if not rows:
            break
    return rows


# ------------------------------------------------------------- aggregation


def _numeric_or_fail(term: Term, group_desc: str) -> Decimal:
    value = numeric_value(term)
    if value is None:
        raise EvalError(
            f"SUM over non-numeric term {serialize_term(term)} in group {group_desc}"
        )
    return value


def _sum_literal(values: Counter, group_desc: str) -> Term:
    total = Decimal(0)
    integral = True
    for term, multiplicity in values.items():
        total += _numeric_or_fail(term, group_desc) * multiplicity
        if term.datatype != _XSD_INTEGER and not (
            term.datatype is None and term.lexical.lstrip("+-").isdigit()
        ):
            integral = False
    if integral:
        return literal(str(int(total)), datatype=_XSD_INTEGER)
    return literal(str(total), datatype=_XSD_DECIMAL)


@lru_cache(maxsize=1 << 16)
def _count_literal(n: int) -> Term:
    return literal(str(n), datatype=_XSD_INTEGER)


def _apply_aggregate(spec: SelectAgg, values: Counter, group_desc: str):
    """Fold one aggregate over a group's argument values, given as each
    distinct bound value with its multiplicity."""
    if spec.distinct:
        values = Counter(dict.fromkeys(values, 1))
    if spec.func == "COUNT":
        return _count_literal(sum(values.values()))
    if not values:
        return None  # MAX/MIN/SUM over nothing is unbound
    if spec.func == "MAX":
        return max(values, key=term_order_key)
    if spec.func == "MIN":
        return min(values, key=term_order_key)
    if spec.func == "SUM":
        return _sum_literal(values, group_desc)
    raise EvalError(f"unknown aggregate {spec.func}")


def _describe(group_vars, key: Solution) -> str:
    """A group as an aggregate error names it: its key in GROUP BY order."""
    if not group_vars:
        return "(all rows)"
    return "(" + ", ".join(serialize_term(key[n]) if n in key else "UNBOUND" for n in group_vars) + ")"


def _group(vrows: VersionedRows, group_by, aggregates, scope: int = 0) -> list:
    """GROUP BY over (binding, graph id, bits) rows without expanding them.
    Keys bound once per row group whole rows. Keys on ?vng or a version
    variable group per bit, as do plain rows inside GRAPH: `scope` holds
    their versions in scope, each one group when there is no GROUP BY.
    Returns (result, ordinal) pairs, ordinal None for a whole-row group."""
    group_vars = [v.name for v in group_by] if group_by else []
    per_bit = vrows.per_bit
    row_keys = [name for name in group_vars if name not in per_bit]
    bit_keys = [name for name in group_vars if name in per_bit]
    by_graph = vrows.vng_var in bit_keys
    groups = {((), None): vrows.rows}  # one group: no keys to build
    if row_keys or by_graph:
        groups = {}
        for row in vrows.rows:
            key = (tuple(row[0].get(name) for name in row_keys), row[1] if by_graph else None)
            groups.setdefault(key, []).append(row)
    out = []
    for (key, graph_id), members in groups.items():
        base = {name: term for name, term in zip(row_keys, key) if term is not None}
        if not (scope or bit_keys):
            desc = _describe(group_vars, base)
            for spec, alias in aggregates:
                term = _fold_rows(vrows, spec, members, desc)
                if term is not None:
                    base[alias] = term
            out.append((base, None))
            continue
        present = scope
        if group_vars:
            present = 0
            for _binding, _graph_id, bits in members:
                present |= bits
        keys = {}
        for ordinal in bitmap_ordinals(present):
            keys[ordinal] = result = dict(base)
            for name in bit_keys:
                result[name] = vrows.value(None, graph_id, ordinal, name)
        folded = [_fold_positions(vrows, spec, members, keys, group_vars) for spec, _ in aggregates]
        for ordinal, result in keys.items():
            for (_spec, alias), by_position in zip(aggregates, folded):
                term = by_position[ordinal - 1]
                if term is not None:
                    result[alias] = term
            out.append((result, ordinal))
    return out


def _fold_rows(vrows: VersionedRows, spec: SelectAgg, members, desc: str):
    """`spec` over a whole-row group; COUNT(DISTINCT ?version) ORs the bits."""
    name = spec.arg.name
    if spec.distinct and spec.func == "COUNT" and name in vrows.version_vars:
        union = 0
        for _binding, _graph_id, bits in members:
            union |= bits
        return _count_literal(union.bit_count())
    values: Counter = Counter()
    if name in vrows.per_bit:
        for binding, graph_id, bits in members:
            for ordinal in bitmap_ordinals(bits):
                values[vrows.value(binding, graph_id, ordinal, name)] += 1
    else:
        for binding, _graph_id, bits in members:
            term = binding.get(name)
            if term is not None:
                values[term] += bits.bit_count()
    return _apply_aggregate(spec, values, desc)


def _fold_positions(vrows: VersionedRows, spec: SelectAgg, members, keys, group_vars) -> list:
    """`spec` at each position of `keys` (position -> group key), indexed by
    ordinal - 1. COUNT sums bit columns; COUNT(DISTINCT), MAX and MIN of a
    per-row variable read the bits each value covers; anything else folds
    the values each position counts."""
    name = spec.arg.name
    width = vrows.store.version_count
    per_row = name not in vrows.per_bit
    if spec.func == "COUNT" and not spec.distinct:
        bound = [bits for binding, _graph_id, bits in members if not per_row or name in binding]
        return _bit_counts(bound, width)
    if per_row and spec.func != "SUM":
        coverage: dict[Term, int] = {}
        for binding, _graph_id, bits in members:
            term = binding.get(name)
            if term is not None:
                coverage[term] = coverage.get(term, 0) | bits
        if spec.func == "COUNT":
            return _bit_counts(coverage.values(), width)
        best: list = [None] * width
        unclaimed = 0
        for bits in coverage.values():
            unclaimed |= bits
        for term in sorted(coverage, key=term_order_key, reverse=spec.func == "MAX"):
            claimed = coverage[term] & unclaimed
            for ordinal in bitmap_ordinals(claimed):
                best[ordinal - 1] = term
            unclaimed ^= claimed
            if not unclaimed:
                break
        return best
    counts = {ordinal: Counter() for ordinal in keys}  # the members' bits are among the keys
    for binding, graph_id, bits in members:
        for ordinal in bitmap_ordinals(bits):
            term = vrows.value(binding, graph_id, ordinal, name)
            if term is not None:
                counts[ordinal][term] += 1
    out: list = [None] * width
    for ordinal, key in keys.items():
        out[ordinal - 1] = _apply_aggregate(spec, counts[ordinal], _describe(group_vars, key))
    return out


def _bit_counts(bitmaps, width: int) -> list:
    """COUNT at every bit position: how many of `bitmaps` hold it."""
    counts = [0] * width
    for bits in bitmaps:
        while bits:
            low = bits & -bits
            counts[low.bit_length() - 1] += 1
            bits ^= low
    return [_count_literal(n) for n in counts]


# ------------------------------------------------------------ select logic


def _aggregates_with_aliases(query: Query):
    pairs = zip(query.projection, column_names(query))
    return [(item, column) for item, column in pairs if isinstance(item, SelectAgg)]


def eval_select(store: Store, query: Query, ctx=None):
    """Evaluate one (sub-)query body under `ctx`: pattern, grouping,
    projection.

    Returns (columns, solutions, bits): the solutions carry only the
    projected names, and `bits` holds the bits of each. Two parallel lists,
    so that the top level, which drops the bits, builds no pair per row.
    """
    evaluator = _CondensedEvaluator(store)
    rows = evaluator.eval_rows(query.pattern, ctx)
    return _project(store, query, rows, ctx)


def _project(store: Store, query: Query, rows, ctx):
    """Group and project. Ungrouped rows keep their bits, and the groups of
    versioned rows hold in every version of `ctx`; plain rows inside GRAPH
    group per version in scope, each group holding in its version only."""
    columns = column_names(query)
    aggregates = _aggregates_with_aliases(query)
    scope = _scope_bits(ctx)
    if isinstance(rows, VersionedRows):
        if not (aggregates or query.group_by):
            projected = rows.expand(columns)
            return columns, projected, [scope] * len(projected)
        rows = ((result, scope) for result, _ordinal in _group(rows, query.group_by, aggregates))
    elif aggregates or query.group_by:
        plain = VersionedRows(store, [(b, None, 1 if ctx is None else bits) for b, bits in rows], None)
        rows = (
            (result, bit_for(ordinal) if ordinal else scope)
            for result, ordinal in _group(plain, query.group_by, aggregates, 0 if ctx is None else scope)
        )
    projected, bits = [], []
    for row, row_bits in rows:
        out = {}
        for name in columns:
            term = row.get(name)
            if term is not None:
                out[name] = term
        projected.append(out)
        bits.append(row_bits)
    return columns, projected, bits


# ------------------------------------------------------------ result table


@dataclass
class ResultTable:
    columns: tuple
    rows: list  # tuples of Term-or-None, canonically sorted
    lines: list  # each row's N-Triples cell texts ("" for unbound), joined by tabs

    def to_tsv(self) -> str:
        return "\n".join(["\t".join(self.columns), *self.lines]) + "\n"

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(line.split("\t") for line in self.lines)
        return buffer.getvalue()


def _table(columns, result) -> ResultTable:
    """The result table of `result`: `VersionedRows`, or a list of plain
    solutions, each of which enters as a row with no per-bit column that
    stands for one solution.

    A (binding, graph id, bits) row looks up the texts of the cells it binds
    once; per set bit only the ?vng cell and the version cells change, so
    each solution costs one tuple and one line. Each term object is
    serialized once: the memo is keyed by id(), which is sound because the
    rows and the store keep every term alive for the whole call (a Term key
    would hash and compare in Python, no cheaper than serializing).

    Rows are sorted on the tuple of their cell texts, "" for unbound. A
    row's cells are joined by tabs and the lines sorted as strings. That is
    the same order: no cell text holds a tab, and a text that is a proper
    prefix of another ("a" of "a"@en, _:a of _:ab, "" of any) is continued
    there by a character above the tab.
    """
    vng_at, version_at = None, []
    if isinstance(result, VersionedRows):
        rows = result.rows
        if result.vng_var in columns:
            vng_at = columns.index(result.vng_var)
            vng_iri_for = result.store.vng_iri_for
        version_at = [i for i, name in enumerate(columns) if name in result.version_vars]
        if version_at:
            versions = result.store.version_iris()
            version_texts = [serialize_term(v) for v in versions]
    else:
        rows = zip(result, repeat(None), repeat(1))
    texts = {id(None): ""}
    out_rows, lines = [], []
    for binding, graph_id, bits in rows:
        terms = list(map(binding.get, columns))
        for term in terms:
            if id(term) not in texts:
                texts[id(term)] = serialize_term(term)
        cells = list(map(texts.__getitem__, map(id, terms)))
        if vng_at is None and not version_at:
            row, line = tuple(terms), "\t".join(cells)
            for _ in range(bits.bit_count()):
                out_rows.append(row)
                lines.append(line)
            continue
        for ordinal in bitmap_ordinals(bits):
            if vng_at is not None:
                vng = vng_iri_for(graph_id, ordinal)
                if id(vng) not in texts:
                    texts[id(vng)] = serialize_term(vng)
                terms[vng_at] = vng
                cells[vng_at] = texts[id(vng)]
            for i in version_at:
                terms[i] = versions[ordinal - 1]
                cells[i] = version_texts[ordinal - 1]
            out_rows.append(tuple(terms))
            lines.append("\t".join(cells))
    order = sorted(range(len(lines)), key=lines.__getitem__)
    return ResultTable(
        tuple(columns), list(map(out_rows.__getitem__, order)), list(map(lines.__getitem__, order))
    )


def execute_plan(store: Store, query: Query) -> ResultTable:
    """The sorted result table of `query`. An ungrouped top-level pattern
    that stays condensed reaches the output stage as versioned rows, never
    expanded into solutions."""
    rows = _CondensedEvaluator(store).eval_rows(query.pattern, None)
    if isinstance(rows, VersionedRows) and not (query.group_by or _aggregates_with_aliases(query)):
        return _table(column_names(query), rows)
    columns, solutions, _bits = _project(store, query, rows, None)
    return _table(columns, solutions)


def execute_query(store: Store, text: str) -> ResultTable:
    """Parse, validate, plan, evaluate, project; rows are sorted by the
    serialized form of their terms so output is deterministic."""
    query = validate_and_name(parse_query(text))
    return execute_plan(store, query)


# ------------------------------------------------------------------ oracle


class _OracleDataset:
    def __init__(self, quads):
        self.default: list[tuple[Term, Term, Term]] = []
        self.named: dict[Term, list[tuple[Term, Term, Term]]] = {}
        for quad in quads:
            if quad.graph is None:
                self.default.append(quad.triple())
            else:
                self.named.setdefault(quad.graph, []).append(quad.triple())


class _OracleEvaluator:
    """Reference semantics over the flat quad list: nested loops only."""

    def __init__(self, dataset: _OracleDataset):
        self.dataset = dataset

    def eval(self, node, active: list) -> list[Solution]:
        if isinstance(node, Bgp):
            return _match_triples(active, node.patterns)
        if isinstance(node, Join):
            rows = self.eval(node.parts[0], active)
            for part in node.parts[1:]:
                right = self.eval(part, active)
                rows = [merge(l, r) for l in rows for r in right if compatible(l, r)]
            return rows
        if isinstance(node, Minus):
            left = self.eval(node.left, active)
            right = self.eval(node.right, active)
            out = []
            for l in left:
                dropped = False
                for r in right:
                    if set(l) & set(r) and compatible(l, r):
                        dropped = True
                        break
                if not dropped:
                    out.append(l)
            return out
        if isinstance(node, GraphPat):
            if isinstance(node.target, Var):
                name = node.target.name
                out = []
                for graph_name, triples in self.dataset.named.items():
                    for binding in self.eval(node.inner, triples):
                        extended = _extend(binding, name, graph_name)
                        if extended is not None:
                            out.append(extended)
                return out
            if node.target not in self.dataset.named:
                return []  # not a graph of the dataset: matches nothing
            return self.eval(node.inner, self.dataset.named[node.target])
        if isinstance(node, SubSelect):
            _, rows = self._select(node.query, active)
            return rows
        raise TypeError(f"not a pattern node: {node!r}")

    def _select(self, query: Query, active: list):
        rows = self.eval(query.pattern, active)
        return self._project(query, rows)

    def _project(self, query: Query, rows: list[Solution]):
        # Independent grouping/projection so the main pipeline's aggregate
        # machinery is exercised against, not reused.
        columns = column_names(query)
        aggregates = _aggregates_with_aliases(query)
        if aggregates or query.group_by:
            group_vars = [v.name for v in query.group_by] if query.group_by else []
            order: list[tuple] = []
            buckets: dict[tuple, list[Solution]] = {}
            for row in rows:
                key = tuple(row.get(name) for name in group_vars)
                if key not in buckets:
                    buckets[key] = []
                    order.append(key)
                buckets[key].append(row)
            if not group_vars and not order:
                order.append(())
                buckets[()] = []
            grouped = []
            for key in order:
                result = {
                    name: term for name, term in zip(group_vars, key) if term is not None
                }
                for spec, alias in aggregates:
                    values = [
                        row[spec.arg.name] for row in buckets[key] if spec.arg.name in row
                    ]
                    if spec.distinct:
                        kept, seen = [], set()
                        for v in values:
                            if v not in seen:
                                seen.add(v)
                                kept.append(v)
                        values = kept
                    if spec.func == "COUNT":
                        result[alias] = literal(str(len(values)), datatype=_XSD_INTEGER)
                        continue
                    if not values:
                        continue
                    if spec.func == "MAX":
                        result[alias] = sorted(values, key=term_order_key)[-1]
                    elif spec.func == "MIN":
                        result[alias] = sorted(values, key=term_order_key)[0]
                    elif spec.func == "SUM":
                        total = Decimal(0)
                        integral = True
                        for term in values:
                            value = numeric_value(term)
                            if value is None:
                                raise EvalError(
                                    f"SUM over non-numeric term {serialize_term(term)}"
                                    f" in group {key!r}"
                                )
                            total += value
                            if term.datatype != _XSD_INTEGER and not (
                                term.datatype is None
                                and term.lexical.lstrip("+-").isdigit()
                            ):
                                integral = False
                        if integral:
                            result[alias] = literal(str(int(total)), datatype=_XSD_INTEGER)
                        else:
                            result[alias] = literal(str(total), datatype=_XSD_DECIMAL)
                grouped.append(result)
            rows = grouped
        return columns, [{name: row[name] for name in columns if name in row} for row in rows]


def eval_oracle(flat_quads, query: Query):
    """Ground-truth evaluation of `query` over an exported flat quad list.

    Returns (columns, projected rows), the rows unsorted solution dicts.
    """
    dataset = _OracleDataset(flat_quads)
    evaluator = _OracleEvaluator(dataset)
    return evaluator._select(query, dataset.default)
