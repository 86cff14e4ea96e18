"""Query evaluation over the condensed store.

Basic graph patterns inside GRAPH are matched once per named graph while
the version dimension stays a bitmap: joining two patterns ANDs their
bitmaps. `GRAPH ?vng { BGP }`, alone or joined with the linking metadata
patterns on ?vng, stays condensed as `VersionedRows`: the links are
resolved from each row's graph id and bits. GROUP BY folds over those rows
(counting a version is summing a bit column); every other consumer expands
them into per-version solutions.

`eval_oracle` is the deliberately naive reference: it evaluates the same
plan over the flat quad list with nested loops, no dictionary, no indexes,
and no bitmaps. The two evaluators must agree on every supported query,
which is what the differential tests exercise.
"""

from __future__ import annotations

import csv
import io
import logging
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal

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
    version_iri,
)
from .nquads import serialize_term
from .sparql import (
    AlgebraPlan,
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


def eval_join(left: list[Solution], right: list[Solution]) -> list[Solution]:
    """Natural join; multiplicity is the product of multiplicities."""
    if not left or not right:
        return []
    left_vars = set().union(*(row.keys() for row in left))
    right_vars = set().union(*(row.keys() for row in right))
    shared = left_vars & right_vars
    if not shared:
        return [merge(l, r) for l in left for r in right]
    key_vars = tuple(sorted(shared))
    fully_bound = all(all(v in row for v in key_vars) for row in left) and all(
        all(v in row for v in key_vars) for row in right
    )
    if not fully_bound:
        # Rare: a shared variable may be unbound (e.g. MAX over an empty
        # group in a sub-select). Fall back to pairwise compatibility.
        return [merge(l, r) for l in left for r in right if compatible(l, r)]
    index: dict[tuple, list[Solution]] = {}
    for row in right:
        index.setdefault(tuple(row[v] for v in key_vars), []).append(row)
    out = []
    for l in left:
        for r in index.get(tuple(l[v] for v in key_vars), ()):
            out.append(merge(l, r))
    return out


def eval_minus(left: list[Solution], right: list[Solution]) -> list[Solution]:
    """Keep a left row unless some right row is compatible with it and
    shares at least one bound variable."""
    if not left or not right:
        return list(left)
    by_domain: dict[frozenset, object] = {}
    for row in right:
        domain = frozenset(row.keys())
        by_domain.setdefault(domain, []).append(row)
    domain_index = {}
    for domain, rows in by_domain.items():
        key_vars = tuple(sorted(domain))
        domain_index[domain] = (key_vars, {tuple(r[v] for v in key_vars) for r in rows}, rows)
    out = []
    for l in left:
        l_vars = set(l.keys())
        dropped = False
        for domain, (key_vars, keyset, rows) in domain_index.items():
            common = domain & l_vars
            if not common:
                continue
            if common == domain:
                if tuple(l[v] for v in key_vars) in keyset:
                    dropped = True
                    break
            else:
                if any(compatible(l, r) for r in rows):
                    dropped = True
                    break
        if not dropped:
            out.append(l)
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

    Yields (binding, bits) with bits != 0; `mask` restricts to a version
    subset (all-ones for the graph-variable path).
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


def eval_bgp_in_graph_var(store: Store, patterns, graph_var: str):
    """All (solution, graph id, version bitmap) rows for a BGP under a
    graph variable; expanding each row over its set bits must equal
    evaluating the BGP separately inside every versioned graph."""
    if not patterns:
        raise ValueError("basic graph pattern must be non-empty")
    full_mask = (1 << store.version_count) - 1
    out = []
    if not full_mask:
        return out
    for graph_id in store.graphs_in_order():
        for binding, bits in _match_bgp_in_graph(store, patterns, graph_id, full_mask):
            out.append((binding, graph_id, bits))
    return out


# ---------------------------------------------------------- versioned rows


def _version_terms(store: Store) -> list[Term]:
    return [version_iri(ordinal) for ordinal in range(1, store.version_count + 1)]


def _version_bit(store: Store, term: Term) -> int:
    """The bit of the existing version `term` names; 0 for any other term."""
    if term.is_iri and term.lexical.startswith(VERSION_NS):
        digits = term.lexical[len(VERSION_NS):]
        if digits.isdecimal():
            ordinal = int(digits)
            if 1 <= ordinal <= store.version_count and version_iri(ordinal) == term:
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
    """Solutions of `GRAPH ?vng { BGP }` and its link patterns, condensed.

    Each (binding, graph id, bits) row stands for one solution per set bit
    m: the binding, plus `vng_var` bound to the versioned graph (graph id,
    m) and every name in `version_vars` bound to version m.
    """

    store: Store
    rows: list
    vng_var: str
    version_vars: tuple = ()

    @property
    def per_bit(self) -> set[str]:
        """The variables whose value changes with the bit position."""
        return {self.vng_var, *self.version_vars}

    def expand(self) -> list[Solution]:
        vng_iri_for = self.store.vng_iri_for
        versions = _version_terms(self.store)
        out = []
        for binding, graph_id, bits in self.rows:
            for ordinal in bitmap_ordinals(bits):
                solution = dict(binding)
                solution[self.vng_var] = vng_iri_for(graph_id, ordinal)
                for name in self.version_vars:
                    solution[name] = versions[ordinal - 1]
                out.append(solution)
        return out

    def values(self, members, name: str) -> Counter:
        """Multiplicity of each value `name` takes over the solutions that
        `members` (a subset of the rows) stand for."""
        values: Counter = Counter()
        if name == self.vng_var:
            vng_iri_for = self.store.vng_iri_for
            for _binding, graph_id, bits in members:
                for ordinal in bitmap_ordinals(bits):
                    values[vng_iri_for(graph_id, ordinal)] += 1
        elif name in self.version_vars:
            versions = _version_terms(self.store)
            for _binding, _graph_id, bits in members:
                for ordinal in bitmap_ordinals(bits):
                    values[versions[ordinal - 1]] += 1
        else:
            for binding, _graph_id, bits in members:
                term = binding.get(name)
                if term is not None:
                    values[term] += bits.bit_count()
        return values


def eval_versioned(store: Store, graph: GraphPat, links) -> VersionedRows:
    """`graph` (GRAPH ?vng { BGP }) joined with the link patterns `links`.

    A link to a constant filters rows by graph id or ANDs in that version's
    bit; a link to a new variable binds it once per row (the graph) or makes
    it per-bit (the version); a link to a variable already bound filters.
    """
    vng_var = graph.target.name
    rows = eval_bgp_in_graph_var(store, graph.inner.patterns, vng_var)
    bound = visible_vars(graph.inner)
    if vng_var in bound:
        rows = [(b, g, bits & _vng_bit(store, b[vng_var], g)) for b, g, bits in rows]
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
            elif name in bound:
                rows = [row for row in rows if row[0][name] == decode(row[1])]
            else:
                rows = [({**b, name: decode(g)}, g, bits) for b, g, bits in rows]
                bound.add(name)
        elif name is None:
            mask = _version_bit(store, obj)
            rows = [(b, g, bits & mask) for b, g, bits in rows]
        elif name in bound:
            rows = [(b, g, bits & _version_bit(store, b[name])) for b, g, bits in rows]
        elif name not in version_vars:
            version_vars += (name,)
    rows = [row for row in rows if row[2]]
    return VersionedRows(store, rows, vng_var, version_vars)


# ------------------------------------------------------ pattern evaluation


def _extend(binding: Solution, name: str, term: Term):
    existing = binding.get(name)
    if existing is None:
        out = dict(binding)
        out[name] = term
        return out
    return binding if existing == term else None


class _CondensedEvaluator:
    """Evaluates normalized patterns against a store.

    Context is either None (the default graph, i.e. metadata) or a
    (graph id, ordinal) pair naming one versioned graph.
    """

    def __init__(self, store: Store):
        self.store = store

    def versioned(self, node, ctx):
        """`node` as VersionedRows when it is GRAPH ?vng { BGP }, alone or
        joined in the default graph with link patterns on ?vng; else None."""
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
        if not isinstance(graph.target, Var) or not isinstance(graph.inner, Bgp):
            return None
        if not all(_is_link(pattern, graph.target.name) for pattern in links):
            return None
        return eval_versioned(self.store, graph, links)

    def eval_rows(self, node, ctx):
        """VersionedRows where `node` stays condensed, else solutions."""
        versioned = self.versioned(node, ctx)
        return versioned if versioned is not None else self.eval(node, ctx)

    def eval(self, node, ctx) -> list[Solution]:
        versioned = self.versioned(node, ctx)
        if versioned is not None:
            return versioned.expand()
        if isinstance(node, Bgp):
            return self.eval_bgp(node, ctx)
        if isinstance(node, Join):
            ordered = [p for p in node.parts if isinstance(p, GraphPat)] + [
                p for p in node.parts if not isinstance(p, GraphPat)
            ]
            rows = self.eval(ordered[0], ctx)
            for part in ordered[1:]:
                if not rows:
                    return []
                rows = eval_join(rows, self.eval(part, ctx))
            return rows
        if isinstance(node, Minus):
            left = self.eval(node.left, ctx)
            if not left:
                return []
            return eval_minus(left, self.eval(node.right, ctx))
        if isinstance(node, GraphPat):
            return self.eval_graph(node, ctx)
        if isinstance(node, SubSelect):
            _, rows = eval_select(self.store, node.query, ctx)
            return rows
        raise TypeError(f"not a pattern node: {node!r}")

    def eval_bgp(self, node: Bgp, ctx) -> list[Solution]:
        if ctx is None:
            return _match_triples(self.store.metadata_graph(), node.patterns)
        graph_id, ordinal = ctx
        rows = _match_bgp_in_graph(self.store, node.patterns, graph_id, bit_for(ordinal))
        return [binding for binding, _bits in rows]

    def eval_graph(self, node: GraphPat, ctx) -> list[Solution]:
        store = self.store
        if isinstance(node.target, Var):
            name = node.target.name
            out = []
            for rec in store.vng_records:
                graph_id = store.dictionary.lookup(rec.graph)
                for binding in self.eval(node.inner, (graph_id, rec.ordinal)):
                    extended = _extend(binding, name, rec.vng_iri)
                    if extended is not None:
                        out.append(extended)
            return out
        try:
            pair = store.resolve_vng(node.target)
        except UnknownVngError:
            logger.warning(
                "GRAPH names %s, which is not a versioned graph; empty match",
                serialize_term(node.target),
            )
            return []
        return self.eval(node.inner, pair)


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


def _group_and_fold(rows, binding_of, group_by, aggregates, fold) -> list[Solution]:
    """Partition `rows` by the GROUP BY key of `binding_of(row)` (first-
    occurrence order); each group gives one result row, its key plus every
    aggregate's `fold(spec, members, group_desc)`. With no GROUP BY the
    whole input forms a single group, even when empty."""
    group_vars = [v.name for v in group_by] if group_by else []
    groups: dict[tuple, list] = {}
    for row in rows:
        binding = binding_of(row)
        groups.setdefault(tuple(binding.get(name) for name in group_vars), []).append(row)
    if not group_vars and not groups:
        groups[()] = []
    out = []
    for key, members in groups.items():
        result: Solution = {
            name: term for name, term in zip(group_vars, key) if term is not None
        }
        desc = (
            "(" + ", ".join(serialize_term(t) if t else "UNBOUND" for t in key) + ")"
            if group_vars
            else "(all rows)"
        )
        for spec, alias in aggregates:
            term = fold(spec, members, desc)
            if term is not None:
                result[alias] = term
        out.append(result)
    return out


def eval_group_aggregate(rows: list[Solution], group_by, aggregates) -> list[Solution]:
    """GROUP BY over solutions: each aggregate folds over its bound
    argument values."""

    def fold(spec, members, desc):
        name = spec.arg.name
        return _apply_aggregate(spec, Counter(row[name] for row in members if name in row), desc)

    return _group_and_fold(rows, lambda row: row, group_by, aggregates, fold)


def fold_group_aggregate(vrows: VersionedRows, group_by, aggregates):
    """GROUP BY over versioned rows without expanding them.

    Keys bound once per row group whole rows, each weighing popcount(bits)
    solutions. Keys on ?vng or a version variable group per bit position:
    COUNT sums bit columns, MAX and MIN hand each position to the best value
    whose bits cover it. Returns None when an aggregate has no folded form
    for the keys; the caller then expands the rows.
    """
    per_bit = vrows.per_bit
    group_vars = [v.name for v in group_by] if group_by else []
    if per_bit.isdisjoint(group_vars):
        return _fold_by_row(vrows, group_by, aggregates)
    for spec, _alias in aggregates:
        if spec.func == "COUNT" and not spec.distinct:
            continue
        if spec.func in ("MAX", "MIN") and spec.arg.name not in per_bit:
            continue
        return None
    return _fold_by_bit(vrows, group_vars, aggregates)


def _fold_by_row(vrows: VersionedRows, group_by, aggregates) -> list[Solution]:
    def fold(spec, members, desc):
        if spec.distinct and spec.func == "COUNT" and spec.arg.name in vrows.version_vars:
            union = 0
            for _binding, _graph_id, bits in members:
                union |= bits
            return _count_literal(union.bit_count())
        return _apply_aggregate(spec, vrows.values(members, spec.arg.name), desc)

    return _group_and_fold(vrows.rows, lambda row: row[0], group_by, aggregates, fold)


def _fold_by_bit(vrows: VersionedRows, group_vars, aggregates) -> list[Solution]:
    per_bit = vrows.per_bit
    row_keys = [name for name in group_vars if name not in per_bit]
    by_graph = vrows.vng_var in group_vars
    if row_keys or by_graph:
        groups: dict[tuple, list] = {}
        for row in vrows.rows:
            key = (tuple(row[0].get(name) for name in row_keys), row[1] if by_graph else None)
            groups.setdefault(key, []).append(row)
    else:
        groups = {((), None): vrows.rows}
    store = vrows.store
    versions = _version_terms(store)
    out = []
    for (key, graph_id), members in groups.items():
        present = 0
        for _binding, _graph_id, bits in members:
            present |= bits
        folded = [_fold_positions(spec, members, per_bit, store.version_count) for spec, _ in aggregates]
        for ordinal in bitmap_ordinals(present):
            result: Solution = {
                name: term for name, term in zip(row_keys, key) if term is not None
            }
            for name in group_vars:
                if name == vrows.vng_var:
                    result[name] = store.vng_iri_for(graph_id, ordinal)
                elif name in per_bit:
                    result[name] = versions[ordinal - 1]
            for (_spec, alias), by_position in zip(aggregates, folded):
                term = by_position[ordinal - 1]
                if term is not None:
                    result[alias] = term
            out.append(result)
    return out


def _fold_positions(spec: SelectAgg, members, per_bit, width: int) -> list:
    """COUNT, MAX or MIN of `spec` at every bit position over `members`."""
    name = spec.arg.name
    if spec.func == "COUNT":
        counts = [0] * width
        always_bound = name in per_bit
        for binding, _graph_id, bits in members:
            if always_bound or name in binding:
                while bits:
                    low = bits & -bits
                    counts[low.bit_length() - 1] += 1
                    bits ^= low
        return [_count_literal(n) for n in counts]
    coverage: dict[Term, int] = {}
    for binding, _graph_id, bits in members:
        term = binding.get(name)
        if term is not None:
            coverage[term] = coverage.get(term, 0) | bits
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


# ------------------------------------------------------------ select logic


def _aggregates_with_aliases(query: Query):
    pairs = []
    columns = column_names(query)
    for item, column in zip(query.projection, columns):
        if isinstance(item, SelectAgg):
            pairs.append((item, column))
    return pairs


def eval_select(store: Store, query: Query, ctx=None):
    """Evaluate one (sub-)query body: pattern, grouping, projection.

    Returns (columns, rows); rows only carry the projected names.
    """
    evaluator = _CondensedEvaluator(store)
    rows = evaluator.eval_rows(query.pattern, ctx)
    return _project(query, rows)


def _project(query: Query, rows):
    columns = column_names(query)
    aggregates = _aggregates_with_aliases(query)
    grouped = bool(aggregates or query.group_by)
    if isinstance(rows, VersionedRows):
        folded = fold_group_aggregate(rows, query.group_by, aggregates) if grouped else None
        if folded is None:
            rows = rows.expand()
        else:
            rows, grouped = folded, False
    if grouped:
        rows = eval_group_aggregate(rows, query.group_by, aggregates)
    projected = []
    for row in rows:
        out = {}
        for name in columns:
            term = row.get(name)
            if term is not None:
                out[name] = term
        projected.append(out)
    return columns, projected


# ------------------------------------------------------------ result table


@dataclass
class ResultTable:
    columns: tuple
    rows: list  # tuples of Term-or-None, canonically sorted

    def to_tsv(self) -> str:
        lines = ["\t".join(self.columns)]
        for row in self.rows:
            lines.append("\t".join(serialize_term(t) if t is not None else "" for t in row))
        return "".join(line + "\n" for line in lines)

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([serialize_term(t) if t is not None else "" for t in row])
        return buffer.getvalue()


def _table(columns, projected_rows) -> ResultTable:
    tuples = [tuple(row.get(name) for name in columns) for row in projected_rows]
    tuples.sort(key=lambda row: tuple(serialize_term(t) if t is not None else "" for t in row))
    return ResultTable(tuple(columns), tuples)


def execute_plan(store: Store, plan: AlgebraPlan):
    """(columns, projected solution rows)."""
    return eval_select(store, plan.query, None)


def execute_query(store: Store, text: str) -> ResultTable:
    """Parse, validate, plan, evaluate, project; rows are sorted by the
    serialized form of their terms so output is deterministic."""
    plan = validate_and_name(parse_query(text))
    columns, rows = execute_plan(store, plan)
    return _table(columns, rows)


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
            triples = self.dataset.named.get(node.target, [])
            return self.eval(node.inner, triples)
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
        projected = []
        for row in rows:
            out = {}
            for name in columns:
                term = row.get(name)
                if term is not None:
                    out[name] = term
            projected.append(out)
        return columns, projected


def eval_oracle(flat_quads, plan: AlgebraPlan):
    """Ground-truth evaluation of `plan` over an exported flat quad list.

    Returns (columns, projected rows), the same shape `execute_plan` yields.
    """
    dataset = _OracleDataset(flat_quads)
    evaluator = _OracleEvaluator(dataset)
    return evaluator._select(plan.query, dataset.default)
