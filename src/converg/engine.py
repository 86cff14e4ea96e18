"""Query evaluation over the condensed store.

Every pattern evaluates to `Rows`: (binding, graph id, bits) rows, plain
or versioned (see `Rows`). A binding holds each term's dictionary id, or
the term itself where the dictionary lacks it: joins, MINUS and group keys
compare ints, and only aggregates and the output stage decode. Inside
GRAPH a basic graph pattern is matched once per named graph while the
version dimension stays a bitmap. In the default graph a link pattern
(`?vng is-in-version X`, `?vng is-version-of X`) is read off the minted
versions, one row per graph id, and meets GRAPH in an ordinary join. Join
and MINUS key the right rows on the variables a left row shares with them;
a value on one side of a variable per-bit on the other masks the row's
bits, so metadata joins and MINUS on ?version stay condensed. Only
`Rows.flat` expands, where two bit dimensions meet. GROUP BY folds over
rows, by whole row or per bit (COUNT per version is bit-sliced addition of
bitmaps). The output stage writes the sorted TSV text straight from the
rows, a column at a time: each distinct value of a column is decoded and
serialized once, and `map`, `zip` and `str.join` build every row's line.
The rows sort once, on their cells other than the first ?vng or version
cell, and each value of that cell writes one block, its lines picked from
the rows' bitmaps by `compress`; only a block with a later ?vng cell,
which varies with each row's graph, sorts its own lines.
`ResultTable.lines` and `.rows` are split and decoded from the text on
first read.

`eval_oracle` is the deliberately naive reference: it evaluates the same
query over the flat quad list with nested loops, no dictionary, no indexes,
and no bitmaps. The two evaluators must agree on every supported query,
which is what the differential tests exercise.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, reduce
from itertools import compress, groupby, repeat
from operator import itemgetter, or_

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
from .store import Store, bit_for, bitmap_ordinals, render_bitmap

Solution = dict  # variable name -> its value (see `_value`); the oracle's hold Terms

_XSD_INTEGER = XSD + "integer"
_XSD_DECIMAL = XSD + "decimal"


# -------------------------------------------------------------------- rows


def _value(store: Store, term: Term):
    """The value bound for `term`: its dictionary id, or itself where the dictionary lacks it."""
    tid = store.dictionary.lookup(term)
    return term if tid is None else tid


def _term(store: Store, value) -> Term:
    """The term a binding's `value` stands for."""
    return store.dictionary.terms[value] if value.__class__ is int else value


def _version_bit(store: Store, term: Term) -> int:
    """The bit of the existing version `term` names; 0 for any other term."""
    if term.is_iri and term.lexical.startswith(VERSION_NS):
        digits = term.lexical[len(VERSION_NS):]
        if digits.isdecimal():
            ordinal = int(digits)
            if 1 <= ordinal <= store.version_count and store.version_iris()[ordinal - 1] == term:
                return bit_for(ordinal)
    return 0


class Rows:
    """A pattern's solutions, condensed into (binding, graph id, bits) rows.

    A plain row (no `vng_var`, graph id None) stands for its binding once
    in each version of its context whose bit it carries; in the default
    graph, which has no versions, every plain row carries -1. A versioned
    row stands for one solution per set bit m, each holding throughout its
    context: the binding, plus `vng_var` bound to the versioned graph
    (graph id, m) and each of `version_vars` bound to version m. Bits lie
    within the versions that minted a vng for the graph id. A binding maps
    each other variable to its value, a dictionary id or a term the
    dictionary lacks (`_value`); it never holds a per-bit variable.
    """

    __slots__ = ("store", "rows", "vng_var", "version_vars")

    def __init__(self, store: Store, rows: list, vng_var: str | None = None, version_vars: tuple = ()):
        self.store = store
        self.rows = rows
        self.vng_var = vng_var
        self.version_vars = version_vars

    @property
    def per_bit(self) -> set[str]:
        """The variables whose value changes with the bit position."""
        return {self.vng_var, *self.version_vars} - {None}

    def value(self, binding: Solution, graph_id, ordinal: int, name: str):
        """What `name` is bound to at bit `ordinal` of a row; None if unbound."""
        if name == self.vng_var:
            return _value(self.store, self.store.vng_iri_for(graph_id, ordinal))
        if name in self.version_vars:
            return _value(self.store, self.store.version_iris()[ordinal - 1])
        return binding.get(name)

    def pin(self, name: str, value) -> tuple:
        """(graph id, bits) at which the per-bit `name` takes `value`: a
        version IRI is its bit in any graph (graph id None), a vng IRI its
        bit in its own graph, any other term no bit."""
        term = _term(self.store, value)
        if name != self.vng_var:
            return None, _version_bit(self.store, term)
        try:
            graph_id, ordinal = self.store.resolve_vng(term)
        except UnknownVngError:
            return None, 0
        return graph_id, bit_for(ordinal)

    def flat(self, scope: int) -> Rows:
        """Plain rows, one per solution, each holding throughout `scope`:
        the one expansion, for where a second bit dimension meets these."""
        per_bit = self.per_bit
        rows = []
        for binding, graph_id, bits in self.rows:
            for ordinal in bitmap_ordinals(bits):
                solution = dict(binding)
                for name in per_bit:
                    solution[name] = self.value(binding, graph_id, ordinal, name)
                rows.append((solution, None, scope))
        return Rows(self.store, rows)


def _add_layer(layers: list, mask: int) -> None:
    """Count `mask` into `layers`, where layer i holds the bits that more
    than i of the masks counted so far hold."""
    for i, layer in enumerate(layers):
        layers[i] = layer | mask
        mask &= layer
        if not mask:
            return
    layers.append(mask)


def _fold(left: Rows, right: Rows, domain: frozenset, rows, key_vars):
    """The right `rows` of one `domain`, indexed on their values of
    `key_vars`, and on their graph id where it must equal the left row's.
    A right value of a variable per-bit on the left is a mask, and the
    rows then fold per binding into layers, one per repeat, so that
    multiplicity holds. Returns (shares a per-bit variable, by graph,
    index: key -> [(binding, layers)])."""
    pins = list(domain.intersection(left.per_bit))
    by_graph = right.vng_var is not None or left.vng_var in pins
    index: dict = {}
    folds: dict = {}  # (key, binding items) -> its layers, where rows fold
    for binding, graph_id, bits in rows:
        rest = binding
        if pins:
            rest = {name: value for name, value in binding.items() if name not in pins}
            for name in pins:
                pinned_graph, pinned_bits = left.pin(name, binding[name])
                bits &= pinned_bits
                graph_id = graph_id if pinned_graph is None else pinned_graph
            if not bits:
                continue
        key = tuple(binding[v] for v in key_vars)
        key = (graph_id, *key) if by_graph else key
        slot = (key, *rest.items()) if pins else None  # unfolded without pins
        if slot in folds:
            _add_layer(folds[slot], bits)
            continue
        layers = [bits]
        if pins:
            folds[slot] = layers
        index.setdefault(key, []).append((rest, layers))
    return bool(pins) or right.vng_var is not None, by_graph, index


def _meet(left: Rows, right: Rows):
    """Each left row with the right rows it is compatible with: yields
    (row, rest, mask, matches), `matches` holding per right domain (shared,
    [(binding, layers)]) for the folded right rows that agree with the row
    on every variable both bind; `shared` is whether they share a variable.
    A left value of a variable per-bit on the right is `mask`, and `rest`
    is the binding without it. `right` is plain or has the left's graph
    variable."""
    domains: dict[frozenset, list] = {}
    for row in right.rows:
        domains.setdefault(frozenset(row[0]), []).append(row)
    right_per_bit = right.per_bit
    indexes: dict[tuple, tuple] = {}
    for row in left.rows:
        binding, graph_id, _bits = row
        rest, mask = binding, -1
        pinned = [name for name in right_per_bit if name in binding] if right_per_bit else ()
        if pinned:
            rest = {name: value for name, value in binding.items() if name not in right_per_bit}
            for name in pinned:
                pinned_graph, pinned_bits = right.pin(name, binding[name])
                mask &= pinned_bits if pinned_graph in (None, graph_id) else 0
        matches = []
        for domain, rows in domains.items():
            key_vars = tuple(sorted(domain.intersection(binding)))
            index = indexes.get((domain, key_vars))
            if index is None:
                index = indexes[domain, key_vars] = _fold(left, right, domain, rows, key_vars)
            pins_shared, by_graph, folded = index
            key = tuple(binding[v] for v in key_vars)
            key = (graph_id, *key) if by_graph else key
            matches.append((pins_shared or bool(key_vars or pinned), folded.get(key, ())))
        yield row, rest, mask, matches


# ------------------------------------------------- condensed BGP matching


def _match_bgp_in_graph(store: Store, patterns, graph_id: int, mask: int) -> list:
    """Join the patterns inside one named graph, ANDing version bitmaps.

    Returns plain (binding, None, bits) rows with bits != 0; `mask` holds
    the versions in scope. Every row binds the variables of the patterns
    before, so a pattern's constant ids and the key positions it binds are
    resolved once. `lookup_pattern` yields (key, bits) pairs, and a bound
    variable holds its id in the (graph, s, p, o) key, which a later
    pattern passes back as it is: no term is looked up or decoded per row.
    """
    rows = [({}, None, mask)]
    bound: set[str] = set()
    for pattern in patterns:
        ids, joins, binds, repeats = [graph_id, None, None, None], [], {}, []
        for at, atom in enumerate((pattern.subject, pattern.predicate, pattern.object), 1):
            if not isinstance(atom, Var):
                ids[at] = store.dictionary.lookup(atom)
                if ids[at] is None:
                    return []  # a constant absent from the dictionary matches nothing
            elif atom.name in bound:  # its id is read off each row
                joins.append((at, atom.name))
            elif atom.name in binds:  # bound twice here: both positions hold one id
                repeats.append((at, binds[atom.name]))
            else:  # bound here, from its first position
                binds[atom.name] = at
        next_rows = []
        for binding, _graph_id, bits in rows:
            for at, name in joins:
                ids[at] = binding[name]
            for key, entry_bits in store.lookup_pattern(*ids):
                joined = bits & entry_bits
                if not joined:
                    continue
                if repeats and any(key[at] != key[first] for at, first in repeats):
                    continue
                extended = binding
                if binds:
                    extended = binding.copy()
                    for name, at in binds.items():
                        extended[name] = key[at]
                next_rows.append((extended, None, joined))
        rows = next_rows
        if not rows:
            break
        bound.update(binds)
    return rows


# ------------------------------------------------------ pattern evaluation


class _CondensedEvaluator:
    """Evaluates parsed patterns against a store, each to `Rows`, under a
    context: None for the default graph (metadata), or (graph id, bits of
    the versions in scope) inside GRAPH. Rows never carry 0, and versioned
    rows occur only in the default graph: inside GRAPH they are flat."""

    __slots__ = ("store", "graph_rows")

    def __init__(self, store: Store):
        self.store = store
        # id() of each GRAPH ?vng node -> its rows, which no outer context
        # changes: a nested block runs once per query, not once per outer graph.
        self.graph_rows: dict[int, Rows] = {}

    def eval(self, node, ctx) -> Rows:
        if isinstance(node, Bgp):
            if ctx is None:
                return self.eval_metadata(node.patterns)
            return Rows(self.store, _match_bgp_in_graph(self.store, node.patterns, *ctx))
        if isinstance(node, Join):
            rows = self.eval(node.parts[0], ctx)
            names = visible_vars(node.parts[0])
            for part in node.parts[1:]:  # every part, so its errors are raised too
                rows = self.join(rows, self.eval(part, ctx), names)
                names |= visible_vars(part)
            return rows
        if isinstance(node, Minus):
            left = self.eval(node.left, ctx)
            return self.minus(left, self.eval(node.right, ctx), visible_vars(node.left))
        if isinstance(node, GraphPat):
            return self.eval_graph(node, ctx)
        # a SubSelect: the parser builds no other pattern node
        columns = column_names(node.query)
        rows = eval_select(self.store, node.query, ctx)
        if rows.vng_var not in (None, *columns):  # its graph variable projected away
            rows = rows.flat(-1)
        projected = [({n: b[n] for n in columns if n in b}, g, bits) for b, g, bits in rows.rows]
        version_vars = tuple(name for name in rows.version_vars if name in columns)
        return Rows(self.store, projected, rows.vng_var, version_vars)

    def eval_metadata(self, patterns) -> Rows:
        """A default-graph BGP: its link patterns, each a leaf read off the
        minted versions, joined with its other patterns, matched together
        against the metadata triples."""
        links = [  # ?x is-in-version X or ?x is-version-of X, X not ?x
            p
            for p in patterns
            if isinstance(p.subject, Var)
            and p.predicate in (IS_IN_VERSION, IS_VERSION_OF)
            and p.object != p.subject
        ]
        matched = _match_triples(self.store.metadata_graph(), [p for p in patterns if p not in links])
        matched = [{name: _value(self.store, term) for name, term in binding.items()} for binding in matched]
        rows = Rows(self.store, [(binding, None, -1) for binding in matched])
        names = set().union(*matched)
        for pattern in links:
            rows = self.join(rows, self.link(pattern), names)
            names |= visible_vars(Bgp((pattern,)))
        return rows

    def link(self, pattern) -> Rows:
        """A link pattern: one row per graph id, over the versions that
        minted a vng for it. `is-in-version` to a variable makes it per-bit;
        to a constant it ANDs in that version's bit. `is-version-of` binds
        or filters the graph."""
        store, obj = self.store, pattern.object
        name = obj.name if isinstance(obj, Var) else None
        minted = store.minted_versions()
        if pattern.predicate == IS_IN_VERSION:
            mask = -1 if name else _version_bit(store, obj)
            rows = [({}, g, bits & mask) for g, bits in minted.items() if bits & mask]
            return Rows(store, rows, pattern.subject.name, (name,) if name else ())
        graph = None if name else _value(store, obj)
        rows = [({name: g} if name else {}, g, bits) for g, bits in minted.items() if name or g == graph]
        return Rows(store, rows, pattern.subject.name)

    def join(self, left: Rows, right: Rows, left_names=None) -> Rows:
        """Natural join: compatible rows merge and their bits AND; a pair
        that shares no version is dropped. Multiplicity is the product of
        multiplicities. Two graph variables are two bit dimensions: the
        right side is then flat. `left_names`, where given, holds every
        variable the left rows can bind."""
        if left.rows == [({}, None, -1)]:  # the unit, as of a BGP of link patterns alone
            return right
        if left.vng_var is None and right.vng_var is not None:
            left, right, left_names = right, left, None
        if right.vng_var not in (None, left.vng_var):
            right = right.flat(-1)
        version_vars = tuple(dict.fromkeys(left.version_vars + right.version_vars))
        by_graph = {g: (b, bits) for b, g, bits in right.rows} if right.vng_var is not None else {}
        right_vars = set().union(*(binding for binding, _g, _bits in right.rows))
        if left_names is not None and right.rows and len(by_graph) == len(right.rows) and not (
            right_vars & left.per_bit or (right_vars | set(right.version_vars)) & left_names
        ):
            # one row per graph id of the left's graph variable, sharing only per-bit
            # variables: a lookup per left row; none if it binds nothing and holds in
            # every minted version, within which every left row lies
            minted = self.store.minted_versions()
            if not right_vars and {g: bits for g, (_b, bits) in by_graph.items()} == minted:
                return Rows(self.store, left.rows, left.vng_var, version_vars)
            rows = []
            for binding, graph_id, bits in left.rows:
                r_binding, r_bits = by_graph.get(graph_id, (None, 0))
                if bits & r_bits:
                    rows.append(({**binding, **r_binding}, graph_id, bits & r_bits))
            return Rows(self.store, rows, left.vng_var, version_vars)
        rows = []
        for (_binding, graph_id, bits), rest, mask, matches in _meet(left, right):
            for _shared, entries in matches:
                for r_binding, layers in entries:
                    merged = {**rest, **r_binding} if r_binding else rest
                    for layer in layers:
                        joined = bits & layer & mask
                        if joined:
                            rows.append((merged, graph_id, joined))
        return Rows(self.store, rows, left.vng_var, version_vars)

    def minus(self, left: Rows, right: Rows, left_names: set) -> Rows:
        """Clear from each left row the bits of its solutions that are
        compatible with a right solution sharing a variable with them; a
        row left with no bits is dropped. A right side of another graph
        variable is flat if it shares a per-bit variable with `left_names`,
        every variable of the left, and otherwise counts only as its rows'
        bindings."""
        if right.vng_var not in (None, left.vng_var):
            if right.per_bit & left_names:
                right = right.flat(-1)
            else:
                right = Rows(self.store, [(binding, None, -1) for binding, _g, _bits in right.rows])
        rows = []
        for row, _rest, mask, matches in _meet(left, right):
            bits = row[2]
            for shared, entries in matches:
                for _r_binding, layers in entries if shared else ():
                    bits &= ~(layers[0] & mask)
            if bits:
                rows.append(row if bits == row[2] else (row[0], row[1], bits))
        return Rows(self.store, rows, left.vng_var, left.version_vars)

    def eval_graph(self, node: GraphPat, ctx) -> Rows:
        """GRAPH ?vng { inner }: the inner pattern runs once per graph id,
        over the versions that minted a vng for it; an inner ?vng must name
        the row's vng. GRAPH <vng> { inner }: the inner rows, which hold
        throughout `ctx` whichever version of the outer scope is asked."""
        store = self.store
        scope = -1 if ctx is None else ctx[1]  # the bits of rows that hold throughout ctx
        if isinstance(node.target, Var):
            out = self.graph_rows.get(id(node))
            if out is None:
                out = self.graph_rows[id(node)] = Rows(store, [], node.target.name)
                vng_var, append = out.vng_var, out.rows.append
                for graph_id, minted in store.minted_versions().items():
                    for binding, _g, bits in self.eval(node.inner, (graph_id, minted)).rows:
                        if vng_var in binding:
                            binding = dict(binding)
                            pinned_graph, pinned_bits = out.pin(vng_var, binding.pop(vng_var))
                            bits &= pinned_bits if pinned_graph == graph_id else 0
                        if bits:
                            append((binding, graph_id, bits))
            return out if ctx is None else out.flat(scope)
        try:
            graph_id, ordinal = store.resolve_vng(node.target)
        except UnknownVngError:
            import logging  # here only: a query that warns nothing skips importing it
            logging.getLogger(__name__).warning(
                "GRAPH names %s, which is not a versioned graph; empty match",
                serialize_term(node.target),
            )
            return Rows(store, [])
        inner = self.eval(node.inner, (graph_id, bit_for(ordinal)))
        return Rows(store, [(binding, None, scope) for binding, _g, _bits in inner.rows])


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


def _sum_literal(store: Store, values: Counter, group_desc: str) -> Term:
    from decimal import Decimal  # only a SUM needs it, so only a SUM loads it

    total = Decimal(0)
    integral = True
    for value, multiplicity in values.items():
        term = _term(store, value)
        number = numeric_value(term)
        if number is None:
            raise EvalError(
                f"SUM over non-numeric term {serialize_term(term)} in group {group_desc}"
            )
        total += number * multiplicity
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


def _apply_aggregate(store: Store, spec: SelectAgg, values: Counter, group_desc: str):
    """Fold one aggregate over a group's argument values, given as each
    distinct bound value with its multiplicity."""
    if spec.distinct:
        values = Counter(dict.fromkeys(values, 1))
    if spec.func == "COUNT":
        return _value(store, _count_literal(sum(values.values())))
    if not values:
        return None  # MAX/MIN/SUM over nothing is unbound
    if spec.func == "SUM":  # the parser admits no aggregate but these four
        return _value(store, _sum_literal(store, values, group_desc))
    pick = max if spec.func == "MAX" else min
    return pick(values, key=lambda value: term_order_key(_term(store, value)))


def _describe(store: Store, group_vars, key: Solution) -> str:
    """A group as an aggregate error names it: its key in GROUP BY order."""
    if not group_vars:
        return "(all rows)"
    return "(" + ", ".join(serialize_term(_term(store, key[n])) if n in key else "UNBOUND" for n in group_vars) + ")"


def _group(vrows: Rows, group_by, aggregates, scope: int = 0) -> list:
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
        base = {name: value for name, value in zip(row_keys, key) if value is not None}
        if not (scope or bit_keys):
            desc = _describe(vrows.store, group_vars, base)
            for spec, alias in aggregates:
                value = _fold_rows(vrows, spec, members, desc)
                if value is not None:
                    base[alias] = value
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
                value = by_position[ordinal - 1]
                if value is not None:
                    result[alias] = value
            out.append((result, ordinal))
    return out


def _fold_rows(vrows: Rows, spec: SelectAgg, members, desc: str):
    """`spec` over a whole-row group; COUNT(DISTINCT ?version) ORs the bits."""
    name = spec.arg.name
    if spec.distinct and spec.func == "COUNT" and name in vrows.version_vars:
        union = 0
        for _binding, _graph_id, bits in members:
            union |= bits
        return _value(vrows.store, _count_literal(union.bit_count()))
    values: Counter = Counter()
    if name in vrows.per_bit:
        for binding, graph_id, bits in members:
            for ordinal in bitmap_ordinals(bits):
                values[vrows.value(binding, graph_id, ordinal, name)] += 1
    else:
        for binding, _graph_id, bits in members:
            value = binding.get(name)
            if value is not None:
                values[value] += bits.bit_count()
    return _apply_aggregate(vrows.store, spec, values, desc)


def _fold_positions(vrows: Rows, spec: SelectAgg, members, keys, group_vars) -> list:
    """`spec` at each position of `keys` (position -> group key), indexed by
    ordinal - 1. COUNT sums bit columns; COUNT(DISTINCT), MAX and MIN of a
    per-row variable read the bits each value covers; anything else folds
    the values each position counts."""
    name = spec.arg.name
    store, width = vrows.store, vrows.store.version_count
    per_row = name not in vrows.per_bit
    if spec.func == "COUNT" and not spec.distinct:
        bound = [bits for binding, _graph_id, bits in members if not per_row or name in binding]
        return [_value(store, count) for count in _bit_counts(bound, width)]
    if per_row and spec.func != "SUM":
        coverage: dict = {}  # value -> the bits it is bound in
        for binding, _graph_id, bits in members:
            value = binding.get(name)
            if value is not None:
                coverage[value] = coverage.get(value, 0) | bits
        if spec.func == "COUNT":
            return [_value(store, count) for count in _bit_counts(coverage.values(), width)]
        best: list = [None] * width
        unclaimed = 0
        for bits in coverage.values():
            unclaimed |= bits
        ranked = sorted(coverage, key=lambda value: term_order_key(_term(store, value)))  # no two rank equal
        for value in reversed(ranked) if spec.func == "MAX" else ranked:
            claimed = coverage[value] & unclaimed
            for ordinal in bitmap_ordinals(claimed):
                best[ordinal - 1] = value
            unclaimed ^= claimed
            if not unclaimed:
                break
        return best
    counts = {ordinal: Counter() for ordinal in keys}  # the members' bits are among the keys
    for binding, graph_id, bits in members:
        for ordinal in bitmap_ordinals(bits):
            value = vrows.value(binding, graph_id, ordinal, name)
            if value is not None:
                counts[ordinal][value] += 1
    out: list = [None] * width
    for ordinal, key in keys.items():
        out[ordinal - 1] = _apply_aggregate(store, spec, counts[ordinal], _describe(store, group_vars, key))
    return out


def _bit_counts(bitmaps, width: int) -> list:
    """COUNT at every bit position: how many of `bitmaps` hold it. Counts
    add bit-sliced: plane i holds bit i of every position's count, and each
    bitmap ripples in as the carry, a few big-int operations however many
    bits it sets. Each count is read off the planes at the end."""
    planes = [0] * max(1, len(bitmaps).bit_length())  # no count exceeds len(bitmaps)
    for carry in bitmaps:
        i = 0
        while carry:
            plane = planes[i]
            planes[i] = plane ^ carry
            carry &= plane
            i += 1
    columns = zip(*(render_bitmap(plane, width) for plane in reversed(planes)))
    return [_count_literal(int("".join(digits), 2)) for digits in columns]


# ------------------------------------------------------------ select logic


def _aggregates_with_aliases(query: Query):
    pairs = zip(query.projection, column_names(query))
    return [(item, column) for item, column in pairs if isinstance(item, SelectAgg)]


def eval_select(store: Store, query: Query, ctx=None) -> Rows:
    """Evaluate one (sub-)query body under `ctx`: its pattern's rows, grouped
    if the query groups or aggregates. The groups of versioned rows hold in
    every version of `ctx`; plain rows inside GRAPH group per version in
    scope, each group holding in its version only. Bindings keep every
    variable: the projection is the caller's, by the query's columns."""
    rows = _CondensedEvaluator(store).eval(query.pattern, ctx)
    aggregates = _aggregates_with_aliases(query)
    if not (aggregates or query.group_by):
        return rows
    scope = -1 if ctx is None else ctx[1]
    per_version = rows.vng_var is None and ctx is not None
    grouped = _group(rows, query.group_by, aggregates, scope if per_version else 0)
    rows = [(result, None, bit_for(ordinal) if per_version else scope) for result, ordinal in grouped]
    return Rows(store, rows)


# ------------------------------------------------------------ result table


class ResultTable:
    """A query's answer as TSV text: the header line, then one line per
    solution, sorted, each ended by a newline. `to_tsv` returns that text
    as built; `lines` is split from it and `rows` decoded from the lines,
    each on first read and then kept. A row's cells are looked up in
    `terms`: exact, since `serialize_term` is injective (the snapshot's
    DICT section relies on that too) and no cell text holds a tab or a
    newline."""

    __slots__ = ("columns", "text", "terms", "_lines", "_rows")

    def __init__(self, columns: tuple, text: str, terms: dict):
        self.columns = columns
        self.text = text  # the header, then each line's N-Triples cell texts ("" for unbound) joined by tabs
        self.terms = terms  # every cell text in `text` -> its Term, "" -> None
        self._lines = self._rows = None

    @property
    def lines(self) -> list:
        """The lines of `text` after the header."""
        if self._lines is None:
            self._lines = self.text.split("\n")[1:-1]
        return self._lines

    @property
    def rows(self) -> list:
        """Each line as a tuple of Term-or-None."""
        if self._rows is None:
            self._rows = [tuple(map(self.terms.__getitem__, line.split("\t"))) for line in self.lines]
        return self._rows

    def to_tsv(self) -> str:
        return self.text

    def to_csv(self) -> str:
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(line.split("\t") for line in self.lines)
        return buffer.getvalue()


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _bit_bytes(bitmaps: list, spec: str) -> bytes:
    """`bitmaps` formatted by `spec` ("0{width}b") and concatenated, as bytes
    of 0 and 1: bit i of the k-th bitmap is byte (k + 1) * width - 1 - i."""
    return "".join(map(format, bitmaps, repeat(spec))).encode().translate(_BIT_BYTES)


def _table(columns, rows: Rows) -> ResultTable:
    """The result table of `rows`, its text written in order by
    construction: Python work is per column, per distinct term and per cell
    value; work per condensed row happens only inside `map`, `zip`, `sort`
    and `str.join`, and work per solution only inside `compress` and
    `str.join`.

    Lines sort on the tuple of their cell texts, "" for unbound: the order
    of the lines as strings, since no cell text holds a tab or a newline and
    a text that is a proper prefix of another ("a" of "a"@en, _:a of _:ab,
    "" of any) is continued there by a character above both. So the rows
    sort once, on their line with the first per-bit cell (?vng or a
    version) left empty; the cells before it, the prefix, group them. In a
    group the first per-bit cell's values are walked in text order
    (<urn:converg:version:10> before <urn:converg:version:2>; a ?vng's are
    per graph and version), and each value writes one block: its head, the
    prefix and the value, joined to the tails of the rows that hold its bit,
    which `compress` picks in their sorted order from the rows' bitmaps as
    bytes. A later version cell is the block's version: tails hold it as
    "\\r" until the block is written. A later ?vng cell, held as "\\n",
    varies with the row's graph: only such a block sorts its lines. A row
    without per-bit cells is its line once per solution (per set bit; once
    for a plain row, whose -1 sets one bit by `bit_count`), after the sort.

    Each column is read from the bindings once; each distinct value in it,
    an id or a term the dictionary lacks, is decoded and serialized once,
    its text mapped back to the term for `rows`. Per-bit columns are
    `repeat`s of "" or their mark, bounded by the row count to end a zip.
    """
    store, width = rows.store, rows.store.version_count
    texts, terms_of = {None: ""}, {"": None}  # value (or vng or version IRI) -> text; text -> term

    def text_of(value) -> str:
        term = _term(store, value)
        texts[value] = text = serialize_term(term)
        terms_of[text] = term
        return text

    def vng_text(graph_id, ordinal: int) -> str:
        vng = store.vng_iri_for(graph_id, ordinal)
        return texts.get(vng) or text_of(vng)

    per_bit = [i for i, name in enumerate(columns) if name == rows.vng_var or name in rows.version_vars]
    cut = per_bit[0] if per_bit else None
    marks = {i: "\n" if columns[i] == rows.vng_var else "\r" for i in per_bit[1:]}
    vng_first = cut is not None and columns[cut] == rows.vng_var
    vng_later, version_later = "\n" in marks.values(), "\r" in marks.values()
    version_texts = list(map(text_of, store.version_iris())) if set(columns) & set(rows.version_vars) else []
    count = len(rows.rows)
    bindings = list(map(itemgetter(0), rows.rows))
    cells = []  # per column, its text in each row
    for i, name in enumerate(columns):
        if i == cut or i in marks:  # no binding holds a per-bit variable
            cells.append(repeat(marks.get(i, ""), count))
            continue
        values = list(map(dict.get, bindings, repeat(name)))
        for value in set(values) - texts.keys():
            text_of(value)
        cells.append(list(map(texts.__getitem__, values)))
    lines = map("\t".join, zip(*cells))
    graph_ids, bits = map(itemgetter(1), rows.rows), map(itemgetter(2), rows.rows)
    if cut is None:  # each row's line once per solution
        plain, keyed = sorted(map(str.__mul__, map("\n".__add__, lines), map(int.bit_count, bits))), []
    else:  # (prefix, line with the first per-bit cell empty, graph id, bits)
        prefixes = map("\t".join, zip(*cells[:cut])) if cut else repeat("", count)
        plain, keyed = [], list(zip(prefixes, lines, graph_ids, bits))
    out = ["\t".join(columns), *plain]  # each line starts with its newline
    keyed.sort(key=itemgetter(1))
    spec = f"0{width}b"
    by_text = sorted(zip(version_texts, range(width)))  # (version text, bit), in text order
    at = [width - 1 - i for _text, i in by_text]  # each one's byte in `_bit_bytes`
    for prefix, members in groupby(keyed, itemgetter(0)):
        lead = prefix + "\t" if cut else ""
        tail_at = itemgetter(slice(len(lead), None))
        parts: dict = {None: list(members)}  # graph id where ?vng comes first, else None -> rows
        if vng_first:
            for row in parts.pop(None):
                parts.setdefault(row[2], []).append(row)
        values = []  # ((value text, bit), (tails, graph ids, bitmaps as bytes))
        for part, run in parts.items():
            bitmaps = list(map(itemgetter(3), run))
            present = reduce(or_, bitmaps)
            if vng_first:
                pairs = [(vng_text(part, m), m - 1) for m in bitmap_ordinals(present)]
            else:
                pairs = compress(by_text, map(_bit_bytes([present], spec).__getitem__, at))
            rest = list(map(tail_at, map(itemgetter(1), run))), list(map(itemgetter(2), run)), _bit_bytes(bitmaps, spec)
            values += zip(pairs, repeat(rest))
        if vng_first:
            values.sort(key=itemgetter(0))
        for (text, i), (tails, graphs, column) in values:
            held = column[width - 1 - i :: width]
            chosen = list(compress(tails, held))
            if vng_later:  # each row's ?vng in this version
                graphs = list(compress(graphs, held))
                vng_at = {g: vng_text(g, i + 1) for g in set(graphs)}
                chosen = sorted(map(str.replace, chosen, repeat("\n"), map(vng_at.__getitem__, graphs)))
            head = "\n" + lead + text
            body = head.join(chosen)
            out += head, body.replace("\r", version_texts[i]) if version_later else body
    out.append("\n")
    return ResultTable(tuple(columns), "".join(out), terms_of)


def execute_plan(store: Store, query: Query) -> ResultTable:
    """The sorted result table of `query`. Ungrouped rows reach the output
    stage as the pattern left them, never expanded into solutions."""
    return _table(column_names(query), eval_select(store, query))


def execute_query(store: Store, text: str) -> ResultTable:
    """Parse, validate, plan, evaluate, project; rows are sorted by the
    serialized form of their terms so output is deterministic."""
    query = validate_and_name(parse_query(text))
    return execute_plan(store, query)


# ------------------------------------------------------------------ oracle


def compatible(a: Solution, b: Solution) -> bool:
    for name, value in a.items():
        other = b.get(name)
        if other is not None and other != value:
            return False
    return True


def _extend(binding: Solution, name: str, term: Term):
    existing = binding.get(name)
    if existing is None:
        out = dict(binding)
        out[name] = term
        return out
    return binding if existing == term else None


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
                rows = [{**l, **r} for l in rows for r in right if compatible(l, r)]
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
                        values = list(dict.fromkeys(values))
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
                        from decimal import Decimal

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
