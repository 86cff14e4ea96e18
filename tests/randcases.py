"""Seeded random datasets and query texts for differential testing.

The generator stays inside small bounds (<= 4 versions, <= 3 graphs,
<= 50 quads per version) so the naive flat-model evaluator stays fast,
and only emits queries that are valid by construction. A few cases use a
store of more than 64 versions with few quads each, so that version
bitmaps are wider than a machine word.
"""

import csv
import io
from collections import Counter

from converg.engine import (
    Rows,
    _aggregates_with_aliases,
    _CondensedEvaluator,
    eval_oracle,
    execute_plan,
    execute_query,
)
from converg.errors import EvalError
from converg.model import XSD, Quad, iri, literal
from converg.nquads import ParsedDocument, serialize_term
from converg.sparql import parse_query, validate_and_name
from converg.store import Store, bitmap_ordinals

GRAPH_POOL = [iri(f"urn:g:{i}") for i in (1, 2, 3)]
SUBJECT_POOL = [iri(f"urn:s:{i}") for i in range(1, 7)]
PREDICATE_POOL = [iri(f"urn:p:{i}") for i in (1, 2, 3)]
# Besides plain IRIs, objects may name a versioned graph or a version, so
# that GRAPH blocks can bind the values the linking metadata uses.
OBJECT_IRIS = [iri("urn:o:1"), iri("urn:o:2"), iri("urn:converg:vng:1"), iri("urn:converg:version:2")]
WORDS = ["red", "green", "blue", "sensor"]
IN_VERSION = "<urn:converg:vocab:is-in-version>"
TAG = iri("urn:ex:tag")
WEIGHT = iri("urn:ex:weight")


def random_object(rng, numeric_only=False):
    roll = rng.random()
    if numeric_only or roll < 0.5:
        return literal(str(rng.randrange(0, 40)), datatype=XSD + "integer")
    if roll < 0.75:
        return rng.choice(OBJECT_IRIS)
    return literal(rng.choice(WORDS))


def random_version_doc(rng, graphs, numeric_only=False) -> ParsedDocument:
    quads = []
    for _ in range(rng.randint(0, 50)):
        quads.append(
            Quad(
                rng.choice(SUBJECT_POOL),
                rng.choice(PREDICATE_POOL),
                random_object(rng, numeric_only),
                rng.choice(graphs),
            )
        )
    return ParsedDocument(quads)


def random_store(rng, numeric_only=False, max_versions=4):
    """(store, per-version quad lists as ingested)."""
    store = Store()
    docs = []
    for _ in range(rng.randint(1, max_versions)):
        graphs = rng.sample(GRAPH_POOL, rng.randint(1, len(GRAPH_POOL)))
        doc = random_version_doc(rng, graphs, numeric_only)
        store.ingest_version(doc)
        docs.append(list(doc.quads))
    return store, docs


def random_wide_store(rng, versions=None):
    """A store of 65-70 versions (or of `versions`); each version keeps most
    quads of the one before, so entries stay present across more than 64
    bit positions."""
    store = Store()
    quads: list[Quad] = []
    for _ in range(versions or rng.randint(65, 70)):
        quads = [q for q in quads if rng.random() < 0.85]
        for _ in range(rng.randint(0, 3)):
            quads.append(
                Quad(
                    rng.choice(SUBJECT_POOL),
                    rng.choice(PREDICATE_POOL),
                    random_object(rng),
                    rng.choice(GRAPH_POOL[:2]),
                )
            )
        store.ingest_version(ParsedDocument(quads=list(quads)))
    return store


def random_metadata(rng, store):
    """User metadata on the versions and vngs of `store`: a tag "A" or "B"
    on most version IRIs (now and then both) and on some vng IRIs, a tag
    that is an object of the data in that version or vng on some of each,
    and a decimal weight on some of each."""
    objects: dict = {}  # (graph id, ordinal) -> the ids of the objects there
    for (graph_id, _s, _p, object_id), bits in store.entries.items():
        for ordinal in bitmap_ordinals(bits):
            objects.setdefault((graph_id, ordinal), []).append(object_id)
    triples = []

    def data_tag(subject, chance, ordinal, graph_id=None):
        held = [o for (g, m), ids in objects.items() if m == ordinal and graph_id in (None, g) for o in ids]
        if held and rng.random() < chance:
            triples.append((subject, TAG, store.dictionary.decode(rng.choice(held))))

    for ordinal, version in enumerate(store.version_iris(), start=1):
        if rng.random() < 0.85:
            tags = "AB" if rng.random() < 0.15 else rng.choice("AB")
            triples += [(version, TAG, literal(tag)) for tag in tags]
        data_tag(version, 0.5, ordinal)
        if rng.random() < 0.4:
            weight = rng.choice(["0.5", "1.25", "2", "3.0"])
            triples.append((version, WEIGHT, literal(weight, datatype=XSD + "decimal")))
    for rec in store.vng_records:
        if rng.random() < 0.25:
            triples.append((rec.vng_iri, TAG, literal(rng.choice("AB"))))
        data_tag(rec.vng_iri, 0.3, rec.ordinal, store.dictionary.lookup(rec.graph))
        if rng.random() < 0.25:
            triples.append((rec.vng_iri, WEIGHT, literal(rng.choice(["0.5", "2"]), datatype=XSD + "decimal")))
    store.add_metadata(triples)


def random_query(rng, store) -> str:
    visible: set[str] = set()
    var_pool = ["a", "b", "c", "o"]

    def subject_text():
        if rng.random() < 0.7:
            v = rng.choice(var_pool)
            visible.add(v)
            return f"?{v}"
        return f"<{rng.choice(SUBJECT_POOL).lexical}>"

    def predicate_text():
        if rng.random() < 0.15:
            visible.add("p")
            return "?p"
        return f"<{rng.choice(PREDICATE_POOL).lexical}>"

    def object_text():
        if rng.random() < 0.05:
            visible.add("vng")
            return "?vng"
        if rng.random() < 0.55:
            v = rng.choice(var_pool)
            visible.add(v)
            return f"?{v}"
        return serialize_term(random_object(rng))

    def link_object(predicate, plain=False):
        """?version or ?graph, else (unless `plain`) another variable or a
        constant that may not match."""
        roll = rng.random()
        if plain or roll < 0.7:
            name = "version" if predicate == "is-in-version" else "graph"
        elif roll < 0.8:
            # may meet a variable of the GRAPH block, or an aggregate's alias
            name = rng.choice(var_pool + ["n"])
        elif predicate == "is-version-of":
            return f"<{rng.choice(GRAPH_POOL).lexical}>"
        else:
            # an existing version, one past the last, or a non-canonical
            # spelling: only the first may match
            count = store.version_count
            ordinal = rng.choice([str(rng.randint(1, count)), str(count + 1), "0", "01"])
            return f"<urn:converg:version:{ordinal}>"
        visible.add(name)
        return f"?{name}"

    def version_text(variable=0.3, apart_from=None):
        """An existing version (other than `apart_from` where there is one),
        one past the last, or (with chance `variable`) ?version."""
        roll = rng.random()
        if roll < variable:
            return "?version"
        others = [n for n in range(1, store.version_count + 1) if n != apart_from]
        ordinal = rng.choice(others or [apart_from]) if roll < 0.85 else store.version_count + 1
        return f"<urn:converg:version:{ordinal}>"

    def link_block(plain=False):
        predicates = rng.sample(["is-in-version", "is-version-of"], rng.randint(1, 2))
        links = " ; ".join(f"<urn:converg:vocab:{p}> {link_object(p, plain)}" for p in predicates)
        return f"?vng {links} ."

    def bgp_text(max_patterns):
        # First subject is always a variable so the query has something
        # to project.
        lines = []
        for n in range(rng.randint(1, max_patterns)):
            if n == 0:
                v = rng.choice(var_pool)
                visible.add(v)
                subject = f"?{v}"
            else:
                subject = subject_text()
            lines.append(f"{subject} {predicate_text()} {object_text()} .")
        return " ".join(lines)

    def anchored_bgp(quads):
        """One or two patterns that match in the versioned graph of a quad
        drawn from `quads`: their constants are that quad's terms, and a
        second pattern, from the same graph, shares the first's subject."""
        first = rng.choice(quads)
        drawn = [first]
        if rng.random() < 0.4:
            same_subject = [q for q in quads if q.graph == first.graph and q.subject == first.subject]
            drawn.append(rng.choice(same_subject))
        subject, *objects = rng.sample(var_pool, 3)
        visible.add(subject)
        lines = []
        for quad, obj in zip(drawn, objects):
            predicate = serialize_term(quad.predicate)
            if not lines and rng.random() < 0.15:
                predicate = "?p"
                visible.add("p")
            if rng.random() < 0.5:
                visible.add(obj)
                obj = f"?{obj}"
            else:
                obj = serialize_term(quad.object)
            lines.append(f"?{subject} {predicate} {obj} .")
        return " ".join(lines), first.graph

    def hidden(text_of):
        """`text_of()` with the variables it binds kept out of `visible`;
        returns (text, those variables)."""
        outer = set(visible)
        visible.clear()
        text = text_of()
        inner = set(visible)
        visible.clear()
        visible.update(outer)
        return text, inner

    def sub_select(graph_var):
        """A sub-SELECT over a BGP: plain columns, an aggregate alone, or
        grouped. The alias may be the block's graph variable, which an
        aggregate over nothing leaves unbound."""
        body, inner = hidden(lambda: bgp_text(2))
        inner = sorted(inner)
        roll = rng.random()
        if roll < 0.35:
            columns = rng.sample(inner, rng.randint(1, len(inner)))
            visible.update(columns)
            return f"{{ SELECT {' '.join('?' + c for c in columns)} WHERE {{ {body} }} }}"
        func = rng.choice(["COUNT", "COUNT", "MAX", "MIN", "SUM"])
        distinct = "DISTINCT " if func == "COUNT" and rng.random() < 0.4 else ""
        aggregate = f"{func}({distinct}?{rng.choice(inner)})"
        alias = rng.choice(["n", "n", graph_var, rng.choice(var_pool)])
        if roll < 0.65:
            visible.add(alias)
            return f"{{ SELECT ({aggregate} AS ?{alias}) WHERE {{ {body} }} }}"
        key = rng.choice(inner)
        if alias == key:
            alias = "n"
        visible.update((key, alias))
        return f"{{ SELECT ?{key} ({aggregate} AS ?{alias}) WHERE {{ {body} }} GROUP BY ?{key} }}"

    def aggregate_join():
        """A pattern with a variable object, joined with a sub-SELECT whose
        aggregate binds that variable: a count or sum meets the data's
        integers."""
        subject, obj = rng.sample(var_pool, 2)
        visible.update((subject, obj))
        if rng.random() < 0.5:
            predicate = "?p"
            visible.add("p")
        else:
            predicate = f"<{rng.choice(PREDICATE_POOL).lexical}>"
        body, inner = hidden(lambda: bgp_text(2))
        func = rng.choice(["COUNT", "COUNT", "COUNT", "SUM"])
        distinct = "DISTINCT " if func == "COUNT" and rng.random() < 0.3 else ""
        aggregate = f"{func}({distinct}?{rng.choice(sorted(inner))})"
        return f"?{subject} {predicate} ?{obj} . {{ SELECT ({aggregate} AS ?{obj}) WHERE {{ {body} }} }}"

    def graph_inner(graph_var, nested=False):
        """The body of a GRAPH block: mostly a BGP, else a join (of two
        groups, or of a BGP and an aggregate), a MINUS, a sub-SELECT or (one
        level deep) a nested GRAPH ?h block."""
        roll = rng.random()
        if roll < 0.5:
            return bgp_text(3)
        if roll < 0.6:
            if rng.random() < 0.5:
                return aggregate_join()
            return f"{{ {bgp_text(2)} }} {{ {bgp_text(2)} }}"
        if roll < 0.72:
            left = bgp_text(2)
            right, _ = hidden(lambda: bgp_text(2))  # MINUS binds nothing outward
            return f"{left} MINUS {{ {right} }}"
        if roll < 0.9 or nested:
            return sub_select(graph_var)
        visible.add("h")
        return f"GRAPH ?h {{ {graph_inner('h', nested=True)} }}"

    def metadata_pattern(subject):
        """A user-metadata pattern on ?`subject`: its tag or weight, to a
        variable or to a constant. The tag's variable may be one that a
        GRAPH block binds, so that a tag the data also holds meets it."""
        roll = rng.random()
        if roll < 0.35:
            bound = sorted(visible.intersection(var_pool))
            tag = rng.choice(bound) if bound and rng.random() < 0.5 else "tag"
            visible.add(tag)
            return f"?{subject} <{TAG.lexical}> ?{tag} ."
        if roll < 0.7:
            return f'?{subject} <{TAG.lexical}> "{rng.choice("AB")}" .'
        visible.add("wt")
        return f"?{subject} <{WEIGHT.lexical}> ?wt ."

    def repeating_versions():
        """A sub-SELECT that projects ?version alone, so that one version
        comes back once per tag, or once per versioned graph and match."""
        if rng.random() < 0.6:
            body = f"?version <{TAG.lexical}> ?tag ."
        else:
            body, _ = hidden(lambda: f"GRAPH ?g3 {{ {bgp_text(1)} }} ?g3 {IN_VERSION} ?version .")
        visible.add("version")
        return f"{{ SELECT ?version WHERE {{ {body} }} }}"

    shape = rng.random()
    if shape < 0.12:
        # metadata-only query against the default graph
        visible.add("vng")
        predicate = rng.choice(["is-in-version", "is-version-of"])
        other = "version" if predicate == "is-in-version" else "graph"
        visible.add(other)
        pattern = f"?vng <urn:converg:vocab:{predicate}> ?{other} ."
        if rng.random() < 0.4:
            pattern += " " + metadata_pattern(rng.choice(["vng", other]))
    else:
        parts = []
        if rng.random() < 0.78 or not store.vng_records:
            target, target_is_var = "?vng", True
            visible.add("vng")
        elif rng.random() < 0.8:
            rec = rng.choice(store.vng_records)
            target, target_is_var = f"<{rec.vng_iri.lexical}>", False
        else:
            # unknown or plain-graph IRI: must evaluate to empty, not error
            target = rng.choice(["<urn:converg:vng:999>", "<urn:g:1>"])
            target_is_var = False
        # Drawn before the left block, whose body depends on it.
        minus_roll = rng.random() if rng.random() < 0.25 else None
        anchor = None
        if minus_roll is not None and minus_roll >= 0.65 and rng.random() < 0.85:
            # the left of a cross-version MINUS mostly matches something:
            # its constants come from a quad of the target graph
            quads = [q for q in store.export_flat() if q.graph is not None]
            if not target_is_var:
                quads = [q for q in quads if f"<{q.graph.lexical}>" == target]
            if quads:
                inner, anchor = anchored_bgp(quads)
        if anchor is None:
            inner = graph_inner("vng")
        parts.append(f"GRAPH {target} {{ {inner} }}")
        if target_is_var and rng.random() < 0.6:
            parts.append(link_block(plain=anchor is not None))
        if target_is_var and rng.random() < 0.08:
            # an ungrouped sub-select over the block, which may project the
            # graph variable away
            columns = rng.sample(sorted(visible), rng.randint(1, len(visible)))
            parts = [f"{{ SELECT {' '.join('?' + c for c in columns)} WHERE {{ {' '.join(parts)} }} }}"]
            visible.clear()
            visible.update(columns)
        if target_is_var and rng.random() < 0.3:
            parts.append(metadata_pattern("version" if "version" in visible else "vng"))
        if target_is_var and store.version_count <= 4 and rng.random() < 0.05:
            # a second graph variable, joined in the default graph
            visible.add("g2")
            parts.append(f"GRAPH ?g2 {{ {bgp_text(1)} }}")
        if "version" in visible and rng.random() < 0.1:
            parts.append(repeating_versions())
        right = None
        if minus_roll is None:
            pass
        elif minus_roll < 0.35:
            right, _ = hidden(lambda: f"GRAPH ?vng2 {{ {bgp_text(2)} }}")
        elif minus_roll < 0.5:
            right, _ = hidden(lambda: bgp_text(2))
        elif minus_roll < 0.65:
            right, _ = hidden(lambda: metadata_pattern(rng.choice(["version", "vng"])))
        else:
            # a cross-version MINUS: another versioned graph, often with the
            # left's body, linked to a version that is constant (apart from
            # the left's, where that is constant), unknown or ?version. The
            # left's body under ?version matches every left row again, in
            # its own version, and removes them all: that is drawn rarely.
            # The left may link its own ?vng to a constant or to ?version.
            repeated = rng.random() < 0.6
            body = inner if repeated else hidden(lambda: bgp_text(2))[0]
            left_version = None
            if target_is_var and anchor is not None and rng.random() < 0.6:
                left_version = store.resolve_vng(anchor)[1]
                parts.append(f"?vng {IN_VERSION} <urn:converg:version:{left_version}> .")
            elif target_is_var and rng.random() < 0.6:
                linked = version_text(variable=0.5)
                if linked == "?version":
                    visible.add("version")
                parts.append(f"?vng {IN_VERSION} {linked} .")
            version = version_text(0.05 if repeated else 0.3, apart_from=left_version)
            right = f"GRAPH ?w {{ {body} }} ?w {IN_VERSION} {version} ."
        pattern = " ".join(parts)
        if right is not None:
            pattern = f"{{ {pattern} }} MINUS {{ {right} }}"

    ordered = sorted(visible)
    if rng.random() < 0.3:
        linked = [v for v in ("version", "graph", "vng") if v in visible]
        per_bit = [v for v in ("version", "vng") if v in visible]
        func = rng.choice(["COUNT", "COUNT", "MAX", "MIN", "SUM"])
        # A decimal SUM and a COUNT(DISTINCT ?version) over many rows each
        # take a rare path, which the reach gate's slice must still draw.
        if "wt" in visible and rng.random() < 0.7:
            func = "SUM"
        distinct_odds = 0.6 if "version" in visible else 0.4
        distinct = "DISTINCT " if func == "COUNT" and rng.random() < distinct_odds else ""
        if func == "SUM" and "wt" in visible and rng.random() < 0.8:
            arg_var = "wt"  # decimal weights
        elif distinct and "version" in visible and rng.random() < 0.7:
            arg_var = "version"  # the versions a group covers
        else:
            arg_var = rng.choice(per_bit if per_bit and rng.random() < 0.35 else ordered)
        if rng.random() < (0.5 if arg_var == "version" else 0.25):  # one group of every row
            return f"SELECT {func}({distinct}?{arg_var}) WHERE {{ {pattern} }}"
        group_vars = [rng.choice(linked if linked and rng.random() < 0.6 else ordered)]
        if len(ordered) > 1 and rng.random() < 0.2:
            group_vars.append(rng.choice([v for v in ordered if v != group_vars[0]]))
        keys = " ".join(f"?{v}" for v in group_vars)
        return (
            f"SELECT {keys} {func}({distinct}?{arg_var}) "
            f"WHERE {{ {pattern} }} GROUP BY {keys}"
        )
    count = rng.randint(1, len(ordered))
    projected = rng.sample(ordered, count)
    return "SELECT " + " ".join(f"?{v}" for v in projected) + f" WHERE {{ {pattern} }}"


def rows_counter(columns, rows) -> Counter:
    return Counter(tuple(row.get(c) for c in columns) for row in rows)


def folds(store, query) -> bool:
    """Whether the engine answers `query` by folding condensed rows: the
    query is grouped, and no versioned rows are expanded on the way."""
    flat = Rows.flat
    expanded = []

    def counting(rows, scope):
        if rows.vng_var is not None:
            expanded.append(rows)
        return flat(rows, scope)

    Rows.flat = counting
    try:
        _CondensedEvaluator(store).eval(query.pattern, None)
    finally:
        Rows.flat = flat
    return not expanded and bool(_aggregates_with_aliases(query) or query.group_by)


def check_against_oracle(store, query):
    """Assert the engine's answer to `query` equals the oracle's on the flat
    export; returns the engine's result table."""
    table = execute_plan(store, query)
    oracle_columns, oracle_rows = eval_oracle(list(store.export_flat()), query)
    assert table.columns == oracle_columns
    assert Counter(table.rows) == rows_counter(oracle_columns, oracle_rows)
    return table


def reference_output(columns, rows):
    """(rows, TSV, CSV) of a result, built naively from projected solution
    rows: every cell serialized on its own, rows sorted on the tuple of
    their cell texts ("" for unbound)."""
    keyed = []
    for row in rows:
        terms = tuple(row.get(name) for name in columns)
        keyed.append((tuple("" if t is None else serialize_term(t) for t in terms), terms))
    keyed.sort(key=lambda pair: pair[0])
    tsv = "\t".join(columns) + "\n" + "".join("\t".join(cells) + "\n" for cells, _ in keyed)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for cells, _ in keyed:
        writer.writerow(cells)
    return [terms for _, terms in keyed], tsv, buffer.getvalue()


def check_output(store, text, oracle_result):
    """Assert `execute_query(store, text)` gives the rows, TSV and CSV that
    `reference_output` builds from the oracle's answer; returns its table."""
    table = execute_query(store, text)
    rows, tsv, csv_text = reference_output(*oracle_result)
    assert table.rows == rows, text
    assert table.to_tsv() == tsv, text
    assert table.to_csv() == csv_text, text
    return table


def run_differential_case(rng, wide=None) -> str:
    """One random (store, query) case; asserts engine == oracle, for the
    solutions and for the output rows and bytes. About one case in thirty
    (or every case, with `wide=True`) uses a store of more than 64
    versions. The store gets user metadata on its versions and vngs."""
    if wide is None:
        wide = rng.random() < 1 / 30
    store = random_wide_store(rng) if wide else random_store(rng)[0]
    random_metadata(rng, store)
    text = random_query(rng, store)
    query = validate_and_name(parse_query(text))
    flat = list(store.export_flat())
    engine_error = oracle_error = None
    engine_result = oracle_result = None
    try:
        engine_result = execute_plan(store, query)
    except EvalError as exc:
        engine_error = exc
    try:
        oracle_result = eval_oracle(flat, query)
    except EvalError as exc:
        oracle_error = exc
    if engine_error is not None or oracle_error is not None:
        assert engine_error is not None and oracle_error is not None, (
            f"error disagreement on {text!r}: engine={engine_error!r} oracle={oracle_error!r}"
        )
        return "error-agree"
    columns_o, rows_o = oracle_result
    assert engine_result.columns == columns_o, text
    assert Counter(engine_result.rows) == rows_counter(columns_o, rows_o), text
    check_output(store, text, oracle_result)
    return "ok"
