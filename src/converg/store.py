"""The condensed version store.

Each distinct (graph, subject, predicate, object) gets one entry whose
bitmap records the versions containing it: bit m-1 set means the quad was
present in version m. In memory the entries are one insertion-ordered dict
from the id key (graph id, subject id, predicate id, object id) to its
bitmap int; the dict both stores and deduplicates them, and its order is
the `ENTRIES` line order. Ingesting a version appends one bit position;
graphs absent from a version simply contribute zeros. The flat form (one
quad per set bit, graph renamed to the versioned-named-graph IRI, plus
linking metadata in the default graph) is derivable at any time and
round-trips.

Concurrency: single writer. `ingest_version` and `save_snapshot` need
exclusive access; queries only read and may run concurrently between writes.
"""

from __future__ import annotations

import hashlib
import os
import re
from typing import Iterable, Iterator, Optional

from .dictionary import TermDictionary
from .errors import IngestError, ParseError, SnapshotError, UnknownVngError
from .model import (
    IRI,
    IS_IN_VERSION,
    IS_VERSION_OF,
    LITERAL,
    Frozen,
    Quad,
    Term,
    VngRecord,
    blank,
    mint_vng_iri,
    version_iri,
)
from .nquads import parse_nquads, parse_term, serialize_nquads, serialize_term

SNAPSHOT_FORMAT_VERSION = 1
_SNAPSHOT_FILES = ("MANIFEST", "DICT", "VNG", "ENTRIES", "META")
# Predicates of the linking triples the store derives from its vng records.
_LINK_PREDICATES = (IS_IN_VERSION, IS_VERSION_OF)
_NOT_A_BIT = re.compile("[^01]").search
# MANIFEST's opening lines and a label line as `save_snapshot` writes them.
# A count is ASCII digits, as `str()` writes it (`int()` also takes a sign,
# spaces and "_"), 18 at most: more than any store's count needs.
_COUNT = "([0-9]{1,18})"
_MANIFEST_HEAD = re.compile(f"format-version={_COUNT}\nversion-count={_COUNT}\nvng-counter={_COUNT}\n").match
_LABEL_LINE = re.compile(f"label {_COUNT} (.*)", re.DOTALL).fullmatch
# Line breaks, which end a MANIFEST line, and lone surrogates, which UTF-8 cannot encode.
_NOT_IN_A_LABEL = re.compile("[\n\r\ud800-\udfff]").search


def bit_for(ordinal: int) -> int:
    return 1 << (ordinal - 1)


def bitmap_ordinals(bits: int) -> Iterator[int]:
    """Set positions as 1-based version ordinals, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length()
        bits ^= low


def render_bitmap(bits: int, width: int) -> str:
    """Textual bitstring with version 1 leftmost, zero-padded to `width`."""
    # `format` writes at least one digit, so width 0 is its own case.
    return format(bits, f"0{width}b")[::-1] if width else ""


def parse_bitmap(text: str) -> int:
    # `int(_, 2)` also takes "_", a sign, a "0b" prefix and surrounding
    # whitespace, so anything but 0 and 1 is turned away first.
    bad = _NOT_A_BIT(text)
    if bad:
        raise ValueError(f"bitstring may only contain 0/1, got {bad.group()!r}")
    return int(text[::-1], 2) if text else 0


class IngestReport(Frozen):
    __slots__ = _fields = ("ordinal", "minted_vngs", "quad_count", "new_entry_count", "duplicate_count")


class StoreStats(Frozen):
    __slots__ = _fields = (
        "version_count",
        "graph_count",
        "vng_count",
        "entry_count",
        "flat_quad_count",
        "metadata_triple_count",
    )


EntryKey = tuple[int, int, int, int]  # (graph id, subject id, predicate id, object id)


class Store:
    """Entries, dictionary, vng records and metadata of every version.

    `entries` maps each entry's id key to its version bitmap. The graph,
    graph-and-predicate and subject indexes hold those same key tuples, in
    insertion order.

    A store starts empty: `Store()` takes no arguments. `ingest_version`
    and `load_snapshot` fill it the same way, each entry through
    `_index_entry` and each vng record through `_add_vng`. Record k holds
    the vng numbered k, so the vng counter is `len(vng_records)`.
    """

    __slots__ = (
        "dictionary",
        "entries",
        "vng_records",
        "version_count",
        "version_labels",
        "user_metadata",
        "_by_graph",
        "_by_graph_pred",
        "_by_subject",
        "_vng_by_iri",
        "_vng_by_pair",
        "_minted",
        "_user_metadata_set",
        "_metadata",
        "_version_iris",
    )

    def __init__(self):
        self.dictionary = TermDictionary()
        self.entries: dict[EntryKey, int] = {}
        self.vng_records: list[VngRecord] = []
        self.version_count = 0
        self.version_labels: dict[int, str] = {}
        self.user_metadata: list[tuple[Term, Term, Term]] = []
        self._by_graph: dict[int, list[EntryKey]] = {}
        self._by_graph_pred: dict[tuple[int, int], list[EntryKey]] = {}
        self._by_subject: dict[tuple[int, int], list[EntryKey]] = {}
        self._vng_by_iri: dict[Term, tuple[int, int]] = {}
        self._vng_by_pair: dict[tuple[int, int], Term] = {}
        self._minted: dict[int, int] = {}  # graph id -> bits of its vngs' versions
        self._user_metadata_set: set[tuple[Term, Term, Term]] = set()
        self._metadata: Optional[tuple[tuple[Term, Term, Term], ...]] = None  # built on first use
        self._version_iris: Optional[tuple[Term, ...]] = None  # built on first use

    # ------------------------------------------------------------------ write

    def ingest_version(self, doc, label: Optional[str] = None) -> IngestReport:
        """Load the rows of one version's `ParsedDocument` as the next ordinal.

        Every quad must carry a named graph; blank node labels are rescoped
        per document so separate loads never share blank nodes; duplicate
        quads within the document collapse silently. Validation happens up
        front and the mutation phase cannot fail, so a raised error leaves
        the store untouched.
        """
        rows = doc.rows
        if label is not None and _NOT_IN_A_LABEL(label):
            raise IngestError("version label must be a single line of UTF-8 text")
        for row in rows:
            if row[3] is None:
                raise IngestError(
                    "version documents may not touch the default graph; "
                    "it is reserved for metadata"
                )
        ordinal = self.version_count + 1

        # Mutation phase: nothing below raises.
        self.version_count = ordinal
        self._metadata = None
        self._version_iris = None
        if label is not None:
            self.version_labels[ordinal] = label
        encode = self.dictionary.encode
        # id() of each term object of the document -> its id. `rows` keeps
        # the objects alive, so no two share an id(); equal terms held by
        # distinct objects each get an entry, and `encode` gives them one id.
        ids: dict[int, int] = {}
        blank_names: dict[str, Term] = {}

        def term_id(term: Term) -> int:
            """Encode `term` on its first appearance, after rescoping a
            blank node label to this document."""
            if term.is_blank:
                scoped = blank_names.get(term.lexical)
                if scoped is None:
                    scoped = blank(f"v{ordinal}b{len(blank_names)}")
                    blank_names[term.lexical] = scoped
                ids[id(term)] = tid = encode(scoped)
            else:
                ids[id(term)] = tid = encode(term)
            return tid

        mask = bit_for(ordinal)
        entries = self.entries
        graph_order: dict[int, Term] = {}  # graph id -> graph, first-appearance order
        new_entries = 0
        duplicates = 0
        for s, p, o, g in rows:
            sid = ids.get(id(s))
            if sid is None:
                sid = term_id(s)
            pid = ids.get(id(p))
            if pid is None:
                pid = term_id(p)
            oid = ids.get(id(o))
            if oid is None:
                oid = term_id(o)
            gid = ids.get(id(g))
            if gid is None:
                gid = term_id(g)
            graph_order.setdefault(gid, g)
            key = (gid, sid, pid, oid)
            old = entries.get(key)
            if old is None:
                entries[key] = mask
                self._index_entry(key)
                new_entries += 1
            elif old & mask:
                duplicates += 1  # already seen in this document
            else:
                entries[key] = old | mask
        minted: list[VngRecord] = []
        for gid, graph in graph_order.items():
            rec = VngRecord(mint_vng_iri(len(self.vng_records) + 1), graph, ordinal)
            self._add_vng(rec, gid)
            minted.append(rec)
        if __debug__:
            self.dictionary.check_bijection()
        return IngestReport(ordinal, minted, len(rows) - duplicates, new_entries, duplicates)

    def add_metadata(self, triples: Iterable[tuple[Term, Term, Term]]) -> int:
        """Extra default-graph metadata (creation date, authorship, ...).

        The two linking triples per versioned graph are maintained
        automatically; their predicates are rejected here. Every triple is
        checked as a default-graph quad (valid Terms, IRI or blank subject,
        IRI predicate) before any is added, so the store can always save
        and reopen what it holds. Returns the number of triples actually new.
        """
        checked: list[tuple[Term, Term, Term]] = []
        for triple in triples:
            try:
                s, p, o = triple
                if not (isinstance(s, Term) and isinstance(p, Term) and isinstance(o, Term)):
                    raise TypeError("every position must be a Term")
                # Rebuilt, so the checks run again: a Term made by object.__new__ never ran them.
                s, p, o = [Term(t.kind, t.lexical, t.datatype, t.language) for t in (s, p, o)]
                Quad(s, p, o)
            except (TypeError, ValueError) as exc:
                raise IngestError(f"metadata triple {triple!r} rejected: {exc}")
            if p in _LINK_PREDICATES:
                raise IngestError(
                    f"metadata may not use the reserved predicate {serialize_term(p)}"
                )
            checked.append((s, p, o))
        added = 0
        for s, p, o in checked:
            if (s, p, o) not in self._user_metadata_set:
                self._user_metadata_set.add((s, p, o))
                self.user_metadata.append((s, p, o))
                self._metadata = None
                added += 1
        return added

    # ------------------------------------------------------------------- read

    def metadata_graph(self) -> tuple[tuple[Term, Term, Term], ...]:
        """The default graph: `is-version-of` and `is-in-version` for each
        vng record in record order, then the user metadata. Built once per
        change to the store."""
        if self._metadata is None:
            versions = self.version_iris()
            links = []
            for rec in self.vng_records:
                links.append((rec.vng_iri, IS_VERSION_OF, rec.graph))
                links.append((rec.vng_iri, IS_IN_VERSION, versions[rec.ordinal - 1]))
            self._metadata = (*links, *self.user_metadata)
        return self._metadata

    def version_iris(self) -> tuple[Term, ...]:
        """`version_iri(m)` for every version m, in order: the term at
        index m - 1. Built once per version count."""
        if self._version_iris is None:
            self._version_iris = tuple(version_iri(m) for m in range(1, self.version_count + 1))
        return self._version_iris

    def lookup_pattern(
        self,
        graph: int,
        subject: Optional[int] = None,
        predicate: Optional[int] = None,
        object: Optional[int] = None,
    ) -> Iterator[tuple[EntryKey, int]]:
        """(key, bits) of each entry of `graph` matching the other bound
        positions, in insertion order; the key is the entry's
        (graph, subject, predicate, object) id tuple."""
        entries = self.entries
        if subject is not None and predicate is not None and object is not None:
            key = (graph, subject, predicate, object)
            bits = entries.get(key)
            if bits is not None:
                yield key, bits
            return
        if predicate is not None:
            candidates = self._by_graph_pred.get((graph, predicate), ())
        elif subject is not None:
            candidates = self._by_subject.get((graph, subject), ())
        else:
            candidates = self._by_graph.get(graph, ())
        for key in candidates:  # each is of `graph` and matches the predicate, if bound
            if subject is not None and key[1] != subject:
                continue
            if object is not None and key[3] != object:
                continue
            yield key, entries[key]

    def minted_versions(self) -> dict[int, int]:
        """Graph id -> bits of the versions that minted a vng for it, in
        first-minting order. Read-only."""
        return self._minted

    def resolve_vng(self, vng_iri: Term) -> tuple[int, int]:
        """(graph id, ordinal) for a minted vng IRI; inverse of minting."""
        pair = self._vng_by_iri.get(vng_iri)
        if pair is None:
            raise UnknownVngError(f"not a versioned named graph: {serialize_term(vng_iri)}")
        return pair

    def vng_iri_for(self, graph_id: int, ordinal: int) -> Term:
        term = self._vng_by_pair.get((graph_id, ordinal))
        if term is None:
            raise UnknownVngError(f"no versioned graph minted for graph id {graph_id}, version {ordinal}")
        return term

    def export_flat(self) -> Iterator[Quad]:
        """Every entry expanded over its set bits (graph renamed to the vng
        IRI), followed by all metadata triples as default-graph quads."""
        decode = self.dictionary.decode
        for (graph_id, sid, pid, oid), bits in self.entries.items():
            s = decode(sid)
            p = decode(pid)
            o = decode(oid)
            for ordinal in bitmap_ordinals(bits):
                yield Quad(s, p, o, self._vng_by_pair[(graph_id, ordinal)])
        for s, p, o in self.metadata_graph():
            yield Quad(s, p, o, None)

    def diff_vng(self, a: Term, b: Term) -> set[tuple[Term, Term, Term]]:
        """Triples in versioned graph `a` but not in `b`.

        Same underlying graph: decided per entry by two bit tests. Different
        graphs: materialized set difference. Both agree with the subtracting
        query over the flat form.
        """
        graph_a, ord_a = self.resolve_vng(a)
        graph_b, ord_b = self.resolve_vng(b)
        decode = self.dictionary.decode
        entries = self.entries
        result: set[tuple[Term, Term, Term]] = set()
        if graph_a == graph_b:
            want, avoid = bit_for(ord_a), bit_for(ord_b)
            for key in self._by_graph.get(graph_a, ()):
                bits = entries[key]
                if bits & want and not bits & avoid:
                    result.add((decode(key[1]), decode(key[2]), decode(key[3])))
            return result
        mask_b = bit_for(ord_b)
        present_b = {key[1:] for key in self._by_graph.get(graph_b, ()) if entries[key] & mask_b}
        mask_a = bit_for(ord_a)
        for key in self._by_graph.get(graph_a, ()):
            if entries[key] & mask_a and key[1:] not in present_b:
                result.add((decode(key[1]), decode(key[2]), decode(key[3])))
        return result

    def stats(self) -> StoreStats:
        return StoreStats(
            self.version_count,
            len(self._by_graph),
            len(self.vng_records),
            len(self.entries),
            sum(bits.bit_count() for bits in self.entries.values()),  # flat quads
            2 * len(self.vng_records) + len(self.user_metadata),  # metadata triples
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Store):
            return NotImplemented
        return (
            self.version_count == other.version_count
            and self.version_labels == other.version_labels
            and self.dictionary == other.dictionary
            and list(self.entries.items()) == list(other.entries.items())
            and self.vng_records == other.vng_records
            and self.user_metadata == other.user_metadata
        )

    # -------------------------------------------------------------- internals

    def _index_entry(self, key: EntryKey):
        graph_id, sid, pid, _ = key
        self._by_graph.setdefault(graph_id, []).append(key)
        self._by_graph_pred.setdefault((graph_id, pid), []).append(key)
        self._by_subject.setdefault((graph_id, sid), []).append(key)

    def _add_vng(self, rec: VngRecord, graph_id: int):
        """Append `rec`, whose graph has dictionary id `graph_id`, and index it."""
        self.vng_records.append(rec)
        self._vng_by_iri[rec.vng_iri] = (graph_id, rec.ordinal)
        self._vng_by_pair[(graph_id, rec.ordinal)] = rec.vng_iri
        self._minted[graph_id] = self._minted.get(graph_id, 0) | bit_for(rec.ordinal)


# ------------------------------------------------------------------ snapshots


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def save_snapshot(store: Store, directory) -> None:
    """Persist `store` as the sectioned text layout.

    CHECKSUM carries one SHA-256 digest per file. Two phases: every file
    is first written and fsynced under a temporary name, then all six are
    renamed into place (CHECKSUM last) and the directory is fsynced, so the
    new snapshot is durable when the call returns. A crash during the write
    phase leaves the previous snapshot untouched; only the brief rename
    burst is not a single atomic step.
    """
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    manifest = [
        f"format-version={SNAPSHOT_FORMAT_VERSION}",
        f"version-count={store.version_count}",
        f"vng-counter={len(store.vng_records)}",
    ]
    for ordinal in sorted(store.version_labels):
        manifest.append(f"label {ordinal} {store.version_labels[ordinal]}")
    dict_lines = [
        f"{tid}\t{serialize_term(term)}" for tid, term in enumerate(store.dictionary)
    ]
    lookup = store.dictionary.lookup
    vng_lines = [f"{k}\t{lookup(rec.graph)}\t{rec.ordinal}" for k, rec in enumerate(store.vng_records, 1)]
    entry_lines = [
        f"{g}\t{s}\t{p}\t{o}\t{render_bitmap(bits, store.version_count)}"
        for (g, s, p, o), bits in store.entries.items()
    ]
    contents = {
        "MANIFEST": _joined(manifest),
        "DICT": _joined(dict_lines),
        "VNG": _joined(vng_lines),
        "ENTRIES": _joined(entry_lines),
        "META": _meta_text(store.user_metadata),
    }
    checksum_lines = [f"{name} {_digest(contents[name].encode('utf-8'))}" for name in _SNAPSHOT_FILES]
    contents["CHECKSUM"] = _joined(checksum_lines)
    staged: list[tuple[str, str]] = []
    try:
        for name in _SNAPSHOT_FILES + ("CHECKSUM",):
            final = os.path.join(directory, name)
            tmp = os.path.join(directory, f".tmp.{name}")
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                fh.write(contents[name])
                fh.flush()
                os.fsync(fh.fileno())
            staged.append((tmp, final))
    except BaseException:
        for tmp, _final in staged:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        raise
    for tmp, final in staged:
        os.replace(tmp, final)
    # The renames are entries of the directory: durable once it is fsynced.
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _joined(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


def _meta_text(triples) -> str:
    """META as `save_snapshot` writes it, and as it must be to open."""
    return serialize_nquads(Quad(s, p, o) for s, p, o in triples)


def require_snapshot(directory) -> str:
    """The path of `directory`'s CHECKSUM; SnapshotError if it has none."""
    directory = os.fspath(directory)
    checksum_path = os.path.join(directory, "CHECKSUM")
    if not os.path.isfile(checksum_path):
        raise SnapshotError(f"no snapshot at {directory} (missing CHECKSUM)")
    return checksum_path


def load_snapshot(directory) -> Store:
    """The store in `directory`, whose CHECKSUM must hold the five lines
    `<name> <digest>` that `save_snapshot` writes, in its order."""
    with open(require_snapshot(directory), "rb") as fh:
        checksums = _lines(_decoded("CHECKSUM", fh.read()))
    raw: dict[str, str] = {}
    for index, line in enumerate(checksums):
        name, space, digest = line.partition(" ")
        if index >= len(_SNAPSHOT_FILES) or name != _SNAPSHOT_FILES[index] or not space:
            raise SnapshotError(f"malformed CHECKSUM line: {line!r}")
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            raise SnapshotError(f"snapshot file missing: {name}")
        with open(path, "rb") as fh:
            data = fh.read()
        if _digest(data) != digest:
            raise SnapshotError(f"checksum mismatch for {name}")
        raw[name] = _decoded(name, data)
    if len(raw) < len(_SNAPSHOT_FILES):
        raise SnapshotError(f"CHECKSUM does not cover {_SNAPSHOT_FILES[len(raw)]}")
    return _rebuild(raw)


def _decoded(name: str, data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SnapshotError(f"{name} is not UTF-8: {exc.reason} at byte {exc.start}") from None


def _lines(text: str) -> list[str]:
    """The lines of a snapshot file, which end at LF only: a literal or a
    label may hold another line break, which `str.splitlines` splits at."""
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _rebuild(raw: dict[str, str]) -> Store:
    """A `Store()` filled from the decoded snapshot files, each section
    checked as it goes into the maps that ingest fills. Only what
    `save_snapshot` writes opens: MANIFEST's three counts in order, labels
    rising; VNG line k holds counter k, and vng-counter counts the lines."""
    store = Store()
    head = _MANIFEST_HEAD(raw["MANIFEST"])
    if head is None:
        raise SnapshotError(
            "MANIFEST incomplete or malformed: it must open with format-version=N, version-count=N and vng-counter=N"
        )
    format_version, version_count, vng_counter = map(int, head.groups())
    if format_version != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotError(
            f"snapshot format {format_version} not supported (expected {SNAPSHOT_FORMAT_VERSION})"
        )
    store.version_count = version_count
    last = 0
    for line in _lines(raw["MANIFEST"][head.end():]):
        label = _LABEL_LINE(line)
        if label is None or _NOT_IN_A_LABEL(label[2]) or not last < int(label[1]) <= version_count:
            raise SnapshotError(f"malformed MANIFEST label line: {line!r}")
        last = int(label[1])
        store.version_labels[last] = label[2]
    dictionary = store.dictionary
    for lineno, line in enumerate(_lines(raw["DICT"])):
        try:
            tid_text, term_text = line.split("\t", 1)
            tid = int(tid_text)
            term = parse_term(term_text)
        except Exception as exc:
            raise SnapshotError(f"DICT line {lineno + 1} malformed: {exc}")
        if tid != dictionary.encode(term):
            raise SnapshotError(f"DICT ids are not dense at line {lineno + 1}")
    term_count = len(dictionary)

    vng_lines = _lines(raw["VNG"])
    for lineno, line in enumerate(vng_lines, 1):
        try:
            counter_text, graph_id_text, ordinal_text = line.split("\t")
            counter, graph_id, ordinal = int(counter_text), int(graph_id_text), int(ordinal_text)
        except ValueError:
            raise SnapshotError(f"VNG line {lineno} malformed")
        if counter != lineno or not 1 <= ordinal <= version_count:
            raise SnapshotError(f"VNG line {lineno} out of range")
        if (graph_id, ordinal) in store._vng_by_pair:
            raise SnapshotError(f"VNG line {lineno} duplicates a versioned graph")
        if not 0 <= graph_id < term_count:
            raise SnapshotError(f"VNG line {lineno} names a term id outside the dictionary")
        graph = dictionary.decode(graph_id)
        if not graph.is_iri:
            raise SnapshotError(f"VNG line {lineno} names graph id {graph_id}, which is not an IRI")
        store._add_vng(VngRecord(mint_vng_iri(counter), graph, ordinal), graph_id)
    if vng_counter != len(vng_lines):
        raise SnapshotError(f"MANIFEST vng-counter={vng_counter} does not match the {len(vng_lines)} VNG lines")

    # Ids of the terms that no ingest puts in subject or predicate position.
    literal_ids = {tid for tid, term in enumerate(dictionary.terms) if term.kind == LITERAL}
    non_iri_ids = {tid for tid, term in enumerate(dictionary.terms) if term.kind != IRI}
    entries, minted = store.entries, store._minted
    for lineno, line in enumerate(_lines(raw["ENTRIES"])):
        try:
            g, s, p, o, bits_text = line.split("\t")
            if len(bits_text) != version_count:
                raise ValueError("bitstring width mismatch")
            bits = parse_bitmap(bits_text)
            key = (int(g), int(s), int(p), int(o))
        except ValueError as exc:
            raise SnapshotError(f"ENTRIES line {lineno + 1} malformed: {exc}")
        if bits == 0:
            raise SnapshotError(f"ENTRIES line {lineno + 1} has an all-zero bitmap")
        if bits & ~minted.get(key[0], 0):
            raise SnapshotError(
                f"ENTRIES line {lineno + 1} sets a version with no versioned graph for its graph"
            )
        if key in entries:
            raise SnapshotError(f"ENTRIES line {lineno + 1} duplicates a quad key")
        if min(key) < 0 or max(key) >= term_count:
            raise SnapshotError(f"ENTRIES line {lineno + 1} names a term id outside the dictionary")
        if key[1] in literal_ids or key[2] in non_iri_ids:
            raise SnapshotError(f"ENTRIES line {lineno + 1} names a term that cannot stand in its position")
        entries[key] = bits
        store._index_entry(key)

    meta = raw["META"]
    try:
        triples = [row[:3] for row in parse_nquads(meta).rows]
    except ParseError as exc:
        raise SnapshotError(f"META malformed at {exc}") from None
    written = _meta_text(triples)
    if meta != written:  # comments, blanks, a graph term or escapes the writer never writes
        lineno = os.path.commonprefix([meta, written]).count("\n") + 1
        line = meta.split("\n")[lineno - 1]
        raise SnapshotError(f"META line {lineno} is not written as save_snapshot writes it: {line!r}")
    for lineno, triple in enumerate(triples, 1):  # the writer's text: triple k is on line k
        if triple[1] in _LINK_PREDICATES:
            raise SnapshotError(f"META line {lineno} uses the reserved predicate {serialize_term(triple[1])}")
        if triple in store._user_metadata_set:
            raise SnapshotError(f"META line {lineno} duplicates a metadata triple")
        store._user_metadata_set.add(triple)
        store.user_metadata.append(triple)
    return store
