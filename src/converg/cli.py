"""Command-line interface over a snapshot directory.

Commands: init, load, query, diff, export-flat, stats, gen. The store
directory argument may be omitted when CONVERG_STORE is set. Results go to
stdout, diagnostics to stderr; exit codes: 0 success, 1 user error (a bad
query, a query or version file that is malformed or not UTF-8, an unknown
versioned graph, bad arguments), 2 a corrupt snapshot or an I/O error.

Each command imports only what it runs: `load` and the other store
commands never load the query engine, the parser or the generator. No
converg module uses `@dataclass`, whose module would pull in `inspect`, and
the store commands do not import `decimal`, which only a query's numeric
comparisons and sums need.
"""

from __future__ import annotations

import argparse
import fcntl
import os
import sys

from .errors import (
    ConvergError,
    EvalError,
    IngestError,
    ParseError,
    QueryValidationError,
    SnapshotError,
    UnknownVngError,
)
from .model import iri
from .nquads import parse_nquads, serialize_nquads, serialize_term
from .store import Store, load_snapshot, require_snapshot, save_snapshot

STORE_ENV = "CONVERG_STORE"

_USER_ERRORS = (ParseError, QueryValidationError, EvalError, UnknownVngError, IngestError)


class _UsageError(Exception):
    pass


def execute_query(store, text):
    """`engine.execute_query`, importing the engine on the first query."""
    from .engine import execute_query as run

    return run(store, text)


def _resolve_positionals(values: list, names: list[str]) -> list:
    """Allow the leading store directory to come from CONVERG_STORE.

    `values` are the raw positionals in order (store first, possibly None
    at the tail when the user omitted the directory and the parser shifted
    everything left).
    """
    given = [v for v in values if v is not None]
    if len(given) == len(names):
        return given
    env = os.environ.get(STORE_ENV)
    if len(given) == len(names) - 1 and env:
        return [env] + given
    missing = names[len(given):] if not env else names[len(given) + 1:]
    raise _UsageError(
        f"missing argument(s): {', '.join(missing) or names[0]}"
        f" (set {STORE_ENV} to default the store directory)"
    )


class _StoreLock:
    """Advisory lock on <store>/.lock: shared for readers, exclusive for load
    and init. Only init locks a directory that holds no snapshot yet."""

    def __init__(self, directory: str, exclusive: bool, new: bool = False):
        self.directory = directory
        self.path = os.path.join(directory, ".lock")
        self.exclusive = exclusive
        self.new = new
        self.fh = None

    def __enter__(self):
        if not self.new and os.path.isdir(self.directory):
            require_snapshot(self.directory)  # before opening the lock file creates it
        try:
            self.fh = open(self.path, "a+")
        except FileNotFoundError:
            raise SnapshotError(f"no store directory at {self.directory}")
        fcntl.flock(self.fh.fileno(), fcntl.LOCK_EX if self.exclusive else fcntl.LOCK_SH)
        return self

    def __exit__(self, *exc):
        fcntl.flock(self.fh.fileno(), fcntl.LOCK_UN)
        self.fh.close()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="converg",
        description="Versioned quad store: bulk per-version loading and querying across all versions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create an empty store")
    p.add_argument("store", nargs="?")

    p = sub.add_parser("load", help="ingest one N-Quads file as the next version")
    p.add_argument("store", nargs="?")
    p.add_argument("file", nargs="?")
    p.add_argument("--label", default=None, help="free-text label for this version")

    p = sub.add_parser("query", help="run a query file ('-' reads stdin)")
    p.add_argument("store", nargs="?")
    p.add_argument("file", nargs="?")
    p.add_argument("--format", choices=("tsv", "csv"), default="tsv")

    p = sub.add_parser("diff", help="triples in versioned graph A but not in B")
    p.add_argument("store", nargs="?")
    p.add_argument("vng_a", nargs="?")
    p.add_argument("vng_b", nargs="?")

    p = sub.add_parser("export-flat", help="print the store as flat N-Quads")
    p.add_argument("store", nargs="?")

    p = sub.add_parser("stats", help="print store statistics")
    p.add_argument("store", nargs="?")

    p = sub.add_parser("gen", help="write synthetic version files")
    p.add_argument("--out", required=True)
    p.add_argument("--products", type=int, required=True)
    p.add_argument("--graphs", type=int, required=True)
    p.add_argument("--versions", type=int, required=True)
    p.add_argument("--change-rate", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=1)
    return parser


def _cmd_init(args) -> int:
    (store_dir,) = _resolve_positionals([args.store], ["store"])
    if os.path.exists(os.path.join(store_dir, "CHECKSUM")):
        raise _UsageError(f"{store_dir} already holds a store")
    os.makedirs(store_dir, exist_ok=True)
    with _StoreLock(store_dir, exclusive=True, new=True):
        save_snapshot(Store(), store_dir)
    print(f"initialized empty store at {store_dir}")
    return 0


def _cmd_load(args) -> int:
    store_dir, path = _resolve_positionals([args.store, args.file], ["store", "file"])
    with open(path, "rb") as fh:
        data = fh.read()
    doc = parse_nquads(data, require_graph=True)
    with _StoreLock(store_dir, exclusive=True):
        store = load_snapshot(store_dir)
        report = store.ingest_version(doc, label=args.label)
        save_snapshot(store, store_dir)
    print(
        f"version={report.ordinal} vngs={len(report.minted_vngs)} "
        f"quads={report.quad_count} new-entries={report.new_entry_count} "
        f"duplicates={report.duplicate_count}"
    )
    return 0


def _decode(data: bytes, source: str) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _UsageError(f"{source} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _vng_argument(text: str):
    try:
        return iri(text)
    except ValueError as exc:
        raise _UsageError(f"not a versioned named graph: {exc}") from None


def _cmd_query(args) -> int:
    store_dir, path = _resolve_positionals([args.store, args.file], ["store", "file"])
    # The lexer ends a line at LF, CR or CRLF, so a file and stdin read alike.
    if path == "-":
        text = _decode(sys.stdin.buffer.read(), "stdin")
    else:
        with open(path, "rb") as fh:
            text = _decode(fh.read(), path)
    with _StoreLock(store_dir, exclusive=False):
        store = load_snapshot(store_dir)
    table = execute_query(store, text)
    sys.stdout.write(table.to_csv() if args.format == "csv" else table.to_tsv())
    return 0


def _cmd_diff(args) -> int:
    store_dir, vng_a, vng_b = _resolve_positionals(
        [args.store, args.vng_a, args.vng_b], ["store", "vng_a", "vng_b"]
    )
    a, b = _vng_argument(vng_a), _vng_argument(vng_b)
    with _StoreLock(store_dir, exclusive=False):
        store = load_snapshot(store_dir)
    triples = store.diff_vng(a, b)
    lines = sorted(
        f"{serialize_term(s)} {serialize_term(p)} {serialize_term(o)} ."
        for s, p, o in triples
    )
    for line in lines:
        print(line)
    return 0


def _cmd_export_flat(args) -> int:
    (store_dir,) = _resolve_positionals([args.store], ["store"])
    with _StoreLock(store_dir, exclusive=False):
        store = load_snapshot(store_dir)
    sys.stdout.write(serialize_nquads(store.export_flat()))
    return 0


def _cmd_stats(args) -> int:
    (store_dir,) = _resolve_positionals([args.store], ["store"])
    with _StoreLock(store_dir, exclusive=False):
        store = load_snapshot(store_dir)
    s = store.stats()
    print(
        f"versions={s.version_count} graphs={s.graph_count} vngs={s.vng_count} "
        f"entries={s.entry_count} flat-quads={s.flat_quad_count} "
        f"metadata-triples={s.metadata_triple_count}"
    )
    return 0


def _cmd_gen(args) -> int:
    from . import gen as genmod

    try:
        cfg = genmod.GenConfig(
            products=args.products,
            graphs=args.graphs,
            versions=args.versions,
            change_rate=args.change_rate,
            seed=args.seed,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    paths = genmod.write_version_files(cfg, args.out)
    print(f"wrote {len(paths)} version files under {args.out}")
    return 0


_COMMANDS = {
    "init": _cmd_init,
    "load": _cmd_load,
    "query": _cmd_query,
    "diff": _cmd_diff,
    "export-flat": _cmd_export_flat,
    "stats": _cmd_stats,
    "gen": _cmd_gen,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    command = args.command
    try:
        return _COMMANDS[command](args)
    except _UsageError as exc:
        print(f"converg {command}: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"converg {command}: file not found: {exc.filename}", file=sys.stderr)
        return 1
    except _USER_ERRORS as exc:
        print(f"converg {command}: {exc}", file=sys.stderr)
        return 1
    except (SnapshotError, OSError) as exc:
        print(f"converg {command}: {exc}", file=sys.stderr)
        return 2
    except ConvergError as exc:
        print(f"converg {command}: {exc}", file=sys.stderr)
        return 2


def script_entry():
    sys.exit(main())
