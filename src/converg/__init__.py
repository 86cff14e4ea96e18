"""Embedded concurrent-versioned quad store.

Each bulk load becomes one version; per-(graph, triple) bitmaps record
which versions contain which quads, and the query engine answers a SPARQL
subset across every version in a single execution.

Importing the package loads the storage layers only (errors, model,
dictionary, nquads, store). The query engine and the parser
(`execute_query`, `eval_oracle`, `ResultTable`, `parse_query`,
`validate_and_name`) and the synthetic generator (`GenConfig`,
`generate_version`, `write_version_files`) resolve on first use, so a
process that only loads versions never compiles them.
"""

import importlib

from .dictionary import TermDictionary
from .errors import (
    ConvergError,
    DictionaryError,
    EvalError,
    IngestError,
    ParseError,
    QueryValidationError,
    SnapshotError,
    UnknownVngError,
    UnsupportedQueryError,
)
from .model import (
    Quad,
    Term,
    VngRecord,
    blank,
    iri,
    literal,
    mint_vng_iri,
    version_iri,
)
from .nquads import ParsedDocument, parse_nquads, serialize_nquads, serialize_term
from .store import IngestReport, Store, StoreStats, load_snapshot, save_snapshot

__version__ = "0.1.0"

__all__ = [
    "ConvergError",
    "DictionaryError",
    "EvalError",
    "GenConfig",
    "IngestError",
    "IngestReport",
    "ParseError",
    "ParsedDocument",
    "Quad",
    "QueryValidationError",
    "ResultTable",
    "SnapshotError",
    "Store",
    "StoreStats",
    "Term",
    "TermDictionary",
    "UnknownVngError",
    "UnsupportedQueryError",
    "VngRecord",
    "blank",
    "eval_oracle",
    "execute_query",
    "generate_version",
    "iri",
    "literal",
    "load_snapshot",
    "mint_vng_iri",
    "parse_nquads",
    "parse_query",
    "save_snapshot",
    "serialize_nquads",
    "serialize_term",
    "validate_and_name",
    "version_iri",
    "write_version_files",
]

_LAZY = {
    "ResultTable": "engine",
    "eval_oracle": "engine",
    "execute_query": "engine",
    "parse_query": "sparql",
    "validate_and_name": "sparql",
    "GenConfig": "gen",
    "generate_version": "gen",
    "write_version_files": "gen",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
