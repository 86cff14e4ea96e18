"""Embedded concurrent-versioned quad store.

Each bulk load becomes one version; per-(graph, triple) bitmaps record
which versions contain which quads, and the query engine answers a SPARQL
subset across every version in a single execution.
"""

from .dictionary import TermDictionary
from .engine import ResultTable, eval_oracle, execute_query
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
from .gen import GenConfig, generate_version, write_version_files
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
from .sparql import parse_query, validate_and_name
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
