import hashlib
import logging
import os

import pytest

from converg.model import XSD, iri, literal
from converg.nquads import parse_nquads
from converg.store import Store

# Unknown-graph queries log a warning by design; keep test output readable.
logging.getLogger("converg.engine").setLevel(logging.ERROR)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
QUERIES = os.path.join(FIXTURES, "queries")

HEIGHT = iri("urn:ex:height")
GR_LYON = iri("urn:ng:Gr-Lyon")
IGN = iri("urn:ng:IGN")

# The raw two-version dataset behind the buildings fixtures, as
# (subject local name, height lexical, graph) rows; tests derive expected
# values from these rows rather than from the code under test.
BUILDINGS_V1_ROWS = [
    ("bldg1", "10.5", GR_LYON),
    ("bldg2", "9.1", GR_LYON),
    ("bldg1", "11", IGN),
]
BUILDINGS_V2_ROWS = [
    ("bldg1", "10.5", GR_LYON),
    ("bldg3", "15", GR_LYON),
    ("bldg1", "10.5", IGN),
]


def row_triples(rows, graph):
    """Brute-force (s, p, o) set for one graph out of the raw rows."""
    return {
        (iri(f"urn:ex:{s}"), HEIGHT, literal(o, datatype=XSD + "decimal"))
        for s, o, g in rows
        if g == graph
    }


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def query_path(name: str) -> str:
    return os.path.join(QUERIES, name)


def read_fixture(name: str) -> str:
    with open(fixture_path(name), "r", encoding="utf-8") as fh:
        return fh.read()


def read_query(name: str) -> str:
    with open(query_path(name), "r", encoding="utf-8") as fh:
        return fh.read()


def rewrite_checksums(directory):
    """Make a snapshot's CHECKSUM match its files again after a test edited them."""
    lines = (directory / "CHECKSUM").read_text().splitlines()
    fixed = []
    for line in lines:
        name, _ = line.split(" ", 1)
        digest = hashlib.sha256((directory / name).read_bytes()).hexdigest()
        fixed.append(f"{name} {digest}")
    (directory / "CHECKSUM").write_text("".join(l + "\n" for l in fixed))


def build_buildings_store() -> Store:
    """Two versions of building heights asserted by two sources."""
    store = Store()
    store.ingest_version(parse_nquads(read_fixture("buildings_v1.nq")))
    store.ingest_version(parse_nquads(read_fixture("buildings_v2.nq")))
    return store


@pytest.fixture
def buildings_store() -> Store:
    return build_buildings_store()
