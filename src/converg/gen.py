"""Deterministic synthetic dataset generator.

Shapes data after the product/rating slice of the Berlin SPARQL benchmark
vocabulary: every graph asserts, for every product, one rdf:type triple and
one integer rating. Version 1 draws ratings uniformly; later versions
re-roll each rating independently with a configurable probability.

Randomness comes from a splitmix64-style hash chain: the state after
(seed, kind) is mixed with the version, then the graph, then the product;
kind 1 draws re-rolls and kind 2 ratings. A call computes each state it
reaches once, so a draw costs one mix, and any single version is still
generated without its predecessors. The same configuration always gives
the same bytes. How a benchmark dump would really be split into graphs is
anyone's guess; the graphs/products split here is simply a parameter.
"""

from __future__ import annotations

import os

from .model import RDF_TYPE, XSD, Frozen, Quad, Term, iri, literal
from .nquads import ParsedDocument, serialize_nquads

BSBM_NS = "http://www4.wiwiss.fu-berlin.de/bizer/bsbm/"
RATING_PREDICATE = iri(BSBM_NS + "v01/vocabulary/rating2")
PRODUCT_CLASS = iri(BSBM_NS + "v01/vocabulary/Product")
GRAPH_NS = "urn:bsbm:graph:"

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class GenConfig(Frozen):
    __slots__ = _fields = ("products", "graphs", "versions", "change_rate", "rating_range", "seed")

    def __init__(
        self,
        products: int,
        graphs: int,
        versions: int,
        change_rate: float,
        rating_range: tuple[int, int] = (1, 100),
        seed: int = 1,
    ):
        if products < 1 or graphs < 1 or versions < 1:
            raise ValueError("products, graphs, and versions must be positive")
        if not 0.0 <= change_rate <= 1.0:
            raise ValueError("change_rate must be within [0, 1]")
        lo, hi = rating_range
        if lo > hi:
            raise ValueError("rating_range low bound exceeds high bound")
        super().__init__(products, graphs, versions, change_rate, rating_range, seed)


def _mix(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _ratings(cfg: GenConfig, ordinal: int, g: int, roll: int, draw: int) -> list[int]:
    """Graph `g`'s ratings in version `ordinal`, in product order. All products
    walk back together, a version a step, to the one that last re-rolled each;
    version 1 always rolls. Modulo bias is irrelevant at these spans."""
    lo, hi = cfg.rating_range
    threshold = cfg.change_rate * 2.0**64  # float(x) < this iff x / 2**64 < rate
    ratings, pending, m = [0] * cfg.products, range(1, cfg.products + 1), ordinal
    while pending:
        rolled, drawn = _mix(_mix(roll ^ m) ^ g), _mix(_mix(draw ^ m) ^ g)
        kept = []
        for p in pending:
            if m > 1 and not float(_mix(rolled ^ p)) < threshold:
                kept.append(p)
            else:
                ratings[p - 1] = lo + _mix(drawn ^ p) % (hi - lo + 1)
        pending, m = kept, m - 1
    return ratings


def generate_version(cfg: GenConfig, ordinal: int) -> ParsedDocument:
    """Quads of one version: two per (graph, product), graphs in order."""
    if not 1 <= ordinal <= cfg.versions:
        raise ValueError(f"ordinal {ordinal} outside 1..{cfg.versions}")
    roll, draw = (_mix(_mix(cfg.seed & _MASK64) ^ kind) for kind in (1, 2))
    products = [iri(f"{BSBM_NS}v01/instances/Product{p}") for p in range(1, cfg.products + 1)]
    literals: dict[int, Term] = {}
    quads: list[Quad] = []
    for g in range(1, cfg.graphs + 1):
        graph = iri(f"{GRAPH_NS}{g}")
        for product, rating in zip(products, _ratings(cfg, ordinal, g, roll, draw)):
            if rating not in literals:
                literals[rating] = literal(str(rating), datatype=XSD + "integer")
            quads.append(Quad(product, RDF_TYPE, PRODUCT_CLASS, graph))
            quads.append(Quad(product, RATING_PREDICATE, literals[rating], graph))
    return ParsedDocument(quads)


def write_version_files(cfg: GenConfig, out_dir) -> list[str]:
    """Write v0001.nq .. vNNNN.nq under `out_dir`; returns the paths."""
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for ordinal in range(1, cfg.versions + 1):
        path = os.path.join(out_dir, f"v{ordinal:04d}.nq")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(serialize_nquads(generate_version(cfg, ordinal).quads))
        paths.append(path)
    return paths
