import hashlib
import os
from collections import Counter

import pytest

from converg.gen import (
    BSBM_NS,
    GRAPH_NS,
    RATING_PREDICATE,
    GenConfig,
    generate_version,
    write_version_files,
)
from converg.model import XSD, iri
from converg.nquads import parse_nquads, serialize_nquads
from converg.store import Store, render_bitmap


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(products=0, graphs=1, versions=1, change_rate=0.0)
    with pytest.raises(ValueError):
        GenConfig(products=1, graphs=1, versions=1, change_rate=1.5)
    with pytest.raises(ValueError):
        GenConfig(products=1, graphs=1, versions=1, change_rate=0.5, rating_range=(9, 3))


def test_config_is_immutable_and_keeps_its_defaults():
    cfg = GenConfig(products=2, graphs=1, versions=2, change_rate=0.0)
    assert (cfg.rating_range, cfg.seed) == ((1, 100), 1)
    assert cfg == GenConfig(2, 1, 2, 0.0, (1, 100), 1) != GenConfig(2, 1, 2, 0.0, seed=2)
    with pytest.raises(AttributeError):
        cfg.seed = 2
    with pytest.raises(AttributeError):
        del cfg.products
    assert cfg.seed == 1
    assert repr(cfg) == (
        "GenConfig(products=2, graphs=1, versions=2, change_rate=0.0, rating_range=(1, 100), seed=1)"
    )


def test_zero_change_rate_repeats_version_one():
    cfg = GenConfig(products=2, graphs=1, versions=2, change_rate=0.0, seed=11)
    v1 = serialize_nquads(generate_version(cfg, 1).quads)
    v2 = serialize_nquads(generate_version(cfg, 2).quads)
    assert v1 == v2


def test_quads_per_version_is_two_per_product_and_graph():
    cfg = GenConfig(products=7, graphs=3, versions=2, change_rate=0.3, seed=2)
    doc = generate_version(cfg, 1)
    assert len(doc.quads) == 2 * 7 * 3
    by_graph = Counter(q.graph for q in doc.quads)
    assert by_graph == {iri(f"{GRAPH_NS}{g}"): 14 for g in (1, 2, 3)}


def test_same_config_is_byte_identical():
    cfg = GenConfig(products=5, graphs=2, versions=3, change_rate=0.4, seed=33)
    for ordinal in (1, 2, 3):
        a = serialize_nquads(generate_version(cfg, ordinal).quads)
        b = serialize_nquads(generate_version(cfg, ordinal).quads)
        assert a == b


def test_versions_are_generable_out_of_order():
    cfg = GenConfig(products=4, graphs=2, versions=4, change_rate=0.5, seed=9)
    direct = serialize_nquads(generate_version(cfg, 4).quads)
    for ordinal in (1, 2, 3):
        generate_version(cfg, ordinal)
    assert serialize_nquads(generate_version(cfg, 4).quads) == direct


def test_ordinal_bounds_checked():
    cfg = GenConfig(products=1, graphs=1, versions=2, change_rate=0.0)
    with pytest.raises(ValueError):
        generate_version(cfg, 0)
    with pytest.raises(ValueError):
        generate_version(cfg, 3)


def test_zero_change_rate_gives_all_ones_bitmaps():
    cfg = GenConfig(products=3, graphs=2, versions=4, change_rate=0.0, seed=5)
    store = Store()
    for ordinal in range(1, 5):
        store.ingest_version(generate_version(cfg, ordinal))
    rating_id = store.dictionary.lookup(RATING_PREDICATE)
    rating_bits = [bits for (_, _, p, _), bits in store.entries.items() if p == rating_id]
    assert len(rating_bits) == 6
    assert all(render_bitmap(bits, 4) == "1111" for bits in rating_bits)


def test_full_change_rate_density_is_near_uniform():
    # With re-rolls every version, each rating value should hold roughly a
    # 1/range share of all (graph, product, version) slots.
    cfg = GenConfig(
        products=50, graphs=2, versions=40, change_rate=1.0, rating_range=(1, 50), seed=17
    )
    store = Store()
    for ordinal in range(1, cfg.versions + 1):
        store.ingest_version(generate_version(cfg, ordinal))
    rating_id = store.dictionary.lookup(RATING_PREDICATE)
    slots = cfg.products * cfg.graphs * cfg.versions
    per_value: Counter = Counter()
    for (_, _, p, o), bits in store.entries.items():
        if p != rating_id:
            continue
        value = store.dictionary.decode(o).lexical
        per_value[value] += bits.bit_count()
    assert sum(per_value.values()) == slots
    span = cfg.rating_range[1] - cfg.rating_range[0] + 1
    uniform = 1.0 / span
    for value, bits in per_value.items():
        density = bits / slots
        assert 0.3 * uniform < density < 2.5 * uniform, (value, density)


def test_write_version_files(tmp_path):
    cfg = GenConfig(products=2, graphs=2, versions=3, change_rate=0.2, seed=4)
    paths = write_version_files(cfg, tmp_path)
    assert [os.path.basename(p) for p in paths] == ["v0001.nq", "v0002.nq", "v0003.nq"]
    store = Store()
    for path in paths:
        with open(path, "rb") as fh:
            doc = parse_nquads(fh.read(), require_graph=True)
        store.ingest_version(doc)
    stats = store.stats()
    assert stats.version_count == 3
    assert stats.vng_count == 6
    assert stats.flat_quad_count == 3 * 2 * 2 * 2
    integer = XSD + "integer"
    lo, hi = cfg.rating_range
    for _, _, _, o in store.entries:
        term = store.dictionary.decode(o)
        if term.datatype == integer:
            assert lo <= int(term.lexical) <= hi


# The generator's specification, written out draw by draw: every field of
# (seed, kind, version, graph, product) goes through its own mix, and a
# rating walks back one full derivation per version. generate_version must
# produce exactly these lines, however it shares the work.
_MASK64 = (1 << 64) - 1


def _reference_mix(x):
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _reference_derive(*fields):
    state = 0
    for field in fields:
        state = _reference_mix(state ^ (field & _MASK64))
    return state


def _reference_rating(cfg, ordinal, graph, product):
    lo, hi = cfg.rating_range
    m = ordinal
    while m > 1:
        if _reference_derive(cfg.seed, 1, m, graph, product) / float(1 << 64) < cfg.change_rate:
            break
        m -= 1
    return lo + _reference_derive(cfg.seed, 2, m, graph, product) % (hi - lo + 1)


def _reference_lines(cfg, ordinal):
    rdf_type = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
    lines = []
    for g in range(1, cfg.graphs + 1):
        for p in range(1, cfg.products + 1):
            product = f"<{BSBM_NS}v01/instances/Product{p}>"
            graph = f"<{GRAPH_NS}{g}>"
            rating = _reference_rating(cfg, ordinal, g, p)
            lines.append(f"{product} {rdf_type} <{BSBM_NS}v01/vocabulary/Product> {graph} .\n")
            lines.append(
                f'{product} <{BSBM_NS}v01/vocabulary/rating2> "{rating}"^^<{XSD}integer> {graph} .\n'
            )
    return "".join(lines)


@pytest.mark.parametrize(
    "cfg",
    [
        GenConfig(products=6, graphs=3, versions=12, change_rate=0.0, seed=3),
        GenConfig(products=6, graphs=3, versions=12, change_rate=1.0, seed=3),
        GenConfig(products=6, graphs=3, versions=12, change_rate=0.37, seed=3),
        GenConfig(products=5, graphs=2, versions=9, change_rate=0.3, seed=2**64 + 12345),
        GenConfig(products=5, graphs=2, versions=9, change_rate=0.3, seed=-77),
        GenConfig(products=5, graphs=2, versions=9, change_rate=0.4, rating_range=(7, 7)),
        GenConfig(products=5, graphs=2, versions=9, change_rate=0.4, rating_range=(-20, 5)),
        GenConfig(products=8, graphs=3, versions=1, change_rate=0.5, seed=5),
        GenConfig(products=8, graphs=1, versions=10, change_rate=0.2, seed=6),
        GenConfig(products=1, graphs=4, versions=10, change_rate=0.2, seed=6),
    ],
    ids=[
        "rate-0",
        "rate-1",
        "rate-0.37",
        "seed-above-2**64",
        "negative-seed",
        "single-rating",
        "negative-ratings",
        "one-version",
        "one-graph",
        "one-product",
    ],
)
def test_generated_versions_match_the_reference_draws(cfg):
    for ordinal in range(cfg.versions, 0, -1):
        assert serialize_nquads(generate_version(cfg, ordinal).quads) == _reference_lines(cfg, ordinal)


def test_generated_file_bytes_are_pinned(tmp_path):
    # Any rewrite of the generator must write these bytes again: the
    # benchmark and the acceptance workloads are defined by them.
    cfg = GenConfig(products=5, graphs=3, versions=6, change_rate=0.3, seed=11)
    paths = write_version_files(cfg, tmp_path)
    assert [os.path.basename(p) for p in paths] == [f"v000{v}.nq" for v in range(1, 7)]
    digest = hashlib.sha256()
    for path in paths:
        digest.update(os.path.basename(path).encode() + b"\n")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    assert digest.hexdigest() == "d9e98fa16146d8fbce33fa9261799a0746df99f54c1351a601dbb4a40fac7b14"
