"""In-memory spans recorded around calls into converg's layers.

A span is (name, start_ns, end_ns, parent, op, attrs). The layer of a span
is the part of its name before the first dot; ``op.*`` spans are the
benchmark's own operations and count as the ``bench`` layer. Clocks are
``time.perf_counter_ns`` (CLOCK_MONOTONIC on Linux), so spans written by a
CLI child process line up with the parent's timeline.

With tracing disabled, ``Tracer.span`` returns a shared no-op context, so
the untraced run pays one attribute test per call.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

NAME, START, END, PARENT, OP, ATTRS = range(6)

_NULL = contextlib.nullcontext({})


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        self.record = [name, 0, 0, tracer.stack[-1] if tracer.stack else None, tracer.op, attrs]

    def __enter__(self) -> dict:
        tracer = self.tracer
        tracer.stack.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[START] = time.perf_counter_ns()
        return self.record[ATTRS]

    def __exit__(self, *exc):
        self.record[END] = time.perf_counter_ns()
        self.tracer.stack.pop()
        return False


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0

    def span(self, name: str, **attrs):
        """Context manager yielding the span's attrs dict (a throwaway when off)."""
        return _Span(self, name, attrs) if self.enabled else _NULL

    def begin_op(self, kind: str, **attrs):
        """Root span of one benchmark operation; spans under it share its op id."""
        self.op += 1
        return self.span(f"op.{kind}", **attrs)

    def current(self):
        return self.stack[-1] if self.stack else None

    def adopt(self, path: str, parent) -> None:
        """Append spans a child process wrote to `path`, under span `parent`."""
        base = len(self.spans)
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                name, start, end, par, _op, attrs = json.loads(line)
                self.spans.append([name, start, end, parent if par is None else base + par, self.op, attrs])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def wrap(tracer: Tracer, owner, attr: str, name: str) -> None:
    """Replace owner.attr by a wrapper that records a span when tracing is on."""
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        with tracer.span(name):
            return fn(*args, **kwargs)

    setattr(owner, attr, traced)


def patch_engine(tracer: Tracer) -> None:
    """Spans for the stages `execute_query` calls through engine globals.

    What is left of an ``engine.execute_query`` span after these children
    is building and sorting the row tuples (``engine.table``).
    """
    from converg import engine

    wrap(tracer, engine, "parse_query", "sparql.parse")
    wrap(tracer, engine, "validate_and_name", "sparql.validate")
    wrap(tracer, engine, "execute_plan", "engine.execute_plan")


def patch_cli(tracer: Tracer) -> None:
    """Spans for every layer call the CLI commands make (used in a child)."""
    from converg import cli, engine, store

    patch_engine(tracer)
    wrap(tracer, cli, "parse_nquads", "nquads.parse")
    wrap(tracer, cli, "load_snapshot", "snapshot.open")
    wrap(tracer, cli, "save_snapshot", "snapshot.save")
    wrap(tracer, cli, "execute_query", "engine.execute_query")
    wrap(tracer, store.Store, "ingest_version", "store.ingest")
    wrap(tracer, engine.ResultTable, "to_tsv", "engine.to_tsv")


def layer_of(name: str) -> str:
    layer = name.split(".", 1)[0]
    return "bench" if layer == "op" else layer


def self_times_ns(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own
