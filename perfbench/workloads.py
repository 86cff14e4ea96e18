"""The benchmark's three workloads over one converg checkout.

Each workload is one closed-loop client in one process; CLI children run one
at a time. Every workload is a whole session (load versions, save and open a
snapshot, ask the five query classes), so every end-to-end metric is measured
on each; the workloads differ in the share of each operation and in the
interface:

- bulk-load: library. Each pass parses and ingests every version into a
  fresh store, saves and opens it, then reads it back with one query of
  each class. Loading is most of the time.
- query-mix: library. Set-up also ingests every generated version into the
  store the loop queries. Each cycle asks the five classes in a fixed order;
  after each query it loads the next few versions into a side store, which
  starts afresh after the last version. Queries are most of the time.
- cli-versions: separate `converg` processes. Each sequence runs `init`,
  then per version one `load` and two `query`s, the query classes taken in
  turn. Interpreter start-up and snapshot rewrites are most of the time.

Every metric's samples are spread over the whole timed loop, so each one
sees the same mix of fast and slow periods of a shared machine.
Timed loops run whole units (pass, cycle, sequence) until `--seconds` have
passed and at least `min_units` units are done. Every answer is checked
against oracle.Expected; a wrong answer, an exception or a non-zero exit
counts as a failed operation.
"""

from __future__ import annotations

import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass

from converg import GenConfig, Store, execute_query, generate_version, iri, load_snapshot, parse_nquads
from converg import save_snapshot, serialize_nquads

from oracle import CLASSES, Expected, digest, query_text, render
from tracing import (
    ATTRS,
    END,
    NAME,
    PARENT,
    START,
    Tracer,
    layer_of,
    patch_engine,
    self_times_ns,
)

HERE = os.path.dirname(os.path.abspath(__file__))
CHANGE_RATE = 0.1
SETUP_REPEATS = 3
SIDE_LOADS_PER_QUERY = 4
# Latencies are reported at p90, not p50. The 2-vCPU machine of BASELINE.md
# runs at two speeds about 1.7x apart, switching every 0.2-6 s, and the slow
# share of a run ranged from 10% to 90%: a p50 jumps between the two speeds
# from run to run, while a p90 stays on the slow one.
LATENCY_PCT = 90
STARTUP_PROBES = 5
CHILD_TIMEOUT_S = 120
TAIL_CANDIDATES = (50, 75, 90, 95, 99, 99.9)
SELF_LAYERS = ("nquads", "store", "snapshot", "sparql", "engine", "cli", "bench")
_LAUNCH = "from converg.cli import script_entry; script_entry()"


@dataclass(frozen=True)
class Shape:
    versions: int
    graphs: int
    products: int
    min_units: int


SIZES = {
    "full": {
        "bulk-load": Shape(versions=100, graphs=2, products=50, min_units=2),
        "query-mix": Shape(versions=100, graphs=4, products=25, min_units=5),
        "cli-versions": Shape(versions=20, graphs=10, products=125, min_units=2),
    },
    # Smoke-test size for the benchmark's own tests; three versions are
    # enough for cli-versions to ask every query class.
    "tiny": {
        "bulk-load": Shape(versions=3, graphs=2, products=3, min_units=1),
        "query-mix": Shape(versions=3, graphs=2, products=3, min_units=1),
        "cli-versions": Shape(versions=3, graphs=2, products=3, min_units=1),
    },
}


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * pct / 100)) - 1]


def tail_percentile(n: int) -> float:
    """Highest candidate percentile with at least ten of `n` samples beyond it."""
    fitting = [p for p in TAIL_CANDIDATES if n - math.ceil(n * p / 100) >= 10]
    return fitting[-1] if fitting else TAIL_CANDIDATES[0]


def tree_bytes(path: str) -> int:
    """Bytes in a store directory, leaving out the lock file."""
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            if name != ".lock":
                total += os.path.getsize(os.path.join(dirpath, name))
    return total


class Bench:
    def __init__(self, root: str, workload: str, seed: int, seconds: float, trace: bool, size: str):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.shape = SIZES[size][workload]
        self.cfg = GenConfig(
            products=self.shape.products,
            graphs=self.shape.graphs,
            versions=self.shape.versions,
            change_rate=CHANGE_RATE,
            seed=seed,
        )
        self.tracer = Tracer(enabled=trace)
        self.rng = random.Random(seed)
        self.work = os.path.join(root, ".perfbench", f"work-{workload}-{os.getpid()}")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.recording = False  # end-to-end samples are taken only in untraced timed loops
        self.load_ms: list[float] = []
        self.load_quads: list[int] = []
        self.query_ms: dict[str, list[float]] = {c: [] for c in CLASSES}
        self.setup_s: list[float] = []
        self.child_rss_mib: list[float] = []
        self.cli_load_cpu_ms: list[float] = []
        self.startup_ms: list[float] = []
        self.units: dict[str, list[float]] = {"untraced": [], "traced": []}
        self.store_bytes = 0  # snapshot bytes at the end of the run
        self.build_bytes_written = 0  # bytes all saves wrote while building the last store
        self.input_bytes = 0
        self.setup_end = 0  # first span index after set-up
        self.final_store_dir = ""
        self.layer_counts: dict[str, float] = {}
        self.exp = Expected()
        self.paths: list[str] = []
        self.blobs: list[bytes] = []
        self.store: Store | None = None  # the store the query classes read
        self.side: Store | None = None  # query-mix: the store its loads go to

    # ----------------------------------------------------------- bookkeeping

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.fail(message)
        return ok

    # ----------------------------------------------------------------- set-up

    def setup(self) -> None:
        """Generate and write every version file SETUP_REPEATS times; for
        query-mix, also ingest the documents into the store it queries.

        The generator is deterministic, so every repetition must write the
        same bytes; the last one's documents feed the oracle.
        """
        inputs = os.path.join(self.work, "inputs")
        first_digest = None
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            exp, paths, blobs = Expected(), [], []
            store = Store() if self.workload == "query-mix" else None
            os.makedirs(inputs, exist_ok=True)
            for m in range(1, self.cfg.versions + 1):
                with self.tracer.span("gen.write"):
                    with self.tracer.span("gen.generate"):
                        doc = generate_version(self.cfg, m)
                    with self.tracer.span("nquads.serialize"):
                        data = serialize_nquads(doc.quads).encode("utf-8")
                    path = os.path.join(inputs, f"v{m:04d}.nq")
                    with open(path, "wb") as fh:
                        fh.write(data)
                if store is not None:
                    store.ingest_version(doc)
                exp.add_version(doc)
                paths.append(path)
                blobs.append(data)
            self.setup_s.append(time.perf_counter() - start)
            run_digest = digest(b"".join(blobs))
            self.check(first_digest in (None, run_digest), "generator output differs between set-up repetitions")
            first_digest = run_digest
            self.exp, self.paths, self.blobs, self.store = exp, paths, blobs, store
        self.input_bytes = sum(len(b) for b in self.blobs)
        self.setup_end = len(self.tracer.spans)

    # ------------------------------------------------------- library operations

    def lib_load(self, store: Store, k: int) -> float:
        exp = self.exp
        self.attempted += 1
        try:
            with self.tracer.begin_op("load", quads=exp.quads[k - 1]):
                start = time.perf_counter()
                with self.tracer.span("nquads.parse"):
                    doc = parse_nquads(self.blobs[k - 1], require_graph=True)
                with self.tracer.span("store.ingest"):
                    report = store.ingest_version(doc)
                elapsed = time.perf_counter() - start
        except Exception as exc:  # a failed load is counted, and the run goes on
            self.fail(f"library load of version {k}: {exc!r}")
            return 0.0
        got = (report.ordinal, report.quad_count, report.new_entry_count, report.duplicate_count, len(report.minted_vngs))
        want = (k, exp.quads[k - 1], exp.new_entries[k - 1], 0, len(exp.versions[k - 1]))
        if self.check(got == want, f"load report of version {k}: {got} != {want}") and self.recording:
            self.load_ms.append(elapsed * 1e3)
            self.load_quads.append(exp.quads[k - 1])
        return elapsed

    def lib_query(self, store: Store, cls: str, k: int) -> float:
        params = self.params(cls, k)
        want, rows = self.exp.answer(cls, k, params)
        self.attempted += 1
        try:
            with self.tracer.begin_op("query." + cls) as op:
                start = time.perf_counter()
                with self.tracer.span("engine.execute_query"):
                    table = execute_query(store, query_text(cls, params))
                with self.tracer.span("engine.to_tsv"):
                    out = table.to_tsv()
                elapsed = time.perf_counter() - start
                op["rows"] = len(table.rows)
        except Exception as exc:
            self.fail(f"library {cls}: {exc!r}")
            return 0.0
        ok = self.check(digest(out.encode("utf-8")) == want, f"library {cls} answer differs ({len(table.rows)} rows, want {rows})")
        if cls == "graph_diff":
            a, b = (iri(f"urn:converg:vng:{c}") for c in params)
            got = {tuple(render(t) for t in triple) for triple in store.diff_vng(a, b)}
            ok = self.check(got == self.exp.diff_rows(params), f"Store.diff_vng{params} disagrees with the oracle") and ok
        if ok and self.recording:
            self.query_ms[cls].append(elapsed * 1e3)
        return elapsed

    def save_open(self, store: Store, directory: str) -> float:
        """Save, reopen and compare; returns the busy time."""
        self.attempted += 1
        try:
            with self.tracer.begin_op("snapshot"):
                start = time.perf_counter()
                with self.tracer.span("snapshot.save"):
                    save_snapshot(store, directory)
                with self.tracer.span("snapshot.open"):
                    reopened = load_snapshot(directory)
                elapsed = time.perf_counter() - start
        except Exception as exc:
            self.fail(f"save/open: {exc!r}")
            return 0.0
        self.check(reopened == store, "load_snapshot of the saved store differs from the store")
        self.store_bytes = tree_bytes(directory)
        self.build_bytes_written = self.store_bytes
        self.final_store_dir = directory
        return elapsed

    def params(self, cls: str, k: int):
        """graph_diff takes two versioned graphs drawn from the seed: the same
        graph at two versions when there are two, else two graphs."""
        if cls != "graph_diff":
            return None
        vngs = self.exp.vng_counters(k)
        counter, graph, ordinal = self.rng.choice(vngs)
        others = [v for v in vngs if v[1] == graph and v[2] != ordinal] or [v for v in vngs if v[0] != counter]
        return (counter, self.rng.choice(others)[0])

    # --------------------------------------------------------- CLI operations

    def spawn(self, argv: list[str], stdin: bytes = b""):
        """Run one child to completion; (exit code, stdout, wall s, rusage)."""
        with open(os.path.join(self.work, "child.err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, env=self.env)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                proc.stdin.write(stdin)
                proc.stdin.close()
                out = proc.stdout.read()
                proc.stdout.close()
                _pid, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - start
        self.child_rss_mib.append(usage.ru_maxrss / 1024)
        return proc.returncode, out, elapsed, usage

    def cli(self, args: list[str], stdin: bytes = b""):
        """One `converg` process, traced through cli_child.py when tracing."""
        traced = self.tracer.enabled
        spans = os.path.join(self.work, "child-spans.jsonl")
        if traced:
            argv = [sys.executable, os.path.join(HERE, "cli_child.py")] + args
            self.env["PERFBENCH_SPANS"] = spans
        else:
            argv = [sys.executable, "-c", _LAUNCH] + args
            self.env.pop("PERFBENCH_SPANS", None)
        with self.tracer.span("cli." + args[0]):
            result = self.spawn(argv, stdin)
            if traced and os.path.exists(spans):
                self.tracer.adopt(spans, self.tracer.current())
                os.unlink(spans)
        if result[0] != 0:
            with open(os.path.join(self.work, "child.err"), "rb") as fh:
                self.fail(f"converg {' '.join(args)} exited {result[0]}: {fh.read()[-300:]!r}")
        return result

    def cli_init(self, directory: str) -> float:
        self.attempted += 1
        shutil.rmtree(directory, ignore_errors=True)
        with self.tracer.begin_op("init"):
            return self.cli(["init", directory])[2]

    def cli_load(self, directory: str, k: int) -> float:
        exp = self.exp
        self.attempted += 1
        with self.tracer.begin_op("load", quads=exp.quads[k - 1]):
            code, out, elapsed, usage = self.cli(["load", directory, self.paths[k - 1]])
        if code != 0:
            return elapsed
        self.cli_load_cpu_ms.append((usage.ru_utime + usage.ru_stime) * 1e3)
        want = (
            f"version={k} vngs={len(exp.versions[k - 1])} quads={exp.quads[k - 1]} "
            f"new-entries={exp.new_entries[k - 1]} duplicates=0\n"
        )
        if self.check(out.decode("utf-8", "replace") == want, f"converg load v{k} printed {out[:200]!r}"):
            if self.recording:
                self.load_ms.append(elapsed * 1e3)
                self.load_quads.append(exp.quads[k - 1])
        return elapsed

    def cli_query(self, directory: str, cls: str, k: int) -> float:
        params = self.params(cls, k)
        want, rows = self.exp.answer(cls, k, params)
        self.attempted += 1
        with self.tracer.begin_op("query." + cls) as op:
            code, out, elapsed, _usage = self.cli(["query", directory, "-"], query_text(cls, params).encode("utf-8"))
            op["rows"] = max(out.count(b"\n") - 1, 0)
        if code == 0 and self.check(digest(out) == want, f"converg query {cls} at v{k} differs (want {rows} rows)"):
            if self.recording:
                self.query_ms[cls].append(elapsed * 1e3)
        return elapsed

    def cli_check(self) -> None:
        """The CLI reads the same inputs as the library into the same answers."""
        directory = os.path.join(self.work, "cli-check")
        self.cli_init(directory)
        self.cli_load(directory, 1)
        self.cli_query(directory, "count_by_version", 1)

    def warm_cli(self) -> None:
        """Write the bytecode cache, then time bare `import converg.cli` processes."""
        argv = [sys.executable, "-c", "import converg.cli"]
        self.spawn(argv)
        for _ in range(STARTUP_PROBES):
            with self.tracer.span("cli.startup"):
                code, _out, elapsed, _usage = self.spawn(argv)
            self.attempted += 1
            if self.check(code == 0, "import converg.cli failed"):
                self.startup_ms.append(elapsed * 1e3)

    # ------------------------------------------------------------- timed loops

    def timed(self, unit) -> None:
        """Run `unit` for the run's seconds. A traced run alternates untraced
        and traced units for twice as long, so that both see the same machine
        and their difference is the tracing overhead."""
        phases = ("untraced", "traced") if self.trace else ("untraced",)
        self.recording = not self.trace
        deadline = time.perf_counter() + self.seconds * len(phases)
        i = 0
        while min(len(self.units[p]) for p in phases) < self.shape.min_units or time.perf_counter() < deadline:
            phase = phases[i % len(phases)]
            self.tracer.enabled = phase == "traced"
            self.units[phase].append(unit())
            i += 1
        self.tracer.enabled = self.trace
        self.recording = False

    def bulk_pass(self) -> float:
        store = Store()
        busy = sum(self.lib_load(store, k) for k in range(1, self.cfg.versions + 1))
        busy += self.save_open(store, os.path.join(self.work, "store"))
        self.store = store
        return busy + self.query_cycle()

    def query_cycle(self) -> float:
        k = self.store.version_count
        return sum(self.lib_query(self.store, cls, k) for cls in CLASSES)

    def mix_cycle(self) -> float:
        busy = 0.0
        for cls in CLASSES:
            busy += self.lib_query(self.store, cls, self.cfg.versions)
            for _ in range(SIDE_LOADS_PER_QUERY):
                if self.side.version_count == self.cfg.versions:
                    self.side = Store()
                busy += self.lib_load(self.side, self.side.version_count + 1)
        return busy

    def cli_sequence(self) -> float:
        directory = os.path.join(self.work, "store")
        busy = self.cli_init(directory)
        written = tree_bytes(directory)
        for k in range(1, self.cfg.versions + 1):
            busy += self.cli_load(directory, k)
            written += tree_bytes(directory)  # each load rewrites the whole snapshot
            for i in (2 * k - 2, 2 * k - 1):
                busy += self.cli_query(directory, CLASSES[i % len(CLASSES)], k)
        self.final_store_dir = directory
        self.store_bytes = tree_bytes(directory)
        self.build_bytes_written = written
        return busy

    # -------------------------------------------------------------- workloads

    def run(self) -> None:
        os.makedirs(self.work, exist_ok=True)
        if self.trace:
            patch_engine(self.tracer)
        self.setup()
        self.warm_cli()
        getattr(self, "_" + self.workload.replace("-", "_"))()
        if self.trace:
            self.tracer.enabled = False
            self.measure_store()

    def _bulk_load(self):
        # Untimed warm-up: a few loads, and one query of each class on their store.
        self.store = Store()
        for k in range(1, min(3, self.cfg.versions) + 1):
            self.lib_load(self.store, k)
        self.query_cycle()
        self.timed(self.bulk_pass)
        self.cli_check()

    def _query_mix(self):
        self.save_open(self.store, os.path.join(self.work, "store"))
        self.side = Store()
        self.query_cycle()
        self.timed(self.mix_cycle)
        self.cli_check()

    def _cli_versions(self):
        self.timed(self.cli_sequence)

    def measure_store(self) -> None:
        """Retained bytes of the final store as opened from its snapshot."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            store = load_snapshot(self.final_store_dir)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        stats = store.stats()
        k = stats.version_count
        self.check(
            (stats.entry_count, stats.flat_quad_count) == (self.exp.entries(k), self.exp.flat_quads(k)),
            f"final store holds {stats.entry_count} entries / {stats.flat_quad_count} quads",
        )
        self.layer_counts = {
            "store.bytes_per_entry": retained / stats.entry_count,
            "dictionary.terms": len(store.dictionary),
            "store.flat_per_entry": stats.flat_quad_count / stats.entry_count,
        }

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    # ---------------------------------------------------------------- metrics

    def end_to_end(self) -> tuple[dict, dict]:
        """(metrics, notes) of the untraced run."""
        n_min = self.min_load_samples()
        tail = tail_percentile(n_min)
        if self.workload == "cli-versions":
            peak = max(self.child_rss_mib)
        else:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "load_quads_per_s": (sum(self.load_quads) / (sum(self.load_ms) / 1e3), "quads/s"),
            f"load_p{LATENCY_PCT}_ms": (percentile(self.load_ms, LATENCY_PCT), "ms"),
            "load_tail_ms": (percentile(self.load_ms, tail), "ms"),
        }
        for cls in CLASSES:
            metrics[f"{cls}_p{LATENCY_PCT}_ms"] = (percentile(self.query_ms[cls], LATENCY_PCT), "ms")
        metrics["peak_rss_mib"] = (peak, "MiB")
        metrics["store_bytes_per_quad"] = (self.store_bytes / self.exp.flat_quads(self.cfg.versions), "B/quad")
        notes = {
            "load_tail_ms": f"p{tail:g} of {len(self.load_ms)} samples",
            f"load_p{LATENCY_PCT}_ms": f"{len(self.load_ms)} samples",
            "setup_s": f"median of {len(self.setup_s)} set-ups",
            "peak_rss_mib": "max of CLI children" if self.workload == "cli-versions" else "benchmark process",
        }
        for cls in CLASSES:
            notes[f"{cls}_p{LATENCY_PCT}_ms"] = f"{len(self.query_ms[cls])} samples"
        return metrics, notes

    def min_load_samples(self) -> int:
        """Load samples every run is guaranteed, which fixes the tail percentile."""
        if self.workload == "query-mix":
            return SIDE_LOADS_PER_QUERY * len(CLASSES) * self.shape.min_units
        return self.cfg.versions * self.shape.min_units

    def per_layer(self) -> dict:
        """Per-layer metrics of the traced run, from its spans."""
        spans = self.tracer.spans
        own = self_times_ns(spans)
        roots: list[int] = []
        for i, s in enumerate(spans):
            roots.append(i if s[PARENT] is None else roots[s[PARENT]])

        def ms(i):
            return (spans[i][END] - spans[i][START]) / 1e6

        traced = range(self.setup_end, len(spans))
        by_name: dict[tuple[str, str], list[int]] = {}
        for i in traced:
            root_name = spans[roots[i]][NAME]
            cls = root_name[len("op.query."):] if root_name.startswith("op.query.") else ""
            by_name.setdefault((spans[i][NAME], cls), []).append(i)

        def named(name, cls=""):
            found = by_name.get((name, cls), [])
            if not found:
                raise LookupError(f"no {name} spans {cls}")
            return found

        def med(name, cls=""):
            return statistics.median(ms(i) for i in named(name, cls))

        parses = named("nquads.parse")
        gen_per_setup = sum(ms(i) for i in range(self.setup_end) if spans[i][NAME] == "gen.write") / SETUP_REPEATS
        m = {
            "gen.write_ms": (gen_per_setup, "ms"),
            "nquads.parse_ms": (med("nquads.parse"), "ms"),
            "nquads.us_per_quad": (
                1e3 * sum(ms(i) for i in parses) / sum(spans[roots[i]][ATTRS]["quads"] for i in parses),
                "us",
            ),
            "store.ingest_ms": (med("store.ingest"), "ms"),
        }
        # Each load's report is checked equal to the oracle's count.
        m["store.new_entries"] = (statistics.mean(self.exp.new_entries), "count")
        m["store.flat_per_entry"] = (self.layer_counts["store.flat_per_entry"], "quads/entry")
        m["store.bytes_per_entry"] = (self.layer_counts["store.bytes_per_entry"], "B")
        m["dictionary.terms"] = (self.layer_counts["dictionary.terms"], "count")
        m["snapshot.save_ms"] = (med("snapshot.save"), "ms")
        m["snapshot.open_ms"] = (med("snapshot.open"), "ms")
        m["snapshot.bytes"] = (self.store_bytes, "B")
        m["snapshot.bytes_written"] = (self.build_bytes_written, "B")
        m["snapshot.write_amp"] = (self.build_bytes_written / self.input_bytes, "B/B")
        for cls in CLASSES:
            m[f"sparql.parse_ms.{cls}"] = (med("sparql.parse", cls), "ms")
            m[f"sparql.validate_ms.{cls}"] = (med("sparql.validate", cls), "ms")
            m[f"engine.execute_plan_ms.{cls}"] = (med("engine.execute_plan", cls), "ms")
            m[f"engine.table_ms.{cls}"] = (
                statistics.median(own[i] / 1e6 for i in named("engine.execute_query", cls)),
                "ms",
            )
            m[f"engine.to_tsv_ms.{cls}"] = (med("engine.to_tsv", cls), "ms")
            m[f"engine.rows_out.{cls}"] = (
                statistics.median(spans[roots[i]][ATTRS]["rows"] for i in named("engine.to_tsv", cls)),
                "rows",
            )
        m["cli.startup_ms"] = (statistics.median(self.startup_ms), "ms")
        m["cli.load_cpu_ms"] = (statistics.median(self.cli_load_cpu_ms), "ms")
        m["cli.child_maxrss_mib"] = (max(self.child_rss_mib), "MiB")
        layer_self: dict[str, int] = {}
        for i in traced:
            layer = layer_of(spans[i][NAME])
            layer_self[layer] = layer_self.get(layer, 0) + own[i]
        total = sum(layer_self.values())
        for layer in SELF_LAYERS:
            m[f"self_pct.{layer}"] = (100 * layer_self.get(layer, 0) / total, "%")
        untraced = statistics.median(self.units["untraced"])
        m["trace.overhead_pct"] = (100 * (statistics.median(self.units["traced"]) / untraced - 1), "%")
        return m
