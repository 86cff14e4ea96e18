"""converg benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload bulk-load --seed 1 --seconds 20 --trace 0

Run from the root of a converg checkout; the program is imported from its
`src/`. Workloads: bulk-load, query-mix, cli-versions (see workloads.py).
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
and the tracing overhead. `--size tiny` is a seconds-long smoke size.

The last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}. The lines before it give each metric with its sample count and
tail percentile, and the environment. The same, with every error and every
latency sample, goes to .perfbench/results-<workload>-seed<seed>-trace<t>.json,
and a traced run's spans to .perfbench/spans-<workload>-seed<seed>.jsonl.
Exit code 0 means
every operation was attempted and answered correctly; 1 means some
operation failed; 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("bulk-load", "query-mix", "cli-versions")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        # Like the console script: no -O, so Store.ingest_version runs the
        # dictionary's check_bijection on every load.
        "python_optimize": sys.flags.optimize,
        "flush_policy": "save_snapshot fsyncs each snapshot file once",
        "reads": "served from the OS page cache; latencies are this machine's, not a disk's",
        "load": "one process, one closed-loop client; CLI children one at a time",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "converg", "__init__.py")):
        print(f"perfbench: no converg sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import Bench

    bench = Bench(ROOT, args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    notes: dict = {}
    try:
        bench.run()
        if args.trace:
            metrics = bench.per_layer()
        else:
            metrics, notes = bench.end_to_end()
    finally:
        bench.close()

    env = environment(args.seed)
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        bench.tracer.dump(os.path.join(out_dir, f"spans-{stem}.jsonl"))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    print("env: " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    for message in bench.errors:
        print(f"error: {message}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(out_dir, f"results-{stem}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(
            dict(result, workload=args.workload, seconds=args.seconds, size=args.size,
                 environment=env, notes=notes, units=bench.units, errors=bench.errors,
                 samples_ms={"load": bench.load_ms, **bench.query_ms}),
            fh,
            indent=1,
        )
    print(json.dumps(result))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
