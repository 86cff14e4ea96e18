"""Traced `converg` launcher for the benchmark's CLI children.

    PERFBENCH_SPANS=<file> python3 perfbench/cli_child.py <converg args...>

Runs `converg.cli.main` exactly as the console script does, with spans
around each layer call, and writes the spans to <file> as JSON lines. The
untraced runs start `converg.cli.script_entry` directly instead.
"""

import os
import sys

from tracing import Tracer, patch_cli


def main() -> int:
    tracer = Tracer(enabled=True)
    patch_cli(tracer)
    from converg.cli import main as converg_main

    try:
        return converg_main(sys.argv[1:])
    finally:
        tracer.dump(os.environ["PERFBENCH_SPANS"])


if __name__ == "__main__":
    sys.exit(main())
