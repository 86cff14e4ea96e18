"""Reachability gate: every line of the condensed evaluator runs in a fixed
slice of randomized differential cases, so that the oracle checks each fast
path on random stores.

The condensed evaluator is `engine.py` above its oracle section. Its
executable lines are read from the code objects' `co_lines()` in the running
interpreter, and the lines that run are recorded with `sys.settrace`. Only
function bodies count: module and class bodies run at import.
"""

import inspect
import logging
import random
import sys
import types

import converg.engine as engine
from randcases import run_differential_case

# Seeds of the slice, each run for CASES_PER_SEED cases. The stores are
# narrow: the lines are the same over wide bitmaps, and the oracle is slow
# on nested GRAPH blocks over a wide store.
SEEDS = (108, 109)
CASES_PER_SEED = 300

# Lines that may stay unrun: their source text, stripped, and why.
ALLOWED_UNRUN: dict[str, str] = {}


def _source_lines():
    with open(engine.__file__, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _oracle_start(lines) -> int:
    """The line number of the oracle section's header."""
    return next(n for n, text in enumerate(lines, 1) if text.startswith("# ---") and text.endswith(" oracle"))


def _executable(source: str, end: int) -> set[int]:
    """Lines before `end` that hold code of a function body."""
    found = set()
    stack = [compile(source, engine.__file__, "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        if code.co_flags & inspect.CO_OPTIMIZED:
            found.update(line for _start, _stop, line in code.co_lines() if line is not None and line < end)
    return found


def _run_traced(end: int) -> set[int]:
    """The lines before `end` of `engine.py` that run in the slice."""
    path = engine.__file__
    ran: set[int] = set()

    def local(frame, event, arg):
        ran.add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        code = frame.f_code
        if code.co_filename == path and code.co_firstlineno < end:
            ran.add(frame.f_lineno)
            return local
        return None

    previous = sys.gettrace()
    engine._count_literal.cache_clear()  # a count cached by earlier tests runs no line
    logging.disable(logging.WARNING)
    sys.settrace(calls)
    try:
        for seed in SEEDS:
            rng = random.Random(seed)
            for _ in range(CASES_PER_SEED):
                run_differential_case(rng, wide=False)
    finally:
        sys.settrace(previous)
        logging.disable(logging.NOTSET)
    return ran


def test_every_line_of_the_condensed_evaluator_runs_in_differential_cases():
    lines = _source_lines()
    end = _oracle_start(lines)
    executable = _executable("\n".join(lines) + "\n", end)
    unrun = sorted(
        n for n in executable - _run_traced(end) if lines[n - 1].strip() not in ALLOWED_UNRUN
    )
    assert not unrun, "lines no differential case ran:\n" + "\n".join(
        f"engine.py:{n}: {lines[n - 1].strip()}" for n in unrun
    )
    stale = set(ALLOWED_UNRUN) - {lines[n - 1].strip() for n in executable}
    assert not stale, f"allowed-unrun entries that are no line of the evaluator: {sorted(stale)}"
