"""Reachability gates: every line of a piece of code runs in a fixed set of
cases, so that the cases check each of its paths.

- The condensed evaluator, `engine.py` above its oracle section, runs in a
  fixed slice of randomized differential cases, so that the oracle checks
  each fast path on random stores.
- The query lexer, `sparql.py`'s lexer section (`_lex` and its string
  helper), runs in the pinned lexer errors, the malformed query terms and
  the generated query texts, so that each branch is pinned by a case.
- The N-Quads reader in `nquads.py`, from the scanner's `_scan_term`
  through `parse_term`, `parse_nquads` and the term builder `_token_term`
  to its `_unescape`, runs in the pinned N-Quads and term errors, the edge
  lines and a fixed set of the generated documents that the scanner
  checks, so that each tier and each error is checked.

Executable lines are read from the code objects' `co_lines()` in the
running interpreter, and the lines that run are recorded with
`sys.settrace`. Only function bodies count: module and class bodies run at
import.
"""

import inspect
import logging
import os
import random
import sys
import types

from hypothesis import Phase, given, settings, strategies as st

import converg.engine as engine
import converg.nquads as nquads
import converg.sparql as sparql
from converg.errors import ParseError
from randcases import run_differential_case
from test_nquads import (
    EDGE_LINES,
    MEMO_BOUNDS,
    NQUADS_ERRORS,
    TERM_ERRORS,
    check_document_against_the_scanner,
    nquads_documents,
)
from test_sparql import LEXER_ERRORS, MALFORMED_TERMS, generated_cases

# Seeds of the slice, each run for CASES_PER_SEED cases. The stores are
# narrow: the lines are the same over wide bitmaps, and the oracle is slow
# on nested GRAPH blocks over a wide store.
SEEDS = (108, 109)
CASES_PER_SEED = 300

# Lines of the evaluator that may stay unrun: their source text, stripped,
# and why.
ALLOWED_UNRUN: dict[str, str] = {}


def _source_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _section(lines, name) -> int:
    """The line number of the `# --- name` section header."""
    return next(n for n, text in enumerate(lines, 1) if text.startswith("# ---") and text.endswith(f" {name}"))


def _executable(path, lines, first: int, end: int) -> set[int]:
    """Lines in [`first`, `end`) that hold code of a function body."""
    found = set()
    stack = [compile("\n".join(lines) + "\n", path, "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        if code.co_flags & inspect.CO_OPTIMIZED:
            found.update(line for _start, _stop, line in code.co_lines() if line is not None and first <= line < end)
    return found


def _run_traced(path, first: int, end: int, run) -> set[int]:
    """The lines of the functions of `path` that start in [`first`, `end`)
    that run in `run()`."""
    ran: set[int] = set()

    def local(frame, event, arg):
        ran.add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        code = frame.f_code
        if code.co_filename == path and first <= code.co_firstlineno < end:
            ran.add(frame.f_lineno)
            return local
        return None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(previous)
    return ran


def _unrun(module, first: int, end: int, run, allowed=()) -> list[str]:
    """The function-body lines of `module` in [`first`, `end`) that do not
    run in `run()` and are not `allowed`, as `file:line: text`."""
    path = module.__file__
    lines = _source_lines(path)
    missed = _executable(path, lines, first, end) - _run_traced(path, first, end, run)
    name = os.path.basename(path)
    return [f"{name}:{n}: {lines[n - 1].strip()}" for n in sorted(missed) if lines[n - 1].strip() not in allowed]


def _differential_slice():
    engine._count_literal.cache_clear()  # a count cached by earlier tests runs no line
    logging.disable(logging.WARNING)
    try:
        for seed in SEEDS:
            rng = random.Random(seed)
            for _ in range(CASES_PER_SEED):
                run_differential_case(rng, wide=False)
    finally:
        logging.disable(logging.NOTSET)


def test_every_line_of_the_condensed_evaluator_runs_in_differential_cases():
    lines = _source_lines(engine.__file__)
    end = _section(lines, "oracle")
    unrun = _unrun(engine, 1, end, _differential_slice, ALLOWED_UNRUN)
    assert not unrun, "lines no differential case ran:\n" + "\n".join(unrun)
    executable = _executable(engine.__file__, lines, 1, end)
    stale = set(ALLOWED_UNRUN) - {lines[n - 1].strip() for n in executable}
    assert not stale, f"allowed-unrun entries that are no line of the evaluator: {sorted(stale)}"


def _lexer_cases():
    texts = [case[0] for case in LEXER_ERRORS + MALFORMED_TERMS]
    texts += [text for text, _query in generated_cases(20250101, 400)]
    for text in texts:
        try:
            sparql.parse_query(text)
        except ParseError:
            pass


def test_every_line_of_the_query_lexer_runs_in_the_parser_cases():
    lines = _source_lines(sparql.__file__)
    unrun = _unrun(sparql, _section(lines, "lexer"), _section(lines, "parser"), _lexer_cases)
    assert not unrun, "lines no parser case ran:\n" + "\n".join(unrun)


# Generated documents the N-Quads gate runs: a fixed draw of the
# differential test's strategy.
NQUADS_DOCUMENTS = 300


def _nquads_cases():
    for text, require_graph, *_ in NQUADS_ERRORS:
        try:
            nquads.parse_nquads(text, require_graph=require_graph)
        except ParseError:
            pass
    terms = [text for text, *_ in TERM_ERRORS]
    for line in EDGE_LINES:
        terms += line.split()
        for require_graph in (False, True):
            try:
                nquads.parse_nquads(line, require_graph=require_graph)
            except ParseError:
                pass
    for text in terms:
        try:
            nquads.parse_term(text)
        except ParseError:
            pass
    run = settings(
        max_examples=NQUADS_DOCUMENTS,
        derandomize=True,
        database=None,
        deadline=None,
        phases=(Phase.generate,),
    )(given(nquads_documents(), st.booleans(), MEMO_BOUNDS)(check_document_against_the_scanner))
    run()


def test_every_line_of_the_nquads_reader_runs_in_the_pinned_and_generated_cases():
    first = nquads._scan_term.__code__.co_firstlineno
    end = 1 + max(line for *_, line in nquads._unescape.__code__.co_lines() if line is not None)
    for function in (nquads._parse_line, nquads.parse_term, nquads.parse_nquads, nquads._token_term):
        assert first < function.__code__.co_firstlineno < end  # the span holds the whole reader
    unrun = _unrun(nquads, first, end, _nquads_cases)
    assert not unrun, "lines no N-Quads case ran:\n" + "\n".join(unrun)
