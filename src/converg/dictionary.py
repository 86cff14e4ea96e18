"""Bijective Term <-> dense integer encoding.

One shared dictionary covers subjects, predicates, objects, and graph names.
Ids are dense (0..n-1), stable for the lifetime of a store, and persisted in
snapshots rather than re-derived.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .errors import DictionaryError
from .model import Term


class TermDictionary:
    """Single-writer during ingestion; safe for shared reads afterwards."""

    __slots__ = ("_forward", "_reverse")

    def __init__(self):
        self._forward: dict[Term, int] = {}
        self._reverse: list[Term] = []

    def encode(self, term: Term) -> int:
        """Id for `term`, inserting it with the next dense id if new."""
        tid = self._forward.get(term)
        if tid is not None:
            return tid
        tid = len(self._reverse)
        self._forward[term] = tid
        self._reverse.append(term)
        return tid

    def lookup(self, term: Term) -> Optional[int]:
        """Id for `term` if already present; never inserts (query path)."""
        return self._forward.get(term)

    def decode(self, tid: int) -> Term:
        if not 0 <= tid < len(self._reverse):
            raise DictionaryError(f"unknown term id {tid}")
        return self._reverse[tid]

    @property
    def terms(self) -> list[Term]:
        """Every term, at the index of its id. Read-only: the query path
        indexes it with ids that are in range by construction."""
        return self._reverse

    def __len__(self) -> int:
        return len(self._reverse)

    def __iter__(self) -> Iterator[Term]:
        return iter(self._reverse)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TermDictionary):
            return NotImplemented
        return self._reverse == other._reverse

    def check_bijection(self):
        """Debug invariant: forward and reverse stay mutually inverse."""
        if len(self._forward) != len(self._reverse):
            raise DictionaryError("forward/reverse size mismatch")
        for term, tid in self._forward.items():
            if self._reverse[tid] is not term:
                raise DictionaryError(f"id {tid} does not round-trip")
