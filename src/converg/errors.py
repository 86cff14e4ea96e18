"""Exception types shared across the package."""


class ConvergError(Exception):
    """Base class for every error raised by this package."""


class ParseError(ConvergError):
    """Syntax error in an N-Quads document or a query, with source position."""

    def __init__(self, message, line=None, column=None):
        self.message = message
        self.line = line
        self.column = column
        super().__init__(str(self))

    def __str__(self):
        where = ""
        if self.line is not None:
            where = f"line {self.line}"
            if self.column is not None:
                where += f", column {self.column}"
            where += ": "
        return f"{where}{self.message}"


class UnsupportedQueryError(ParseError):
    """Query uses an operator outside the supported subset."""


class QueryValidationError(ConvergError):
    """Query parsed but is not well-formed (scoping, grouping, prefixes)."""


class EvalError(ConvergError):
    """Runtime failure while evaluating a query (e.g. SUM over non-numbers)."""


class IngestError(ConvergError):
    """A version document violates the ingestion contract."""


class UnknownVngError(ConvergError):
    """IRI does not identify any minted versioned named graph."""


class DictionaryError(ConvergError):
    """Term-id lookup failure; signals corruption."""


class SnapshotError(ConvergError):
    """Snapshot directory is missing, corrupt, or has a mismatched format."""
