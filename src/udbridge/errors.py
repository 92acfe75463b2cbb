"""Shared exception types.

Every error raised on bad input data derives from DataError so callers
(CLI, HTTP service) can map them to a single exit code / status class.
"""


class UdbridgeError(Exception):
    """Base class for all errors raised by this package."""


class DataError(UdbridgeError):
    """Invalid input data (malformed file, inconsistent document, bad request)."""


class _LineError(DataError):
    """A DataError that carries the 1-based line number it was found at."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConlluParseError(_LineError):
    """A CoNLL-U file could not be parsed."""


class ValidationError(_LineError):
    """A document violates a structural constraint (ids, heads, ranges)."""


class UsageError(UdbridgeError):
    """Bad invocation: unknown flags, missing arguments, bad combinations."""
