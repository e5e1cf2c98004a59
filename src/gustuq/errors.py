"""Exception hierarchy and warning types shared across the package.

Every exception carries a machine-parsable ``error_class`` string which the
CLI prints as a one-line ``<class>: <message>`` diagnostic before exiting
nonzero.
"""

from __future__ import annotations


class GustUQError(Exception):
    """Base class for all package errors."""

    error_class = "error"


class UsageError(GustUQError):
    """An operation was called in a way that violates its contract."""

    error_class = "usage-error"


class ConfigError(GustUQError):
    """A configuration value is invalid or inconsistent."""

    error_class = "config-error"


class DimensionError(GustUQError):
    """Array shapes do not chain or do not match declared widths."""

    error_class = "dimension-error"


class NumericError(GustUQError):
    """A non-finite value appeared where finite values are required."""

    error_class = "numeric-error"


class DomainError(GustUQError):
    """An input lies outside the mathematical or spatial domain of an operation."""

    error_class = "domain-error"


class IngestError(GustUQError):
    """A data file could not be parsed.

    ``row_errors`` holds up to the first 10 offending ``(line_number, message)``
    pairs so the caller can report them without re-reading the file.
    """

    error_class = "ingest-error"

    def __init__(self, message: str, row_errors: list[tuple[int, str]] | None = None):
        self.row_errors = row_errors or []
        if self.row_errors:
            detail = "; ".join(f"line {ln}: {msg}" for ln, msg in self.row_errors[:10])
            message = f"{message} [{detail}]"
        super().__init__(message)


class SearchFailure(GustUQError):
    """A hyperparameter search has no result: every trial failed, or a
    trial's worker process died."""

    error_class = "search-failure"


class WorkerDied(GustUQError):
    """A forked worker process ended without a result (killed, or out of
    memory)."""

    error_class = "worker-died"


class CalibrationWarning(UserWarning):
    """Uncertainty estimates look inflated relative to the target scale."""


class DegenerateInputWarning(UserWarning):
    """An input was degenerate (constant column, empty bin, masked hour) and a
    documented fallback was applied."""
