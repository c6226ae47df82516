"""Exception hierarchy shared by all pipeline stages.

The CLI maps these onto distinct exit codes so shell pipelines can
distinguish usage mistakes (1), data/integrity problems (2) and backend
failures (3).
"""

from __future__ import annotations

from typing import Sequence


class FactFilterError(Exception):
    """Base class for all toolkit errors."""


class ParseError(FactFilterError):
    """A file could not be parsed; carries the offending location."""

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}: " if line is None else f"{path}:{line}: "
        super().__init__(f"{prefix}{message}")


class IntegrityError(FactFilterError):
    """Data violates a structural invariant (duplicate ids, mixed provenance, ...)."""


class DomainError(FactFilterError):
    """An argument is outside the operation's domain (bad fraction, empty corpus, ...)."""


class DegenerateInputError(DomainError):
    """Input is formally valid but statistically degenerate (zero variance, all-zero differences)."""


class CoverageError(FactFilterError):
    """Required ids are missing; carries the missing id list."""

    def __init__(self, message: str, missing_ids: Sequence[str] = ()):
        self.missing_ids = tuple(sorted(missing_ids))
        if self.missing_ids:
            shown = ", ".join(self.missing_ids[:10])
            more = "" if len(self.missing_ids) <= 10 else f" (+{len(self.missing_ids) - 10} more)"
            message = f"{message}: {shown}{more}"
        super().__init__(message)


class ConfigurationError(FactFilterError):
    """A run is misconfigured (unknown scorer or backend name, bad flag combination)."""


class ScoringError(FactFilterError):
    """A single pair could not be scored."""


class EmptySummaryError(ScoringError):
    """Summary tokenizes to nothing."""


class NoArcsError(ScoringError):
    """Summary parses to zero dependency arcs (single-token summary)."""


class BackendError(FactFilterError):
    """An inference backend failed."""


class SequenceLengthError(BackendError):
    """Input exceeds the backend's maximum token length; carries the limit."""

    def __init__(self, message: str, limit: int):
        self.limit = limit
        super().__init__(f"{message} (limit: {limit} tokens)")


class TransportError(FactFilterError):
    """The link to an out-of-process backend broke: the process exited, a stream
    closed, or a reply was unreadable. Never per-pair data: it aborts the run."""


# Errors recorded against a single pair (a score sentinel, an evaluation
# failure row, a pair left out of a sweep mean) instead of aborting the run.
PER_PAIR_ERRORS = (ScoringError, BackendError, DomainError)


def failure_reason(exc: BaseException) -> str:
    """The ``"<Type>: <message>"`` string recorded for a per-pair failure."""
    return f"{type(exc).__name__}: {exc}"
