"""Exception types shared across the toolkit.

Every error raised on bad input derives from PeerEvalError so the CLI can
catch one base class and exit with status 1.
"""


class PeerEvalError(Exception):
    """Base class for all toolkit errors."""


class ParseError(PeerEvalError):
    """A file could not be parsed. Carries the path and 1-based line number."""

    def __init__(self, message: str, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}: "
            if line is not None:
                loc = f"{path}:{line}: "
        super().__init__(loc + message)
        self.path = path
        self.line = line


class StructureError(PeerEvalError):
    """Well-formed input violating a structural invariant (length mismatch,
    duplicate key, ...)."""


class DomainError(PeerEvalError):
    """A value outside its legal domain (positive log-prob, empty input where
    data is required, zero-variance vector fed to a correlation, ...)."""


class AlignmentError(PeerEvalError):
    """Segment ids or corpus lengths do not line up across files or systems.
    ``data.same_segments`` raises it for every segment-id comparison."""


class CoverageError(PeerEvalError):
    """Text cannot be segmented with the given subword vocabulary."""


class ConfigError(PeerEvalError):
    """Invalid configuration (bad grid, vocabulary size below alphabet, ...)."""


class InsufficientDataError(PeerEvalError):
    """Not enough data for a statistic (n < 4 for the correlation-difference
    test, missing segment-level scores, degenerate correlation matrix)."""
