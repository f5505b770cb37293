"""Exception types shared across the library."""

from __future__ import annotations

__all__ = [
    "LinkclustError",
    "InvalidInput",
    "InvalidVertex",
    "ParseError",
    "DuplicateEdge",
    "IndexOutOfRange",
    "NumericFailure",
    "PatternNotMinimal",
    "PatternNotRigid",
    "OracleTimeout",
]


class LinkclustError(Exception):
    """Base class for all library errors."""


class InvalidInput(LinkclustError, ValueError):
    """An argument violates a documented precondition."""


class InvalidVertex(InvalidInput):
    """A vertex index is outside [0, n)."""


class ParseError(InvalidInput):
    """A text stream does not conform to the edge-list or pattern format.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class DuplicateEdge(ParseError):
    """The same edge appears more than once."""


class IndexOutOfRange(ParseError):
    """An edge refers to a vertex index outside the declared range."""


class NumericFailure(LinkclustError, RuntimeError):
    """The optimizer did not converge; carries the best value found."""

    def __init__(self, message: str, best_value: float):
        self.best_value = best_value
        super().__init__(f"{message} (best value found: {best_value!r})")


class PatternNotMinimal(LinkclustError):
    """A decider requiring a minimal pattern was given a non-minimal one."""


class PatternNotRigid(LinkclustError):
    """A decider requiring a rigid pattern was given a non-rigid one."""


class OracleTimeout(LinkclustError, TimeoutError):
    """An exhaustive search exceeded its time budget."""
