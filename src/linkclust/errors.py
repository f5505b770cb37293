"""Exception types shared across the library, and the argument rules that
every module applies the same way.

The integer rule: an argument that counts or names something (a vertex, a
vertex count, a uniformity, a class size, a seed) is an integer when it is
a Python ``int`` or ``bool`` or a numpy integer or bool, whatever its
value.  Anything else, a float such as ``2.0`` or ``2.7``, a string or
``None``, is refused with :class:`InvalidInput`, never truncated or parsed.
An array of such values has an integer or bool dtype, or holds only
integers.  :func:`_integer` applies the rule to one value, :func:`_integers`
to an array; a caller with its own message tests :func:`_is_integer`.  A
caller whose range test keeps its own message for a number such as -1.5
passes the value through :func:`_comparable` first, so that a string or
``None`` is refused by the rule rather than by the comparison.

The budget rule: an oracle budget is a real number of seconds that runs
out, so NaN and infinity are refused (:func:`_budget`).
"""

from __future__ import annotations

import math
import numbers

import numpy as np

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


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer by the rule of the module docstring."""
    return isinstance(value, (int, np.integer, np.bool_))


_AT_LEAST = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}


def _integer(value, what: str, low: int | None = None) -> int:
    """``value`` as an ``int``, refusing with :class:`InvalidInput`, named by
    ``what``, a value that is not an integer or is below ``low``."""
    if not _is_integer(value) or low is not None and value < low:
        kind = _AT_LEAST.get(low, f"an integer >= {low}")
        raise InvalidInput(f"{what} must be {kind}, got {value!r}")
    return int(value)


def _comparable(value, what: str):
    """``value`` when a range test may compare it: an integer or another real
    number, which the caller's own range message names.  Anything else, a
    string or ``None``, is refused as :func:`_integer` refuses it."""
    if not (_is_integer(value) or isinstance(value, numbers.Real)):
        raise InvalidInput(f"{what} must be an integer, got {value!r}")
    return value


def _integers(values, what: str) -> np.ndarray:
    """``values`` as an array, refusing a value that is not an integer; an
    empty one, as ``np.array([])``, has none.  The value named is the
    caller's own, not what the array made of it (``0`` beside ``1.5`` reads
    as ``0.0`` in the array)."""
    items = values if isinstance(values, np.ndarray) else list(values)
    arr = np.asarray(items)
    if arr.dtype.kind not in "iub":
        for v in arr.flat if items is arr else items:
            if not _is_integer(v):
                raise InvalidInput(f"{what} has a value {v!r} that is not an integer")
    return arr


def _budget(seconds) -> None:
    """Refuse an oracle budget that is not a real number or never runs out."""
    if not isinstance(seconds, numbers.Real):
        raise InvalidInput(f"oracle budget must be a real number, got {seconds!r}")
    if not seconds < math.inf:  # NaN compares false with every time
        raise InvalidInput(f"oracle budget {seconds!r} never runs out")
