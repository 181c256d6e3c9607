"""Exception types and value rules shared across the package."""

import sys


class TangledStringError(Exception):
    """Base class for all errors raised by this package."""


class EmptySequenceError(TangledStringError):
    """Raised when a sequence with no events is constructed or tangled."""


class EmptyBasketError(TangledStringError):
    """Raised when a basket contains no items.

    ``basket`` is the zero-based ordinal of the offending basket when the
    sequence was built in memory; ``line`` is the one-based input line when
    it came from a file.
    """

    def __init__(self, message: str, basket: int | None = None, line: int | None = None):
        super().__init__(message)
        self.basket = basket
        self.line = line


class ParseError(TangledStringError):
    """Raised on malformed input rows; carries the one-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EmptyEvaluationError(TangledStringError):
    """Raised when an evaluation is requested but no change points exist."""


def check_count(name: str, value, minimum: int) -> None:
    """The rule for every count: an int, not a bool, and at least ``minimum``."""
    if type(value) is not int or value < minimum:
        raise ValueError(f"{name} must be an int >= {minimum}, got {value!r}")


def check_rate(name: str, value) -> None:
    """The rule for every rate: a number, not a bool, in [0, 1]."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value <= 1:
        raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")


def check_number(name: str, value) -> None:
    """The rule for every real number: an int or float, not a bool, and finite."""
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (real and abs(value) <= sys.float_info.max):  # false for NaN and huge ints
        raise ValueError(f"{name} must be a finite number, got {value!r}")
