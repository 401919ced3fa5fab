"""Exception types and the input checks shared across the package."""

import numbers
from collections.abc import Mapping
from dataclasses import MISSING, fields


class NetsampleError(Exception):
    """Base class for all errors raised by netsample."""


class ValidationError(NetsampleError):
    """Invalid input value or inconsistent arguments."""


class ParseError(ValidationError):
    """Malformed input file."""

    def __init__(self, message, path=None, line_no=None):
        self.path = path
        self.line_no = line_no
        if line_no is not None:
            message = f"{path or '<input>'}:{line_no}: {message}"
        elif path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


class PartialSampleError(NetsampleError):
    """A sampler could not reach the requested size.

    Carries whatever was collected so callers can decide whether a partial
    sample is still usable.
    """

    def __init__(self, message, nodes, tags, counters):
        super().__init__(message)
        self.nodes = list(nodes)
        self.tags = list(tags)
        self.counters = dict(counters)

    def __reduce__(self):
        # an experiment cell's error crosses the process boundary pickled
        return type(self), (str(self), self.nodes, self.tags, self.counters)


class DanglingCandidateError(NetsampleError):
    """A zero-out-degree node was offered where the criterion forbids it."""


class UndefinedCorrelationError(NetsampleError):
    """Rank correlation is undefined (a constant input vector)."""


class DegenerateEntropyWarning(UserWarning):
    """Seed-region frequency hit 0 or 1 in the sample; ratio reported as 0."""


def is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_label(value) -> bool:
    return isinstance(value, str) or is_integer(value)


def require(name: str, value, what: str, ok: bool) -> None:
    """Raise ``<name> must be <what>, got <value>`` unless ``ok``."""
    if not ok:
        raise ValidationError(f"{name} must be {what}, got {value!r}")


def checked_keys(d, what: str, required=(), optional=()) -> dict:
    """``d`` as a dict, once it is a mapping with every ``required`` key and no unknown one."""
    if not isinstance(d, Mapping):
        raise ValidationError(f"{what} must be a mapping of its parameters, got {d!r}")
    allowed = [*required, *optional]
    unknown = [k for k in d if k not in allowed]
    missing = [k for k in required if k not in d]
    if unknown or missing:
        problem = f"unknown key(s) {unknown}" if unknown else f"missing key(s) {missing}"
        raise ValidationError(f"{what}: {problem}; allowed: {allowed}")
    return dict(d)


def from_mapping(cls, d, what: str):
    """The dataclass ``cls`` built from a parsed mapping of its fields."""
    fs = fields(cls)
    required = [f.name for f in fs if f.default is MISSING and f.default_factory is MISSING]
    return cls(**checked_keys(d, what, required, [f.name for f in fs if f.name not in required]))
