"""Exception types shared across the package, and its two rules for scalar
arguments: :func:`check_number` for a finite real number and
:func:`check_int` for an integer, each refusing a bool and a string."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

__all__ = [
    "ParameterError",
    "ConfigurationError",
    "NumericError",
    "SimulationError",
]

# The most doubles one numpy array can hold: its byte count must fit an intp.
MAX_DOUBLES = np.iinfo(np.intp).max // 8


class ParameterError(ValueError):
    """A function argument is outside its documented domain."""


class ConfigurationError(ValueError):
    """A run configuration is malformed or references unknown components."""


class NumericError(RuntimeError):
    """A numeric routine failed to reach its accuracy target."""


class SimulationError(RuntimeError):
    """A simulated trajectory left the numerically representable range."""


def read_text(source, encoding: str, error: type[ValueError]) -> str:
    """The text of the file ``source``; bytes that are not valid
    ``encoding`` raise ``error`` naming the file and the offset of the first
    such byte."""
    try:
        return Path(source).read_text(encoding=encoding)
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        raise error(f"{source}: byte 0x{bad:02x} at offset {exc.start} is not valid {encoding} text") from None


def check_int(name: str, value, minimum: int | None = None, maximum: int | None = None) -> None:
    """Raise :class:`ParameterError` unless ``value`` is an ``int`` of at
    least ``minimum`` and at most ``maximum``.  A bool is refused, though it
    is an ``int``, and so is a numpy integer, which no JSON manifest can
    hold; the message shows the value's repr, which names such a type."""
    if isinstance(value, bool) or not isinstance(value, int) or (minimum is not None and value < minimum):
        wanted = "an integer" if minimum is None else f"an integer >= {minimum}"
        raise ParameterError(f"{name} must be {wanted}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ParameterError(f"{name} must be at most {maximum}, got {value!r}")


def check_number(name: str, value, error: type[ValueError] = ParameterError, positive: bool = False) -> float:
    """``value`` as a float; ``error`` naming ``name`` unless it is a finite
    int, float or numpy integer or floating scalar, positive if ``positive``
    is set, and not a bool, a string or an int too large for a float."""
    # numpy scalars as Python numbers, so no comparison casts the float maximum to float32
    number = value.item() if isinstance(value, (np.integer, np.floating)) else value
    real = not isinstance(number, bool) and isinstance(number, (int, float, np.floating))
    if not (real and abs(number) <= sys.float_info.max) or (positive and not number > 0):
        raise error(f"{name} must be a {'positive ' if positive else ''}finite number, got {value!r}")
    return float(number)
