"""Exception types shared across the package."""

from __future__ import annotations

from pathlib import Path

__all__ = [
    "ParameterError",
    "ConfigurationError",
    "NumericError",
    "SimulationError",
]


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


def check_int(name: str, value, minimum: int | None = None) -> None:
    """Raise :class:`ParameterError` unless ``value`` is an ``int`` of at
    least ``minimum``.  A bool is refused, though it is an ``int``, and so is
    a numpy integer, which no JSON manifest can hold; the message shows the
    value's repr, which names such a type."""
    if isinstance(value, bool) or not isinstance(value, int) or (minimum is not None and value < minimum):
        wanted = "an integer" if minimum is None else f"an integer >= {minimum}"
        raise ParameterError(f"{name} must be {wanted}, got {value!r}")
