"""Exception types shared across the package, and the one type rule of config fields.

``CvShape``, ``AshaConfig``, ``PrunerConfig``, ``TraceGenConfig`` and ``BenchConfig`` call
``check_fields`` first thing, and ``bench.from_json`` checks each leaf value by ``accepts``.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cache
from pathlib import Path
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints


class FormatError(ValueError):
    """Malformed or inconsistent input data (trace files, cohorts, reports).

    ``path`` and ``line``, when given, lead the message.
    """

    def __init__(self, message: str, *, path=None, line: int | None = None):
        location = ""
        if path is not None:
            location = f"{path}: "
        if line is not None:
            location += f"line {line}: "
        super().__init__(location + message)
        self.path = path
        self.line = line


class TraceFormatError(FormatError):
    """Format error tied to a location in a trace file."""


def not_utf8(path, error_type: type[FormatError] = FormatError) -> FormatError:
    """The error for a file that does not decode as UTF-8, at the line of its first bad byte.

    A decoder's offset counts from the chunk it was handed, not from the start
    of the file, so the file's bytes are read again, on this error path only,
    and decoded whole.
    """
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return error_type(f"not UTF-8 text: {exc}", path=path, line=line)
    return error_type("not UTF-8 text", path=path)  # the file changed since it failed


class InvalidTrialStateError(RuntimeError):
    """A step was reported for a trial that cannot accept one."""


def accepts(hint, value) -> bool:
    """An int fits a float, a bool only a bool, a class its instances, a generic anything."""
    if isinstance(hint, UnionType):
        return any(accepts(arg, value) for arg in get_args(hint))
    if not isinstance(hint, type) or get_origin(hint):  # Mapping[...]: its field checks itself
        return True
    if type(value) is bool:
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _kind(hint) -> str:  # "an int", "a float or None", "a member of Direction"
    if isinstance(hint, UnionType):
        return " or ".join(map(_kind, get_args(hint)))
    name = hint.__name__
    if issubclass(hint, Enum):
        return f"a member of {name}"
    return "None" if hint is NoneType else f"{'an' if name[0] in 'AEIOUaeiou' else 'a'} {name}"


_field_hints = cache(get_type_hints)  # per config class; the dict is only read


def check_fields(config) -> None:
    """Raise ``TypeError`` or ``ValueError`` (a float not finite) naming the bad field."""
    for name, hint in _field_hints(type(config)).items():
        value = getattr(config, name)
        if not accepts(hint, value):
            raise TypeError(f"{name} must be {_kind(hint)}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
