"""Exception types shared across the package, and the one type rule of config and report fields.

The configs (``CvShape``, ``AshaConfig``, ``PrunerConfig``, ``TraceGenConfig``,
``BenchConfig``) and the report dataclasses of ``bench`` call ``check_fields`` first thing.
``bench.from_json``, the one decoder of reports and variants files, checks each leaf value
by ``accepts`` and turns every refusal into a ``FormatError``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
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


def not_utf8(path) -> FormatError:
    """The error for a file that does not decode as UTF-8, at the line of its first bad byte.

    A decoder's offset counts from the chunk it was handed, not from the start
    of the file, so the file's bytes are read again, on this error path only,
    and decoded whole. Input that is not a regular file, such as a pipe, cannot
    be read again, and gets no line.
    """
    if not Path(path).is_file():
        return FormatError("not UTF-8 text", path=path)
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return FormatError(f"not UTF-8 text: {exc}", path=path, line=line)
    return FormatError("not UTF-8 text", path=path)  # the file changed since it failed


def check_trial_id(trial_id) -> None:
    """A trial id is a non-empty ``str``: the rule of ``TrialTrace`` and of a live study."""
    if not isinstance(trial_id, str):
        raise TypeError(f"trial_id must be a str, got {trial_id!r}")
    if not trial_id:
        raise FormatError("trial_id must be non-empty")


class InvalidTrialStateError(RuntimeError):
    """A step was reported for a trial that cannot accept one."""


def accepts(hint, value) -> bool:
    """An int fits a float, a bool only a bool, a class its instances.

    ``Mapping[K, V]`` takes a mapping whose keys fit ``K`` and values fit ``V``,
    ``tuple[X, ...]`` a tuple whose items fit ``X``.
    """
    if isinstance(hint, UnionType):
        return any(accepts(arg, value) for arg in get_args(hint))
    # before any test of a class: on 3.10 a generic alias is also an instance of type
    origin = get_origin(hint)
    if origin is Mapping:
        key, item = get_args(hint)
        return isinstance(value, Mapping) and all(
            accepts(key, k) and accepts(item, v) for k, v in value.items()
        )
    if origin is tuple:
        item = get_args(hint)[0]
        return isinstance(value, tuple) and all(accepts(item, v) for v in value)
    if type(value) is bool:
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _kind(hint) -> str:  # "an int", "a float or None", "a member of Direction"
    if isinstance(hint, UnionType):
        return " or ".join(map(_kind, get_args(hint)))
    if get_origin(hint) is Mapping:
        return "a mapping from {} to {}".format(*map(_kind, get_args(hint)))
    if get_origin(hint) is tuple:
        return f"a tuple, each item {_kind(get_args(hint)[0])}"
    name = hint.__name__
    if issubclass(hint, Enum):
        return f"a member of {name}"
    return "None" if hint is NoneType else f"{'an' if name[0] in 'AEIOUaeiou' else 'a'} {name}"


_field_hints = cache(get_type_hints)  # per config class; the dict is only read


def check_fields(config) -> None:
    """Raise ``TypeError`` or ``ValueError`` naming the bad field.

    The ``ValueError`` is for a float not finite, or an int too large for a
    float in a field that takes floats; an int field takes any int.
    """
    for name, hint in _field_hints(type(config)).items():
        value = getattr(config, name)
        if not accepts(hint, value):
            raise TypeError(f"{name} must be {_kind(hint)}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        if type(value) is int and (hint is float or float in get_args(hint)):
            try:
                float(value)
            except OverflowError:
                raise ValueError(
                    f"{name} must be an int a float can hold, got one of "
                    f"{value.bit_length()} bits"
                ) from None
