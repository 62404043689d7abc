"""Exception types shared across the package."""

from __future__ import annotations

from pathlib import Path


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
