"""Byte-level damage to valid input files, for checking that damaged files fail by name.

``edits`` draws up to three edits; ``damaged`` applies them in order. An edit
truncates the bytes, flips bits of one byte, or duplicates or drops one line.
Its offset is taken modulo the input's length (or line count), and has no
upper bound, so an edit can land anywhere in an input of any size.
"""

from __future__ import annotations

from hypothesis import strategies as st

edits = st.lists(
    st.tuples(
        st.sampled_from(["truncate", "flip", "duplicate", "drop"]),
        st.integers(min_value=0),
        st.integers(min_value=1, max_value=255),
    ),
    min_size=1,
    max_size=3,
)


def damaged(data: bytes, edits) -> bytes:
    for kind, at, bits in edits:
        if kind == "truncate":
            data = data[: at % (len(data) + 1)]
        elif kind == "flip" and data:
            at %= len(data)
            data = data[:at] + bytes([data[at] ^ bits]) + data[at + 1 :]
        elif kind in ("duplicate", "drop"):
            lines = data.split(b"\n")
            at %= len(lines)
            if kind == "duplicate":
                lines.insert(at, lines[at])
            else:
                del lines[at]
            data = b"\n".join(lines)
    return data
