"""The damage ``mutations.edits`` draws reaches the whole of a large input."""

import random

from hypothesis import find, settings
from mutations import damaged, edits


def test_a_flip_lands_past_the_first_64_kib():
    # offsets were once drawn up to 2**16 only, so nothing past byte 65,536 was flipped
    data = bytes(100_000)

    def flips_past_64_kib(drawn):
        # on zero bytes a flip leaves one non-zero byte, at the offset it landed on
        return any(
            len(damaged(data, [edit]).rstrip(b"\0")) - 1 > 65_536
            for edit in drawn if edit[0] == "flip"
        )

    # raises NoSuchExample when no edits drawn satisfy it
    find(edits, flips_past_64_kib, settings=settings(database=None), random=random.Random(0))
