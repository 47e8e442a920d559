"""Fixed-width word and block helpers.

Words are plain unsigned integers interpreted as bit vectors of a given
width (3..16 bits).  rotl also accepts numpy integer arrays, so the hot
paths (claw tables, exhaustive key sweeps) can run vectorized; check_word
and the hex helpers take one word at a time.
"""

import functools

import numpy as np

MIN_WIDTH = 3
MAX_WIDTH = 16


def mask(width):
    return (1 << width) - 1


@functools.cache
def domain(bits):
    """All 2^bits words in order as one read-only intp array, built once
    per width: the index the claw side tables and the key sweeps read
    the whole domain with."""
    words = np.arange(1 << bits, dtype=np.intp)
    words.flags.writeable = False
    return words


def check_width(width):
    if not (MIN_WIDTH <= width <= MAX_WIDTH):
        raise ValueError(f"word width {width} outside supported range "
                         f"{MIN_WIDTH}..{MAX_WIDTH}")


def check_word(value, width):
    check_width(width)
    if not (0 <= value <= mask(width)):
        raise ValueError(f"value {value:#x} does not fit in {width} bits")


def rotl(x, c, width):
    """Cyclic left rotation of x by c within `width` bits."""
    check_width(width)
    if not (0 <= c < width):
        raise ValueError(f"rotation {c} must satisfy 0 <= c < width={width}")
    m = mask(width)
    return ((x << c) | (x >> (width - c))) & m


def hex_digits(width):
    return (width + 3) // 4


def word_to_hex(value, width):
    return format(value, "0%dX" % hex_digits(width))


def hex_to_word(text, width):
    try:
        value = int(text, 16)
    except ValueError:
        raise ValueError(f"not a hex word: {text!r}") from None
    check_word(value, width)
    return value


def block_to_hex(block, width):
    """Format an (L, R) pair as 'L|R'."""
    left, right = block
    return f"{word_to_hex(left, width)}|{word_to_hex(right, width)}"


def hex_to_block(text, width):
    """Parse an 'L|R' hex pair."""
    parts = text.split("|") if isinstance(text, str) else ()
    if len(parts) != 2:
        raise ValueError(f"block must be 'L|R' hex halves, got {text!r}")
    return hex_to_word(parts[0], width), hex_to_word(parts[1], width)
