"""Parametric Feistel cipher core with the subkey XORed after the F function.

Round rule (the structure Simeck instantiates):

    L[i+1] = R[i] ^ F_i(L[i]) ^ K[i]        R[i+1] = L[i]

The Simeck round function is F(x) = (x & rotl(x, a)) ^ rotl(x, b) with
(a, b) = (5, 1), reduced mod the word width for toy widths.  A seeded
mode provides independent random round functions so attack properties can
be checked over many cipher instances, not just Simeck.  Either way F_i is
a lookup into a read-only table over all 2^w words; Simeck's one table is
shared by every spec with the same width.

All word-level operations accept numpy arrays as well as ints, so callers
can evaluate a round function over a whole candidate sweep at once.
"""

from dataclasses import dataclass, field

import numpy as np

from .claw import check_capacity
from .words import check_width, check_word, mask, rotl, word_to_hex

SIMECK_ROT_A = 5
SIMECK_ROT_B = 1

# Round-constant bit stream for the key schedule: LFSR over 5 cells,
# s[t+5] = s[t+2] ^ s[t], seeded with all ones.  "standard" starts at the
# stream head and matches the official Simeck32/64 test vector.  "example"
# starts five steps in; it is the convention the bundled reference worked
# example (vectors.py) was generated with, and is the default so that the
# end-to-end attack demo reproduces those vectors.
Z_VARIANTS = ("example", "standard")
_EXAMPLE_Z_OFFSET = 5
# the attack needs 6 rounds, Simeck's largest variant 44
MAX_ROUNDS = 4096
# entries of all of a random spec's per-round tables: 64 MiB of uint32,
# every 6-round spec and 256 rounds at width 16
RANDOM_TABLE_LIMIT = 1 << 24


def z_sequence(rounds, variant="example"):
    if variant not in Z_VARIANTS:
        raise ValueError(f"unknown z variant {variant!r}")
    offset = _EXAMPLE_Z_OFFSET if variant == "example" else 0
    s = [1] * 5
    for i in range(rounds + offset):
        s.append(s[i + 2] ^ s[i])
    return tuple(s[offset:offset + rounds])


@dataclass(frozen=True)
class FeistelSpec:
    """Cipher parameterization: word width, round count, round functions."""

    word_width: int
    rounds: int = 6
    round_function: str = "simeck"   # "simeck" | "random"
    seed: int | None = None          # seeds the random round-function tables
    _tables: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        check_width(self.word_width)
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        check_capacity("rounds", self.rounds, MAX_ROUNDS)
        if self.round_function == "simeck":
            if self.word_width < 4:
                # rotations 5 mod 3 == 2 == 2 * 1: too degenerate to keep
                raise ValueError("simeck round function needs width >= 4")
            tables = (_simeck_table(self),) * self.rounds
        elif self.round_function == "random":
            if self.seed is None:
                raise ValueError("random round functions need a seed")
            n = 1 << self.word_width
            check_capacity("random round-table entries", self.rounds * n,
                           RANDOM_TABLE_LIMIT)
            rng = np.random.default_rng(self.seed)
            tables = tuple(rng.integers(0, n, size=n, dtype=np.uint32)
                           for _ in range(self.rounds))
            for table in tables:
                table.flags.writeable = False
        else:
            raise ValueError(f"unknown round function {self.round_function!r}")
        object.__setattr__(self, "_tables", tables)

    def table(self, round_index):
        """F_i (1-based round index) over all 2^w words in order, as the
        read-only uint32 table round_f reads: F_i over the whole domain
        without a gather."""
        if not (1 <= round_index <= self.rounds):
            raise ValueError(f"round index {round_index} outside 1..{self.rounds}")
        return self._tables[round_index - 1]

    def round_f(self, round_index, x):
        """Evaluate F_i (1-based round index) on a word or word array by
        table lookup: an array gives a uint32 array, a word an np.uint32.

        An array index is gathered as intp, the index type numpy gathers
        with natively; any other integer dtype would be converted inside
        the gather, which takes about twice as long at 2^16 words.  A word
        is indexed directly, since take() costs more on a scalar.
        """
        table = self.table(round_index)
        if isinstance(x, np.ndarray):
            return table.take(x.astype(np.intp, copy=False))
        return table[x]


def simeck_f(x, spec):
    """(x & rotl(x, a)) ^ rotl(x, b) within the spec's word width."""
    w = spec.word_width
    a, b = SIMECK_ROT_A % w, SIMECK_ROT_B % w
    return ((x & rotl(x, a, w)) ^ rotl(x, b, w)) & mask(w)


_SIMECK_TABLES = {}


def _simeck_table(spec):
    """simeck_f over all 2^w words, built once per width and read-only,
    since every spec of that width shares it.  It is evaluated in place
    1,024 words at a time, so simeck_f's temporaries stay small."""
    w = spec.word_width
    if w not in _SIMECK_TABLES:
        table = np.arange(1 << w, dtype=np.uint32)
        for lo in range(0, table.size, 1024):
            words = table[lo:lo + 1024]
            words[:] = simeck_f(words, spec)
        table.flags.writeable = False
        _SIMECK_TABLES[w] = table
    return _SIMECK_TABLES[w]


def check_subkeys(keys, spec):
    if len(keys) != spec.rounds:
        raise ValueError(f"need {spec.rounds} subkeys, got {len(keys)}")
    for k in keys:
        check_word(k, spec.word_width)


def feistel_encrypt(block, keys, spec):
    check_subkeys(keys, spec)
    left, right = block
    for i, k in enumerate(keys, start=1):
        left, right = right ^ spec.round_f(i, left) ^ k, left
    return left, right


def feistel_decrypt(block, keys, spec):
    check_subkeys(keys, spec)
    return partial_decrypt(block, keys, spec, spec.rounds, 1)


def partial_decrypt(block, keys, spec, from_round, to_round):
    """Invert rounds from_round down to to_round; returns the state at the
    input of to_round.  An empty range (from_round < to_round) is a no-op.

    Keys may be numpy arrays: the result is then the element-wise
    decryption under every key combination at once."""
    if from_round < to_round:
        return block
    if not (1 <= to_round and from_round <= spec.rounds):
        raise ValueError(f"round range {from_round}..{to_round} outside "
                         f"1..{spec.rounds}")
    if len(keys) < from_round:
        raise ValueError(f"missing subkey for round {from_round}")
    left, right = block
    for i in range(from_round, to_round - 1, -1):
        left, right = right, left ^ spec.round_f(i, right) ^ keys[i - 1]
    return left, right


def simeck_key_schedule(master, rounds, spec, z_variant="example"):
    """Expand a 4-word master key (k, t0, t1, t2) into round keys.

    Round key i is the current k word; the state update runs the round
    function on t0 keyed with the constant 2^w - 4 xor the z-stream bit.
    """
    if len(master) != 4:
        raise ValueError("master key must be 4 words (k, t0, t1, t2)")
    for wv in master:
        check_word(wv, spec.word_width)
    const = mask(spec.word_width) ^ 3
    z = z_sequence(rounds, z_variant)
    k = master[0]
    t = list(master[1:])
    keys = []
    for i in range(rounds):
        keys.append(k)
        new_t = simeck_f(t[0], spec) ^ k ^ const ^ z[i]
        k = t[0]
        t = [t[1], t[2], new_t]
    return tuple(keys)


def key_schedule_report(master, rounds, spec, z_variant="example"):
    """JSON-ready dump: {width, rounds, master, subkeys[]}."""
    keys = simeck_key_schedule(master, rounds, spec, z_variant)
    w = spec.word_width
    return {
        "width": w,
        "rounds": rounds,
        "master": [word_to_hex(x, w) for x in master],
        "subkeys": [word_to_hex(k, w) for k in keys],
    }


def random_subkeys(spec, seed):
    rng = np.random.default_rng(seed)
    return tuple(int(x) for x in
                 rng.integers(0, 1 << spec.word_width, size=spec.rounds))
