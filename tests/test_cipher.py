import tracemalloc

import numpy as np
import pytest

from clawbench.cipher import (MAX_ROUNDS, RANDOM_TABLE_LIMIT, FeistelSpec,
                              feistel_decrypt, feistel_encrypt,
                              partial_decrypt, random_subkeys, simeck_f,
                              simeck_key_schedule, z_sequence)
from clawbench.claw import CapacityError
from clawbench.words import mask, rotl


def test_simeck_f_known_value():
    spec = FeistelSpec(word_width=16)
    assert simeck_f(0xCDF5, spec) == 0x175A


def test_simeck_f_widths_stay_closed():
    rng = np.random.default_rng(1)
    for w in (4, 5, 8, 12, 16):
        spec = FeistelSpec(word_width=w)
        xs = rng.integers(0, 1 << w, size=256, dtype=np.uint32)
        out = simeck_f(xs, spec)
        assert np.all(out <= mask(w))


def test_simeck_rotations_reduce_mod_width():
    # rotations (5, 1); at width 4 rotation 5 is rotation 1
    for w in range(4, 17):
        xs = np.arange(1 << w, dtype=np.uint32)
        want = (xs & rotl(xs, 5 % w, w)) ^ rotl(xs, 1, w)
        assert np.array_equal(simeck_f(xs, FeistelSpec(word_width=w)), want)


def test_round_f_is_one_shared_simeck_table():
    for w in range(4, 17):
        spec = FeistelSpec(word_width=w)
        xs = np.arange(1 << w, dtype=np.uint32)
        for i in range(1, spec.rounds + 1):
            assert np.array_equal(spec.round_f(i, xs), simeck_f(xs, spec))
        table = spec._tables[0]
        assert FeistelSpec(word_width=w, rounds=3)._tables[0] is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1
    assert isinstance(spec.round_f(1, 0xCDF5), np.uint32)


@pytest.mark.parametrize("function", ["simeck", "random"])
def test_round_tables_are_read_only(function):
    """table(i) is F_i over the domain in order, and it cannot be written,
    not even as a stray out= of an in-place XOR."""
    spec = FeistelSpec(word_width=10, round_function=function, seed=4)
    xs = np.arange(1 << 10)
    for i in range(1, spec.rounds + 1):
        table = spec.table(i)
        assert table is spec._tables[i - 1]
        assert np.array_equal(table, spec.round_f(i, xs))
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1
        with pytest.raises(ValueError):
            np.bitwise_xor(table, 1, out=table)
    with pytest.raises(ValueError):
        spec.table(spec.rounds + 1)


@pytest.mark.parametrize("function", ["simeck", "random"])
def test_round_f_index_dtypes(function):
    """An index array of any integer dtype gives the table's uint32 words;
    a word, Python or numpy, gives an np.uint32."""
    spec = FeistelSpec(word_width=12, round_function=function, seed=3)
    table = spec._tables[1]
    xs = np.random.default_rng(3).integers(0, 1 << 12, size=500)
    for dtype in (np.uint32, np.int64, np.intp):
        got = spec.round_f(2, xs.astype(dtype))
        assert got.dtype == np.uint32, dtype
        assert np.array_equal(got, table[xs]), dtype
    for word in (0xABC, np.uint32(0xABC), np.int64(0xABC)):
        got = spec.round_f(2, word)
        assert isinstance(got, np.uint32), type(word)
        assert got == table[0xABC]


def test_simeck_needs_width_4():
    with pytest.raises(ValueError, match="width >= 4"):
        FeistelSpec(word_width=3)
    with pytest.raises(ValueError, match="outside supported range"):
        FeistelSpec(word_width=2)


def test_round_trip_many_widths_and_rounds():
    rng = np.random.default_rng(2)
    for w in (4, 8, 16):
        for rounds in range(1, 7):
            spec = FeistelSpec(word_width=w, rounds=rounds)
            keys = random_subkeys(spec, seed=rounds)
            for _ in range(200):
                pt = (int(rng.integers(0, 1 << w)),
                      int(rng.integers(0, 1 << w)))
                assert feistel_decrypt(feistel_encrypt(pt, keys, spec),
                                       keys, spec) == pt


def test_random_round_functions_round_trip():
    spec = FeistelSpec(word_width=8, round_function="random", seed=17)
    keys = random_subkeys(spec, seed=3)
    rng = np.random.default_rng(4)
    for _ in range(200):
        pt = (int(rng.integers(0, 256)), int(rng.integers(0, 256)))
        assert feistel_decrypt(feistel_encrypt(pt, keys, spec),
                               keys, spec) == pt


def test_round_count_guard():
    assert FeistelSpec(word_width=8, rounds=MAX_ROUNDS).rounds == 4096
    # refused before any per-round table is drawn
    with pytest.raises(CapacityError) as exc:
        FeistelSpec(word_width=16, rounds=10 ** 9, round_function="random",
                    seed=0)
    assert str(exc.value) == "rounds: 1000000000 exceeds guard 4096"


def test_random_table_guard():
    # 256 width-16 tables are the limit; beyond it the spec is refused
    # before any table is drawn
    assert RANDOM_TABLE_LIMIT == 256 << 16
    assert len(FeistelSpec(8, MAX_ROUNDS, "random", seed=0)._tables) == 4096
    with pytest.raises(CapacityError) as exc:
        FeistelSpec(16, 257, "random", seed=0)
    assert str(exc.value) == ("random round-table entries: 16842752 "
                              "exceeds guard 16777216")
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            FeistelSpec(16, MAX_ROUNDS, "random", seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_random_round_functions_need_seed():
    with pytest.raises(ValueError, match="need a seed"):
        FeistelSpec(word_width=8, round_function="random")
    with pytest.raises(ValueError, match="rounds must be"):
        FeistelSpec(word_width=8, rounds=0)
    with pytest.raises(ValueError, match="unknown round function"):
        FeistelSpec(word_width=8, round_function="des")


def test_partial_decrypt_round_range():
    spec = FeistelSpec(word_width=16)
    keys = random_subkeys(spec, seed=5)
    pt = (0x1234, 0x5678)
    ct = feistel_encrypt(pt, keys, spec)
    assert partial_decrypt(ct, keys, spec, 6, 1) == pt
    # empty range is a no-op
    assert partial_decrypt(ct, keys, spec, 3, 4) == ct
    # undoing rounds 6..3 then 2..1 equals undoing 6..1
    mid = partial_decrypt(ct, keys, spec, 6, 3)
    assert partial_decrypt(mid, keys, spec, 2, 1) == pt
    with pytest.raises(ValueError):
        partial_decrypt(ct, keys, spec, 7, 1)
    with pytest.raises(ValueError, match="missing subkey for round 6"):
        partial_decrypt(ct, keys[:3], spec, 6, 1)
    with pytest.raises(ValueError, match="need 6 subkeys, got 5"):
        feistel_encrypt(pt, keys[:5], spec)
    # numpy key arrays decrypt element-wise, as the attack's key sweeps do
    k4s = np.arange(0, 1 << 16, 251, dtype=np.uint32)
    k6s = k4s[::-1] ^ np.uint32(0x5A5A)
    left, right = partial_decrypt(ct, (*keys[:3], k4s, keys[4], k6s), spec,
                                  6, 2)
    for i, (k4, k6) in enumerate(zip(k4s, k6s)):
        scalar_keys = (*keys[:3], int(k4), keys[4], int(k6))
        assert partial_decrypt(ct, scalar_keys, spec, 6, 2) == (left[i],
                                                                right[i])


def test_z_sequence_variants():
    # standard stream head: all-ones LFSR seed
    assert z_sequence(6, "standard") == (1, 1, 1, 1, 1, 0)
    # the reference worked example starts five steps into the stream
    assert z_sequence(6, "example") == (0, 0, 0, 1, 1, 0)
    with pytest.raises(ValueError):
        z_sequence(6, "bogus")


def test_key_schedule_first_keys_are_master_words():
    spec = FeistelSpec(word_width=16)
    master = (0xB0AE, 0xC7E9, 0xC3CE, 0xE6C3)
    for variant in ("example", "standard"):
        keys = simeck_key_schedule(master, 6, spec, variant)
        assert keys[:4] == master


def test_key_schedule_official_simeck32_64_vector():
    """The 'standard' z stream reproduces the published Simeck32/64 test
    vector: key 0x1918_1110_0908_0100, plaintext 0x6565_6877 ->
    ciphertext 0x770D_2C76 after 32 rounds.

    Note the official cipher applies the subkey inside the round as
    L' = R ^ F(L) ^ K, identical to this structure."""
    spec = FeistelSpec(word_width=16, rounds=32)
    master = (0x0100, 0x0908, 0x1110, 0x1918)
    keys = simeck_key_schedule(master, 32, spec, "standard")
    ct = feistel_encrypt((0x6565, 0x6877), keys, spec)
    assert ct == (0x770D, 0x2C76)


def test_toy_width_schedule_runs():
    spec = FeistelSpec(word_width=8)
    keys = simeck_key_schedule((1, 2, 3, 4), 6, spec)
    assert len(keys) == 6
    assert all(0 <= k <= 0xFF for k in keys)
    with pytest.raises(ValueError, match="4 words"):
        simeck_key_schedule((1, 2, 3), 6, spec)
