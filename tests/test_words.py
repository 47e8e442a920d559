import numpy as np
import pytest

from clawbench.words import (block_to_hex, check_word, domain, hex_digits,
                             hex_to_block, hex_to_word, mask, rotl,
                             word_to_hex)


def test_mask():
    assert mask(16) == 0xFFFF
    assert mask(4) == 0xF


def test_domain_is_one_shared_read_only_intp_range():
    for bits in (3, 8, 16):
        words = domain(bits)
        assert domain(bits) is words
        assert words.dtype == np.intp
        assert np.array_equal(words, np.arange(1 << bits))
        assert not words.flags.writeable
        with pytest.raises(ValueError):
            words ^= 1


def test_rotl_known_value():
    assert rotl(0x4F40, 5, 16) == 0xE809
    assert rotl(1, 1, 4) == 2
    assert rotl(0b1000, 1, 4) == 0b0001


def test_rotl_identity_and_range():
    for w in (4, 8, 16):
        x = 0b1011 & mask(w)
        assert rotl(x, 0, w) == x
    with pytest.raises(ValueError):
        rotl(1, 16, 16)
    with pytest.raises(ValueError):
        rotl(1, -1, 8)


def test_rotl_vectorized_matches_scalar():
    rng = np.random.default_rng(0)
    xs = rng.integers(0, 1 << 16, size=1000, dtype=np.uint32)
    vec = rotl(xs, 5, 16)
    for x, v in zip(xs[:50], vec[:50]):
        assert int(v) == rotl(int(x), 5, 16)


def test_check_word_bounds():
    check_word(0xFFFF, 16)
    with pytest.raises(ValueError):
        check_word(0x10000, 16)
    with pytest.raises(ValueError):
        check_word(-1, 16)
    with pytest.raises(ValueError):
        check_word(np.array([3, 16], dtype=np.uint32), 4)
    with pytest.raises(ValueError):
        check_word(np.array([-1, 3]), 8)


def test_hex_round_trip():
    assert hex_digits(16) == 4
    assert hex_digits(6) == 2
    assert word_to_hex(0xB0AE, 16) == "B0AE"
    assert hex_to_word("b0ae", 16) == 0xB0AE
    assert word_to_hex(5, 8) == "05"
    with pytest.raises(ValueError):
        hex_to_word("zz", 16)


def test_block_format():
    assert block_to_hex((0xCDF5, 0xE8B4), 16) == "CDF5|E8B4"
    assert hex_to_block("CDF5|E8B4", 16) == (0xCDF5, 0xE8B4)
    with pytest.raises(ValueError):
        hex_to_block("CDF5", 16)
    with pytest.raises(ValueError):
        hex_to_block("CDF5|E8B4|00", 16)
