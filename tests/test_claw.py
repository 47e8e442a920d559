import tracemalloc

import numpy as np
import pytest

from clawbench.attack import build_claw_problem, make_pair_set
from clawbench.cipher import FeistelSpec, random_subkeys
from clawbench.claw import (EXHAUSTIVE_BLOCK, CapacityError, ClawProblem,
                            check_capacity, concat_multi,
                            find_claws_exhaustive, find_claws_sorted,
                            side_table)


def table_problem(f_tabs, g_tabs, domain_bits, range_bits):
    f_fam = tuple((lambda x, t=np.asarray(t, np.uint32): t[x])
                  for t in f_tabs)
    g_fam = tuple((lambda x, t=np.asarray(t, np.uint32): t[x])
                  for t in g_tabs)
    return ClawProblem(domain_bits=domain_bits, range_bits=range_bits,
                       f_family=f_fam, g_family=g_fam)


def test_single_equation_example():
    # f(2) == g(1) == 7 is the only claw
    problem = table_problem([[5, 1, 7, 2]], [[4, 7, 0, 6]], 2, 3)
    assert find_claws_exhaustive(problem) == [(2, 1)]
    claws, evals = find_claws_sorted(problem)
    assert claws == [(2, 1)]
    assert evals == 2 * 4


def test_concat_multi_layout():
    problem = table_problem([[5, 1, 7, 2], [0, 0, 3, 0]],
                            [[4, 7, 0, 6], [1, 3, 2, 2]], 2, 3)
    combined = concat_multi(problem)
    # top bit selects the side; equation 1 sits in the most significant bits
    assert combined(2) == (7 << 3) | 3          # f side, x=2
    assert combined(4 + 1) == (7 << 3) | 3      # g side, x=1
    assert find_claws_exhaustive(problem) == [(2, 1)]


def test_no_claw():
    problem = table_problem([[0, 1]], [[2, 3]], 1, 2)
    assert find_claws_exhaustive(problem) == []
    claws, evals = find_claws_sorted(problem)
    assert claws == []
    assert evals == 4


def test_multiple_claws_sorted_value_order():
    # values: f = [3, 0, 3], pad domain to 4 with distinct fillers
    problem = table_problem([[3, 0, 3, 5]], [[3, 6, 0, 7]], 2, 3)
    exhaustive = find_claws_exhaustive(problem)
    claws, _ = find_claws_sorted(problem)
    assert set(claws) == set(exhaustive)
    # sorted-value order: value 0 first (f(1), g(2)), then value 3
    assert claws == [(1, 2), (0, 0), (2, 0)]


def test_sorted_matches_exhaustive_on_random_instances():
    rng = np.random.default_rng(0)
    for trial in range(100):
        f_tab = rng.integers(0, 256, size=256)
        g_tab = rng.integers(0, 256, size=256)
        problem = table_problem([f_tab], [g_tab], 8, 8)
        claws, evals = find_claws_sorted(problem)
        assert evals == 512
        # the same list as the pairwise scan in (value, x1, x2) order
        assert claws == sorted(find_claws_exhaustive(problem),
                               key=lambda c: (f_tab[c[0]], *c))


@pytest.mark.parametrize("u", [10, 12])
def test_sorted_matches_exhaustive_on_long_shared_runs(u):
    # a sixteenth of each side takes one of 16 shared levels, so each
    # level is a run of several f and several g entries
    rng = np.random.default_rng(u)
    n = 1 << u
    levels = rng.choice(1 << 16, size=16, replace=False)
    tabs = []
    for _ in range(2):
        tab = rng.integers(0, 1 << 16, size=n)
        tab[rng.choice(n, size=n // 16, replace=False)] = \
            rng.choice(levels, size=n // 16)
        tabs.append(tab)
    f_tab, g_tab = tabs
    problem = table_problem([f_tab >> 8, f_tab & 255],
                            [g_tab >> 8, g_tab & 255], u, 8)
    claws, evals = find_claws_sorted(problem)
    assert evals == 2 * n
    assert claws == sorted(find_claws_exhaustive(problem),
                           key=lambda c: (f_tab[c[0]], *c))
    x1s, x2s = zip(*claws)
    assert len(set(x1s)) < len(claws) and len(set(x2s)) < len(claws)


def test_sort_key_guard_refuses_before_evaluating():
    def never(x):
        raise AssertionError("side table evaluated before the guard")

    # 3 x 16 value bits + 16 index bits + 1 side bit = 65
    problem = ClawProblem(domain_bits=16, range_bits=16,
                          f_family=(never,) * 3, g_family=(never,) * 3)
    with pytest.raises(CapacityError):
        find_claws_sorted(problem)


def test_capacity_guards():
    problem = table_problem([np.zeros(1 << 13, np.uint32)],
                            [np.zeros(1 << 13, np.uint32)], 13, 8)
    with pytest.raises(CapacityError):
        find_claws_exhaustive(problem)
    # sorted path allows more, but the combined range must fit 64 bits
    wide = ClawProblem(domain_bits=2, range_bits=16,
                       f_family=(lambda x: x,) * 5,
                       g_family=(lambda x: x,) * 5)
    with pytest.raises(CapacityError):
        side_table(wide, 0)


def test_check_capacity_states_amount_and_limit():
    check_capacity("walk steps", 10, 10)
    with pytest.raises(CapacityError) as exc:
        check_capacity("walk steps", 11, 10)
    assert str(exc.value) == "walk steps: 11 exceeds guard 10"
    # exact while the amount fits in 64 bits, a power of two beyond
    for amount, shown in (((1 << 64) - 1, str((1 << 64) - 1)),
                          (1 << 64, "2^64.0"),
                          (5 << 2774, "2^2776.3")):
        with pytest.raises(CapacityError) as exc:
            check_capacity("x", amount, 1)
        assert str(exc.value) == f"x: {shown} exceeds guard 1"


def test_family_length_mismatch_rejected():
    with pytest.raises(ValueError, match="equal length"):
        ClawProblem(domain_bits=2, range_bits=3,
                    f_family=(lambda x: x,), g_family=())
    with pytest.raises(ValueError, match="at least one equation"):
        ClawProblem(domain_bits=2, range_bits=3, f_family=(), g_family=())


def concatenate_side_table(problem, side):
    """The packing find_claws_sorted used before its in-place key buffer:
    one shifted uint64 copy per equation."""
    fam = problem.f_family if side == 0 else problem.g_family
    xs = np.arange(problem.n_side, dtype=np.uint32)
    out = np.zeros(problem.n_side, dtype=np.uint64)
    for fn in fam:
        out = (out << np.uint64(problem.range_bits)) | fn(xs).astype(np.uint64)
    return out


def concatenate_find_claws(problem):
    """Reference copy of the concatenate packing and step scan."""
    u = problem.domain_bits
    index = np.arange(problem.n_side, dtype=np.uint64)
    index_mask = index[-1]
    keys = np.concatenate([
        concatenate_side_table(problem, 0) << (u + 1) | index,
        concatenate_side_table(problem, 1) << (u + 1) | (1 << u) | index])
    keys.sort()
    steps = np.flatnonzero((keys[1:] ^ keys[:-1]) >> u == 1)
    lo = np.searchsorted(keys, keys[steps] >> (u + 1) << (u + 1))
    hi = np.searchsorted(keys, keys[steps + 1] | index_mask, side="right")
    return [(int(a & index_mask), int(b & index_mask))
            for step, first, end in zip(steps, lo, hi)
            for a in keys[first:step + 1] for b in keys[step + 1:end]]


def block_tables(rng, n, v, eqs, blocks):
    """Random eqs-equation tables with planted K_{a,b} claw blocks: each
    block gives a f entries and b g entries one shared value."""
    f_tabs, g_tabs = (rng.integers(0, 1 << v, size=(eqs, n), dtype=np.uint64)
                      for _ in range(2))
    for a, b in blocks:
        value = rng.integers(0, 1 << v, size=(eqs, 1), dtype=np.uint64)
        f_tabs[:, rng.choice(n, size=a, replace=False)] = value
        g_tabs[:, rng.choice(n, size=b, replace=False)] = value
    return f_tabs, g_tabs


def uint64_problem(f_tabs, g_tabs, u, v):
    return ClawProblem(
        domain_bits=u, range_bits=v,
        f_family=tuple((lambda x, t=t: t[x]) for t in f_tabs),
        g_family=tuple((lambda x, t=t: t[x]) for t in g_tabs))


@pytest.mark.parametrize("eqs", [1, 2])
def test_sorted_claws_equal_the_concatenate_packing(eqs):
    """Same claws, in the same order, as the concatenate packing: small
    ranges give chance collisions, planted K_{a,b} blocks long runs."""
    rng = np.random.default_rng(eqs)
    for u in range(1, 13):
        n = 1 << u
        for v, blocks in ((max(1, u // 2), ()), (u + 3, ()),
                          (u + 3, ((1, 1), (2, 3), (4, 2)) if n >= 4
                           else ((1, 2),))):
            problem = uint64_problem(*block_tables(rng, n, v, eqs, blocks),
                                     u, v)
            claws, evals = find_claws_sorted(problem)
            assert evals == 2 * n
            assert claws == concatenate_find_claws(problem), (u, v, blocks)


def test_sorted_claws_across_step_scan_blocks():
    """At u = 16 the step scan runs over four blocks of keys.  With f and
    g the identity every even neighbour pair, the first of each block
    included, is one claw's step; 16-bit random values give about 2^16
    claws spread over every block."""
    n = 1 << 16
    identity = np.arange(n, dtype=np.uint64)[None, :]
    problem = uint64_problem(identity, identity, 16, 16)
    assert find_claws_sorted(problem)[0] == [(x, x) for x in range(n)]
    rng = np.random.default_rng(16)
    problem = uint64_problem(*block_tables(rng, n, 16, 1, ()), 16, 16)
    claws, _ = find_claws_sorted(problem)
    assert len(claws) > 1 << 15
    assert claws == concatenate_find_claws(problem)


def test_sorted_claws_with_a_64_bit_key():
    # 2 x 29 value bits + 5 index bits + 1 side bit = 64
    rng = np.random.default_rng(64)
    for trial in range(20):
        f_tabs, g_tabs = block_tables(rng, 32, 29, 2, ((2, 2), (1, 3)))
        for tabs in (f_tabs, g_tabs):
            tabs[0] |= np.uint64(1 << 28)    # every key's top bit is set
        problem = uint64_problem(f_tabs, g_tabs, 5, 29)
        claws, _ = find_claws_sorted(problem)
        assert claws
        assert claws == concatenate_find_claws(problem)


def test_side_table_packs_any_integer_dtype():
    """Families returning int64, uint8 or uint32 pack as astype(uint64)
    copies did; an in-place uint64 |= int64 would raise instead."""
    rng = np.random.default_rng(5)
    tabs = rng.integers(0, 256, size=(3, 1 << 8))
    dtypes = (np.int64, np.uint8, np.uint32)
    families = [tuple((lambda x, t=t.astype(d): t[x])
                      for t, d in zip(tabs, order))
                for order in (dtypes, dtypes[::-1])]
    problem = ClawProblem(domain_bits=8, range_bits=8,
                          f_family=families[0], g_family=families[1])
    for side in (0, 1):
        got = side_table(problem, side)
        assert got.dtype == np.uint64
        assert np.array_equal(got, concatenate_side_table(problem, side))
    assert find_claws_sorted(problem)[0] == concatenate_find_claws(problem)


def test_sorted_census_peak_memory_w16():
    """Bytes, not time: the traced peak of one sort-and-match census on a
    w=16 random-F instance (its domain and round tables already built)
    stays near its one 2^17-entry key buffer, the only full-width array
    it holds, against 3.5 MiB for the concatenate packing."""
    spec = FeistelSpec(word_width=16, round_function="random", seed=7)
    problem = build_claw_problem(
        make_pair_set(spec, random_subkeys(spec, 3), 3), spec)
    want = find_claws_sorted(problem)
    tracemalloc.start()
    try:
        got = find_claws_sorted(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak <= 2.25 * 2 ** 20, peak


def planted_block_problem(rng, u, origins):
    """A u-bit problem in shifted coordinates with 7 claws, each in the
    first or the last f row of a comparison block, the first and the
    last block included: f values even, g values odd, and then some g
    entries set to f values, one of them twice (a claw block K_{1,2})."""
    n = 1 << u
    rows = EXHAUSTIVE_BLOCK // n
    f_tab = 2 * rng.permutation(n).astype(np.uint32)
    g_tab = 2 * rng.permutation(n).astype(np.uint32) + 1
    edge_rows = (0, rows - 1, rows, 3 * rows - 1, n - rows, n - 1, rows)
    for y1, y2 in zip(edge_rows, rng.choice(n, len(edge_rows),
                                            replace=False)):
        g_tab[y2] = f_tab[y1]
    return ClawProblem(domain_bits=u, range_bits=u + 1,
                       f_family=(lambda y: f_tab[y],),
                       g_family=(lambda y: g_tab[y],), origins=origins)


def argwhere_census(problem):
    """The census as one 2^u x 2^u comparison matrix."""
    f_tab, g_tab = side_table(problem, 0), side_table(problem, 1)
    pairs = np.argwhere(f_tab[:, None] == g_tab[None, :])
    return sorted(map(tuple, (pairs ^ problem.origins).tolist()))


def test_exhaustive_census_across_row_blocks():
    """At u = 12 the scan compares 256 f rows per block; claws sit in the
    first and last row of blocks, and the origins relabel them."""
    rng = np.random.default_rng(12)
    assert EXHAUSTIVE_BLOCK // (1 << 12) == 256
    for origins in ((0, 0), (0x5a3, 0xfff), (1, 0x800)):
        problem = planted_block_problem(rng, 12, origins)
        want = argwhere_census(problem)
        assert len(want) == 7
        assert find_claws_exhaustive(problem) == want


def test_exhaustive_census_peak_memory_u12():
    """Bytes, not time: one comparison block of 2^20 booleans, against
    16 MiB for the whole 2^12 x 2^12 matrix."""
    problem = planted_block_problem(np.random.default_rng(4), 12, (3, 9))
    want = argwhere_census(problem)
    tracemalloc.start()
    try:
        got = find_claws_exhaustive(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak <= 4 * 2 ** 20, peak
