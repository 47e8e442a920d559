import numpy as np
import pytest

from clawbench.claw import (CapacityError, ClawProblem, concat_multi,
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


def test_family_length_mismatch_rejected():
    with pytest.raises(ValueError):
        ClawProblem(domain_bits=2, range_bits=3,
                    f_family=(lambda x: x,), g_family=())
