import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from clawbench.claw import CapacityError
from clawbench.grover import (STATEVECTOR_LIMIT,
                              STATEVECTOR_WORK_LIMIT,
                              GroverInstance, QueryLedger,
                              bbht_expected_queries, check_statevector,
                              grover_iterations, grover_run_statevector,
                              grover_sample, grover_success_prob,
                              marked_probability)


def two_pass_reference(inst, norm_log=None):
    """The textbook loop: negate the marked amplitudes, then reflect about
    the mean, reduced afresh each iteration, into a new array."""
    n = inst.n_items
    marked = np.array(inst.marked)
    amp = np.full(n, 1 / math.sqrt(n))
    ledger = QueryLedger()
    for _ in range(inst.iterations):
        amp[marked] = -amp[marked]
        ledger.charge(1)
        if norm_log is not None:
            norm_log.append(float(np.linalg.norm(amp)))
        amp = 2 * amp.mean() - amp
        if norm_log is not None:
            norm_log.append(float(np.linalg.norm(amp)))
    return amp ** 2, ledger


def per_iteration_reference(inst, norm_log=None):
    """The statevector one iteration at a time over all N amplitudes: the
    amplitude sum carried through the oracle, then the in-place pass
    amp <- 2 * sum / N - amp."""
    n = inst.n_items
    marked = np.array(inst.marked)
    amp = np.full(n, 1 / math.sqrt(n))
    total = amp.sum()
    ledger = QueryLedger()
    for _ in range(inst.iterations):
        total -= 2 * amp[marked].sum()
        amp[marked] = -amp[marked]
        ledger.charge(1)
        if norm_log is not None:
            norm_log.append(float(np.linalg.norm(amp)))
        np.subtract(2 * total / n, amp, out=amp)
        if norm_log is not None:
            norm_log.append(float(np.linalg.norm(amp)))
    return amp ** 2, ledger


def naive_draw(n, marked, iterations, seed):
    """The law as stated, in O(N): hit with p_hit and take a uniform marked
    item, else a uniform item of the unmarked set built by setdiff1d, from
    the same uniforms grover_sample draws.  marked is ascending."""
    rng = np.random.default_rng(seed)
    p_hit = grover_success_prob(n, len(marked), iterations)
    if len(marked) == n or rng.random() < p_hit:
        return int(marked[rng.integers(len(marked))])
    unmarked = np.setdiff1d(np.arange(n), marked, assume_unique=True)
    return int(unmarked[rng.integers(unmarked.size)])


def test_iteration_counts():
    assert grover_iterations(4, 1) == 1
    assert grover_iterations(1 << 16, 1) == 201
    assert grover_iterations(256, 1) == int(math.pi / 4 * 16)  # 12
    with pytest.raises(ValueError, match="no marked element"):
        grover_iterations(4, 0)
    with pytest.raises(ValueError, match="more marked elements"):
        grover_iterations(4, 5)


def test_ledger_refuses_negative_charge():
    ledger = QueryLedger()
    with pytest.raises(ValueError, match="monotone"):
        ledger.charge(-1)
    assert ledger.oracle_queries == 0


def test_closed_form_edge_cases():
    # R=0 leaves the uniform superposition: success M/N
    assert grover_success_prob(8, 2, 0) == pytest.approx(0.25)
    # N=4, M=1, R=1 is exact
    assert grover_success_prob(4, 1, 1) == pytest.approx(1.0, abs=1e-15)


def test_statevector_matches_closed_form_n4():
    prob, ledger = marked_probability(GroverInstance(4, (2,), 1))
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert ledger.oracle_queries == 1


def test_statevector_matches_closed_form_randomized():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(4, 1 << 12))
        m = int(rng.integers(1, 5))
        marked = tuple(int(x) for x in rng.choice(n, size=m, replace=False))
        inst = GroverInstance(n, marked)
        prob, _ = marked_probability(inst)
        want = grover_success_prob(n, len(inst.marked), inst.iterations)
        assert prob == pytest.approx(want, abs=1e-9)


def test_norm_preserved():
    log = []
    inst = GroverInstance(512, (3, 100), 10)
    grover_run_statevector(inst, norm_log=log)
    assert len(log) == 2 * inst.iterations
    assert max(abs(v - 1.0) for v in log) < 1e-12


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 1 << 12), data=st.data(),
       scale=st.sampled_from((0, 1, 2)))
def test_one_pass_matches_two_pass_reference(n, data, scale):
    marked = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                max_size=8, unique=True))
    inst = GroverInstance(n, marked, scale * grover_iterations(n, len(marked)))
    log, ref_log = [], []
    probs, ledger = grover_run_statevector(inst, norm_log=log)
    want, ref_ledger = two_pass_reference(inst, norm_log=ref_log)
    assert np.max(np.abs(probs - want)) <= 1e-13
    assert ledger == ref_ledger
    assert len(log) == len(ref_log)


@st.composite
def statevector_cases(draw):
    """(N, marked, R): marked items partly drawn from both ends, R = 0,
    R1 or 2 R1 for R1 = grover_iterations."""
    n = draw(st.integers(4, 1 << 10))
    index = st.one_of(st.sampled_from((0, 1, n - 2, n - 1)),
                      st.integers(0, n - 1))
    marked = draw(st.lists(index, min_size=1, max_size=12, unique=True))
    scale = draw(st.sampled_from((0, 1, 2)))
    return n, marked, scale * grover_iterations(n, len(marked))


@settings(max_examples=100, deadline=None)
@example(case=(1 << 10, list(range(0, 1 << 10, 97)), 9))
@example(case=(200, [0, 6, 7, 63, 64, 127, 128, 199], 8))
@example(case=(5, [4], 0))
@example(case=(6, list(range(6)), 3))
@given(case=statevector_cases())
def test_statevector_is_bit_identical_to_per_iteration(case):
    """The scalar recursion gives the probabilities of the sweep over all
    N amplitudes to the last bit, marked items at both ends, M >= 8 and
    M = N included; its norms agree to rounding."""
    inst = GroverInstance(*case)
    want_log = []
    want, want_ledger = per_iteration_reference(inst, want_log)
    probs, ledger = grover_run_statevector(inst)
    log = []
    logged, _ = grover_run_statevector(inst, norm_log=log)
    assert probs.tobytes() == logged.tobytes() == want.tobytes()
    assert ledger == want_ledger
    assert len(log) == len(want_log)
    assert np.allclose(log, want_log, rtol=0, atol=1e-13)


def test_statevector_is_bit_identical_at_large_n():
    n = 3 * (1 << 17) + 5
    inst = GroverInstance(n, (0, (1 << 17) - 1, 1 << 17, 3 << 17, n - 1))
    probs, _ = grover_run_statevector(inst)
    assert probs.tobytes() == per_iteration_reference(inst)[0].tobytes()


def test_capacity_guard():
    with pytest.raises(CapacityError):
        grover_run_statevector(GroverInstance(1 << 21, (0,), 1))


def test_statevector_work_guard():
    # the largest benchmark job, 804 iterations at N = 2^20, is allowed;
    # an iteration counts as M + 1 amplitude updates, and at least 2^12
    check_statevector(STATEVECTOR_LIMIT, 804, 4)
    check_statevector(STATEVECTOR_LIMIT, 1025, 5)
    check_statevector(8, STATEVECTOR_WORK_LIMIT >> 12, 1)
    for n, iterations, n_marked in (
            (8, (STATEVECTOR_WORK_LIMIT >> 12) + 1, 1),
            (STATEVECTOR_LIMIT, 1025, STATEVECTOR_LIMIT),
            (STATEVECTOR_LIMIT + 1, 0, 1)):
        with pytest.raises(CapacityError):
            check_statevector(n, iterations, n_marked)
    # refused before the first iteration runs
    with pytest.raises(CapacityError):
        grover_run_statevector(GroverInstance(8, (1,), 10 ** 9))


def test_sample_rejects_negative_iterations():
    with pytest.raises(ValueError, match="iterations must be >= 0"):
        grover_sample(lambda x: x == 3, 8, seed=0, iterations=-1, marked=[3])


def test_statevector_limit_itself_runs():
    n = STATEVECTOR_LIMIT
    prob, ledger = marked_probability(GroverInstance(n, (0, n - 1), 1))
    assert prob == pytest.approx(grover_success_prob(n, 2, 1), abs=1e-12)
    assert ledger.oracle_queries == 1


def test_sample_finds_marked_item():
    target = 137
    idx, ledger = grover_sample(lambda x: x == target, 1 << 10, seed=0)
    assert idx == target
    assert ledger.oracle_queries == grover_iterations(1 << 10, 1)


def test_sample_beyond_statevector_guard_uses_closed_form():
    n = 1 << 22
    idx, ledger = grover_sample(lambda x: x == 5, n, seed=1, marked=[5])
    assert ledger.oracle_queries == grover_iterations(n, 1)
    # closed-form success here is ~1, so the sample lands on the target
    assert idx == 5


def test_sample_draws_from_the_statevector_law():
    # on each grid (several marked items under the single-item iteration
    # count, and every item marked)
    # the draw equals the naive reference seed for seed, and its hit rate
    # over 1,000 seeds is within 5 sigma of the statevector's marked mass
    grids = [(4, (2,), 1), (256, (7,), None), (256, (3, 40, 41, 200), 12),
             (64, tuple(range(0, 64, 3)), 6), (1 << 10, (137,), None),
             (16, tuple(range(16)), 3)]
    seeds = 1000
    for n, marked, iterations in grids:
        inst = GroverInstance(n, marked, iterations)
        probs, _ = grover_run_statevector(inst)
        p = float(probs[list(marked)].sum())
        hits = 0
        for seed in range(seeds):
            given = (None, list(marked), np.array(marked))[seed % 3]
            idx, ledger = grover_sample(
                lambda x: x in inst.marked, n, seed, iterations,
                marked=given)
            assert idx == naive_draw(n, marked, inst.iterations, seed)
            assert ledger.oracle_queries == inst.iterations
            hits += idx in inst.marked
        # the 1e-12 absorbs the rounding of p when it is 1
        sigma = math.sqrt(p * (1 - p) / seeds)
        assert abs(hits / seeds - p) <= 5 * sigma + 1e-12, (n, marked)


@pytest.mark.parametrize("marked", [[-1], [8], [3, 3], np.array([5, 3, 5]),
                                    np.array([[3, 5]]), [2.0], [], (1.5,)])
def test_sample_rejects_bad_marked_indices(marked):
    # N = 8: out of range, duplicated, not 1-D, not integer, or empty; the
    # sampler and GroverInstance share the check
    with pytest.raises(ValueError):
        grover_sample(lambda x: False, 8, seed=0, marked=marked)
    with pytest.raises(ValueError):
        GroverInstance(8, marked, 1)


def test_sample_takes_marked_in_any_order():
    n, marked = 64, (3, 17, 40)
    for seed in range(20):
        draws = {grover_sample(None, n, seed, 6, marked=m)[0]
                 for m in (list(marked), np.array(marked),
                           np.array(marked[::-1], dtype=np.uint32))}
        assert len(draws) == 1


def test_sample_equals_setdiff1d_reference_on_the_closed_form_law():
    # seed for seed, the O(log M) draw returns what the naive reference
    # returns: every M at small N, sampled M up to M = N above, and
    # iterations 0..R1 + 2 (N = 4, M = 1, R = 1 has p_hit = 1)
    assert grover_success_prob(4, 1, 1) == 1.0
    rng = np.random.default_rng(2024)
    draws = 0
    for n, seeds in ((2, 150), (3, 150), (4, 150), (8, 150), (1 << 8, 3),
                     (1 << 12, 1), (1 << 16, 1)):
        r1 = grover_iterations(n, 1)
        if n <= 1 << 8:
            ms = range(1, n + 1)
        else:
            ms = sorted({1, 2, 3, 4, 64, n // 2, n - 1, n,
                         *(int(x) for x in rng.integers(5, n, 8))})
        for m in ms:
            marked = np.sort(rng.choice(n, size=m, replace=False))
            rs = range(r1 + 3)
            if n == 1 << 16 and m > 1:
                rs = (0, 1, r1 // 2, r1, r1 + 1, r1 + 2)
            for r in rs:
                for seed in rng.integers(1 << 31, size=seeds):
                    idx, ledger = grover_sample(None, n, seed, r,
                                                marked=marked)
                    assert idx == naive_draw(n, marked, r, seed), \
                        (n, m, r, seed)
                    assert ledger.oracle_queries == r
                    draws += 1
    assert draws >= 20_000


class ScriptedRng:
    """Stands in for default_rng(seed): random() returns u, and
    integers(high) returns k, which must lie in [0, high)."""

    def __init__(self, u, k):
        self.u, self.k = u, k

    def random(self):
        return self.u

    def integers(self, high):
        assert 0 <= self.k < high
        return self.k


def test_draw_at_hit_and_run_boundaries_matches_reference(monkeypatch):
    # u one ulp below p_hit hits and u == p_hit misses (unless M == N);
    # then every k picks the k-th marked or the k-th unmarked index, so
    # each unmarked run, before, between and after the marked items, is
    # read up to its edges
    rng = np.random.default_rng(7)
    monkeypatch.setattr(np.random, "default_rng", lambda scripted: scripted)
    cases = [(2, 1, 0), (2, 2, 1), (3, 1, 1), (3, 2, 3), (4, 1, 1),
             (4, 4, 2), (8, 1, 2), (8, 3, 4), (8, 8, 0), (256, 1, 12),
             (256, 1, 0), (256, 4, 12), (256, 255, 14), (256, 256, 6),
             (1 << 12, 1, 50), (1 << 12, 17, 7)]
    for n, m, r in cases:
        marked = np.sort(rng.choice(n, size=m, replace=False))
        unmarked = np.setdiff1d(np.arange(n), marked)
        p_hit = grover_success_prob(n, m, r)
        below = float(np.nextafter(p_hit, 0.0))
        for u in (below, p_hit):
            hit = m == n or u < p_hit
            for k in range(m if hit else n - m):
                idx, _ = grover_sample(None, n, ScriptedRng(u, k), r,
                                       marked=marked)
                assert idx == (marked if hit else unmarked)[k], (n, m, r, u)


def bbht_schedule_costs(n, m, runs, rng):
    """Queries of independent runs of BBHT's schedule: rounds of j uniform
    in [0, ceil(s)) iterations, each measuring a marked item with
    grover_success_prob, with s growing by 6/5 up to sqrt(N)."""
    s = 1.0
    queries = np.zeros(runs, dtype=np.int64)
    searching = np.ones(runs, dtype=bool)
    while searching.any():
        p_hit = np.array([grover_success_prob(n, m, j)
                          for j in range(math.ceil(s))])
        j = rng.integers(p_hit.size, size=runs)
        queries[searching] += j[searching]
        searching &= rng.random(runs) >= p_hit[j]
        s = min(1.2 * s, math.sqrt(n))
    return queries


@pytest.mark.parametrize("n", [1 << 8, 1 << 12])
@pytest.mark.parametrize("m", [1, 2, 4, 32])
def test_bbht_law_matches_the_schedule(n, m):
    # 20,000 seeded runs of the schedule agree with the law, which is
    # their expectation rounded up, within 4 standard errors
    costs = bbht_schedule_costs(n, m, 20_000, np.random.default_rng(n + m))
    stderr = costs.std() / math.sqrt(costs.size)
    law = bbht_expected_queries(n, m)
    assert law - 1 - 4 * stderr < costs.mean() <= law + 4 * stderr


@pytest.mark.parametrize("n", [8, 256, 4096])
def test_bbht_law_within_its_bound(n):
    # BBHT's 9/2 * sqrt(N/M) bound for every M; the law stays within
    # 1.28 * sqrt(N/M) at these N
    for m in range(1, n + 1):
        assert bbht_expected_queries(n, m) <= 4.5 * math.sqrt(n / m), (n, m)


def test_bbht_law_edges():
    for n in (1, 8, 256, 1 << 16):
        assert bbht_expected_queries(n, 0) == math.ceil(4.5 * math.sqrt(n))
        assert bbht_expected_queries(n, n) == 0
    for n, m in ((1 << 16, 2), (1 << 16, 32), (1 << 16, 4), (8, 3)):
        assert type(bbht_expected_queries(n, m)) is int
    assert bbht_expected_queries(1 << 16, 4) == 174
    for m in (-1, 9):
        with pytest.raises(ValueError, match="marked count"):
            bbht_expected_queries(8, m)
