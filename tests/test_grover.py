import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clawbench import grover
from clawbench.claw import CapacityError
from clawbench.grover import (STATEVECTOR_LIMIT, STATEVECTOR_WORK_LIMIT,
                              GroverInstance, QueryLedger, check_statevector,
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


def closed_form_law(n, marked, iterations):
    """The law as an N-entry vector, normalised for rng.choice."""
    p_hit = grover_success_prob(n, len(marked), iterations)
    probs = np.full(n, (1 - p_hit) / max(n - len(marked), 1))
    probs[marked] = p_hit / len(marked)
    return probs / probs.sum()


def choice_cdf(p):
    """The CDF rng.choice(n, p=p) searches: cumsum, divided by its last
    entry; its draw is searchsorted(u, side="right")."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def test_iteration_counts():
    assert grover_iterations(4, 1) == 1
    assert grover_iterations(1 << 16, 1) == 201
    assert grover_iterations(256, 1) == int(math.pi / 4 * 16)  # 12
    with pytest.raises(ValueError):
        grover_iterations(4, 0)


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


def test_capacity_guard():
    with pytest.raises(CapacityError):
        grover_run_statevector(GroverInstance(1 << 21, (0,), 1))


def test_statevector_work_guard():
    # the largest benchmark job, 804 iterations at N = 2^20, is allowed;
    # an iteration counts as at least 2^12 amplitude updates
    check_statevector(STATEVECTOR_LIMIT, 804)
    check_statevector(8, STATEVECTOR_WORK_LIMIT >> 12)
    for n, iterations in ((8, (STATEVECTOR_WORK_LIMIT >> 12) + 1),
                          (STATEVECTOR_LIMIT, 1025),
                          (STATEVECTOR_LIMIT + 1, 0)):
        with pytest.raises(CapacityError):
            check_statevector(n, iterations)
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
    # the closed-form draw equals the statevector draw seed for seed,
    # including several marked items under the single-item iteration count
    # (as the attack's search stages run it) and every item marked
    grids = [(4, (2,), 1), (256, (7,), None), (256, (3, 40, 41, 200), 12),
             (64, tuple(range(0, 64, 3)), 6), (1 << 10, (137,), None),
             (16, tuple(range(16)), 3)]
    for n, marked, iterations in grids:
        inst = GroverInstance(n, marked, iterations)
        probs, _ = grover_run_statevector(inst)
        for seed in range(200):
            want = np.random.default_rng(seed).choice(n, p=probs / probs.sum())
            given = (None, list(marked), np.array(marked))[seed % 3]
            idx, ledger = grover_sample(
                lambda x: x in inst.marked, n, seed, iterations,
                marked=given)
            assert idx == want
            assert ledger.oracle_queries == inst.iterations


@pytest.mark.parametrize("marked", [[-1], [8], [3, 3], np.array([5, 3, 5]),
                                    np.array([[3, 5]]), [2.0], []])
def test_sample_rejects_bad_marked_indices(marked):
    # N = 8: out of range, duplicated, not 1-D, not integer, or empty
    with pytest.raises(ValueError):
        grover_sample(lambda x: False, 8, seed=0, marked=marked)


def test_sample_takes_marked_in_any_order():
    n, marked = 64, (3, 17, 40)
    for seed in range(20):
        draws = {grover_sample(None, n, seed, 6, marked=m)[0]
                 for m in (list(marked), np.array(marked),
                           np.array(marked[::-1], dtype=np.uint32))}
        assert len(draws) == 1


def test_sample_equals_rng_choice_on_the_closed_form_law():
    # seed for seed, the O(M) draw returns what rng.choice returns on the
    # N-entry law: every M at small N, sampled M up to M = N above, and
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
                p = closed_form_law(n, marked, r)
                for seed in rng.integers(1 << 31, size=seeds):
                    want = np.random.default_rng(seed).choice(n, p=p)
                    idx, ledger = grover_sample(None, n, seed, r,
                                                marked=marked)
                    assert idx == want, (n, m, r, seed)
                    assert ledger.oracle_queries == r
                    draws += 1
    assert draws >= 20_000


def test_draw_at_cdf_boundaries_matches_searchsorted(monkeypatch):
    # u on each CDF entry and one ulp either side: the closed-form
    # boundaries cannot decide these, so the draw falls back to the O(N)
    # path, and it must agree with searchsorted on choice's CDF
    fallbacks = []
    cdf_index = grover._cdf_index
    monkeypatch.setattr(grover, "_cdf_index",
                        lambda *args: fallbacks.append(1) or cdf_index(*args))
    rng = np.random.default_rng(7)
    cases = [(2, 1, 0), (2, 2, 1), (3, 1, 1), (3, 2, 3), (4, 1, 1),
             (4, 4, 2), (8, 1, 2), (8, 3, 4), (8, 8, 0), (256, 1, 12),
             (256, 1, 0), (256, 4, 12), (256, 255, 14), (256, 256, 6),
             (1 << 12, 1, 50), (1 << 12, 17, 7)]
    for n, m, r in cases:
        marked = np.sort(rng.choice(n, size=m, replace=False))
        p_hit = grover_success_prob(n, m, r)
        cdf = choice_cdf(closed_form_law(n, marked, r))
        for c in cdf:
            for u in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0)):
                if u < 1.0:
                    want = int(cdf.searchsorted(u, side="right"))
                    assert grover._closed_form_index(
                        float(u), marked, n, p_hit) == want, (n, m, r, u)
    assert fallbacks
