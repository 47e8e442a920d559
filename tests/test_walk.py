import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from clawbench import walk
from clawbench.claw import (CapacityError, ClawProblem,
                            find_claws_exhaustive)
from clawbench.cli import planted_claw_problem
from clawbench.walk import (CollapsedWalkSim, FullWalkSim, UniqueClawRequired,
                            WalkParams, _collapsed_step_matrix, _reflect,
                            _side_operators, claw_walk_sample, ledger_law,
                            run_walk, tune_outer_reps,
                            walk_expected_queries, walk_params)


def test_walk_params_balanced():
    p = walk_params(8, 8)
    assert (p.r, p.t1, p.t2, p.outer_reps) == (4, 2, 2, 2)


def test_walk_params_lopsided():
    # both claw sides are 2^w-key domains: only the balanced regime runs
    with pytest.raises(ValueError, match="equal size"):
        walk_params(4, 64)


def test_walk_params_refuse_sides_below_4():
    # r = ceil(N^(2/3)) reaches N at N = 2 and 3
    for n in (2, 3):
        with pytest.raises(ValueError, match="at least 4 elements"):
            walk_params(n, n)
    assert walk_params(4, 4).r == 3


def scaled_params(n_side, scale):
    """walk_params(n_side, n_side) with ceil(scale x the base outer count)
    repetitions: 1, base and 2 x base for scale 0.5, 1 and 2 at N = 4..10,
    where the base count is 2."""
    params = walk_params(n_side, n_side)
    return replace(params, outer_reps=math.ceil(scale * params.outer_reps))


def test_simulators_refuse_a_subset_as_large_as_the_side():
    with pytest.raises(ValueError, match="1 <= r < N"):
        CollapsedWalkSim(8, WalkParams(8, 1, 1, 1))


def test_ledger_law():
    p = WalkParams(r=41, t1=6, t2=6, outer_reps=12)
    assert ledger_law(p) == 41 + 41 + 12 * (6 + 6) * 2


def reflected(state, k):
    """_reflect works in place: apply it to a copy."""
    out = state.copy()
    _reflect(out, k)
    return out


def reference_reflect(state, axis, k):
    """The textbook diffusion 2 mean - x over groups of k, into a new
    array."""
    shape = state.shape
    groups = state.reshape(shape[:axis] + (-1, k) + shape[axis + 1:])
    mean = groups.mean(axis=axis + 1, keepdims=True)
    return (2 * mean - groups).reshape(shape)


def test_full_side_operators_are_orthogonal():
    n_side, r = 6, 2
    basis, insert, remove = _side_operators(n_side, r)
    eye = np.eye(len(basis))
    # each sub-operator applied to the identity along axis 0
    d_out = reflected(eye, n_side - r)
    ins = eye.take(insert, 0)
    d_in = reflected(eye, r + 1)
    rem = eye.take(remove, 0)
    # the two diffusions are reflections, the two queries permutations
    assert np.allclose(d_out @ d_out, eye, atol=1e-12)
    assert np.allclose(d_in @ d_in, eye, atol=1e-12)
    assert np.allclose(ins @ ins.T, eye, atol=1e-12)
    assert np.allclose(rem @ rem.T, eye, atol=1e-12)


def test_full_sub_operators_match_their_definition():
    n_side, r = 6, 2
    basis, insert, remove = _side_operators(n_side, r)
    grown = [(s, z) for s in itertools.combinations(range(n_side), r + 1)
             for z in s]
    eye = np.eye(len(basis))
    # each diffusion mixes the states that share their subset
    for states, k in ((basis, n_side - r), (grown, r + 1)):
        same = np.array([[a[0] == b[0] for b in states] for a in states])
        assert np.allclose(reflected(eye, k), same * 2 / k - eye,
                           atol=1e-15)
    # insert gathers (S, z) into (S + {z}, z); remove gathers it back
    for i, (s, z) in enumerate(basis):
        j = grown.index((tuple(sorted(s + (z,))), z))
        assert insert[j] == i and remove[i] == j


@pytest.mark.parametrize("k", range(2, 13))
def test_in_place_reflection_is_bit_identical_to_the_mean(k):
    """Every group size a reachable full-basis run uses, and larger ones:
    the in-place sequential sum over rows gives numpy's mean to the last
    bit."""
    rng = np.random.default_rng(k)
    state = rng.standard_normal((6 * k, 9 * k))
    want = reference_reflect(state, 0, k)
    _reflect(state, k)
    assert state.tobytes() == want.tobytes()


def claw_mark(basis, claws):
    """The states whose subsets hold at least one of the claws."""
    mark = np.zeros((len(basis), len(basis)), dtype=bool)
    for j1, j2 in claws:
        mark |= np.outer([j1 in s for s, _ in basis],
                         [j2 in s for s, _ in basis])
    return mark


def axis_reference_walk(n_side, params, claws):
    """The full walk with side 1 on axis 0 throughout: each side's
    sub-operators act along that side's own axis, side 2's along the
    contiguous axis 1, each into a new array.  Returns the final state
    and the claw mark."""
    r = params.r
    basis, insert, remove = _side_operators(n_side, r)
    mark = claw_mark(basis, claws)
    state = np.full(mark.shape, 1 / len(basis))
    for _ in range(params.outer_reps):
        state = np.where(mark, -state, state)
        for axis, steps in ((0, params.t1), (1, params.t2)):
            for _ in range(steps):
                for k, query in ((n_side - r, insert), (r + 1, remove)):
                    state = reference_reflect(state, axis, k).take(query,
                                                                   axis)
    return state, mark


@pytest.mark.parametrize("scale", (0.5, 1, 2))
@pytest.mark.parametrize("n_side", range(4, 11))
def test_full_walk_is_bit_identical_to_the_axis_reference(n_side, scale):
    """Stepping each side on axis 0, with one transposing copy per side
    switch, leaves every amplitude as the per-axis reference computes it.
    The reference's numpy mean along axis 1 adds a group's entries one
    after another, as the simulator does, only for groups below 8, which
    walk_params gives up to N = 11."""
    params = scaled_params(n_side, scale)
    assert max(n_side - params.r, params.r + 1) < 8
    rng = np.random.default_rng([n_side, int(2 * scale)])
    claws = [tuple(int(v) for v in rng.integers(0, n_side, size=2))
             for _ in range(1 + (n_side + int(2 * scale)) % 3)]
    want, mark = axis_reference_walk(n_side, params, claws)
    want_prob = float((want[mark] ** 2).sum())
    for fine in (True, False):
        sim = FullWalkSim(n_side, params, claws)
        assert repr(sim.run(fine)) == repr(want_prob)
        assert sim.state.tobytes() == want.tobytes()
        assert sim.norm_drift() < 1e-12


def test_full_walk_peak_memory():
    """Bytes, not time: the diffusions work in place and each query is one
    gather, so a full run holds at most two states and the group means
    (3.2 states when each sub-operator returned a new state)."""
    tracemalloc.start()
    try:
        sim = FullWalkSim(9, walk_params(9, 9), [(1, 3)])
        sim.run(fine=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * sim.state.nbytes, peak / sim.state.nbytes


def sequential_reflect(state, k):
    """A group's sum as a copy of its first row plus k - 1 in-place adds,
    then 2 mean - x in place."""
    groups = state.reshape(-1, k, state.shape[1])
    twice_mean = groups[:, 0].copy()
    for i in range(1, k):
        twice_mean += groups[:, i]
    twice_mean /= k
    twice_mean *= 2
    np.subtract(twice_mean[:, None], groups, out=groups)


def stored_layout_reference_walk(n_side, params, claws, fine):
    """The full walk step by step with sequential group sums, the phase
    flip written through the side-1 view of the stored amplitudes, and
    the norm of that view logged as FullWalkSim logs it.  Returns the
    final side-1 view and the norm log."""
    r = params.r
    basis, insert, remove = _side_operators(n_side, r)
    mark = claw_mark(basis, claws)
    amps, rows = np.full(mark.shape, 1 / len(basis)), 1

    def view():
        return amps if rows == 1 else amps.T

    norms = [float(np.linalg.norm(view()))]
    for _ in range(params.outer_reps):
        state = view()
        np.negative(state, out=state, where=mark)
        norms.append(float(np.linalg.norm(view())))
        for side in [1] * params.t1 + [2] * params.t2:
            if side != rows:
                amps, rows = np.ascontiguousarray(amps.T), side
            for k, query in ((n_side - r, insert), (r + 1, remove)):
                sequential_reflect(amps, k)
                if fine:
                    norms.append(float(np.linalg.norm(view())))
                amps = amps.take(query, 0)
                if fine:
                    norms.append(float(np.linalg.norm(view())))
            if not fine:
                norms.append(float(np.linalg.norm(view())))
    return view(), norms


@pytest.mark.parametrize("n_claws", (1, 2, 3))
@pytest.mark.parametrize("n_side", range(4, 11))
def test_full_walk_is_bit_identical_to_the_stored_layout_reference(
        n_side, n_claws):
    """One reduction per reflection and the phase flip on the stored
    array leave every amplitude, the success probability and every
    norm_log entry as the step-by-step reference computes them."""
    params = walk_params(n_side, n_side)
    rng = np.random.default_rng([n_side, n_claws])
    claws = [tuple(int(v) for v in rng.integers(0, n_side, size=2))
             for _ in range(n_claws)]
    for fine in (True, False):
        want, want_norms = stored_layout_reference_walk(n_side, params,
                                                        claws, fine)
        sim = FullWalkSim(n_side, params, claws)
        prob = sim.run(fine)
        assert sim.state.tobytes() == want.tobytes()
        assert sim.norm_log == want_norms
        assert repr(prob) == repr(float((want[sim.mark] ** 2).sum()))


@pytest.mark.parametrize("k", range(2, 13))
def test_reflection_of_signed_zero_groups(k):
    """np.add.reduce starts a sum from +0.0 where the copied first row
    keeps -0.0, so an all-(-0.0) group's mean differs in sign only; its
    reflected entries are +0.0 either way."""
    rng = np.random.default_rng(k)
    state = rng.standard_normal((4 * k, 5))
    state[:k] = -0.0
    state[k:2 * k, :2] = -0.0
    state[2 * k, :] = 0.0
    want = state.copy()
    sequential_reflect(want, k)
    _reflect(state, k)
    assert state.tobytes() == want.tobytes()


@pytest.mark.parametrize("side", (0, 3, -1))
def test_walk_step_refuses_a_side_other_than_1_or_2(side):
    sim = FullWalkSim(6, walk_params(6, 6), claws=[(1, 2)])
    sim.walk_step(2)
    before, queries = sim.state.tobytes(), sim.ledger.oracle_queries
    norms = list(sim.norm_log)
    with pytest.raises(ValueError, match="side must be 1 or 2"):
        sim.walk_step(side)
    assert sim.state.tobytes() == before
    assert sim.ledger.oracle_queries == queries
    assert sim.norm_log == norms
    # the refused call left the layout as it was
    sim.walk_step(1)
    other = FullWalkSim(6, walk_params(6, 6), claws=[(1, 2)])
    other.walk_step(2)
    other.walk_step(1)
    assert sim.state.tobytes() == other.state.tobytes()


def test_side_operators_are_built_once_and_read_only():
    a = FullWalkSim(7, walk_params(7, 7), claws=[(0, 1)])
    b = FullWalkSim(7, walk_params(7, 7), claws=[(2, 3), (4, 4)])
    assert a.basis is b.basis and isinstance(a.basis, tuple)
    assert a.insert is b.insert and a.remove is b.remove
    for query in (a.insert, a.remove):
        with pytest.raises(ValueError, match="read-only"):
            query[0] = 0
    assert _side_operators(7, 3) is not _side_operators(7, 4)


def test_collapsed_step_is_orthogonal():
    step = _collapsed_step_matrix(10, 4)
    assert np.allclose(step @ step.T, np.eye(3), atol=1e-12)


def test_walk_without_phase_flip_fixes_uniform_state():
    params = WalkParams(2, 3, 3, 1)
    sim = FullWalkSim(6, params, claws=[(0, 0)])
    uniform = sim.state.copy()
    for _ in range(4):
        sim.walk_step(1)
        sim.walk_step(2)
    assert np.allclose(sim.state, uniform, atol=1e-12)


def test_full_vs_collapsed_agree():
    for bits, n_side in ((2, 4), (None, 6), (3, 8), (None, 10)):
        params = walk_params(n_side, n_side)
        collapsed = CollapsedWalkSim(n_side, params)
        p_collapsed = collapsed.run()
        full = FullWalkSim(n_side, params, claws=[(1, 2 % n_side)])
        p_full = full.run()
        assert p_full == pytest.approx(p_collapsed, abs=1e-10)
        assert collapsed.norm_drift() < 1e-12
        assert full.norm_drift() < 1e-12


@settings(max_examples=40, deadline=None)
@given(n_side=st.integers(4, 9), scale=st.sampled_from((0.5, 1, 2)),
       data=st.data())
def test_full_walk_matches_collapsed_and_fine_is_only_logging(
        n_side, scale, data):
    params = scaled_params(n_side, scale)
    side = st.integers(0, n_side - 1)
    claw = data.draw(st.tuples(side, side))
    full = FullWalkSim(n_side, params, [claw])
    collapsed = CollapsedWalkSim(n_side, params)
    assert abs(full.run() - collapsed.run()) <= 1e-10
    assert full.norm_drift() < 1e-12
    # fine only sets how often the norm is logged
    claws = data.draw(st.lists(st.tuples(side, side), min_size=1,
                               max_size=3, unique=True))
    fine = FullWalkSim(n_side, params, claws)
    coarse = FullWalkSim(n_side, params, claws)
    fine.run(fine=True)
    coarse.run(fine=False)
    assert np.array_equal(fine.state, coarse.state)


def stepwise_reference(n_side, params):
    """The collapsed walk one single step at a time: per outer repetition a
    phase flip, then t1 steps on side 1 and t2 on side 2, each logging the
    norm.  Returns the success probability after every repetition, the
    query count and the norm log."""
    r = params.r
    side = np.sqrt(np.array([r, 1, n_side - r - 1]) / n_side)
    state = np.outer(side, side)
    step = _collapsed_step_matrix(n_side, r)
    queries = 2 * r
    norms = [np.linalg.norm(state)]
    probs = []
    for _ in range(params.outer_reps):
        state[0, 0] = -state[0, 0]
        norms.append(np.linalg.norm(state))
        for _ in range(params.t1):
            state = step @ state
            norms.append(np.linalg.norm(state))
            queries += 2
        for _ in range(params.t2):
            state = state @ step.T
            norms.append(np.linalg.norm(state))
            queries += 2
        probs.append(float(state[0, 0] ** 2))
    return probs, queries, norms


@settings(max_examples=60, deadline=None)
@example(n_side=1 << 12, scale=2, extra_t2=3)
@given(n_side=st.integers(4, 1 << 12),
       scale=st.sampled_from((0.5, 1, 2)),
       extra_t2=st.sampled_from((0, 0, 1, 3)))
def test_block_walk_matches_stepwise_reference(n_side, scale, extra_t2):
    params = scaled_params(n_side, scale)
    params = replace(params, t2=params.t2 + extra_t2)
    # the tuning scan: three times the base count of repetitions
    scan = replace(params, outer_reps=3 * params.outer_reps)
    want, queries, norms = stepwise_reference(n_side, scan)
    sim = CollapsedWalkSim(n_side, scan)
    got = []
    for _ in range(scan.outer_reps):
        sim.outer_rep()
        got.append(sim.success_prob())
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-13
    assert sim.ledger.oracle_queries == queries == ledger_law(scan)
    assert max(abs(v - 1.0) for v in norms) < 1e-12
    assert sim.norm_drift() < 1e-12
    # a run is a prefix of the scan, and tuning picks the same count
    run = CollapsedWalkSim(n_side, params).run()
    assert run == got[params.outer_reps - 1]
    assert (tune_outer_reps(n_side, params).outer_reps
            == want.index(max(want)) + 1)


def test_ledger_matches_law_on_runs():
    for n_side in (8, 16):
        params = walk_params(n_side, n_side)
        sim = CollapsedWalkSim(n_side, params)
        sim.run()
        assert sim.ledger.oracle_queries == ledger_law(params)


def test_small_instance_amplification_is_weak():
    """Honest regression anchor: at N=4 per side with r=2, the walk never
    reaches 2x the (r/N)^2 = 0.25 baseline; the best probability over
    t, outer <= 12 is ~0.42 (at t=2, outer=8), and the headline
    (t=2, outer=2) configuration only reaches ~0.0149."""
    p_default = CollapsedWalkSim(4, WalkParams(2, 2, 2, 2)).run()
    assert p_default == pytest.approx(0.01488615706641165, abs=1e-12)
    best = max(CollapsedWalkSim(4, WalkParams(2, t, t, o)).run()
               for t in range(1, 6) for o in range(1, 13))
    assert best == pytest.approx(0.4177657271418196, abs=1e-9)
    assert best < 0.5


def test_tuned_outer_reps_beat_baseline_at_n256():
    params = walk_params(256, 256)
    tuned = tune_outer_reps(256, params)
    prob = CollapsedWalkSim(256, tuned).run()
    baseline = (tuned.r / 256) ** 2
    assert prob >= 2 * baseline
    assert prob == pytest.approx(0.06342090659555644, abs=1e-9)


# The untuned walk, walk_params(N, N) as it stands, at N = 2^bits: (bits,
# mode, (r, t1, t2, outer_reps), repr(success_prob), one run's ledger,
# walk_expected_queries).  The full walk marks (2, 6), the claw that
# planted_claw_problem(3, 0) plants.
BASE_WALK_PINS = [
    (3, "collapsed", (4, 2, 2, 2), "0.04751869838786557", 24, 506),
    (3, "full", (4, 2, 2, 2), "0.04751869838786566", 24, 506),
    (4, "collapsed", (7, 3, 3, 3), "0.11176478750535397", 50, 448),
    (5, "collapsed", (11, 3, 3, 3), "0.10349739442334714", 58, 561),
    (6, "collapsed", (16, 4, 4, 4), "0.03991723343753635", 96, 2405),
    (7, "collapsed", (26, 5, 5, 5), "0.029439138770590446", 152, 5164),
    (8, "collapsed", (41, 6, 6, 7), "0.011029410489888687", 250, 22667),
]


@pytest.mark.parametrize("bits, mode, params, prob, queries, expected",
                         BASE_WALK_PINS)
def test_base_walk_is_pinned(bits, mode, params, prob, queries, expected):
    n = 1 << bits
    base = WalkParams(*params)
    assert walk_params(n, n) == base
    sim = (CollapsedWalkSim(n, base) if mode == "collapsed"
           else FullWalkSim(n, base, [(2, 6)]))
    assert repr(sim.run()) == prob
    assert sim.ledger.oracle_queries == queries == ledger_law(base)
    assert walk_expected_queries(base, sim.success_prob()) == expected


def test_tuning_from_one_run_equals_per_count_resimulation():
    for u in range(3, 13):
        n = 1 << u
        for scale in (0.5, 1, 2):
            params = scaled_params(n, scale)
            # reference: a fresh simulation for every candidate count
            probs = [CollapsedWalkSim(n, WalkParams(
                params.r, params.t1, params.t2, outer)).run()
                for outer in range(1, 3 * params.outer_reps + 1)]
            want = probs.index(max(probs)) + 1
            assert tune_outer_reps(n, params).outer_reps == want, \
                (n, scale)


def test_claw_walk_sample_modes_agree():
    problem, planted = planted_claw_problem(3, seed=2)
    rc = claw_walk_sample(problem, seed=2, mode="collapsed")
    rf = claw_walk_sample(problem, seed=2, mode="full")
    assert rc.claw == rf.claw == planted
    assert rf.success_prob == pytest.approx(rc.success_prob, abs=1e-10)
    for result in (rc, rf):
        assert result.ledger.oracle_queries == \
            result.retries * ledger_law(result.params)


def test_collapsed_requires_unique_claw(monkeypatch):
    n = 8
    f_tab = np.zeros(n, np.uint32)
    g_tab = np.zeros(n, np.uint32)
    problem = ClawProblem(domain_bits=3, range_bits=4,
                          f_family=(lambda x: f_tab[x],),
                          g_family=(lambda x: g_tab[x],))
    with pytest.raises(UniqueClawRequired):
        claw_walk_sample(problem, seed=0, mode="collapsed")
    # the refusal comes before any tuning work
    monkeypatch.setattr("clawbench.walk.tune_outer_reps", None)
    with pytest.raises(UniqueClawRequired):
        claw_walk_sample(problem, seed=0, mode="collapsed")


def test_claw_walk_sample_refuses_several_claws_in_full_mode():
    n = 8
    f_tab = np.arange(n, dtype=np.uint32)
    g_tab = f_tab.copy()
    problem = ClawProblem(domain_bits=3, range_bits=4,
                          f_family=(lambda x: f_tab[x],),
                          g_family=(lambda x: g_tab[x],))
    assert len(find_claws_exhaustive(problem)) == n
    with pytest.raises(UniqueClawRequired, match="found 8"):
        claw_walk_sample(problem, seed=0, mode="full")


def test_run_walk_refuses_over_the_step_guard_before_building(monkeypatch):
    """run_walk applies check_walk first, so a walk over the step guard is
    refused, with its tuning scan's step count, before any simulator is
    built."""
    def no_sim(*args):
        raise AssertionError("a simulator was built before the refusal")

    monkeypatch.setattr(walk, "CollapsedWalkSim", no_sim)
    monkeypatch.setattr(walk, "FullWalkSim", no_sim)
    params = WalkParams(4, 2, 2, 300_000)       # 1.2M steps, scan 3.6M
    for mode in ("collapsed", "full"):
        with pytest.raises(CapacityError, match="walk steps: 3600000 "):
            run_walk(8, params, [(0, 0)], mode)
    with pytest.raises(ValueError, match="unknown mode"):
        run_walk(8, walk_params(8, 8), [(0, 0)], "bogus")


# claw_walk_sample(planted_claw_problem(bits, seed), seed=seed), collapsed
# and tuned, at the benchmark's planted-walk sizes: (bits, seed, claw,
# retries, oracle_queries).  Each retry draws one uniform against the
# success probability.
SAMPLE_PINS = [
    (8, 0, (34, 182), 3, 1110), (8, 1, (232, 54), 10, 3700),
    (8, 2, (225, 119), 8, 2960), (10, 0, (840, 347), 4, 2608),
    (10, 1, (885, 736), 62, 40424), (10, 2, (143, 964), 65, 42380),
    (12, 0, (2082, 1630), 12, 17376), (12, 1, (3495, 2068), 62, 89776),
    (12, 2, (328, 3232), 98, 141904),
]


@pytest.mark.parametrize("bits, seed, claw, retries, queries", SAMPLE_PINS)
def test_collapsed_sample_draws_are_pinned(bits, seed, claw, retries,
                                           queries):
    problem, planted = planted_claw_problem(bits, seed)
    result = claw_walk_sample(problem, seed=seed)
    assert planted == claw
    assert (result.claw, result.retries, result.ledger.oracle_queries) == \
        (claw, retries, queries)


def test_claw_walk_sample_checks_mode_before_the_census(monkeypatch):
    def no_census(problem):
        raise AssertionError("claw census built before the mode check")

    monkeypatch.setattr("clawbench.walk.find_claws_exhaustive", no_census)
    problem, _ = planted_claw_problem(3, seed=0)
    with pytest.raises(ValueError, match="unknown mode"):
        claw_walk_sample(problem, seed=0, mode="bogus")


def test_claw_walk_sample_finds_planted_claw():
    problem, planted = planted_claw_problem(4, seed=0)
    result = claw_walk_sample(problem, seed=0, mode="collapsed")
    assert result.claw == planted
    assert result.retries >= 1
    # the ledger charges every attempt
    per_run = ledger_law(result.params)
    assert result.ledger.oracle_queries == result.retries * per_run


def test_sampled_walk_cost_averages_to_the_expected_cost():
    """claw_walk_sample's charge is retries x ledger_law, and the retries
    are geometric with mean 1 / success_prob: over many seeds its mean
    lies within four standard errors of walk_expected_queries."""
    problem, planted = planted_claw_problem(4, seed=0)
    results = [claw_walk_sample(problem, seed=s) for s in range(2000)]
    assert all(r.claw == planted for r in results)
    p, per_run = results[0].success_prob, ledger_law(results[0].params)
    mean = np.mean([r.ledger.oracle_queries for r in results])
    std_error = per_run * np.sqrt(1 - p) / p / np.sqrt(len(results))
    assert abs(mean - walk_expected_queries(results[0].params, p)) \
        <= 4 * std_error


def test_walk_expected_queries_is_the_geometric_mean_cost():
    params = walk_params(16, 16)
    assert walk_expected_queries(params, 1.0) == ledger_law(params)
    assert walk_expected_queries(params, 0.25) == 4 * ledger_law(params)
    assert walk_expected_queries(params, 0.3) == \
        -(-ledger_law(params) * 10 // 3)
    for prob in (0.0, -0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="success probability"):
            walk_expected_queries(params, prob)


@pytest.mark.parametrize("mode", ["collapsed", "full"])
def test_claw_walk_sample_reports_exhausted_retries(mode):
    # success probability 0.2973 per measurement; seed 4 misses three
    # times (its first draws are 0.943, 0.511, 0.976)
    problem, _ = planted_claw_problem(3, seed=1)
    result = claw_walk_sample(problem, seed=4, mode=mode, max_retries=3)
    assert result.claw is None
    assert result.retries == 3
    assert result.ledger.oracle_queries == 3 * ledger_law(result.params)
    assert result.all_claws == find_claws_exhaustive(problem)


def test_claw_walk_sample_full_mode(monkeypatch):
    built = []

    class CountingSim(FullWalkSim):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr("clawbench.walk.FullWalkSim", CountingSim)
    problem, planted = planted_claw_problem(2, seed=1)
    result = claw_walk_sample(problem, seed=1, mode="full")
    assert result.claw == planted
    # every attempt measures the one simulated state
    assert len(built) == 1


def test_full_sim_capacity_guard():
    with pytest.raises(CapacityError):
        FullWalkSim(64, WalkParams(16, 4, 4, 4), claws=[(0, 0)])
