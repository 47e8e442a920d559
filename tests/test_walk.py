import numpy as np
import pytest

from clawbench.claw import CapacityError, ClawProblem
from clawbench.walk import (CollapsedWalkSim, FullWalkSim, UniqueClawRequired,
                            WalkParams, _collapsed_step_matrix,
                            _side_operators, claw_walk_run, claw_walk_sample,
                            ledger_law, tune_outer_reps, walk_params)


def planted_problem(domain_bits, claw_at=(0, 0)):
    """Single-equation problem whose only claw is claw_at."""
    n = 1 << domain_bits
    f_tab = np.arange(n, dtype=np.uint32) * 2            # even values
    g_tab = np.arange(n, dtype=np.uint32) * 2 + 1        # odd values
    g_tab[claw_at[1]] = f_tab[claw_at[0]]
    return ClawProblem(domain_bits=domain_bits, range_bits=domain_bits + 1,
                       f_family=(lambda x: f_tab[x],),
                       g_family=(lambda x: g_tab[x],))


def test_walk_params_balanced():
    p = walk_params(8, 8)
    assert (p.r1, p.r2, p.t1, p.t2, p.outer_reps) == (4, 4, 2, 2, 2)


def test_walk_params_lopsided():
    p = walk_params(4, 64)
    assert (p.r1, p.r2) == (4, 7)
    assert (p.t1, p.t2) == (2, 3)


def test_ledger_law():
    p = WalkParams(r1=41, r2=41, t1=6, t2=6, outer_reps=12)
    assert ledger_law(p) == 41 + 41 + 12 * (6 + 6) * 2


def test_full_side_operators_are_orthogonal():
    _, (d_out, ins, d_in, rem) = _side_operators(6, 2)
    eye = np.eye(d_out.shape[0])
    # the two diffusions are reflections, the two queries permutations
    assert np.allclose(d_out @ d_out, eye, atol=1e-12)
    assert np.allclose(d_in @ d_in, eye, atol=1e-12)
    assert np.allclose(ins @ ins.T, eye, atol=1e-12)
    assert np.allclose(rem @ rem.T, eye, atol=1e-12)


def test_collapsed_step_is_orthogonal():
    step = _collapsed_step_matrix(10, 4)
    assert np.allclose(step @ step.T, np.eye(3), atol=1e-12)


def test_walk_without_phase_flip_fixes_uniform_state():
    params = WalkParams(2, 2, 3, 3, 1)
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
    p_default = CollapsedWalkSim(4, WalkParams(2, 2, 2, 2, 2)).run()
    assert p_default == pytest.approx(0.01488615706641165, abs=1e-12)
    best = max(CollapsedWalkSim(4, WalkParams(2, 2, t, t, o)).run()
               for t in range(1, 6) for o in range(1, 13))
    assert best == pytest.approx(0.4177657271418196, abs=1e-9)
    assert best < 0.5


def test_tuned_outer_reps_beat_baseline_at_n256():
    params = walk_params(256, 256)
    tuned = tune_outer_reps(256, params)
    prob = CollapsedWalkSim(256, tuned).run()
    baseline = (tuned.r1 / 256) ** 2
    assert prob >= 2 * baseline
    assert prob == pytest.approx(0.06342090659555644, abs=1e-9)


def test_tuning_from_one_run_equals_per_count_resimulation():
    for u in range(3, 13):
        n = 1 << u
        for multiplier in (0.5, 1, 2):
            params = walk_params(n, n, multiplier)
            # reference: a fresh simulation for every candidate count
            probs = [CollapsedWalkSim(n, WalkParams(
                params.r1, params.r2, params.t1, params.t2, outer)).run()
                for outer in range(1, 3 * params.outer_reps + 1)]
            want = probs.index(max(probs)) + 1
            assert tune_outer_reps(n, params).outer_reps == want, \
                (n, multiplier)


def test_claw_walk_run_modes_agree():
    problem = planted_problem(3, claw_at=(5, 2))
    rc = claw_walk_run(problem, mode="collapsed")
    rf = claw_walk_run(problem, mode="full")
    assert rc.claw == rf.claw == (5, 2)
    assert rf.success_prob == pytest.approx(rc.success_prob, abs=1e-10)
    assert rc.ledger.oracle_queries == ledger_law(rc.params)


def test_collapsed_requires_unique_claw(monkeypatch):
    n = 8
    f_tab = np.zeros(n, np.uint32)
    g_tab = np.zeros(n, np.uint32)
    problem = ClawProblem(domain_bits=3, range_bits=4,
                          f_family=(lambda x: f_tab[x],),
                          g_family=(lambda x: g_tab[x],))
    with pytest.raises(UniqueClawRequired):
        claw_walk_run(problem, mode="collapsed")
    # the refusal comes before any tuning work
    monkeypatch.setattr("clawbench.walk.tune_outer_reps", None)
    with pytest.raises(UniqueClawRequired):
        claw_walk_run(problem, mode="collapsed", tune=True)


def test_claw_walk_sample_finds_planted_claw():
    problem = planted_problem(4, claw_at=(11, 6))
    result = claw_walk_sample(problem, seed=0, mode="collapsed")
    assert result.claw == (11, 6)
    assert result.retries >= 1
    # the ledger charges every attempt
    per_run = ledger_law(result.params)
    assert result.ledger.oracle_queries == result.retries * per_run


def test_claw_walk_sample_full_mode():
    problem = planted_problem(2, claw_at=(3, 1))
    result = claw_walk_sample(problem, seed=1, mode="full")
    assert result.claw == (3, 1)


def test_full_sim_capacity_guard():
    with pytest.raises(CapacityError):
        FullWalkSim(64, WalkParams(16, 16, 4, 4, 4), claws=[(0, 0)])
