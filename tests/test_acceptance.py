"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Tolerances are pinned in the asserts.  Criterion 6's separation clause
checks every trial against the exact round-2 differential law (see
family_law.py): on a non-rule plaintext, family member K1' collides with
the true K1 iff F(y) ^ F(y ^ d) == F(x) ^ F(x ^ d), where
d = R1 ^ F(L1) ^ C, x = K1 ^ C and y = K1' ^ C.  Its PASS line sets the
measured separation rate beside the exact rate enumerated from D_d F."""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from clawbench import vectors
from clawbench.attack import (build_claw_problem, family_member,
                              make_pair_set, run_asr_attack, true_k2_prime)
from clawbench.cipher import FeistelSpec, feistel_encrypt, random_subkeys, \
    simeck_key_schedule
from clawbench.claw import ClawProblem, concat_multi, find_claws_exhaustive
from clawbench.grover import GroverInstance, grover_run_statevector, \
    grover_success_prob, marked_probability
from clawbench.walk import (CollapsedWalkSim, FullWalkSim, ledger_law,
                            walk_params)

from family_law import exact_separation_rate, member_collides, rule_delta
from k3_check import k3_check_paper


def report(capsys, number, ok, detail=""):
    with capsys.disabled():
        print(f"\ncriterion {number}: {'PASS' if ok else 'FAIL'}"
              + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_worked_example_full_scale(capsys):
    t0 = time.perf_counter()
    spec = vectors.SPEC
    keys = simeck_key_schedule(vectors.MASTER_KEY, 6, spec)
    schedule_ok = (keys[:4] == vectors.MASTER_KEY
                   and keys[4] == 0x05A9 and keys[5] == 0xFE40)
    derived = tuple(feistel_encrypt(pt, keys, spec)
                    for pt in vectors.PLAINTEXTS)
    encrypt_ok = derived == vectors.CIPHERTEXTS
    # every divergence of the printed tables from the derived values is
    # isolated to a logged typo entry
    mismatched_rows = [i for i, (d, p) in enumerate(
        zip(derived, vectors.CIPHERTEXTS_PRINTED)) if d != p]
    logged = {t["entry"] for t in vectors.KNOWN_TYPOS}
    typos_ok = (all(f"ciphertext row {i + 1}" in logged
                    for i in mismatched_rows)
                and "plaintext row 2 R1" in logged)
    elapsed = time.perf_counter() - t0
    report(capsys, 1, schedule_ok and encrypt_ok and typos_ok
           and elapsed < 1.0,
           f"schedule+3 encryptions bit-exact, typos logged, {elapsed:.3f}s")


def test_criterion_2_classical_attack_reproduction(capsys):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "clawbench.cli", "attack", "run",
         "--width", "16", "--vectors", "paper", "--backend", "classical"],
        capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    rep = json.loads(proc.stdout)
    rec = rep["recovered"]
    claw_stage = rep["stages"][0]
    ok = (proc.returncode == 0
          and rec["K2_prime"] == "1169" and rec["K6"] == "FE40"
          and claw_stage["backend"] == "sorted"
          and claw_stage["queries"] == 2 * (1 << 16)
          and rec["K5"] == "05A9" and rec["K4"] == "E6C3"
          and rec["K1_xor_K3"] == "7360"
          and [rec[f"K{i}"] for i in range(1, 4)] == ["B0AE", "C7E9", "C3CE"]
          and rec["uniqueness"] == "unique"
          and rep["verified"] is True
          and rep["data_complexity"] == 4
          and elapsed < 60.0)
    report(capsys, 2, ok,
           f"K2'=1169 K6=FE40 via 2*2^16 evals, Table 5 keys, {elapsed:.1f}s")


def test_criterion_3_grover_fidelity(capsys):
    exact, _ = marked_probability(GroverInstance(4, (1,), 1))
    ok = abs(exact - 1.0) < 1e-12
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, (1 << 12) + 1))
        m = int(rng.integers(1, 5))
        marked = tuple(int(x) for x in rng.choice(n, size=m, replace=False))
        inst = GroverInstance(n, marked)
        prob, _ = marked_probability(inst)
        want = grover_success_prob(n, len(inst.marked), inst.iterations)
        worst = max(worst, abs(prob - want))
    ok = ok and worst < 1e-9
    report(capsys, 3, ok,
           f"50 instances, worst |sim - closed form| = {worst:.2e}")


def test_criterion_4_walk_cross_validation(capsys):
    worst_gap = 0.0
    worst_norm = 0.0
    for n_side in (4, 6, 8, 10):
        params = walk_params(n_side, n_side)
        collapsed = CollapsedWalkSim(n_side, params)
        p_c = collapsed.run()
        full = FullWalkSim(n_side, params, claws=[(0, n_side - 1)])
        p_f = full.run(fine=True)
        worst_gap = max(worst_gap, abs(p_c - p_f))
        worst_norm = max(worst_norm, collapsed.norm_drift(),
                         full.norm_drift())
    ok = worst_gap < 1e-10 and worst_norm < 1e-12
    report(capsys, 4, ok,
           f"worst mode gap {worst_gap:.2e}, worst norm drift "
           f"{worst_norm:.2e}")


def test_criterion_5_query_scaling(capsys):
    xs, ys = [], []
    ledger_exact = True
    for u in range(6, 13):
        n = 1 << u
        params = walk_params(n, n)
        sim = CollapsedWalkSim(n, params)
        sim.run()
        ledger_exact &= sim.ledger.oracle_queries == ledger_law(params)
        xs.append(math.log2(n))
        ys.append(math.log2(sim.ledger.oracle_queries))
    slope = float(np.polyfit(xs, ys, 1)[0])
    ok = 0.60 <= slope <= 0.75 and ledger_exact
    report(capsys, 5, ok, f"log-log slope {slope:.3f}, ledger law exact")


def test_criterion_6_k3_degeneracy(capsys):
    spec = FeistelSpec(word_width=8)
    # clause 1: k3_check verdict independent of K3, exhaustively
    degenerate = True
    for seed in range(5):
        keys = random_subkeys(spec, seed)
        pair_set = make_pair_set(spec, keys, seed)
        k4, k5, k6 = keys[3:]
        verdicts = {k3_check_paper(k3, k4, k5, k6, pair_set, 2, spec)
                    for k3 in range(256)}
        degenerate &= len(verdicts) == 1
    # clause 2: 10^3 family members encrypt rule plaintexts identically
    keys = random_subkeys(spec, 99)
    c = 0x3B
    k2p = true_k2_prime(keys, c, spec)
    c_star = keys[0] ^ keys[2]
    from clawbench.attack import make_chosen_plaintext
    pt = make_chosen_plaintext(0x42, c, spec)
    ct = feistel_encrypt(pt, keys, spec)
    rng = np.random.default_rng(99)
    invariant = all(
        feistel_encrypt(pt, (*family_member(int(k1), k2p, c_star, c, spec),
                             *keys[3:]), spec) == ct
        for k1 in rng.integers(0, 256, size=1000))
    # clause 3: a random non-rule plaintext separates member K1' from the
    # true K1 exactly when the round-2 differential law says so
    separated = trials = mismatches = 0
    for inst in range(20):
        keys = random_subkeys(spec, 200 + inst)
        c = int(np.random.default_rng(inst).integers(0, 256))
        k2p = true_k2_prime(keys, c, spec)
        c_star = keys[0] ^ keys[2]
        rng = np.random.default_rng(300 + inst)
        for _ in range(250):
            k1 = int(rng.integers(0, 256))
            if k1 == keys[0]:
                continue
            pt = (int(rng.integers(0, 256)), int(rng.integers(0, 256)))
            delta = rule_delta(pt, c, spec)
            if delta == 0:
                continue
            member = (*family_member(k1, k2p, c_star, c, spec), *keys[3:])
            trials += 1
            collides = (feistel_encrypt(pt, member, spec)
                        == feistel_encrypt(pt, keys, spec))
            separated += not collides
            mismatches += collides != member_collides(keys[0], k1, delta, c,
                                                      spec)
    rate = separated / trials
    exact = exact_separation_rate(spec)
    ok = (degenerate and invariant and mismatches == 0
          and 0 < separated < trials)
    report(capsys, 6, ok,
           f"degeneracy {'ok' if degenerate else 'BROKEN'}, family "
           f"invariance {'ok' if invariant else 'BROKEN'}, separation "
           f"{separated}/{trials} = {rate:.4f} vs exact {exact:.4f}; "
           f"{mismatches} trials disagree with the round-2 law: member K1' "
           "collides iff F(y) ^ F(y^d) == F(x) ^ F(x^d), d = R1 ^ F(L1) ^ C, "
           "x = K1 ^ C, y = K1' ^ C")


def test_criterion_7_toy_quantum_attack(capsys):
    spec = FeistelSpec(word_width=8)
    equal = 0
    walk_probs = []
    for seed in range(50):
        keys = random_subkeys(spec, seed)
        pair_set = make_pair_set(spec, keys, seed)
        r_walk, stats, _ = run_asr_attack(pair_set, spec,
                                          backends="walk-sim", seed=seed)
        r_exh, _, _ = run_asr_attack(pair_set, spec, backends="exhaustive",
                                     seed=seed)
        equal += r_walk.subkeys == r_exh.subkeys
        if stats.walk_success_prob is not None:
            walk_probs.append(stats.walk_success_prob)
    # the walk runs on instances whose claw is unique (others fall back
    # to the classical claw search by contract); its tuned success
    # probability must beat twice the (r/N)^2 random-subset baseline
    params = walk_params(256, 256)
    baseline = (params.r / 256) ** 2
    amplified = bool(walk_probs) and all(p >= 2 * baseline
                                         for p in walk_probs)
    ok = equal == 50 and amplified
    report(capsys, 7, ok,
           f"subkeys equal on {equal}/50 instances; walk ran on "
           f"{len(walk_probs)} unique-claw instances, success prob "
           f"{min(walk_probs):.4f} >= 2x baseline {baseline:.4f}"
           if walk_probs else f"subkeys equal on {equal}/50; no walk runs")


def test_criterion_8_multi_equation_reduction(capsys):
    rng = np.random.default_rng(8)
    ok = True
    for trial in range(20):
        u = int(rng.integers(2, 9))
        v = int(rng.integers(1, 5))
        w_eq = int(rng.integers(1, 4))
        n = 1 << u
        f_tabs = [rng.integers(0, 1 << v, size=n) for _ in range(w_eq)]
        g_tabs = [rng.integers(0, 1 << v, size=n) for _ in range(w_eq)]
        problem = ClawProblem(
            domain_bits=u, range_bits=v,
            f_family=tuple((lambda x, t=t: np.asarray(t, np.uint32)[x])
                           for t in f_tabs),
            g_family=tuple((lambda x, t=t: np.asarray(t, np.uint32)[x])
                           for t in g_tabs))
        # simultaneous-claw set of the family
        family_claws = set(find_claws_exhaustive(problem))
        # claw set of the combined function, restricted to cross pairs
        combined = concat_multi(problem)
        f_vals = [combined(j) for j in range(n)]
        g_vals = [combined(n + j) for j in range(n)]
        cross = {(a, b) for a in range(n) for b in range(n)
                 if f_vals[a] == g_vals[b]}
        ok &= cross == family_claws
    report(capsys, 8, ok, "combined-function cross claws == family claws "
           "on 20 random instances, u <= 8")
