import numpy as np
import pytest

from clawbench import attack, vectors
from clawbench.attack import (GROVER_RETRIES, AttackError, ChosenPairSet,
                              QueryStats, build_claw_problem, diff_f, diff_g,
                              family_member, k1k3_constant, k3_check_paper,
                              make_chosen_plaintext, make_pair_set,
                              resolve_k1_k2_k3, run_asr_attack,
                              schedule_consistent, true_k2_prime)
from clawbench.cipher import FeistelSpec, feistel_encrypt, random_subkeys
from clawbench.claw import find_claws_exhaustive, find_claws_sorted
from clawbench.grover import grover_iterations

from family_law import member_collides, rule_delta


def paper_pair_set(with_extra=False):
    extra = vectors.EXTRA_PAIR if with_extra else None
    return ChosenPairSet(vectors.CONSTANT_C,
                         tuple(zip(vectors.PLAINTEXTS, vectors.CIPHERTEXTS)),
                         extra)


def test_pair_set_validation():
    spec = vectors.SPEC
    paper_pair_set(with_extra=True).validate(spec)
    # broken rule
    bad = ChosenPairSet(vectors.CONSTANT_C,
                        (((0, 0), (0, 0)),) + paper_pair_set().pairs[1:])
    with pytest.raises(AttackError):
        bad.validate(spec)
    # duplicate L1
    dup = ChosenPairSet(vectors.CONSTANT_C,
                        (paper_pair_set().pairs[0],) * 3)
    with pytest.raises(AttackError):
        dup.validate(spec)
    # extra pair must violate the rule
    rule_extra = ChosenPairSet(vectors.CONSTANT_C, paper_pair_set().pairs,
                               (make_chosen_plaintext(7, vectors.CONSTANT_C,
                                                      spec), (0, 0)))
    with pytest.raises(AttackError):
        rule_extra.validate(spec)


def test_true_keys_are_a_claw_on_paper_vectors():
    spec = vectors.SPEC
    pair_set = paper_pair_set()
    for idx in (2, 3):
        assert (diff_f(vectors.K2_PRIME, pair_set, idx, spec)
                == diff_g(vectors.SUBKEYS[5], pair_set, idx, spec))


def test_diff_g_degenerate_pair_is_zero():
    spec = FeistelSpec(word_width=8)
    keys = random_subkeys(spec, 0)
    pt = make_chosen_plaintext(5, 0x11, spec)
    ct = feistel_encrypt(pt, keys, spec)
    degenerate = ChosenPairSet(0x11, ((pt, ct), (pt, ct), (pt, ct)))
    for x in range(256):
        assert diff_g(x, degenerate, 2, spec) == 0


def test_claw_soundness_random_instances():
    for seed in range(20):
        spec = FeistelSpec(word_width=8)
        keys = random_subkeys(spec, seed)
        pair_set = make_pair_set(spec, keys, seed)
        k2p = true_k2_prime(keys, pair_set.constant_c, spec)
        claws = find_claws_exhaustive(build_claw_problem(pair_set, spec))
        assert (k2p, keys[5]) in claws


def test_spurious_claw_census_w8():
    """The two 8-bit equations cut the 2^16 pair space down to O(1)
    spurious claws on average (the true claw always present)."""
    extra = []
    for seed in range(100):
        spec = FeistelSpec(word_width=8)
        keys = random_subkeys(spec, 1000 + seed)
        pair_set = make_pair_set(spec, keys, 1000 + seed)
        claws = find_claws_exhaustive(build_claw_problem(pair_set, spec))
        extra.append(len(claws) - 1)
    mean_extra = sum(extra) / len(extra)
    assert all(e >= 0 for e in extra)
    assert mean_extra < 32          # O(1)-ish; Simeck structure clusters claws


def test_k5_k4_checks_with_true_keys():
    spec = vectors.SPEC
    pair_set = paper_pair_set()
    k4, k5, k6 = vectors.SUBKEYS[3:]
    l1 = [pt[0] for pt, _ in pair_set.pairs]
    l1_diffs = (l1[0] ^ l1[1], l1[0] ^ l1[2])
    # the true K5 and K4 pass both pairs' matching equations
    k4s, k5s = np.array([k4], np.uint32), np.array([k5], np.uint32)
    assert attack._peel_match((k5s, k6), l1_diffs, pair_set, spec).all()
    assert attack._peel_match((k4s, k5, k6), (0, 0), pair_set, spec).all()
    # a strided K5 sweep through the true value keeps it among its survivors
    xs = np.arange(k5 % 257, 1 << 16, 257, dtype=np.uint32)
    k5_survivors = xs[attack._peel_match((xs, k6), l1_diffs, pair_set, spec)]
    assert k5 in k5_survivors


def test_k3_check_is_degenerate_on_rule_pairs():
    spec = FeistelSpec(word_width=8)
    keys = random_subkeys(spec, 11)
    pair_set = make_pair_set(spec, keys, 11, with_extra=False)
    k4, k5, k6 = keys[3:]
    verdicts = {k3_check_paper(k3, k4, k5, k6, pair_set, 2, spec)
                for k3 in range(256)}
    assert len(verdicts) == 1


def test_k1k3_constant_paper_value():
    spec = vectors.SPEC
    c_star = k1k3_constant(paper_pair_set(), vectors.K2_PRIME,
                           vectors.SUBKEYS[4], vectors.SUBKEYS[5], spec)
    assert c_star == vectors.K1_XOR_K3 == 0x7360


def test_k1k3_constant_agrees_across_pairs_w8():
    for seed in range(30):
        spec = FeistelSpec(word_width=8)
        keys = random_subkeys(spec, seed)
        pair_set = make_pair_set(spec, keys, seed)
        k2p = true_k2_prime(keys, pair_set.constant_c, spec)
        c_star = k1k3_constant(pair_set, k2p, keys[4], keys[5], spec)
        assert c_star == keys[0] ^ keys[2]


def test_k1k3_constant_rejects_wrong_upstream_keys():
    spec = vectors.SPEC
    with pytest.raises(AttackError):
        k1k3_constant(paper_pair_set(), vectors.K2_PRIME ^ 1,
                      vectors.SUBKEYS[4], vectors.SUBKEYS[5], spec)


def test_family_members_collide_on_rule_plaintexts():
    spec = FeistelSpec(word_width=8)
    keys = random_subkeys(spec, 23)
    c = 0x5C
    pt = make_chosen_plaintext(0x9D, c, spec)
    ct = feistel_encrypt(pt, keys, spec)
    k2p = true_k2_prime(keys, c, spec)
    c_star = keys[0] ^ keys[2]
    rng = np.random.default_rng(23)
    for k1 in rng.integers(0, 256, size=1000):
        member = (*family_member(int(k1), k2p, c_star, c, spec), *keys[3:])
        assert feistel_encrypt(pt, member, spec) == ct


def test_non_rule_plaintext_separates_family_members():
    spec = FeistelSpec(word_width=8)
    keys = random_subkeys(spec, 29)
    c = 0xA1
    k2p = true_k2_prime(keys, c, spec)
    c_star = keys[0] ^ keys[2]
    rng = np.random.default_rng(29)
    separated = 0
    trials = 0
    for _ in range(500):
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
        # separation is not certain: the member collides exactly when the
        # round-2 differential law says so (tests/family_law.py)
        assert collides == member_collides(keys[0], k1, delta, c, spec), \
            (k1, pt)
        separated += not collides
    assert 0 < separated < trials


def test_extra_pair_k1_ambiguity_is_structural():
    """The extra-pair predicate is invariant under k1 -> k1 ^ A ^ C with
    A = R1 ^ F(L1), so one extra pair leaves an even candidate count."""
    spec = vectors.SPEC
    (l1, r1), ct = vectors.EXTRA_PAIR
    a = r1 ^ spec.round_f(1, l1)
    partner = vectors.SUBKEYS[0] ^ a ^ vectors.CONSTANT_C
    member = (*family_member(partner, vectors.K2_PRIME, vectors.K1_XOR_K3,
                             vectors.CONSTANT_C, spec), *vectors.SUBKEYS[3:])
    assert partner != vectors.SUBKEYS[0]
    assert feistel_encrypt((l1, r1), member, spec) == ct


def test_schedule_consistency_breaks_the_tie():
    spec = vectors.SPEC
    k1, k2, k5 = vectors.SUBKEYS[0], vectors.SUBKEYS[1], vectors.SUBKEYS[4]
    assert schedule_consistent(k1, k2, k5, spec)
    (l1, r1), _ = vectors.EXTRA_PAIR
    partner = k1 ^ r1 ^ spec.round_f(1, l1) ^ vectors.CONSTANT_C
    k2_partner = spec.round_f(2, partner ^ vectors.CONSTANT_C) ^ vectors.K2_PRIME
    assert not schedule_consistent(partner, k2_partner, k5, spec)


def test_resolve_without_extra_pair_reports_family():
    spec = vectors.SPEC
    (k1, k2, k3), uniq = resolve_k1_k2_k3(
        vectors.K1_XOR_K3, vectors.K2_PRIME, paper_pair_set(), spec,
        vectors.SUBKEYS[3:], "exhaustive", 0, QueryStats())
    assert uniq == "equivalence-family"
    assert k1 == 0
    assert k3 == vectors.K1_XOR_K3


def six_round_survivors(c_star, k2_prime, pair_set, spec, k456):
    """Reference resolve sweep: every K1 whose family member encrypts the
    extra pair through all six rounds."""
    (l1, r1), ct = pair_set.extra_pair
    xs = np.arange(1 << spec.word_width, dtype=np.uint32)
    c = pair_set.constant_c
    keys = [xs, spec.round_f(2, xs ^ c) ^ k2_prime, xs ^ c_star, *k456]
    left, right = np.full_like(xs, l1), np.full_like(xs, r1)
    for i, k in enumerate(keys, start=1):
        left, right = right ^ spec.round_f(i, left) ^ k, left
    return [int(x) for x in np.nonzero((left == ct[0]) & (right == ct[1]))[0]]


def resolve_calls(monkeypatch, pair_set, spec):
    """(tuple, survivors) for every resolve call of the classical attack;
    survivors is [] when the O(1) filter rejects the tuple."""
    calls = []
    search, resolve = attack._search_candidates, attack.resolve_k1_k2_k3

    def recording_resolve(c_star, k2_prime, pair_set, spec, k456, *rest):
        calls.append(((c_star, k2_prime, k456), []))
        return resolve(c_star, k2_prime, pair_set, spec, k456, *rest)

    def recording_search(stage, *rest):
        out = search(stage, *rest)
        if stage == "resolve-k1":
            calls[-1][1].extend(out)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(attack, "resolve_k1_k2_k3", recording_resolve)
        patch.setattr(attack, "_search_candidates", recording_search)
        run_asr_attack(pair_set, spec)
    return calls


def resolve_instances():
    yield vectors.SPEC, paper_pair_set(with_extra=True)
    for seed in range(10):
        spec = FeistelSpec(word_width=8)
        yield spec, make_pair_set(spec, random_subkeys(spec, seed), seed)
    for seed in range(5):
        spec = FeistelSpec(word_width=12, round_function="random", seed=seed)
        yield spec, make_pair_set(spec, random_subkeys(spec, seed), seed)


def test_resolve_survivors_equal_the_six_round_sweep(monkeypatch):
    rejected = passed = 0
    for spec, pair_set in resolve_instances():
        calls = resolve_calls(monkeypatch, pair_set, spec)
        assert calls
        for (c_star, k2_prime, k456), survivors in calls:
            assert survivors == six_round_survivors(
                c_star, k2_prime, pair_set, spec, k456), (spec, k456)
            rejected += not survivors
            passed += bool(survivors)
    print(f"resolve: {passed} tuples passed the filter, {rejected} rejected")
    assert rejected > 0 and passed > 0


def two_diff_match(known, want, pair_set, spec):
    """Reference for _peel_match: both equations over the whole sweep,
    each peeling pair 1 again."""
    return ((attack._peel_diff(known, pair_set, 2, spec) == want[0])
            & (attack._peel_diff(known, pair_set, 3, spec) == want[1]))


def test_peel_match_equals_two_diff_reference(monkeypatch):
    peel_match = attack._peel_match
    sweeps = {2: 0, 3: 0}       # len(known): K5 sweeps, K4 sweeps

    def checked(known, want, pair_set, spec):
        got = peel_match(known, want, pair_set, spec)
        assert got.dtype == bool
        assert np.array_equal(got, two_diff_match(known, want, pair_set,
                                                  spec))
        sweeps[len(known)] += 1
        return got

    monkeypatch.setattr(attack, "_peel_match", checked)
    for spec, pair_set in resolve_instances():
        run_asr_attack(pair_set, spec)
    print(f"peel match: {sweeps[2]} K5 and {sweeps[3]} K4 sweeps checked")
    assert sweeps[2] > 0 and sweeps[3] > 0


def test_classical_evals_do_not_depend_on_grover_misses():
    spec = FeistelSpec(word_width=8)
    pair_set = make_pair_set(spec, random_subkeys(spec, 1), 1)
    evals = {backend: run_asr_attack(pair_set, spec, backends=backend)[1]
             .classical_evals for backend in ("classical", "walk-sim")}
    assert evals["classical"] == evals["walk-sim"]


def test_resolve_ledger_adds_every_sweep(monkeypatch):
    """Simeck w=8 seed 13: 9 tuples pass resolve's filter and sweep K1;
    the ledger charges all 9, the report's resolve stage the one that
    verified."""
    spec = FeistelSpec(word_width=8)
    pair_set = make_pair_set(spec, random_subkeys(spec, 13), 13)
    search = attack._search_candidates
    sweeps = []

    def sweeping_search(stage, *rest):
        if stage == "resolve-k1":
            sweeps.append(rest)
        return search(stage, *rest)

    monkeypatch.setattr(attack, "_search_candidates", sweeping_search)
    _, stats, stages = run_asr_attack(pair_set, spec)
    assert len(sweeps) == 9
    assert stats.classical_evals["resolve-k1"] == 9 * 256
    assert stages[-1]["name"] == "resolve-k1-k2-k3"
    assert stages[-1]["queries"] == 256


def test_sweep_ledger_adds_up_per_stage(monkeypatch):
    """Every key sweep charges the ledger once: N evaluations, and under
    walk-sim between 1 and GROVER_RETRIES Grover runs when it has
    survivors; each report stage shows the figure of its stage's last
    call, the one on the verifying path."""
    report_names = {"k5": "k5", "k4": "k4", "resolve-k1": "resolve-k1-k2-k3"}
    search = attack._search_candidates

    for spec, pair_set in resolve_instances():
        n = 1 << spec.word_width
        iters = grover_iterations(n, 1)
        for backend in ("classical", "walk-sim"):
            calls = {stage: [] for stage in report_names}

            def counting_search(stage, *args):
                stats = args[-1]
                before = (stats.grover_queries.get(stage, 0),
                          stats.classical_evals.get(stage, 0))
                out = search(stage, *args)
                q = stats.grover_queries[stage] - before[0]
                e = stats.classical_evals[stage] - before[1]
                calls[stage].append((bool(out), q or e))
                return out

            monkeypatch.setattr(attack, "_search_candidates", counting_search)
            _, stats, stages = run_asr_attack(pair_set, spec,
                                              backends=backend)
            report = {s["name"]: s["queries"] for s in stages}
            for stage, name in report_names.items():
                made = calls[stage]
                assert made, (spec, backend, stage)
                assert stats.classical_evals[stage] == len(made) * n
                queries = stats.grover_queries[stage]
                if backend == "classical":
                    assert queries == 0
                else:
                    hits = sum(nonempty for nonempty, _ in made)
                    assert queries % iters == 0
                    assert hits <= queries // iters <= GROVER_RETRIES * hits
                assert report[name] == stats.last_call[stage] == made[-1][1]


def test_full_attack_paper_vectors_with_extra_pair():
    recovered, stats, stages = run_asr_attack(paper_pair_set(with_extra=True),
                                              vectors.SPEC)
    assert recovered.subkeys == vectors.SUBKEYS
    assert recovered.k2_prime == 0x1169
    assert recovered.k1_xor_k3 == 0x7360
    assert recovered.uniqueness == "unique"
    claw_stage = stages[0]
    assert claw_stage["queries"] == 2 * (1 << 16)
    assert ["1169", "FE40"] in claw_stage["result_hex"]


def test_full_attack_paper_vectors_family_mode():
    recovered, _, _ = run_asr_attack(paper_pair_set(with_extra=False),
                                     vectors.SPEC)
    assert recovered.uniqueness == "equivalence-family"
    assert recovered.subkeys[0] == 0
    # without the extra pair the instance genuinely admits several
    # verifying families; the pipeline returns a verifying one
    for pt, ct in paper_pair_set().pairs:
        assert feistel_encrypt(pt, recovered.subkeys, vectors.SPEC) == ct


@pytest.mark.parametrize("width,count", [(4, 100), (8, 100)])
def test_pipeline_recovers_consistent_keys(width, count):
    for seed in range(count):
        spec = FeistelSpec(word_width=width)
        keys = random_subkeys(spec, seed)
        pair_set = make_pair_set(spec, keys, seed)
        recovered, _, _ = run_asr_attack(pair_set, spec, backends="exhaustive",
                                         seed=seed)
        # the recovered keys must re-encrypt every supplied pair; the true
        # subkeys need not be the unique consistent solution at toy widths
        for pt, ct in pair_set.pairs + (pair_set.extra_pair,):
            assert feistel_encrypt(pt, recovered.subkeys, spec) == ct


def test_cross_backend_equality_w8():
    for seed in range(10):
        spec = FeistelSpec(word_width=8)
        keys = random_subkeys(spec, 50 + seed)
        pair_set = make_pair_set(spec, keys, 50 + seed)
        results = {}
        for backend in ("classical", "exhaustive", "walk-sim"):
            recovered, stats, _ = run_asr_attack(pair_set, spec,
                                                 backends=backend, seed=seed)
            results[backend] = recovered.subkeys
        assert results["classical"] == results["exhaustive"]
        assert results["walk-sim"] == results["exhaustive"]


def test_grover_stage_iteration_count_w8():
    spec = FeistelSpec(word_width=8)
    keys = random_subkeys(spec, 77)
    pair_set = make_pair_set(spec, keys, 77)
    _, stats, _ = run_asr_attack(pair_set, spec, backends="walk-sim", seed=0)
    # floor((pi/4) * 2^(8/2)) = 12 iterations per Grover invocation
    assert stats.grover_queries["k5"] % 12 == 0
    assert stats.grover_queries["k5"] >= 12


def test_corrupted_ciphertext_rejected():
    spec = vectors.SPEC
    pairs = list(paper_pair_set(with_extra=True).pairs)
    (pt, (l, r)) = pairs[1]
    pairs[1] = (pt, (l ^ 0x8000, r))
    bad = ChosenPairSet(vectors.CONSTANT_C, tuple(pairs), vectors.EXTRA_PAIR)
    with pytest.raises(AttackError):
        run_asr_attack(bad, spec)


def test_unknown_backend_name_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        run_asr_attack(paper_pair_set(), vectors.SPEC, backends="grover")


def test_wrong_round_count_rejected():
    spec = FeistelSpec(word_width=8, rounds=4)
    with pytest.raises(AttackError):
        run_asr_attack(paper_pair_set(), spec)
