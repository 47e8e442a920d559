import dataclasses
import tracemalloc

import numpy as np
import pytest

from clawbench import attack, vectors, walk
from clawbench.attack import (AttackError, ChosenPairSet, PairSetError,
                              QueryStats, build_claw_problem,
                              family_member, k1k3_constant,
                              make_chosen_plaintext, make_pair_set,
                              resolve_k1_k2_k3, run_asr_attack,
                              schedule_consistent, true_k2_prime)
from clawbench.cipher import (FeistelSpec, feistel_encrypt, partial_decrypt,
                              random_subkeys, simeck_f, simeck_key_schedule)
from clawbench.claw import (concat_multi, find_claws_exhaustive,
                            find_claws_sorted, side_table)
from clawbench.grover import bbht_expected_queries
from clawbench.words import domain, mask

from family_law import member_collides, rule_delta
from k3_check import k3_check_paper


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


def out_of_range_pair_sets():
    """The paper pair set with one word outside 0..2^16 - 1: a rule pair's
    ciphertext, the extra pair's ciphertext, a negative extra-pair L1."""
    good = paper_pair_set(with_extra=True)
    pairs = list(good.pairs)
    pt, (l, r) = pairs[1]
    pairs[1] = (pt, (l | 0x10000, r))
    (l1, r1), (l7, r7) = good.extra_pair
    yield dataclasses.replace(good, pairs=tuple(pairs))
    yield dataclasses.replace(good, extra_pair=((l1, r1), (l7, r7 + 0x10000)))
    yield dataclasses.replace(good, extra_pair=((l1 - 0x10000, r1), (l7, r7)))


@pytest.mark.parametrize("bad", list(out_of_range_pair_sets()), ids=[
    "rule-ciphertext", "extra-ciphertext", "negative-extra-L1"])
def test_pair_set_words_must_fit_the_width(bad):
    """A word outside the width is an input error, reported before any
    round table is read with it: there it would index past the table, or
    wrap around it when negative."""
    with pytest.raises(PairSetError, match="does not fit in 16 bits"):
        bad.validate(vectors.SPEC)
    with pytest.raises(PairSetError, match="does not fit in 16 bits"):
        run_asr_attack(bad, vectors.SPEC)


def test_true_keys_are_a_claw_on_paper_vectors():
    problem = build_claw_problem(paper_pair_set(), vectors.SPEC)
    f_origin, g_origin = problem.origins
    assert (side_table(problem, 0)[vectors.K2_PRIME ^ f_origin]
            == side_table(problem, 1)[vectors.SUBKEYS[5] ^ g_origin])


def test_identical_pairs_give_all_zero_side_tables():
    spec = FeistelSpec(word_width=8)
    keys = random_subkeys(spec, 0)
    pt = make_chosen_plaintext(5, 0x11, spec)
    ct = feistel_encrypt(pt, keys, spec)
    problem = build_claw_problem(ChosenPairSet(0x11, ((pt, ct),) * 3), spec)
    for side in (0, 1):
        assert not side_table(problem, side).any(), side


@pytest.mark.parametrize("pair_idx", [0, 1, 4])
def test_difference_checks_take_pairs_2_and_3_only(pair_idx):
    with pytest.raises(ValueError, match="pair_idx"):
        k3_check_paper(0, *vectors.SUBKEYS[3:], paper_pair_set(), pair_idx,
                       vectors.SPEC)


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


def array_peel_right(ct, known, spec):
    """Reference peel: the right half of the round-r input state,
    r = 7 - len(known), decrypting rounds 6..r with known = (K_r, ...,
    K_6), any of them arrays; the array decryption the key sweeps made
    before they were derivative sweeps."""
    r = 7 - len(known)
    return partial_decrypt(ct, (0,) * (r - 1) + tuple(known), spec, 6, r)[1]


def array_peel_diff(known, pair_set, pair_idx, spec):
    """Reference pair-1/pair-p difference of array_peel_right with
    known = (K_(r+1), ..., K_6) and K_r = 0."""
    keys = (0, *known)
    return (array_peel_right(pair_set.pairs[0][1], keys, spec)
            ^ array_peel_right(pair_set.pairs[pair_idx - 1][1], keys, spec))


def test_k5_k4_checks_with_true_keys():
    spec = vectors.SPEC
    pair_set = paper_pair_set()
    k4, k5, k6 = vectors.SUBKEYS[3:]
    l1 = [pt[0] for pt, _ in pair_set.pairs]
    l1_diffs = (l1[0] ^ l1[1], l1[0] ^ l1[2])
    # the true K5 and K4 pass both pairs' matching equations
    for p, want in zip((2, 3), l1_diffs):
        assert array_peel_diff((k5, k6), pair_set, p, spec) == want
        assert array_peel_diff((k4, k5, k6), pair_set, p, spec) == 0
    # and are among the survivors of their full sweeps
    assert k5 in attack._pair_sweep((k6,), l1_diffs, pair_set, spec)
    assert k4 in attack._pair_sweep((k5, k6), (0, 0), pair_set, spec)


@pytest.mark.parametrize("width", [4, 8, 12])
def test_peel_lemma_equals_the_array_peel(width):
    """Peeling with (k, K_(r+2), ..., K_6) and K_r = 0 leaves the right
    half l ^ F_r(e ^ k) at round r, for every k, with (l, e) from one
    scalar decryption down to round r+2."""
    xs = np.arange(1 << width, dtype=np.uint32)
    for seed in range(5):
        spec = FeistelSpec(word_width=width, round_function="random",
                           seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(4):
            ct = tuple(int(v) for v in rng.integers(0, 1 << width, size=2))
            keys = tuple(int(v) for v in rng.integers(0, 1 << width, size=6))
            for r in range(1, 6):
                known = keys[r + 1:]
                l, e = attack._peel_terms(ct, known, spec)
                want = array_peel_right(ct, (0, xs, *known), spec)
                assert np.array_equal(l ^ spec.round_f(r, e ^ xs), want), \
                    (width, seed, r)


def test_k3_check_is_degenerate_on_rule_pairs():
    spec = FeistelSpec(word_width=8)
    keys = random_subkeys(spec, 11)
    pair_set = make_pair_set(spec, keys, 11)
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


def k1k3_identity_instances():
    """Simeck (schedule keys) and random-F w=8 instances."""
    for seed in range(5):
        spec = FeistelSpec(word_width=8)
        master = tuple(int(x) for x in
                       np.random.default_rng(seed).integers(0, 256, size=4))
        keys = simeck_key_schedule(master, 6, spec)
        yield spec, make_pair_set(spec, keys, seed)
        spec = FeistelSpec(word_width=8, round_function="random", seed=7)
        yield spec, make_pair_set(spec, random_subkeys(spec, seed), seed)


def test_k1k3_constant_is_defined_for_every_claw_and_k5():
    # Round 5 decrypts as R5 = L6 ^ F5(R6) ^ K5: K5 enters every pair's
    # value as a plain XOR and cancels between pairs, and what is left of
    # the pair-1/pair-p difference is the g side at K6 XOR the f side at
    # K2', zero for every claw.  So run_asr_attack calls k1k3_constant
    # unguarded.
    for spec, pair_set in k1k3_identity_instances():
        claws, _ = find_claws_sorted(build_claw_problem(pair_set, spec))
        assert claws
        for k2p, k6 in claws:
            c0 = k1k3_constant(pair_set, k2p, 0, k6, spec)
            for k5 in range(1, 256):
                assert k1k3_constant(pair_set, k2p, k5, k6, spec) == c0 ^ k5


def test_claw_stage_reports_exhausted_walk_retries(monkeypatch):
    spec = FeistelSpec(word_width=8, round_function="random", seed=7)
    keys = random_subkeys(spec, 1)
    pair_set = make_pair_set(spec, keys, 1)
    census, _ = find_claws_sorted(build_claw_problem(pair_set, spec))
    assert len(census) == 1                 # the walk runs: a unique claw
    monkeypatch.setattr(walk.CollapsedWalkSim, "measure",
                        lambda self, rng, claws: None)
    recovered, stats, stages = run_asr_attack(pair_set, spec, "walk-sim")
    assert stages[0]["backend"] == "walk-collapsed->exhausted"
    assert stages[0]["result_hex"] == [[f"{a:02X}", f"{b:02X}"]
                                       for a, b in sorted(census)]
    params = walk.tune_outer_reps(256, walk.walk_params(256, 256))
    assert stats.claw_queries == 400 * walk.ledger_law(params)
    assert recovered.subkeys[3:] == keys[3:]


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
    stats = QueryStats()
    (k1, k2, k3), uniq, figure = resolve_k1_k2_k3(
        vectors.K1_XOR_K3, vectors.K2_PRIME, paper_pair_set(), spec,
        vectors.SUBKEYS[3:], "exhaustive", stats)
    assert uniq == "equivalence-family"
    assert figure == 0
    assert stats.classical_evals == {}
    assert k1 == 0
    assert k3 == vectors.K1_XOR_K3


def encrypt_rounds(block, keys, spec):
    """The cipher's rounds 1..len(keys) forward; any key may be an array."""
    left, right = block
    for i, k in enumerate(keys, start=1):
        left, right = right ^ spec.round_f(i, left) ^ k, left
    return left, right


def six_round_survivors(c_star, k2_prime, pair_set, spec, k456):
    """Reference resolve sweep: every K1 whose family member encrypts the
    extra pair through all six rounds."""
    (l1, r1), ct = pair_set.extra_pair
    xs = np.arange(1 << spec.word_width, dtype=np.uint32)
    c = pair_set.constant_c
    keys = [xs, spec.round_f(2, xs ^ c) ^ k2_prime, xs ^ c_star, *k456]
    left, right = encrypt_rounds((np.full_like(xs, l1), np.full_like(xs, r1)),
                                 keys, spec)
    return [int(x) for x in np.nonzero((left == ct[0]) & (right == ct[1]))[0]]


def filtered_tuples(monkeypatch, pair_set, spec):
    """Every (c*, K2', (K4, K5, K6), passed) tuple whose K4 survivor set
    the classical attack sends through the extra-pair filter, and the
    survivors of every resolve sweep, keyed by (c*, K2', (K4, K5, K6))."""
    tuples, sweeps, current = [], {}, {}
    constant, pair_filter = attack.k1k3_constant, attack._extra_pair_filter
    sweep, resolve = attack._derivative_sweep, attack.resolve_k1_k2_k3

    def recording_constant(pair_set, k2_prime, *rest):
        current["k2_prime"] = k2_prime
        return constant(pair_set, k2_prime, *rest)

    def recording_filter(k456, c_star, pair_set, spec):
        passed = pair_filter(k456, c_star, pair_set, spec)
        k4s, k5, k6 = k456
        tuples.extend((c_star, current["k2_prime"], (k4, k5, k6), ok)
                      for k4, ok in zip(k4s.tolist(), passed.tolist()))
        return passed

    def recording_resolve(c_star, k2_prime, pair_set, spec, k456, *rest):
        current["resolve"] = (c_star, k2_prime, k456)
        return resolve(c_star, k2_prime, pair_set, spec, k456, *rest)

    def recording_sweep(round_index, *rest):
        out = sweep(round_index, *rest)
        if round_index == 2:                # resolve's K1 sweep
            sweeps[current.pop("resolve")] = out.tolist()
        return out

    with monkeypatch.context() as patch:
        patch.setattr(attack, "k1k3_constant", recording_constant)
        patch.setattr(attack, "_extra_pair_filter", recording_filter)
        patch.setattr(attack, "resolve_k1_k2_k3", recording_resolve)
        patch.setattr(attack, "_derivative_sweep", recording_sweep)
        run_asr_attack(pair_set, spec)
    return tuples, sweeps


def resolve_instances():
    yield vectors.SPEC, paper_pair_set(with_extra=True)
    for seed in range(10):
        spec = FeistelSpec(word_width=8)
        yield spec, make_pair_set(spec, random_subkeys(spec, seed), seed)
    for seed in range(5):
        spec = FeistelSpec(word_width=12, round_function="random", seed=seed)
        yield spec, make_pair_set(spec, random_subkeys(spec, seed), seed)


def test_resolve_survivors_equal_the_six_round_sweep(monkeypatch):
    """The filter passes a (claw, K5, K4) tuple exactly when some K1
    encrypts the extra pair over six rounds, and resolve's sweep of a
    passing tuple leaves exactly those K1."""
    rejected = passed = 0
    for spec, pair_set in resolve_instances():
        tuples, sweeps = filtered_tuples(monkeypatch, pair_set, spec)
        assert tuples and sweeps
        passing = set()
        for c_star, k2_prime, k456, ok in tuples:
            want = six_round_survivors(c_star, k2_prime, pair_set, spec, k456)
            assert ok == bool(want), (spec, k456)
            if ok:
                passing.add((c_star, k2_prime, k456))
            if (c_star, k2_prime, k456) in sweeps:
                assert sweeps[(c_star, k2_prime, k456)] == want, (spec, k456)
            rejected += not ok
            passed += ok
        assert set(sweeps) <= passing
    print(f"resolve: {passed} tuples passed the filter, {rejected} rejected")
    assert rejected > 0 and passed > 0


def per_key_tie_break(cands, k2_prime, c_star, k5, constant_c, spec):
    """Reference for resolve's tie-break: one scalar key-schedule check per
    K1 survivor.  Returns (K1, uniqueness) as resolve reports them."""
    sched = []
    for k1 in cands:
        k2 = int(spec.round_f(2, k1 ^ constant_c)) ^ k2_prime
        resid = (k5 ^ simeck_f(k2, spec) ^ k1
                 ^ (mask(spec.word_width) ^ 3))
        if resid in (0, 1):
            sched.append(k1)
    if len(sched) == 1:
        return sched[0], "unique"
    return cands[0], "extra-pair-ambiguous"


def simeck_instances():
    for width, seeds in ((8, range(30)), (12, range(10))):
        spec = FeistelSpec(word_width=width)
        for seed in seeds:
            rng = np.random.default_rng(seed)
            master = tuple(int(x) for x in
                           rng.integers(0, 1 << width, size=4))
            for keys in (simeck_key_schedule(master, 6, spec),
                         random_subkeys(spec, seed)):
                yield spec, make_pair_set(spec, keys, seed)


def test_array_tie_break_equals_per_key_reference(monkeypatch):
    sweep, resolve = attack._derivative_sweep, attack.resolve_k1_k2_k3
    survivors = []
    outcomes = {"unique": 0, "extra-pair-ambiguous": 0}

    def recording_sweep(round_index, *rest):
        out = sweep(round_index, *rest)
        if round_index == 2:                # resolve's K1 sweep
            survivors.append(out.tolist())
        return out

    def checked_resolve(c_star, k2_prime, pair_set, spec, k456, *rest):
        out = resolve(c_star, k2_prime, pair_set, spec, k456, *rest)
        (k1, _, _), uniqueness, _ = out
        cands = survivors.pop()
        if len(cands) > 1:
            assert (k1, uniqueness) == per_key_tie_break(
                cands, k2_prime, c_star, k456[1], pair_set.constant_c,
                spec), (spec, k456)
            outcomes[uniqueness] += 1
        return out

    monkeypatch.setattr(attack, "_derivative_sweep", recording_sweep)
    monkeypatch.setattr(attack, "resolve_k1_k2_k3", checked_resolve)
    for spec, pair_set in simeck_instances():
        run_asr_attack(pair_set, spec)
    print(f"tie-break: {outcomes}")
    assert outcomes["unique"] > 0 and outcomes["extra-pair-ambiguous"] > 0


def two_diff_match(known, want, pair_set, spec):
    """Reference for _pair_sweep: the ascending keys passing both
    equations, each peeling every swept key through the array decryption
    and pair 1 again."""
    xs = np.arange(1 << spec.word_width, dtype=np.uint32)
    return np.flatnonzero(
        (array_peel_diff((xs, *known), pair_set, 2, spec) == want[0])
        & (array_peel_diff((xs, *known), pair_set, 3, spec) == want[1]))


def test_peel_match_equals_two_diff_reference(monkeypatch):
    pair_sweep = attack._pair_sweep
    sweeps = {1: 0, 2: 0}       # len(known): K5 sweeps, K4 sweeps

    def checked(known, want, pair_set, spec):
        got = pair_sweep(known, want, pair_set, spec)
        assert got.dtype == np.intp
        assert np.array_equal(got, two_diff_match(known, want, pair_set,
                                                  spec))
        sweeps[len(known)] += 1
        return got

    monkeypatch.setattr(attack, "_pair_sweep", checked)
    for spec, pair_set in resolve_instances():
        run_asr_attack(pair_set, spec)
    print(f"pair sweep: {sweeps[1]} K5 and {sweeps[2]} K4 sweeps checked")
    assert sweeps[1] > 0 and sweeps[2] > 0


class RecordingTable(np.ndarray):
    """A round-function table that records the dtype and size of every
    array index it is read with."""

    reads = []

    def take(self, indices, *args, **kwargs):
        RecordingTable.reads.append((indices.dtype, indices.size))
        return self.view(np.ndarray).take(indices, *args, **kwargs)

    def __getitem__(self, key):
        if isinstance(key, np.ndarray):
            RecordingTable.reads.append((key.dtype, key.size))
        return self.view(np.ndarray)[key]


def test_full_width_gathers_index_with_intp():
    """Every table read over the whole domain, in the claw side tables
    and in every key sweep, gathers with an intp index."""
    cases = [(vectors.SPEC, paper_pair_set(with_extra=True))]
    for seed in range(3):
        spec = FeistelSpec(word_width=12, round_function="random", seed=seed)
        cases.append((spec, make_pair_set(spec, random_subkeys(spec, seed),
                                          seed)))
    for spec, pair_set in cases:
        tables = spec._tables
        object.__setattr__(spec, "_tables", tuple(
            t.view(RecordingTable) for t in tables))
        RecordingTable.reads.clear()
        try:
            run_asr_attack(pair_set, spec)
        finally:
            object.__setattr__(spec, "_tables", tables)
        full = [dtype for dtype, size in RecordingTable.reads
                if size == 1 << spec.word_width]
        assert full and all(dtype == np.intp for dtype in full), set(full)


def test_sweeps_read_one_shifted_table_per_equation(monkeypatch):
    """The K5, K4 and resolve sweeps decrypt no array: each gathers F_r
    over the whole domain once, XOR-shifted for its first equation (the
    unshifted read is the table itself), and reads a later equation only
    at the survivors."""
    sweep, round_f = attack._derivative_sweep, FeistelSpec.round_f
    decrypt = attack.partial_decrypt
    reads, sweeps = [], []

    def counting_round_f(spec, round_index, x):
        reads.append(np.size(x))
        return round_f(spec, round_index, x)

    def scalar_decrypt(block, keys, *rest):
        assert not any(np.ndim(v) for v in (*block, *keys))
        return decrypt(block, keys, *rest)

    def counted_sweep(round_index, origin, equations, spec):
        reads.clear()
        out = sweep(round_index, origin, equations, spec)
        n = 1 << spec.word_width
        assert reads[:1] == [n]
        assert len(reads) == 2 * len(equations) - 1
        assert all(size < n for size in reads[1:])
        sweeps.append(round_index)
        return out

    monkeypatch.setattr(FeistelSpec, "round_f", counting_round_f)
    monkeypatch.setattr(attack, "partial_decrypt", scalar_decrypt)
    monkeypatch.setattr(attack, "_derivative_sweep", counted_sweep)
    for spec, pair_set in resolve_instances():
        run_asr_attack(pair_set, spec)
    assert {4, 3, 2} == set(sweeps)     # K5, K4 and resolve sweeps


def relabel_instances():
    """The paper vectors and three random-F w=16 instances."""
    yield vectors.SPEC, paper_pair_set(with_extra=True)
    spec = FeistelSpec(word_width=16, round_function="random", seed=7)
    for seed in range(3):
        yield spec, make_pair_set(spec, random_subkeys(spec, seed), seed)


def cipher_sides(pair_set, spec):
    """Both claw sides at every key x, from the cipher and not the peel
    lemma: for p = 2, 3 the pair-1/pair-p difference of L4 encrypted
    forward through rounds 1-3 with keys (0, x ^ F_2(C), 0), which make
    K2' = x (f side), and of R5 = L4 decrypted back through rounds 6 and 5
    with K6 = x and K5 = 0 (g side)."""
    xs = np.arange(1 << spec.word_width)
    k2 = xs ^ spec.round_f(2, pair_set.constant_c)
    f = [encrypt_rounds(pt, (0, k2, 0), spec)[0] for pt, _ in pair_set.pairs]
    g = [partial_decrypt(ct, (0,) * 5 + (xs,), spec, 6, 5)[1]
         for _, ct in pair_set.pairs]
    return [[side[0] ^ side[p] for p in (1, 2)] for side in (f, g)]


def diff_pack(pair_set, spec):
    """Each side's two equations packed at every x, equation 1 high, from
    the cipher (cipher_sides)."""
    return [eq2.astype(np.uint64) << spec.word_width | eq3.astype(np.uint64)
            for eq2, eq3 in cipher_sides(pair_set, spec)]


def test_side_tables_are_the_difference_functions_relabelled():
    """Entry x ^ origin of a side table is the pack of the f side's (or
    the g side's) cipher-derived differences at x, for every x."""
    for spec, pair_set in relabel_instances():
        problem = build_claw_problem(pair_set, spec)
        assert all(problem.origins)
        xs = domain(spec.word_width)
        for side, (want, origin) in enumerate(
                zip(diff_pack(pair_set, spec), problem.origins)):
            assert np.array_equal(side_table(problem, side)[xs ^ origin],
                                  want), side


def test_concat_multi_undoes_the_origins():
    """Criterion 8's property with nonzero origins: the combined function
    of the attack's problem is the pack of the cipher-derived f and g
    sides at x, on both halves of its domain."""
    for spec, pair_set in relabel_instances():
        problem = build_claw_problem(pair_set, spec)
        combined = concat_multi(problem)
        want = np.concatenate(diff_pack(pair_set, spec)).tolist()
        assert [combined(j) for j in range(2 * problem.n_side)] == want


def test_claw_census_gathers_once_per_equation(monkeypatch):
    """Each claw equation is one derivative of a round table, read with
    one full-width gather: a census makes 4, where evaluating each of an
    equation's two round terms on its own would make 8."""
    round_f = FeistelSpec.round_f
    reads = []

    def counting_round_f(spec, round_index, x):
        reads.append((round_index, np.size(x)))
        return round_f(spec, round_index, x)

    monkeypatch.setattr(FeistelSpec, "round_f", counting_round_f)
    for spec, pair_set in relabel_instances():
        problem = build_claw_problem(pair_set, spec)
        reads.clear()
        find_claws_sorted(problem)
        assert reads == [(3, problem.n_side)] * 2 + [(5, problem.n_side)] * 2


def test_attack_peak_memory_w16():
    """Bytes, not time: the traced peak of a whole classical attack, on
    the paper vectors and on a random-F w=16 instance (domain and round
    tables already built), stays near the census's one 2^17-entry key
    buffer, 1 MiB, plus one equation's 512 KiB gather index and its
    256 KiB result."""
    cases = list(relabel_instances())[:2]
    for spec, pair_set in cases:
        want = run_asr_attack(pair_set, spec)
        tracemalloc.start()
        try:
            got = run_asr_attack(pair_set, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak <= 1.875 * 2 ** 20, peak


def test_attack_leaves_round_tables_and_domain_unchanged():
    """The sweeps and side tables XOR in place next to the round tables
    and the shared domain; a full attack on every backend leaves both
    bit-identical."""
    cases = [(vectors.SPEC, paper_pair_set(with_extra=True))]
    for w, function in ((8, "simeck"), (12, "random")):
        spec = FeistelSpec(word_width=w, round_function=function, seed=w)
        cases.append((spec, make_pair_set(spec, random_subkeys(spec, 2), 2)))
    for spec, pair_set in cases:
        before = [t.copy() for t in (*spec._tables,
                                     domain(spec.word_width))]
        for backend in ("classical", "walk-sim"):
            run_asr_attack(pair_set, spec, backends=backend)
        after = (*spec._tables, domain(spec.word_width))
        assert all(np.array_equal(b, a) for b, a in zip(before, after))


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
    charge = attack._charge_sweep
    sweeps = []

    def sweeping_charge(stage, *rest):
        if stage == "resolve-k1":
            sweeps.append(rest)
        return charge(stage, *rest)

    monkeypatch.setattr(attack, "_charge_sweep", sweeping_charge)
    _, stats, stages = run_asr_attack(pair_set, spec)
    assert len(sweeps) == 9
    assert stats.classical_evals["resolve-k1"] == 9 * 256
    assert stages[-1]["name"] == "resolve-k1-k2-k3"
    assert stages[-1]["queries"] == 256


def test_sweep_ledger_adds_up_per_stage(monkeypatch):
    """No K5 input (K6,), K4 input (K5, K6) or resolve input (c*, K2', K4,
    K5, K6) is swept twice.  Every sweep charges the ledger once: N
    evaluations, and under walk-sim exactly bbht_expected_queries(N, M)
    for its M survivors; the figure it returns is those queries under
    walk-sim and N under classical, and each report stage shows the
    figure of the sweep of the verifying tuple's inputs.  The survivor
    count each charge is given is that of the sweep just made."""
    report_names = {"k5": "k5", "k4": "k4", "resolve-k1": "resolve-k1-k2-k3"}
    charge, pair_sweep = attack._charge_sweep, attack._pair_sweep
    sweep, resolve = attack._derivative_sweep, attack.resolve_k1_k2_k3
    current = {}    # stage -> (inputs, survivor count) of its latest sweep

    def recording_pair_sweep(known, *rest):
        out = pair_sweep(known, *rest)
        stage = "k5" if len(known) == 1 else "k4"
        current[stage] = (tuple(int(k) for k in known), out.size)
        return out

    def recording_resolve(c_star, k2_prime, pair_set, spec, k456, *rest):
        current["resolve-k1"] = (c_star, k2_prime, *k456)
        return resolve(c_star, k2_prime, pair_set, spec, k456, *rest)

    def recording_sweep(round_index, *rest):
        out = sweep(round_index, *rest)
        if round_index == 2:                # resolve's K1 sweep
            current["resolve-k1"] = (current["resolve-k1"], out.size)
        return out

    monkeypatch.setattr(attack, "_pair_sweep", recording_pair_sweep)
    monkeypatch.setattr(attack, "resolve_k1_k2_k3", recording_resolve)
    monkeypatch.setattr(attack, "_derivative_sweep", recording_sweep)
    for spec, pair_set in resolve_instances():
        n = 1 << spec.word_width
        for backend in ("classical", "walk-sim"):
            sweeps = {stage: {} for stage in report_names}

            def counting_charge(stage, m, *args):
                stats = args[-1]
                before = (stats.grover_queries.get(stage, 0),
                          stats.classical_evals.get(stage, 0))
                figure = charge(stage, m, *args)
                q = stats.grover_queries[stage] - before[0]
                assert stats.classical_evals[stage] - before[1] == n
                if backend == "classical":
                    assert (q, figure) == (0, n)
                else:
                    assert q == figure == bbht_expected_queries(n, m)
                inputs, size = current.pop(stage)
                assert m == size, (spec, stage, inputs)
                assert inputs not in sweeps[stage], (spec, stage, inputs)
                sweeps[stage][inputs] = (m, figure)
                return figure

            monkeypatch.setattr(attack, "_charge_sweep", counting_charge)
            recovered, stats, stages = run_asr_attack(pair_set, spec,
                                                      backends=backend)
            k4, k5, k6 = recovered.subkeys[3:]
            verifying = {"k5": (k6,), "k4": (k5, k6),
                         "resolve-k1": (recovered.k1_xor_k3,
                                        recovered.k2_prime, k4, k5, k6)}
            report = {s["name"]: s["queries"] for s in stages}
            for stage, name in report_names.items():
                made = sweeps[stage]
                assert made, (spec, backend, stage)
                assert stats.classical_evals[stage] == len(made) * n
                assert stats.grover_queries[stage] == (
                    0 if backend == "classical" else
                    sum(bbht_expected_queries(n, m) for m, _ in made.values()))
                assert report[name] == made[verifying[stage]][1]


def test_classical_ledger_paper_vectors():
    """Each distinct K5 and K4 input is swept once: 2 K6 values and 4
    (K5, K6) pairs behind the 256 claws."""
    _, stats, _ = run_asr_attack(paper_pair_set(with_extra=True),
                                 vectors.SPEC)
    assert stats.classical_evals == {"claw": 131072, "k5": 131072,
                                     "k4": 262144, "resolve-k1": 65536}


def test_recovered_subkeys_are_python_ints():
    random_spec = FeistelSpec(word_width=8, round_function="random", seed=7)
    cases = [(vectors.SPEC, paper_pair_set(with_extra=True), "classical"),
             (vectors.SPEC, paper_pair_set(with_extra=True), "walk-sim"),
             (vectors.SPEC, paper_pair_set(), "classical"),
             (random_spec, make_pair_set(random_spec,
                                         random_subkeys(random_spec, 3), 3),
              "classical")]
    for spec, pair_set, backend in cases:
        recovered, _, _ = run_asr_attack(pair_set, spec, backends=backend)
        assert [type(k) for k in recovered.subkeys] == [int] * 6, backend


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


def test_grover_stage_iteration_count_w8(monkeypatch):
    """The K5 stage's Grover ledger is BBHT's expected cost summed over
    its sweeps, each at the sweep's own survivor count."""
    spec = FeistelSpec(word_width=8)
    keys = random_subkeys(spec, 77)
    pair_set = make_pair_set(spec, keys, 77)
    pair_sweep, k5_counts = attack._pair_sweep, []

    def recording_pair_sweep(known, *rest):
        out = pair_sweep(known, *rest)
        if len(known) == 1:
            k5_counts.append(out.size)
        return out

    monkeypatch.setattr(attack, "_pair_sweep", recording_pair_sweep)
    _, stats, _ = run_asr_attack(pair_set, spec, backends="walk-sim", seed=0)
    assert k5_counts
    assert stats.grover_queries["k5"] == sum(
        bbht_expected_queries(256, m) for m in k5_counts) > 0


def test_corrupted_ciphertext_rejected():
    spec = vectors.SPEC
    pairs = list(paper_pair_set(with_extra=True).pairs)
    (pt, (l, r)) = pairs[1]
    pairs[1] = (pt, (l ^ 0x8000, r))
    bad = ChosenPairSet(vectors.CONSTANT_C, tuple(pairs), vectors.EXTRA_PAIR)
    # this corruption leaves 256 claws, none of which verifies
    with pytest.raises(AttackError, match="no key candidate verified"):
        run_asr_attack(bad, spec)


@pytest.mark.parametrize("width, seed, backend", [
    (8, 3, "classical"), (8, 3, "exhaustive"), (8, 3, "walk-sim"),
    (3, 0, "walk-full")])
def test_claw_free_census_rejected(width, seed, backend):
    """Flipping one bit of pair 2's ciphertext leaves these random-F
    instances (spec, key and pair seed all equal) without a claw; every
    backend rejects them at the claw stage, the walks through
    claw_walk_sample's empty-census return."""
    spec = FeistelSpec(word_width=width, round_function="random", seed=seed)
    pair_set = make_pair_set(spec, random_subkeys(spec, seed), seed)
    pairs = list(pair_set.pairs)
    (pt, (l, r)) = pairs[1]
    pairs[1] = (pt, (l ^ 1, r))
    bad = ChosenPairSet(pair_set.constant_c, tuple(pairs), pair_set.extra_pair)
    problem = build_claw_problem(bad, spec)
    assert find_claws_sorted(problem)[0] == []
    with pytest.raises(AttackError, match="no claw found"):
        run_asr_attack(bad, spec, backends=backend)
    if backend.startswith("walk-"):
        # the walk neither tunes nor measures without a claw
        mode = attack.BACKEND_PRESETS[backend]["claw"].removeprefix("walk-")
        result = walk.claw_walk_sample(problem, 0, mode, claws=[])
        assert result.claw is None
        assert result.retries == result.ledger.oracle_queries == 0


def test_unknown_backend_name_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        run_asr_attack(paper_pair_set(), vectors.SPEC, backends="grover")


def test_wrong_round_count_rejected():
    spec = FeistelSpec(word_width=8, rounds=4)
    with pytest.raises(AttackError):
        run_asr_attack(paper_pair_set(), spec)
