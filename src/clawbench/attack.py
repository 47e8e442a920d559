"""All-subkeys-recovery attack on the 6-round Feistel-2* structure.

The chosen plaintexts all satisfy F_1(L1) ^ R1 == C for one constant C,
which pins the round-2 input difference to zero and lets the round-4 left
state be matched from both directions: the encryption side depends only
on the derived key K2' = F_2(K1 ^ C) ^ K2, the decryption side only on
K6.  Two plaintext differences give a two-equation claw problem whose
unique expected claw is (K2', K6); the later rounds then fall to
single-key difference checks, and K1 ^ K3 is fixed as a constant.

With only rule-constrained pairs, (K1, K2, K3) is identifiable only up to
a one-parameter equivalence family (K1 free, K2 and K3 determined); one
extra pair violating the rule cuts the family down to a few candidates
(see resolve_k1_k2_k3 for why not always to one).  k3_check_paper
implements the round-1 matching predicate literally to demonstrate that
it is independent of K3 on rule pairs.

Every stage after the claw works by peeling ciphertexts back through the
rounds whose keys are already known (cipher.partial_decrypt), resolve
included, and each stage's inputs are computed once: one claw census per
attack, and K1 ^ K3 once per (K2', K6, K5) before the K4 search.
"""

from dataclasses import dataclass, field

import numpy as np

from . import grover
from .cipher import feistel_encrypt, partial_decrypt, simeck_f
from .claw import ClawProblem, find_claws_exhaustive, find_claws_sorted
from .walk import claw_walk_sample
from .words import check_word, mask, word_to_hex


class AttackError(RuntimeError):
    """Malformed input set or failed final verification."""


@dataclass
class ChosenPairSet:
    """Three rule pairs (plus optional non-rule extra pair) and their
    ciphertexts under the unknown key."""

    constant_c: int
    pairs: tuple            # 3 x ((L1, R1), (L7, R7))
    extra_pair: tuple | None = None

    def validate(self, spec):
        if len(self.pairs) != 3:
            raise AttackError(f"need exactly 3 rule pairs, got {len(self.pairs)}")
        check_word(self.constant_c, spec.word_width)
        seen = set()
        for (l1, r1), _ct in self.pairs:
            if spec.round_f(1, l1) ^ r1 != self.constant_c:
                raise AttackError(f"pair with L1={l1:#x} violates the "
                                  "plaintext selection rule")
            if l1 in seen:
                raise AttackError("rule pairs must have distinct L1 values")
            seen.add(l1)
        if self.extra_pair is not None:
            (l1, r1), _ct = self.extra_pair
            if spec.round_f(1, l1) ^ r1 == self.constant_c:
                raise AttackError("extra pair must violate the selection rule")


def make_chosen_plaintext(l1, constant_c, spec):
    """Plaintext (L1, R1) satisfying the selection rule by construction."""
    return l1, spec.round_f(1, l1) ^ constant_c


def make_pair_set(spec, keys, seed, constant_c=None, with_extra=True):
    """Synthetic attack instance: rule pairs under a hidden key.

    L1 values are drawn distinct uniformly from the seeded generator; the
    extra pair flips one R1 bit so it violates the rule.
    """
    rng = np.random.default_rng(seed)
    n = 1 << spec.word_width
    if constant_c is None:
        constant_c = int(rng.integers(0, n))
    l1s = [int(x) for x in rng.choice(n, size=3, replace=False)]
    pairs = []
    for l1 in l1s:
        pt = make_chosen_plaintext(l1, constant_c, spec)
        pairs.append((pt, feistel_encrypt(pt, keys, spec)))
    extra = None
    if with_extra:
        pt = make_chosen_plaintext(int(rng.integers(0, n)), constant_c ^ 1, spec)
        extra = (pt, feistel_encrypt(pt, keys, spec))
    return ChosenPairSet(constant_c, tuple(pairs), extra)


def true_k2_prime(keys, constant_c, spec):
    return spec.round_f(2, keys[0] ^ constant_c) ^ keys[1]


def family_member(k1_star, k2_prime, c_star, constant_c, spec):
    """The (K1, K2, K3) equivalence-family member selected by K1 = k1_star."""
    k2 = spec.round_f(2, k1_star ^ constant_c) ^ k2_prime
    return k1_star, k2, c_star ^ k1_star


# ---------------------------------------------------------------------------
# difference functions and per-subkey predicates.  Each check peels the
# ciphertexts back from round 6 with the known later keys; the key of the
# last round peeled is unknown and cancels in the two pairs' difference,
# so that round runs with key 0.


def _peeled_right(ct, known, spec):
    """Right half of the round-r input state, r = 7 - len(known), from
    decrypting rounds 6..r with known = (K_r, ..., K_6)."""
    r = 7 - len(known)
    return partial_decrypt(ct, (0,) * (r - 1) + tuple(known), spec, 6, r)[1]


def _peel_diff(known, pair_set, pair_idx, spec):
    """Round-r right-half difference of pair 1 and pair pair_idx, peeling
    with known = (K_(r+1), ..., K_6) and K_r = 0."""
    if pair_idx not in (2, 3):
        raise ValueError("pair_idx must be 2 or 3")
    keys = (0, *known)
    return (_peeled_right(pair_set.pairs[0][1], keys, spec)
            ^ _peeled_right(pair_set.pairs[pair_idx - 1][1], keys, spec))


def _peel_match(known, want, pair_set, spec):
    """Element-wise over the swept key known[0] (an array): pairs 2 and 3
    peel to the differences want[0], want[1] from pair 1.

    Pair 1 is peeled once for both equations, and pair 3 only for the
    swept keys that pass pair 2's equation.
    """
    keys = (0, *known)
    (_, ct1), (_, ct2), (_, ct3) = pair_set.pairs
    first = _peeled_right(ct1, keys, spec)
    match = (first ^ _peeled_right(ct2, keys, spec)) == want[0]
    hits = np.flatnonzero(match)
    keys = (0, known[0][hits], *known[1:])
    match[hits] = (first[hits] ^ _peeled_right(ct3, keys, spec)) == want[1]
    return match


def _plaintext_left_diff(pair_set, pair_idx):
    return pair_set.pairs[0][0][0] ^ pair_set.pairs[pair_idx - 1][0][0]


def diff_f(x, pair_set, pair_idx, spec):
    """Encryption-direction matching difference F_3(L1^(1)^x) ^ F_3(L1^(p)^x);
    equals the round-4 left difference when x is the true K2'."""
    if pair_idx not in (2, 3):
        raise ValueError("pair_idx must be 2 or 3")
    l1a = pair_set.pairs[0][0][0]
    l1b = pair_set.pairs[pair_idx - 1][0][0]
    return spec.round_f(3, l1a ^ x) ^ spec.round_f(3, l1b ^ x)


def diff_g(x, pair_set, pair_idx, spec):
    """Decryption-direction matching difference; equals the round-4 left
    difference when x is the true K6."""
    return _peel_diff((x,), pair_set, pair_idx, spec)


def build_claw_problem(pair_set, spec):
    """Two-equation claw problem whose expected claw is (K2', K6)."""
    w = spec.word_width
    f_family = tuple(
        (lambda x, p=p: diff_f(x, pair_set, p, spec)) for p in (2, 3))
    g_family = tuple(
        (lambda x, p=p: diff_g(x, pair_set, p, spec)) for p in (2, 3))
    return ClawProblem(domain_bits=w, range_bits=w,
                       f_family=f_family, g_family=g_family)


def k3_check_paper(k3, k4, k5, k6, pair_set, pair_idx, spec):
    """Round-1 matching, taken literally.

    On rule-constrained pairs the reconstructed round-2 left states of the
    two pairs are equal for every k3 guess, so the F_2 difference term
    cancels and the verdict is independent of k3.  The predicate exists to
    demonstrate exactly that degeneracy.
    """
    return bool(np.all(_peel_diff((k3, k4, k5, k6), pair_set, pair_idx, spec)
                       == _plaintext_left_diff(pair_set, pair_idx)))


def k1k3_constant(pair_set, k2_prime, k5, k6, spec):
    """The constant K1 ^ K3, recovered from any rule pair; all three pairs
    must agree or the upstream keys are wrong."""
    values = set()
    for pt, ct in pair_set.pairs:
        l4 = _peeled_right(ct, (k5, k6), spec)
        values.add(int(l4 ^ spec.round_f(3, pt[0] ^ k2_prime)
                       ^ pair_set.constant_c))
    if len(values) != 1:
        raise AttackError(f"K1^K3 constant disagrees across pairs: "
                          f"{sorted(values)}")
    return values.pop()


# ---------------------------------------------------------------------------
# search backends


@dataclass
class QueryStats:
    claw_queries: int = 0
    grover_queries: dict = field(default_factory=dict)
    classical_evals: dict = field(default_factory=dict)
    walk_success_prob: float | None = None
    last_call: dict = field(default_factory=dict)

    def charge(self, stage, queries, evals):
        """Add one search call to the stage totals; last_call keeps the
        call's report figure, its quantum queries or else evaluations."""
        for totals, n in ((self.grover_queries, queries),
                          (self.classical_evals, evals)):
            totals[stage] = totals.get(stage, 0) + n
        self.last_call[stage] = queries or evals


GROVER_RETRIES = 5


def _search_candidates(stage, predicate, spec, backend, seed, stats):
    """Candidate key values for one Grover-style stage, in ascending order
    for both backends so the downstream pipeline is backend-independent.

    predicate maps a numpy array of all 2^w candidates to a bool array.
    The grover backend also samples the survivors and verifies each
    sample, up to GROVER_RETRIES times, for the quantum query count.  The
    call is charged to stats under stage: the one vectorised sweep, N
    classical evaluations however many samples missed, plus the queries.
    """
    n = 1 << spec.word_width
    xs = np.arange(n, dtype=np.uint32)
    truth = predicate(xs)
    survivors = [int(x) for x in np.nonzero(truth)[0]]
    queries = 0
    if backend != "exhaustive" and survivors:
        # iteration count assumes a single marked element; spurious
        # survivors are handled by reruns and classical verification
        iters = grover.grover_iterations(n, 1)
        for attempt in range(GROVER_RETRIES):
            idx, ledger = grover.grover_sample(
                lambda x: bool(truth[x]), n, seed=seed + attempt,
                iterations=iters, marked=survivors)
            queries += ledger.oracle_queries
            if truth[idx]:
                break
    stats.charge(stage, queries, n)
    return survivors


@dataclass
class RecoveredKeys:
    subkeys: tuple
    k2_prime: int
    k1_xor_k3: int
    uniqueness: str         # "unique" | "equivalence-family"


def _verify(pair_set, keys, spec):
    for pt, ct in pair_set.pairs:
        if feistel_encrypt(pt, keys, spec) != ct:
            return False
    if pair_set.extra_pair is not None:
        pt, ct = pair_set.extra_pair
        if feistel_encrypt(pt, keys, spec) != ct:
            return False
    return True


BACKEND_PRESETS = {
    "classical": {"claw": "sorted", "search": "exhaustive"},
    "exhaustive": {"claw": "exhaustive", "search": "exhaustive"},
    "walk-sim": {"claw": "walk-collapsed", "search": "grover"},
    "walk-full": {"claw": "walk-full", "search": "grover"},
}


def _claw_candidates(problem, backend, seed, stats):
    """Stage-1 claw candidates in deterministic order, from one census.

    The exhaustive backend takes the census from the pairwise scan, every
    other backend from one sort-and-match.  Walk backends sample one claw
    from that census (collapsed mode falls back to the sorted result when
    the claw is not unique); classical backends return the whole claw set
    so the pipeline can iterate on spurious claws.
    """
    stats.classical_evals["claw"] = 2 * problem.n_side
    if backend == "exhaustive":
        return find_claws_exhaustive(problem), backend
    claws, _ = find_claws_sorted(problem)
    if backend == "sorted":
        return claws, backend
    mode = backend.removeprefix("walk-")
    if mode == "collapsed" and len(claws) != 1:
        return claws, f"{backend}->sorted (claw not unique)"
    result = claw_walk_sample(problem, seed=seed, mode=mode,
                              claws=sorted(claws))
    stats.claw_queries = result.ledger.oracle_queries
    stats.walk_success_prob = result.success_prob
    if result.claw is None:
        # retries exhausted; the remaining claw set is still known
        return result.all_claws, f"{backend}->exhausted"
    rest = [c for c in result.all_claws if c != result.claw]
    return [result.claw] + rest, backend


def schedule_consistent(k1, k2, k5, spec):
    """Whether (K1, K2, K5) can come from the Simeck key schedule:
    K5 = F(K2) ^ K1 ^ (2^w - 4) ^ z0 with z0 a single stream bit."""
    resid = k5 ^ simeck_f(k2, spec) ^ k1 ^ (mask(spec.word_width) ^ 3)
    return resid in (0, 1)


def resolve_k1_k2_k3(c_star, k2_prime, pair_set, spec, k456, backend,
                     seed, stats):
    """Resolve (K1, K2, K3) via the extra pair, or report the equivalence
    family (representative K1 = 0) when none is supplied.

    Like every other stage this peels: the extra pair's ciphertext goes
    back through rounds 6..4 once to the round-4 input (L4, R4).  With
    a = R1 ^ F1(L1) the forward rounds 1-3 under the family member of K1
    (K2 = F2(K1 ^ C) ^ K2', K3 = K1 ^ c*) give

        L4 = a ^ c* ^ F3(L3)     R4 = L3 = L1 ^ F2(a ^ K1) ^ F2(C ^ K1) ^ K2'

    so K1 cancels from the O(1) filter L4 ^ F3(R4) ^ c* == a, and a
    tuple that passes it leaves the sweep
    F2(a ^ K1) ^ F2(C ^ K1) == R4 ^ L1 ^ K2'.  Rounds 4-6 are a
    bijection under the known keys, so filter and sweep together accept
    exactly the K1 that encrypt the extra pair over all six rounds.

    One extra pair cannot always pin K1 alone: with the same round
    function in rounds 1-3 the sweep is invariant under
    k1 -> k1 ^ a ^ C, so survivors come in pairs.  When the cipher uses
    the Simeck key schedule the consistency relation
    K5 = F(K2) ^ K1 ^ (2^w - 4) ^ z0 breaks the tie; otherwise the
    smallest survivor is reported and the ambiguity is flagged.
    """
    c = pair_set.constant_c
    if pair_set.extra_pair is None:
        k1, k2, k3 = family_member(0, k2_prime, c_star, c, spec)
        return (k1, k2, k3), "equivalence-family"
    (l1, r1), ct = pair_set.extra_pair
    l4, r4 = partial_decrypt(ct, (0, 0, 0, *k456), spec, 6, 4)
    a = r1 ^ spec.round_f(1, l1)
    if l4 ^ spec.round_f(3, r4) ^ c_star != a:
        raise AttackError("no K1 satisfies the extra pair; upstream keys wrong")
    target = r4 ^ l1 ^ k2_prime
    cands = _search_candidates(
        "resolve-k1",
        lambda xs: spec.round_f(2, xs ^ a) ^ spec.round_f(2, xs ^ c) == target,
        spec, backend, seed, stats)
    if not cands:
        raise AttackError("no K1 satisfies the extra pair; upstream keys wrong")
    uniqueness = "unique"
    if len(cands) > 1:
        uniqueness = "extra-pair-ambiguous"
        if spec.round_function == "simeck":
            k5 = k456[1]
            sched = [k1 for k1 in cands if schedule_consistent(
                k1, spec.round_f(2, k1 ^ c) ^ k2_prime, k5, spec)]
            if len(sched) == 1:
                cands = sched
                uniqueness = "unique"
    k1 = cands[0]
    k2 = spec.round_f(2, k1 ^ c) ^ k2_prime
    return (k1, k2, k1 ^ c_star), uniqueness


def run_asr_attack(pair_set, spec, backends="classical", seed=0):
    """Full pipeline: claw search for (K2', K6), difference checks for K5
    and K4, the K1 ^ K3 constant, then (K1, K2, K3) resolution and final
    trial-encryption arbitration.

    backends is a BACKEND_PRESETS name.  Returns (RecoveredKeys,
    QueryStats, stages) where stages is the per-stage report list.
    """
    if spec.rounds != 6:
        raise AttackError("the attack targets the 6-round structure")
    pair_set.validate(spec)
    if backends not in BACKEND_PRESETS:
        raise ValueError(f"unknown backend {backends!r}")
    backends = BACKEND_PRESETS[backends]
    stats = QueryStats()
    stages = []
    w = spec.word_width

    problem = build_claw_problem(pair_set, spec)
    claws, claw_backend = _claw_candidates(problem, backends["claw"],
                                           seed, stats)
    stages.append({"name": "claw-k2prime-k6", "backend": claw_backend,
                   "queries": stats.claw_queries
                   or stats.classical_evals["claw"],
                   "result_hex": [[word_to_hex(a, w), word_to_hex(b, w)]
                                  for a, b in claws]})
    if not claws:
        raise AttackError("no claw found: malformed pair set, reject")

    l1_diffs = [_plaintext_left_diff(pair_set, p) for p in (2, 3)]
    for k2_prime, k6 in claws:
        k5s = _search_candidates(
            "k5", lambda xs: _peel_match((xs, k6), l1_diffs, pair_set, spec),
            spec, backends["search"], seed + 1, stats)
        for k5 in k5s:
            try:
                c_star = k1k3_constant(pair_set, k2_prime, k5, k6, spec)
            except AttackError:
                continue
            k4s = _search_candidates(
                "k4", lambda xs: _peel_match((xs, k5, k6), (0, 0),
                                             pair_set, spec),
                spec, backends["search"], seed + 2, stats)
            for k4 in k4s:
                try:
                    (k1, k2, k3), uniqueness = resolve_k1_k2_k3(
                        c_star, k2_prime, pair_set, spec, (k4, k5, k6),
                        backends["search"], seed + 3, stats)
                except AttackError:
                    continue
                keys = (k1, k2, k3, k4, k5, k6)
                if _verify(pair_set, keys, spec):
                    stages.append({"name": "k5", "backend": backends["search"],
                                   "queries": stats.last_call["k5"],
                                   "result_hex": word_to_hex(k5, w)})
                    stages.append({"name": "k4", "backend": backends["search"],
                                   "queries": stats.last_call["k4"],
                                   "result_hex": word_to_hex(k4, w)})
                    stages.append({"name": "k1-xor-k3", "backend": "direct",
                                   "queries": 3,
                                   "result_hex": word_to_hex(c_star, w)})
                    stages.append({"name": "resolve-k1-k2-k3",
                                   "backend": backends["search"]
                                   if pair_set.extra_pair else "family",
                                   "queries":
                                   stats.last_call.get("resolve-k1", 0),
                                   "result_hex": [word_to_hex(x, w)
                                                  for x in (k1, k2, k3)]})
                    recovered = RecoveredKeys(keys, k2_prime, c_star,
                                              uniqueness)
                    return recovered, stats, stages
    raise AttackError("attack failed: no key candidate verified")


def attack_report(pair_set, spec, recovered, stats, stages, backends):
    """JSON-ready attack report (deterministic for a fixed config+seed)."""
    w = spec.word_width
    pairs = [{"plaintext": [word_to_hex(pt[0], w), word_to_hex(pt[1], w)],
              "ciphertext": [word_to_hex(ct[0], w), word_to_hex(ct[1], w)]}
             for pt, ct in pair_set.pairs]
    report = {
        "spec": {"width": w, "rounds": spec.rounds,
                 "round_function": spec.round_function},
        "constant_c": word_to_hex(pair_set.constant_c, w),
        "pairs": pairs,
        "backends": BACKEND_PRESETS[backends],
        "stages": stages,
        "recovered": {
            **{f"K{i}": word_to_hex(k, w)
               for i, k in enumerate(recovered.subkeys, start=1)},
            "K2_prime": word_to_hex(recovered.k2_prime, w),
            "K1_xor_K3": word_to_hex(recovered.k1_xor_k3, w),
            "uniqueness": recovered.uniqueness,
        },
        "verified": _verify(pair_set, recovered.subkeys, spec),
        "data_complexity": len(pair_set.pairs)
        + (1 if pair_set.extra_pair else 0),
    }
    if stats.walk_success_prob is not None:
        report["walk_success_prob"] = stats.walk_success_prob
    return report
