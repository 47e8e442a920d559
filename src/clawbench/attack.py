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
(see resolve_k1_k2_k3 for why not always to one).

Every stage after the claw peels ciphertexts back through the rounds
whose keys are already known, resolve included, and every full-domain
key sweep is a derivative of one round function: by the peel lemma
(_peel_terms), a two-pair matching equation over all 2^w keys k is
F_r(y) ^ F_r(y ^ d) == t at y = k ^ e, with e and t from one scalar
cipher.partial_decrypt per ciphertext.  It costs one XOR-shifted gather
over the domain, since F_r over the domain in order is its table, and
decrypts no array.  The K5 and K4 sweeps, resolve's K1 sweep and both
claw sides take that form: the f side is a derivative of F_3 at
y = K2' ^ L1 of pair 1, the g side one of F_5 at y = K6 ^ e1, and
build_claw_problem, the one definition of both sides, tabulates each in
its y coordinates, with the XOR origin the claw censuses undo.

Each stage's inputs are computed once: one claw census per attack,
K1 ^ K3 once per claw (K2', K6), one K5 sweep per K6 and one K4 sweep per
(K5, K6), each charged once and kept with its report figure.  A sweep's
survivors stay an ascending index array, and each later check takes the
whole array in one call: the extra-pair filter runs once per K4 survivor
set, the Simeck tie-break once per K1 survivor set.  Keys become Python
ints only where they leave a stage.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from . import grover, walk
from .cipher import feistel_encrypt, partial_decrypt, simeck_f
from .claw import ClawProblem, find_claws_exhaustive, find_claws_sorted
from .words import check_word, domain, mask, word_to_hex


class AttackError(RuntimeError):
    """Malformed input set or failed final verification."""


class PairSetError(AttackError):
    """Malformed pair set: an input error, not a failed attack."""


@dataclass
class ChosenPairSet:
    """Three rule pairs (plus optional non-rule extra pair) and their
    ciphertexts under the unknown key."""

    constant_c: int
    pairs: tuple            # 3 x ((L1, R1), (L7, R7))
    extra_pair: tuple | None = None

    def validate(self, spec):
        if len(self.pairs) != 3:
            raise PairSetError(
                f"need exactly 3 rule pairs, got {len(self.pairs)}")
        extra = () if self.extra_pair is None else (self.extra_pair,)
        blocks = [block for pair in (*self.pairs, *extra) for block in pair]
        try:
            for word in (self.constant_c, *(w for b in blocks for w in b)):
                check_word(word, spec.word_width)
        except ValueError as exc:
            raise PairSetError(str(exc)) from None
        if len({l1 for (l1, _), _ct in self.pairs}) < 3:
            raise PairSetError("rule pairs must have distinct L1 values")
        for (l1, r1), _ct in self.pairs:
            if spec.round_f(1, l1) ^ r1 != self.constant_c:
                raise PairSetError(f"pair with L1={l1:#x} violates the "
                                   "plaintext selection rule")
        for (l1, r1), _ct in extra:
            if spec.round_f(1, l1) ^ r1 == self.constant_c:
                raise PairSetError("extra pair must violate the selection rule")


def make_chosen_plaintext(l1, constant_c, spec):
    """Plaintext (L1, R1) satisfying the selection rule by construction."""
    return l1, spec.round_f(1, l1) ^ constant_c


def make_pair_set(spec, keys, seed):
    """Synthetic attack instance: rule pairs and an extra pair under a
    hidden key.

    The constant C and distinct L1 values are drawn uniformly from the
    seeded generator; the extra pair, drawn last, flips one R1 bit so it
    violates the rule.
    """
    rng = np.random.default_rng(seed)
    n = 1 << spec.word_width
    constant_c = int(rng.integers(0, n))
    l1s = [int(x) for x in rng.choice(n, size=3, replace=False)]
    pairs = []
    for l1 in l1s:
        pt = make_chosen_plaintext(l1, constant_c, spec)
        pairs.append((pt, feistel_encrypt(pt, keys, spec)))
    pt = make_chosen_plaintext(int(rng.integers(0, n)), constant_c ^ 1, spec)
    return ChosenPairSet(constant_c, tuple(pairs),
                         (pt, feistel_encrypt(pt, keys, spec)))


def true_k2_prime(keys, constant_c, spec):
    return spec.round_f(2, keys[0] ^ constant_c) ^ keys[1]


def family_member(k1_star, k2_prime, c_star, constant_c, spec):
    """The (K1, K2, K3) family member selected by K1 = k1_star;
    element-wise over an array of K1 values."""
    k2 = spec.round_f(2, k1_star ^ constant_c) ^ k2_prime
    return k1_star, k2, c_star ^ k1_star


# ---------------------------------------------------------------------------
# difference functions and per-subkey predicates.  Each check peels the
# ciphertexts back from round 6 with the known later keys; the key of the
# last round peeled is unknown and cancels in the two pairs' difference,
# so that round runs with key 0.


def _peel_terms(ct, known, spec):
    """The peel lemma's (l, e) of one ciphertext, as ints, for
    known = (K_(r+2), ..., K_6), r = 5 - len(known).

    Peel lemma: decrypt the ciphertext with (k, K_(r+2), ..., K_6) and
    K_r = 0 down to the input of round r.  With (L, R) the state at the
    input of round r+2, one more round gives (R, L ^ F_(r+1)(R) ^ k) and
    the next the right half l ^ F_r(e ^ k), l = R, e = L ^ F_(r+1)(R).
    So the pair-1/pair-p difference of that right half over every k is
    the derivative F_r(y) ^ F_r(y ^ d) at y = k ^ e1, d = e1 ^ ep, plus
    the constant l1 ^ lp.
    """
    r = 5 - len(known)
    left, right = partial_decrypt(ct, (0,) * (r + 1) + tuple(known), spec,
                                  6, r + 2)
    return int(right), int(left ^ spec.round_f(r + 1, right))


def _derivative(round_index, ys, d, spec, offset=0):
    """F(y) ^ F(y ^ d) ^ offset at every y in ys, F = F_round_index.

    Over the whole domain in order, F(y) is F's table, so the derivative
    is one XOR-shifted gather, XOR-ed in place with the table: the one
    primitive every key sweep and both claw sides read.
    """
    diff = spec.round_f(round_index, ys ^ d)
    diff ^= (spec.table(round_index) if ys is domain(spec.word_width)
             else spec.round_f(round_index, ys))
    if offset:
        diff ^= offset
    return diff


def _derivative_sweep(round_index, origin, equations, spec):
    """Ascending keys k in [0, 2^w) with F(y) ^ F(y ^ d) == t for every
    (d, t) in equations, where y = k ^ origin and F = F_round_index.

    y runs over the whole domain as k does, so the first equation is one
    derivative over the domain; each later equation is read only at the
    survivors of those before it.
    """
    (d, t), *rest = equations
    hits = np.flatnonzero(
        _derivative(round_index, domain(spec.word_width), d, spec) == t)
    for d, t in rest:
        hits = hits[_derivative(round_index, hits, d, spec) == t]
    keys = hits ^ origin
    keys.sort()
    return keys


def _pair_sweep(known, want, pair_set, spec):
    """Ascending keys K_(r+1) with which pairs 2 and 3 peel to the
    round-r right-half differences want[0], want[1] from pair 1, for
    known = (K_(r+2), ..., K_6): by the peel lemma one derivative sweep
    of F_r, r = 5 - len(known), with pair 3 read on pair 2's survivors."""
    (l1, e1), *rest = (_peel_terms(ct, known, spec)
                       for _, ct in pair_set.pairs)
    return _derivative_sweep(
        5 - len(known), e1,
        [(e1 ^ e, w ^ l1 ^ l) for (l, e), w in zip(rest, want)], spec)


def build_claw_problem(pair_set, spec):
    """Two-equation claw problem whose expected claw is (K2', K6): for
    p = 2, 3 the pair-1/pair-p difference of L4, encrypted forward with
    K2' = x (f side) or decrypted back as R5 with K6 = x (g side).  At
    y = x ^ L1^(1) and z = x ^ e1 they are F_3(y) ^ F_3(y ^ L1^(1) ^ L1^(p))
    and, by the peel lemma, l1 ^ lp ^ F_5(z) ^ F_5(z ^ e1 ^ ep), each one
    derivative of a round table; the origins map claws back to (K2', K6)."""
    l1a, *l1bs = (pt[0] for pt, _ in pair_set.pairs)
    (l1, e1), *rest = (_peel_terms(ct, (), spec) for _, ct in pair_set.pairs)
    f_family = tuple(functools.partial(_derivative, 3, d=l1a ^ l1b, spec=spec)
                     for l1b in l1bs)
    g_family = tuple(functools.partial(_derivative, 5, d=e1 ^ ep, spec=spec,
                                       offset=l1 ^ lp) for lp, ep in rest)
    return ClawProblem(domain_bits=spec.word_width,
                       range_bits=spec.word_width, f_family=f_family,
                       g_family=g_family, origins=(l1a, e1))


def k1k3_constant(pair_set, k2_prime, k5, k6, spec):
    """The constant K1 ^ K3, recovered from any rule pair; all three pairs
    must agree or the upstream keys are wrong."""
    values = set()
    for pt, ct in pair_set.pairs:
        l4 = _peel_terms(ct, (k6,), spec)[1] ^ k5     # R5, the peel lemma
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


def _charge_sweep(stage, n_survivors, spec, backend, stats):
    """Charge one full key sweep of stage to stats and return the stage's
    report figure: N under the exhaustive backend, else its queries.

    Every sweep costs N classical evaluations; the grover backend adds
    grover.bbht_expected_queries(N, M) for the sweep's M = n_survivors
    survivors, what an attacker who does not know M expects to pay to
    find one of them.  The survivors are the candidates under both
    backends, so only the charge depends on the backend."""
    n = 1 << spec.word_width
    queries = (0 if backend == "exhaustive"
               else grover.bbht_expected_queries(n, n_survivors))
    for totals, count in ((stats.grover_queries, queries),
                          (stats.classical_evals, n)):
        totals[stage] = totals.get(stage, 0) + count
    return n if backend == "exhaustive" else queries


@dataclass
class RecoveredKeys:
    subkeys: tuple
    k2_prime: int
    k1_xor_k3: int
    # "unique" | "extra-pair-ambiguous" | "equivalence-family"
    uniqueness: str


def _verify(pair_set, keys, spec):
    extra = () if pair_set.extra_pair is None else (pair_set.extra_pair,)
    return all(feistel_encrypt(pt, keys, spec) == ct
               for pt, ct in (*pair_set.pairs, *extra))


BACKEND_PRESETS = {
    "classical": {"claw": "sorted", "search": "exhaustive"},
    "exhaustive": {"claw": "exhaustive", "search": "exhaustive"},
    "walk-sim": {"claw": "walk-collapsed", "search": "grover"},
    "walk-full": {"claw": "walk-full", "search": "grover"},
}


def _claw_candidates(problem, backend, stats):
    """The whole stage-1 claw set, in census order, so the pipeline can
    iterate on spurious claws: the exhaustive backend's pairwise scan or
    one sort-and-match, refused when empty.  A walk backend runs the tuned
    walk once and is charged its expected cost to a first claw (collapsed
    mode falls back to the sorted census on a claw that is not unique)."""
    n = problem.n_side
    stats.classical_evals["claw"] = 2 * n
    claws = (find_claws_exhaustive(problem) if backend == "exhaustive"
             else find_claws_sorted(problem)[0])
    if not claws:
        raise AttackError("no claw found: malformed pair set, reject")
    if not backend.startswith("walk-"):
        return claws, backend
    try:
        sim = walk.run_walk(n, walk.walk_params(n, n), claws,
                            backend.removeprefix("walk-"))
    except walk.UniqueClawRequired:
        return claws, f"{backend}->sorted (claw not unique)"
    prob = stats.walk_success_prob = sim.success_prob()
    stats.claw_queries = walk.walk_expected_queries(sim.params, prob)
    return claws, backend


def schedule_consistent(k1, k2, k5, spec):
    """Whether (K1, K2, K5) can come from the Simeck key schedule:
    K5 = F(K2) ^ K1 ^ (2^w - 4) ^ z0 with z0 a single stream bit.
    Element-wise over arrays of K1 and K2."""
    resid = k5 ^ simeck_f(k2, spec) ^ k1 ^ (mask(spec.word_width) ^ 3)
    return resid <= 1


def _extra_pair_filter(k456, c_star, pair_set, spec):
    """Element-wise over K4 (k456 = (K4, K5, K6), K4 an int or an array):
    the O(1) extra-pair filter ahead of resolve_k1_k2_k3, which needs
    neither K1 nor K2'.  The extra pair's ciphertext peeled through
    rounds 6..4 is (L4, R4) = (l, e ^ K4) with the peel lemma's (l, e) at
    r = 3, and the test is L4 ^ F3(R4) ^ c* == R1 ^ F1(L1)."""
    (l1, r1), ct = pair_set.extra_pair
    l, e = _peel_terms(ct, k456[1:], spec)
    return l ^ spec.round_f(3, e ^ k456[0]) ^ c_star == r1 ^ spec.round_f(1, l1)


def resolve_k1_k2_k3(c_star, k2_prime, pair_set, spec, k456, backend,
                     stats):
    """Resolve (K1, K2, K3) via the extra pair, or report the equivalence
    family (representative K1 = 0) when none is supplied, as ((K1, K2,
    K3), uniqueness, figure); figure is the K1 sweep's, 0 in family mode.

    Like every other stage this peels: the extra pair's ciphertext goes
    back through rounds 6..4 to the round-4 input (L4, R4), with R4 from
    the peel lemma's terms and no array decryption.  With
    a = R1 ^ F1(L1) the forward rounds 1-3 under the family member of K1
    (K2 = F2(K1 ^ C) ^ K2', K3 = K1 ^ c*) give

        L4 = a ^ c* ^ F3(L3)     R4 = L3 = L1 ^ F2(a ^ K1) ^ F2(C ^ K1) ^ K2'

    so K1 cancels from the O(1) filter L4 ^ F3(R4) ^ c* == a
    (_extra_pair_filter).  Precondition: k456 passes that filter, as
    run_asr_attack ensures by applying it to each K4 survivor set before
    calling this; a tuple that passes it leaves the sweep
    F2(a ^ K1) ^ F2(C ^ K1) == R4 ^ L1 ^ K2'.  Rounds 4-6 are a
    bijection under the known keys, so filter and sweep together accept
    exactly the K1 that encrypt the extra pair over all six rounds.  The
    sweep is the derivative of F2 at y = K1 ^ C with shift a ^ C.

    One extra pair cannot always pin K1 alone: with the same round
    function in rounds 1-3 the sweep is invariant under
    k1 -> k1 ^ a ^ C, so survivors come in pairs.  When the cipher uses
    the Simeck key schedule the consistency relation
    K5 = F(K2) ^ K1 ^ (2^w - 4) ^ z0, checked over the whole survivor
    array at once, breaks the tie; otherwise the smallest survivor is
    reported and the ambiguity is flagged.
    """
    c = pair_set.constant_c
    k1, uniqueness, figure = 0, "equivalence-family", 0
    if pair_set.extra_pair is not None:
        (l1, r1), ct = pair_set.extra_pair
        a = int(r1 ^ spec.round_f(1, l1))
        r4 = _peel_terms(ct, k456[1:], spec)[1] ^ k456[0]
        cands = _derivative_sweep(2, c, ((a ^ c, r4 ^ l1 ^ k2_prime),), spec)
        figure = _charge_sweep("resolve-k1", cands.size, spec, backend, stats)
        if not cands.size:
            raise AttackError("no K1 satisfies the extra pair; "
                              "upstream keys wrong")
        uniqueness = "unique"
        if cands.size > 1:
            uniqueness = "extra-pair-ambiguous"
            if spec.round_function == "simeck":
                k1s, k2s, _ = family_member(cands, k2_prime, c_star, c, spec)
                sched = cands[schedule_consistent(k1s, k2s, k456[1], spec)]
                if sched.size == 1:
                    cands, uniqueness = sched, "unique"
        k1 = cands[0]
    k123 = family_member(k1, k2_prime, c_star, c, spec)
    return tuple(int(k) for k in k123), uniqueness, figure


def run_asr_attack(pair_set, spec, backends="classical", seed=0):
    """Full pipeline: claw search for (K2', K6), difference checks for K5
    and K4, the K1 ^ K3 constant, then (K1, K2, K3) resolution and final
    trial-encryption arbitration.

    backends is a BACKEND_PRESETS name; seed is unused, as the attack
    draws nothing, and stays for callers that pass it (perfbench).
    Returns (RecoveredKeys, QueryStats, stages) where stages is the
    per-stage report list.
    """
    if spec.rounds != 6:
        raise AttackError("the attack targets the 6-round structure")
    pair_set.validate(spec)
    if backends not in BACKEND_PRESETS:
        raise ValueError(f"unknown backend {backends!r}")
    backends = BACKEND_PRESETS[backends]
    stats = QueryStats()

    problem = build_claw_problem(pair_set, spec)
    claws, claw_backend = _claw_candidates(problem, backends["claw"], stats)

    l1a, *l1bs = (pt[0] for pt, _ in pair_set.pairs)
    l1_diffs = [l1a ^ l1b for l1b in l1bs]
    search = backends["search"]

    @functools.cache
    def sweep(known):
        """(survivors, figure) of the K5 sweep of (K6,) or K4 of (K5, K6)."""
        stage, want = ("k5", l1_diffs) if len(known) == 1 else ("k4", (0, 0))
        survivors = _pair_sweep(known, want, pair_set, spec)
        return survivors, _charge_sweep(stage, survivors.size, spec, search,
                                        stats)

    def hexed(value):
        """word_to_hex over a word or nested lists and tuples of words."""
        if isinstance(value, (list, tuple)):
            return [hexed(v) for v in value]
        return word_to_hex(value, spec.word_width)

    for k2_prime, k6 in claws:
        k5s, k5_figure = sweep((k6,))
        if k5s.size:
            # K5 cancels between pairs, so a claw's pairs always agree
            # here, and c*(K5) = c*(0) ^ K5
            c_star0 = k1k3_constant(pair_set, k2_prime, 0, k6, spec)
        for k5 in k5s.tolist():
            c_star = c_star0 ^ k5
            k4s, k4_figure = sweep((k5, k6))
            if pair_set.extra_pair is not None:
                k4s = k4s[_extra_pair_filter((k4s, k5, k6), c_star,
                                            pair_set, spec)]
            for k4 in k4s.tolist():
                try:
                    k123, uniqueness, resolve_figure = resolve_k1_k2_k3(
                        c_star, k2_prime, pair_set, spec, (k4, k5, k6),
                        search, stats)
                except AttackError:
                    continue
                keys = (*k123, k4, k5, k6)
                if not _verify(pair_set, keys, spec):
                    continue
                rows = (("claw-k2prime-k6", claw_backend, stats.claw_queries
                         or stats.classical_evals["claw"], claws),
                        ("k5", search, k5_figure, k5),
                        ("k4", search, k4_figure, k4),
                        ("k1-xor-k3", "direct", 3, c_star),
                        ("resolve-k1-k2-k3", search if pair_set.extra_pair
                         else "family", resolve_figure, k123))
                stages = [{"name": name, "backend": backend, "queries": figure,
                           "result_hex": hexed(result)}
                          for name, backend, figure, result in rows]
                recovered = RecoveredKeys(keys, k2_prime, c_star, uniqueness)
                return recovered, stats, stages
    raise AttackError("attack failed: no key candidate verified")


def attack_report(pair_set, spec, recovered, stats, stages, backends):
    """JSON-ready attack report (deterministic for a fixed configuration)."""
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
