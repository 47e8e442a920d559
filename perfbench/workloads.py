"""Workloads: seeded inputs, one callable per op, and the output checks.

`build(name, seed)` returns a workload's op cycles and a few counts from
set-up (how many instances the claw screen drew again).  A run ends on
a cycle boundary, so every run has the same mix of op kinds and the
latency quantiles fall at the same places in it.  Every op is an
`Op(kind, run, check)`: `run()` is the timed call into clawbench and
`check(output)` returns `(error or None, input properties)`.  The library
only ever sees the generated instances; the seed stays here.

Why each workload (see NOTES.md for the measurements behind this):

* w16-classical -- full-width attacks with the classical backend.  One op
  in eight is the paper's Simeck32/64 vector set: 256 claws fan out into
  1,649 resolve calls, so `attack` and `cipher` do the work while `walk`
  and `grover` idle.  The other seven are seeded 16-bit instances with
  random round functions (1-6 claws, ~25 ms, mostly the sort-and-match).
  The paper attack is the slowest op, so p90 is the paper attack and p50
  a random instance.  Random Simeck32/64 instances are left out: their
  fan-out has an unbounded tail (NOTES.md).
* w12-walksim -- width-8 and width-12 attacks with the walk-sim backend,
  half Simeck and half random round functions.  The O(N^2) claw census,
  walk tuning (mostly thrown away by the unique-claw fallback) and the
  Python-predicate Grover sampler dominate; resolve is light, as Simeck
  width-12 instances are kept to at most 64 claws.
* quantum-sims -- simulator jobs with no attack: collapsed walk and its
  tuning, the dense full-basis walk, Grover statevectors, planted-claw
  walk sampling and the `scaling`/`selftest` commands.  Only `walk` and
  `grover` are busy.
"""

import contextlib
import io
import json
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from clawbench import attack, cipher, claw, cli, grover, vectors, walk

# Number of op cycles generated at set-up; a run that gets further
# starts again at the first cycle.  These cover more than a 30 s run.
W16_CYCLES = 32         # 8 ops each: paper + 7 random, ~1.2 s per cycle
W12_CYCLES = 256        # 3 ops each: one width 8, two width 12, ~0.15 s
QSIM_CYCLES = 16        # 20 jobs each, ~3.6 s per cycle

# Simeck width-12 instances with more claws are drawn again (about 12% of
# draws): their walk-sim attack has a long tail, up to 105 s (NOTES.md).
SIMECK12_MAX_CLAWS = 64

# Seeded random round-function families per width.  Instances share them
# so that their tables (1.5 MB each at width 16) do not dominate the peak
# RSS; every op still has its own key and plaintexts.
RANDOM_FAMILIES = 4

NORM_TOL = 1e-12
GROVER_TOL = 1e-12
WALK_MODE_TOL = 1e-10


@dataclass
class Op:
    kind: str
    run: Callable
    check: Callable


# ---------------------------------------------------------------------------
# attacks


def _attack_op(kind, spec, pair_set, backend, seed, expect_keys=None):
    def run():
        recovered, stats, stages = attack.run_asr_attack(
            pair_set, spec, backends=backend, seed=seed)
        report = attack.attack_report(pair_set, spec, recovered, stats,
                                      stages, backend)
        return json.dumps(report, indent=2, sort_keys=True)

    def check(text):
        report = json.loads(text)
        claw_stage = report["stages"][0]
        props = {"claws": len(claw_stage["result_hex"]),
                 "claw_backend": claw_stage["backend"]}
        if report["verified"] is not True:
            return "report not verified", props
        rec = report["recovered"]
        keys = tuple(int(rec[f"K{i}"], 16) for i in range(1, 7))
        supplied = list(pair_set.pairs)
        if pair_set.extra_pair is not None:
            supplied.append(pair_set.extra_pair)
        for pt, ct in supplied:
            if cipher.feistel_encrypt(pt, keys, spec) != ct:
                return f"recovered keys do not encrypt {pt} to {ct}", props
        if expect_keys is not None:
            if keys != expect_keys:
                return f"recovered {keys}, expected {expect_keys}", props
            if rec["uniqueness"] != "unique":
                return f"uniqueness {rec['uniqueness']!r}", props
        return None, props

    return Op(kind, run, check)


def _paper_op():
    pairs = tuple(zip(vectors.PLAINTEXTS, vectors.CIPHERTEXTS))
    pair_set = attack.ChosenPairSet(vectors.CONSTANT_C, pairs,
                                    vectors.EXTRA_PAIR)
    return _attack_op("paper", vectors.SPEC, pair_set, "classical", 0,
                      expect_keys=vectors.SUBKEYS)


def _simeck_instance(width, rng):
    spec = cipher.FeistelSpec(word_width=width)
    master = tuple(int(x) for x in rng.integers(0, 1 << width, size=4))
    keys = cipher.simeck_key_schedule(master, spec.rounds, spec)
    pair_set = attack.make_pair_set(spec, keys, int(rng.integers(1 << 31)))
    return spec, pair_set


def claw_count(spec, pair_set):
    """Claws of the attack's two-equation claw problem, counted here from
    the round function so the screen does not depend on the library's
    claw searches.  Sides as in attack.diff_f / attack.diff_g."""
    xs = np.arange(1 << spec.word_width, dtype=np.uint32)
    f = spec.round_f
    (pt_a, (l7a, r7a)), *others = pair_set.pairs
    f_side = g_side = np.uint64(0)
    for (l1, _r1), (l7, r7) in others:
        f_eq = f(3, pt_a[0] ^ xs) ^ f(3, l1 ^ xs)
        g_eq = (r7a ^ r7 ^ f(5, l7a ^ f(6, r7a) ^ xs)
                ^ f(5, l7 ^ f(6, r7) ^ xs))
        f_side = (f_side << np.uint64(32)) | f_eq.astype(np.uint64)
        g_side = (g_side << np.uint64(32)) | g_eq.astype(np.uint64)
    f_vals, f_counts = np.unique(f_side, return_counts=True)
    g_vals, g_counts = np.unique(g_side, return_counts=True)
    _, fi, gi = np.intersect1d(f_vals, g_vals, assume_unique=True,
                               return_indices=True)
    return int((f_counts[fi] * g_counts[gi]).sum())


def _screened_simeck12(rng, notes):
    while True:
        spec, pair_set = _simeck_instance(12, rng)
        notes["simeck12_drawn"] += 1
        if claw_count(spec, pair_set) <= SIMECK12_MAX_CLAWS:
            return spec, pair_set
        notes["simeck12_over_claw_cap"] += 1


def _random_families(width, rng):
    return [cipher.FeistelSpec(word_width=width, round_function="random",
                               seed=int(rng.integers(1 << 31)))
            for _ in range(RANDOM_FAMILIES)]


def _random_f_instance(spec, rng):
    keys = cipher.random_subkeys(spec, int(rng.integers(1 << 31)))
    pair_set = attack.make_pair_set(spec, keys, int(rng.integers(1 << 31)))
    return spec, pair_set


def build_w16_classical(rng, notes):
    paper = _paper_op()
    families = _random_families(16, rng)
    cycles = []
    for c in range(W16_CYCLES):
        cycle = [paper]
        for _ in range(7):
            spec, pair_set = _random_f_instance(
                families[c % RANDOM_FAMILIES], rng)
            cycle.append(_attack_op("random16", spec, pair_set, "classical",
                                    int(rng.integers(1 << 31))))
        cycles.append(cycle)
    return cycles


def build_w12_walksim(rng, notes):
    # one width-8 op per two width-12 ops keeps the median inside the
    # width-12 cluster (~70 ms) instead of on the gap down to width 8 (~6 ms)
    families = {w: _random_families(w, rng) for w in (8, 12)}
    cycles = []
    for c in range(W12_CYCLES):
        family = c % RANDOM_FAMILIES
        if c % 2 == 0:
            first = ("simeck8", *_simeck_instance(8, rng))
        else:
            first = ("random8", *_random_f_instance(families[8][family], rng))
        instances = (
            first,
            ("simeck12", *_screened_simeck12(rng, notes)),
            ("random12", *_random_f_instance(families[12][family], rng)))
        cycles.append([_attack_op(kind, spec, pair_set, "walk-sim",
                                  int(rng.integers(1 << 31)))
                       for kind, spec, pair_set in instances])
    return cycles


# ---------------------------------------------------------------------------
# simulator jobs


def _collapsed_tune_op(n):
    def run():
        params = walk.tune_outer_reps(n, walk.walk_params(n, n))
        sim = walk.CollapsedWalkSim(n, params)
        return params, sim, sim.run()

    def check(out):
        params, sim, prob = out
        if sim.ledger.oracle_queries != walk.ledger_law(params):
            return "collapsed ledger differs from ledger_law", {}
        if sim.norm_drift() > NORM_TOL:
            return f"norm drift {sim.norm_drift():.2e}", {}
        if not 0.0 < prob <= 1.0:
            return f"success probability {prob}", {}
        return None, {}

    return Op(f"collapsed+tune N=2^{n.bit_length() - 1}", run, check)


def _full_walk_op(n, claw_at):
    params = walk.walk_params(n, n)

    def run():
        sim = walk.FullWalkSim(n, params, [claw_at])
        return sim, sim.run(fine=True)

    def check(out):
        sim, p_full = out
        ref = walk.CollapsedWalkSim(n, params)
        p_collapsed = ref.run()
        if abs(p_full - p_collapsed) > WALK_MODE_TOL:
            return (f"full {p_full!r} vs collapsed {p_collapsed!r} at "
                    f"N={n}"), {}
        drift = max(sim.norm_drift(), ref.norm_drift())
        if drift > NORM_TOL:
            return f"norm drift {drift:.2e}", {}
        if sim.ledger.oracle_queries != walk.ledger_law(params):
            return "full-basis ledger differs from ledger_law", {}
        return None, {}

    return Op(f"full-walk N={n}", run, check)


def _grover_op(n, marked):
    def run():
        inst = grover.GroverInstance(n, marked)
        probs, ledger = grover.grover_run_statevector(inst)
        return inst, probs, ledger

    def check(out):
        inst, probs, ledger = out
        got = float(probs[list(inst.marked)].sum())
        want = grover.grover_success_prob(n, len(inst.marked),
                                          inst.iterations)
        if abs(got - want) > GROVER_TOL:
            return f"statevector {got!r} vs closed form {want!r}", {}
        if ledger.oracle_queries != inst.iterations:
            return "grover ledger differs from the iteration count", {}
        return None, {}

    return Op(f"grover N=2^{n.bit_length() - 1}", run, check)


def planted_claw_problem(bits, rng):
    """Single-equation problem with exactly one claw: both sides map
    injectively into disjoint value sets except one shared value."""
    n = 1 << bits
    f_tab = (2 * rng.permutation(n)).astype(np.uint32)
    g_tab = (2 * rng.permutation(n) + 1).astype(np.uint32)
    x1, x2 = (int(v) for v in rng.integers(0, n, size=2))
    g_tab[x2] = f_tab[x1]
    problem = claw.ClawProblem(domain_bits=bits, range_bits=bits + 1,
                               f_family=(lambda x: f_tab[x],),
                               g_family=(lambda x: g_tab[x],))
    return problem, (x1, x2)


# At 12 bits the tuned walk finds the claw with p = 0.0078 per run, so the
# library's default of 400 runs misses it 4.4% of the time (sim-clawwalk
# then exits 2).  4,000 runs miss with p < 1e-13; the runs actually used
# show up in walk.oracle_queries.
WALK_SAMPLE_RETRIES = 4000


def _planted_walk_op(bits, rng):
    problem, planted = planted_claw_problem(bits, rng)
    seed = int(rng.integers(1 << 31))

    def run():
        return walk.claw_walk_sample(problem, seed=seed,
                                     max_retries=WALK_SAMPLE_RETRIES)

    def check(result):
        props = {"claws": len(result.all_claws),
                 "claw_backend": "walk-collapsed"}
        if result.claw != planted:
            return f"sampled claw {result.claw} != planted {planted}", props
        if result.ledger.oracle_queries != \
                result.retries * walk.ledger_law(result.params):
            return "walk ledger differs from retries x ledger_law", props
        if result.norm_drift > NORM_TOL:
            return f"norm drift {result.norm_drift:.2e}", props
        return None, props

    return Op(f"planted-walk {bits} bits", run, check)


def _cli_op(argv, check_text):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        return code, out.getvalue()

    def check(out):
        code, text = out
        if code != 0:
            return f"clawbench {argv[0]} exited {code}", {}
        return check_text(text), {}

    return Op(f"cli {argv[0]}", run, check)


SCALING_EXPS = (6, 16)


def _check_scaling(text):
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    walk_rows = [r for r in rows if r[-1] == "collapsed"]
    if len(walk_rows) != SCALING_EXPS[1] - SCALING_EXPS[0] + 1:
        return f"{len(walk_rows)} collapsed rows in the scaling CSV"
    for r in walk_rows:
        n = int(r[0])
        if int(r[5]) != walk.ledger_law(walk.walk_params(n, n)):
            return f"scaling queries at N={n} differ from ledger_law"
    return None


def _check_selftest(text):
    lines = text.strip().splitlines()
    if len(lines) != 5 or not all(line.startswith("PASS") for line in lines):
        return f"selftest printed {lines}"
    return None


def build_quantum_sims(rng, notes):
    scaling = _cli_op(["scaling", "--min-exp", str(SCALING_EXPS[0]),
                       "--max-exp", str(SCALING_EXPS[1])], _check_scaling)
    selftest = _cli_op(["selftest"], _check_selftest)
    # 20 jobs, by cost: seven light ones (< 20 ms), Grover 2^18 and 2^19,
    # tune 2^12 three times (~48 ms), planted 12 bits, full N=9, tune 2^13,
    # tune 2^14, Grover 2^20, tune 2^16 twice (~0.74 s), full N=10.  The
    # repeated jobs cover ranks 10-12 and 18-19, where p50 and p90 of whole
    # cycles fall, so each quantile is taken inside one job's samples
    # rather than on the step between two different jobs.
    collapsed = [_collapsed_tune_op(1 << u)
                 for u in (12, 12, 12, 13, 14, 16, 16)]
    cycles = []
    for _ in range(QSIM_CYCLES):
        cycle = list(collapsed)
        for n in (8, 9, 10):
            cycle.append(_full_walk_op(n, tuple(
                int(v) for v in rng.integers(0, n, size=2))))
        for u in range(16, 21):
            m = int(rng.integers(1, 5))
            marked = tuple(int(v) for v in
                           rng.choice(1 << u, size=m, replace=False))
            cycle.append(_grover_op(1 << u, marked))
        cycle += [_planted_walk_op(bits, rng) for bits in (8, 10, 12)]
        cycle += [scaling, selftest]
        cycles.append(cycle)
    return cycles


BUILDERS = {
    "w16-classical": build_w16_classical,
    "w12-walksim": build_w12_walksim,
    "quantum-sims": build_quantum_sims,
}


def build(name, seed):
    """(cycles, set-up notes) for a workload and seed."""
    notes = Counter()
    cycles = BUILDERS[name](np.random.default_rng(seed), notes)
    return cycles, dict(notes)
