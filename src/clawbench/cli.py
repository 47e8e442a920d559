"""Command-line surface.

Exit codes: 0 success, 2 failed verification (a sim-clawwalk census
other than its planted claw included), 3 input error (a command line that
does not parse, a malformed pair set and an --out path that cannot be
opened included), 4 capacity guard refusal before anything is allocated:
--rounds above 4096, scaling's walk steps, full-basis walk amplitudes,
census bits, Grover statevector items or updates.  sim-clawwalk runs the
tuned walk that the attack's walk backends run.  All runs are
reproducible from their flags; reports are byte-identical for identical
configurations.
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import vectors
from .attack import (AttackError, BACKEND_PRESETS, ChosenPairSet, PairSetError,
                     attack_report, make_pair_set, run_asr_attack)
from .cipher import (FeistelSpec, feistel_decrypt, feistel_encrypt,
                     key_schedule_report, random_subkeys,
                     simeck_key_schedule)
from .claw import (CapacityError, ClawProblem, check_exhaustive_bits,
                   find_claws_exhaustive)
from .grover import (GroverInstance, grover_success_prob, marked_probability)
from .walk import (CollapsedWalkSim, FullWalkSim, check_walk_steps,
                   ledger_law, run_walk, walk_expected_queries, walk_params)
from .words import block_to_hex, hex_to_block, hex_to_word, word_to_hex

EXIT_OK = 0
EXIT_VERIFICATION = 2
EXIT_INPUT = 3
EXIT_CAPACITY = 4


class CliInputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Exits EXIT_INPUT on a usage error, where argparse would exit 2."""
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _parse_master(text, width):
    digits = (width + 3) // 4
    if len(text) != 4 * digits:
        raise CliInputError(f"master key must be {4 * digits} hex digits")
    return tuple(hex_to_word(text[i * digits:(i + 1) * digits], width)
                 for i in range(4))


def _subkeys_from_args(args, spec):
    if args.master is not None:
        master = _parse_master(args.master, spec.word_width)
        return simeck_key_schedule(master, spec.rounds, spec, args.z_variant)
    keys = tuple(hex_to_word(t, spec.word_width)
                 for t in args.subkeys.split(","))
    if len(keys) != spec.rounds:
        raise CliInputError(f"need {spec.rounds} subkeys")
    return keys


def _write(args, text):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(args, payload):
    _write(args, json.dumps(payload, indent=2, sort_keys=True))


def cmd_cipher(args):
    spec = FeistelSpec(word_width=args.width, rounds=args.rounds)
    keys = _subkeys_from_args(args, spec)
    block = hex_to_block(args.block, spec.word_width)
    fn = feistel_encrypt if args.direction == "enc" else feistel_decrypt
    print(block_to_hex(fn(block, keys, spec), spec.word_width))
    return EXIT_OK


def cmd_keyschedule(args):
    spec = FeistelSpec(word_width=args.width, rounds=args.rounds)
    master = _parse_master(args.master, args.width)
    _emit(args, key_schedule_report(master, args.rounds, spec, args.z_variant))
    return EXIT_OK


def _load_pairs_file(path, width):
    try:
        with open(path) as fh:
            data = json.load(fh)
        pairs = tuple(
            (hex_to_block(p["plaintext"], width),
             hex_to_block(p["ciphertext"], width))
            for p in data["pairs"])
        extra = None
        if data.get("extra_pair"):
            e = data["extra_pair"]
            extra = (hex_to_block(e["plaintext"], width),
                     hex_to_block(e["ciphertext"], width))
        constant = hex_to_word(data["constant_c"], width)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliInputError(f"malformed pair file: {exc}") from None
    return ChosenPairSet(constant, pairs, extra)


def cmd_attack(args):
    spec = FeistelSpec(word_width=args.width, rounds=6)
    notes = []
    if args.vectors == "paper":
        if args.width != 16:
            raise CliInputError("--vectors paper requires --width 16")
        pairs = tuple(zip(vectors.PLAINTEXTS, vectors.CIPHERTEXTS))
        pair_set = ChosenPairSet(vectors.CONSTANT_C, pairs, vectors.EXTRA_PAIR)
        notes = [dict(t) for t in vectors.KNOWN_TYPOS]
    elif args.pairs:
        pair_set = _load_pairs_file(args.pairs, args.width)
    else:
        seed = args.random_seed or 0
        pair_set = make_pair_set(spec, random_subkeys(spec, seed), seed)
    if args.extra_pair is False:
        pair_set = dataclasses.replace(pair_set, extra_pair=None)
    elif args.extra_pair and pair_set.extra_pair is None:
        raise CliInputError("--extra-pair: the pair file has no extra pair")
    try:
        recovered, stats, stages = run_asr_attack(pair_set, spec,
                                                  backends=args.backend)
    except PairSetError as exc:
        raise CliInputError(f"malformed pair set: {exc}") from None
    except AttackError as exc:
        print(f"attack failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    report = attack_report(pair_set, spec, recovered, stats, stages,
                           args.backend)
    if notes:
        report["vector_notes"] = notes
    _emit(args, report)
    return EXIT_OK if report["verified"] else EXIT_VERIFICATION


def cmd_sim_grover(args):
    marked = tuple(int(t, 0) for t in args.marked.split(","))
    inst = GroverInstance(args.items, marked, args.iterations)
    prob, ledger = marked_probability(inst)
    _emit(args, {
        "items": args.items,
        "marked": list(inst.marked),
        "iterations": inst.iterations,
        "oracle_queries": ledger.oracle_queries,
        "success_prob_statevector": prob,
        "success_prob_closed_form":
            grover_success_prob(args.items, len(inst.marked), inst.iterations),
    })
    return EXIT_OK


def planted_claw_problem(bits, seed):
    """Random single-equation problem with exactly one claw: both sides are
    injections into disjoint value sets except for one shared value."""
    rng = np.random.default_rng(seed)
    n = 1 << bits
    f_tab = (2 * rng.permutation(n)).astype(np.uint32)        # even values
    g_tab = (2 * rng.permutation(n) + 1).astype(np.uint32)    # odd values
    x1, x2 = rng.integers(0, n, size=2)
    g_tab[x2] = f_tab[x1]
    return ClawProblem(domain_bits=bits, range_bits=bits + 1,
                       f_family=(lambda x: f_tab[x],),
                       g_family=(lambda x: g_tab[x],)), (int(x1), int(x2))


def cmd_sim_clawwalk(args):
    # the claw census is the exhaustive scan: refuse before the
    # 2^bits-entry tables are built
    check_exhaustive_bits(args.bits)
    problem, planted = planted_claw_problem(args.bits, args.seed)
    n = problem.n_side
    sim = run_walk(n, walk_params(n, n), [planted], args.mode)
    prob = sim.success_prob()
    _emit(args, {
        "bits": args.bits,
        "mode": args.mode,
        "params": dataclasses.asdict(sim.params),
        "planted_claw": list(planted),
        "success_prob": prob,
        "oracle_queries": sim.ledger.oracle_queries,
        "expected_queries": walk_expected_queries(sim.params, prob),
        "norm_drift": sim.norm_drift(),
    })
    return (EXIT_OK if find_claws_exhaustive(problem) == [planted]
            else EXIT_VERIFICATION)


def cmd_scaling(args):
    if args.min_exp > args.max_exp:
        raise CliInputError("--min-exp exceeds --max-exp: empty sweep")
    # refuse before the first run
    runs = []
    for u in range(args.min_exp, args.max_exp + 1):
        n = 1 << u
        params = walk_params(n, n)
        check_walk_steps(params)
        runs.append((n, params))
    rows = ["N,r,t1,t2,outer_reps,queries,success_prob,mode"]
    for n, params in runs:
        sim = CollapsedWalkSim(n, params)
        prob = sim.run()
        queries = sim.ledger.oracle_queries
        assert queries == ledger_law(params)
        rows.append(f"{n},{params.r},{params.t1},{params.t2},"
                    f"{params.outer_reps},{queries},{prob:.6g},collapsed")
        rows.append(f"{n},,,,,{2 * n},1,classical-sorted")
    _write(args, "\n".join(rows))
    return EXIT_OK


def cmd_selftest(args):
    failures = 0

    def check(name, ok):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1

    spec = vectors.SPEC
    keys = simeck_key_schedule(vectors.MASTER_KEY, 6, spec)
    check("key schedule reproduces reference subkeys", keys == vectors.SUBKEYS)
    cts = tuple(feistel_encrypt(pt, keys, spec) for pt in vectors.PLAINTEXTS)
    check("reference plaintexts encrypt to derived ciphertexts",
          cts == vectors.CIPHERTEXTS)
    rt = all(feistel_decrypt(ct, keys, spec) == pt
             for pt, ct in zip(vectors.PLAINTEXTS, cts))
    check("decrypt inverts encrypt on reference vectors", rt)
    inst = GroverInstance(4, (2,), 1)
    prob, _ = marked_probability(inst)
    check("grover N=4 M=1 R=1 is exact", abs(prob - 1.0) < 1e-12)
    _, claw = planted_claw_problem(3, seed=1)
    params = walk_params(8, 8)
    pc = CollapsedWalkSim(8, params).run()
    pf = FullWalkSim(8, params, [claw]).run()
    check("walk full vs collapsed agree (N=8)", abs(pc - pf) < 1e-10)
    return EXIT_OK if failures == 0 else EXIT_VERIFICATION


def build_parser():
    top = _Parser(prog="clawbench", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cipher", help="encrypt or decrypt one block")
    p.add_argument("direction", choices=["enc", "dec"])
    p.add_argument("--block", required=True, help="hex halves 'L|R'")
    keys = p.add_mutually_exclusive_group(required=True)
    keys.add_argument("--master", help="4-word master key, concatenated hex")
    keys.add_argument("--subkeys", help="comma-separated round keys, hex")
    p.add_argument("--width", type=int, default=16)
    p.add_argument("--rounds", type=int, default=6)
    p.add_argument("--z-variant", choices=["example", "standard"],
                   default="example")
    p.set_defaults(fn=cmd_cipher)

    p = sub.add_parser("keyschedule", help="expand a master key")
    p.add_argument("--master", required=True)
    p.add_argument("--rounds", type=int, default=6)
    p.add_argument("--width", type=int, default=16)
    p.add_argument("--z-variant", choices=["example", "standard"],
                   default="example")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_keyschedule)

    p = sub.add_parser("attack", help="run the all-subkeys-recovery attack")
    p.add_argument("action", choices=["run"])
    p.add_argument("--width", type=int, default=16)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--vectors", choices=["paper"],
                        help="use the bundled reference worked example")
    source.add_argument("--pairs", help="JSON pair file")
    # no default 0: argparse misses a conflict whose value is the default
    source.add_argument("--random-seed", type=int,
                        help="generate an instance from a hidden key")
    p.add_argument("--backend", choices=sorted(BACKEND_PRESETS),
                   default="classical")
    p.add_argument("--extra-pair", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="include one non-rule pair for unique K1 resolution")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_attack)

    p = sub.add_parser("sim-grover", help="exact Grover statevector run")
    p.add_argument("--items", type=int, required=True)
    p.add_argument("--marked", required=True, help="comma-separated indices")
    p.add_argument("--iterations", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_sim_grover)

    p = sub.add_parser("sim-clawwalk", help="subset-walk claw search on a "
                       "random planted instance")
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--mode", choices=["collapsed", "full"],
                   default="collapsed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_sim_clawwalk)

    p = sub.add_parser("scaling", help="query-count scaling sweep (CSV)")
    p.add_argument("--min-exp", type=int, default=6)
    p.add_argument("--max-exp", type=int, default=12)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_scaling)

    p = sub.add_parser("selftest", help="quick end-to-end sanity checks")
    p.set_defaults(fn=cmd_selftest)
    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliInputError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapacityError as exc:
        print(f"capacity guard: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
