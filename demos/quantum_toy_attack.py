"""End-to-end quantum-simulated attack at toy scale (8-bit words).

Uses the collapsed subset-walk simulator for the claw stage (falling
back to the classical sorted search when the instance's claw is not
unique); the later key stages take their candidates from the classical
sweeps and are charged BBHT's expected Grover query count for their
survivor counts.  Cross-checks against the exhaustive classical pipeline.
"""

import argparse

from clawbench.attack import make_pair_set, run_asr_attack
from clawbench.cipher import FeistelSpec, random_subkeys
from clawbench.words import word_to_hex


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=27,
                    help="instance seed (27 has a unique claw, so the walk "
                         "stage actually runs)")
    args = ap.parse_args()

    spec = FeistelSpec(word_width=8)
    keys = random_subkeys(spec, args.seed)
    pair_set = make_pair_set(spec, keys, args.seed)
    print("hidden subkeys:", " ".join(word_to_hex(k, 8) for k in keys))

    quantum, stats, stages = run_asr_attack(pair_set, spec,
                                            backends="walk-sim",
                                            seed=args.seed)
    classical, _, _ = run_asr_attack(pair_set, spec, backends="exhaustive",
                                     seed=args.seed)

    print("\nstage backends:",
          ", ".join(f"{s['name']}={s['backend']}" for s in stages))
    print("walk oracle queries:", stats.claw_queries)
    if stats.walk_success_prob is not None:
        print(f"walk per-run success probability: "
              f"{stats.walk_success_prob:.4f}")
    print("grover queries per stage:", stats.grover_queries)

    print("\nquantum-sim subkeys:",
          " ".join(word_to_hex(k, 8) for k in quantum.subkeys))
    print("exhaustive subkeys: ",
          " ".join(word_to_hex(k, 8) for k in classical.subkeys))
    print("backends agree:", quantum.subkeys == classical.subkeys)


if __name__ == "__main__":
    main()
