"""clawbench: all-subkeys-recovery attacks on 6-round Feistel-2* ciphers,
with classical claw finding and desk-scale Grover / subset-walk simulators."""

from .cipher import (FeistelSpec, feistel_decrypt, feistel_encrypt,
                     partial_decrypt, simeck_f, simeck_key_schedule)
from .claw import (CapacityError, ClawProblem, concat_multi,
                   find_claws_exhaustive, find_claws_sorted)
from .attack import (AttackError, ChosenPairSet, QueryStats, RecoveredKeys,
                     build_claw_problem, diff_f, diff_g, k1k3_constant,
                     k3_check_paper, make_chosen_plaintext, make_pair_set,
                     resolve_k1_k2_k3, run_asr_attack)
from .grover import (GroverInstance, QueryLedger, grover_iterations,
                     grover_run_statevector, grover_sample,
                     grover_success_prob)
from .walk import (CollapsedWalkSim, FullWalkSim, UniqueClawRequired,
                   WalkParams, claw_walk_sample, walk_params)
from .words import block_to_hex, hex_to_block, hex_to_word, rotl, word_to_hex

__version__ = "0.1.0"
