"""The paper's round-1 matching predicate, taken literally.

Peeled to the round-2 output with the true (K4, K5, K6), the pair-1/pair-p
difference of the reconstructed round-2 left states is equal for every K3
guess on rule-constrained pairs, so the F_2 difference term cancels and
the verdict does not depend on K3.  The attack never runs this predicate;
it is kept here to demonstrate exactly that degeneracy.
"""

import numpy as np

from clawbench.attack import _peel_terms


def k3_check_paper(k3, k4, k5, k6, pair_set, pair_idx, spec):
    """Round-1 matching of pairs 1 and pair_idx under the K3 guess k3."""
    if pair_idx not in (2, 3):
        raise ValueError("pair_idx must be 2 or 3")
    (l1, e1), (lp, ep) = (_peel_terms(pair_set.pairs[i][1], (k4, k5, k6),
                                      spec)
                          for i in (0, pair_idx - 1))
    diff = l1 ^ lp ^ spec.round_f(2, e1 ^ k3) ^ spec.round_f(2, ep ^ k3)
    l1_diff = pair_set.pairs[0][0][0] ^ pair_set.pairs[pair_idx - 1][0][0]
    return bool(np.all(diff == l1_diff))
