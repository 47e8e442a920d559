"""Query-count scaling of the collapsed subset-walk claw search.

Sweeps side-domain sizes N = 2^6 .. 2^12, prints the per-run oracle
query ledger alongside the classical sorted-search cost, and fits the
log-log slope (the cube-root law lands near 2/3).
"""

import math

import numpy as np

from clawbench.walk import CollapsedWalkSim, ledger_law, walk_params


def main():
    print(f"{'N':>6} {'r':>5} {'t':>3} {'outer':>5} {'queries':>8} "
          f"{'classical':>9} {'success_p':>10}")
    xs, ys = [], []
    for u in range(6, 13):
        n = 1 << u
        params = walk_params(n, n)
        sim = CollapsedWalkSim(n, params)
        prob = sim.run()
        queries = sim.ledger.oracle_queries
        assert queries == ledger_law(params)
        print(f"{n:>6} {params.r1:>5} {params.t1:>3} {params.outer_reps:>5} "
              f"{queries:>8} {2 * n:>9} {prob:>10.5f}")
        xs.append(math.log2(n))
        ys.append(math.log2(queries))
    slope = float(np.polyfit(xs, ys, 1)[0])
    print(f"\nlog-log slope of queries vs N: {slope:.3f} "
          "(cube-root law target ~0.67)")


if __name__ == "__main__":
    main()
