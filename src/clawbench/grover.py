"""Grover search: closed-form success law and an exact statevector simulator.

The simulator works on the amplitude vector directly: the phase oracle
flips marked amplitudes, and the diffusion about the uniform state is the
rank-1 update 2|phi><phi| - I (never materialized as a matrix).  The
diffusion fixes <phi|, so it leaves the amplitude sum unchanged, while the
oracle changes it by -2 * (sum of the marked amplitudes).  The simulator
carries that sum through the oracle, so each iteration is one in-place
pass over the N amplitudes.  One oracle application is charged to the
query ledger per iteration.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .claw import CapacityError

STATEVECTOR_LIMIT = 1 << 20
# amplitude updates one statevector run may make, counting an iteration
# as at least 2^12 of them: below that its Python overhead dominates
STATEVECTOR_WORK_LIMIT = 1 << 30


def grover_iterations(n_items, n_marked):
    """Default iteration count floor((pi/4) * sqrt(N/M))."""
    if n_marked <= 0:
        raise ValueError("no marked element")
    if n_marked > n_items:
        raise ValueError("more marked elements than items")
    return int(math.pi / 4 * math.sqrt(n_items / n_marked))


def grover_success_prob(n_items, n_marked, iterations):
    """Closed form sin^2((2R+1) * asin(sqrt(M/N)))."""
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    if n_marked <= 0:
        raise ValueError("no marked element")
    if n_marked > n_items:
        raise ValueError("more marked elements than items")
    theta = math.asin(math.sqrt(n_marked / n_items))
    return math.sin((2 * iterations + 1) * theta) ** 2


@dataclass
class GroverInstance:
    n_items: int
    marked: tuple                    # marked indices
    iterations: int | None = None    # None -> floor((pi/4) sqrt(N/M))

    def __post_init__(self):
        self.marked = tuple(sorted(self.marked))
        if any(x == y for x, y in zip(self.marked, self.marked[1:])):
            raise ValueError("marked indices must be distinct")
        if self.marked and (self.marked[0] < 0
                            or self.marked[-1] >= self.n_items):
            raise ValueError(
                f"marked indices must lie in [0, {self.n_items})")
        if self.iterations is None:
            self.iterations = grover_iterations(self.n_items, len(self.marked))
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")


@dataclass
class QueryLedger:
    oracle_queries: int = 0

    def charge(self, n=1):
        if n < 0:
            raise ValueError("ledger is monotone nondecreasing")
        self.oracle_queries += n


def check_statevector(n_items, iterations):
    """Refuse a statevector run beyond STATEVECTOR_LIMIT amplitudes or
    STATEVECTOR_WORK_LIMIT amplitude updates, before anything runs."""
    if n_items > STATEVECTOR_LIMIT:
        raise CapacityError(
            f"statevector refused for N={n_items} > {STATEVECTOR_LIMIT}")
    if iterations * max(n_items, 1 << 12) > STATEVECTOR_WORK_LIMIT:
        raise CapacityError(
            f"statevector refused for {iterations} iterations at "
            f"N={n_items}: over {STATEVECTOR_WORK_LIMIT} amplitude updates")


def grover_run_statevector(inst, norm_log=None):
    """Exact measurement distribution after R iterations.

    Returns (probabilities, ledger); the ledger charges one oracle query
    per iteration.  If norm_log is a list, the state norm is appended
    after every operator application.

    The amplitude sum is carried from the start: the oracle subtracts
    twice the marked amplitudes from it (O(M)) before negating them, and
    the diffusion, which leaves the sum unchanged, is then the single
    in-place pass amp <- 2 * sum / N - amp.
    """
    n = inst.n_items
    check_statevector(n, inst.iterations)
    if not inst.marked:
        raise ValueError("no marked element")
    marked = np.array(inst.marked)
    amp = np.full(n, 1 / math.sqrt(n))
    total = amp.sum()
    ledger = QueryLedger()
    for _ in range(inst.iterations):
        total -= 2 * amp[marked].sum()
        amp[marked] = -amp[marked]
        ledger.charge(1)
        if norm_log is not None:
            norm_log.append(float(np.linalg.norm(amp)))
        np.subtract(2 * total / n, amp, out=amp)
        if norm_log is not None:
            norm_log.append(float(np.linalg.norm(amp)))
    return amp ** 2, ledger


def marked_probability(inst):
    probs, ledger = grover_run_statevector(inst)
    return float(probs[list(inst.marked)].sum()), ledger


def grover_sample(predicate, n_items, seed, iterations=None, marked=None):
    """Run Grover on a predicate oracle and sample one measurement outcome.

    The measurement law is the closed form, exact for any number M of
    marked items (Boyer-Brassard-Hoyer-Tapp, quant-ph/9605034): after R
    iterations each marked item has probability sin^2((2R+1)theta) / M
    and each other item the rest over N - M, with sin^2(theta) = M/N.
    grover_run_statevector is the reference it is tested against.  When
    marked is not given it is collected by a classical predicate scan;
    the ledger counts only the R oracle queries, and a caller that swept
    the predicate classically charges that sweep itself.  marked is any
    1-D sequence of distinct indices in [0, N); ascending input is checked
    in one pass.

    The draw is exact: seed for seed, the index that
    default_rng(seed).choice(N, p=law) returns.  choice takes one uniform
    double u and returns the first entry of its CDF, a sequential cumsum
    of the law divided by its last entry, above u.  Rounding puts each
    entry within about (N + 1) eps of its exact value, and the closed-form
    boundaries within a few eps, so _closed_form_index locates u among
    those in O(M) time and memory and hands a u within delta =
    4 (N + 16) eps of one to choice's own steps (_cdf_index).  Only that
    fallback takes the O(N) time and memory that choice spends on every
    draw.

    Returns (index, ledger).  The caller verifies the sample classically.
    """
    rng = np.random.default_rng(seed)
    if marked is None:
        marked = [x for x in range(n_items) if predicate(x)]
    marked = np.asarray(marked)
    if not marked.size:
        raise ValueError("no marked element")
    if marked.ndim != 1 or not np.issubdtype(marked.dtype, np.integer):
        raise ValueError("marked must be a 1-D array of integer indices")
    if np.any(marked[1:] <= marked[:-1]):
        marked = np.sort(marked)
        if np.any(marked[1:] == marked[:-1]):
            raise ValueError("marked indices must be distinct")
    if marked[0] < 0 or marked[-1] >= n_items:
        raise ValueError(f"marked indices must lie in [0, {n_items})")
    m = marked.size
    if iterations is None:
        iterations = grover_iterations(n_items, m)
    p_hit = grover_success_prob(n_items, m, iterations)
    return (_closed_form_index(rng.random(), marked, n_items, p_hit),
            QueryLedger(oracle_queries=iterations))


def _cdf_index(u, marked, n_items, p_hit):
    """The O(N) draw: what rng.choice(N, p=law) does with its uniform u
    (normalised cumsum, then searchsorted to the right)."""
    probs = np.full(n_items, (1 - p_hit) / max(n_items - marked.size, 1))
    probs[marked] = p_hit / marked.size
    return int(choice_cdf(probs).searchsorted(u, side="right"))


def choice_cdf(weights):
    """The CDF rng.choice(weights.size, p=weights / weights.sum()) draws
    from, built in place in the float64 array weights: choice's uniform u
    picks index cdf.searchsorted(u, side="right")."""
    weights /= weights.sum()
    cdf = np.cumsum(weights, out=weights)
    cdf /= cdf[-1]
    return cdf


def _closed_form_index(u, marked, n_items, p_hit):
    """_cdf_index(u, ...) in O(M), for ascending distinct marked indices.

    With a and b the normalised unmarked and marked probabilities, marked
    item j (index m_j) owns [lo_j, lo_j + b), lo_j = m_j a + j (b - a),
    and each unmarked item after it the next step of a.  u must lie delta
    inside its interval, or the O(N) path decides.
    """
    m = marked.size
    a = (1 - p_hit) / max(n_items - m, 1)
    b = p_hit / m
    total = (n_items - m) * a + m * b
    a, b = a / total, b / total
    delta = 4 * (n_items + 16) * sys.float_info.epsilon
    lo = marked * a + np.arange(m) * (b - a)
    j = int(lo.searchsorted(u, side="right"))
    if j and u < lo[j - 1] + b:
        idx, left, right = int(marked[j - 1]), lo[j - 1], lo[j - 1] + b
    else:
        # the unmarked run after marked item j - 1; no step narrower than
        # 2 delta clears the margin (and a may be 0).  A k past the run's
        # end puts left at or beyond lo_j (or 1 after the last marked
        # item), above u, so the margin test below catches it.
        if a < 2 * delta:
            return _cdf_index(u, marked, n_items, p_hit)
        start = int(marked[j - 1]) + 1 if j else 0
        edge = lo[j - 1] + b if j else 0.0
        k = int((u - edge) / a)
        idx, left, right = start + k, edge + k * a, edge + (k + 1) * a
    if u - left < delta or right - u < delta:
        return _cdf_index(u, marked, n_items, p_hit)
    return idx
