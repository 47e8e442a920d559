"""Grover search: closed-form success law, the expected cost of search with
an unknown number of marked items, and an exact statevector simulator.

The simulator works on the amplitude vector directly: the phase oracle
flips marked amplitudes, and the diffusion about the uniform state is the
rank-1 update 2|phi><phi| - I (never materialized as a matrix).  The
diffusion fixes <phi|, so it leaves the amplitude sum unchanged, while the
oracle changes it by -2 * (sum of the marked amplitudes).  Carrying that
sum, and one scalar for the unmarked amplitudes, which all start equal
and take the same update every iteration, makes a run a recursion over
the M marked amplitudes; the N amplitudes are written once, at the end.
One oracle application is charged to the query ledger per iteration.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .claw import check_capacity

STATEVECTOR_LIMIT = 1 << 20
# amplitude updates one statevector run may make, counting an iteration
# as at least 2^12 of them: below that its Python overhead dominates
STATEVECTOR_WORK_LIMIT = 1 << 30


def _check_counts(n_items, n_marked):
    if n_marked <= 0:
        raise ValueError("no marked element")
    if n_marked > n_items:
        raise ValueError("more marked elements than items")


def _check_marked(marked, n_items):
    """marked as an ascending array, once it is checked to be a nonempty
    1-D sequence of distinct integer indices in [0, N); ascending input
    is checked in one pass."""
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
    return marked


def grover_iterations(n_items, n_marked):
    """Default iteration count floor((pi/4) * sqrt(N/M))."""
    _check_counts(n_items, n_marked)
    return int(math.pi / 4 * math.sqrt(n_items / n_marked))


def grover_success_prob(n_items, n_marked, iterations):
    """Closed form sin^2((2R+1) * asin(sqrt(M/N)))."""
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    _check_counts(n_items, n_marked)
    theta = math.asin(math.sqrt(n_marked / n_items))
    return math.sin((2 * iterations + 1) * theta) ** 2


@functools.cache
def bbht_expected_queries(n_items, n_marked):
    """Expected oracle queries, rounded up, of Boyer-Brassard-Hoyer-Tapp's
    search for one of M marked items among N with M unknown
    (quant-ph/9605034, Theorem 3).

    Round i runs j iterations, j uniform in {0, ..., m-1}, m = ceil(s_i),
    s_1 = 1 and s_(i+1) = min(6/5 * s_i, sqrt(N)), and measures a marked
    item with probability 1/2 - sin(4m theta) / (4m sin(2 theta)),
    sin^2(theta) = M/N (their Lemma 2; exactly M/N at m = 1).  Once s
    reaches sqrt(N) every round is the same, so the tail is geometric and
    summed in closed form.  The schedule never stops when M = 0; that is
    charged ceil(9/2 * sqrt(N)), BBHT's bound at M = 1, where an attacker
    who does not know M gives up.
    """
    if not 0 <= n_marked <= n_items:
        raise ValueError(f"marked count must lie in [0, {n_items}], "
                         f"got {n_marked}")
    root = math.sqrt(n_items)
    if n_marked == 0:
        return math.ceil(4.5 * root)
    theta = math.asin(math.sqrt(n_marked / n_items))
    s, alive, total = 1.0, 1.0, 0.0
    while alive:
        m = math.ceil(s)
        p_hit = (n_marked / n_items if m == 1 else
                 0.5 - math.sin(4 * m * theta) / (4 * m * math.sin(2 * theta)))
        if s == root:
            total += alive * (m - 1) / 2 / p_hit
            break
        total += alive * (m - 1) / 2
        alive *= 1 - p_hit
        s = min(1.2 * s, root)
    return math.ceil(total)


@dataclass
class GroverInstance:
    n_items: int
    marked: tuple                    # marked indices
    iterations: int | None = None    # None -> floor((pi/4) sqrt(N/M))

    def __post_init__(self):
        self.marked = tuple(_check_marked(self.marked, self.n_items).tolist())
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


def check_statevector(n_items, iterations, n_marked):
    """Refuse a statevector run beyond STATEVECTOR_LIMIT amplitudes or
    STATEVECTOR_WORK_LIMIT amplitude updates, before anything runs; an
    iteration updates the M marked amplitudes and the unmarked scalar."""
    check_capacity("statevector amplitudes", n_items, STATEVECTOR_LIMIT)
    check_capacity("statevector amplitude updates",
                   iterations * max(n_marked + 1, 1 << 12),
                   STATEVECTOR_WORK_LIMIT)


def _norm(n_unmarked, unmarked_amp, marked_amp):
    return math.sqrt(n_unmarked * unmarked_amp ** 2
                     + float(marked_amp @ marked_amp))


def grover_run_statevector(inst, norm_log=None):
    """Exact measurement distribution after R iterations.

    Returns (probabilities, ledger); the ledger charges one oracle query
    per iteration.  If norm_log is a list, the state norm is appended
    after every operator application.

    The amplitude sum is carried from the start: each oracle subtracts
    twice the marked amplitudes from it before negating them, and each
    diffusion, which leaves it unchanged, maps a to 2 * sum / N - a (a
    negated marked amplitude -a to the same float as 2 * sum / N + a).
    Every unmarked amplitude starts at 1/sqrt(N) and takes the same
    update a <- 2 * sum / N - a, so one scalar carries them all and the
    loop touches only it and the M marked amplitudes.  Each amplitude
    sees the same floating-point operations in the same order as in a
    sweep over all N per iteration, so the probabilities are
    bit-identical to that sweep; the norms, summed from the scalar and
    the M marked amplitudes, agree with its to rounding.
    """
    n = inst.n_items
    check_statevector(n, inst.iterations, len(inst.marked))
    marked = np.array(inst.marked)
    unmarked_amp = 1 / math.sqrt(n)
    amp = np.full(n, unmarked_amp)
    total = float(amp.sum())
    marked_amp = amp[marked]
    n_unmarked = n - marked.size
    for _ in range(inst.iterations):
        total -= 2 * float(marked_amp.sum())
        if norm_log is not None:
            norm_log.append(_norm(n_unmarked, unmarked_amp, marked_amp))
        shift = 2 * total / n
        unmarked_amp = shift - unmarked_amp
        np.add(marked_amp, shift, out=marked_amp)
        if norm_log is not None:
            norm_log.append(_norm(n_unmarked, unmarked_amp, marked_amp))
    amp.fill(unmarked_amp)
    amp[marked] = marked_amp
    ledger = QueryLedger(oracle_queries=inst.iterations)
    return np.square(amp, out=amp), ledger


def marked_probability(inst):
    probs, ledger = grover_run_statevector(inst)
    return float(probs[list(inst.marked)].sum()), ledger


def grover_sample(predicate, n_items, seed, iterations=None, marked=None):
    """Run Grover on a predicate oracle and sample one measurement outcome.

    The measurement law is the closed form, exact for any number M of
    marked items (Boyer-Brassard-Hoyer-Tapp, quant-ph/9605034): after R
    iterations the marked set has probability p_hit = sin^2((2R+1)theta),
    with sin^2(theta) = M/N, and within the marked and the unmarked set
    every item is equally likely.  The draw follows that statement: hit
    with probability p_hit, then one uniform index within the set, in
    O(log M).  grover_run_statevector is the reference it is tested
    against.  When marked is not given it is collected by a classical
    predicate scan; the ledger counts only the R oracle queries, and a
    caller that swept the predicate classically charges that sweep
    itself.  marked is any 1-D sequence of distinct indices in [0, N).

    Returns (index, ledger).  The caller verifies the sample classically.
    """
    rng = np.random.default_rng(seed)
    if marked is None:
        marked = [x for x in range(n_items) if predicate(x)]
    marked = _check_marked(marked, n_items)
    m = marked.size
    if iterations is None:
        iterations = grover_iterations(n_items, m)
    p_hit = grover_success_prob(n_items, m, iterations)
    if m == n_items or rng.random() < p_hit:
        idx = marked[rng.integers(m)]
    else:
        # the k-th unmarked index: k plus the marked indices below it
        k = rng.integers(n_items - m)
        idx = k + (marked - np.arange(m)).searchsorted(k, side="right")
    return int(idx), QueryLedger(oracle_queries=iterations)
