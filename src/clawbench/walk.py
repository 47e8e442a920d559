"""Subset-walk claw search simulators.

The search walks over size-r subsets S1, S2 of the two disjoint halves of
the combined claw domain, alternating a phase flip (marking states whose
subsets contain the claw) with blocks of walk steps per side.  One walk
step is: diffusion over the pointer z among the out-of-subset elements,
query-insert z into S, diffusion over the enlarged subset, query-remove.
Each step charges two oracle queries; loading the initial subsets charges
r per side.

Two exact simulators are provided:

* FullWalkSim enumerates every basis state (S, z) per side and applies
  the four sub-operators as explicit matrices.  Exponential, guarded.
* CollapsedWalkSim tracks only the three per-side symmetry classes of a
  unique planted claw index j: A (j in S), B (j not in S, z == j),
  C (j not in S, z != j).  The walk dynamics close on class-uniform
  states, so 3x3 per-side matrices in closed form reproduce the full
  simulator exactly; tests cross-validate the two.

All amplitudes stay real throughout (real initial state, real operators),
so states are stored as float64 vectors.
"""

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .claw import CapacityError, ClawProblem, find_claws_exhaustive
from .grover import QueryLedger

FULL_BASIS_GUARD = 10_000_000


class UniqueClawRequired(RuntimeError):
    """Collapsed mode needs exactly one claw; fall back to full or classical."""


@dataclass(frozen=True)
class WalkParams:
    r1: int
    r2: int
    t1: int
    t2: int
    outer_reps: int


def _cube_root_ceil(x):
    return math.ceil(x ** (1 / 3) - 1e-9)


def walk_params(m, n, multiplier=1.0):
    """Subset sizes and repetition counts for side domains of size m and n.

    r1 = r2 = ceil((mn)^(1/3)) in the balanced regime sqrt(n) <= m <= n^2;
    the lopsided regimes pin the small side's subset to its whole domain.
    t_b = ceil((pi/4) sqrt(r_b)); the outer count is ceil of
    multiplier * sqrt(mn / (r1 r2)).
    """
    if m < 2 or n < 2:
        raise ValueError("side domains must have at least 2 elements")
    rc = _cube_root_ceil(m * n)
    if m * m < n:                  # m < sqrt(n)
        r1, r2 = m, max(rc, m)
    elif m > n * n:
        r1, r2 = max(rc, n), n
    else:
        r1 = r2 = rc
    t1 = math.ceil(math.pi / 4 * math.sqrt(r1))
    t2 = math.ceil(math.pi / 4 * math.sqrt(r2))
    outer = math.ceil(multiplier * math.sqrt(m * n / (r1 * r2)))
    return WalkParams(r1=r1, r2=r2, t1=t1, t2=t2, outer_reps=outer)


def ledger_law(params):
    """Exact oracle-query count for one run with the given parameters."""
    return (params.r1 + params.r2
            + params.outer_reps * (params.t1 + params.t2) * 2)


# ---------------------------------------------------------------------------
# full-basis simulator


def _side_operators(n_side, r):
    """The four sub-operators of one walk step as dense matrices.

    Basis: (S, z) with |S| = r, z outside S; the insert step passes
    through the intermediate basis (S', z) with |S'| = r + 1, z in S'.
    Both spaces have dimension C(n,r) (n-r) and the queries are basis
    permutations between them, so every matrix is square.
    """
    basis = []
    for subset in itertools.combinations(range(n_side), r):
        inside = set(subset)
        basis.extend((subset, z) for z in range(n_side) if z not in inside)
    index = {b: i for i, b in enumerate(basis)}

    ibasis = []
    for subset in itertools.combinations(range(n_side), r + 1):
        ibasis.extend((subset, z) for z in subset)
    iindex = {b: i for i, b in enumerate(ibasis)}

    dim = len(basis)
    if len(ibasis) != dim:
        raise AssertionError("insert step must be a bijection")

    diff_out = np.zeros((dim, dim))      # diffusion over z in A - S
    insert = np.zeros((dim, dim))        # query: S -> S + {z}
    diff_in = np.zeros((dim, dim))       # diffusion over z in S'
    remove = np.zeros((dim, dim))        # query: S' -> S' - {z}

    for (subset, z), i in index.items():
        inside = set(subset)
        outside = [x for x in range(n_side) if x not in inside]
        k = len(outside)
        for z2 in outside:
            diff_out[index[(subset, z2)], i] = 2 / k - (1 if z2 == z else 0)
        grown = tuple(sorted(subset + (z,)))
        insert[iindex[(grown, z)], i] = 1

    for (subset, z), i in iindex.items():
        k = len(subset)
        for z2 in subset:
            diff_in[iindex[(subset, z2)], i] = 2 / k - (1 if z2 == z else 0)
        shrunk = tuple(x for x in subset if x != z)
        remove[index[(shrunk, z)], i] = 1

    return basis, (diff_out, insert, diff_in, remove)


class FullWalkSim:
    """Exact joint simulation over every (S1, z1, S2, z2) basis state.

    claw indices are given per side (already reduced to 0..N-1 on the
    g side).  Multiple claws are allowed; the phase flip marks any state
    whose subsets contain at least one claw pair.
    """

    def __init__(self, n_side, params, claws):
        self.n_side = n_side
        self.params = params
        if params.r1 != params.r2:
            raise ValueError("full simulator assumes equal subset sizes")
        r = params.r1
        if not (1 <= r < n_side):
            raise ValueError(f"need 1 <= r < N, got r={r}, N={n_side}")
        dim = math.comb(n_side, r) * (n_side - r)
        if dim * dim > FULL_BASIS_GUARD:
            raise CapacityError(
                f"full walk basis {dim}^2 exceeds guard {FULL_BASIS_GUARD}")
        self.basis, self.sub_ops = _side_operators(n_side, r)
        self.step_op = None
        dimension = len(self.basis)
        self.state = np.full((dimension, dimension), 1 / dimension)
        self.ledger = QueryLedger()
        self.ledger.charge(2 * r)                   # initial subset loads
        self.norm_log = [self.norm()]

        self.mark = np.zeros((dimension, dimension), dtype=bool)
        for j1, j2 in claws:
            in1 = np.fromiter((j1 in set(s) for s, _ in self.basis),
                              bool, dimension)
            in2 = np.fromiter((j2 in set(s) for s, _ in self.basis),
                              bool, dimension)
            self.mark |= np.outer(in1, in2)
        self.claws = list(claws)

    def norm(self):
        return float(np.linalg.norm(self.state))

    def phase_flip(self):
        self.state = np.where(self.mark, -self.state, self.state)
        self.norm_log.append(self.norm())

    def walk_step(self, side, fine=True):
        """One walk step on one side (1 or 2); charges two queries.

        fine=True applies the four sub-operators separately (logging the
        norm after each); fine=False uses the precomposed step matrix.
        """
        if fine:
            for op in self.sub_ops:
                self._apply(side, op)
                self.norm_log.append(self.norm())
        else:
            if self.step_op is None:
                d_out, ins, d_in, rem = self.sub_ops
                self.step_op = rem @ d_in @ ins @ d_out
            self._apply(side, self.step_op)
            self.norm_log.append(self.norm())
        self.ledger.charge(2)

    def _apply(self, side, op):
        if side == 1:
            self.state = op @ self.state
        else:
            self.state = self.state @ op.T

    def run(self, fine=True):
        p = self.params
        for _ in range(p.outer_reps):
            self.phase_flip()
            for _ in range(p.t1):
                self.walk_step(1, fine)
            for _ in range(p.t2):
                self.walk_step(2, fine)
        return self.success_prob()

    def success_prob(self):
        return float((self.state[self.mark] ** 2).sum())

    def norm_drift(self):
        return max(abs(v - 1.0) for v in self.norm_log)

    def sample(self, rng):
        """Measure (S1, z1, S2, z2); returns the pair of subsets."""
        probs = (self.state ** 2).ravel()
        pick = rng.choice(probs.size, p=probs / probs.sum())
        d = len(self.basis)
        s1 = self.basis[pick // d][0]
        s2 = self.basis[pick % d][0]
        return s1, s2


# ---------------------------------------------------------------------------
# collapsed (symmetry-reduced) simulator


def _collapsed_step_matrix(n_side, r):
    """Per-side walk step on the class basis (A, B, C), closed form.

    Derived by summing the full sub-operator entries over class members;
    the insert/remove queries permute classes identically, so the step is
    the product of two reflections: the out-of-subset diffusion mixing
    B and C, and the in-subset diffusion mixing A and B.
    """
    k = n_side - r
    q = k - 1
    d_out = np.eye(3)
    d_out[1, 1] = 2 / k - 1
    d_out[1, 2] = d_out[2, 1] = 2 * math.sqrt(q) / k
    d_out[2, 2] = 2 * q / k - 1
    d_in = np.eye(3)
    d_in[0, 0] = 2 * r / (r + 1) - 1
    d_in[0, 1] = d_in[1, 0] = 2 * math.sqrt(r) / (r + 1)
    d_in[1, 1] = 2 / (r + 1) - 1
    return d_in @ d_out


class CollapsedWalkSim:
    """Exact 9-state simulation for an instance with one planted claw."""

    def __init__(self, n_side, params):
        if params.r1 != params.r2:
            raise ValueError("collapsed simulator assumes equal subset sizes")
        r = params.r1
        if not (1 <= r < n_side):
            raise ValueError(f"need 1 <= r < N, got r={r}, N={n_side}")
        self.n_side = n_side
        self.params = params
        # class weights: |A| / D = r/N, |B| / D = 1/N, |C| / D = (N-r-1)/N
        side = np.sqrt(np.array([r / n_side, 1 / n_side,
                                 (n_side - r - 1) / n_side]))
        self.state = np.outer(side, side)
        self.step = _collapsed_step_matrix(n_side, r)
        self.ledger = QueryLedger()
        self.ledger.charge(2 * r)
        self.norm_log = [self.norm()]

    def norm(self):
        return float(np.linalg.norm(self.state))

    def phase_flip(self):
        self.state[0, 0] = -self.state[0, 0]
        self.norm_log.append(self.norm())

    def walk_step(self, side):
        if side == 1:
            self.state = self.step @ self.state
        else:
            self.state = self.state @ self.step.T
        self.norm_log.append(self.norm())
        self.ledger.charge(2)

    def outer_rep(self):
        """One phase flip followed by t1 and t2 walk steps."""
        self.phase_flip()
        for _ in range(self.params.t1):
            self.walk_step(1)
        for _ in range(self.params.t2):
            self.walk_step(2)

    def run(self):
        for _ in range(self.params.outer_reps):
            self.outer_rep()
        return self.success_prob()

    def success_prob(self):
        return float(self.state[0, 0] ** 2)

    def norm_drift(self):
        return max(abs(v - 1.0) for v in self.norm_log)


# ---------------------------------------------------------------------------
# drivers


@dataclass
class WalkResult:
    success_prob: float
    claw: tuple | None
    ledger: QueryLedger
    params: WalkParams
    mode: str
    norm_drift: float
    retries: int = 0
    all_claws: list = field(default_factory=list)


def tune_outer_reps(n_side, params, max_multiplier=3):
    """Pick the outer repetition count maximizing the collapsed-mode
    success probability within [1, max_multiplier * base].

    The search constant in the outer Theta(.) is unspecified, so the
    cheap 9-state simulation is scanned to choose it: one run records the
    success probability after every repetition, and the first maximum
    wins.  A run of k repetitions applies the same floating-point
    operations as the first k repetitions of a longer one.
    """
    sim = CollapsedWalkSim(n_side, params)
    probs = []
    for _ in range(max_multiplier * params.outer_reps):
        sim.outer_rep()
        probs.append(sim.success_prob())
    best = probs.index(max(probs)) + 1 if probs else params.outer_reps
    return replace(params, outer_reps=best)


def claw_walk_run(problem, params=None, mode="collapsed", claws=None,
                  tune=False):
    """Run the walk on a claw problem; returns a WalkResult with the exact
    success probability (no sampling).

    claws may be passed in (side-local indices) to skip the classical
    uniqueness scan.
    """
    n = problem.n_side
    if params is None:
        params = walk_params(n, n)
    if claws is None:
        claws = find_claws_exhaustive(problem)
    if mode == "collapsed" and len(claws) != 1:
        raise UniqueClawRequired(
            f"collapsed mode needs a unique claw, found {len(claws)}")
    if tune:
        params = tune_outer_reps(n, params)
    if mode == "collapsed":
        sim = CollapsedWalkSim(n, params)
        prob = sim.run()
        return WalkResult(prob, claws[0], sim.ledger, params, mode,
                          sim.norm_drift(), all_claws=list(claws))
    if mode == "full":
        if not claws:
            return WalkResult(0.0, None, QueryLedger(), params, mode, 0.0)
        sim = FullWalkSim(n, params, claws)
        prob = sim.run(fine=(n <= 8))
        return WalkResult(prob, claws[0], sim.ledger, params, mode,
                          sim.norm_drift(), all_claws=list(claws))
    raise ValueError(f"unknown mode {mode!r}")


def claw_walk_sample(problem, seed, mode="collapsed", params=None,
                     max_retries=400, tune=True, claws=None):
    """Sample the walk until the measured subsets contain a claw.

    Returns a WalkResult whose claw is the sampled pair (or None when
    retries are exhausted or no claw exists); the ledger accumulates the
    queries of every attempt.  The sampled claw is classically verified
    against the claw census: claws, the complete claw set in ascending
    (x1, x2) order, when the caller has one (the attack hands over its
    sort-and-match result), else the exhaustive scan's.
    """
    rng = np.random.default_rng(seed)
    all_claws = find_claws_exhaustive(problem) if claws is None else claws
    if not all_claws:
        params = params or walk_params(problem.n_side, problem.n_side)
        return WalkResult(0.0, None, QueryLedger(), params, mode, 0.0,
                          all_claws=[])
    base = claw_walk_run(problem, params, mode, claws=all_claws, tune=tune)
    full_sim = None
    if mode == "full":
        full_sim = FullWalkSim(problem.n_side, base.params, all_claws)
        full_sim.run(fine=False)
    total = QueryLedger()
    for attempt in range(1, max_retries + 1):
        total.charge(base.ledger.oracle_queries)
        if mode == "collapsed":
            hit = rng.random() < base.success_prob
            found = base.claw if hit else None
        else:
            s1, s2 = full_sim.sample(rng)
            found = next(((a, b) for a, b in all_claws
                          if a in s1 and b in s2), None)
        if found is not None and found in all_claws:
            return WalkResult(base.success_prob, found, total, base.params,
                              mode, base.norm_drift, retries=attempt,
                              all_claws=all_claws)
    return WalkResult(base.success_prob, None, total, base.params, mode,
                      base.norm_drift, retries=max_retries,
                      all_claws=all_claws)
