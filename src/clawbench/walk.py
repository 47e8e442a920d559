"""Subset-walk claw search simulators.

The search walks over size-r subsets S1, S2 of the two disjoint halves of
the combined claw domain, alternating a phase flip (marking states whose
subsets contain the claw) with blocks of walk steps per side.  One walk
step is: diffusion over the pointer z among the out-of-subset elements,
query-insert z into S, diffusion over the enlarged subset, query-remove.
Each step charges two oracle queries; loading the initial subsets charges
r per side.

Two exact simulators are provided:

* FullWalkSim enumerates every basis state (S, z) per side.  Ordered by
  S and then z, the two diffusions are reflections about the mean of
  consecutive groups and the two queries are index permutations, so a
  step costs O(dim^2) on the dim x dim state.  The side being stepped is
  kept on axis 0, so its groups and gathers are contiguous rows, and a
  side switch is one transposing copy.  A diffusion sums its groups in
  one reduction, and the phase flip negates the stored array through the
  mark in the same layout.  Both work in place, and each query and each
  switch is one new state, so a run holds about two states at its peak.
  The basis and the two query gathers are built once per (N, r) and
  shared.  Exponential, guarded.
* CollapsedWalkSim tracks only the three per-side symmetry classes of a
  unique planted claw index j: A (j in S), B (j not in S, z == j),
  C (j not in S, z != j).  The walk dynamics close on class-uniform
  states, so 3x3 per-side matrices in closed form reproduce the full
  simulator exactly; tests cross-validate the two.  A side's t steps are
  the t-th power of its step matrix, so a collapsed run logs one norm
  per outer repetition.

Neither simulator measures: run_walk runs one walk, and
walk_expected_queries is its expected cost to a first claw.

All amplitudes stay real throughout (real initial state, real operators),
so states are stored as float64 vectors.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .claw import CapacityError, check_capacity, find_claws_exhaustive
from .grover import QueryLedger

FULL_BASIS_GUARD = 10_000_000
WALK_STEP_GUARD = 1 << 20
# outer repetitions tuning scans, as a multiple of walk_params' count
TUNING_SCAN = 3


class UniqueClawRequired(RuntimeError):
    """Collapsed mode, and claw_walk_sample in either mode, needs one claw."""


@dataclass(frozen=True)
class WalkParams:
    r: int
    t1: int
    t2: int
    outer_reps: int


def _cube_root_ceil(x):
    return math.ceil(x ** (1 / 3) - 1e-9)


def walk_params(m, n, multiplier=1.0):
    """Subset size and repetition counts for two side domains of size m = n.

    The two sides of the paper's claw are both 2^w-key domains, so the
    walk runs only in Tani's balanced regime, one subset size per side:
    r = ceil((mn)^(1/3)) and t1 = t2 = ceil((pi/4) sqrt(r)); the outer
    count is ceil of multiplier * sqrt(mn / r^2).  Raises ValueError for
    m != n, for m < 4 (r < N holds exactly from N = 4) or a multiplier
    that is not positive and finite, CapacityError when a value overflows
    a float.
    """
    if m != n:
        raise ValueError(f"side domains must have equal size, got {m}, {n}")
    if m < 4:
        raise ValueError("side domains must have at least 4 elements")
    if not 0 < multiplier < math.inf:
        raise ValueError("multiplier must be positive and finite, "
                         f"got {multiplier}")
    try:
        r = _cube_root_ceil(m * n)
        t = math.ceil(math.pi / 4 * math.sqrt(r))
        outer = math.ceil(multiplier * math.sqrt(m * n / (r * r)))
    except OverflowError:
        raise CapacityError(f"walk parameters for N=2^{math.log2(m):.1f} "
                            f"and multiplier {multiplier} overflow a float"
                            ) from None
    return WalkParams(r=r, t1=t, t2=t, outer_reps=outer)


def ledger_law(params):
    """Exact oracle-query count for one run with the given parameters."""
    return 2 * params.r + params.outer_reps * (params.t1 + params.t2) * 2


def check_walk_steps(params):
    """Refuse a run of more walk steps than the guard, outer_reps * (t1 +
    t2) of them: the steps set the query count, while a collapsed run
    logs only one norm per outer repetition."""
    check_capacity("walk steps", params.outer_reps * (params.t1 + params.t2),
                   WALK_STEP_GUARD)


class _WalkSim:
    """What both simulators share: the subset-size check, the query ledger
    with the 2r initial subset loads, and the norm log."""

    def __init__(self, n_side, params):
        if not 1 <= params.r < n_side:
            raise ValueError(f"need 1 <= r < N, got r={params.r}, "
                             f"N={n_side}")
        self.n_side = n_side
        self.params = params
        self.ledger = QueryLedger()
        self.ledger.charge(2 * params.r)            # initial subset loads

    def _start(self, state):
        self.state = state
        self.norm_log = [self.norm()]

    def norm(self):
        return float(np.linalg.norm(self.state))

    def norm_drift(self):
        return max(abs(v - 1.0) for v in self.norm_log)


# ---------------------------------------------------------------------------
# full-basis simulator


def check_full_basis(n_side, r):
    """Refuse a full-basis state of dim x dim amplitudes beyond the guard,
    dim = C(N, r) (N - r)."""
    dim = math.comb(n_side, r) * (n_side - r)
    check_capacity("full walk amplitudes", dim * dim, FULL_BASIS_GUARD)


@functools.cache
def _side_operators(n_side, r):
    """One side's basis and the two queries of a walk step as gathers,
    built once per (N, r) and shared: the basis is a tuple and the two
    gathers are read-only.

    Basis: (S, z) with |S| = r, z outside S, ordered by S and then z.
    The intermediate basis (S', z) with |S'| = r + 1, z in S', is ordered
    the same way and has the same size C(N, r) (N - r).  Returns
    (basis, insert, remove): gathering with insert maps the state into
    the intermediate basis, (S, z) -> (S + {z}, z), and remove maps it
    back, (S', z) -> (S' - {z}, z), so the two are inverse permutations.
    """
    basis = tuple((s, z) for s in itertools.combinations(range(n_side), r)
                  for z in range(n_side) if z not in s)
    index = {b: i for i, b in enumerate(basis)}
    insert = np.array([index[tuple(x for x in s if x != z), z]
                       for s in itertools.combinations(range(n_side), r + 1)
                       for z in s])
    remove = np.argsort(insert)
    insert.flags.writeable = remove.flags.writeable = False
    return basis, insert, remove


def _reflect(state, k):
    """Diffusion 2 mean - x over consecutive groups of k rows, in place:
    the reflection about the uniform superposition of each group.

    state must be 2-D and C-contiguous, so the grouped reshape is a view
    whose group axis is not the innermost.  numpy reduces such an axis by
    adding whole rows one after another (pairwise summation applies only
    along the innermost axis), so the one np.add.reduce keeps the
    sequential order for every k and the result is bit-identical to
    2 * mean - groups.  (The reduction starts from +0.0, so a group of
    -0.0 sums to +0.0; its reflected entries are +0.0 either way.)  The
    one temporary is the group means, 1/k of the state.
    """
    groups = state.reshape(-1, k, state.shape[1])
    twice_mean = np.add.reduce(groups, axis=1)
    twice_mean /= k
    twice_mean *= 2
    np.subtract(twice_mean[:, None], groups, out=groups)


class FullWalkSim(_WalkSim):
    """Exact joint simulation over every (S1, z1, S2, z2) basis state.

    claw indices are given per side (already reduced to 0..N-1 on the
    g side).  Multiple claws are allowed; the phase flip marks any state
    whose subsets contain at least one claw pair.
    """

    _rows = 1       # the side on axis 0 of the stored amplitudes

    @property
    def state(self):
        """The dim x dim amplitudes, side 1 on axis 0: the stored array,
        or its transposed view while side 2 is on axis 0."""
        return self._amps if self._rows == 1 else self._amps.T

    @state.setter
    def state(self, amps):
        self._amps, self._rows = amps, 1

    def __init__(self, n_side, params, claws):
        super().__init__(n_side, params)
        r = params.r
        check_full_basis(n_side, r)
        self.basis, self.insert, self.remove = _side_operators(n_side, r)
        dimension = len(self.basis)
        self._start(np.full((dimension, dimension), 1 / dimension))

        self.mark = np.zeros((dimension, dimension), dtype=bool)
        for j1, j2 in claws:
            in1 = np.fromiter((j1 in s for s, _ in self.basis),
                              bool, dimension)
            in2 = np.fromiter((j2 in s for s, _ in self.basis),
                              bool, dimension)
            self.mark |= np.outer(in1, in2)

    def phase_flip(self):
        """Negate the marked amplitudes in the stored layout: through the
        mark while side 1 is on axis 0, else through its transposed view."""
        mark = self.mark if self._rows == 1 else self.mark.T
        np.negative(self._amps, out=self._amps, where=mark)
        self.norm_log.append(self.norm())

    def walk_step(self, side, fine=True):
        """One walk step on one side (1 or 2); charges two queries.

        The four sub-operators act on that side's axis, which is first
        moved to axis 0 by one transposing copy if the other side is
        there: the diffusion over z outside S (groups of N - r entries
        share S), the insert query, the diffusion over z in S' (groups of
        r + 1) and the remove query.  The diffusions work in place; the
        copy and each query are one new state, so at most two states are
        live.  fine=True logs the norm after each sub-operator,
        fine=False once per step; the state is the same.
        """
        if side not in (1, 2):
            raise ValueError(f"side must be 1 or 2, got {side!r}")
        if side != self._rows:
            self._amps, self._rows = np.ascontiguousarray(self._amps.T), side
        r = self.params.r
        for k, query in ((self.n_side - r, self.insert),
                         (r + 1, self.remove)):
            _reflect(self._amps, k)
            if fine:
                self.norm_log.append(self.norm())
            self._amps = self._amps.take(query, 0)
            if fine:
                self.norm_log.append(self.norm())
        if not fine:
            self.norm_log.append(self.norm())
        self.ledger.charge(2)

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


class CollapsedWalkSim(_WalkSim):
    """Exact 9-state simulation for an instance with one planted claw; it
    logs one norm per outer repetition."""

    def __init__(self, n_side, params):
        super().__init__(n_side, params)
        r = params.r
        # class weights: |A| / D = r/N, |B| / D = 1/N, |C| / D = (N-r-1)/N
        side = np.sqrt(np.array([r / n_side, 1 / n_side,
                                 (n_side - r - 1) / n_side]))
        self._start(np.outer(side, side))
        step = _collapsed_step_matrix(n_side, r)
        self.block1 = np.linalg.matrix_power(step, params.t1)
        self.block2_t = np.linalg.matrix_power(step, params.t2).T

    def outer_rep(self):
        """One phase flip, then t1 steps on side 1 and t2 on side 2 as the
        precomputed powers step^t1 and (step^t2)^T."""
        self.state[0, 0] = -self.state[0, 0]
        self.state = self.block1 @ self.state @ self.block2_t
        self.norm_log.append(self.norm())
        self.ledger.charge(2 * (self.params.t1 + self.params.t2))

    def run(self):
        for _ in range(self.params.outer_reps):
            self.outer_rep()
        return self.success_prob()

    def success_prob(self):
        return float(self.state[0, 0] ** 2)


# ---------------------------------------------------------------------------
# driver


@dataclass
class WalkResult:
    success_prob: float
    claw: tuple | None
    ledger: QueryLedger
    params: WalkParams
    norm_drift: float
    retries: int = 0
    all_claws: list = field(default_factory=list)


def _tuning_scan(params, max_multiplier=TUNING_SCAN):
    """The walk tune_outer_reps simulates: max_multiplier * outer_reps
    repetitions of params."""
    return replace(params, outer_reps=max_multiplier * params.outer_reps)


def tune_outer_reps(n_side, params, max_multiplier=TUNING_SCAN):
    """Pick the outer repetition count maximizing the collapsed-mode
    success probability within [1, max_multiplier * base].

    The search constant in the outer Theta(.) is unspecified, so the
    cheap 9-state simulation is scanned to choose it: one run records the
    success probability after every repetition, and the first maximum
    wins.  A run of k repetitions applies the same floating-point
    operations as the first k repetitions of a longer one.  The scan is
    itself a walk of max_multiplier * outer_reps repetitions, so it must
    pass the step guard before anything is simulated.
    """
    scan = _tuning_scan(params, max_multiplier)
    check_walk_steps(scan)
    sim = CollapsedWalkSim(n_side, params)
    probs = []
    for _ in range(scan.outer_reps):
        sim.outer_rep()
        probs.append(sim.success_prob())
    best = probs.index(max(probs)) + 1 if probs else params.outer_reps
    return replace(params, outer_reps=best)


def walk_expected_queries(params, success_prob):
    """Expected oracle queries, rounded up, of Tani's claw walk
    (arXiv:0708.2584) run with params until a measurement finds a claw:
    each run costs ledger_law(params), and the run count is geometric
    with mean 1 / success_prob, which must lie in (0, 1]."""
    if not 0 < success_prob <= 1:
        raise ValueError(f"success probability {success_prob} not in (0, 1]")
    return math.ceil(ledger_law(params) / success_prob)


def check_walk(n_side, params, mode, tune):
    """Refuse before anything is built: an unknown mode, a walk or (with
    tune) tuning's scan over the step guard, a full basis over its guard."""
    if mode not in ("collapsed", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    check_walk_steps(params)
    if tune:
        check_walk_steps(_tuning_scan(params))
    if mode == "full":
        check_full_basis(n_side, params.r)


def run_walk(n_side, params, claws, mode, tune=True):
    """Tune and run the walk once on a known, non-empty claw census, after
    check_walk and collapsed mode's unique-claw check."""
    check_walk(n_side, params, mode, tune)
    if mode == "collapsed" and len(claws) != 1:
        raise UniqueClawRequired(
            f"collapsed mode needs a unique claw, found {len(claws)}")
    if tune:
        params = tune_outer_reps(n_side, params)
    sim = (CollapsedWalkSim(n_side, params) if mode == "collapsed"
           else FullWalkSim(n_side, params, claws))
    sim.run()
    return sim


def claw_walk_sample(problem, seed, mode="collapsed", params=None,
                     max_retries=400, tune=True):
    """check_walk, then run_walk on the exhaustive scan's claw census,
    which must hold at most one claw, then draw measurements of that one
    state until one finds the claw.  A measured state is marked exactly
    when its subsets hold the claw, so each draw finds it with the run's
    success probability, in either mode.  Returns a WalkResult whose claw
    is the sampled pair (None when no claw exists or all max_retries
    draws miss) and whose ledger charges every attempt."""
    n = problem.n_side
    params = params or walk_params(n, n)
    check_walk(n, params, mode, tune)
    all_claws = find_claws_exhaustive(problem)
    if not all_claws:
        return WalkResult(0.0, None, QueryLedger(), params, 0.0, all_claws=[])
    if len(all_claws) > 1:
        raise UniqueClawRequired(
            f"sampling needs a unique claw, found {len(all_claws)}")
    sim = run_walk(n, params, all_claws, mode, tune)
    p = sim.success_prob()
    rng = np.random.default_rng(seed)
    found, retries = None, 0
    while found is None and retries < max_retries:
        retries += 1
        if rng.random() < p:
            found = all_claws[0]
    ledger = QueryLedger(retries * sim.ledger.oracle_queries)
    return WalkResult(p, found, ledger, sim.params, sim.norm_drift(),
                      retries=retries, all_claws=all_claws)
