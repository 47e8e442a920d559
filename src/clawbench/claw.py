"""Claw finding: problem container, multi-equation reduction, classical oracles.

A claw of two function families (f_i), (g_i) over u-bit inputs is a pair
(x1, x2) with f_i(x1) == g_i(x2) for every i.  The multi-equation case is
reduced to a single function F over u+1 bits: the extra top bit selects
the f side (0) or g side (1), and each side concatenates its family's
outputs into one v*w-bit value.  The two half-domains J1 = [0, N) and
J2 = [N, 2N) are then disjoint, as the subset-walk search requires.

Each side may be tabulated in shifted coordinates: with the side's XOR
origin o, entry y of its table holds the value at x = y ^ o.  The attack
uses this to make every equation one derivative of a round table.  The
censuses, and concat_multi, undo the origins, so claws and F are always
in the problem's own x coordinates.
"""

import math
from dataclasses import dataclass

import numpy as np

from .words import domain


class CapacityError(RuntimeError):
    """A table or state vector would exceed the configured desk-scale guard."""


def check_capacity(what, amount, limit):
    """Refuse a request of amount above limit, before anything is built;
    an amount beyond 64 bits is printed as 2^x.x to keep the line short."""
    if amount > limit:
        shown = amount if amount < 1 << 64 else f"2^{math.log2(amount):.1f}"
        raise CapacityError(f"{what}: {shown} exceeds guard {limit}")


@dataclass
class ClawProblem:
    domain_bits: int          # u, per side
    range_bits: int           # v, per equation
    f_family: tuple           # w callables: array of y -> v-bit values
    g_family: tuple           # at x = y ^ origin of the side
    origins: tuple = (0, 0)   # XOR origin of the f and g side tables

    def __post_init__(self):
        if len(self.f_family) != len(self.g_family):
            raise ValueError("f and g families must have equal length")
        if not self.f_family:
            raise ValueError("need at least one equation")

    @property
    def eq_count(self):
        return len(self.f_family)

    @property
    def n_side(self):
        return 1 << self.domain_bits


def concat_multi(problem):
    """Combined function F over u+1 bits -> v*w bits.

    F(0||x) = f_1(x)||...||f_w(x), F(1||x) = g_1(x)||...||g_w(x); the
    concatenation packs equation 1 into the most significant v bits.  F is
    a lookup into the two side tables, so it is the packing the searches
    run; the lookup applies the side's origin.
    """
    table = _value_table(problem)
    u = problem.domain_bits
    return lambda j: int(table[j ^ problem.origins[j >> u]])


def _value_table(problem):
    """Both side tables, each in its shifted order, written into the two
    halves of one 2^(u+1)-entry uint64 buffer."""
    n = problem.n_side
    table = np.empty(2 * n, dtype=np.uint64)
    side_table(problem, 0, out=table[:n])
    side_table(problem, 1, out=table[n:])
    return table


def side_table(problem, side, out=None):
    """Evaluate one side's combined outputs over the full u-bit domain.

    Returns a uint64 array of length 2^u, written into out when given,
    whose entry y is the combined value at x = y ^ origin of the side;
    this is the 2^u-evaluation table the classical searches work from.
    Each equation's callable is called once, on the shared read-only
    domain, and its outputs are shifted in place and OR-ed in as uint64,
    whatever integer dtype it returns.
    """
    check_capacity("combined range bits",
                   problem.range_bits * problem.eq_count, 63)
    first, *rest = problem.f_family if side == 0 else problem.g_family
    xs = domain(problem.domain_bits)
    if out is None:
        out = np.empty(problem.n_side, dtype=np.uint64)
    np.copyto(out, first(xs), casting="unsafe")
    for fn in rest:
        out <<= problem.range_bits
        np.bitwise_or(out, fn(xs), out=out, dtype=np.uint64,
                      casting="unsafe")
    return out


EXHAUSTIVE_MAX_BITS = 12


def check_exhaustive_bits(u):
    """Refuse an exhaustive census over 2^u x 2^u pairs beyond the guard."""
    check_capacity("exhaustive census side bits", u, EXHAUSTIVE_MAX_BITS)


EXHAUSTIVE_BLOCK = 1 << 20


def find_claws_exhaustive(problem):
    """All claws by full pairwise scan, ascending (x1, x2) order.

    The ground-truth oracle: every (x1, x2) pair is compared directly,
    independent of the sorted-match search path.  The f rows are compared
    against all of g in blocks of EXHAUSTIVE_BLOCK comparisons, so the
    largest temporary is one 1 MiB boolean block, not the 2^u x 2^u
    comparison matrix.  The scan runs in the tables' shifted order, so
    its pairs are mapped back through the origins and sorted.
    """
    check_exhaustive_bits(problem.domain_bits)
    n = problem.n_side
    f_tab = side_table(problem, 0)
    g_tab = side_table(problem, 1)
    rows = EXHAUSTIVE_BLOCK // n          # n <= 2^EXHAUSTIVE_MAX_BITS
    hits = np.concatenate([
        np.flatnonzero(f_tab[start:start + rows, None] == g_tab) + start * n
        for start in range(0, n, rows)])
    pairs = np.stack(np.divmod(hits, n), axis=1)
    pairs ^= problem.origins
    return sorted(map(tuple, pairs.tolist()))


STEP_SCAN_BLOCK = 1 << 15


def find_claws_sorted(problem):
    """Sort-and-match search over both 2^u-entry value tables.

    Returns (claws, evaluations) with evaluations == 2^(u+1) exactly.
    Each table entry is packed into one key value << (u+1) | side << u |
    x, in place in the one 2^(u+1)-entry buffer both side tables are
    written into: entry y of a side holds the value at x = y ^ origin, so
    OR-ing in the domain and XOR-ing the origin (with the side bit) sets
    the side and x bits, and the keys equal those of unshifted tables.
    They are sorted once: equal values become adjacent, f entries (side
    0) before g entries, each side in x order.  A value found on both
    sides is then exactly one f->g step between neighbours, and expanding
    its run into the (x1, x2) cross product gives the claws in (value, x1,
    x2) order.

    The key buffer is the only full-width array the census holds: the
    keys take their x bits from the shared domain, and the neighbour XOR
    of the step scan runs STEP_SCAN_BLOCK keys at a time.  glibc hands
    free heap memory above twice its largest freed block back to the
    system; with a second 2^(u+1)-entry array live beside the keys, each
    census at u = 16 freed enough to be trimmed, and the next one
    page-faulted the same memory in again.
    """
    u = problem.domain_bits
    check_capacity("sort key bits",
                   problem.range_bits * problem.eq_count + u + 1, 64)
    n = problem.n_side
    keys = _value_table(problem)
    keys <<= u + 1
    for side, origin in enumerate(problem.origins):
        half = keys[side * n:(side + 1) * n]
        np.bitwise_or(half, domain(u), out=half, dtype=np.uint64,
                      casting="unsafe")
        half ^= origin | side << u
    keys.sort()
    # neighbours differing in the side and x bits only are one value's
    # f -> g step; the value's run of keys is [lo, hi)
    steps = []
    for start in range(0, keys.size - 1, STEP_SCAN_BLOCK):
        stop = min(start + STEP_SCAN_BLOCK, keys.size - 1)
        neighbours = keys[start + 1:stop + 1] ^ keys[start:stop]
        neighbours >>= u
        steps.append(np.flatnonzero(neighbours == 1) + start)
    steps = np.concatenate(steps)
    index_mask = np.uint64(n - 1)
    lo = np.searchsorted(keys, keys[steps] >> (u + 1) << (u + 1))
    hi = np.searchsorted(keys, keys[steps + 1] | index_mask, side="right")
    claws = [(int(a & index_mask), int(b & index_mask))
             for step, first, end in zip(steps, lo, hi)
             for a in keys[first:step + 1] for b in keys[step + 1:end]]
    return claws, 2 * n
