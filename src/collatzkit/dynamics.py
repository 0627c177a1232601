"""Trajectories, cycle detection and canonical cycles, orbit classification.

Divergence is never asserted: a trajectory that exhausts its caps is
reported as capped/undecided, with the caps that were in force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from .core import Triplet
from .errors import (BoundPreconditionError, InvalidTripletError,
                     IterateFormulaDomainError, NotACycleError)

DEFAULT_MAX_STEPS = 10**5
DEFAULT_MAX_VALUE = 10**30


@dataclass(frozen=True)
class Limits:
    """Caps for orbit exploration."""

    max_steps: int = DEFAULT_MAX_STEPS
    max_value: int = DEFAULT_MAX_VALUE

    def __post_init__(self):
        if self.max_steps < 1 or self.max_value < 1:
            raise InvalidTripletError("limits must be positive")


@dataclass(frozen=True)
class Cycle:
    """A periodic orbit, rotated so its minimum leads.

    length is the exact period (elements are distinct), kbar counts the
    elements not divisible by d.
    """

    elements: tuple[int, ...]
    omega: int
    length: int
    kbar: int
    max_elem: int

    def to_json_dict(self) -> dict:
        return {
            "omega": str(self.omega),
            "length": self.length,
            "kbar": self.kbar,
            "max_elem": str(self.max_elem),
            "elements": [str(x) for x in self.elements],
        }


def canonicalize(t: Triplet, elements: Iterable[int]) -> Cycle:
    """Validate an orbit list as a genuine cycle of positive integers and
    rotate min-first."""
    elems = [int(x) for x in elements]
    if not elems:
        raise NotACycleError("empty element list")
    if min(elems) < 1:
        raise NotACycleError(f"{min(elems)} is not a positive integer; the map of {t} "
                             f"is defined on n >= 1")
    if len(set(elems)) != len(elems):
        raise NotACycleError("repeated values in claimed cycle")
    step = t.step_function()
    for i, x in enumerate(elems):
        nxt = elems[(i + 1) % len(elems)]
        if step(x) != nxt:
            raise NotACycleError(
                f"T({x}) = {step(x)} != {nxt}; not an orbit of {t}")
    i0 = elems.index(min(elems))
    rotated = tuple(elems[i0:] + elems[:i0])
    return Cycle(
        elements=rotated,
        omega=rotated[0],
        length=len(rotated),
        kbar=sum(1 for x in rotated if x % t.d != 0),
        max_elem=max(rotated),
    )


# --- trajectory terminals ---------------------------------------------------

@dataclass(frozen=True)
class EnteredKnownCycle:
    omega: int


@dataclass(frozen=True)
class CycleDetected:
    cycle: Cycle


@dataclass(frozen=True)
class StepCapExceeded:
    pass


@dataclass(frozen=True)
class ValueCapExceeded:
    pass


Terminal = Union[EnteredKnownCycle, CycleDetected, StepCapExceeded, ValueCapExceeded]


@dataclass(frozen=True)
class Trajectory:
    start: int
    visited_count: int  # map applications performed
    terminal: Terminal
    peak: int
    path: tuple[int, ...] = field(repr=False, default=())


_STOP, _REVISIT, _STEP_CAP, _VALUE_CAP = range(4)


def _walk(step, v: int, max_steps: int, max_value, stop=(),
          floor: range = range(0)) -> tuple[int, int, int, dict[int, int]]:
    """Iterate step from v; returns (last value, steps taken, why it ended,
    path), path mapping each visited value to its step index in order.

    Before each step the walk ends on a value in stop or in the half-open
    range floor (_STOP), then at the step cap (_STEP_CAP); after it, on a
    value above max_value (_VALUE_CAP), then on a revisit (_REVISIT).  The
    start must be a positive integer, the domain of the map.
    """
    if v < 1:
        raise InvalidTripletError(f"map domain is n >= 1, got {v}")
    path = {v: 0}
    steps = 0
    while v not in stop and v not in floor:
        if steps >= max_steps:
            return v, steps, _STEP_CAP, path
        v = step(v)
        steps += 1
        if v > max_value:
            return v, steps, _VALUE_CAP, path
        if v in path:
            return v, steps, _REVISIT, path
        path[v] = steps
    return v, steps, _STOP, path


def trace(t: Triplet, n: int, limits: Limits = Limits(),
          known: frozenset[int] = frozenset()) -> Trajectory:
    """Iterate T from n until a known minimum, a revisit, or a cap.

    Stops at the first of: current value is one of the `known` cycle minima,
    revisit of a value seen in this trajectory (the cycle is extracted),
    step cap, value cap.  On the value cap the path ends with the value
    that went over it.  InvalidTripletError when n < 1.
    """
    v, steps, end, path = _walk(t.step_function(), n, limits.max_steps, limits.max_value,
                                known)
    values = tuple(path)
    if end == _STOP:
        terminal = EnteredKnownCycle(v)
    elif end == _REVISIT:
        terminal = CycleDetected(canonicalize(t, values[path[v]:]))
    elif end == _VALUE_CAP:
        values += (v,)
        terminal = ValueCapExceeded()
    else:
        terminal = StepCapExceeded()
    return Trajectory(n, steps, terminal, max(values), values)


def detect_cycle_from(t: Triplet, n: int, limits: Limits = Limits()) -> Optional[Cycle]:
    """Cycle reached by the forward orbit of n, canonicalized, or None.

    The cycle is returned exactly when the orbit first revisits a value at a
    step <= max_steps with no iterate above max_value before it.  Every value
    up to the revisit is hashed: from a cycle's minimum that is the cycle's
    length, but an orbit that closes late, or never, holds up to max_steps
    values.  InvalidTripletError when n < 1.
    """
    v, _, end, path = _walk(t.step_function(), n, limits.max_steps, limits.max_value)
    return canonicalize(t, tuple(path)[path[v]:]) if end == _REVISIT else None


def enumerate_cycles(t: Triplet, seed_lo: int, seed_hi: int,
                     limits: Limits = Limits()) -> tuple[Cycle, ...]:
    """All cycles reached from seeds in [seed_lo, seed_hi] within the caps.

    Deduplicated by cycle minimum, sorted by (length, omega).  Orbits stop
    early on any element of an already-found cycle, and on any value in
    [seed_lo, seed) whose orbit was therefore already explored.
    """
    if seed_lo > seed_hi or seed_lo < 1:
        raise InvalidTripletError(f"bad seed range [{seed_lo}, {seed_hi}]")
    step = t.step_function()
    found: dict[int, Cycle] = {}
    known_elements: set[int] = set()
    for seed in range(seed_lo, seed_hi + 1):
        v, _, end, path = _walk(step, seed, limits.max_steps, limits.max_value,
                                known_elements, range(seed_lo, seed))
        if end == _REVISIT:
            # a new cycle: reaching a found one would have stopped the walk
            cycle = canonicalize(t, tuple(path)[path[v]:])
            found[cycle.omega] = cycle
            known_elements.update(cycle.elements)
    return tuple(sorted(found.values(), key=lambda c: (c.length, c.omega)))


# --- seed classification ----------------------------------------------------

@dataclass(frozen=True)
class Converged:
    omega: int


@dataclass(frozen=True)
class Undecided:
    pass


SeedLabel = Union[Converged, Undecided]


def classify_seed(t: Triplet, n: int, cycles: Iterable[Cycle],
                  limits: Limits = Limits()) -> SeedLabel:
    """Converged(omega) when the orbit hits any element of a given cycle.

    Caps, and a cycle that holds no target element, produce Undecided;
    membership in a divergent class is never asserted.  InvalidTripletError
    when n < 1.
    """
    owner = {x: c.omega for c in cycles for x in c.elements}
    v, _, end, _ = _walk(t.step_function(), n, limits.max_steps, limits.max_value, owner)
    return Converged(owner[v]) if end == _STOP else Undecided()


# --- closed-form iterate for the square-gap family ---------------------------

def closed_form_iterate(d: int, nu1: int, mu0exp: int, k: int, ell: int) -> int:
    """Value of T^(ell) at beta*(d^k + 1) for the square-gap triplet, in
    closed form:

        beta * (alpha^ell * d^(k-ell) + sum_{i<ell} alpha^i d^(nu1-i-1) + 1)

    with alpha = d^nu1 + 1 and beta = d^(2*mu0exp+nu1) - alpha^2.  Valid for
    1 <= ell <= min(k, nu1) and nu1 > 1: beyond nu1 the iterate's residue
    class changes (for ell = nu1 the bracket is congruent to 2 mod d), so the
    formula stops matching iteration and is rejected.
    """
    if d < 2:
        raise IterateFormulaDomainError(f"d must be >= 2, got {d}")
    if nu1 <= 1:
        raise IterateFormulaDomainError("nu1 must exceed 1; nu1=1 is a different construction")
    if 2 * mu0exp <= nu1:
        raise IterateFormulaDomainError(f"need 2*mu0exp > nu1, got {2 * mu0exp} <= {nu1}")
    if k < 1:
        raise IterateFormulaDomainError(f"k must be >= 1, got {k}")
    if ell < 1 or ell > k:
        raise IterateFormulaDomainError(f"ell must lie in [1, k], got {ell}")
    if ell > nu1:
        raise IterateFormulaDomainError(
            f"formula scope ends at ell = nu1 = {nu1}; got ell = {ell}")
    alpha = d**nu1 + 1
    beta = d**(2 * mu0exp + nu1) - alpha * alpha
    bracket = alpha**ell * d**(k - ell) + sum(alpha**i * d**(nu1 - i - 1) for i in range(ell)) + 1
    return beta * bracket


# --- necessary conditions for any genuine cycle ------------------------------

@dataclass(frozen=True)
class CycleBoundReport:
    """Exact verdict on the two inequality chains every cycle obeys.

    max_side:  0 < kbar*log_d(1 + beta/(alpha*max)) < L - kbar*xi
                 <= sum over non-divisible elements of log_d(1 + beta(d-1)/(alpha n))
                 <= beta(d-1)/(alpha ln d) * sum 1/n
    min_side:  0 < L - kbar*xi <= kbar*log_d(1 + beta(d-1)/(alpha*min))
                 <= kbar*beta(d-1)/(alpha ln d * min)
    """

    max_side_holds: bool
    min_side_holds: bool
    triplet: Triplet
    cycle: Cycle

    @property
    def both_hold(self) -> bool:
        return self.max_side_holds and self.min_side_holds


def check_cycle_necessary_conditions(t: Triplet, cycle: Cycle) -> CycleBoundReport:
    """Decide both chains by exact integer comparison.

    Each comparison between logarithms of rationals is a comparison of
    integer powers.  The two comparisons of a logarithm against a rational
    (the last link of each chain) are true for every cycle: with
    y_n = beta(d-1)/(alpha n) > 0,

        sum_bound - sum_logs = sum over non-divisible n of (y_n - log(1+y_n)) / ln d
        min_bound - min_mid  = kbar * (y_min - log(1+y_min)) / ln d

    and log(1+y) < y for y > 0, while kbar >= 1 because a cycle made only
    of multiples of d would strictly decrease.  Likewise max_lhs > 0 is
    beta > 0.  So the verdict rests on the four integer comparisons below;
    the middle link of the max chain can hold with equality (for d=2 every
    non-divisible residue equals d-1).
    """
    if canonicalize(t, cycle.elements) != cycle:
        raise NotACycleError(f"claimed cycle at {cycle.omega} is not a canonical cycle of {t}")
    if math.gcd(t.d, t.alpha) != 1:
        raise BoundPreconditionError(f"gcd(d, alpha) != 1 for {t}")
    if t.beta <= 0:
        raise BoundPreconditionError(f"beta must be positive for {t}")
    d, alpha, beta = t.d, t.alpha, t.beta
    L, kbar = cycle.length, cycle.kbar
    lo_elem, hi_elem = cycle.omega, cycle.max_elem
    nondiv = [x for x in cycle.elements if x % d != 0]
    prod_num = math.prod(alpha * x + beta * (d - 1) for x in nondiv)
    prod_den = math.prod(alpha * x for x in nondiv)

    # max_lhs < gap      <=>  alpha^kbar * (alpha*max+beta)^kbar < d^L * (alpha*max)^kbar
    lhs_lt_gap = alpha**kbar * (alpha * hi_elem + beta)**kbar < d**L * (alpha * hi_elem)**kbar
    # gap > 0            <=>  d^L > alpha^kbar
    gap_pos = d**L > alpha**kbar
    # gap <= sum_logs    <=>  d^L * prod_den <= alpha^kbar * prod_num   (equality for d=2)
    gap_le_sum = d**L * prod_den <= alpha**kbar * prod_num
    # gap <= min_mid     <=>  d^L * min^kbar <= (alpha*min + beta*(d-1))^kbar
    gap_le_min = d**L * lo_elem**kbar <= (alpha * lo_elem + beta * (d - 1))**kbar

    return CycleBoundReport(lhs_lt_gap and gap_le_sum, gap_pos and gap_le_min, t, cycle)
