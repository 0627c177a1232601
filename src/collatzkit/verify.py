"""Checkpointed range verification: every seed in [lo, hi] reaches a target
cycle, scanned in parallel chunks with a deterministic report.

The below-frontier shortcut stops a trajectory as soon as it dips under its
seed; by strong induction that certifies convergence only when the prefix
[1, lo) is itself covered (lo == 1, or resuming past a checkpointed
frontier).  When exceptions exist, only seeds up to min(exception) - 1 are
claimed verified, since the induction is grounded only below the first
undecided seed.

Under the shortcut, a residue-class sieve (`build_sieve`) proves, for most
classes mod d * s^(depth-1), s = d // gcd(alpha, d), that their seeds
descend, and returns the class list of the survivors, with the exact form
of each at the last step that it fixes.  It is built no deeper than the
run's step cap, and a run uses the list whole, skipping the sieved classes
and entering each survivor at that step, when one closed-form bound on
iterates 1..depth of every seed up to hi fits the value cap, and not at
all otherwise (`_scan_classes`).  A survivor whose entry form is that of a
smaller survivor is merged into it when the sieve is built, and kept as
its residue alone: its seed is decided by the smaller
one's seed of the same block, when that seed entered and descended, and
is scanned from n otherwise (`_scan_survivors`).  A table of exact
k-step jumps (`build_jumps`) lets both scan loops take k steps at once
wherever no cap or exit can lie inside them; walking each residue k steps
gives it every iterate inside a jump as an exact form.  Where only the
descent exit can lie inside a jump, the descent loop ends the seed with
no step when the jump's dip, its iterate with the smallest coefficient,
is below the seed.
Without the shortcut, a finish table (`build_finish`) ends a seed as soon
as it reaches a small value from which a member is known to follow within
the caps, and the seeds of a chunk are walked together as one frontier
(`_scan_frontier`): all live values move one jump per round, and seeds
whose values meet at the same step count share the rest of one walk.  The
report is the same as without any of the tables, the frontier's merges or
the dip exit.  Each table is built once per process for its
triplet, value cap and targets, the jump table for the largest target
element alone (`_memo_table`), and a job's tables travel with its map,
members and caps in one scan plan (`ScanPlan`), pickled once per job and
sent once per batch of chunks, one batch per worker; a worker unpickles it
only when it differs from the last plan it holds.  The worker pool is kept
per process (`_map_on_kept_pool`): later jobs that need as many workers
reuse it, and it stays alive until the process exits.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import re
import threading
import time
from array import array
from bisect import bisect_left, bisect_right
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from functools import lru_cache
from math import gcd, inf
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .core import Triplet, parse_triplet
from .dynamics import Cycle, Limits, canonicalize
from .errors import (CheckpointError, DigestMismatchError,
                     InvalidTargetsError, NotACycleError, ShortcutUnsoundError)

DEFAULT_CHUNK = 1 << 16
# the sieve works mod d * s^(k-1), s = d // gcd(alpha, d), for the largest
# k with that modulus <= this cap; a larger cap costs more to build and ship
# to workers than its extra exits save
SIEVE_MODULUS_CAP = 1 << 16
# the jump table works mod d^k for the largest k with d^k <= this cap; a
# cap of 2^14 raised the benchmark's peak RSS from 36.0 to 42.6 MB on
# `window` and from 41.0 to 45.5 MB on `verify`, past its 10% bound, and at
# 2^16 the plan took 21 ms to pickle on every job
JUMP_MODULUS_CAP = 1 << 10
# the finish table covers the values below this cap; at 2^16 it costs four
# times the build for no further scan gain
FINISH_CAP = 1 << 14
# a finish-table entry counts at most this many steps to the first member,
# which keeps each entry in a 2-byte array item
FINISH_STEPS = 1 << 9
# the frontier of a chunk without the shortcut (`_scan_frontier`) walks at
# most this many seeds at once: over 65,536 seeds at 10^12, one frontier
# held 11-12 MB traced, and frontiers of this size 0.7 MB, at 0.9-1.2x its
# speed
FRONTIER_SEEDS = 1 << 12

STEP_CAP = "step_cap"
VALUE_CAP = "value_cap"

_RESIDUE = itemgetter(0)  # the residue r of a class form (r, ...)


@dataclass(frozen=True)
class VerificationJob:
    triplet: Triplet
    lo: int
    hi: int
    targets: tuple[Cycle, ...]
    limits: Limits = Limits()
    chunk_size: int = DEFAULT_CHUNK
    below_frontier_shortcut: bool = True
    prefix_verified_to: int = 0  # highest seed proven converged before lo

    def __post_init__(self):
        if self.lo < 1 or self.lo > self.hi:
            raise InvalidTargetsError(f"bad range [{self.lo}, {self.hi}]")
        if self.chunk_size < 1:
            raise InvalidTargetsError("chunk_size must be positive")


@dataclass(frozen=True)
class Checkpoint:
    """What a scan of a job's whole range produces: the undecided seeds, in
    seed order, and the wall time; the rest of a checkpoint follows from
    these and the job."""

    job: VerificationJob
    exceptions: tuple[tuple[int, str], ...]
    wall_time: float

    @property
    def digest(self) -> str:
        return job_digest(self.job)

    @property
    def verified_frontier(self) -> int:
        """The seed before the first exception, else hi."""
        return self.exceptions[0][0] - 1 if self.exceptions else self.job.hi

    @property
    def seeds_scanned(self) -> int:
        return self.job.hi - self.job.lo + 1

    @property
    def throughput(self) -> float:
        return self.seeds_scanned / self.wall_time if self.wall_time > 0 else inf


def job_digest(job: VerificationJob) -> str:
    """Hash of the semantic job fields (range extension and scheduling
    parameters excluded, so resumes keep the same digest)."""
    targets = ";".join(
        f"{c.omega}:" + ",".join(str(x) for x in c.elements)
        for c in sorted(job.targets, key=lambda c: c.omega))
    payload = "|".join([
        "v1",
        job.triplet.text,
        f"base={min(job.lo, job.prefix_verified_to + 1)}",
        targets,
        f"steps={job.limits.max_steps}",
        f"value={job.limits.max_value}",
        f"shortcut={int(job.below_frontier_shortcut)}",
    ])
    return hashlib.sha256(payload.encode()).hexdigest()


def _validate_targets(job: VerificationJob) -> None:
    if not job.targets:
        raise InvalidTargetsError("target cycle set is empty")
    for c in job.targets:
        try:
            again = canonicalize(job.triplet, c.elements)
        except NotACycleError as exc:
            raise InvalidTargetsError(f"target {c.omega} fails cycle closure: {exc}") from None
        for name in ("omega", "length", "kbar", "max_elem", "elements"):
            claimed, actual = getattr(c, name), getattr(again, name)
            if claimed != actual:
                raise InvalidTargetsError(
                    f"target {c.omega} claims {name} {claimed} but its cycle has {actual}")


def _refine(t: Triplet, split: int, cap: int):
    """Refine the residue classes of the seeds one digit at a time on the
    moduli M_1 = d and M_l = M_(l-1) * split, while M_l <= cap, and return
    (depth, M, classes) of the last level, l = depth and M = M_depth, the
    classes that the sieve's rule leaves, in order of r.

    A class (r, a, b, j, F, L, Q) mod M_l stands for the seeds n = M_l*m
    + r, m >= 0: iterate j of n is a*m + b, and iterates 1..j-1 are at
    least L*m + Q (n + 1 while there are none).  The classes that the
    sieve's rule proves to descend are dropped, and F is a floor for the
    rest, or None (see `build_sieve`).

    Fixed steps.  Iterate 0 of n is the affine form M_l*m + r, and while d
    divides the m-coefficient of iterate j, the residue mod d of iterate j
    is that of T^j(r) and step j + 1 is the same for the whole class.
    Hence for every j up to the first whose coefficient d does not divide,
    iterate j is M_l * alpha^(o_j) / d^j * m + T^j(r), where o_j counts the
    steps with a non-zero residue: these are the steps the class fixes.
    Refining m = split*m' + digit (m = d*m' + digit at level 1) keeps the
    iterate's form, a*split*m' + a*digit + b; when d divides a*split, for
    every digit or for none, the refined class takes step j + 1, and
    otherwise it keeps iterate j.  With split = d every level fixes one
    step more, so at level j iterate j of d^j*m + r is alpha^(o_j)*m +
    T^j(r).  With split s = d // gcd(alpha, d), a level fixes at most one
    step more: at level 1 the coefficient d becomes 1 or alpha, and at a
    later level a coefficient a that d does not divide becomes a*s, and,
    when d divides a*s, a/g or a*alpha/g after the step (g = gcd(alpha,
    d)); d divides neither, since d | a/g gives d | a, and d | a*(alpha/g)
    with d | a*s gives d | a, as gcd(alpha/g, s) = 1.  When g = 1, s = d.
    Otherwise a step that multiplies by alpha leaves a coefficient that the
    next split fixes again (alpha * s = lcm(alpha, d)), while one that
    divides by d can leave a coefficient that a split does not make
    divisible by d: such a class fixes fewer steps than it has levels.

    Bounds.  A refined class has m = split*m' + digit in its parent's
    forms, so it keeps L*split*m' + L*digit + Q below iterates 1..j-1.
    When it steps past iterate j >= 1, it takes the smaller coefficient and
    the smaller constant against iterate j, a*split*m' + a*digit + b, which
    stays a bound below as m' >= 0 (iterate 1 replaces the n + 1 that stood
    for no iterate), so L*m + Q covers iterates 1..j-1 whatever the number
    of steps a level fixes.
    """
    # the step rule of `Triplet.step_function`, one for both signs of kappa
    d, alpha, sd, sb = t.d, t.alpha, t.kappa * t.d, t.kappa * t.beta
    # level 0 (M_0 = 1, n = m): iterate 0 is m, and n + 1 stands below
    live = [(0, 1, 0, 0, None, 1, 1)]
    depth, scale, width = 0, 1, d  # l - 1, M_(l-1), and the split at level l
    while scale * width <= cap:
        level = scale * width  # M_l
        # children by digit: with the parents in order of r, each list, and
        # their concatenation, is in order of rr = r + digit * M_(l-1)
        refined = [[] for _ in range(width)]
        for r, a, b, j, floor, c_min, p_min in live:
            a_wide, l_wide = a * width, c_min * width
            fixed = a_wide % d == 0  # step j + 1, for every digit or for none
            fold = fixed and j > 0  # iterate j joins the lower bound
            if fold and (j == 1 or a_wide < l_wide):
                l_wide = a_wide
            for digit in range(width):
                rr = r + digit * scale
                if floor is not None and rr >= floor:
                    continue  # pruned: sieved
                coeff = a_wide
                v = u = a * digit + b  # u: the constant of iterate j
                steps = j
                if fixed:
                    res = v % sd
                    if res == 0:
                        v //= d
                        coeff //= d
                    else:
                        v = (alpha * v + sb * res) // d
                        coeff = coeff // d * alpha
                    steps += 1
                if not fixed or coeff > level or v >= rr > 0:
                    p_low = c_min * digit + p_min
                    if fold and (j == 1 or u < p_low):
                        p_low = u
                    fl = floor
                    if fixed and coeff < level:
                        start = rr + level * ((v - rr) // (level - coeff) + 1)
                        if fl is None or start < fl:
                            fl = start
                    refined[digit].append((rr, coeff, v, steps, fl, l_wide, p_low))
        live = [entry for children in refined for entry in children]
        depth, scale, width = depth + 1, level, split
    return depth, scale, live


@dataclass(frozen=True)
class ClassList:
    """The classes mod `modulus` that a shortcut scan visits above max_elem:
    a seed n = modulus*m + r whose class has the form (r, a, b, low_c,
    low_p, k) enters at step k, at a*m + b, when low_c*m + low_p >= n, and
    otherwise at n; a class scanned from n has k = 0 and a*m + b = n.  The
    classes merged into a listed representative r0 are not listed: their
    seeds are decided by the seed of r0 in the same block, or scanned from
    n where it does not decide them (`_scan_survivors`), so they are kept as
    residues alone; no such class lies more than `reach` above its
    representative.  A sieve's list (`build_sieve`) has its depth, which
    bounds every k and gates its use (`_scan_classes`); `_FROM_N` has 0."""

    modulus: int
    forms: list  # (r, a, b, low_c, low_p, k) per listed class, in order of r
    merged: dict  # representative r0 -> the residues merged into it, in order
    reach: int  # the largest r - r0 of a class r merged into r0; 0 for none
    depth: int  # levels of refinement, no fewer than the steps any class fixes


def build_sieve(t: Triplet, max_steps: int) -> Optional[ClassList]:
    """The class list of the classes mod M = d * s^(depth-1), s = d //
    gcd(alpha, d), that `_refine` leaves with split s at depth
    min(max_steps, L), L the largest depth with d * s^(L-1) <=
    SIEVE_MODULUS_CAP; None when d > SIEVE_MODULUS_CAP.  A class fixes at
    most one step per level, so at most depth <= max_steps, and the last
    step it fixes is its entry step k.  For a seed n = M*m + r of a listed
    class (r, a, b, low_c, low_p, k), iterate k is a*m + b, and iterates
    1..k-1 are at least low_c*m + low_p.

    Rule.  The class of r mod M_l is sieved when r = 0, or when some step j
    that it fixes has alpha^(o_j) <= d^j and T^j(r) < r.

    Soundness.  For such a j and every m >= 0, iterate j of n = M_l*m + r
    is at most M_l*m + T^j(r) < n, so n falls below itself within j steps;
    the seeds M_l*m with m >= 1, the only ones of the class r = 0, fall to
    iterate 1, (M_l // d)*m < M_l*m.  The shortcut scan of a seed n >
    max_elem is a pure descent loop: it reports nothing for n exactly when
    n falls below itself within max_steps steps and no iterate before that
    exceeds max_value.  A sieved class falls below itself within j <= depth
    <= max_steps steps, and a run uses the sieve only when iterates
    1..depth of every seed n <= hi are at most max_value (`_scan_classes`):
    then no sieved seed n <= hi reports anything, and none needs a scan.
    Seeds up to max_elem are scanned from n itself, and the survivors as
    below, so every exception, its status, and the frontier are unchanged;
    the below-frontier induction that makes a descent count as convergence
    is the shortcut's, not the sieve's.

    Entry at each form's own step.  For a seed n = M*m + r in a surviving
    class with entry step k, iterate k is a*m + b exactly, and iterates
    1..k-1 are at least low_c*m + low_p, for every m >= 0.  The descent loop
    of such a seed enters at v = a*m + b with k steps taken when low_c*m +
    low_p >= n.  Stepping one at a time from n, the loop would stop before
    step k only at the step cap, which k <= max_steps rules out; at an
    iterate above max_value, which the value bound of `_scan_classes` rules
    out while the sieve is in use, as k <= depth; or at an iterate below n,
    which the lower bound rules out.  So it reaches a*m + b after exactly k
    steps either way and goes on from the same value and step count: the
    exceptions, their statuses and the frontier are unchanged.  Otherwise
    the seed is scanned from n.

    Merged classes.  A surviving class r whose entry form (a, b, k) is that
    of a smaller survivor r0 is merged into the smallest such r0, its
    representative, when the sieve is built, and a seed n = M*m + r is
    skipped when n0 = M*m + r0 is a seed of the same scan that entered at
    step k and ended with no exception (`_scan_survivors`).  n0 < n has
    iterate k of n, a*m + b, for every m.  Entered, n0 has iterates 1..k-1
    at least low_c*m + low_p >= n0, so it fell below itself at a step s >=
    k, with s <= max_steps and iterates 1..s at most max_value.  With the
    sieve in use, k <= depth <= max_steps and n's iterates 1..k-1 are at
    most max_value; its iterates k..s are those of n0, and iterate s is below
    n0 < n.  So n falls below itself by step s with no cap before it, and
    its scan reports nothing: every exception, its status, the frontier
    and the digest are unchanged.  Where n0 does not decide it, n is
    scanned from n itself, the loop's own base case, so a merged class
    needs no entry form of its own: `ClassList.merged` holds its residue
    alone.  Merges across blocks are not made: 2 of
    the 3,459 representatives of 10:12:8:+ share iterate k with a survivor
    of the block before.

    Pruning.  A class carries a floor F such that every member of the class
    that is at least F meets the rule at some step i <= j: a step with
    alpha^(o_i) < d^i and T^i(r) >= r contributes the least member
    r + M_l*u with u*(M_l - a) > T^i(r) - r, a being the m-coefficient of
    iterate i.  A refined residue at or above F is sieved together with all
    its own refinements, which are no smaller; what is left at the last
    level is exactly the classes the rule does not sieve.
    """
    d = t.d
    if d > SIEVE_MODULUS_CAP:
        return None
    split = d // gcd(t.alpha, d)
    # no sieve under the cap is deeper than its log2, as d, split >= 2
    levels = min(max_steps, SIEVE_MODULUS_CAP.bit_length() - 1)
    depth, modulus, live = _refine(t, split, min(SIEVE_MODULUS_CAP, d * split ** (levels - 1)))
    # each representative's form is written back into the survivors' list, in
    # place, which keeps the build's peak memory, and so that of the pool
    # workers forked after it, down
    first: dict = {}  # (a, b, k) -> the smallest survivor with that entry form
    listed, merged, reach = 0, {}, 0
    for r, a, b, k, _floor, low_c, low_p in live:
        rep = first.setdefault((a, b, k), r)
        if rep == r:
            live[listed] = (r, a, b, low_c, low_p, k)
            listed += 1
        else:
            merged.setdefault(rep, []).append(r)
            reach = max(reach, r - rep)
    del live[listed:]
    return ClassList(modulus, live, merged, reach, depth)


# no sieve, or one whose value bound exceeds the value cap: every seed from n, in
# blocks of 2^10 classes, as blocks of one class made such scans 1.4-1.6x slower
_FROM_N = ClassList(1 << 10, [(r, 1 << 10, r, 1 << 10, r, 0) for r in range(1 << 10)], {}, 0, 0)


def _scan_classes(t: Triplet, classes: Optional[ClassList], hi: int,
                  max_value: int) -> ClassList:
    """The class list of a shortcut scan of seeds n <= hi under max_value,
    given the class list of a sieve of t built no deeper than the scan's
    step cap (`build_sieve`): that list itself when its value bound at hi,

        alpha^L * (hi*(alpha - d) + |beta|*(d - 1)) // (d^L * (alpha - d)),

    L = classes.depth, is at most max_value; `_FROM_N` otherwise, and when
    there is no sieve.

    Value bound.  T(n) <= (alpha*n + |beta|*(d - 1))/d for every n >= 1: a
    step at a non-zero residue adds at most |beta|*(d - 1) to alpha*n, and
    when d | n, n/d <= alpha*n/d.  With c = |beta|*(d - 1)/(alpha - d), so
    that alpha*c/d = c + |beta|*(d - 1)/d, this reads T(n) + c <= (alpha/d)
    * (n + c), so iterate j of n is at most (alpha/d)^j * (n + c) - c.  As
    alpha > d, every iterate 1..L of every seed n <= hi is at most
    (alpha/d)^L * (hi + c), which is the bound before the floor, and an
    integer iterate is at most its floor.  Each class fixes at most L steps
    (see `build_sieve`), so the bound covers what the sieve's argument
    needs: a sieved seed's iterates up to its descent, a survivor's up to
    its entry step k, and a merged seed's iterates 1..k-1."""
    if classes is None:
        return _FROM_N
    d, alpha, depth = t.d, t.alpha, classes.depth
    bound = alpha**depth * (hi * (alpha - d) + abs(t.beta) * (d - 1)) // (d**depth * (alpha - d))
    return classes if bound <= max_value else _FROM_N


@dataclass(frozen=True)
class JumpTable:
    """Exact k-step jumps for both scan loops, per residue mod d^k.

    For n = d^k*q + r, iterate k of n is coeff[r]*q + const[r].  The
    membership loop jumps from n only when hit[r] < q <= qmax, the descent
    loop of a seed s only when q <= qmax and low_c[r]*q + low_p[r] >= s,
    and ends s where its lower guard alone refuses a jump, with no step,
    when dip_c[r]*q + dip_p[r] < s.
    """

    depth: int  # k
    modulus: int  # d^k
    coeff: list
    const: list
    hit: list  # iterates 1..k-1 of d^k*q + r exceed max_elem for q > hit[r]
    low_c: list  # iterates 1..k-1 of d^k*q + r are at least
    low_p: list  # low_c[r]*q + low_p[r]
    dip_c: list  # dip_c[r]*q + dip_p[r] is the iterate 1..k of d^k*q + r with
    dip_p: list  # the smallest coefficient, and the smaller constant on a tie
    qmax: int  # iterates 1..k stay at or below max_value for q <= qmax


def build_jumps(t: Triplet, max_elem: int, max_value: int) -> Optional[JumpTable]:
    """The k-step jump table mod d^k, k the largest with d^k <= JUMP_MODULUS_CAP,
    for a scan toward members no larger than `max_elem` under `max_value`;
    None when k < 2, since a one-step jump only adds a divmod and three
    lookups to a step.

    Form.  Iterate j of n = d^k*q + r is c_j*q + T^j(r), with c_j =
    d^(k-j)*alpha^(o_j) and o_j the number of the first j steps of r taken
    at a non-zero residue mod d.  It holds at j = 0, and for j < k, d
    divides c_j, so iterate j is T^j(r) mod d, step j + 1 is that of r's
    walk, and it takes c_j*q + T^j(r) to c_(j+1)*q + T^(j+1)(r).  Walking r
    for k steps gives these forms: form k gives coeff[r] = alpha^(o_k) and
    const[r] = T^k(r); the smallest coefficient and the smallest constant
    of forms 1..k-1 give the bound low_c[r]*q + low_p[r] below iterates
    1..k-1 (low_c[r] >= 1), and the smallest of forms 1..k in (coefficient,
    constant) order is the dip dip_c[r]*q + dip_p[r], an iterate 1..k
    itself, so at least the lowest of them.  C and P, the largest
    coefficient and the largest constant of forms 1..k over every residue,
    give C*q + P above iterates 1..k of every class; qmax = (max_value - P)
    // C.

    Guards.  hit[r] = (max_elem - low_p[r]) // low_c[r].  A scan at a value
    v = d^k*q + r with steps < max_steps taken jumps to iterate k with
    steps + k only when steps + k <= max_steps and q <= qmax, and besides,
    in the membership loop (v not a member), when hit[r] < q; in the
    descent loop of a seed n (v >= n), when low_c[r]*q + low_p[r] >= n.

    Exactness.  Stepping one at a time from v, the scan would stop inside
    the jump only at the step cap before one of steps + 1 .. steps + k - 1,
    at an iterate 1..k above max_value, or at its loop's exit among
    iterates 1..k-1: a member in the membership loop, a value below n in
    the descent loop.  steps + k <= max_steps rules out the first.  q >= 0
    as v >= 0, so the forms hold, and q <= qmax puts every iterate 1..k at
    or below C*q + P <= max_value, which rules out the second.  q > hit[r]
    rules out a member, and low_c[r]*q + low_p[r] >= n keeps iterates
    1..k-1 at or above n.  So the scan reaches iterate k after exactly k
    steps either way, and the landing value meets the loop's own test (the
    member test, or v >= n) as before: every exception, its status, the
    frontier, seeds_scanned and the digest are unchanged.

    Dip exit.  The descent loop of a seed n, refused a jump from v >= n by
    its lower guard alone (steps + k <= max_steps and q <= qmax hold), ends
    with no exception when dip_c[r]*q + dip_p[r] < n.  That value is
    iterate j of v for some 1 <= j <= k, so stepping one at a time the loop
    would fall below n by step steps + j, with neither cap before it, by
    the same two guards: the exit is exact.

    Member guard.  For q > hit[r], low_c[r]*q + low_p[r] > max_elem, so
    every iterate 1..k-1 exceeds the largest member, and none is a member.
    Under the shortcut the membership loop runs only seeds n <= max_elem,
    so those iterates exceed n too, and no below-seed exit lies inside.
    """
    d = t.d
    # d >= 2, so no k past the cap's log2 has d^k <= JUMP_MODULUS_CAP
    depth = max(k for k in range(JUMP_MODULUS_CAP.bit_length()) if d ** k <= JUMP_MODULUS_CAP)
    modulus = d ** depth
    if depth < 2:
        return None
    step = t.step_function()
    coeff, const, hit, low_c, low_p, dip_c, dip_p = ([0] * modulus for _ in range(7))
    top_c = top_p = 0  # C and P so far; starting at 0 changes neither, as r = 0 walks 0
    for r in range(modulus):
        v, c, forms = r, modulus, []  # iterate j of d^k*q + r is c*q + v
        for _ in range(depth):
            c = c // d * (t.alpha if v % d else 1)
            v = step(v)
            forms.append((c, v))
        cs, vs = zip(*forms)
        coeff[r], const[r], low_c[r], low_p[r] = c, v, min(cs[:-1]), min(vs[:-1])
        hit[r] = (max_elem - low_p[r]) // low_c[r]
        dip_c[r], dip_p[r] = min(forms)
        top_c, top_p = max(top_c, *cs), max(top_p, *vs)
    return JumpTable(depth, modulus, coeff, const, hit, low_c, low_p, dip_c, dip_p,
                     (max_value - top_p) // top_c)


def build_finish(t: Triplet, members: Iterable[int], max_value: int) -> array:
    """The finish table for a scan toward `members` under `max_value`: for
    0 <= v < FINISH_CAP, fin[v] is the number of steps s from v to its first
    member when s <= FINISH_STEPS and iterates 1..s of v are at most
    max_value, and -1 ("none") otherwise.

    Exit.  The membership loop without the shortcut, at a value v that is
    not a member with `steps` taken, stops with no exception when v <
    FINISH_CAP and 0 <= fin[v] <= max_steps - steps.  Stepping on one at a
    time, it would stop only at a member, at the step cap, or at an iterate
    above max_value.  Iterates 1..s of v, s = fin[v], are at most
    max_value, and the ones before iterate s are not members, with steps +
    i < max_steps taken at iterate i < s; so the loop reaches the member at
    iterate s with no exception, and the jumps, being exact (see
    `build_jumps`), lead it there too.  Every exception, its status, the
    frontier, seeds_scanned and the digest are therefore unchanged.  The
    none entry -1 fails the test for every max_steps, however large.  Under
    the shortcut the table is never used: it does not cover the below-seed
    exit.

    Build.  The values v = 1 .. FINISH_CAP - 1 are walked in ascending
    order, testing every iterate for membership, members at or above
    FINISH_CAP included.  A walk ends at a member, with its step count; at
    an iterate above max_value, or back at v (a cycle with no member), or
    after FINISH_STEPS steps, with none; or at an iterate u < v, whose
    entry is already final: the iterates of v before u are at most
    max_value and not members, so v's first member is u's, fin[u] steps
    later, and fin[v] is the sum when fin[u] is not none and the sum is at
    most FINISH_STEPS, and none otherwise.  fin[0] is none; no positive
    value of a well-formed triplet maps to 0.
    """
    step = t.step_function()
    members = frozenset(members)
    fin = array("h", [-1]) * FINISH_CAP
    for v in range(1, FINISH_CAP):
        x, steps = v, 0
        while x not in members:
            if steps == FINISH_STEPS:
                steps = -1
                break
            x = step(x)
            steps += 1
            if x > max_value or x == v:
                steps = -1
                break
            if x < v:
                tail = fin[x]
                steps = steps + tail if 0 <= tail <= FINISH_STEPS - steps else -1
                break
        fin[v] = steps
    return fin


@lru_cache(maxsize=8)
def _memo_table(builder, *args):
    """builder(*args), kept for later calls with the same builder and
    arguments, so that a process scanning many ranges of one triplet builds
    each of its tables once.  Callers pass the builder as looked up at call
    time, so a replaced builder is called rather than bypassed.  The tables
    are shared between calls, and no scan changes them."""
    return builder(*args)


@dataclass(frozen=True)
class ScanPlan:
    """What a chunk scan needs of its job, built once by `verify_range` and
    sent pickled to the pool once per batch of chunks: the map, the members
    and the largest of them, the caps, and the tables.  A plan scans under
    the shortcut exactly when it has a class list: `classes` serves only
    the shortcut and `finish` only a scan without it, and each is None
    where it does not serve."""

    triplet: Triplet
    members: frozenset
    max_elem: int
    limits: Limits
    classes: Optional[ClassList]
    jumps: Optional[JumpTable]
    finish: Optional[array]


def _scan_chunk(plan: ScanPlan, lo: int, hi: int) -> list[tuple[int, str]]:
    """Scan seeds [lo, hi]; returns (seed, status) for every undecided seed.

    Without the shortcut, in a plan with no class list, the seeds are
    walked together as frontiers (`_scan_frontier`), which take the jump
    table's guarded k-step jumps, stop at the finish table's exit, and
    share the walk of seeds whose values meet at the same step count.
    Under the shortcut, seeds up to max_elem run the membership loop
    (`_scan_members`) with the jumps, and the seeds above it the descent
    loop of `_scan_survivors`, which jumps: the seeds of the classes in the
    plan's class list, each entered at its class's step where its guards
    hold.
    """
    if plan.classes is None:
        return _scan_frontier(plan, range(lo, hi + 1))
    split = min(hi, plan.max_elem)
    return (_scan_members(plan, range(lo, split + 1))
            + _scan_survivors(plan, max(lo, split + 1), hi))


def _scan_members(plan: ScanPlan, seeds: Sequence[int]) -> list[tuple[int, str]]:
    """The membership loop of the shortcut over `seeds`, all up to
    max_elem: each seed runs, taking the plan's jumps, until it meets a
    member or falls below itself."""
    t, members, max_elem = plan.triplet, plan.members, plan.max_elem
    # the step rule of `Triplet.step_function`, one for both signs of kappa
    d, alpha, sd, sb = t.d, t.alpha, t.kappa * t.d, t.kappa * t.beta
    max_steps, max_value = plan.limits.max_steps, plan.limits.max_value
    jumps = plan.jumps
    exceptions: list[tuple[int, str]] = []
    # a jump may start only while steps <= jump_last, i.e. steps + k <= max_steps
    jump_last = -1
    if jumps is not None:
        depth, modulus, qmax = jumps.depth, jumps.modulus, jumps.qmax
        coeff, const, hit = jumps.coeff, jumps.const, jumps.hit
        jump_last = max_steps - depth
    for n in seeds:
        v = n
        steps = 0
        status = None
        # n <= max_elem, so a value below n is at most max_elem too
        while v > max_elem or (v >= n and v not in members):
            if steps >= max_steps:
                status = STEP_CAP
                break
            if steps <= jump_last:
                q, r = divmod(v, modulus)
                if hit[r] < q <= qmax:
                    v = coeff[r] * q + const[r]
                    steps += depth
                    continue
            r = v % sd
            if r == 0:
                v //= d
            else:
                v = (alpha * v + sb * r) // d
            steps += 1
            if v > max_value:
                status = VALUE_CAP
                break
        if status is not None:
            exceptions.append((n, status))
    return exceptions


def _scan_frontier(plan: ScanPlan, seeds: Sequence[int]) -> list[tuple[int, str]]:
    """The membership loop without the shortcut over `seeds`, walked
    FRONTIER_SEEDS seeds at a time as one frontier: each seed runs until it
    meets a member, taking the plan's jumps and its finish exit.

    Rounds.  Round i holds each live walk's value at step i*k, with the
    first seed of the walk.  A value above max_elem and the finish table,
    whose jump the jump table's guards allow, lands in round i + 1, and
    joins the walk already at that value there, if any; every other value
    walks on alone, in single steps and jumps, to its end, as after its
    first single step it is off the rounds' step counts.  When some walk
    ends with an exception, every seed follows its chain of joins to its
    walk, and takes the walk's status.

    Merges.  A walk from a value v with `steps` taken ends the same way
    whichever seed it came from: its exits (a member, and a finish entry
    against max_steps - steps), its jump guards (steps + k <= max_steps,
    hit[r] < q <= qmax), both caps, and each step and jump read v and
    steps alone.  So seeds whose values are equal at the same step count
    meet the same end, and one walk stands for all of them: every
    exception, its status, the verified frontier, seeds_scanned and the
    digest are those of each seed walked alone.  The shortcut's below-seed exit reads
    the seed too, so the shortcut's loops do not merge walks."""
    t, members, max_elem = plan.triplet, plan.members, plan.max_elem
    # the step rule of `Triplet.step_function`, one for both signs of kappa
    d, alpha, sd, sb = t.d, t.alpha, t.kappa * t.d, t.kappa * t.beta
    max_steps, max_value = plan.limits.max_steps, plan.limits.max_value
    jumps, finish = plan.jumps, plan.finish
    exceptions: list[tuple[int, str]] = []
    # a jump may start only while steps <= jump_last, i.e. steps + k <= max_steps
    depth, jump_last = 0, -1
    if jumps is not None:
        depth, modulus, qmax = jumps.depth, jumps.modulus, jumps.qmax
        coeff, const, hit = jumps.coeff, jumps.const, jumps.hit
        jump_last = max_steps - depth
    # values below fin_cap look up their steps to the first member; above
    # small, a value is neither a member nor in the table
    fin_cap = 0 if finish is None else len(finish)
    small = max(max_elem, fin_cap - 1)
    for start in range(0, len(seeds), FRONTIER_SEEDS):
        part = seeds[start:start + FRONTIER_SEEDS]
        level = dict(zip(part, part))  # a live value -> the first seed of its walk
        joined = {}  # the first seed of a walk that joined another -> that one's
        failed = {}  # the first seed of a walk that ended with an exception -> status
        steps = 0
        while level:
            landed = {}
            for v, n in level.items():
                if v > small and steps <= jump_last:
                    q, r = divmod(v, modulus)
                    if hit[r] < q <= qmax:
                        v = coeff[r] * q + const[r]
                        if v in landed:
                            joined[n] = landed[v]
                        else:
                            landed[v] = n
                        continue
                s = steps
                while True:
                    if v <= small:
                        if v <= max_elem and v in members:
                            break
                        if v < fin_cap and 0 <= finish[v] <= max_steps - s:
                            break
                    if s >= max_steps:
                        failed[n] = STEP_CAP
                        break
                    if s <= jump_last:
                        q, r = divmod(v, modulus)
                        if hit[r] < q <= qmax:
                            v = coeff[r] * q + const[r]
                            s += depth
                            continue
                    r = v % sd
                    if r == 0:
                        v //= d
                    else:
                        v = (alpha * v + sb * r) // d
                    s += 1
                    if v > max_value:
                        failed[n] = VALUE_CAP
                        break
            level = landed
            steps += depth
        if failed:
            for n in part:
                walk = n
                while walk in joined:
                    walk = joined[walk]
                if walk in failed:
                    exceptions.append((n, failed[walk]))
    return exceptions


def _scan_survivors(plan: ScanPlan, lo: int, hi: int) -> list[tuple[int, str]]:
    """The descent loop of the shortcut over the seeds in [lo, hi], all
    above max_elem, whose classes mod M are in the plan's class list.  A
    seed n = M*m + r enters at its class's iterate k, a*m + b, when its
    lower guard holds (see `build_sieve`), and otherwise at n; it then
    jumps while the jump table's guards hold.  Where the lower guard alone
    refuses a jump, the seed ends with no exception when the jump's dip is
    below n (see `build_jumps`); otherwise, and where a cap refuses it, it
    steps one at a time to the end.

    Merged classes.  A seed n = M*m + r of a class merged into r0 < r is
    skipped when n0 = M*m + r0 is one of this call's seeds, was entered at
    step k and ended with no exception (see `build_sieve`); the seeds of
    the classes merged into a representative that was below lo, scanned
    from n0 or reported an exception are scanned afterwards in the same
    loop, from n, and the exceptions are then sorted.  Only the
    representatives in [r_lo - reach, r_lo) of the first block are looked
    up, r_lo = lo mod M: a class lies at most the class list's reach above
    its representative.  A representative that the dip exit ends has ended
    with no exception, and fell below itself by a step s <= max_steps under
    both caps, so the merge argument of `build_sieve` holds for it too."""
    t, jumps = plan.triplet, plan.jumps
    # the step rule of `Triplet.step_function`, one for both signs of kappa
    d, alpha, sd, sb = t.d, t.alpha, t.kappa * t.d, t.kappa * t.beta
    max_steps, max_value = plan.limits.max_steps, plan.limits.max_value
    exceptions: list[tuple[int, str]] = []
    # a jump may start only while steps <= jump_last, i.e. steps + k <= max_steps
    jump_last = -1
    if jumps is not None:
        jump_k, jump_mod, qmax = jumps.depth, jumps.modulus, jumps.qmax
        coeff, const = jumps.coeff, jumps.const
        low_c, low_p, dip_c, dip_p = jumps.low_c, jumps.low_p, jumps.dip_c, jumps.dip_p
        jump_last = max_steps - jump_k
    classes = plan.classes
    modulus, forms, merged = classes.modulus, classes.forms, classes.merged
    m, r_lo = divmod(lo, modulus)
    base = lo - r_lo
    start = bisect_left(forms, r_lo, key=_RESIDUE)
    while base <= hi:
        r_hi = hi - base
        todo = forms[start:bisect_right(forms, r_hi, key=_RESIDUE)]
        # the representatives whose merged seeds get scanned: first those
        # below lo that a class at or above lo can be merged into, then each
        # one scanned from n0 or ending with an exception
        dropped = {form[0] for form in
                   forms[bisect_left(forms, r_lo - classes.reach, key=_RESIDUE):start]}
        while True:
            for r, a, b, form_low_c, form_low_p, form_steps in todo:
                n = base + r
                if form_low_c * m + form_low_p >= n:
                    v = a * m + b
                    steps = form_steps
                else:
                    v = n
                    steps = 0
                    dropped.add(r)
                status = None
                # jumps while the guards hold, then the dip exit or single
                # steps to the end: the lower guard refused a jump to 104,488
                # of the 112,948 seeds scanned here to 3.5e6 on 2:3:1:+ and to
                # 162,192 of 221,396 to 2e6 on 10:12:8:+; the dip ends all of
                # them, which took 506,453 and 230,705 single steps without it
                while steps <= jump_last and v >= n:
                    q, r = divmod(v, jump_mod)
                    if q > qmax:
                        break
                    if low_c[r] * q + low_p[r] < n:
                        dip = dip_c[r] * q + dip_p[r]
                        if dip < n:
                            v = dip  # an iterate of v below n: the seed ends here
                        break
                    v = coeff[r] * q + const[r]
                    steps += jump_k
                # membership impossible while v >= n; pure descent test
                # (kept: merged into the membership loop, 1-worker scans ran 1.22-1.39x slower)
                while v >= n:
                    if steps >= max_steps:
                        status = STEP_CAP
                        break
                    r = v % sd
                    if r == 0:
                        v //= d
                    else:
                        v = (alpha * v + sb * r) // d
                    steps += 1
                    if v > max_value:
                        status = VALUE_CAP
                        break
                if status is not None:
                    exceptions.append((n, status))
                    dropped.add(n - base)  # r is rebound by the walk
            # each from n, by the form (r, M, r, M, r, 0) of `_FROM_N`; a merged
            # class lies above its representative, so only the classes merged
            # into one below lo can lie below lo too
            todo = [(r, modulus, r, modulus, r, 0) for rep in dropped
                    for r in merged.get(rep, ()) if r_lo <= r <= r_hi]
            if not todo:
                break
            dropped = set()  # the merged classes have no merged classes
        m += 1
        base += modulus
        start = r_lo = 0
    exceptions.sort()
    return exceptions


# the last plan a pool worker unpickled, as (its bytes, the plan): every
# chunk of a job carries the same bytes, so a worker unpickles each job's
# plan once, and a plan left from an earlier job is never used for this one
_last_plan: tuple[bytes, Optional[ScanPlan]] = (b"", None)


def _scan_task(task: tuple[bytes, int, int]) -> list[tuple[int, str]]:
    global _last_plan
    blob, lo, hi = task
    if blob != _last_plan[0]:
        _last_plan = (blob, pickle.loads(blob))
    return _scan_chunk(_last_plan[1], lo, hi)


# the process's kept pool and its size: created at the first job that needs
# more than one worker, reused by every later job that needs as many, and
# replaced when one needs another count; it lives until the process exits
_pool: Optional[tuple[int, ProcessPoolExecutor]] = None
_pool_lock = threading.Lock()


def _map_on_kept_pool(nworkers: int, tasks: list) -> list:
    """`_scan_task` over the tasks, in order, on the kept pool of nworkers
    workers, one batch of tasks per worker: the tasks of a batch travel
    pickled together, so a plan that they share is sent once per batch.  A
    dead worker fails the job: the pool is dropped, so the next job starts
    a fresh one, and BrokenProcessPool propagates."""
    global _pool
    with _pool_lock:
        if _pool is not None and _pool[0] != nworkers:
            _pool[1].shutdown()
            _pool = None
        if _pool is None:
            _pool = (nworkers, ProcessPoolExecutor(max_workers=nworkers))
        try:
            return list(_pool[1].map(_scan_task, tasks,
                                     chunksize=-(-len(tasks) // nworkers)))
        except BrokenProcessPool:
            _pool[1].shutdown()
            _pool = None
            raise


def _worker_count(workers: Optional[int]) -> int:
    """`workers`, else the number of CPUs this process may run on."""
    if workers is None:
        if hasattr(os, "sched_getaffinity"):
            workers = len(os.sched_getaffinity(0))
        else:
            workers = os.cpu_count() or 1
    return max(1, workers)


def verify_range(job: VerificationJob, workers: Optional[int] = None) -> Checkpoint:
    """Scan the whole range; deterministic exception list in seed order,
    independent of chunking and worker count."""
    _validate_targets(job)
    if job.below_frontier_shortcut and job.lo > 1 and job.prefix_verified_to < job.lo - 1:
        raise ShortcutUnsoundError(
            f"shortcut requires the prefix [1, {job.lo}) to be covered; "
            f"verified only up to {job.prefix_verified_to}")
    spans = [(a, min(a + job.chunk_size - 1, job.hi))
             for a in range(job.lo, job.hi + 1, job.chunk_size)]
    # extra workers would only cost spawn time, and then stay resident
    nworkers = min(_worker_count(workers), len(spans))
    start = time.perf_counter()
    t, limits, shortcut = job.triplet, job.limits, job.below_frontier_shortcut
    members = frozenset(x for c in job.targets for x in c.elements)
    max_elem = max(members)
    # no sieve under SIEVE_MODULUS_CAP is deeper than its log2, so every
    # step cap from there up shares one sieve
    sieve_steps = min(limits.max_steps, SIEVE_MODULUS_CAP.bit_length() - 1)
    # the builders are looked up here, at call time, so a replaced one is used
    plan = ScanPlan(
        t, members, max_elem, limits,
        _scan_classes(t, _memo_table(build_sieve, t, sieve_steps), job.hi, limits.max_value)
        if shortcut else None,
        _memo_table(build_jumps, t, max_elem, limits.max_value),
        None if shortcut else _memo_table(build_finish, t, members, limits.max_value))
    if nworkers == 1:
        results = [_scan_chunk(plan, lo, hi) for lo, hi in spans]
    else:
        # pickled once here, so the workers scan this job's plan as built
        # in this process, with whatever builders it looked up
        blob = pickle.dumps(plan, pickle.HIGHEST_PROTOCOL)
        results = _map_on_kept_pool(nworkers, [(blob, lo, hi) for lo, hi in spans])
    return Checkpoint(job, tuple(e for r in results for e in r), time.perf_counter() - start)


def resume(cp: Checkpoint, hi_new: int, workers: Optional[int] = None) -> Checkpoint:
    """Continue a checkpointed job up to hi_new.  A checkpoint's digest is
    derived from its job; a file's stored digest is checked when the file
    is loaded (`checkpoint_from_json_dict`).

    Every exception of the checkpoint lies past its frontier, and the scan
    of (frontier, hi_new] finds again each one up to hi_new, so that scan's
    exceptions are the whole result, and none lies past hi_new."""
    if hi_new <= cp.verified_frontier:
        raise InvalidTargetsError(
            f"nothing to do: hi_new={hi_new} <= frontier={cp.verified_frontier}")
    part = verify_range(replace(cp.job, lo=cp.verified_frontier + 1, hi=hi_new,
                                prefix_verified_to=cp.verified_frontier), workers=workers)
    return Checkpoint(replace(cp.job, hi=hi_new), part.exceptions,
                      cp.wall_time + part.wall_time)


# --- checkpoint files ---------------------------------------------------------

def checkpoint_to_json_dict(cp: Checkpoint) -> dict:
    return {
        "version": 1,
        "job": {
            "triplet": cp.job.triplet.to_json_dict(),
            "lo": str(cp.job.lo),
            "hi": str(cp.job.hi),
            "targets": [c.to_json_dict() for c in cp.job.targets],
            "max_steps": str(cp.job.limits.max_steps),
            "max_value": str(cp.job.limits.max_value),
            "chunk_size": cp.job.chunk_size,
            "below_frontier_shortcut": cp.job.below_frontier_shortcut,
            "prefix_verified_to": str(cp.job.prefix_verified_to),
        },
        "digest": cp.digest,
        "verified_frontier": str(cp.verified_frontier),
        "exceptions": [[str(n), status] for n, status in cp.exceptions],
        "seeds_scanned": str(cp.seeds_scanned),
        "wall_time": cp.wall_time,
        # strict JSON has no Infinity, the throughput of a zero wall time
        "throughput": cp.throughput if cp.wall_time > 0 else None,
    }


_DECIMAL = re.compile(r"-?[0-9]+")


def _json_int(value, key: str) -> int:
    """A checkpoint integer: a JSON integer, or a string of decimal digits
    with an optional minus sign, as `checkpoint_to_json_dict` writes them;
    int() would also load true as 1, 100.7 as 100 and " 1_0" as 10."""
    if type(value) is int or (type(value) is str and _DECIMAL.fullmatch(value)):
        return int(value)
    raise CheckpointError(f"malformed checkpoint: {key} {value!r} is not an integer")


def checkpoint_from_json_dict(doc: dict) -> Checkpoint:
    """Inverse of checkpoint_to_json_dict; CheckpointError when a field is
    missing or has the wrong type, or when the result contradicts the job,
    and DigestMismatchError when the stored digest is not the job's.

    The digest covers the job alone, so the result fields are checked
    against it: every status is step_cap or value_cap, the exception seeds
    increase strictly within [lo, hi], and the stored frontier and
    seeds_scanned are the ones the exceptions and the range give.  The
    wall time is a finite number >= 0; the stored throughput, derived from
    it, need only be a number, or null, as written for a zero wall time."""
    if not isinstance(doc, dict):
        raise CheckpointError("checkpoint is not a JSON object")
    version = doc.get("version")
    if type(version) is not int or version != 1:  # True == 1.0 == 1
        raise CheckpointError(f"unsupported checkpoint version {version!r}")
    try:
        jd = doc["job"]
        td = jd["triplet"]
        t = parse_triplet(f"{td['d']}:{td['alpha']}:{td['beta']}:{td['kappa']}")
        targets = []
        for c in jd["targets"]:
            targets.append(Cycle(
                elements=tuple(_json_int(x, "target element") for x in c["elements"]),
                omega=_json_int(c["omega"], "target omega"),
                length=_json_int(c["length"], "target length"),
                kbar=_json_int(c["kbar"], "target kbar"),
                max_elem=_json_int(c["max_elem"], "target max_elem"),
            ))
        # bool("false") is True, True is the integer 1, and float() loads "1e3"
        for node, key, kinds, word in ((jd, "chunk_size", (int,), "an integer"),
                                       (jd, "below_frontier_shortcut", (bool,), "true or false"),
                                       (doc, "wall_time", (int, float), "a number"),
                                       (doc, "throughput", (int, float, type(None)),
                                        "a number or null")):
            if type(node[key]) not in kinds:
                raise CheckpointError(f"malformed checkpoint: {key} {node[key]!r} is not {word}")
        job = VerificationJob(
            triplet=t,
            lo=_json_int(jd["lo"], "lo"),
            hi=_json_int(jd["hi"], "hi"),
            targets=tuple(targets),
            limits=Limits(max_steps=_json_int(jd["max_steps"], "max_steps"),
                          max_value=_json_int(jd["max_value"], "max_value")),
            chunk_size=jd["chunk_size"],
            below_frontier_shortcut=jd["below_frontier_shortcut"],
            prefix_verified_to=_json_int(jd["prefix_verified_to"], "prefix_verified_to"),
        )
        cp = Checkpoint(job, tuple((_json_int(n, "exception seed"), status)
                                   for n, status in doc["exceptions"]), float(doc["wall_time"]))
        digest = doc["digest"]
        frontier = _json_int(doc["verified_frontier"], "verified_frontier")
        seeds_scanned = _json_int(doc["seeds_scanned"], "seeds_scanned")
    except KeyError as exc:
        raise CheckpointError(f"checkpoint lacks field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from None
    if not 0 <= cp.wall_time < inf:  # json loads NaN and Infinity as floats
        raise CheckpointError(
            f"malformed checkpoint: wall_time {cp.wall_time!r} is not a finite number >= 0")
    if digest != cp.digest:
        raise DigestMismatchError("checkpoint digest does not match its job")
    for n, status in cp.exceptions:
        if status not in (STEP_CAP, VALUE_CAP):
            raise CheckpointError(f"checkpoint exception {n} has unknown status {status!r}")
    chain = [job.lo - 1, *(n for n, _status in cp.exceptions), job.hi + 1]
    if any(a >= b for a, b in zip(chain, chain[1:])):
        raise CheckpointError(
            f"checkpoint exceptions do not increase strictly within [{job.lo}, {job.hi}]")
    if frontier != cp.verified_frontier:
        raise CheckpointError(
            f"checkpoint frontier {frontier} contradicts its exceptions "
            f"and range: expected {cp.verified_frontier}")
    if seeds_scanned != cp.seeds_scanned:
        raise CheckpointError(
            f"checkpoint seeds_scanned {seeds_scanned} is not the size of "
            f"[{job.lo}, {job.hi}]")
    return cp


def save_checkpoint(cp: Checkpoint, path: str) -> None:
    """Atomic, durable write: temp file in the same directory, flushed and
    fsynced, then renamed over path, and the directory fsynced so the
    rename survives a crash.  On any failure before the rename the temp
    file is removed and path keeps its previous content."""
    doc = checkpoint_to_json_dict(cp)
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".{os.path.basename(path)}.tmp.{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise CheckpointError(f"checkpoint {path} is not JSON: {exc}") from None
    return checkpoint_from_json_dict(doc)
