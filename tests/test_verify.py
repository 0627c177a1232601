import json
import multiprocessing
import os
import signal
import stat
import threading
import tracemalloc
from array import array
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from collatzkit import (CheckpointError, DigestMismatchError, InvalidTargetsError, Limits,
                        ShortcutUnsoundError, VerificationJob,
                        build_two_power_family, detect_cycle_from,
                        load_checkpoint, parse_triplet, resume,
                        save_checkpoint, verify, verify_range)
from collatzkit.core import PLUS, Triplet
from collatzkit.dynamics import DEFAULT_MAX_STEPS, Cycle, enumerate_cycles
from collatzkit.verify import (_FROM_N, FINISH_CAP, FINISH_STEPS, Checkpoint, ScanPlan,
                               _scan_chunk, _scan_classes, _scan_frontier, build_finish,
                               build_jumps, build_sieve, checkpoint_from_json_dict,
                               checkpoint_to_json_dict, job_digest)

T10128 = parse_triplet("10:12:8:+")
T231 = parse_triplet("2:3:1:+")
OMEGA4 = detect_cycle_from(T10128, 4)
OMEGA1 = detect_cycle_from(T231, 1)


T3241 = parse_triplet("3:4:1:-")
T8124 = parse_triplet("8:12:4:+")
T34m1 = parse_triplet("3:4:-1:+")
T23m1 = parse_triplet("2:3:-1:+")
T257 = parse_triplet("257:258:256:+")  # sieve depth 1
T41054 = parse_triplet("4:10:54:+")  # gcd(alpha, d) = 2
T364032 = parse_triplet("36:40:32:+")  # gcd(alpha, d) = 4
T35m1m = parse_triplet("3:5:-1:-")  # kappa = -1 with beta < 0
TARGETS = {
    T231: (OMEGA1,),
    T10128: (OMEGA4,),
    T3241: (detect_cycle_from(T3241, 1), detect_cycle_from(T3241, 7)),
    T8124: (detect_cycle_from(T8124, 1), detect_cycle_from(T8124, 67)),
    # the cycles with no element above 300; many orbits end in larger ones
    T41054: tuple(detect_cycle_from(T41054, m) for m in (1, 2, 3, 6, 7, 9, 18, 27)),
    T364032: (detect_cycle_from(T364032, 8),),
    T35m1m: (detect_cycle_from(T35m1m, 1),),  # seeds to 2,000 reach no other cycle
}
CYCLE_MEMBERS = {t: frozenset(x for c in cycles for x in c.elements)
                 for t, cycles in TARGETS.items()}
CYCLE_MEMBERS[T34m1] = frozenset({1, 2})  # two fixed points


def job(t, lo, hi, targets, **kw):
    return VerificationJob(triplet=t, lo=lo, hi=hi, targets=targets, **kw)


def report_bytes(cp) -> str:
    """The deterministic part of a checkpoint (all but the timings)."""
    doc = checkpoint_to_json_dict(cp)
    del doc["wall_time"], doc["throughput"]
    return json.dumps(doc)


def oracle_exceptions(t: Triplet, lo: int, hi: int, members, limits: Limits,
                      shortcut: bool) -> list[tuple[int, str]]:
    """The exceptions of [lo, hi] walked one seed and one step at a time,
    with none of verify's tables: a seed ends at a member or, under the
    shortcut, below itself; else at the step cap, or past the value cap."""
    step, out = t.step_function(), []
    for n in range(lo, hi + 1):
        v, steps = n, 0
        while v not in members and not (shortcut and v < n):
            if steps >= limits.max_steps:
                out.append((n, "step_cap"))
                break
            v, steps = step(v), steps + 1
            if v > limits.max_value:
                out.append((n, "value_cap"))
                break
    return out


def assert_tables_keep_report(j, workers=1):
    """verify_range with its tables against the same scan with the sieve
    alone, and the exceptions of both against the oracle's."""
    full = verify_range(j, workers=workers)
    with mock.patch.object(verify, "build_jumps", lambda *args: None), \
            mock.patch.object(verify, "build_finish", lambda *args: None):
        sieve_only = verify_range(j, workers=1)
    assert report_bytes(full) == report_bytes(sieve_only)
    members = frozenset(x for c in j.targets for x in c.elements)
    assert list(full.exceptions) == oracle_exceptions(j.triplet, j.lo, j.hi, members, j.limits,
                                                      j.below_frontier_shortcut)
    return full


def refined(t: Triplet, max_steps: int = DEFAULT_MAX_STEPS, doctor=lambda form: form):
    """build_sieve(t, max_steps) with each survivor that `_refine` leaves it,
    as a form (r, a, b, low_c, low_p, k), replaced by doctor(form), so that
    the real merge runs on the doctored survivors; and those survivors, in
    order of r: every class the sieve keeps, merged or not."""
    refine, survivors = verify._refine, []

    def doctored(*args):
        depth, modulus, live = refine(*args)
        for i, (r, a, b, k, floor, low_c, low_p) in enumerate(live):
            survivors.append(doctor((r, a, b, low_c, low_p, k)))
            r, a, b, low_c, low_p, k = survivors[-1]
            live[i] = (r, a, b, k, floor, low_c, low_p)
        return depth, modulus, live

    with mock.patch.object(verify, "_refine", doctored):
        return build_sieve(t, max_steps), survivors


def listed_forms(classes, survivors) -> list:
    """The forms of a class list's representatives and, read from the
    survivors, of the residues merged into them, in order of r."""
    form_of = {form[0]: form for form in survivors}
    return sorted(classes.forms + [form_of[r] for kept in classes.merged.values() for r in kept])


def fixed_steps(t: Triplet, r: int, modulus: int) -> list[tuple[int, int, int]]:
    """(alpha^(o_j), d^j, T^j(r)) for each step j that the class of r mod M
    fixes: iterate j of M*m + r is M*alpha^(o_j)/d^j * m + T^j(r), and step
    j + 1 is the same for the whole class while d divides that coefficient."""
    out, v, o, j = [], r, 0, 0
    while modulus * t.alpha**o % t.d**(j + 1) == 0:
        res = v % t.d
        if res:
            o += 1
            v = (t.alpha * v + t.beta * (res if t.kappa == PLUS else t.d - res)) // t.d
        else:
            v //= t.d
        j += 1
        out.append((t.alpha**o, t.d**j, v))
    return out


def sieved_by_rule(t: Triplet, r: int, modulus: int) -> bool:
    """The sieve rule evaluated directly on one residue r mod M."""
    return r == 0 or any(power <= d_j and v < r
                         for power, d_j, v in fixed_steps(t, r, modulus))


def value_bound(t: Triplet, steps: int, hi: int) -> int:
    """The closed-form bound (alpha/d)^steps * (hi + c), c = |beta|*(d-1)/(alpha-d),
    on iterates 1..steps of every seed n <= hi, rounded down: the value
    bound of `_scan_classes` at steps = sieve depth."""
    d, alpha = t.d, t.alpha
    return alpha**steps * (hi * (alpha - d) + abs(t.beta) * (d - 1)) // (d**steps * (alpha - d))


class TestVerifyRange:
    def test_two_power_range_small(self):
        cp = verify_range(job(T10128, 1, 10**5, (OMEGA4,)), workers=1)
        assert cp.exceptions == ()
        assert cp.verified_frontier == 10**5
        assert cp.seeds_scanned == 10**5

    def test_classical_range_small(self):
        cp = verify_range(job(T231, 1, 10**5, (OMEGA1,)), workers=1)
        assert cp.exceptions == ()
        assert cp.verified_frontier == 10**5

    def test_shortcut_equivalence(self):
        for t, target in ((T10128, OMEGA4), (T231, OMEGA1)):
            on = verify_range(job(t, 1, 10**5, (target,)), workers=1)
            off = verify_range(job(t, 1, 10**5, (target,),
                                   below_frontier_shortcut=False), workers=1)
            assert on.exceptions == off.exceptions == ()

    def test_schedule_independence(self):
        runs = [
            verify_range(job(T10128, 1, 30000, (OMEGA4,), chunk_size=30000), workers=1),
            verify_range(job(T10128, 1, 30000, (OMEGA4,), chunk_size=1024), workers=1),
            verify_range(job(T10128, 1, 30000, (OMEGA4,), chunk_size=4096), workers=2),
        ]
        assert all(r.exceptions == runs[0].exceptions for r in runs)
        assert all(r.verified_frontier == runs[0].verified_frontier for r in runs)

    def test_exceptions_recorded_and_frontier(self):
        # under severe caps the wandering orbits of this triplet get recorded
        t = parse_triplet("3:8:19:+")
        targets = tuple(detect_cycle_from(t, m) for m in (1, 2, 19, 38))
        cp = verify_range(job(t, 1, 200, targets,
                              limits=Limits(max_steps=64, max_value=10**9),
                              below_frontier_shortcut=False), workers=1)
        assert cp.exceptions, "expected undecided seeds at these caps"
        assert cp.verified_frontier == cp.exceptions[0][0] - 1
        statuses = {s for _n, s in cp.exceptions}
        assert statuses <= {"step_cap", "value_cap"}
        again = verify_range(job(t, 1, 200, targets,
                                 limits=Limits(max_steps=64, max_value=10**9),
                                 below_frontier_shortcut=False), workers=1)
        assert again.exceptions == cp.exceptions

    def test_minus_residue_triplet(self):
        t = parse_triplet("3:4:1:-")
        targets = (detect_cycle_from(t, 1), detect_cycle_from(t, 7))
        cp = verify_range(job(t, 1, 10**4, targets), workers=1)
        assert cp.exceptions == ()
        off = verify_range(job(t, 1, 10**4, targets,
                               below_frontier_shortcut=False), workers=1)
        assert off.exceptions == ()

    def test_non_target_cycle_shows_up_as_exception(self):
        t = parse_triplet("8:12:4:+")
        omega1 = detect_cycle_from(t, 1)
        omega67 = detect_cycle_from(t, 67)
        cp = verify_range(job(t, 1, 100, (omega1,),
                              limits=Limits(max_steps=10**4)), workers=1)
        assert (67, "step_cap") in cp.exceptions
        assert cp.verified_frontier < 67
        both = verify_range(job(t, 1, 100, (omega1, omega67),
                                limits=Limits(max_steps=10**4)), workers=1)
        assert both.exceptions == ()

    def test_empty_targets_rejected(self):
        with pytest.raises(InvalidTargetsError):
            verify_range(job(T10128, 1, 100, ()))

    def test_fake_target_rejected(self):
        fake = Cycle(elements=(5, 7), omega=5, length=2, kbar=2, max_elem=7)
        with pytest.raises(InvalidTargetsError):
            verify_range(job(T10128, 1, 100, (fake,)))

    def test_non_positive_target_rejected(self):
        # T(0) = 0 in the formula, but 0 is off the map's domain
        zero = Cycle(elements=(0,), omega=0, length=1, kbar=0, max_elem=0)
        with pytest.raises(InvalidTargetsError, match="not a positive integer"):
            verify_range(job(T231, 1, 100, (OMEGA1, zero)))

    def test_wrong_minimum_rejected(self):
        rotated = Cycle(elements=(8, 16, 24, 32, 40, 4), omega=8, length=6,
                        kbar=5, max_elem=40)
        with pytest.raises(InvalidTargetsError):
            verify_range(job(T10128, 1, 100, (rotated,)))

    def test_shortcut_needs_covered_prefix(self):
        with pytest.raises(ShortcutUnsoundError):
            verify_range(job(T10128, 1000, 2000, (OMEGA4,)))
        # fine without the shortcut
        cp = verify_range(job(T10128, 1000, 2000, (OMEGA4,),
                              below_frontier_shortcut=False), workers=1)
        assert cp.exceptions == ()
        # and fine when the prefix is covered
        cp = verify_range(job(T10128, 1000, 2000, (OMEGA4,),
                              prefix_verified_to=999), workers=1)
        assert cp.exceptions == ()

    def test_seed_inside_target_cycle(self):
        cp = verify_range(job(T10128, 4, 40, (OMEGA4,),
                              below_frontier_shortcut=False), workers=1)
        assert cp.exceptions == ()


class TestResidueSieve:
    def test_depth_is_largest_under_the_cap(self):
        # M = d * s^(L-1) with s = d // gcd(alpha, d); depth L
        classical = build_sieve(T231, DEFAULT_MAX_STEPS)
        two_power = build_sieve(T10128, DEFAULT_MAX_STEPS)
        assert (classical.depth, classical.modulus) == (16, 1 << 16)
        assert (two_power.depth, two_power.modulus) == (6, 31250)  # 10 * 5^5
        sieve = build_sieve(T364032, DEFAULT_MAX_STEPS)
        assert (sieve.depth, sieve.modulus) == (4, 26244)  # 36 * 9^3
        assert build_sieve(Triplet(65537, 65538, 65536, 1), DEFAULT_MAX_STEPS) is None

    @pytest.mark.parametrize("t", sorted(TARGETS, key=str), ids=str)
    def test_depth_follows_the_step_cap(self, t):
        # a sieve built for a step cap is no deeper than the cap, so no form
        # enters past it, and a run under the cap reports as without tables
        deepest = build_sieve(t, DEFAULT_MAX_STEPS).depth
        for max_steps in range(1, deepest + 2):
            sieve, survivors = refined(t, max_steps)
            assert sieve.depth == min(max_steps, deepest)
            assert sieve.modulus == t.d * (t.d // gcd(t.alpha, t.d)) ** (sieve.depth - 1)
            assert all(form[5] <= sieve.depth for form in survivors)
            for workers in (1, 2):
                assert_tables_keep_report(job(t, 1, 12_000, TARGETS[t], chunk_size=5_000,
                                              limits=Limits(max_steps=max_steps)), workers)

    def test_survivor_count_classical(self):
        # 3.2% of the classes mod 2^16 still need a scan; 2115, not 2116,
        # since class 0 is sieved: iterate 1 of 2^16*m is 2^15*m < 2^16*m
        assert len(refined(T231)[1]) == 2115

    @pytest.mark.parametrize("t", [T231, T10128, T3241, T8124, T41054, T364032, T257],
                             ids=str)
    def test_no_sieve_keeps_class_zero(self, t):
        assert refined(t)[1][0][0] > 0

    @pytest.mark.parametrize("t", [T10128, T8124, T3241, T41054, T364032], ids=str)
    def test_survivors_follow_the_rule(self, t):
        sieve, survivors = refined(t)
        expected = [r for r in range(sieve.modulus)
                    if not sieved_by_rule(t, r, sieve.modulus)]
        assert [form[0] for form in survivors] == expected

    @pytest.mark.parametrize("t, lo, hi, chunk, workers", [
        (T231, 1, 200_000, 1 << 16, 1),
        (T231, 1, 200_000, 30_001, 2),
        (T10128, 1, 100_000, 3_001, 1),
        (T3241, 1, 100_000, 10_000, 1),
        (T231, 123_457, 300_000, 50_000, 1),  # resumed, lo not aligned
        (T10128, 54_322, 90_000, 7_777, 1),
        (T8124, 1, 200_000, 1 << 16, 1),  # survivors enter at steps 10-14
        (T41054, 1, 100_000, 20_000, 2),
        (T364032, 1, 46_000, 5_000, 1),
        (T364032, 30_001, 46_000, 4_001, 1),
    ], ids=str)
    def test_report_unchanged(self, t, lo, hi, chunk, workers):
        j = job(t, lo, hi, TARGETS[t], chunk_size=chunk, prefix_verified_to=lo - 1)
        # under the default caps the sieve is used: the list is the survivors,
        # each listed or merged into its representative
        sieve, survivors = refined(t)
        assert listed_forms(_scan_classes(t, sieve, hi, j.limits.max_value), survivors) == survivors
        cp = assert_tables_keep_report(j, workers)
        assert cp.seeds_scanned == hi - lo + 1
        # seed 10 of 4:10:54:+ ends in the cycle of 342 and never falls below 10
        assert (cp.exceptions != ()) == (t == T41054)

    @pytest.mark.parametrize("lo, chunk", [(1, 1 << 16), (1, 33), (67, 1 << 16)])
    def test_non_target_cycle_kept(self, lo, chunk):
        # chunk 33 and lo 67 start a chunk on the exception seed itself
        cp = assert_tables_keep_report(
            job(T8124, lo, 100, TARGETS[T8124][:1], limits=Limits(max_steps=10**4),
                chunk_size=chunk, prefix_verified_to=lo - 1))
        assert (67, "step_cap") in cp.exceptions

    @pytest.mark.parametrize("t", sorted(TARGETS, key=str) + [T34m1, T23m1, T257], ids=str)
    def test_sieved_seeds_descend_under_the_peak_bound(self, t):
        # every seed of a sieved class falls below itself within depth steps,
        # its iterates up to there under the value bound at the seed
        # the survivors are those of `_refine`: a merged class is no sieved one
        sieve, forms = refined(t)
        survivors = {form[0] for form in forms}
        step = t.step_function()
        for r in range(sieve.modulus):
            if r in survivors:
                continue
            for m in (0, 1, 10**6 + r):
                n = sieve.modulus * m + r
                if n == 0:
                    continue
                bound = value_bound(t, sieve.depth, n)
                v, steps = step(n), 1
                while v >= n:
                    assert v <= bound
                    v, steps = step(v), steps + 1
                assert v <= bound and steps <= sieve.depth
        # and every iterate k <= depth of every seed n <= hi, walked, is
        # under the bound at k and n, so under the sieve's gate at hi
        hi = 5_000
        top = 0
        for n in range(1, hi + 1):
            for k, v in enumerate(iterates(t, n, sieve.depth), 1):
                assert v <= value_bound(t, k, n)
                top = max(top, v)
        assert top <= value_bound(t, sieve.depth, hi)

    @pytest.mark.parametrize("t", [T231, T10128, T3241, T8124, T257, T41054, T364032],
                             ids=str)
    def test_survivor_forms_are_iterate_k_within_their_bounds(self, t):
        sieve, survivors = refined(t)
        for forms in (sieve.forms, survivors):  # `_scan_survivors` bisects the listed ones
            residues = [entry[0] for entry in forms]
            assert residues == sorted(set(residues))
        for r, *_form, k in survivors:
            assert 1 <= k == len(fixed_steps(t, r, sieve.modulus)) <= sieve.depth
        for m in (0, 1, 7, 10**6, 10**12):
            for r, a, b, low_c, low_p, k in survivors[::7]:
                n = sieve.modulus * m + r
                inside = iterates(t, n, k)
                assert inside[-1] == a * m + b
                assert max(inside) <= value_bound(t, k, n)
                if k > 1:
                    assert min(inside[:-1]) >= low_c * m + low_p
                else:  # no iterate before step k: the bound admits every seed
                    assert low_c * m + low_p > n

    @pytest.mark.parametrize("low_below_n, cap_below, entered", [
        (False, 0, True),
        (True, 0, False),
        (False, 1, False),
    ], ids=["all-hold", "lower-guard", "value-guard"])
    def test_survivor_entered_at_step_k_exactly_when_the_guards_hold(
            self, low_below_n, cap_below, entered):
        # a doctored sieve whose survivor of 2^40 - 1 lands on 1 at step k,
        # below the seed, so an entry shows as a descended seed; 2^40 - 1
        # rises for 40 steps, to 3^16 * 2^24 - 1 at step 16, one below the
        # value bound at n; each guard is put one past its bound, the value
        # cap at the bound or one below it; the other survivors keep their
        # forms, so none merges
        n = 2**40 - 1
        sieve = build_sieve(T231, DEFAULT_MAX_STEPS)
        max_value = value_bound(T231, sieve.depth, n) - cap_below
        assert max_value == 3**16 * 2**24 - cap_below
        form = (n % sieve.modulus, 0, 1, 0, n - 1 if low_below_n else n, sieve.depth)
        doctored, survivors = refined(T231, doctor=lambda own: form if own[0] == form[0] else own)
        assert form in survivors
        # the class list decides the value guard, the scan the lower one
        classes = _scan_classes(T231, doctored, n, max_value)
        assert (classes is _FROM_N) == (cap_below > 0)
        assert not doctored.merged
        plan = scan_plan(T231, {1, 2}, max_steps=sieve.depth,
                         max_value=max_value, classes=classes)
        assert _scan_chunk(plan, n, n) == ([] if entered else [(n, "step_cap")])

    @pytest.mark.parametrize("k, entered", [(15, True), (16, False)])
    def test_survivor_entered_at_its_own_step(self, k, entered):
        # a doctored sieve whose survivor of n lands on 2n - 2 at step k, one
        # step above n - 1: from step 15 the seed descends at step 16, from
        # step 16 it meets the step cap 16 first; the other survivors keep
        # their forms, so none merges and n is entered at its own step
        n = 2**40 - 1
        sieve = build_sieve(T231, DEFAULT_MAX_STEPS)
        form = (n % sieve.modulus, 0, 2 * n - 2, 0, n, k)
        doctored, survivors = refined(T231, doctor=lambda own: form if own[0] == form[0] else own)
        classes = _scan_classes(T231, doctored, n, Limits().max_value)
        assert form in survivors
        assert not classes.merged and classes.forms == survivors
        plan = scan_plan(T231, {1, 2}, max_steps=sieve.depth, classes=classes)
        assert _scan_chunk(plan, n, n) == ([] if entered else [(n, "step_cap")])

    @pytest.mark.parametrize("t", sorted(TARGETS, key=str), ids=str)
    def test_sieve_dropped_one_below_its_largest_level_bound(self, t):
        # a value cap at the value bound at hi for the sieve's depth, the
        # largest of the bounds for steps 1..depth, keeps the whole sieve;
        # one unit below it, every seed is scanned from n
        sieve = build_sieve(t, DEFAULT_MAX_STEPS)
        hi = 2 * sieve.modulus + 5
        bound = value_bound(t, sieve.depth, hi)
        assert _scan_classes(t, sieve, hi, bound) is sieve
        assert _scan_classes(t, sieve, hi, bound - 1) is _FROM_N
        assert _scan_classes(t, None, hi, bound) is _FROM_N
        assert_tables_keep_report(job(t, 1, hi, TARGETS[t], chunk_size=20_000,
                                      limits=Limits(max_value=bound - 1)))

    @settings(max_examples=100, deadline=None)
    @given(t=st.sampled_from(sorted(TARGETS, key=str)),
           lo=st.integers(1, 300_000), size=st.integers(0, 1500),
           chunk=st.integers(1, 2000), max_steps=st.integers(1, 200),
           max_value=st.integers(3, 40).map(lambda e: 2**e))
    def test_report_unchanged_property(self, t, lo, size, chunk, max_steps, max_value):
        assert_tables_keep_report(job(
            t, lo, lo + size, TARGETS[t], chunk_size=chunk, prefix_verified_to=lo - 1,
            limits=Limits(max_steps=max_steps, max_value=max_value)))


def descent_status(t: Triplet, n: int, limits: Limits):
    """The shortcut's descent of seed n walked one step at a time: None when
    n falls below itself within the caps, else the cap it meets first."""
    step = t.step_function()
    v, steps = n, 0
    while v >= n:
        if steps >= limits.max_steps:
            return "step_cap"
        v, steps = step(v), steps + 1
        if v > limits.max_value:
            return "value_cap"
    return None


class TestMergedClasses:
    @pytest.mark.parametrize("t", sorted(TARGETS, key=str), ids=str)
    def test_merged_classes_share_iterate_k_with_their_representative(self, t):
        classes, survivors = refined(t)
        listed = {form[0]: form for form in classes.forms}
        form_of = {form[0]: form for form in survivors}
        # the listed and the merged residues are the survivors, each once,
        # and a listed class keeps its survivor's form
        assert sorted([*listed, *(r for kept in classes.merged.values() for r in kept)]) == \
            [form[0] for form in survivors]
        assert all(form_of[r] == form for r, form in listed.items())
        seen = set()
        for rep, kept in classes.merged.items():
            r0, a, b, _low_c, _low_p, k = listed[rep]
            assert kept == sorted(kept)
            for r in kept:
                _r, a_r, b_r, _low_c, _low_p, k_r = form_of[r]
                assert r0 < r and (a_r, b_r, k_r) == (a, b, k)
                for m in range(4):
                    n0, n = classes.modulus * m + r0, classes.modulus * m + r
                    assert iterates(t, n, k)[-1] == iterates(t, n0, k)[-1] == a * m + b
        # the representative is the smallest survivor of its entry form
        for r, a, b, _low_c, _low_p, k in survivors:
            assert (r in listed) == ((a, b, k) not in seen)
            seen.add((a, b, k))

    def test_merge_counts(self):
        merged = {t: sum(len(kept) for kept in build_sieve(t, DEFAULT_MAX_STEPS).merged.values())
                  for t in (T10128, T364032, T8124, T3241, T41054, T231)}
        assert merged == {T10128: 5758, T364032: 16565, T8124: 118, T3241: 83,
                          T41054: 1, T231: 0}
        classes, survivors = refined(T10128)
        assert (len(classes.forms), len(survivors)) == (3459, 9217)

    @pytest.mark.parametrize("t, limits", [
        (T10128, Limits(max_steps=8)),
        (T364032, Limits(max_steps=6)),
        (T8124, Limits(max_steps=16)),
        (T3241, Limits(max_steps=12)),
        (T10128, "largest bound"),
        (T364032, "largest bound"),
        (T3241, "largest bound"),
    ], ids=str)
    def test_representative_reporting_a_cap(self, t, limits):
        # the sieve is used, and merged seeds report step_cap or value_cap
        # together with their representatives: the merged seeds of those
        # blocks are scanned from n
        sieve, survivors = refined(t)
        hi = 2 * sieve.modulus + 5_000
        if limits == "largest bound":
            limits = Limits(max_value=value_bound(t, sieve.depth, hi))
        classes = _scan_classes(t, sieve, hi, limits.max_value)
        assert classes.merged and listed_forms(classes, survivors) == survivors
        cp = assert_tables_keep_report(job(t, 1, hi, TARGETS[t], limits=limits,
                                           chunk_size=7_000))
        failed = dict(cp.exceptions)
        pairs = [(sieve.modulus * m + rep, sieve.modulus * m + r)
                 for rep, kept in classes.merged.items() for r in kept for m in (1, 2)]
        assert any(n0 in failed and n in failed for n0, n in pairs)

    @pytest.mark.parametrize("chunk", [1 << 16, 1_000, 1])
    def test_representative_below_lo(self, chunk):
        # lo lies between a representative and the seeds merged into it, and
        # the merged seeds report step_cap: they are scanned, not skipped
        sieve, limits = build_sieve(T10128, DEFAULT_MAX_STEPS), Limits(max_steps=8)
        classes = _scan_classes(T10128, sieve, 2 * sieve.modulus, limits.max_value)
        rep, kept = next((rep, kept) for rep, kept in classes.merged.items()
                         if descent_status(T10128, sieve.modulus + kept[-1], limits))
        lo, hi = sieve.modulus + rep + 1, sieve.modulus + kept[-1]
        cp = assert_tables_keep_report(job(T10128, lo, hi, TARGETS[T10128], limits=limits,
                                           chunk_size=chunk, prefix_verified_to=lo - 1))
        assert (hi, "step_cap") in cp.exceptions

    @pytest.mark.parametrize("t", sorted(TARGETS, key=str), ids=str)
    def test_reach_is_the_largest_distance_to_a_representative(self, t):
        classes = build_sieve(t, DEFAULT_MAX_STEPS)
        assert classes.reach == max((r - rep for rep, kept in classes.merged.items()
                                     for r in kept), default=0)
        assert classes.reach == {T10128: 7, T364032: 54, T8124: 2}.get(t, classes.reach)
        assert _FROM_N.reach == 0

    @pytest.mark.parametrize("t, limits", [(T10128, Limits(max_steps=8)),
                                           (T364032, Limits(max_steps=16))], ids=str)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_resume_between_a_representative_and_its_merged_class(self, t, limits, workers):
        # a resume's lo strictly between n0 and a seed n merged into it at
        # the reach, or at n, where n0 is the first representative looked
        # up; n reports an exception, so it is scanned, not lost
        classes = build_sieve(t, limits.max_steps)
        modulus = classes.modulus
        n0, n = next((modulus * m + rep, modulus * m + r)
                     for m in range(1, 6) for rep, kept in classes.merged.items()
                     for r in kept if r - rep == classes.reach
                     and descent_status(t, modulus * m + r, limits))
        for lo in (n0 + 1, n - 1, n):
            cp = assert_tables_keep_report(job(t, lo, n + 5_000, TARGETS[t], limits=limits,
                                               chunk_size=997, prefix_verified_to=lo - 1),
                                           workers)
            assert n in dict(cp.exceptions)

    @pytest.mark.parametrize("t, limits", [(T10128, Limits()), (T10128, Limits(max_steps=8)),
                                           (T364032, Limits(max_steps=6))], ids=str)
    def test_representative_refused_by_its_lower_guard(self, t, limits):
        # a sieve whose representatives' lower bounds are 0, still true but
        # never at least the seed: each representative is scanned from n0,
        # and the seeds merged into it from n
        reps = set(build_sieve(t, DEFAULT_MAX_STEPS).merged)
        doctored, _ = refined(t, doctor=lambda form: (*form[:3], 0, 0, form[5])
                              if form[0] in reps else form)
        assert doctored.merged.keys() == reps
        with mock.patch.object(verify, "build_sieve", lambda *args: doctored):
            assert_tables_keep_report(job(t, 1, 2 * doctored.modulus + 5_000, TARGETS[t],
                                          limits=limits, chunk_size=20_000))

    @pytest.mark.parametrize("case, lo_past_n0, expected", [
        ("skipped", False, []),
        ("scanned-from-n0", False, ["value_cap"]),
        ("scanned-from-n0-to-a-cap", False, ["step_cap", "step_cap"]),
        ("exception", False, ["value_cap", "value_cap"]),
        ("below-lo", True, ["value_cap"]),
        ("other-k", False, ["step_cap"]),
        ("from-n", False, ["step_cap", "step_cap"]),
        ("from-n-below-lo", True, ["step_cap"]),
    ])
    def test_merged_seed_skipped_exactly_when_its_representative_decides_it(
            self, case, lo_past_n0, expected):
        # a doctored sieve in which the survivor r of 2^40 - 1 and the one
        # just below it, r0, share an entry form a*m + b = B at step k, and
        # the value bound fits, so the list is the sieve's own with its merges;
        # the scan of [n0, n] (or [n0 + 1, n]) visits only their seeds, and
        # shows which of them report what.  A seed n that n0 does not decide
        # is scanned from n, not entered at its own form: 2^40 - 1 rises for
        # 40 steps and peaks at about 1.2e19 before it falls below itself,
        # n0 at about 1.0e13
        n = 2**40 - 1
        sieve, forms = refined(T231)
        r = n % sieve.modulus
        survivors = [form[0] for form in forms]
        r0 = survivors[survivors.index(r) - 1]
        n0 = n - r + r0
        max_steps, max_value, k0 = 16, 10**16, 16
        top = max_value - 1  # odd: its next iterate exceeds max_value
        if case == "skipped":  # n0 descends from B; n, by its own guard, would step to the cap
            b, low0, low = n0 - 1, n0, n - 1
        elif case == "scanned-from-n0":  # n0 refused: its real walk descends
            b, low0, low, max_steps = top, n0 - 1, n, 10**5
        elif case == "scanned-from-n0-to-a-cap":  # n0 refused: its real walk meets the cap
            b, low0, low = top, n0 - 1, n
        elif case in ("exception", "below-lo"):  # both enter at B and meet the value cap
            b, low0, low, max_steps = top, n0, n, 10**5
        elif case.startswith("from-n"):  # B = 1 is below both; n0 refused meets the cap
            b, low0, low = 1, n0 - 1, n
        else:  # n0 descends one step after B at step 15; n meets the step cap at B
            b, low0, low, k0 = 2 * n0 - 2, n0, n, 15
        forms = {r0: (r0, 0, b, 0, low0, k0), r: (r, 0, b, 0, low, 16)}
        doctored, _ = refined(T231, doctor=lambda form: forms.get(form[0], form))
        classes = _scan_classes(T231, doctored, n, max_value)
        assert classes is doctored
        assert any(form[0] == r for form in classes.forms) == (case == "other-k")
        plan = scan_plan(T231, {1, 2}, max_steps=max_steps,
                         max_value=max_value, classes=classes)
        lo = n0 + 1 if lo_past_n0 else n0
        assert _scan_chunk(plan, lo, n) == [(seed, status) for seed, status in
                                            zip([n0, n][-len(expected):] if expected else [],
                                                expected)]


def scan_plan(t, members, max_steps=10**5, max_value=10**30,
              classes=None, jumps=None, finish=None):
    """A `_scan_chunk` plan, by default for a scan without the shortcut and
    without tables."""
    members = frozenset(members)
    return ScanPlan(t, members, max(members), Limits(max_steps=max_steps, max_value=max_value),
                    classes, jumps, finish)


def assert_tables_keep_scan(t, lo, hi, members, **caps):
    """_scan_chunk without the shortcut, with neither table, with its jump
    table and its finish table, each alone and both together, against the
    oracle."""
    plan = scan_plan(t, members, **caps)
    jumps = build_jumps(t, plan.max_elem, plan.limits.max_value)
    finish = build_finish(t, plan.members, plan.limits.max_value)
    expected = oracle_exceptions(t, lo, hi, plan.members, plan.limits, shortcut=False)
    for tables in ((None, None), (jumps, None), (None, finish), (jumps, finish)):
        assert _scan_chunk(replace(plan, jumps=tables[0], finish=tables[1]), lo, hi) == expected
    return expected


def iterates(t: Triplet, n: int, k: int) -> list[int]:
    step = t.step_function()
    out = []
    for _ in range(k):
        n = step(n)
        out.append(n)
    return out


def jump_peak(t: Triplet) -> tuple[int, int]:
    """The C and P of the jump table's value guard, walked directly: the
    largest coefficient and the largest constant of iterates 1..k of
    d^k*q + r over the residues r."""
    jumps = build_jumps(t, 1, 10**30)
    coeff = const = 0
    for r in range(jumps.modulus):
        for low, high in zip(iterates(t, r, jumps.depth) if r else [0] * jumps.depth,
                             iterates(t, jumps.modulus + r, jumps.depth)):
            coeff, const = max(coeff, high - low), max(const, low)
    return coeff, const


class TestJumpTable:
    def test_depth_is_largest_under_the_cap(self):
        classical, two_power = build_jumps(T231, 2, 10**30), build_jumps(T10128, 4, 10**30)
        assert (classical.depth, classical.modulus) == (10, 1 << 10)
        assert (two_power.depth, two_power.modulus) == (3, 10**3)
        assert build_jumps(Triplet(1025, 1026, 1024, 1), 1, 10**30) is None
        # 65^2 > 2^10: no table below depth 2
        assert build_jumps(Triplet(65, 66, 64, 1), 64, 10**30) is None

    @pytest.mark.parametrize("t", [T231, T10128, T3241, T34m1, T8124, T41054], ids=str)
    def test_landing_is_iterate_k(self, t):
        jumps = build_jumps(t, max(CYCLE_MEMBERS[t]), 10**30)
        for q in (0, 1, 7, 10**9 + 7):
            for r in range(1 if q == 0 else 0, jumps.modulus):
                landing = iterates(t, jumps.modulus * q + r, jumps.depth)[-1]
                assert landing == jumps.coeff[r] * q + jumps.const[r]

    @pytest.mark.parametrize("t", [T231, T10128, T3241, T34m1], ids=str)
    def test_hit_bounds_the_q_meeting_a_member_before_step_k(self, t):
        # hit comes from the lower bound on iterates 1..k-1, so it is at
        # least the largest q of each class whose iterates meet a member
        members = CYCLE_MEMBERS[t]
        jumps = build_jumps(t, max(members), 10**30)
        assert jumps.hit == [(max(members) - low_p) // low_c
                             for low_c, low_p in zip(jumps.low_c, jumps.low_p)]
        met = [-1] * jumps.modulus
        # iterates are at least q, so no seed with q > max(members) can meet one
        for n in range(1, jumps.modulus * (max(members) + 1)):
            if members.intersection(iterates(t, n, jumps.depth - 1)):
                q, r = divmod(n, jumps.modulus)
                met[r] = max(met[r], q)
        assert all(hit >= q for hit, q in zip(jumps.hit, met))

    @pytest.mark.parametrize("t", [T231, T10128, T3241, T34m1, T8124, T41054], ids=str)
    def test_low_bounds_iterates_before_step_k(self, t):
        jumps = build_jumps(t, max(CYCLE_MEMBERS[t]), 10**30)
        for q in (0, 1, 7, 10**9 + 7):
            for r in range(1 if q == 0 else 0, jumps.modulus):
                inside = iterates(t, jumps.modulus * q + r, jumps.depth - 1)
                assert min(inside) >= jumps.low_c[r] * q + jumps.low_p[r]

    @pytest.mark.parametrize("t", [T231, T10128], ids=str)
    def test_qmax_is_the_value_cap_bound(self, t):
        # sound at qmax for every class, and attained: some class crosses at qmax + 1
        max_value = 10**6
        jumps = build_jumps(t, max(CYCLE_MEMBERS[t]), max_value)
        peaks = [[max(iterates(t, jumps.modulus * q + r, jumps.depth))
                  for r in range(jumps.modulus)] for q in (jumps.qmax, jumps.qmax + 1)]
        assert max(peaks[0]) <= max_value < max(peaks[1])

    @pytest.mark.parametrize("t", [T231, T10128, T3241, T34m1, T23m1], ids=str)
    def test_qmax_comes_from_the_largest_coefficient_and_constant(self, t):
        # iterate j of d^k*q + r is c*q + T^j(r); on 2:3:-1:+ the largest
        # constant is met before step k
        coeff, const = jump_peak(t)
        for max_value in (coeff * 17 + const - 1, coeff * 17 + const, 10**6):
            assert build_jumps(t, 1, max_value).qmax == (max_value - const) // coeff

    @pytest.mark.parametrize("hit_at_q, qmax_below_q, cap_below_k, jumped", [
        (False, False, False, True),
        (True, False, False, False),
        (False, True, False, False),
        (False, False, True, False),
    ], ids=["all-hold", "member-guard", "value-guard", "step-guard"])
    def test_jump_taken_exactly_when_the_guards_hold(self, hit_at_q, qmax_below_q,
                                                     cap_below_k, jumped):
        # a doctored table whose every jump lands on the member 1, so a jump
        # shows as a converged seed; each guard is put one past its bound
        n = 10**12 + 1  # meets no member within 10 steps
        jumps = build_jumps(T231, 2, 10**30)
        q = n // jumps.modulus
        doctored = replace(jumps, coeff=[0] * jumps.modulus, const=[1] * jumps.modulus,
                           hit=[q if hit_at_q else q - 1] * jumps.modulus,
                           qmax=q - 1 if qmax_below_q else q)
        plan = scan_plan(T231, {1, 2}, jumps=doctored,
                         max_steps=jumps.depth - 1 if cap_below_k else jumps.depth)
        assert _scan_chunk(plan, n, n) == ([] if jumped else [(n, "step_cap")])

    @pytest.mark.parametrize("low_below_n, qmax_below_q, cap_below_k, jumped", [
        (False, False, False, True),
        (True, False, False, False),
        (False, True, False, False),
        (False, False, True, False),
    ], ids=["all-hold", "lower-guard", "value-guard", "step-guard"])
    def test_descent_jump_taken_exactly_when_the_guards_hold(self, low_below_n, qmax_below_q,
                                                             cap_below_k, jumped):
        # a doctored table whose every jump lands on 1, below the seed, so a
        # jump shows as a descended seed; 2^40 - 1 rises for 40 steps
        n = 2**40 - 1
        jumps = build_jumps(T231, 2, 10**30)
        q = n // jumps.modulus
        doctored = replace(jumps, coeff=[0] * jumps.modulus, const=[1] * jumps.modulus,
                           low_c=[0] * jumps.modulus,
                           low_p=[n - 1 if low_below_n else n] * jumps.modulus,
                           qmax=q - 1 if qmax_below_q else q)
        plan = scan_plan(T231, {1, 2}, classes=_FROM_N, jumps=doctored,
                         max_steps=jumps.depth - 1 if cap_below_k else jumps.depth)
        assert _scan_chunk(plan, n, n) == ([] if jumped else [(n, "step_cap")])

    @pytest.mark.parametrize("t", [T231, T10128, T3241, T34m1], ids=str)
    def test_dip_is_the_iterate_with_the_smallest_coefficient(self, t):
        # iterate j of d^k*q + r is c_j*q + T^j(r); the dip is the smallest
        # (c_j, T^j(r)), so it is an iterate 1..k at every q, and no iterate
        # has a smaller coefficient
        jumps = build_jumps(t, max(CYCLE_MEMBERS[t]), 10**30)
        for r in range(jumps.modulus):
            at_0 = iterates(t, r, jumps.depth) if r else [0] * jumps.depth
            at_1 = iterates(t, jumps.modulus + r, jumps.depth)
            forms = [(high - low, low) for low, high in zip(at_0, at_1)]
            assert (jumps.dip_c[r], jumps.dip_p[r]) == min(forms)
            for q in (0, 1, 7, 10**9 + 7):
                if q or r:
                    inside = iterates(t, jumps.modulus * q + r, jumps.depth)
                    assert jumps.dip_c[r] * q + jumps.dip_p[r] in inside

    @pytest.mark.parametrize("t", [T231, T10128, T3241, T34m1, T8124, T41054], ids=str)
    def test_low_is_the_smallest_coefficient_and_constant_before_step_k(self, t):
        # iterate j of d^k*q + r is c_j*q + T^j(r), read off the iterates at
        # q = 0 and q = 1: low_c and low_p are the smallest c_j and the
        # smallest T^j(r) of iterates 1..k-1
        jumps = build_jumps(t, max(CYCLE_MEMBERS[t]), 10**30)
        inner = jumps.depth - 1
        for r in range(jumps.modulus):
            at_0 = iterates(t, r, inner) if r else [0] * inner
            at_1 = iterates(t, jumps.modulus + r, inner)
            assert jumps.low_c[r] == min(high - low for low, high in zip(at_0, at_1))
            assert jumps.low_p[r] == min(at_0)

    def test_low_is_exact_where_the_refinement_undercut_it(self):
        # on 4:10:54:+ the sieve's refinement bounded iterates 1..k-1 of
        # 4^5*q + 296 by 160*q + 50; the smallest constant is T^3(296) = 53
        jumps = build_jumps(T41054, max(CYCLE_MEMBERS[T41054]), 10**30)
        assert (jumps.low_c[296], jumps.low_p[296]) == (160, 53)
        assert min(iterates(T41054, 296, jumps.depth - 1)) == 53

    @pytest.mark.parametrize("t", [T41054, T8124], ids=str)
    def test_value_guard_peak_is_the_walked_peak(self, t):
        # qmax steps from 16 to 17 exactly at max_value = 17*C + P
        coeff, const = jump_peak(t)
        for max_value, qmax in ((coeff * 17 + const - 1, 16), (coeff * 17 + const, 17)):
            assert build_jumps(t, 1, max_value).qmax == qmax

    @pytest.mark.parametrize("dip_at_n, qmax_below_q, cap_below_k, exits", [
        (False, False, False, True),
        (True, False, False, False),
        (False, True, False, False),
        (False, False, True, False),
    ], ids=["all-hold", "dip-guard", "value-guard", "step-guard"])
    def test_dip_exit_taken_exactly_when_the_guards_hold(self, dip_at_n, qmax_below_q,
                                                         cap_below_k, exits):
        # a doctored table whose lower guard refuses every jump and whose
        # dip is n - 1 or n, so an exit shows as a descended seed; 2^40 - 1
        # rises for 40 steps, so without the exit it meets the step cap
        n = 2**40 - 1
        jumps = build_jumps(T231, 2, 10**30)
        q = n // jumps.modulus
        doctored = replace(jumps, low_c=[0] * jumps.modulus, low_p=[n - 1] * jumps.modulus,
                           dip_c=[0] * jumps.modulus,
                           dip_p=[n if dip_at_n else n - 1] * jumps.modulus,
                           qmax=q - 1 if qmax_below_q else q)
        plan = scan_plan(T231, {1, 2}, classes=_FROM_N, jumps=doctored,
                         max_steps=jumps.depth - 1 if cap_below_k else jumps.depth)
        assert _scan_chunk(plan, n, n) == ([] if exits else [(n, "step_cap")])

    def test_dip_just_above_the_seed_lets_it_walk(self):
        # a doctored dip of n + 1 = 2^40, which halves below n at once: an
        # exit there would restart the walk from it and report nothing, but
        # 2^40 - 1 itself rises for 40 steps and meets the step cap
        n = 2**40 - 1
        jumps = build_jumps(T231, 2, 10**30)
        doctored = replace(jumps, low_c=[0] * jumps.modulus, low_p=[n - 1] * jumps.modulus,
                           dip_c=[0] * jumps.modulus, dip_p=[n + 1] * jumps.modulus)
        plan = scan_plan(T231, {1, 2}, classes=_FROM_N, jumps=doctored, max_steps=jumps.depth)
        assert _scan_chunk(plan, n, n) == [(n, "step_cap")]

    @pytest.mark.parametrize("t", [T231, T10128], ids=str)
    @pytest.mark.parametrize("past_k", [-1, 0, 1])
    def test_dip_exit_keeps_report_at_the_caps(self, t, past_k):
        # max_steps k - 1, k and k + 1 past the sieve's depth, so a seed
        # entered at the last level meets the jump's step guard, under the
        # smallest value cap that keeps the sieve and is C*qmax + P itself
        sieve = build_sieve(t, DEFAULT_MAX_STEPS)
        hi = sieve.modulus + 5_000
        bound = value_bound(t, sieve.depth, hi)
        coeff, const = jump_peak(t)
        qmax = -(-(bound - const) // coeff)
        max_value = coeff * qmax + const
        jumps = build_jumps(t, max(CYCLE_MEMBERS[t]), max_value)
        assert jumps.qmax == qmax
        assert _scan_classes(t, sieve, hi, max_value) is sieve
        limits = Limits(max_steps=sieve.depth + jumps.depth + past_k, max_value=max_value)
        cp = assert_tables_keep_report(job(t, 1, hi, TARGETS[t], limits=limits,
                                           chunk_size=20_000))
        assert cp.exceptions

    def test_member_strictly_inside_a_jump(self):
        # _scan_chunk stops at any member, so a set that is not closed under
        # the map shows a skipped member: 2560 = 1024*2 + 512 meets 5 at step 9
        jumps = build_jumps(T231, 5, 10**30)
        assert iterates(T231, 2560, 10)[8] == 5 and jumps.hit[512] >= 2
        assert assert_tables_keep_scan(T231, 2560, 2560, {5}, max_steps=50) == []
        assert assert_tables_keep_scan(T231, 2500, 2700, {5}, max_steps=50)

    @pytest.mark.parametrize("max_steps", [9, 10, 11, 25, 39])
    def test_step_cap_inside_a_jump(self, max_steps):
        n = 10**12 + 1
        assert assert_tables_keep_scan(T231, n, n, {1, 2}, max_steps=max_steps) == [
            (n, "step_cap")]

    @pytest.mark.parametrize("t", [T231, T10128], ids=str)
    def test_value_cap_inside_a_jump(self, t):
        # the block of seeds just past qmax, where some class crosses the cap
        # inside its first k steps
        max_value = 10**9
        jumps = build_jumps(t, max(CYCLE_MEMBERS[t]), max_value)
        lo = jumps.modulus * (jumps.qmax + 1)
        found = assert_tables_keep_scan(t, lo, lo + jumps.modulus - 1, CYCLE_MEMBERS[t],
                                       max_steps=jumps.depth, max_value=max_value)
        assert (lo + jumps.modulus - 1, "value_cap") in found

    @pytest.mark.parametrize("t", [T231, T10128], ids=str)
    def test_report_unchanged_with_two_workers(self, t):
        j = job(t, 10**12, 10**12 + 2000, TARGETS[t], chunk_size=300,
                below_frontier_shortcut=False)
        jumped = verify_range(j, workers=2)
        with mock.patch.object(verify, "build_jumps", lambda *args: None):
            plain = verify_range(j, workers=2)
        assert report_bytes(jumped) == report_bytes(plain)
        assert jumped.exceptions == () and jumped.seeds_scanned == 2001

    def test_membership_loop_under_the_shortcut_keeps_report(self):
        # seeds up to the largest member (536) scan in the membership loop,
        # which jumps but has no finish table under the shortcut; the sieve's
        # value bound exceeds the value cap, so the seeds above it scan from n
        targets = enumerate_cycles(T8124, 1, 200)
        j = job(T8124, 1, 1213, targets, limits=Limits(max_steps=10, max_value=10**4),
                chunk_size=400)
        assert _scan_classes(T8124, build_sieve(T8124, 10), 1213, 10**4) is _FROM_N
        cp = assert_tables_keep_report(j)
        assert len(cp.exceptions) == 39

    @pytest.mark.parametrize("limits", [Limits(), Limits(max_steps=12),
                                        Limits(max_value=10**6)], ids=["default", "steps", "value"])
    def test_membership_loop_jumps_under_the_shortcut(self, limits):
        # 17:18:16:+ (k = 2) has members up to 21,488, so the seeds up to
        # there run the membership loop, whose orbits pass far above them
        fam = build_two_power_family(4, 0)
        max_elem = max(x for c in fam.cycles for x in c.elements)
        assert max_elem == 21_488 and build_jumps(fam.triplet, max_elem, 10**6).depth == 2
        cp = assert_tables_keep_report(job(fam.triplet, 1, 30_000, fam.cycles, limits=limits,
                                           chunk_size=7_000))
        if limits == Limits():
            assert cp.exceptions == ()
        else:  # some seeds of the membership loop end at the cap
            assert cp.exceptions[0][0] <= max_elem

    def test_report_unchanged_toward_members_far_above_the_seeds(self):
        # the 34 cycles of 4:10:54:+ met from seeds 1..3000 reach
        # 7,637,766,943,833,832, so the member guard refuses every jump from
        # a value below 1024 * min(hit), about 3 * 10^15
        targets = enumerate_cycles(T41054, 1, 3000)
        assert len(targets) == 34
        assert max(x for c in targets for x in c.elements) == 7_637_766_943_833_832
        assert_tables_keep_report(job(T41054, 1, 3000, targets, chunk_size=700,
                                      below_frontier_shortcut=False))

    @pytest.mark.parametrize("t, limits", [
        (T231, Limits(max_steps=15)),  # below the sieve depth 16, above k = 10
        (T231, Limits(max_value=10**5)),
        (T10128, Limits(max_steps=3)),  # below the sieve depth 6, k = 3
        (T10128, Limits(max_steps=40, max_value=5 * 10**4)),
    ], ids=["2:3:1:+ steps", "2:3:1:+ value", "10:12:8:+ steps", "10:12:8:+ both"])
    def test_shortcut_report_unchanged_on_the_sieve_fallback(self, t, limits):
        # a step cap below the sieve depth builds a shallower sieve, and under
        # a value cap below the sieve's value bound every seed is scanned from n
        sieve = build_sieve(t, limits.max_steps)
        classes = _scan_classes(t, sieve, 30_000, limits.max_value)
        assert (classes is _FROM_N) != (sieve.depth == limits.max_steps)
        cp = assert_tables_keep_report(
            job(t, 1, 30_000, TARGETS[t], limits=limits, chunk_size=4_096), workers=2)
        assert cp.exceptions
        assert_tables_keep_report(job(t, 12_345, 30_000, TARGETS[t], limits=limits,
                                      chunk_size=5_000, prefix_verified_to=12_344))

    @settings(max_examples=100, deadline=None)
    @given(t=st.sampled_from(sorted(CYCLE_MEMBERS, key=str)),
           extra=st.sets(st.integers(1, 3000), min_size=1, max_size=3),
           with_cycles=st.booleans(),
           lo=st.one_of(st.integers(1, 10**5), st.integers(10**12, 10**13)),
           size=st.integers(0, 200),
           max_steps=st.one_of(st.integers(1, 25), st.integers(26, 1000)),
           max_value=st.integers(3, 60).map(lambda e: 2**e))
    def test_scan_unchanged_property(self, t, extra, with_cycles, lo, size, max_steps,
                                     max_value):
        # extra members need not be closed under the map; without the
        # target cycles, an orbit that skipped one would run to a cap
        members = CYCLE_MEMBERS[t] | extra if with_cycles else extra
        assert_tables_keep_scan(t, lo, lo + size, members,
                               max_steps=max_steps, max_value=max_value)


def finish_steps(t: Triplet, v: int, members, max_value: int) -> int:
    """Steps from v to its first member, one at a time, when there are at
    most FINISH_STEPS of them and no iterate up to it exceeds max_value;
    otherwise -1."""
    step = t.step_function()
    for steps in range(FINISH_STEPS + 1):
        if v in members:
            return steps
        v = step(v)
        if v > max_value:
            return -1
    return -1


T1291 = parse_triplet("129:130:128:+")  # two-power family, members up to 390,558,336
TWO_POWER_MEMBERS = frozenset(x for c in build_two_power_family(7, 0).cycles for x in c.elements)
FINISH_MEMBERS = {**CYCLE_MEMBERS, T1291: TWO_POWER_MEMBERS}


class TestFinishTable:
    @pytest.mark.parametrize("t", [T231, T10128, T3241, T8124, T41054, T1291], ids=str)
    @pytest.mark.parametrize("max_value", [10**30, 10**6])
    def test_entries_are_direct_walks(self, t, max_value):
        members = FINISH_MEMBERS[t]
        fin = build_finish(t, members, max_value)
        assert len(fin) == FINISH_CAP and fin[0] == -1
        assert list(fin) == [-1] + [finish_steps(t, v, members, max_value)
                                    for v in range(1, FINISH_CAP)]

    def test_members_at_or_above_the_cap_end_walks(self):
        # so the direct walks above cover such members
        assert min(TWO_POWER_MEMBERS) < FINISH_CAP <= max(TWO_POWER_MEMBERS)
        fin = build_finish(T1291, TWO_POWER_MEMBERS, 10**30)
        assert any(fin[v] > 0 and iterates(T1291, v, fin[v])[-1] >= FINISH_CAP
                   for v in range(1, FINISH_CAP))

    def test_other_cycle_and_value_cap_give_none(self):
        # 4:10:54:+ toward the cycle of 1 only: 2 lies on the cycle of 2
        one = frozenset(detect_cycle_from(T41054, 1).elements)
        assert 2 not in one and build_finish(T41054, one, 10**30)[2] == -1
        # 27 reaches 2 after 69 steps of 2:3:1:+, peaking at 4616 on the way,
        # and 54 reaches 27 after one step
        assert build_finish(T231, {1, 2}, 4616)[27] == 69
        assert build_finish(T231, {1, 2}, 4616)[54] == 70
        assert build_finish(T231, {1, 2}, 4615)[27] == -1
        assert build_finish(T231, {1, 2}, 4615)[54] == -1

    def test_walks_that_never_meet_a_member_give_none(self):
        # each walk returns to its start (the cycle 1, 2) or adds the none
        # of a smaller value
        fin = build_finish(T231, {10**40}, 10**30)
        assert set(fin) == {-1}

    @pytest.mark.parametrize("entry, max_steps, exits", [
        (5, 5, True), (5, 4, False), (-1, 2**64, False), (0, 1, True)])
    def test_exit_taken_exactly_when_the_entry_fits(self, entry, max_steps, exits):
        # a doctored table with one entry, at the seed 27, which passes 1000
        # at step 36 and meets a member at step 69: the exit shows as a
        # converged seed
        fin = array("h", [-1]) * FINISH_CAP
        fin[27] = entry
        plan = scan_plan(T231, {1, 2}, max_steps=max_steps, max_value=10**3, finish=fin)
        found = _scan_chunk(plan, 27, 27)
        assert found == ([] if exits else [(27, "step_cap" if max_steps < 36 else "value_cap")])

    @pytest.mark.parametrize("t", [T231, T10128], ids=str)
    def test_step_cap_at_the_finish(self, t):
        # the seeds below 2^14 with the largest entry, under a step cap at
        # that entry and one below it
        members = CYCLE_MEMBERS[t]
        fin = build_finish(t, members, 10**30)
        cap = max(fin)
        at = [v for v in range(FINISH_CAP) if fin[v] == cap]
        for max_steps in (cap, cap - 1):
            found = assert_tables_keep_scan(t, 1, FINISH_CAP - 1, members, max_steps=max_steps)
            assert all(((v, "step_cap") in found) == (max_steps < cap) for v in at)

    @pytest.mark.parametrize("t", [T231, T10128], ids=str)
    def test_value_cap_at_the_finish(self, t):
        # the seeds whose walk to a member peaks exactly at the value cap
        members = CYCLE_MEMBERS[t]
        max_value = 10**5
        fin = build_finish(t, members, max_value)
        peaks = {v: max(iterates(t, v, fin[v])) for v in range(2, FINISH_CAP) if fin[v] > 0}
        top = max(peaks.values())
        for cap in (top, top - 1):
            found = assert_tables_keep_scan(t, 1, FINISH_CAP - 1, members, max_value=cap)
            assert all(((v, "value_cap") in found) == (cap < top)
                       for v, peak in peaks.items() if peak == top)

    def test_report_unchanged_at_the_largest_step_caps(self):
        # the none entry must fail the exit test even where max_steps - steps
        # exceeds any fixed sentinel; the value cap ends every seed that has one
        cp = assert_tables_keep_report(job(T231, 1, 3000, TARGETS[T231], chunk_size=700,
                                           below_frontier_shortcut=False,
                                           limits=Limits(max_steps=2**64, max_value=10**3)))
        assert (27, "value_cap") in cp.exceptions

    def test_report_unchanged_with_two_workers(self):
        j = job(T10128, 1, 30_000, TARGETS[T10128], chunk_size=4_096,
                below_frontier_shortcut=False, limits=Limits(max_steps=40, max_value=10**6))
        cp = assert_tables_keep_report(j, workers=2)
        assert cp.exceptions

    def test_patched_builders_are_called(self):
        # a table kept from an earlier call must not stand in for the one a
        # patched builder returns, or the no-table reference would use it;
        # the same builder with the same arguments is called once
        j = job(T231, 1, 500, TARGETS[T231], below_frontier_shortcut=False,
                limits=Limits(max_steps=20))
        assert verify_range(j, workers=1).exceptions
        everything_finishes = array("h", [0]) * FINISH_CAP
        with mock.patch.object(verify, "build_finish", lambda *args: everything_finishes):
            assert verify_range(j, workers=1).exceptions == ()
        calls = []
        with mock.patch.object(verify, "build_sieve", lambda *args: calls.append("sieve")), \
                mock.patch.object(verify, "build_jumps", lambda *args: calls.append("jumps")), \
                mock.patch.object(verify, "build_finish", lambda *args: calls.append("finish")):
            verify_range(j, workers=1)
            verify_range(replace(j, below_frontier_shortcut=True), workers=1)
        assert calls == ["jumps", "finish", "sieve"]

    def test_tables_built_once_per_process(self):
        # the finish table, and under the shortcut the sieve, whose merge
        # runs in its build: a job scans the built class list itself
        j = job(T10128, 10**12, 10**12 + 50, TARGETS[T10128], below_frontier_shortcut=False)
        with mock.patch.object(verify, "build_finish", wraps=verify.build_finish) as builds, \
                mock.patch.object(verify, "build_sieve", wraps=verify.build_sieve) as sieves:
            first = verify_range(j, workers=1)
            again = verify_range(replace(j, lo=10**12 + 51, hi=10**12 + 80), workers=1)
            assert builds.call_count == 1
            verify_range(replace(j, limits=Limits(max_value=10**20)), workers=1)
            assert builds.call_count == 2
            shortcut = job(T10128, 1, 3_000, TARGETS[T10128])
            verify_range(shortcut, workers=1)
            verify_range(replace(shortcut, lo=3_001, hi=6_000, prefix_verified_to=3_000),
                         workers=1)
            assert (sieves.call_count, builds.call_count) == (1, 2)
        assert first.exceptions == again.exceptions == ()
        sieve = build_sieve(T10128, DEFAULT_MAX_STEPS)
        assert _scan_classes(T10128, sieve, 10**6, Limits().max_value) is sieve


def steps_to_member(t: Triplet, n: int, members) -> int:
    step, steps = t.step_function(), 0
    while n not in members:
        n, steps = step(n), steps + 1
    return steps


def tabled_plan(t, members, **caps):
    """A `scan_plan` with the jump table and the finish table of its caps."""
    plan = scan_plan(t, members, **caps)
    return replace(plan, jumps=build_jumps(t, plan.max_elem, plan.limits.max_value),
                   finish=build_finish(t, plan.members, plan.limits.max_value))


def assert_jumps_until(t, plan, n, steps):
    """The frontier moves seed n by jumps alone to step `steps`: at each
    value before it, above max_elem and the finish table, the jump table's
    guards hold."""
    jumps, k = plan.jumps, plan.jumps.depth
    for v in [n] + iterates(t, n, steps)[k - 1:steps - 1:k]:
        q, r = divmod(v, jumps.modulus)
        assert v > max(plan.max_elem, FINISH_CAP) and jumps.hit[r] < q <= jumps.qmax


# seeds that share iterate k; and two that share iterate k with a smaller
# seed that meets them only at iterate 2k, so that in one frontier the last
# seed joins the second's walk, which joins the first's
MERGED = {"2:3:1:+ pair": (T231, (1_000_022, 1_000_023)),
          "2:3:1:+ chain": (T231, (10**12 + 14_088, 10**12 + 14_102, 10**12 + 14_103)),
          "10:12:8:+ pair": (T10128, (10**12 + 245, 10**12 + 247)),
          "10:12:8:+ chain": (T10128, (10**12 + 205, 10**12 + 245, 10**12 + 247))}


class TestFrontier:
    @pytest.mark.parametrize("t", [T231, T10128, T3241, T8124], ids=str)
    @pytest.mark.parametrize("limits", [Limits(), Limits(max_steps=60, max_value=10**14)],
                             ids=["default caps", "small caps"])
    @pytest.mark.parametrize("lo", [1, 10**12 + 54_321])
    def test_report_unchanged_by_chunks_and_frontier_size(self, t, limits, lo):
        # frontiers of one seed merge nothing, and frontiers of 40 seeds
        # split each chunk many times over
        expected = oracle_exceptions(t, lo, lo + 3_999, CYCLE_MEMBERS[t], limits, False)
        for chunk, workers, size in ((1, 1, verify.FRONTIER_SEEDS), (700, 1, verify.FRONTIER_SEEDS),
                                     (700, 2, verify.FRONTIER_SEEDS),
                                     (4_000, 1, verify.FRONTIER_SEEDS), (4_000, 1, 40),
                                     (4_000, 1, 1)):
            hi = lo + (199 if chunk == 1 else 3_999)
            j = job(t, lo, hi, TARGETS[t], limits=limits, chunk_size=chunk,
                    below_frontier_shortcut=False)
            with mock.patch.object(verify, "FRONTIER_SEEDS", size):
                found = verify_range(j, workers=workers).exceptions
            assert list(found) == [e for e in expected if e[0] <= hi]

    @pytest.mark.parametrize("merged", MERGED)
    @pytest.mark.parametrize("cap", ["step_cap", "value_cap"])
    def test_merged_seeds_take_the_status_of_their_walk(self, merged, cap):
        # the walk from the seeds' shared iterate meets a member exactly at
        # the step cap, or peaks exactly at the value cap, above every
        # earlier iterate of the seeds: every seed ends at the cap, and none
        # with one more step or value to spare
        t, seeds = MERGED[merged]
        members = CYCLE_MEMBERS[t]
        k = build_jumps(t, max(members), 10**30).depth
        meet = k * (len(seeds) - 1)
        assert len({iterates(t, n, meet)[-1] for n in seeds}) == 1
        assert len({iterates(t, n, k)[-1] for n in seeds}) == len(seeds) - 1
        total = steps_to_member(t, seeds[0], members)
        peak = max(iterates(t, seeds[0], total)[meet:])
        assert all(max(n, *iterates(t, n, meet)) < peak for n in seeds)
        for spare in (0, 1):
            caps = ({"max_steps": total - 1 + spare} if cap == "step_cap"
                    else {"max_value": peak - 1 + spare})
            plan = tabled_plan(t, members, **caps)
            for n in seeds:
                assert_jumps_until(t, plan, n, meet)
            expected = [] if spare else [(n, cap) for n in seeds]
            assert _scan_frontier(plan, seeds) == expected
            found = assert_tables_keep_scan(t, seeds[0], seeds[-1], members, **caps)
            assert set(expected) <= set(found)

    @pytest.mark.parametrize("tables", [False, True], ids=["no tables", "tables"])
    @pytest.mark.parametrize("spare", [0, 1])
    def test_a_seed_meeting_another_at_another_step_count_is_not_merged(self, tables, spare):
        # the later seed reaches the first one's seed value `lead` steps in,
        # by one single step (2n) or by one jump of 10 steps (1024n), where
        # n is live at step 0; n meets a member exactly at the step cap, so
        # the later seed meets one in time only with a step to spare
        n = 10**12 + 7
        total = steps_to_member(T231, n, {1, 2})
        lead = 10 if tables else 1
        max_steps = total + lead - 1 + spare
        plan = tabled_plan(T231, {1, 2}, max_steps=max_steps) if tables else \
            scan_plan(T231, {1, 2}, max_steps=max_steps)
        later = 2**lead * n
        expected = [] if spare else [(later, "step_cap")]
        assert _scan_frontier(plan, [later]) == expected
        assert _scan_frontier(plan, [n, later]) == expected

    @pytest.mark.parametrize("t, member, n", [(T10128, 10**12 + 7, 10**12 + 11),
                                              (T231, 10**12 + 1_086, 10**12 + 1_087)], ids=str)
    def test_a_member_seed_is_never_merged_into(self, t, member, n):
        # the only member shares iterate k with the seed n, whose orbit
        # never meets it: the member ends its walk at step 0, so n jumps
        # on, to the step cap, as does every seed between them
        k = build_jumps(t, member, 10**30).depth
        assert iterates(t, member, k)[-1] == iterates(t, n, k)[-1]
        plan = tabled_plan(t, {member}, max_steps=200)
        assert_jumps_until(t, plan, n, k)
        assert _scan_frontier(plan, [member, n]) == [(n, "step_cap")]
        assert assert_tables_keep_scan(t, member, n, {member}, max_steps=200) == [
            (seed, "step_cap") for seed in range(member + 1, n + 1)]

    def test_a_seed_meeting_a_member_inside_a_jump_walks_alone(self):
        # 1024000003 meets the member 288000001 at step 5 and shares
        # iterate 10 with 1024000007, which never meets it: the member
        # guard refuses the first seed's jump alone, so it walks to the
        # member, and the later seed jumps on, to the step cap
        n, member = 1_024_000_007, 288_000_001
        jumps = build_jumps(T231, member, 10**30)
        q, r = divmod(n, jumps.modulus)
        assert iterates(T231, n - 4, 10)[-1] == iterates(T231, n, 10)[-1]
        assert iterates(T231, n - 4, 5)[-1] == member
        assert jumps.hit[r] < q <= jumps.hit[r - 4]
        found = assert_tables_keep_scan(T231, n - 4, n, {member}, max_steps=300)
        assert (n, "step_cap") in found and (n - 4, "step_cap") not in found

    @pytest.mark.parametrize("t", [T231, T10128, T8124], ids=str)
    def test_a_chunk_of_65536_seeds_peaks_under_1_mb(self, t):
        # one frontier of the whole chunk held 11-12 MB; these hold about 0.7 MB
        limits = Limits()
        plan = tabled_plan(t, CYCLE_MEMBERS[t], max_steps=limits.max_steps,
                           max_value=limits.max_value)
        tracemalloc.start()
        try:
            found = _scan_chunk(plan, 10**12, 10**12 + 65_535)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found == [] and peak < 1_000_000


def assert_oracle_report(t, lo, hi, shortcut=True, workers=1, **kw):
    """verify_range against the oracle; returns the exceptions."""
    j = job(t, lo, hi, TARGETS[t], below_frontier_shortcut=shortcut,
            prefix_verified_to=lo - 1, **kw)
    expected = oracle_exceptions(t, lo, hi, CYCLE_MEMBERS[t], j.limits, shortcut)
    assert list(verify_range(j, workers=workers).exceptions) == expected
    return expected


class TestOracle:
    @settings(max_examples=40, deadline=None)
    @given(t=st.sampled_from(sorted(TARGETS, key=str)), shortcut=st.booleans(),
           lo=st.one_of(st.integers(1, 3 * 10**5), st.integers(1, 10**12)),
           size=st.integers(0, 300), chunk=st.one_of(st.integers(7, 64), st.integers(7, 1 << 16)),
           max_steps=st.integers(3, 2_000),
           max_value=st.builds(lambda m, e: m * 10**e, st.integers(1, 9), st.integers(5, 29)),
           workers=st.sampled_from([1, 2]))
    def test_report_matches_the_oracle(self, t, shortcut, lo, size, chunk, max_steps,
                                       max_value, workers):
        assert_oracle_report(t, lo, lo + size, shortcut, workers, chunk_size=chunk,
                             limits=Limits(max_steps=max_steps, max_value=max_value))

    @pytest.mark.parametrize("t", [T231, T10128, T41054, T364032], ids=str)
    def test_report_matches_the_oracle_at_the_edges(self, t):
        # step caps one below and above the sieve's depth and the jump's k,
        # value caps one below and at the sieve's bound at hi and at C*q + P
        # for the q of hi, so that qmax is q - 1 or q; lo at a merged class's
        # representative, with a chunk starting at the merged class, and at
        # the merged class
        sieve = build_sieve(t, DEFAULT_MAX_STEPS)
        rep = min(sieve.merged) if sieve.merged else sieve.forms[1][0]
        merged = sieve.merged[rep][0] if sieve.merged else rep + 1
        base = 3 * sieve.modulus
        hi = base + merged + 400
        steps = [sieve.depth - 1, sieve.depth + 1]
        values = [value_bound(t, sieve.depth, hi) + e for e in (-1, 0)]
        jumps = build_jumps(t, max(CYCLE_MEMBERS[t]), 10**30)
        if jumps is not None:
            coeff, const = jump_peak(t)
            steps += [jumps.depth - 1, jumps.depth + 1]
            values += [coeff * (hi // jumps.modulus) + const + e for e in (-1, 0)]
        # without the shortcut, seeds that enter a cycle other than the
        # targets walk to the step cap, so it is kept low there
        for limits in [Limits(max_steps=s) for s in steps] + \
                [Limits(max_steps=500, max_value=v) for v in values]:
            assert_oracle_report(t, base + rep, hi, limits=limits, chunk_size=merged - rep)
            assert_oracle_report(t, base + merged, hi, limits=limits, chunk_size=7)
            assert_oracle_report(t, base + rep, base + rep + 150, shortcut=False,
                                 limits=limits, chunk_size=merged - rep)

    @pytest.mark.parametrize("t, max_steps", [(T10128, 8), (T364032, 6)], ids=str)
    def test_report_matches_the_oracle_where_merged_seeds_are_scanned(self, t, max_steps):
        # merged seeds that their representative does not decide are
        # scanned from n: in chunks that start 1..reach residues above a
        # representative, which then lies below the chunk; under a step cap
        # at which representatives report step_cap; and with every
        # representative's lower guard doctored to 0, so each is scanned
        # from n0 and decides none of its merged seeds
        classes = build_sieve(t, DEFAULT_MAX_STEPS)
        modulus, reach = classes.modulus, classes.reach
        rep = next(rep for rep, kept in classes.merged.items() if kept[-1] - rep == reach)
        base = 2 * modulus + rep
        for chunk in (1, 3, reach):
            assert_oracle_report(t, base + 1, base + reach + 100, chunk_size=chunk)
        for offset in range(1, reach + 1):
            assert_oracle_report(t, base + offset, base + reach, chunk_size=1 << 16)
        lo, hi = 2 * modulus + 1, 2 * modulus + 2_500
        failed = dict(assert_oracle_report(t, lo, hi, limits=Limits(max_steps=max_steps),
                                           chunk_size=600))
        assert any(2 * modulus + rep in failed and 2 * modulus + r <= hi
                   for rep, kept in classes.merged.items() for r in kept)
        reps = set(classes.merged)
        doctored, _ = refined(t, doctor=lambda form: (*form[:3], 0, 0, form[5])
                              if form[0] in reps else form)
        assert doctored.merged.keys() == reps
        with mock.patch.object(verify, "build_sieve", lambda *args: doctored):
            for limits in (Limits(), Limits(max_steps=max_steps)):
                assert_oracle_report(t, lo, hi, limits=limits, chunk_size=600)


class TestCheckpoints:
    def test_roundtrip_and_resume_equals_oneshot(self, tmp_path):
        cp = verify_range(job(T10128, 1, 50000, (OMEGA4,)), workers=1)
        path = tmp_path / "cp.json"
        save_checkpoint(cp, str(path))
        loaded = load_checkpoint(str(path))
        assert loaded.digest == cp.digest
        assert loaded.exceptions == cp.exceptions
        assert loaded.verified_frontier == cp.verified_frontier
        extended = resume(loaded, 10**5, workers=1)
        oneshot = verify_range(job(T10128, 1, 10**5, (OMEGA4,)), workers=1)
        assert extended.exceptions == oneshot.exceptions
        assert extended.verified_frontier == oneshot.verified_frontier
        assert extended.seeds_scanned == 10**5

    def test_digest_detects_tampering(self, tmp_path):
        cp = verify_range(job(T231, 1, 1000, (OMEGA1,)), workers=1)
        path = tmp_path / "cp.json"
        save_checkpoint(cp, str(path))
        doc = json.loads(path.read_text())
        doc["job"]["triplet"]["alpha"] = "5"
        doc["job"]["triplet"]["beta"] = "3"
        path.write_text(json.dumps(doc))
        with pytest.raises(DigestMismatchError):
            load_checkpoint(str(path))

    def test_resume_rejects_empty_extension(self):
        cp = verify_range(job(T231, 1, 1000, (OMEGA1,)), workers=1)
        with pytest.raises(InvalidTargetsError):
            resume(cp, 1000)

    def test_digest_stable_across_extension(self):
        cp = verify_range(job(T231, 1, 1000, (OMEGA1,)), workers=1)
        cp2 = resume(cp, 2000, workers=1)
        assert cp2.digest == cp.digest
        assert cp2.job.lo == 1 and cp2.job.hi == 2000

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "cp.json"
        save_checkpoint(verify_range(job(T231, 1, 1000, (OMEGA1,)), workers=1), str(path))
        before = path.read_bytes()

        def failing_dump(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(verify.json, "dump", failing_dump)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(verify_range(job(T231, 1, 2000, (OMEGA1,)), workers=1), str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["cp.json"]

    def test_directory_fsynced_after_the_rename(self, tmp_path, monkeypatch):
        modes = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            modes.append(os.fstat(fd).st_mode)
            real_fsync(fd)

        monkeypatch.setattr(verify.os, "fsync", recording_fsync)
        save_checkpoint(verify_range(job(T231, 1, 1000, (OMEGA1,)), workers=1),
                        str(tmp_path / "cp.json"))
        assert [stat.S_ISDIR(mode) for mode in modes] == [False, True]

    def test_checkpoint_from_earlier_release_resumes(self, tmp_path):
        # written by the code before the residue sieve existed
        path = tmp_path / "cp.json"
        path.write_text(
            '{"version": 1, "job": {"triplet": {"d": "8", "alpha": "12", "beta": "4", '
            '"kappa": "+"}, "lo": "1", "hi": "100", "targets": [{"omega": "1", '
            '"length": 4, "kbar": 3, "max_elem": "8", "elements": ["1", "2", "4", "8"]}], '
            '"max_steps": "10000", "max_value": "1000000000000000000000000000000", '
            '"chunk_size": 30, "below_frontier_shortcut": true, "prefix_verified_to": "0"}, '
            '"digest": "bd0c247856327c2169fcefd8b751264d5e3b7cd9c55f8a620072a1cac3c4cd89", '
            '"verified_frontier": "66", "exceptions": [["67", "step_cap"]], '
            '"seeds_scanned": "100", "wall_time": 0.0013941050001449184, '
            '"throughput": 71730.60851916097}')
        extended = resume(load_checkpoint(str(path)), 5000, workers=1)
        oneshot = verify_range(job(T8124, 1, 5000, TARGETS[T8124][:1], chunk_size=30,
                                   limits=Limits(max_steps=10**4)), workers=1)
        assert extended.digest == oneshot.digest
        assert extended.verified_frontier == oneshot.verified_frontier == 66
        assert extended.exceptions == oneshot.exceptions
        assert extended.seeds_scanned == oneshot.seeds_scanned == 5000

    @pytest.mark.parametrize("edit, message", [
        ({"verified_frontier": "5000", "exceptions": [["7", "bogus"]]},
         "exception 7 has unknown status 'bogus'"),
        ({"exceptions": [["67", "converged"]]}, "unknown status 'converged'"),
        ({"exceptions": [["67", "step_cap"], ["67", "value_cap"]]}, "increase strictly"),
        ({"exceptions": [["80", "step_cap"], ["67", "step_cap"]]}, "increase strictly"),
        ({"verified_frontier": "-1", "exceptions": [["0", "step_cap"]]}, "increase strictly"),
        ({"verified_frontier": "100", "exceptions": [["101", "step_cap"]]},
         "increase strictly"),
        ({"verified_frontier": "5000"}, "frontier 5000 .* expected 66"),
        ({"verified_frontier": "65"}, "frontier 65 .* expected 66"),
        ({"exceptions": []}, "frontier 66 .* expected 100"),
        ({"seeds_scanned": "6000"}, "seeds_scanned 6000"),
        ({"seeds_scanned": "99"}, "seeds_scanned 99"),
    ])
    def test_result_contradicting_the_job_is_rejected(self, edit, message):
        # the digest covers only the job, so the result is checked against it
        cp = verify_range(job(T8124, 1, 100, TARGETS[T8124][:1]), workers=1)
        doc = checkpoint_to_json_dict(cp)
        assert checkpoint_from_json_dict(doc) == cp
        doc.update(edit)
        with pytest.raises(CheckpointError, match=message):
            checkpoint_from_json_dict(doc)

    @pytest.mark.parametrize("where, value, message", [
        ("version", True, "unsupported checkpoint version True"),
        ("version", 1.0, "unsupported checkpoint version 1.0"),
        ("version", "1", "unsupported checkpoint version '1'"),
        ("chunk_size", True, "chunk_size True is not an integer"),
        ("chunk_size", 30.0, "chunk_size 30.0 is not an integer"),
        ("chunk_size", "30", "chunk_size '30' is not an integer"),
        ("lo", True, "lo True is not an integer"),
        ("hi", 100.7, "hi 100.7 is not an integer"),
        ("hi", "100.0", "hi '100.0' is not an integer"),
        ("max_steps", "1e5", "max_steps '1e5' is not an integer"),
        ("max_value", " 10", "max_value ' 10' is not an integer"),
        ("prefix_verified_to", 0.0, "prefix_verified_to 0.0 is not an integer"),
        ("verified_frontier", 66.2, "verified_frontier 66.2 is not an integer"),
        ("seeds_scanned", 100.9, "seeds_scanned 100.9 is not an integer"),
        ("exceptions.0.0", "6_7", "exception seed '6_7' is not an integer"),
        ("targets.0.elements.0", True, "target element True is not an integer"),
        ("targets.0.omega", "+1", "target omega '\\+1' is not an integer"),
        ("targets.0.length", 4.0, "target length 4.0 is not an integer"),
        ("targets.0.kbar", None, "target kbar None is not an integer"),
        ("targets.0.max_elem", [8], "target max_elem \\[8\\] is not an integer"),
    ])
    def test_integer_fields_must_be_json_integers(self, tmp_path, where, value, message):
        # True is the integer 1 and 1.0 == 1, so a plain comparison or int()
        # would load either as 1, and int() truncates 100.7 to 100
        doc = checkpoint_to_json_dict(verify_range(job(T8124, 1, 100, TARGETS[T8124][:1]),
                                                   workers=1))
        # `where` is a path into the job's fields, else into the checkpoint's
        keys = [int(key) if key.isdigit() else key for key in where.split(".")]
        node = doc["job"] if keys[0] in doc["job"] else doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        path = tmp_path / "cp.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("key, value, message", [
        ("wall_time", True, "wall_time True is not a number"),
        ("wall_time", "nan", "wall_time 'nan' is not a number"),
        ("wall_time", "-5", "wall_time '-5' is not a number"),
        ("wall_time", "1e3", "wall_time '1e3' is not a number"),
        ("wall_time", "inf", "wall_time 'inf' is not a number"),
        ("wall_time", None, "wall_time None is not a number"),
        ("wall_time", float("nan"), "wall_time nan is not a finite number >= 0"),
        ("wall_time", float("inf"), "wall_time inf is not a finite number >= 0"),
        ("wall_time", -5, "wall_time -5.0 is not a finite number >= 0"),
        ("wall_time", -0.5, "wall_time -0.5 is not a finite number >= 0"),
        ("throughput", True, "throughput True is not a number"),
        ("throughput", "1e3", "throughput '1e3' is not a number"),
        ("throughput", [1.0], "throughput \\[1.0\\] is not a number"),
    ])
    def test_timings_must_be_json_numbers(self, tmp_path, key, value, message):
        # float() would load "nan" and "-5", and a NaN wall time would then
        # be written back as NaN, which is not JSON
        doc = checkpoint_to_json_dict(verify_range(job(T8124, 1, 100, TARGETS[T8124][:1]),
                                                   workers=1))
        doc[key] = value
        path = tmp_path / "cp.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(str(path))

    def test_timings_load_from_any_json_number(self):
        # the throughput is derived from the wall time and the range
        cp = verify_range(job(T8124, 1, 100, TARGETS[T8124][:1]), workers=1)
        doc = checkpoint_to_json_dict(cp)
        for wall, throughput in ((0, 7), (3, -1.5), (0.25, float("inf"))):
            doc["wall_time"], doc["throughput"] = wall, throughput
            loaded = checkpoint_from_json_dict(doc)
            assert loaded == replace(cp, wall_time=wall)
            assert type(loaded.wall_time) is float
            assert loaded.throughput == (100 / wall if wall else float("inf"))

    @pytest.mark.parametrize("j", [
        job(T8124, 1, 100, TARGETS[T8124][:1]),
        job(T10128, 1_000, 3_000, TARGETS[T10128], chunk_size=777,
            limits=Limits(max_steps=500, max_value=10**20),
            below_frontier_shortcut=False, prefix_verified_to=999),
    ], ids=["default", "every_field_set"])
    def test_zero_wall_time_writes_strict_json(self, j):
        # the throughput of a zero wall time has no JSON number; null stands
        # for it; every field of the job, its caps included, is read back
        cp = Checkpoint(j, ((j.lo + 66, "step_cap"),), 0.0)
        text = json.dumps(checkpoint_to_json_dict(cp), allow_nan=False)
        doc = json.loads(text)
        assert doc["throughput"] is None
        assert checkpoint_from_json_dict(doc) == cp

    def test_integer_fields_load_from_json_integers(self):
        # as well as from the decimal strings that checkpoint_to_json_dict writes
        cp = verify_range(job(T8124, 1, 100, TARGETS[T8124][:1]), workers=1)
        doc = checkpoint_to_json_dict(cp)
        for key in ("lo", "hi", "max_steps", "max_value", "prefix_verified_to"):
            doc["job"][key] = int(doc["job"][key])
        doc["job"]["targets"][0]["elements"] = [1, 2, 4, 8]
        doc["verified_frontier"], doc["seeds_scanned"] = 66, 100
        doc["exceptions"] = [[67, "step_cap"]]
        assert checkpoint_from_json_dict(doc) == cp

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_shortcut_flag_must_be_a_boolean(self, value):
        # bool("false") is True: such a file would have resumed with the shortcut
        doc = checkpoint_to_json_dict(verify_range(job(T8124, 1, 100, TARGETS[T8124]),
                                                   workers=1))
        doc["job"]["below_frontier_shortcut"] = value
        with pytest.raises(CheckpointError, match="is not true or false"):
            checkpoint_from_json_dict(doc)

    @pytest.mark.parametrize("field, value", [
        ("length", 5), ("kbar", 99), ("max_elem", "16"),
    ])
    def test_target_shape_contradicting_its_elements_is_rejected(self, field, value):
        # the digest covers each target's minimum and elements, not its
        # length, kbar or max_elem, so a resume checks those against the cycle
        cp = verify_range(job(T8124, 1, 100, TARGETS[T8124][:1]), workers=1)
        doc = checkpoint_to_json_dict(cp)
        claimed = doc["job"]["targets"][0][field]
        doc["job"]["targets"][0][field] = value
        edited = checkpoint_from_json_dict(doc)
        assert edited.digest == cp.digest
        message = f"target 1 claims {field} {value} but its cycle has {claimed}"
        with pytest.raises(InvalidTargetsError, match=message):
            resume(edited, 200, workers=1)
        with pytest.raises(InvalidTargetsError, match=message):
            verify_range(edited.job, workers=1)

    def test_fields_follow_from_the_job_exceptions_and_wall_time(self):
        cp = Checkpoint(job(T8124, 11, 100, TARGETS[T8124][:1]), ((67, "step_cap"),), 0.5)
        assert (cp.digest, cp.verified_frontier, cp.seeds_scanned, cp.throughput) == (
            job_digest(cp.job), 66, 90, 180.0)
        assert replace(cp, exceptions=()).verified_frontier == 100
        assert replace(cp, wall_time=0.0).throughput == float("inf")

    def test_resume_past_exceptions_counts_each_seed_once(self):
        targets = TARGETS[T8124][:1]  # leaves 67 and its class undecided
        cp = verify_range(job(T8124, 1, 100, targets), workers=1)
        assert cp.verified_frontier == 66
        for hi in (300, 1000):
            cp = resume(cp, hi, workers=1)
            oneshot = verify_range(job(T8124, 1, hi, targets), workers=1)
            assert cp.exceptions == oneshot.exceptions
            assert cp.seeds_scanned == oneshot.seeds_scanned == hi
        late = verify_range(job(T8124, 50, 100, targets, prefix_verified_to=49), workers=1)
        assert resume(late, 1000, workers=1).seeds_scanned == 951

    def test_resume_below_the_job_hi_keeps_its_own_range(self):
        # under 60 steps 2:3:1:+ leaves seeds from 27 on undecided; a resume
        # to 1055, inside [frontier, hi], drops the exceptions above 1055
        limits = Limits(max_steps=60)
        cp = verify_range(job(T231, 1, 2000, (OMEGA1,), limits=limits), workers=1)
        assert cp.verified_frontier < 1055 < cp.exceptions[-1][0]
        cut = resume(cp, 1055, workers=1)
        oneshot = verify_range(job(T231, 1, 1055, (OMEGA1,), limits=limits), workers=1)
        assert report_bytes(cut) == report_bytes(oneshot)
        assert checkpoint_from_json_dict(json.loads(json.dumps(checkpoint_to_json_dict(cut)))) == cut

    def test_digest_ignores_scheduling_fields(self):
        a = job(T231, 1, 1000, (OMEGA1,), chunk_size=100)
        b = job(T231, 1, 1000, (OMEGA1,), chunk_size=7777)
        assert job_digest(a) == job_digest(b)
        c = job(T231, 1, 1000, (OMEGA1,), below_frontier_shortcut=False)
        assert job_digest(a) != job_digest(c)


def test_pool_never_larger_than_the_chunk_count(monkeypatch):
    started, stopped, batches = [], [], []

    class InlineExecutor:
        """Records the pool sizes and batch sizes, and maps in this process."""

        def __init__(self, max_workers):
            self.size = max_workers
            started.append(max_workers)

        def map(self, fn, items, chunksize=1):
            batches.append(chunksize)
            return map(fn, items)

        def shutdown(self):
            stopped.append(self.size)

    monkeypatch.setattr(verify, "ProcessPoolExecutor", InlineExecutor)
    monkeypatch.setattr(verify, "_pool", None)
    monkeypatch.setattr(verify, "_last_plan", (b"", None))
    cp = verify_range(job(T231, 1, 3000, (OMEGA1,), chunk_size=1000), workers=64)
    assert started == [3] and cp.exceptions == ()
    verify_range(job(T231, 1, 1000, (OMEGA1,), chunk_size=1000), workers=64)
    assert started == [3]  # one chunk runs inline
    verify_range(job(T231, 1, 3000, (OMEGA1,), chunk_size=1000), workers=3)
    assert started == [3] and stopped == []  # the kept pool serves the next job
    verify_range(job(T231, 1, 2000, (OMEGA1,), chunk_size=1000), workers=64)
    assert started == [3, 2] and stopped == [3]  # and is replaced for another count
    # one batch per worker: 5 chunks on 2 workers go in batches of 3 and 2
    verify_range(job(T231, 1, 5000, (OMEGA1,), chunk_size=1000), workers=2)
    assert batches == [1, 1, 1, 3]


def test_worker_count_defaults_to_the_cpus_the_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert verify._worker_count(None) == 3
    assert verify._worker_count(5) == 5
    monkeypatch.delattr(os, "sched_getaffinity")
    assert verify._worker_count(None) == 64


def kept_workers() -> dict[int, multiprocessing.Process]:
    """The kept pool's own worker processes by pid; empty when none is kept.
    Other children of this process, such as a replaced pool's, are left out."""
    return dict(verify._pool[1]._processes) if verify._pool else {}


def pool_pids() -> set[int]:
    return set(kept_workers())


WINDOW = 10**12  # no-shortcut windows here take a few ms per 1,000 seeds


class TestKeptPool:
    def test_jobs_back_to_back_match_one_worker(self):
        # each plan differs from the one before in triplet, caps or shortcut;
        # the last repeats the first, which a worker no longer holds
        jobs = [
            job(T231, 1, 30_000, (OMEGA1,), chunk_size=4096),
            job(T231, 1, 30_000, (OMEGA1,), chunk_size=4096, limits=Limits(max_steps=60)),
            job(T10128, 1, 30_000, (OMEGA4,), chunk_size=4096),
            job(T231, WINDOW, WINDOW + 3000, (OMEGA1,), chunk_size=500,
                below_frontier_shortcut=False),
            job(T10128, WINDOW, WINDOW + 3000, (OMEGA4,), chunk_size=500,
                below_frontier_shortcut=False),
            job(T10128, WINDOW, WINDOW + 3000, (OMEGA4,), chunk_size=500,
                below_frontier_shortcut=False, limits=Limits(max_steps=40)),
            job(T231, 1, 30_000, (OMEGA1,), chunk_size=4096),
        ]
        pooled = [report_bytes(verify_range(j, workers=2)) for j in jobs]
        inline = [report_bytes(verify_range(j, workers=1)) for j in jobs]
        assert pooled == inline
        assert len(set(pooled)) == len(jobs) - 1

    def test_resume_chains_match_one_worker(self):
        limits = Limits(max_steps=60)
        j = job(T231, 1, 20_000, (OMEGA1,), chunk_size=2048, limits=limits)
        reports = []
        for workers in (2, 1):
            cp = verify_range(replace(j, hi=5000), workers=workers)
            cp = resume(cp, 12_000, workers=workers)
            reports.append(report_bytes(resume(cp, 20_000, workers=workers)))
        assert cp.exceptions and reports[0] == reports[1]
        assert reports[0] == report_bytes(verify_range(j, workers=1))

    def test_workers_scan_the_plan_of_a_patched_builder(self):
        # the kept pool was forked before the patch, so only a plan built in
        # this process and sent with the chunks carries the doctored table
        j = job(T231, WINDOW, WINDOW + 3000, (OMEGA1,), chunk_size=500,
                below_frontier_shortcut=False)
        plain = verify_range(j, workers=2)
        real = verify.build_jumps

        def doctored(*args):
            # every jump now counts as max_steps steps: seeds that jump hit the cap
            return replace(real(*args), depth=j.limits.max_steps)

        with mock.patch.object(verify, "build_jumps", doctored):
            pooled = verify_range(j, workers=2)
            inline = verify_range(j, workers=1)
        assert report_bytes(pooled) == report_bytes(inline) != report_bytes(plain)
        assert plain.exceptions == () and pooled.exceptions

    def test_consecutive_jobs_share_the_workers(self):
        j = job(T231, 1, 30_000, (OMEGA1,), chunk_size=4096)
        verify_range(j, workers=2)
        first = pool_pids()
        verify_range(j, workers=2)
        assert len(first) == 2 and pool_pids() == first, (first, pool_pids())

    def test_threads_replacing_the_pool_under_one_another(self):
        # threads asking for 2 and 3 workers (more than a 2-core host has)
        # in turn, so each job may find the pool of the other count
        jobs = [job(T231, WINDOW + 10_000 * i, WINDOW + 10_000 * i + 1499, (OMEGA1,),
                    chunk_size=300, below_frontier_shortcut=False) for i in range(4)]
        expected = {i: [report_bytes(verify_range(j, workers=1))] * 3 for i, j in enumerate(jobs)}
        got = {}

        def run(i):
            got[i] = [report_bytes(verify_range(jobs[i], workers=2 + (i + k) % 2))
                      for k in range(3)]

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
        assert not any(th.is_alive() for th in threads)
        assert got == expected

    def test_a_dead_worker_fails_its_job_and_the_next_starts_afresh(self):
        j = job(T231, WINDOW, WINDOW + 5999, (OMEGA1,), chunk_size=3000,
                below_frontier_shortcut=False)
        expected = report_bytes(verify_range(j, workers=1))
        verify_range(j, workers=2)
        workers = kept_workers()
        first = set(workers)
        assert len(first) == 2, first
        victim = workers[min(first)]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=30)
        assert not victim.is_alive(), (victim.pid, first)
        try:
            verify_range(j, workers=2)
        except BrokenProcessPool:
            pass
        else:
            pytest.fail(f"no BrokenProcessPool after killing {victim.pid} of {first}; "
                        f"kept pool now {pool_pids()}")
        assert report_bytes(verify_range(j, workers=2)) == expected, (first, pool_pids())
        assert len(pool_pids()) == 2 and not pool_pids() & first, (first, pool_pids())


def test_two_power_family_spot_checks():
    # desk-scale evidence: all two-power triplets with p <= 8 verify on 1..1e5
    for p in range(0, 9):
        for q in range(0, p + 1):
            fam = build_two_power_family(p, q)
            cp = verify_range(
                VerificationJob(triplet=fam.triplet, lo=1, hi=10**5,
                                targets=fam.cycles), workers=1)
            assert cp.exceptions == (), f"(p,q)=({p},{q})"
