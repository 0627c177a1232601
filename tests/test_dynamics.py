import dataclasses
import math
from fractions import Fraction

import pytest

from collatzkit import (BoundPreconditionError, Converged, Cycle, CycleDetected,
                        EnteredKnownCycle, InvalidTripletError,
                        IterateFormulaDomainError, Limits,
                        NotACycleError, StepCapExceeded, Triplet, Undecided,
                        ValueCapExceeded, apply_map, apply_map_iter, canonicalize,
                        check_cycle_necessary_conditions, classify_seed,
                        closed_form_iterate, detect_cycle_from,
                        enumerate_cycles, parse_triplet, trace)
from collatzkit.families import (SquareGapParams, build_square_gap_family,
                                 build_two_power_family, scale_cycles)
from collatzkit.intervals import DEFAULT_POLICY, endpoints, make_context

T231 = parse_triplet("2:3:1:+")
T3819 = parse_triplet("3:8:19:+")
T10128 = parse_triplet("10:12:8:+")
T341M = parse_triplet("3:4:1:-")
T564 = parse_triplet("5:6:4:+")


def _scaled_373769_cycle():
    base = build_square_gap_family(SquareGapParams(5, 1, 2))
    scaled = scale_cycles(base.triplet, base.cycles, 121)
    return scaled.triplet, scaled.cycles[0]


class TestCanonicalize:
    def test_two_cycle(self):
        c = canonicalize(T3819, [57, 19])
        assert c.omega == 19 and c.length == 2 and c.elements == (19, 57)
        assert c.kbar == 1  # 57 is divisible by 3
        assert c.max_elem == 57

    def test_fixed_point(self):
        c = canonicalize(Triplet(4, 5, -1, 1), [1])
        assert c.omega == 1 and c.length == 1 and c.kbar == 1

    def test_fixed_point_rejects_noncycle(self):
        with pytest.raises(NotACycleError):
            canonicalize(Triplet(4, 5, -1, 1), [4])  # T(4) = 1, not 4

    def test_rotation_to_minimum(self):
        c = canonicalize(T341M, [2, 3, 1])
        assert c.omega == 1 and c.elements == (1, 2, 3) and c.length == 3

    def test_rejects_repeats(self):
        with pytest.raises(NotACycleError):
            canonicalize(T231, [1, 2, 1, 2])

    def test_rejects_broken_chain(self):
        with pytest.raises(NotACycleError):
            canonicalize(T231, [1, 3])

    @pytest.mark.parametrize("elements", [[0], [-1], [-5, -7, -10]], ids=str)
    def test_rejects_non_positive_values(self, elements):
        # each is an orbit of the formula, off the positive integers
        step = T231.step_function()
        assert all(step(x) == elements[(i + 1) % len(elements)]
                   for i, x in enumerate(elements))
        with pytest.raises(NotACycleError, match="not a positive integer"):
            canonicalize(T231, elements)


@pytest.mark.parametrize("n", [0, -5])
@pytest.mark.parametrize("walk", [
    lambda n: trace(T231, n),
    lambda n: detect_cycle_from(T231, n),
    lambda n: classify_seed(T231, n, (detect_cycle_from(T231, 1),)),
], ids=["trace", "detect_cycle_from", "classify_seed"])
def test_orbit_of_a_non_positive_value_is_a_domain_error(walk, n):
    with pytest.raises(InvalidTripletError, match=f"map domain is n >= 1, got {n}"):
        walk(n)


class TestTrace:
    def test_classical_known_minimum(self):
        tr = trace(T231, 6, known=frozenset({1}))
        assert tr.path == (6, 3, 5, 8, 4, 2, 1)
        assert tr.visited_count == 6
        assert tr.terminal == EnteredKnownCycle(1)
        assert tr.peak == 8

    def test_cycle_detected(self):
        tr = trace(T3819, 2)
        assert isinstance(tr.terminal, CycleDetected)
        assert tr.terminal.cycle.elements == (2, 18, 6)

    def test_step_cap(self):
        tr = trace(T231, 7, Limits(max_steps=2))
        assert isinstance(tr.terminal, StepCapExceeded)
        assert tr.visited_count == 2

    def test_value_cap(self):
        tr = trace(parse_triplet("2:9:1:+"), 1, Limits(max_value=10**3))
        assert isinstance(tr.terminal, ValueCapExceeded)
        assert tr.peak > 10**3


class TestDetectCycle:
    def test_enters_trivial_cycle(self):
        c = detect_cycle_from(T10128, 25)
        assert c.omega == 4 and c.length == 6
        assert c.elements == (4, 8, 16, 24, 32, 40)

    def test_minus_triplet_cycle(self):
        c = detect_cycle_from(T341M, 7)
        assert c.omega == 7 and c.length == 9
        assert c.elements == (7, 10, 14, 19, 26, 35, 47, 63, 21)

    def test_no_cycle_within_caps(self):
        assert detect_cycle_from(parse_triplet("2:9:1:+"), 1,
                                 Limits(max_steps=10**3, max_value=10**18)) is None

    def test_rotation_invariance(self):
        base = detect_cycle_from(T10128, 4)
        for e in base.elements:
            assert detect_cycle_from(T10128, e) == base

    def test_paper_typo_cycle_length_is_three(self):
        # the (3,4,1)- cycle at 1 has three elements, whatever its caption says
        c = detect_cycle_from(T341M, 1)
        assert c.elements == (1, 2, 3) and c.length == 3


class TestEnumerate:
    def test_ladder_triplet_four_cycles(self):
        cycles = enumerate_cycles(T3819, 1, 200)
        assert {c.omega for c in cycles} == {1, 2, 19, 38}
        lengths = {c.omega: c.length for c in cycles}
        assert lengths == {19: 2, 38: 2, 1: 3, 2: 3}

    def test_single_cycle_triplet(self):
        cycles = enumerate_cycles(parse_triplet("5:6:4:+"), 1, 100)
        assert len(cycles) == 1
        assert cycles[0].omega == 4 and cycles[0].length == 5
        assert cycles[0].elements == (4, 8, 12, 16, 20)

    def test_two_power_exceptional(self):
        cycles = enumerate_cycles(parse_triplet("8:12:4:+"), 1, 600)
        assert [(c.omega, c.length) for c in cycles] == [(1, 4), (67, 6)]

    def test_sorted_and_deterministic(self):
        a = enumerate_cycles(T3819, 1, 200)
        b = enumerate_cycles(T3819, 1, 200)
        assert a == b
        keys = [(c.length, c.omega) for c in a]
        assert keys == sorted(keys)

    def test_cycle_closure_and_minimality(self):
        for c in enumerate_cycles(T3819, 1, 200):
            assert apply_map_iter(T3819, c.omega, c.length) == c.omega
            for k in range(1, c.length):
                assert apply_map_iter(T3819, c.omega, k) != c.omega

    def test_seed_range_above_cycles_still_finds_them(self):
        # orbits from seeds >= 20 pass through values below the range floor;
        # cycles with small minima are still collected
        cycles = enumerate_cycles(T3819, 20, 200)
        assert {c.omega for c in cycles} == {1, 2, 19, 38}

    def test_nonexistent_listed_cycle_is_refuted(self):
        # 33534 converges into the small cycle at 918; it lies on no cycle
        t = parse_triplet("4:10:54:+")
        c = detect_cycle_from(t, 33534)
        assert c.omega == 918 and c.length == 5
        assert 33534 not in c.elements


class TestClassify:
    def test_famous_27(self):
        target = detect_cycle_from(T231, 1)
        assert classify_seed(T231, 27, (target,)) == Converged(1)

    def test_large_seed_converges(self):
        target = detect_cycle_from(T10128, 4)
        label = classify_seed(T10128, 10**6, (target,))
        assert label == Converged(4)
        # independent oracle: direct iteration
        step = T10128.step_function()
        v = 10**6
        for _ in range(10**5):
            if v in target.elements:
                break
            v = step(v)
        assert v in target.elements

    def test_empty_targets_undecided(self):
        assert classify_seed(parse_triplet("2:9:1:+"), 5, (),
                             Limits(max_steps=100, max_value=10**9)) == Undecided()


def ref_walk(t, n, limits, known=frozenset()):
    """Naive orbit walk on a list, in the documented stop order: a known
    minimum, then the step cap; after each step, the value cap, then a
    revisit.  Returns (end, steps, path), where path ends with the value
    that ended the walk."""
    path = [n]
    while True:
        v = path[-1]
        if v in known:
            return "stop", len(path) - 1, path
        if len(path) - 1 >= limits.max_steps:
            return "step_cap", len(path) - 1, path
        w = apply_map(t, v)
        if w > limits.max_value:
            return "value_cap", len(path), path + [w]
        if w in path:
            return "revisit", len(path), path + [w]
        path.append(w)


def ref_classify(t, n, owner, limits):
    """Naive classify_seed with no revisit check: a periodic orbit runs on
    to the step cap.  Past 2,000 steps the orbit is asserted periodic,
    which decides Undecided without running the remaining steps."""
    path = [n]
    while path[-1] not in owner:
        if len(path) > limits.max_steps:
            return Undecided()
        if len(path) > 2000:
            assert len(set(path)) < len(path)
            return Undecided()
        path.append(apply_map(t, path[-1]))
        if path[-1] > limits.max_value:
            return Undecided()
    return Converged(owner[path[-1]])


def ref_cycle(path):
    """Min-first rotation of the cycle closed by the last value of path."""
    elems = path[path.index(path[-1]):-1]
    i = elems.index(min(elems))
    return tuple(elems[i:] + elems[:i])


WALK_TRIPLETS = [T231, T3819, T10128, T341M, parse_triplet("2:3:1:-"),
                 parse_triplet("3:4:-1:+"), parse_triplet("5:6:1:-"),
                 parse_triplet("8:12:4:+")]
WALK_SEEDS = range(1, 120)


def walk_limit_sets(t):
    """(limits, known cycle minima) pairs; only `trace` reads the minima."""
    minima = frozenset(c.omega for c in enumerate_cycles(t, 1, 100))
    return [(Limits(), frozenset()), (Limits(max_steps=5), frozenset()),
            (Limits(max_value=200), frozenset()), (Limits(max_value=40), frozenset()),
            (Limits(), minima), (Limits(max_steps=12, max_value=10**4), minima)]


class TestWalkerAgainstReference:
    @pytest.mark.parametrize("t", WALK_TRIPLETS, ids=str)
    def test_trace(self, t):
        for limits, known in walk_limit_sets(t):
            for n in WALK_SEEDS:
                end, steps, path = ref_walk(t, n, limits, known)
                tr = trace(t, n, limits, known)
                assert tr.visited_count == steps
                assert tr.peak == max(path)
                if end == "revisit":
                    assert tr.terminal.cycle.elements == ref_cycle(path)
                    assert tr.path == tuple(path[:-1])
                else:
                    assert tr.path == tuple(path)
                    assert tr.terminal == {"stop": EnteredKnownCycle(path[-1]),
                                           "step_cap": StepCapExceeded(),
                                           "value_cap": ValueCapExceeded()}[end]

    @pytest.mark.parametrize("t", WALK_TRIPLETS, ids=str)
    def test_detect_cycle_from(self, t):
        for limits, _known in walk_limit_sets(t):
            for n in WALK_SEEDS:
                end, _, path = ref_walk(t, n, limits)
                expected = ref_cycle(path) if end == "revisit" else None
                found = detect_cycle_from(t, n, limits)
                assert (found.elements if found else None) == expected

    @pytest.mark.parametrize("max_steps", [23, 24, 30])
    def test_detect_cycle_from_at_the_step_cap(self, max_steps):
        # 10:12:8:+ from 25 first revisits the 6-cycle at 4 on step 24
        limits = Limits(max_steps=max_steps)
        end, _, path = ref_walk(T10128, 25, limits)
        expected = ref_cycle(path) if end == "revisit" else None
        assert (expected is None) == (max_steps < 24)
        found = detect_cycle_from(T10128, 25, limits)
        assert (found.elements if found else None) == expected

    @pytest.mark.parametrize("t", WALK_TRIPLETS, ids=str)
    def test_classify_seed(self, t):
        cycles = enumerate_cycles(t, 1, 100)
        owner = {x: cycles[0].omega for x in cycles[0].elements}
        for limits, _known in walk_limit_sets(t):
            for n in WALK_SEEDS:
                expected = ref_classify(t, n, owner, limits)
                assert classify_seed(t, n, cycles[:1], limits) == expected

    @pytest.mark.parametrize("t", WALK_TRIPLETS, ids=str)
    def test_enumerate_cycles(self, t):
        for limits, _known in walk_limit_sets(t):
            for lo, hi in ((1, 150), (20, 150)):
                expected = set()
                for n in range(lo, hi + 1):
                    end, _, path = ref_walk(t, n, limits)
                    if end == "revisit":
                        expected.add(ref_cycle(path))
                found = enumerate_cycles(t, lo, hi, limits)
                assert {c.elements for c in found} == expected

    def test_trace_path_ends_with_the_value_over_the_cap(self):
        tr = trace(parse_triplet("2:9:1:+"), 1, Limits(max_value=1000))
        assert tr.path == (1, 5, 23, 104, 52, 26, 13, 59, 266, 133, 599, 2696)
        assert tr.terminal == ValueCapExceeded()
        assert tr.visited_count == 11 and tr.peak == 2696

    def test_value_cap_precedes_revisit(self):
        # 18 lies on the cycle (2, 18, 6) above the cap; returning to it
        # goes over the cap first
        tr = trace(T3819, 18, Limits(max_value=10))
        assert tr.terminal == ValueCapExceeded()
        assert tr.path == (18, 6, 2, 18) and tr.visited_count == 3
        assert detect_cycle_from(T3819, 18, Limits(max_value=10)) is None

    def test_visited_count_at_each_terminal(self):
        known = frozenset({1})
        assert trace(T231, 1, known=known).visited_count == 0
        assert trace(T231, 27, known=known).visited_count == 70
        assert trace(T231, 27, Limits(max_steps=9)).visited_count == 9
        # 2 -> 18 -> 6 -> 2: the revisit is the third step
        cyc = trace(T3819, 2)
        assert cyc.visited_count == 3 and cyc.path == (2, 18, 6)
        assert trace(T231, 1).visited_count == 2  # 1 -> 2 -> 1

    def test_classify_undecided_at_step_cap_before_target(self):
        target = (detect_cycle_from(T231, 1),)
        # 27 first meets the cycle (1, 2) at 2, after 69 steps
        assert classify_seed(T231, 27, target, Limits(max_steps=68)) == Undecided()
        assert classify_seed(T231, 27, target, Limits(max_steps=69)) == Converged(1)
        # a seed on another cycle never reaches the target
        other = (detect_cycle_from(T3819, 19),)
        assert classify_seed(T3819, 2, other) == Undecided()


class TestClosedForm:
    def test_cross_check_against_iteration(self):
        for d in (2, 3):
            for nu1 in (2, 3):
                for mu0 in (2, 3):
                    if 2 * mu0 <= nu1:
                        continue
                    alpha = d**nu1 + 1
                    beta = d**(2 * mu0 + nu1) - alpha**2
                    t = Triplet(d, alpha, beta, 1)
                    for k in range(1, 6):
                        nk = beta * (d**k + 1)
                        for ell in range(1, min(k, nu1) + 1):
                            assert closed_form_iterate(d, nu1, mu0, k, ell) == \
                                apply_map_iter(t, nk, ell)

    def test_substitution_example(self):
        alpha, beta = 3**2 + 1, 3**6 - (3**2 + 1)**2
        assert closed_form_iterate(3, 2, 2, 1, 1) == beta * (alpha + 4)

    def test_domain_rejections(self):
        with pytest.raises(IterateFormulaDomainError):
            closed_form_iterate(2, 2, 2, 2, 0)  # ell >= 1
        with pytest.raises(IterateFormulaDomainError):
            closed_form_iterate(2, 2, 2, 2, 3)  # ell > k
        with pytest.raises(IterateFormulaDomainError):
            closed_form_iterate(2, 1, 2, 3, 1)  # nu1 = 1 branch
        with pytest.raises(IterateFormulaDomainError):
            closed_form_iterate(2, 2, 1, 3, 3)  # ell > nu1: residue class shifts
        with pytest.raises(IterateFormulaDomainError):
            closed_form_iterate(2, 3, 1, 2, 1)  # 2*mu0 <= nu1

    def test_scope_boundary_is_genuine(self):
        # at ell = nu1 + 1 the previous iterate is divisible by d, so the
        # closed form (if extended) would diverge from iteration
        d, nu1, mu0 = 2, 2, 2
        beta = d**(2 * mu0 + nu1) - (d**nu1 + 1)**2
        t = Triplet(d, d**nu1 + 1, beta, 1)
        second = apply_map_iter(t, beta * (d**3 + 1), nu1)
        assert second % d == 0


class TestNecessaryConditions:
    def test_classical_cycle(self):
        rep = check_cycle_necessary_conditions(T231, detect_cycle_from(T231, 1))
        assert rep.both_hold

    def test_single_cycle_example(self):
        t = parse_triplet("5:6:4:+")
        rep = check_cycle_necessary_conditions(t, detect_cycle_from(t, 4))
        assert rep.both_hold
        # Omega(4) = (4,8,12,16,20): one multiple of 5
        assert detect_cycle_from(t, 4).kbar == 4

    def test_square_gap_big_beta(self):
        t = Triplet(5, 6, 3089, 1)
        rep = check_cycle_necessary_conditions(t, detect_cycle_from(t, 3089))
        assert rep.both_hold
        assert detect_cycle_from(t, 3089).length == 5

    def test_precondition_violations(self):
        t = parse_triplet("4:10:54:+")  # gcd(4, 10) = 2
        with pytest.raises(BoundPreconditionError):
            check_cycle_necessary_conditions(t, detect_cycle_from(t, 1))
        tneg = parse_triplet("3:28:-19:+")
        with pytest.raises(BoundPreconditionError):
            check_cycle_necessary_conditions(tneg, detect_cycle_from(tneg, 1))

    def test_rejects_what_is_not_the_canonical_cycle(self):
        # T(2) = 1: not an orbit, and with kbar = 0 both slacks would be 0
        with pytest.raises(NotACycleError):
            check_cycle_necessary_conditions(T231, Cycle((2, 4), 2, 2, 0, 4))
        wrong_kbar = dataclasses.replace(detect_cycle_from(T231, 1), kbar=2)
        with pytest.raises(NotACycleError):
            check_cycle_necessary_conditions(T231, wrong_kbar)
        # T(-1) = -1 is a fixed point of the formula, off the positive integers
        with pytest.raises(NotACycleError):
            check_cycle_necessary_conditions(T231, Cycle((-1,), -1, 1, 1, -1))

    @pytest.mark.parametrize("make", [
        lambda: (T231, detect_cycle_from(T231, 1)),  # gap == sum_logs exactly (d = 2)
        lambda: (T564, detect_cycle_from(T564, 4)),
        lambda: (Triplet(5, 6, 3089, 1), detect_cycle_from(Triplet(5, 6, 3089, 1), 3089)),
        lambda: (build_two_power_family(3, 0).triplet, build_two_power_family(3, 0).cycles[0]),
        _scaled_373769_cycle,
    ], ids=["2:3:1:+", "5:6:4:+", "5:6:3089:+", "power2", "scaled"])
    def test_log_vs_rational_links_are_certified_true(self, make):
        t, cycle = make()
        # the verdict treats sum_bound - sum_logs > 0 and min_bound - min_mid > 0
        # as proven; interval arithmetic confirms both signs
        d, alpha, beta = t.d, t.alpha, t.beta
        nondiv = [x for x in cycle.elements if x % d != 0]
        prod_num = math.prod(alpha * x + beta * (d - 1) for x in nondiv)
        prod_den = math.prod(alpha * x for x in nondiv)
        sum_coeff = Fraction(beta * (d - 1), alpha) * sum(Fraction(1, x) for x in nondiv)
        min_coeff = Fraction(cycle.kbar * beta * (d - 1), alpha * cycle.omega)

        def sum_slack(ctx):
            logs = ctx.log(ctx.mpf(prod_num)) - ctx.log(ctx.mpf(prod_den))
            bound = ctx.mpf(sum_coeff.numerator) / ctx.mpf(sum_coeff.denominator)
            return (bound - logs) / ctx.log(ctx.mpf(d))

        def min_slack(ctx):
            mid = cycle.kbar * (ctx.log(ctx.mpf(alpha * cycle.omega + beta * (d - 1))) -
                                ctx.log(ctx.mpf(alpha * cycle.omega)))
            bound = ctx.mpf(min_coeff.numerator) / ctx.mpf(min_coeff.denominator)
            return (bound - mid) / ctx.log(ctx.mpf(d))

        def certified_positive(expr):
            return any(endpoints(expr(make_context(bits)))[0] > 0
                       for bits in DEFAULT_POLICY.ladder())

        assert certified_positive(sum_slack)
        assert certified_positive(min_slack)
        assert check_cycle_necessary_conditions(t, cycle).both_hold
