"""Diophantine bound machinery against independent oracles.

The expected convergents below were computed with the decimal-module oracle
in this file (and double-checked against exact integer power comparisons);
they agree with the float-safe parts of the reference tables and correct
their precision-exhausted tails.
"""

import dataclasses
import math
import random
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Rounded, localcontext
from fractions import Fraction

import pytest

from collatzkit import (BoundPreconditionError, CoprimalityError,
                        MTooSmallError, PrecisionExhaustedError, PrecisionPolicy,
                        bounds, convergents, detect_cycle_from, enumerate_cycles,
                        farey_bound, hurwitz_bound, intervals, mu_bound,
                        parse_triplet, r_infinity_bound, xi_value)
from collatzkit.bounds import exact_farey_sign, farey_sign

T564 = parse_triplet("5:6:4:+")
T231 = parse_triplet("2:3:1:+")

# first 21 certified convergents of log_5(6); the 21st row corrects the
# reference table's float64 tail
LOG56_PQ = [
    (1, 1), (9, 8), (10, 9), (49, 44), (59, 53), (226, 203), (285, 256),
    (2791, 2507), (5867, 5270), (8658, 7777), (31841, 28601),
    (167863, 150782), (199704, 179383), (367567, 330165), (567271, 509548),
    (934838, 839713), (9915651, 8906678), (10850489, 9746391),
    (20766140, 18653069), (93915049, 84358667), (208596238, 187370403),
]


def oracle_cf_convergents(d, alpha, n_terms, digits=90):
    """Independent continued-fraction oracle built on decimal's ln."""
    with localcontext() as c:
        c.prec = digits
        x = Decimal(alpha).ln() / Decimal(d).ln()
        terms = []
        for _ in range(n_terms):
            a = int(x)
            terms.append(a)
            x = 1 / (x - a)
    pq = []
    p1, p2, q1, q2 = 1, 0, 0, 1
    for a in terms:
        p, q = a * p1 + p2, a * q1 + q2
        pq.append((p, q))
        p2, p1, q2, q1 = p1, p, q1, q
    return pq


class TestConvergents:
    def test_log56_against_oracle_and_frozen_table(self):
        assert oracle_cf_convergents(5, 6, 21) == LOG56_PQ
        seq = convergents(T564, 21)
        assert [(p, q) for _a, p, q in seq.terms] == LOG56_PQ

    def test_rows_21_to_23_certified(self):
        # 24-term pull; the tail rows continue the corrected expansion
        # (oracle-checked; the reference table's q_23 = 15032816369 is a
        # float64 artifact)
        tail = [(511107525, 459099473), (4297456438, 3860166187),
                (4808563963, 4319265660)]
        assert oracle_cf_convergents(5, 6, 24)[21:] == tail
        seq = convergents(T564, 24)
        assert [(p, q) for _a, p, q in seq.terms[21:]] == tail

    def test_log23_first_terms(self):
        seq = convergents(T231, 4)
        assert [(p, q) for _a, p, q in seq.terms] == [(1, 1), (2, 1), (3, 2), (8, 5)]
        assert oracle_cf_convergents(2, 3, 4) == [(1, 1), (2, 1), (3, 2), (8, 5)]

    def test_row_23_of_log23(self):
        seq = convergents(T231, 24)
        assert seq.terms[23][1:] == (217976794617, 137528045312)

    def test_determinant_alternates(self):
        seq = convergents(T564, 25).terms
        for n in range(len(seq) - 1):
            det = seq[n][1] * seq[n + 1][2] - seq[n + 1][1] * seq[n][2]
            assert det == (-1) ** (n + 1)

    def test_coprime_and_increasing(self):
        seq = convergents(T564, 25).terms
        for n, (_a, p, q) in enumerate(seq):
            assert math.gcd(p, q) == 1
            if n >= 1:
                assert q >= seq[n - 1][2]
                if n >= 2:
                    assert q > seq[n - 1][2]

    def test_bracketing_exact(self):
        # p/q < log_d(alpha) iff d^p < alpha^q: exact, float-free.  The
        # powers are taken in decimal with every rounding trapped, so a
        # result is exact or raises; decimal multiplies the 7.6-million-digit
        # operands far faster than int does
        seq = convergents(T564, 18).terms
        exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded])
        for n, (_a, p, q) in enumerate(seq):
            below = exact.power(Decimal(5), p) < exact.power(Decimal(6), q)
            assert below == (n % 2 == 0)

    def test_coprimality_required(self):
        with pytest.raises(CoprimalityError):
            convergents(parse_triplet("4:10:54:+"), 5)

    def test_precision_invariance(self):
        lo = convergents(T564, 21, PrecisionPolicy(start_bits=64))
        hi = convergents(T564, 21, PrecisionPolicy(start_bits=1024))
        assert lo.terms == hi.terms


class TestXiValue:
    def test_radius_and_containment(self):
        for t, digits in ((T231, "1.5849625007211561814537389439478"),
                          (T564, "1.1132827525593783458046729280350")):
            for bits in (-1, 0, 8, 64, 128):
                enc = xi_value(t, bits)
                assert enc.radius <= Fraction(1, 2) ** bits
                truth = Fraction(Decimal(digits))
                # truth string has 31 digits; containment up to that accuracy
                assert enc.lo - Fraction(1, 10**30) <= truth <= enc.hi + Fraction(1, 10**30)

    def test_nested_intervals(self):
        coarse = xi_value(T231, 8)
        fine = xi_value(T231, 64)
        assert coarse.lo <= fine.lo and fine.hi <= coarse.hi

    def test_coprimality(self):
        with pytest.raises(CoprimalityError):
            xi_value(parse_triplet("15:35:10:+"), 32)


class TestHurwitz:
    def test_classical_two_pow_71(self):
        rep = hurwitz_bound(T231, 2**71)
        assert rep.bound == 46859289878
        assert rep.method == "hurwitz"

    def test_oracle_cross_check(self):
        # independent decimal-based evaluation of sqrt(alpha ln d M/(beta (d-1) sqrt 5))
        with localcontext() as c:
            c.prec = 60
            v = (Decimal(6) * Decimal(5).ln() * Decimal(5**30) /
                 (Decimal(16) * Decimal(5).sqrt())).sqrt()
            want = int(v)
        assert hurwitz_bound(T564, 5**30).bound == want == 15854783336

    def test_vacuous_at_one(self):
        assert hurwitz_bound(T231, 1).bound == 0

    def test_advisory_as_a_real_cycle_undercuts_it(self):
        # the cycle (5, 35) of 7:46:3:+ has length 2 against a bound of 3 at
        # its minimum: Hurwitz's theorem does not bound every p/q
        t = parse_triplet("7:46:3:+")
        cycle = detect_cycle_from(t, 5)
        assert (cycle.elements, cycle.length) == ((5, 35), 2)
        rep = hurwitz_bound(t, cycle.omega)
        assert rep.bound == 3 > cycle.length
        assert not rep.certified and rep.to_json_dict()["certified"] is False

    def test_preconditions(self):
        with pytest.raises(BoundPreconditionError):
            hurwitz_bound(parse_triplet("4:10:54:+"), 100)
        with pytest.raises(BoundPreconditionError):
            hurwitz_bound(parse_triplet("3:28:-19:+"), 100)


class TestRInfinity:
    def test_float_safe_reference_rows(self):
        for e, bound, n0 in ((5, 36, 3), (10, 2134, 7), (15, 102678, 11),
                             (20, 5905570, 16)):
            rep = r_infinity_bound(T564, 5**e)
            assert (rep.bound, rep.n0) == (bound, n0), f"M=5^{e}"

    def test_certified_corrections_beyond_float64(self):
        # these correct the reference table's precision-exhausted tail
        assert r_infinity_bound(T564, 5**25).bound == 278232150
        assert r_infinity_bound(T564, 5**25).n0 == 21
        rep30 = r_infinity_bound(T564, 5**30)
        assert (rep30.bound, rep30.n0) == (10092943629, 24)
        rep60 = r_infinity_bound(T564, 5**60)
        assert (rep60.bound, rep60.n0) == (417688924472290973411, 45)
        assert rep60.bound == rep60.rows[45].q
        # the reference (869802559919868084225, 40) is impossible: R_n <= q_n
        assert rep60.rows[40].q == 2982030898936106969 < 869802559919868084225

    def test_unimodal_table(self):
        rows = r_infinity_bound(T564, 5**15).rows
        values = [r.value for r in rows]
        peak = values.index(max(values))
        assert values[:peak + 1] == sorted(values[:peak + 1])
        assert values[peak:] == sorted(values[peak:], reverse=True)

    def test_row_values_match_oracle(self):
        # independent recomputation of each row at high decimal precision
        for e in (15, 60):
            rep = r_infinity_bound(T564, 5**e)
            pq = oracle_cf_convergents(5, 6, len(rep.rows), digits=300)
            values = []
            with localcontext() as c:
                c.prec = 300
                g0M = Decimal(6) * Decimal(5).ln() / Decimal(16) * Decimal(5**e)
                qprev = 0
                for row in rep.rows:
                    assert (row.p, row.q) == pq[row.n]
                    ratio = g0M / (qprev + row.q)
                    values.append(min(row.q, int(ratio) + 1))
                    qprev = row.q
            assert [row.value for row in rep.rows] == values
            assert (rep.bound, rep.n0) == (max(values), values.index(max(values)))

    def test_precision_invariance(self):
        a = r_infinity_bound(T564, 5**20, PrecisionPolicy(start_bits=64))
        b = r_infinity_bound(T564, 5**20, PrecisionPolicy(start_bits=512))
        assert a.bound == b.bound and a.n0 == b.n0
        assert [(r.n, r.value) for r in a.rows] == [(r.n, r.value) for r in b.rows]

    def test_preconditions(self):
        with pytest.raises(BoundPreconditionError):
            r_infinity_bound(parse_triplet("4:10:54:+"), 100)


class TestFarey:
    def test_values_over_m_grid(self):
        # first flips, certified; 5^5 corrects the reference 226 (its D_3 > 0
        # by exact integer comparison), the last two correct the float tail
        expect = {5: (49, 3), 10: (2791, 7), 15: (167863, 11),
                  20: (10850489, 17), 25: (511107525, 21), 30: (62000223994, 25)}
        for e, (bound, boxed) in expect.items():
            rep = farey_bound(T564, 5**e)
            assert (rep.bound, rep.boxed_index) == (bound, boxed), f"M=5^{e}"
            assert rep.n0 == (boxed - 1) // 2

    def test_classical_two_pow_71(self):
        rep = farey_bound(T231, 2**71)
        assert rep.bound == 217976794617
        assert rep.boxed_index == 23 and rep.n0 == 11

    def test_sign_structure(self):
        rep = farey_bound(T564, 5**15)
        for row in rep.rows:
            if row.n % 2 == 0:
                assert row.sign > 0
            elif row.n < rep.boxed_index:
                assert row.sign < 0
        assert rep.rows[-1].n == rep.boxed_index and rep.rows[-1].sign > 0

    @pytest.mark.parametrize("t, M", [*((T564, 5**e) for e in range(5, 31, 5)),
                                      (T231, 2**40), (T231, 2**71)], ids=str)
    def test_exact_sign_agrees_with_intervals(self, t, M):
        # rows with q <= 10^4, where the full integer powers are cheap
        rows = [row for row in farey_bound(t, M).rows if row.q <= 10**4]
        assert rows
        for row in rows:
            assert exact_farey_sign(t, M, row.p, row.q) == row.sign

    def test_rows_match_decimal_oracle(self):
        # signs come from farey_sign and digits from the enclosure; every
        # row up to the flip at 5^25, 5^30 and 5^60, where q_n reaches
        # 4e20, is checked against a 300-digit decimal D_n, independent of both
        for e in (25, 30, 60):
            M = 5**e
            rep = farey_bound(T564, M)
            pq = oracle_cf_convergents(5, 6, len(rep.rows), digits=300)
            with localcontext() as c:
                c.prec = 300
                shift = (Decimal(6).ln() + (1 + Decimal(16) / (6 * M)).ln()) / Decimal(5).ln()
                for row in rep.rows:
                    assert (row.p, row.q) == pq[row.n]
                    d_n = shift - Decimal(row.p) / row.q
                    assert row.sign == (1 if d_n > 0 else -1), f"M=5^{e}, row {row.n}"
                    assert row.approx == format(d_n, ".2e"), f"M=5^{e}, row {row.n}"

    @pytest.mark.parametrize("t, M", [(T564, 1), (T231, 1), (parse_triplet("7:46:3:+"), 6)],
                             ids=str)
    def test_m_too_small(self, t, M):
        # D_1(M) > 0 for 5:6:4:+; for the other two X = log_d(d^2) = 2 =
        # p_1/q_1 exactly, so D_1(M) = 0, which no rung's enclosure can
        # sign and farey_sign finds exactly: each is refused on the first
        # rung, so a one-rung ladder is not exhausted
        with pytest.raises(MTooSmallError, match=r"D_1\(M\) >= 0"):
            farey_bound(t, M, PrecisionPolicy(start_bits=64, max_bits=64))

    def test_precision_invariance(self):
        a = farey_bound(T564, 5**25, PrecisionPolicy(start_bits=64))
        b = farey_bound(T564, 5**25, PrecisionPolicy(start_bits=1024))
        assert (a.bound, a.boxed_index) == (b.bound, b.boxed_index)

    def test_precision_exhaustion_is_first_class(self):
        with pytest.raises(PrecisionExhaustedError):
            farey_bound(T564, 5**15, PrecisionPolicy(start_bits=8, max_bits=16))

    def test_exact_demand_survives_over_request(self):
        # the stream asks for the terms the walk needs and no more, so a
        # tight cap that certifies them is enough: flip index 17 needs 18
        # terms, and a 64-bit cap certifies ~27
        rep = farey_bound(T564, 5**20, PrecisionPolicy(start_bits=8, max_bits=64))
        assert (rep.bound, rep.boxed_index) == (10850489, 17)

    def test_ambiguous_sign_carries_index(self, monkeypatch):
        # widen X = xi + log_d(1 + beta*(d-1)/(alpha*M)) by 1 on every rung:
        # every |D_n| < 1, so no rung settles the sign of D_0
        enclose_rung = intervals._Ladder.__getitem__

        def widened(ladder, i):
            rung = enclose_rung(ladder, i)
            return dataclasses.replace(rung, lo=rung.lo - 1, hi=rung.hi + 1)

        monkeypatch.setattr(intervals._Ladder, "__getitem__", widened)
        with pytest.raises(PrecisionExhaustedError) as exc:
            farey_bound(T564, 5**15)
        assert exc.value.ambiguous_index == 0
        assert str(exc.value) == "3 digits of D_0(M) still uncertain at 16384 bits"

    def test_digit_rungs_climb_the_walk(self):
        # from 8 bits at 5^10 the three digits of D_7 need 32 bits: the
        # walk climbs there, and the report says so
        rep = farey_bound(T564, 5**10, PrecisionPolicy(start_bits=8))
        assert rep.bits_used == 32
        assert rep.rows[7].approx == "1.14e-7"

    def test_digits_showing_the_wrong_sign_are_a_defect(self, monkeypatch):
        # mirror X about 1 on every rung: the enclosure of D_0 = X - 1 > 0
        # then certifies the digits of -D_0, which the exact sign refutes
        enclose_rung = intervals._Ladder.__getitem__

        def mirrored(ladder, i):
            rung = enclose_rung(ladder, i)
            return dataclasses.replace(rung, lo=2 - rung.hi, hi=2 - rung.lo)

        monkeypatch.setattr(intervals._Ladder, "__getitem__", mirrored)
        with pytest.raises(AssertionError, match=r"digits -1\.\d\de-1 of D_0\(M\) contradict "
                                                 r"its exact sign 1"):
            farey_bound(T564, 5**15)

    def test_d3_at_5pow5_positive_exactly(self):
        # the decisive entry: D_3(5^5) > 0 by pure integer arithmetic
        assert 6**44 * (6 * 5**5 + 16)**44 > 5**49 * (6 * 5**5)**44
        assert exact_farey_sign(T564, 5**5, 49, 44) == 1


class TestFareySign:
    """farey_sign against exact integer powers, decimal D_n and known zeros."""

    @pytest.mark.parametrize("t, M, p, q", [(parse_triplet("4:5:3:+"), 3, 3, 2),
                                            (parse_triplet("8:13:3:+"), 7, 4, 3)], ids=str)
    def test_exact_zero(self, t, M, p, q):
        # X = log_4 8 = 3/2 and X = log_8 16 = 4/3: A^q = d^p*B^q exactly
        assert farey_sign(t, M, p, q) == exact_farey_sign(t, M, p, q) == 0
        assert farey_sign(t, M, p + 1, q) == -1 and farey_sign(t, M, p - 1, q) == 1
        # the same zero with powers of about 10^4 bits, which 64-bit
        # products only tie once nothing is truncated, and a p/q within
        # 10^-30 of it
        assert farey_sign(t, M, 1000 * p, 1000 * q) == 0
        assert farey_sign(t, M, 10**30 * p + 1, 10**30 * q) == -1

    @pytest.mark.parametrize("e, n, k", [(30, 23, 128), (60, 41, 256)])
    def test_rows_that_need_more_than_64_bits(self, monkeypatch, e, n, k):
        _a, p, q = convergents(T564, n + 1).terms[n]
        used = []
        power_bound = bounds._power_bound

        def recording(x, n, k, up):
            used.append(k)
            return power_bound(x, n, k, up)

        monkeypatch.setattr(bounds, "_power_bound", recording)
        sign = farey_sign(T564, 5**e, p, q)
        assert max(used) == k
        with localcontext() as c:
            c.prec = 100
            shift = (Decimal(6).ln() + (1 + Decimal(16) / (6 * 5**e)).ln()) / Decimal(5).ln()
            assert sign == (1 if shift > Decimal(p) / q else -1)

    def test_agrees_with_exact_powers(self):
        rng = random.Random(31)
        triplets = [T564, T231] + [parse_triplet(text)
                                   for text in ("3:4:2:+", "7:46:3:+", "4:5:3:+", "8:13:3:+")]
        for _ in range(200):
            t = rng.choice(triplets)
            M = rng.randint(1, 10**rng.randint(1, 12))
            q = rng.randint(1, 2000)
            x = math.log(t.alpha * (t.alpha * M + t.beta * (t.d - 1)) / (t.alpha * M), t.d)
            p = round(q * x) + rng.randint(-1, 1)
            assert farey_sign(t, M, p, q) == exact_farey_sign(t, M, p, q), (t, M, p, q)


def test_cross_method_sanity():
    # the square-root bound never beats the best convergent-based bound
    for e in (10, 15, 20, 25):
        h = hurwitz_bound(T564, 5**e).bound
        best = max(r_infinity_bound(T564, 5**e).bound, farey_bound(T564, 5**e).bound)
        assert 1 <= h <= best


@pytest.mark.parametrize("report", [
    lambda policy: r_infinity_bound(T231, 1000, policy),
    lambda policy: farey_bound(T564, 5**10, policy),
    lambda policy: hurwitz_bound(T564, 5**10, policy),
    lambda policy: mu_bound(T231, 2**71, 2, policy),
], ids=["alg1", "alg2", "hurwitz", "mu"])
def test_constants_echo_only_certified_digits(report):
    # at 8 bits the first rung certifies 5-7 digits of each constant, and
    # the echo prints those alone: each is the 128-bit echo of 20 digits
    # rounded to its own number of digits
    coarse = report(PrecisionPolicy(start_bits=8)).constants
    fine = report(PrecisionPolicy()).constants
    shown = {name: value for name, value in coarse.items() if "e" in value}
    assert shown.keys() >= {"gamma0", "xi"}
    for name, value in shown.items():
        digits = len(value.split("e")[0].replace(".", ""))
        assert 1 <= digits < 20 and len(fine[name].split("e")[0]) == 21
        assert value == format(Decimal(fine[name]), f".{digits - 1}e")


def test_alg1_bound_holds_for_every_enumerated_cycle():
    # the orbit engine as an oracle for the bounds engine: every cycle found
    # from seeds up to 300 has at least as many elements not divisible by d
    # as alg1 claims for its minimum; the sweep is every well-formed triplet
    # with 2 <= d <= 4, d < alpha <= 3d, gcd(d, alpha) = 1, 0 < beta < 2d
    # and d not dividing beta, of either sign
    swept = [t for d in range(2, 5) for alpha in range(d + 1, 3 * d + 1)
             if math.gcd(d, alpha) == 1
             for beta in range(1, 2 * d) if beta % d
             for sign in "+-"
             for t in [parse_triplet(f"{d}:{alpha}:{beta}:{sign}")]
             if t.wellformedness.satisfied]
    cycles = [(t, c) for t in swept for c in enumerate_cycles(t, 1, 300)]
    assert (len(swept), len(cycles)) == (40, 112)
    assert [(t.text, c.omega) for t, c in cycles
            if c.kbar < r_infinity_bound(t, c.omega).bound] == []


@pytest.mark.xfail(strict=True, reason="alg2 reports p_(2*n0+1), not the least numerator "
                                       "that the min-side chain allows (ROADMAP open item 1)")
@pytest.mark.parametrize("text, omega", [("3:4:2:+", 14), ("2:3:5:+", 187)])
def test_alg2_bound_holds_for_known_cycles(text, omega):
    # 3:4:2:+ has a cycle at 14 of length 9 against an alg2 bound of 24, and
    # 2:3:5:+ one at 187 of length 27 against 65
    t = parse_triplet(text)
    assert detect_cycle_from(t, omega).length >= farey_bound(t, omega).bound


class TestMuBound:
    def test_oracle_on_convergent_grid(self):
        # evaluate min(q_n, gamma0*M/q_n^2) over the certified q_n directly
        rep = mu_bound(T564, 5**15, 2)
        with localcontext() as c:
            c.prec = 60
            g0M = Decimal(6) * Decimal(5).ln() / Decimal(16) * Decimal(5**15)
            best = 0
            for row in rep.rows:
                ratio = g0M / (Decimal(row.q) ** 2)
                want = min(row.q, int(ratio) if ratio < row.q else row.q)
                assert row.value == want
                best = max(best, want)
        assert rep.bound == best
        assert not rep.certified  # advisory by construction

    def test_monotone_in_mu(self):
        b2 = mu_bound(T564, 5**15, 2).bound
        b3 = mu_bound(T564, 5**15, 3).bound
        b52 = mu_bound(T564, 5**15, Fraction(5, 2)).bound
        assert b2 >= b52 >= b3

    def test_classical_runs(self):
        rep = mu_bound(T231, 2**71, 2)
        assert rep.bound >= 1
        assert rep.constants["mu"] == "2"

    def test_mu_below_two_rejected(self):
        with pytest.raises(BoundPreconditionError):
            mu_bound(T564, 5**15, Fraction(3, 2))


EXHAUSTED = pytest.mark.parametrize("report, message, index", [
    (lambda policy: r_infinity_bound(T564, 5**15, policy),
     "floor of gamma0*M/(q_-1+q_0) still ambiguous at 16 bits", 0),
    # mu's rows settle at 16 bits; its walk needs more convergents than 16 bits certify
    (lambda policy: mu_bound(T564, 5**15, 2, policy),
     "only certified 10 partial quotients of log_5(6) at 16 bits, wanted 11", None),
    (lambda policy: hurwitz_bound(T564, 5**30, policy),
     "floor of hurwitz length bound still ambiguous at 16 bits", None),
], ids=["alg1", "mu", "hurwitz"])


@EXHAUSTED
def test_precision_exhaustion_past_the_cap(report, message, index):
    with pytest.raises(PrecisionExhaustedError) as exc:
        report(PrecisionPolicy(start_bits=8, max_bits=16))
    assert str(exc.value) == message
    assert exc.value.ambiguous_index == index


@EXHAUSTED
def test_exhaustion_names_the_last_rung_tried(report, message, index):
    # a cap of 24 bits is no rung: the ladder tries 8 and 16 bits, as under
    # a cap of 16, and the message names 16
    with pytest.raises(PrecisionExhaustedError) as exc:
        report(PrecisionPolicy(start_bits=8, max_bits=24))
    assert str(exc.value) == message
    assert exc.value.ambiguous_index == index


@pytest.mark.parametrize("policy", [PrecisionPolicy(), PrecisionPolicy(start_bits=8)],
                         ids=["start128", "start8"])
@pytest.mark.parametrize("e", [10, 30, 60])
@pytest.mark.parametrize("method", ["alg1", "mu", "hurwitz", "alg2", "xi", "convergents"])
def test_one_context_per_rung(monkeypatch, method, e, policy):
    # a report encloses its quantity, log_d(alpha) and its constants in one
    # interval context per rung it climbs, rows and convergents included;
    # xi_value and convergents enclose log_d(alpha) once per rung
    built = []
    make_context = intervals.make_context

    def recording(bits):
        built.append(bits)
        return make_context(bits)

    monkeypatch.setattr(intervals, "make_context", recording)
    bits_used = {"alg1": lambda: r_infinity_bound(T564, 5**e, policy).bits_used,
                 "mu": lambda: mu_bound(T564, 5**e, 2, policy).bits_used,
                 "hurwitz": lambda: hurwitz_bound(T564, 5**e, policy).bits_used,
                 "alg2": lambda: farey_bound(T564, 5**e, policy).bits_used,
                 "xi": lambda: xi_value(T564, 4 * e, policy).bits_used,
                 "convergents": lambda: convergents(T564, e, policy).precision_bits_used,
                 }[method]()
    assert built == list(policy.ladder())[:len(built)]
    assert built[-1] == bits_used
