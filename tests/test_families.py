import random

import pytest

from collatzkit import (InvalidFamilyParamsError, LadderParams,
                        NoApplicableCaseError, SquareGapParams, Triplet,
                        apply_map_iter, build_dplus1_family,
                        build_ladder_family, build_mersenne_family,
                        build_square_gap_family, build_two_power_family,
                        parse_family_spec, scale_cycles)

SQUARE_GAP_5_MINIMA = (11, 16, 17, 21, 22, 23, 26, 27, 28, 29, 31, 32, 33, 34,
                       37, 38, 39, 43, 44, 49, 56, 62, 68, 74, 81, 87, 93, 99,
                       106, 112, 118, 124)


class TestLadder:
    def test_both_cases_3_8_19(self):
        ps = build_ladder_family(LadderParams(3, 3, 2, 1, 1, 1))
        assert ps.triplet == Triplet(3, 8, 19, 1)
        by_omega = {c.omega: c for c in ps.cycles}
        assert set(by_omega) == {1, 2, 19, 38}
        assert by_omega[1].length == 3 and by_omega[2].length == 3
        assert by_omega[19].elements == (19, 57)
        assert by_omega[38].elements == (38, 114)

    def test_negative_beta_case(self):
        ps = build_ladder_family(LadderParams(3, 2, 3, 1, 1, -1))
        assert ps.triplet == Triplet(3, 28, -19, 1)
        by_omega = {c.omega: c for c in ps.cycles}
        assert set(by_omega) == {1, 2, 19, 38}
        assert by_omega[19].elements == (19, 171, 57)
        assert by_omega[1].length == 2

    def test_case_one_only(self):
        # kappa1*beta < 0: only the unit-residue ladders remain
        ps = build_ladder_family(LadderParams(3, 2, 3, 1, 1, 1))
        assert ps.triplet == Triplet(3, 26, -17, 1)
        assert ps.minima == (1, 2)
        assert all(c.length == 2 for c in ps.cycles)

    def test_gcd_splitting_case(self):
        ps = build_ladder_family(LadderParams(12, 3, 2, 10, 1, 1))
        assert ps.triplet == Triplet(12, 134, 1594, 1)
        by_omega = {c.omega: c for c in ps.cycles}
        assert len(by_omega) == 13
        for r in range(1, 12):
            assert by_omega[r].elements == (r, 144 * r, 12 * r)
        assert by_omega[797].elements == (797, 9564)
        assert by_omega[1594].elements == (1594, 19128)

    def test_minus_kappa0_scaled_ladders(self):
        ps = build_ladder_family(LadderParams(3, 1, 2, 1, -1, 1))
        assert ps.triplet == Triplet(3, 8, 5, -1)
        by_omega = {c.omega: c for c in ps.cycles}
        assert by_omega[5].elements == (5, 15)
        assert by_omega[10].elements == (10, 30)

    def test_coinciding_cases_deduplicate(self):
        # classical triplet: nu0 = nu1, delta = 1, both cases give the same cycle
        ps = build_ladder_family(LadderParams(2, 2, 2, 1, 1, 1))
        assert ps.triplet == Triplet(2, 3, 1, 1)
        assert ps.minima == (1,)
        assert ps.cycles[0].elements == (1, 2)

    def test_no_applicable_case(self):
        with pytest.raises(NoApplicableCaseError):
            build_ladder_family(LadderParams(3, 1, 2, 1, -1, -1))

    def test_invalid_params(self):
        with pytest.raises(InvalidFamilyParamsError):
            LadderParams(3, 1, 1, 3, 1, 1)  # delta > d-1
        with pytest.raises(InvalidFamilyParamsError):
            build_ladder_family(LadderParams(2, 1, 1, 1, 1, 1))  # alpha = 1 < d


class TestSquareGap:
    def test_example_5_6_3089(self):
        ps = build_square_gap_family(SquareGapParams(5, 1, 2))
        assert ps.triplet == Triplet(5, 6, 3089, 1)
        assert ps.generated_count == 44
        assert len(ps.cycles) == 33
        assert ps.minima == SQUARE_GAP_5_MINIMA + (3089,)
        assert all(c.length == 5 for c in ps.cycles)

    def test_negative_beta_edge(self):
        # d=2, nu1=1, mu0=1 derives beta = -1; triplet is still well-formed
        ps = build_square_gap_family(SquareGapParams(2, 1, 1))
        assert ps.triplet == Triplet(2, 3, -1, 1)
        assert ps.minima == (5,)
        assert ps.cycles[0].elements == (5, 7, 10)
        # the fixed point at 1 exists for this map (not part of the family)
        assert apply_map_iter(ps.triplet, 1, 1) == 1

    def test_nu1_above_one_has_no_extra_cycle(self):
        ps = build_square_gap_family(SquareGapParams(5, 3, 2))
        assert all(c.length == 2 * 2 + 3 for c in ps.cycles)
        assert ps.triplet.beta not in ps.minima

    def test_distinct_count_meets_stated_floor(self):
        for d, nu1, mu0 in ((2, 1, 2), (3, 1, 1), (3, 2, 2), (5, 1, 2), (4, 3, 2)):
            ps = build_square_gap_family(SquareGapParams(d, nu1, mu0))
            assert len([c for c in ps.cycles if c.length == 2 * mu0 + nu1]) >= \
                mu0 * (d - 1) ** 2


class TestScale:
    def test_scale_to_373769(self):
        base = build_square_gap_family(SquareGapParams(5, 1, 2))
        scaled = scale_cycles(base.triplet, base.cycles, 121)
        assert scaled.triplet == Triplet(5, 6, 373769, 1)
        assert scaled.minima == tuple(121 * m for m in SQUARE_GAP_5_MINIMA) + (373769,)
        assert all(c.length == 5 for c in scaled.cycles)

    def test_identity_scale(self):
        base = build_mersenne_family(2)
        out = scale_cycles(base.triplet, base.cycles, 1)
        assert out.triplet == base.triplet
        assert out.cycles == base.cycles

    def test_scale_classical_by_five(self):
        base = build_mersenne_family(2)  # (2,3,1)+ with (1,2)
        out = scale_cycles(base.triplet, base.cycles, 5)
        assert out.triplet == Triplet(2, 3, 5, 1)
        assert out.cycles[0].elements == (5, 10)
        # direct iteration oracle
        assert apply_map_iter(out.triplet, 5, 2) == 5

    def test_rejects_wrong_residue(self):
        base = build_mersenne_family(2)
        with pytest.raises(InvalidFamilyParamsError):
            scale_cycles(base.triplet, base.cycles, 4)

    def test_scale_preserves_residue_sign(self):
        base = build_ladder_family(LadderParams(3, 1, 2, 1, -1, 1))  # (3,8,5)-
        scaled = scale_cycles(base.triplet, base.cycles, 4)
        assert scaled.triplet == Triplet(3, 8, 20, -1)
        assert scaled.minima == (20, 40)
        assert apply_map_iter(scaled.triplet, 20, 2) == 20

    def test_scaling_commutes_with_map(self):
        base = Triplet(5, 6, 3089, 1)
        scaled = Triplet(5, 6, 3089 * 121, 1)
        sb, ss = base.step_function(), scaled.step_function()
        for n in range(1, 1001):
            assert ss(121 * n) == 121 * sb(n)


class TestDPlus1:
    def test_fixed_points(self):
        ps = build_dplus1_family(4, 1)
        assert ps.triplet == Triplet(4, 5, -1, 1)
        assert ps.minima == (1, 2, 3)
        assert all(c.length == 1 for c in ps.cycles)

    def test_rotation(self):
        ps = build_dplus1_family(3, -1)
        assert ps.triplet == Triplet(3, 4, 1, -1)
        assert ps.cycles[0].elements == (1, 2, 3)

    def test_classical_is_d_two_minus(self):
        ps = build_dplus1_family(2, -1)
        assert ps.triplet == Triplet(2, 3, 1, -1)
        assert ps.cycles[0].elements == (1, 2)


class TestMersenne:
    def test_small_cases(self):
        ps = build_mersenne_family(2)
        assert ps.triplet == Triplet(2, 3, 1, 1)
        assert ps.cycles[0].elements == (1, 2)
        ps = build_mersenne_family(3)
        assert ps.triplet == Triplet(4, 7, 1, 1)
        assert ps.cycles[0].elements == (1, 2, 4)
        ps = build_mersenne_family(5)
        assert ps.triplet == Triplet(16, 31, 1, 1)
        assert ps.cycles[0].length == 5


class TestTwoPower:
    def test_p_q_zero_is_classical(self):
        ps = build_two_power_family(0, 0)
        assert ps.triplet == Triplet(2, 3, 1, 1)
        assert ps.cycles[0].elements == (1, 2)

    def test_three_one(self):
        ps = build_two_power_family(3, 1)
        assert ps.triplet == Triplet(10, 12, 8, 1)
        assert [(c.omega, c.length) for c in ps.cycles] == [(4, 6)]
        assert ps.cycles[0].elements == (4, 8, 16, 24, 32, 40)

    def test_exceptional_two_two(self):
        ps = build_two_power_family(2, 2)
        assert ps.triplet == Triplet(8, 12, 4, 1)
        assert [(c.omega, c.length) for c in ps.cycles] == [(1, 4), (67, 6)]
        assert ps.cycles[1].elements == (67, 102, 156, 236, 356, 536)

    def test_exceptional_order_three_pair(self):
        ps = build_two_power_family(5, 2)
        assert ps.triplet == Triplet(36, 40, 32, 1)
        assert [(c.omega, c.length) for c in ps.cycles] == \
            [(8, 11), (87176, 35), (76200, 70)]

    def test_main_cycle_length_formula(self):
        for p in range(0, 13):
            for q in (0, p // 2, p):
                if q > p:
                    continue
                ps = build_two_power_family(p, q)
                main = ps.cycles[0] if ps.cycles[0].omega == 2**(p - q) else \
                    next(c for c in ps.cycles if c.omega == 2**(p - q))
                assert main.length == 2**(p - q) + q + 1


class TestSpecStrings:
    def test_roundtrip_specs(self):
        ps = parse_family_spec("ladder:d=3,nu0=3,nu1=2,delta=1,k0=+,k1=+")
        assert ps.triplet == Triplet(3, 8, 19, 1)
        ps = parse_family_spec("squaregap:d=5,nu1=1,mu0=2")
        assert ps.triplet == Triplet(5, 6, 3089, 1)
        ps = parse_family_spec("power2:p=3,q=1")
        assert ps.triplet == Triplet(10, 12, 8, 1)
        ps = parse_family_spec("dplus1:d=4,kappa=+")
        assert ps.minima == (1, 2, 3)
        ps = parse_family_spec("mersenne:p=5")
        assert ps.triplet == Triplet(16, 31, 1, 1)
        ps = parse_family_spec("scale:a0=121,base=squaregap;d=5;nu1=1;mu0=2")
        assert ps.triplet == Triplet(5, 6, 373769, 1)

    def test_bad_specs(self):
        with pytest.raises(InvalidFamilyParamsError):
            parse_family_spec("nosuch:p=1")
        with pytest.raises(InvalidFamilyParamsError):
            parse_family_spec("mersenne:q=5")
        with pytest.raises(InvalidFamilyParamsError):
            parse_family_spec("ladder:d=3")

    @pytest.mark.parametrize("spec", [
        "power2:p=x,q=1",            # not a number
        "power2:p=3,q=1,zz=4",       # unknown key
        "mersenne:p=3,p=5",          # repeated key
        "mersenne:p=",               # empty value
        "power2:p=-1,q=0",           # not a natural
        "dplus1:d=4,kappa=x",        # not a sign
        "scale:a0=4,base=nosuch;p=1",
    ])
    def test_malformed_specs(self, spec):
        with pytest.raises(InvalidFamilyParamsError):
            parse_family_spec(spec)

    def test_power_shorthand_and_both_base_forms(self):
        assert parse_family_spec("mersenne:p=2^2") == build_mersenne_family(4)
        nested = parse_family_spec("scale:a0=121,base=squaregap;d=5;nu1=1;mu0=2")
        plain = parse_family_spec("scale:a0=121,base=squaregap:d=5;nu1=1;mu0=2")
        assert nested == plain

    def test_provenance_reparses_to_the_same_set(self):
        sets = [build_dplus1_family(4, 1), build_dplus1_family(3, -1),
                build_mersenne_family(5), build_two_power_family(5, 2)]
        rng = random.Random(20240817)
        sets += [build_ladder_family(_random_ladder_params(rng)) for _ in range(20)]
        rng = random.Random(414243)
        for _ in range(20):
            d, mu0 = rng.randint(2, 5), rng.randint(1, 3)
            nu1 = rng.randint(1, 2 * mu0 - 1)
            sets.append(build_square_gap_family(SquareGapParams(d, nu1, mu0)))
        for ps in sets:
            assert parse_family_spec(ps.provenance) == ps


def _random_ladder_params(rng: random.Random) -> LadderParams:
    while True:
        d = rng.randint(2, 9)
        nu0 = rng.randint(1, 4)
        nu1 = rng.randint(1, 4)
        delta = rng.randint(1, d - 1)
        k0 = rng.choice((1, -1))
        k1 = rng.choice((1, -1))
        p = LadderParams(d, nu0, nu1, delta, k0, k1)
        if p.alpha <= d or p.beta == 0:
            continue
        if p.alpha % d == 0 or abs(p.beta) % d == 0:
            continue
        t = Triplet(d, p.alpha, p.beta, k0)
        if not t.is_wellformed:
            continue
        if k0 != 1 and p.kappa1 * p.beta <= 0:
            continue  # no case applies
        if k0 != 1 and p.delta > 1 and not (p.nu0 >= 2 and p.nu1 >= 2 and p.nu0 != p.nu1):
            continue
        return p


def test_randomized_ladder_soundness():
    rng = random.Random(20240817)
    for _ in range(200):
        params = _random_ladder_params(rng)
        ps = build_ladder_family(params)
        for c in ps.cycles:
            assert apply_map_iter(ps.triplet, c.omega, c.length) == c.omega
            assert c.length in (params.nu0, params.nu1)


def test_randomized_square_gap_soundness():
    rng = random.Random(414243)
    for _ in range(200):
        d = rng.randint(2, 5)
        mu0 = rng.randint(1, 3)
        nu1 = rng.randint(1, 2 * mu0 - 1)
        ps = build_square_gap_family(SquareGapParams(d, nu1, mu0))
        for c in ps.cycles:
            assert apply_map_iter(ps.triplet, c.omega, c.length) == c.omega
