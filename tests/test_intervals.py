from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from collatzkit import (PrecisionExhaustedError, PrecisionPolicy, convergents, intervals,
                        parse_triplet)
from collatzkit.intervals import CertifiedReal, certified_partial_quotients


def test_policy_ladder():
    assert list(PrecisionPolicy(64, 256).ladder()) == [64, 128, 256]
    with pytest.raises(ValueError):
        PrecisionPolicy(128, 64)


def test_certified_real_invariants():
    r = CertifiedReal(Fraction(1, 3), Fraction(1, 2), 64)
    assert r.midpoint == Fraction(5, 12)
    assert r.radius == Fraction(1, 12)
    assert r.contains(Fraction(2, 5))
    with pytest.raises(ValueError):
        CertifiedReal(Fraction(1), Fraction(0), 64)


def test_partial_quotients_match_decimal_oracle():
    with localcontext() as c:
        c.prec = 80
        x = Decimal(3).ln() / Decimal(2).ln()
        expected = []
        for _ in range(20):
            a = int(x)
            expected.append(a)
            x = 1 / (x - a)
    # a 128-bit rung certifies 44 terms, and every one is returned; the
    # rung's convergents are built from them
    rung = intervals._Ladder(2, 3, PrecisionPolicy())[0]
    got, bits = certified_partial_quotients(rung)
    assert (len(got), bits) == (44, 128) and got[:20] == expected
    assert [a for a, _p, _q in rung.convergents] == got
    seq = convergents(parse_triplet("2:3:1:+"), 20)
    assert ([a for a, _p, _q in seq.terms], seq.precision_bits_used) == (expected, 128)


def test_partial_quotients_exhaustion_at_tiny_cap():
    t = parse_triplet("5:6:4:+")
    ladder = intervals._Ladder(5, 6, PrecisionPolicy(16, 32))
    assert [len(certified_partial_quotients(ladder[i])[0]) for i in (0, 1)] == [10, 16]
    with pytest.raises(PrecisionExhaustedError, match=r"only certified 16 partial quotients "
                                                      r"of log_5\(6\) at 32 bits, wanted 40"):
        convergents(t, 40, PrecisionPolicy(16, 32))


def test_no_convergents_asked_for_uses_no_precision():
    seq = convergents(parse_triplet("5:6:4:+"), 0)
    assert (seq.terms, seq.precision_bits_used) == ((), 0)
