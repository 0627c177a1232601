from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from collatzkit import PrecisionExhaustedError, PrecisionPolicy, intervals
from collatzkit.intervals import (CertifiedReal, ConvergentStream,
                                  certified_partial_quotients)


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
    # the lowest rung that certifies 20 terms certifies more; they are all returned
    got, _bits = certified_partial_quotients(2, 3, 20, intervals._Ladder(2, 3, PrecisionPolicy()))
    assert len(got) >= 20 and got[:20] == expected


def test_partial_quotients_exhaustion_at_tiny_cap():
    with pytest.raises(PrecisionExhaustedError):
        certified_partial_quotients(5, 6, 40, intervals._Ladder(5, 6, PrecisionPolicy(16, 32)))


def test_stream_prefix_stable_across_extensions():
    s = ConvergentStream(5, 6)
    first = list(s.prefix(5))
    s.ensure(30)
    assert list(s.prefix(5)) == first
    a, p, q = s.term(11)
    assert (p, q) == (167863, 150782)


def test_extension_climbs_the_ladder_from_bits_used(monkeypatch):
    built, tried = [], []
    make_context = intervals.make_context
    rung = intervals._Ladder.__getitem__

    def recording(bits):
        built.append(bits)
        return make_context(bits)

    def recording_rung(ladder, i):
        tried.append(rung(ladder, i).bits)
        return rung(ladder, i)

    monkeypatch.setattr(intervals, "make_context", recording)
    monkeypatch.setattr(intervals._Ladder, "__getitem__", recording_rung)
    s = ConvergentStream(2, 3)
    s.ensure(50)  # 128 bits certify 44 terms, 256 bits 86, which the stream keeps
    assert built == tried == [128, 256] and s.bits_used == 256
    built.clear()
    tried.clear()
    s.ensure(86)  # held already: no rung is tried
    assert built == tried == []
    s.ensure(100)  # 512 bits certify 165 terms
    assert tried == [256, 512]
    assert built == [512]  # the stream's ladder keeps its rungs
    monkeypatch.undo()
    quotients, bits = certified_partial_quotients(2, 3, 100,
                                                  intervals._Ladder(2, 3, PrecisionPolicy()))
    assert len(quotients) == 165
    assert [a for a, _p, _q in s.prefix(165)] == quotients
    assert s.bits_used == bits == 512
