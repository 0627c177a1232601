"""Certified real comparisons via directed-rounding interval arithmetic.

Every comparison made here is backed by an mpmath interval enclosure whose
endpoints are extracted as exact dyadic rationals.  A comparison is
*certified* when the whole enclosure lies on one side; otherwise precision
is doubled up the policy ladder to its cap, and the caller gets
PrecisionExhaustedError rather than a guess.  Contexts are local to a
single computation (one enclosure, or one bound report's rung), so
concurrent callers never share rounding state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from mpmath.ctx_iv import MPIntervalContext

from .errors import PrecisionExhaustedError

# extra bits over the nominal rung, absorbs enclosure slack near thresholds
GUARD_BITS = 16


@dataclass(frozen=True)
class PrecisionPolicy:
    """Escalation ladder: start_bits, doubling, hard cap."""

    start_bits: int = 128
    max_bits: int = 16384

    def __post_init__(self):
        if self.start_bits < 8 or self.max_bits < self.start_bits:
            raise ValueError(f"bad precision policy {self}")

    def ladder(self) -> Iterator[int]:
        bits = self.start_bits
        while bits <= self.max_bits:
            yield bits
            bits *= 2


DEFAULT_POLICY = PrecisionPolicy()


def _fraction_from_mpf_tuple(t) -> Fraction:
    sign, man, exp, _bc = t
    man = int(man)
    exp = int(exp)
    if man == 0:
        # mpf zero, or an infinity when exp is the special marker
        if exp != 0:
            raise OverflowError("interval endpoint is not finite")
        return Fraction(0)
    f = Fraction(man, 1) * Fraction(2, 1) ** exp
    return -f if sign else f


def endpoints(x) -> tuple[Fraction, Fraction]:
    """Exact dyadic endpoints of an mpmath interval value."""
    lo = _fraction_from_mpf_tuple(x._mpi_[0])
    hi = _fraction_from_mpf_tuple(x._mpi_[1])
    return lo, hi


def make_context(bits: int) -> MPIntervalContext:
    ctx = MPIntervalContext()
    ctx.prec = bits + GUARD_BITS
    return ctx


@dataclass(frozen=True)
class CertifiedReal:
    """A real number bracketed by exact rational bounds."""

    lo: Fraction
    hi: Fraction
    bits_used: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("inverted enclosure")

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def radius(self) -> Fraction:
        return (self.hi - self.lo) / 2

    def contains(self, value) -> bool:
        return self.lo <= value <= self.hi

    def __float__(self) -> float:
        return float(self.midpoint)

    def sci(self, sig: int = 3) -> str:
        """Midpoint in scientific notation with sig significant digits."""
        from decimal import Decimal, localcontext
        with localcontext() as lctx:
            lctx.prec = sig + 10
            mid = self.midpoint
            v = Decimal(mid.numerator) / Decimal(mid.denominator)
        return format(v, f".{sig - 1}e")

    def sci_certified(self, sig: int = 3) -> Optional[str]:
        """The scientific notation with sig significant digits that every
        point of [lo, hi] rounds to, or None when two points round apart.

        lo is rounded down and hi up to sig + 10 digits; rounding to sig
        digits is monotone, so when both give the same digits, so does every
        point between them."""
        from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext
        with localcontext() as lctx:
            lctx.prec = sig + 10
            lctx.rounding = ROUND_FLOOR
            lo = Decimal(self.lo.numerator) / self.lo.denominator
            lctx.rounding = ROUND_CEILING
            hi = Decimal(self.hi.numerator) / self.hi.denominator
        shown = format(lo, f".{sig - 1}e")
        return shown if shown == format(hi, f".{sig - 1}e") else None


Expr = Callable[[MPIntervalContext], object]


def enclose(expr: Expr, bits: int) -> tuple[Fraction, Fraction]:
    """Evaluate expr in a fresh context at the given precision."""
    return endpoints(expr(make_context(bits)))


def certified_enclosure(expr: Expr, max_radius: Fraction,
                        policy: PrecisionPolicy = DEFAULT_POLICY,
                        what: str = "value") -> CertifiedReal:
    """Enclosure of expr with radius at most max_radius."""
    for bits in policy.ladder():
        lo, hi = enclose(expr, bits)
        if hi - lo <= 2 * max_radius:
            return CertifiedReal(lo, hi, bits)
    raise PrecisionExhaustedError(
        f"cannot enclose {what} to radius {max_radius} within {policy.max_bits} bits")


def log_ratio_expr(d: int, alpha: int) -> Expr:
    """Expression for log(alpha)/log(d)."""
    def expr(ctx):
        return ctx.log(ctx.mpf(alpha)) / ctx.log(ctx.mpf(d))
    return expr


def certified_partial_quotients(
        d: int, alpha: int, n_terms: int, policy: PrecisionPolicy = DEFAULT_POLICY,
        enclosure: Optional[Callable[[int], tuple[Fraction, Fraction]]] = None
) -> tuple[list[int], int]:
    """First n_terms partial quotients of log_d(alpha), each one certified.

    Runs the continued-fraction recursion on the exact rational endpoints of
    an interval enclosure; a term is emitted only when both endpoints share
    the same floor, so each emitted a_n is proven correct.  Ambiguity (or an
    endpoint landing exactly on an integer) escalates the whole expansion to
    doubled precision.  enclosure(bits) gives the endpoints of log_d(alpha)
    on a rung; by default each rung encloses it in a fresh context.
    """
    if enclosure is None:
        def enclosure(bits):
            return enclose(log_ratio_expr(d, alpha), bits)
    for bits in policy.ladder():
        lo, hi = enclosure(bits)
        terms: list[int] = []
        while len(terms) < n_terms:
            flo = lo.numerator // lo.denominator
            fhi = hi.numerator // hi.denominator
            if flo != fhi:
                break
            a = int(flo)
            terms.append(a)
            lo_frac = lo - a
            hi_frac = hi - a
            if lo_frac <= 0:
                break  # next interval would be unbounded; escalate
            lo, hi = 1 / hi_frac, 1 / lo_frac
        if len(terms) >= n_terms:
            return terms, bits
    raise PrecisionExhaustedError(
        f"only certified {len(terms)} partial quotients of log_{d}({alpha}) "
        f"at {policy.max_bits} bits, wanted {n_terms}")


class ConvergentStream:
    """Lazily extended certified convergents p_n/q_n of log_d(alpha).

    Extension recomputes the expansion from scratch at whatever precision the
    policy ladder needs.  It climbs the ladder from bits_used rather than
    from its start: each rung certifies a fixed number of terms, and every
    rung below bits_used certified fewer than the stream already holds, so
    it cannot certify more, and skipping it leaves the terms and bits_used
    unchanged.  Prefixes are stable across extensions because every emitted
    term is certified.  enclosure is passed on to certified_partial_quotients:
    a bound report passes its own rungs' enclosures, so that extending the
    stream builds no context of its own.
    """

    def __init__(self, d: int, alpha: int, policy: PrecisionPolicy = DEFAULT_POLICY,
                 enclosure: Optional[Callable[[int], tuple[Fraction, Fraction]]] = None):
        self.d = d
        self.alpha = alpha
        self.policy = policy
        self.enclosure = enclosure
        self.bits_used = 0
        self._terms: list[tuple[int, int, int]] = []  # (a_n, p_n, q_n)

    def ensure(self, n_terms: int) -> None:
        if n_terms <= len(self._terms):
            return
        target = max(n_terms, 2 * len(self._terms), 8)
        policy = replace(self.policy, start_bits=max(self.policy.start_bits, self.bits_used))
        try:
            quotients, bits = certified_partial_quotients(self.d, self.alpha, target, policy,
                                                          self.enclosure)
        except PrecisionExhaustedError:
            if target == n_terms:
                raise
            # the amortized over-request exceeded the policy cap; the exact
            # demand may still be certifiable
            quotients, bits = certified_partial_quotients(self.d, self.alpha, n_terms, policy,
                                                          self.enclosure)
        self.bits_used = max(self.bits_used, bits)
        terms: list[tuple[int, int, int]] = []
        p1, p2, q1, q2 = 1, 0, 0, 1
        for a in quotients:
            p = a * p1 + p2
            q = a * q1 + q2
            terms.append((a, p, q))
            p2, p1, q2, q1 = p1, p, q1, q
        if self._terms and terms[: len(self._terms)] != self._terms:
            raise AssertionError("certified prefix changed across extension")
        self._terms = terms

    def term(self, n: int) -> tuple[int, int, int]:
        self.ensure(n + 1)
        return self._terms[n]

    def prefix(self, n_terms: int) -> Sequence[tuple[int, int, int]]:
        self.ensure(n_terms)
        return tuple(self._terms[:n_terms])
