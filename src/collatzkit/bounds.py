"""Certified lower bounds on hypothetical cycle lengths.

All real-number comparisons (partial-quotient floors, R_n floors, D_n signs,
square-root floors) are certified by interval arithmetic with precision
escalation; rerunning any bound at doubled precision returns the identical
integers.  The irrationality-measure bound is the one advisory exception and
is labeled as such (its validity threshold is not effectively computable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .core import Triplet
from .errors import (BoundPreconditionError, CoprimalityError, MTooSmallError,
                     PrecisionExhaustedError)
from .intervals import (DEFAULT_POLICY, CertifiedReal, ConvergentStream,
                        Expr, PrecisionPolicy, certified_enclosure,
                        certified_floor, certified_sign, enclose, endpoints,
                        log_ratio_expr, make_context)

EXACT_SIGN_Q_LIMIT = 10**4


@dataclass(frozen=True)
class ConvergentSequence:
    """Certified partial quotients and convergents of log_d(alpha)."""

    triplet: Triplet
    terms: tuple[tuple[int, int, int], ...]  # (a_n, p_n, q_n)
    precision_bits_used: int

    def __len__(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class Alg1Row:
    n: int
    p: int
    q: int
    value: int  # R_n


@dataclass(frozen=True)
class Alg2Row:
    n: int
    p: int
    q: int
    sign: int
    approx: str  # D_n to 3 significant digits, certified


@dataclass(frozen=True)
class MuRow:
    n: int
    p: int
    q: int
    value: int


BoundRow = Union[Alg1Row, Alg2Row, MuRow]


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one lower-bound computation.

    bound is the certified integer lower bound (on the non-divisible element
    count for method alg1, on the cycle length otherwise); n0 is the peak or
    sign-change index in the method's own indexing; boxed_index, for alg2,
    is the table row 2*n0+1 where the odd-index sign flips.
    """

    method: str
    triplet: Triplet
    M: int
    bound: int
    n0: int
    rows: tuple[BoundRow, ...]
    constants: dict[str, str]
    bits_used: int
    boxed_index: Optional[int] = None
    certified: bool = True

    def to_json_dict(self) -> dict:
        rows = []
        for r in self.rows:
            rec = {"n": r.n, "p": str(r.p), "q": str(r.q)}
            if isinstance(r, Alg2Row):
                rec["sign"] = "+" if r.sign > 0 else "-"
                rec["approx"] = r.approx
            else:
                rec["value"] = str(r.value)
            rows.append(rec)
        return {
            "method": self.method,
            "triplet": self.triplet.to_json_dict(),
            "min_omega": str(self.M),
            "bound": str(self.bound),
            "n0": self.n0,
            "boxed_index": self.boxed_index,
            "constants": self.constants,
            "precision_bits_used": self.bits_used,
            "certified": self.certified,
            "rows": rows,
        }


def _require_section_preconditions(t: Triplet) -> None:
    if math.gcd(t.d, t.alpha) != 1:
        raise BoundPreconditionError(
            f"bounds need gcd(d, alpha) = 1; gcd({t.d}, {t.alpha}) = {math.gcd(t.d, t.alpha)}")
    if t.beta <= 0:
        raise BoundPreconditionError(f"bounds need beta > 0, got {t.beta}")


def xi_value(t: Triplet, bits: int,
             policy: PrecisionPolicy | None = None) -> CertifiedReal:
    """log(alpha)/log(d) with certified two-sided error of radius <= 2^-bits."""
    if math.gcd(t.d, t.alpha) != 1:
        raise CoprimalityError(
            f"log_d(alpha) is only guaranteed irrational for coprime d, alpha; "
            f"gcd({t.d}, {t.alpha}) != 1")
    if policy is None:
        policy = PrecisionPolicy(start_bits=max(DEFAULT_POLICY.start_bits, bits + 8),
                                 max_bits=max(DEFAULT_POLICY.max_bits, 4 * (bits + 8)))
    return certified_enclosure(log_ratio_expr(t.d, t.alpha), Fraction(1, 2**bits),
                               policy, what=f"log_{t.d}({t.alpha})")


def convergents(t: Triplet, min_terms: int,
                policy: PrecisionPolicy = DEFAULT_POLICY) -> ConvergentSequence:
    """At least min_terms certified convergents of log_d(alpha)."""
    if math.gcd(t.d, t.alpha) != 1:
        raise CoprimalityError(f"gcd({t.d}, {t.alpha}) != 1")
    stream = ConvergentStream(t.d, t.alpha, policy)
    terms = stream.prefix(min_terms)
    return ConvergentSequence(t, tuple(terms), stream.bits_used)


def _gamma0_M_expr(t: Triplet, M: int) -> Expr:
    def expr(ctx):
        return (ctx.mpf(t.alpha) * ctx.log(ctx.mpf(t.d)) * ctx.mpf(M)) / \
            ctx.mpf(t.beta * (t.d - 1))
    return expr


def _constants_echo(t: Triplet, policy: PrecisionPolicy) -> dict[str, str]:
    bits = policy.start_bits
    ctx = make_context(bits)
    lo, hi = endpoints(ctx.mpf(t.alpha) * ctx.log(ctx.mpf(t.d)) / ctx.mpf(t.beta * (t.d - 1)))
    gamma0 = CertifiedReal(lo, hi, bits)
    lo, hi = endpoints(ctx.log(ctx.mpf(t.alpha)) / ctx.log(ctx.mpf(t.d)))
    xi = CertifiedReal(lo, hi, bits)
    return {"gamma0": gamma0.sci(20), "xi": xi.sci(20)}


def hurwitz_bound(t: Triplet, m0: int,
                  policy: PrecisionPolicy = DEFAULT_POLICY) -> BoundReport:
    """Length bound sqrt(alpha*log(d)*M0 / (beta*(d-1)*sqrt(5))), floored.

    The floor is certified (exact integer square roots never arise: the
    radicand contains log d and sqrt 5).  The report's bound is the floor;
    the conventional quote rounds up by one.
    """
    _require_section_preconditions(t)
    if m0 < 1:
        raise BoundPreconditionError(f"M0 must be >= 1, got {m0}")

    def expr(ctx):
        rad = (ctx.mpf(t.alpha) * ctx.log(ctx.mpf(t.d)) * ctx.mpf(m0)) / \
            (ctx.mpf(t.beta * (t.d - 1)) * ctx.sqrt(ctx.mpf(5)))
        return ctx.sqrt(rad)

    floor_val, bits = certified_floor(expr, policy, what="hurwitz length bound")
    constants = _constants_echo(t, policy)
    ctx = make_context(policy.start_bits)
    lo, hi = endpoints(ctx.sqrt(ctx.mpf(t.alpha) * ctx.log(ctx.mpf(t.d)) /
                                (ctx.mpf(t.beta * (t.d - 1)) * ctx.sqrt(ctx.mpf(5)))))
    constants["mu0"] = CertifiedReal(lo, hi, policy.start_bits).sci(20)
    # the bounded quantity is irrational, so the conventional rounded-up
    # quote is always floor + 1
    constants["bound_ceiling"] = str(floor_val + 1)
    return BoundReport(
        method="hurwitz", triplet=t, M=m0, bound=floor_val, n0=0, rows=(),
        constants=constants, bits_used=bits)


def r_infinity_bound(t: Triplet, M: int,
                     policy: PrecisionPolicy = DEFAULT_POLICY) -> BoundReport:
    """Peak of R_n = min(q_n, floor(gamma0*M/(q_(n-1)+q_n)) + 1) over the
    convergent table, with gamma0 = alpha*log(d)/(beta*(d-1)).

    Any cycle whose minimum is at least M has at least bound elements not
    divisible by d (hence length >= bound).  The table runs until q_n
    certifiably exceeds gamma0*M, past which every R_n is 1.
    """
    _require_section_preconditions(t)
    if M < 1:
        raise BoundPreconditionError(f"M must be >= 1, got {M}")
    stream = ConvergentStream(t.d, t.alpha, policy)
    rows: list[Alg1Row] = []
    best, best_n = -1, -1
    bits_used = stream.bits_used
    qprev = 0
    n = 0
    while True:
        _a, p, q = stream.term(n)
        denom = qprev + q

        def ratio(ctx, denom=denom):
            return _gamma0_M_expr(t, M)(ctx) / ctx.mpf(denom)

        fl, bits = certified_floor(ratio, policy, what=f"gamma0*M/(q_{n - 1}+q_{n})")
        bits_used = max(bits_used, bits)
        r_n = min(q, fl + 1)
        rows.append(Alg1Row(n, p, q, r_n))
        if r_n > best:
            best, best_n = r_n, n

        def slack(ctx, q=q):
            return _gamma0_M_expr(t, M)(ctx) - ctx.mpf(q)

        sign, enc = certified_sign(slack, policy, what=f"gamma0*M - q_{n}")
        bits_used = max(bits_used, enc.bits_used)
        if sign < 0:
            break
        qprev = q
        n += 1
    return BoundReport(
        method="alg1", triplet=t, M=M, bound=best, n0=best_n, rows=tuple(rows),
        constants=_constants_echo(t, policy), bits_used=max(bits_used, stream.bits_used))


def _certified_sci(expr: Expr, enc: CertifiedReal, policy: PrecisionPolicy,
                   what: str) -> str:
    """Three significant digits of the value that enc encloses, all of them
    certified: an enclosure tight enough for a sign can be too loose for
    its digits, and is then tightened up the ladder past enc's rung."""
    digits = enc.sci_certified(3)
    if digits is not None:
        return digits
    for bits in policy.ladder():
        if bits > enc.bits_used:
            digits = CertifiedReal(*enclose(expr, bits), bits).sci_certified(3)
            if digits is not None:
                return digits
    raise PrecisionExhaustedError(
        f"3 digits of {what} still uncertain at {policy.max_bits} bits")


def exact_farey_sign(t: Triplet, M: int, p: int, q: int) -> int:
    """Sign of xi + log_d(1 + beta*(d-1)/(alpha*M)) - p/q by exact integer
    power comparison; feasible only for small q."""
    lhs = t.alpha**q * (t.alpha * M + t.beta * (t.d - 1))**q
    rhs = t.d**p * (t.alpha * M)**q
    if lhs > rhs:
        return 1
    if lhs < rhs:
        return -1
    return 0


def farey_bound(t: Triplet, M: int,
                policy: PrecisionPolicy = DEFAULT_POLICY) -> BoundReport:
    """Cycle-length bound p_(2*n0+1) from the first odd convergent index
    where D_n = xi + log_d(1 + beta*(d-1)/(alpha*M)) - p_n/q_n turns positive.

    Requires D_1(M) < 0 (otherwise M is too small for this method).  Even
    rows are positive throughout; odd rows are negative until the flip.
    Every sign is interval-certified, and so are the three digits of D_n
    each row prints; rows with q_n within the exact budget are
    cross-checked by integer power comparison.
    """
    _require_section_preconditions(t)
    if M < 1:
        raise BoundPreconditionError(f"M must be >= 1, got {M}")
    stream = ConvergentStream(t.d, t.alpha, policy)
    rows: list[Alg2Row] = []
    bits_used = stream.bits_used
    n = 0
    while True:
        _a, p, q = stream.term(n)

        def d_expr(ctx, p=p, q=q):
            base = ctx.log(ctx.mpf(t.alpha)) / ctx.log(ctx.mpf(t.d))
            corr = ctx.log(1 + ctx.mpf(t.beta * (t.d - 1)) /
                           (ctx.mpf(t.alpha) * ctx.mpf(M))) / ctx.log(ctx.mpf(t.d))
            return base + corr - ctx.mpf(p) / ctx.mpf(q)

        try:
            sign, enc = certified_sign(d_expr, policy, what=f"D_{n}(M)")
        except PrecisionExhaustedError as exc:
            raise PrecisionExhaustedError(str(exc), ambiguous_index=n) from None
        bits_used = max(bits_used, enc.bits_used)
        if q <= EXACT_SIGN_Q_LIMIT:
            exact = exact_farey_sign(t, M, p, q)
            if exact != sign:
                raise AssertionError(
                    f"interval sign {sign} disagrees with exact comparison {exact} at n={n}")
        approx = _certified_sci(d_expr, enc, policy, f"D_{n}(M)")
        rows.append(Alg2Row(n, p, q, sign, approx))
        if n == 1 and sign > 0:
            raise MTooSmallError(
                f"D_1(M) >= 0 for M={M}; threshold too small for the sign-flip bound")
        if n % 2 == 0 and sign < 0:
            raise AssertionError(f"even-index D_{n} certified negative; defect")
        if n % 2 == 1 and sign > 0:
            n0 = (n - 1) // 2
            return BoundReport(
                method="alg2", triplet=t, M=M, bound=p, n0=n0, rows=tuple(rows),
                constants=_constants_echo(t, policy),
                bits_used=max(bits_used, stream.bits_used), boxed_index=n)
        n += 1


def mu_bound(t: Triplet, M: int, mu: Union[int, Fraction],
             policy: PrecisionPolicy = DEFAULT_POLICY) -> BoundReport:
    """Advisory bound max_n min(q_n, gamma0*M/q_n^mu) for a caller-supplied
    irrationality measure mu >= 2.

    Advisory because the index from which the underlying inequality is valid
    is not effectively computable; the report is tagged uncertified.  The
    default range covers every convergent with q_n <= gamma0*M (beyond it
    the minimum has certainly peaked for mu >= 1).
    """
    _require_section_preconditions(t)
    if M < 1:
        raise BoundPreconditionError(f"M must be >= 1, got {M}")
    mu = Fraction(mu)
    if mu < 2:
        raise BoundPreconditionError(f"mu must be >= 2, got {mu}")
    stream = ConvergentStream(t.d, t.alpha, policy)
    rows: list[MuRow] = []
    best, best_n = -1, -1
    bits_used = stream.bits_used
    n = 0
    while True:
        _a, p, q = stream.term(n)

        def power_ratio(ctx, q=q):
            qpow = ctx.exp(ctx.log(ctx.mpf(q)) * ctx.mpf(mu.numerator) / ctx.mpf(mu.denominator))
            return _gamma0_M_expr(t, M)(ctx) / qpow

        # branch decision first, so the floored quantity is single-valued
        sign, enc = certified_sign(lambda ctx, q=q: power_ratio(ctx) - ctx.mpf(q),
                                   policy, what=f"gamma0*M/q_{n}^mu - q_{n}")
        bits_used = max(bits_used, enc.bits_used)
        if sign > 0:
            value = q
        else:
            fl, bits = certified_floor(power_ratio, policy, what=f"gamma0*M/q_{n}^mu")
            bits_used = max(bits_used, bits)
            value = fl
        rows.append(MuRow(n, p, q, value))
        if value > best:
            best, best_n = value, n

        def slack(ctx, q=q):
            return _gamma0_M_expr(t, M)(ctx) - ctx.mpf(q)

        qsign, enc = certified_sign(slack, policy, what=f"gamma0*M - q_{n}")
        bits_used = max(bits_used, enc.bits_used)
        if qsign < 0:
            break
        n += 1
    constants = _constants_echo(t, policy)
    constants["mu"] = str(mu)
    return BoundReport(
        method="mu", triplet=t, M=M, bound=best, n0=best_n, rows=tuple(rows),
        constants=constants, bits_used=max(bits_used, stream.bits_used),
        certified=False)
