"""Certified lower bounds on hypothetical cycle lengths.

Each report encloses its one real quantity (gamma0 for alg1 and mu, the
shifted ratio X = xi + log_d(1 + beta*(d-1)/(alpha*M)) for alg2, the
radicand for hurwitz) on one `intervals._Ladder`, one interval context per
precision rung, beside log_d(alpha), and decides every row (R_n floors,
stop tests, D_n digits, square-root floors) by exact rational comparison
against the enclosure's endpoints.  The sign of D_n needs no enclosure: it
is that of an integer comparison, which `farey_sign` decides exactly.
Each report climbs its ladder once.  Its walk runs on one rung, whose
log_d(alpha) enclosure certifies the convergents; where a row is ambiguous
there, or the rung certifies no convergent for it, the walk moves to the
next rung and resumes from that row, keeping the rows it settled.
Rerunning any bound at doubled precision returns the identical integers.
alg1 and mu share one peak walk and one row type.  Two bounds are advisory
and labeled as such: the irrationality-measure bound (its validity
threshold is not effectively computable) and the Hurwitz square-root bound
(Hurwitz's theorem does not bound every p/q, and a real cycle can be
shorter).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional, Union

from .core import Triplet
from .errors import BoundPreconditionError, CoprimalityError, MTooSmallError
from .intervals import (DEFAULT_POLICY, CertifiedReal, PrecisionPolicy, _Ambiguous,
                        _Ladder, _Rung, endpoints, log_ratio_expr)


@dataclass(frozen=True)
class ConvergentSequence:
    """Certified partial quotients and convergents of log_d(alpha)."""

    triplet: Triplet
    terms: tuple[tuple[int, int, int], ...]  # (a_n, p_n, q_n)
    precision_bits_used: int

    def __len__(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class PeakRow:
    """A row of alg1 (value R_n) or of mu (value min(q_n, gamma0*M/q_n^mu));
    the report's bound is the peak value."""

    n: int
    p: int
    q: int
    value: int


@dataclass(frozen=True)
class Alg2Row:
    n: int
    p: int
    q: int
    sign: int
    approx: str  # D_n to 3 significant digits, certified


BoundRow = Union[PeakRow, Alg2Row]


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


def _require_section_preconditions(t: Triplet, M: int, name: str = "M") -> None:
    if math.gcd(t.d, t.alpha) != 1:
        raise BoundPreconditionError(
            f"bounds need gcd(d, alpha) = 1; gcd({t.d}, {t.alpha}) = {math.gcd(t.d, t.alpha)}")
    if t.beta <= 0:
        raise BoundPreconditionError(f"bounds need beta > 0, got {t.beta}")
    if M < 1:
        raise BoundPreconditionError(f"{name} must be >= 1, got {M}")


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
    radius = Fraction(1, 2) ** bits

    def enclosure(rung: _Rung) -> CertifiedReal:
        lo, hi = rung.xi
        if hi - lo > 2 * radius:
            raise _Ambiguous(f"cannot enclose log_{t.d}({t.alpha}) to radius {radius}")
        return CertifiedReal(lo, hi, rung.bits)

    return _Ladder(t.d, t.alpha, policy).settle(enclosure)[0]


def convergents(t: Triplet, min_terms: int,
                policy: PrecisionPolicy = DEFAULT_POLICY) -> ConvergentSequence:
    """At least min_terms certified convergents of log_d(alpha)."""
    if math.gcd(t.d, t.alpha) != 1:
        raise CoprimalityError(f"gcd({t.d}, {t.alpha}) != 1")
    if min_terms < 1:
        return ConvergentSequence(t, (), 0)
    terms, bits = _Ladder(t.d, t.alpha, policy).settle(
        lambda rung: _terms(t, rung, min_terms)[:min_terms])
    return ConvergentSequence(t, terms, bits)


def _terms(t: Triplet, rung: _Rung, n: int) -> tuple[tuple[int, int, int], ...]:
    """The rung's certified convergents of log_d(alpha), at least n of them."""
    terms = rung.convergents
    if len(terms) < n:
        raise _Ambiguous(f"only certified {len(terms)} partial quotients of "
                         f"log_{t.d}({t.alpha})", f", wanted {n}")
    return terms


def _gamma0(t: Triplet, ctx) -> Any:
    """gamma0 = alpha*log(d)/(beta*(d-1))."""
    return ctx.mpf(t.alpha) * ctx.log(ctx.mpf(t.d)) / ctx.mpf(t.beta * (t.d - 1))


def _shifted_xi(t: Triplet, ctx, M: int) -> Any:
    """X = xi + log_d(1 + beta*(d-1)/(alpha*M)), so that D_n = X - p_n/q_n."""
    return log_ratio_expr(t.d, t.alpha)(ctx) + ctx.log(
        1 + ctx.mpf(t.beta * (t.d - 1)) / (ctx.mpf(t.alpha) * ctx.mpf(M))) / ctx.log(ctx.mpf(t.d))


def _hurwitz_radicand(t: Triplet, ctx, m0: int) -> Any:
    """alpha*log(d)*m0/(beta*(d-1)*sqrt(5))."""
    return (ctx.mpf(t.alpha) * ctx.log(ctx.mpf(t.d)) * ctx.mpf(m0)) / \
        (ctx.mpf(t.beta * (t.d - 1)) * ctx.sqrt(ctx.mpf(5)))


def _floor(lo: Fraction, hi: Fraction, what: str) -> int:
    """Floor of a value enclosed in [lo, hi]."""
    if math.floor(lo) != math.floor(hi):
        raise _Ambiguous(f"floor of {what} still ambiguous")
    return math.floor(lo)


def _sign(lo: Fraction, hi: Fraction, what: str) -> int:
    """Strict sign (-1 or +1) of a nonzero value enclosed in [lo, hi]."""
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    raise _Ambiguous(f"sign of {what} still ambiguous")


def _sci20(lo_hi: tuple[Fraction, Fraction], bits: int) -> str:
    """The most digits, at most 20, that every point of [lo, hi] rounds to;
    "uncertified" when not one digit is, which takes an enclosure wider
    than about 5e-4 of its value, far wider than a rung's constants."""
    real = CertifiedReal(*lo_hi, bits)
    return next(filter(None, map(real.sci_certified, range(20, 0, -1))), "uncertified")


def _constants_echo(t: Triplet, rung: _Rung) -> dict[str, str]:
    return {"gamma0": _sci20(endpoints(_gamma0(t, rung.ctx)), rung.bits),
            "xi": _sci20(rung.xi, rung.bits)}


def _walk(t: Triplet, ladder: _Ladder,
          row: Callable[[_Rung, int, int, int, int], tuple[BoundRow, bool]]
          ) -> tuple[list, int]:
    """The convergent walk of alg1, alg2 and mu.

    Row n of the certified convergents p_n/q_n of log_d(alpha) is
    row(rung, n, p_n, q_n, q_(n-1)) -> (row, stop).  The walk runs on one
    rung, the ladder's lowest first.  Where a row is ambiguous there, or
    the rung certifies no convergent for it, the walk moves to the next
    rung and resumes from that row; the rows it settled are kept, and must
    be that rung's convergents too.  Returns the rows through the first
    that stops the walk, and the bits of the rung it ended on.
    """
    rows: list = []

    def resume(rung: _Rung) -> list:
        terms = rung.convergents
        if [(r.p, r.q) for r in rows] != [(p, q) for _a, p, q in terms[:len(rows)]]:
            raise AssertionError(f"certified convergents changed at {rung.bits} bits")
        while True:
            n = len(rows)
            _a, p, q = _terms(t, rung, n + 1)[n]
            try:
                r, stop = row(rung, n, p, q, terms[n - 1][2] if n else 0)
            except _Ambiguous as exc:
                exc.index = n
                raise
            rows.append(r)
            if stop:
                return rows

    return ladder.settle(resume)


def hurwitz_bound(t: Triplet, m0: int,
                  policy: PrecisionPolicy = DEFAULT_POLICY) -> BoundReport:
    """Advisory length bound sqrt(alpha*log(d)*M0 / (beta*(d-1)*sqrt(5))),
    floored.

    Advisory because Hurwitz's theorem gives infinitely many p/q with
    |xi - p/q| < 1/(sqrt(5) q^2), and no lower bound on |xi - p/q| that
    holds for every p/q, which a bound on every cycle needs; the report is
    tagged uncertified.  A real cycle undercuts it: 7:46:3:+ has the cycle
    (5, 35) of length 2, and the bound at M0 = 5 is 3.  The floor itself is
    certified (exact integer square roots never arise: the radicand
    contains log d and sqrt 5).  The report's bound is the floor; the
    conventional quote rounds up by one.
    """
    _require_section_preconditions(t, m0, "M0")
    ladder = _Ladder(t.d, t.alpha, policy, lambda ctx: _hurwitz_radicand(t, ctx, m0))
    # floor(sqrt(x)) = isqrt(floor(x)) for x >= 0
    floor_val, bits = ladder.settle(
        lambda rung: _floor(math.isqrt(math.floor(rung.lo)), math.isqrt(math.floor(rung.hi)),
                            "hurwitz length bound"))
    first = ladder[0]
    constants = _constants_echo(t, first)
    constants["mu0"] = _sci20(endpoints(first.ctx.sqrt(_hurwitz_radicand(t, first.ctx, 1))),
                              first.bits)
    # the bounded quantity is irrational, so the conventional rounded-up
    # quote is always floor + 1
    constants["bound_ceiling"] = str(floor_val + 1)
    return BoundReport(
        method="hurwitz", triplet=t, M=m0, bound=floor_val, n0=0, rows=(),
        constants=constants, bits_used=bits, certified=False)


def _peak_bound(method: str, t: Triplet, M: int, policy: PrecisionPolicy,
                value: Callable[[_Rung, int, int, int], int],
                echo: Optional[dict[str, str]] = None, certified: bool = True) -> BoundReport:
    """The peak walk of alg1 and mu: row n's value(rung, n, q_n, q_(n-1)),
    from gamma0 enclosed on the rung, up to the first row with q_n >
    gamma0*M; the bound is the peak value, at the first row that reaches
    it.  echo adds to the constants."""
    ladder = _Ladder(t.d, t.alpha, policy, lambda ctx: _gamma0(t, ctx))

    def row(rung, n, p, q, qprev):
        peak_row = PeakRow(n, p, q, value(rung, n, q, qprev))
        return peak_row, _sign(rung.lo * M - q, rung.hi * M - q, f"gamma0*M - q_{n}") < 0

    rows, bits_used = _walk(t, ladder, row)
    peak = max(rows, key=lambda r: r.value)
    return BoundReport(
        method=method, triplet=t, M=M, bound=peak.value, n0=peak.n, rows=tuple(rows),
        constants={**_constants_echo(t, ladder[0]), **(echo or {})}, bits_used=bits_used,
        certified=certified)


def r_infinity_bound(t: Triplet, M: int,
                     policy: PrecisionPolicy = DEFAULT_POLICY) -> BoundReport:
    """Peak of R_n = min(q_n, floor(gamma0*M/(q_(n-1)+q_n)) + 1) over the
    convergent table, with gamma0 = alpha*log(d)/(beta*(d-1)).

    Any cycle whose minimum is at least M has at least bound elements not
    divisible by d (hence length >= bound).  The table runs until q_n
    certifiably exceeds gamma0*M, past which every R_n is 1.
    """
    _require_section_preconditions(t, M)

    def value(rung, n, q, qprev):
        denom = qprev + q
        return min(q, _floor(rung.lo * M / denom, rung.hi * M / denom,
                             f"gamma0*M/(q_{n - 1}+q_{n})") + 1)

    return _peak_bound("alg1", t, M, policy, value)


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


def _truncate(m: int, e: int, k: int, up: bool) -> tuple[int, int]:
    """m*2^e with m cut to its top k bits, rounded down, or up if up."""
    cut = max(m.bit_length() - k, 0)
    top = m >> cut
    return top + (up and top << cut != m), e + cut


def _power_bound(x: int, n: int, k: int, up: bool) -> tuple[int, int]:
    """x^n as m*2^e by square and multiply over the bits of n, left to
    right, every product truncated to k bits: a lower bound, or an upper
    bound if up."""
    m, e = 1, 0
    for bit in bin(n)[2:]:
        m, e = _truncate(m * m * x ** int(bit), 2 * e, k, up)
    return m, e


def _below(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """a < b for positive m*2^e pairs."""
    (am, ae), (bm, be) = a, b
    if am.bit_length() + ae != bm.bit_length() + be:
        return am.bit_length() + ae < bm.bit_length() + be
    return am << max(ae - be, 0) < bm << max(be - ae, 0)


def farey_sign(t: Triplet, M: int, p: int, q: int) -> int:
    """Sign of X - p/q, X = xi + log_d(1 + beta*(d-1)/(alpha*M)), for any
    p >= 0 and q >= 1.

    X = log_d(A/B) with A = alpha*(alpha*M + beta*(d-1)) and B = alpha*M,
    so the sign is that of A^q - d^p*B^q.  Both sides are bounded on k-bit
    products, k doubling until the bounds separate or, with nothing
    truncated, are the exact powers, which then tie: a sign of 0.  k starts
    at the least 64*2^j that is at least twice the b bits of q: a
    convergent row's two sides differ by a factor of about 1 + 2^-b, and
    each of the b square and multiply steps doubles the relative error of
    the truncated products, so fewer bits rarely separate such a row.
    """
    A, B = t.alpha * (t.alpha * M + t.beta * (t.d - 1)), t.alpha * M

    def sides(k: int, up: bool) -> tuple[tuple[int, int], tuple[int, int]]:
        (dm, de), (bm, be) = _power_bound(t.d, p, k, up), _power_bound(B, q, k, up)
        return _power_bound(A, q, k, up), _truncate(dm * bm, de + be, k, up)

    k = 64
    while k < 2 * q.bit_length():
        k *= 2
    while True:
        (lhs_lo, rhs_lo), (lhs_hi, rhs_hi) = sides(k, False), sides(k, True)
        if _below(rhs_hi, lhs_lo):
            return 1
        if _below(lhs_hi, rhs_lo):
            return -1
        if lhs_lo == lhs_hi and rhs_lo == rhs_hi:
            return 0
        k *= 2


def farey_bound(t: Triplet, M: int,
                policy: PrecisionPolicy = DEFAULT_POLICY) -> BoundReport:
    """Cycle-length bound p_(2*n0+1) from the first odd convergent index
    where D_n = xi + log_d(1 + beta*(d-1)/(alpha*M)) - p_n/q_n turns positive.

    Requires D_1(M) < 0 (otherwise M is too small for this method).  Even
    rows are positive throughout; odd rows are negative until the flip.
    Every sign, 0 included, is exact (`farey_sign`); the three digits of
    D_n each row prints are interval-certified, and must show that sign.
    """
    _require_section_preconditions(t, M)
    ladder = _Ladder(t.d, t.alpha, policy, lambda ctx: _shifted_xi(t, ctx, M))

    def row(rung, n, p, q, _qprev):
        sign = farey_sign(t, M, p, q)
        if n == 1 and sign >= 0:
            raise MTooSmallError(
                f"D_1(M) >= 0 for M={M}; threshold too small for the sign-flip bound")
        x = Fraction(p, q)
        approx = CertifiedReal(rung.lo - x, rung.hi - x, rung.bits).sci_certified(3)
        if approx is None:
            raise _Ambiguous(f"3 digits of D_{n}(M) still uncertain")
        if approx.startswith("-") != (sign < 0):
            raise AssertionError(f"digits {approx} of D_{n}(M) contradict its exact sign {sign}")
        if n % 2 == 0 and sign < 0:
            raise AssertionError(f"even-index D_{n} certified negative; defect")
        return Alg2Row(n, p, q, sign, approx), n % 2 == 1 and sign > 0

    rows, bits_used = _walk(t, ladder, row)
    flip = rows[-1].n
    return BoundReport(
        method="alg2", triplet=t, M=M, bound=rows[-1].p, n0=(flip - 1) // 2,
        rows=tuple(rows), constants=_constants_echo(t, ladder[0]),
        bits_used=bits_used, boxed_index=flip)


def mu_bound(t: Triplet, M: int, mu: Union[int, Fraction],
             policy: PrecisionPolicy = DEFAULT_POLICY) -> BoundReport:
    """Advisory bound max_n min(q_n, gamma0*M/q_n^mu) for a caller-supplied
    irrationality measure mu >= 2.

    Advisory because the index from which the underlying inequality is valid
    is not effectively computable; the report is tagged uncertified.  The
    default range covers every convergent with q_n <= gamma0*M (beyond it
    the minimum has certainly peaked for mu >= 1).
    """
    _require_section_preconditions(t, M)
    mu = Fraction(mu)
    if mu < 2:
        raise BoundPreconditionError(f"mu must be >= 2, got {mu}")

    def value(rung, n, q, _qprev):
        ctx = rung.ctx
        qlo, qhi = endpoints(
            ctx.exp(ctx.log(ctx.mpf(q)) * ctx.mpf(mu.numerator) / ctx.mpf(mu.denominator)))
        lo, hi = rung.lo * M / qhi, rung.hi * M / qlo  # gamma0*M/q_n^mu
        # branch decision first, so the floored quantity is single-valued
        if _sign(lo - q, hi - q, f"gamma0*M/q_{n}^mu - q_{n}") > 0:
            return q
        return _floor(lo, hi, f"gamma0*M/q_{n}^mu")

    return _peak_bound("mu", t, M, policy, value, {"mu": str(mu)}, certified=False)
