"""Certified real comparisons via directed-rounding interval arithmetic.

Every comparison made here is backed by an mpmath interval enclosure whose
endpoints are extracted as exact dyadic rationals.  A comparison is
*certified* when the whole enclosure lies on one side.  Precision climbs
one way, a `_Ladder`: one interval context per rung of the policy, built
when first needed and kept, holding the enclosures of log_d(alpha) and of
one optional quantity, and the convergents that the log_d(alpha)
enclosure certifies.  Each caller climbs once: it `settle`s one decision,
tried on each rung from the lowest up, and a decision that keeps its
settled parts (a bound report's walk keeps its rows) resumes on the next
rung where the last one left it ambiguous.  Past the last rung the caller
gets PrecisionExhaustedError, naming that rung, rather than a guess.  The
convergents, `bounds.xi_value` and every bound report decide on ladders.
Contexts are local to one ladder, so concurrent callers never share
rounding state.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Any, Callable, Iterator, Optional

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


def make_context(bits: int) -> Any:
    # mpmath is imported on the first context, not with the package:
    # `verify` and the CLI's parser build no interval, and need not pay for
    # the import at every start
    from mpmath.ctx_iv import MPIntervalContext
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


Expr = Callable[[Any], object]  # of an mpmath interval context


def log_ratio_expr(d: int, alpha: int) -> Expr:
    """Expression for log(alpha)/log(d)."""
    def expr(ctx):
        return ctx.log(ctx.mpf(alpha)) / ctx.log(ctx.mpf(d))
    return expr


class _Ambiguous(Exception):
    """A decision that the enclosure on the current rung leaves open; tail
    follows the precision, and index names the row, when no rung settles
    it."""

    index: Optional[int] = None

    def __init__(self, what: str, tail: str = ""):
        super().__init__(what)
        self.tail = tail


@dataclass(frozen=True)
class _Rung:
    """One rung of a ladder: its precision, context and enclosures."""

    bits: int
    ctx: Any  # an mpmath interval context, from make_context
    lo: Optional[Fraction]  # the ladder's quantity, if any, lies in [lo, hi]
    hi: Optional[Fraction]
    xi: tuple[Fraction, Fraction]  # log_d(alpha)

    @cached_property
    def convergents(self) -> tuple[tuple[int, int, int], ...]:
        """(a_n, p_n, q_n) for every partial quotient a_n that xi certifies."""
        terms = []
        p1, p2, q1, q2 = 1, 0, 0, 1
        for a in certified_partial_quotients(self)[0]:
            p1, p2, q1, q2 = a * p1 + p2, p1, a * q1 + q2, q1
            terms.append((a, p1, q1))
        return tuple(terms)


class _Ladder:
    """log_d(alpha), and optionally one more quantity, enclosed on the rungs
    of a precision policy.  Rung i is one interval context at the policy's
    i-th precision, built when first asked for and kept, so every decision
    made on a rung, and the convergent expansion done there, shares its
    context and its enclosures."""

    def __init__(self, d: int, alpha: int, policy: PrecisionPolicy,
                 quantity: Optional[Expr] = None):
        self._bits = list(policy.ladder())
        self._log_ratio = log_ratio_expr(d, alpha)
        self._quantity = quantity
        self._rungs: list[_Rung] = []

    def __getitem__(self, i: int) -> _Rung:
        while len(self._rungs) <= i:
            bits = self._bits[len(self._rungs)]
            ctx = make_context(bits)
            lo, hi = endpoints(self._quantity(ctx)) if self._quantity else (None, None)
            self._rungs.append(_Rung(bits, ctx, lo, hi, endpoints(self._log_ratio(ctx))))
        return self._rungs[i]

    def settle(self, decide: Callable[[_Rung], Any]) -> tuple[Any, int]:
        """decide(rung) on each rung from the lowest up, until one settles
        it: (decision, that rung's bits).  A decide that keeps what it
        settled resumes there on the next rung, so a climb decides nothing
        twice.  Past the last rung, raises PrecisionExhaustedError naming
        the last ambiguity, the last rung tried and the ambiguity's row."""
        for i, bits in enumerate(self._bits):
            try:
                return decide(self[i]), bits
            except _Ambiguous as exc:
                last = exc
        raise PrecisionExhaustedError(f"{last} at {bits} bits{last.tail}",
                                      ambiguous_index=last.index)


def certified_partial_quotients(rung: _Rung) -> tuple[list[int], int]:
    """Every partial quotient of log_d(alpha) that rung's enclosure
    certifies, and the rung's bits.

    Runs the continued-fraction recursion on the exact rational endpoints of
    the enclosure; a term is emitted only when both endpoints share the same
    floor, so each emitted a_n is proven correct.  The expansion stops at
    the first ambiguous floor, or at an endpoint landing exactly on an
    integer.
    """
    lo, hi = rung.xi
    terms: list[int] = []
    while (flo := lo // 1) == hi // 1:
        terms.append(flo)
        if lo == flo:
            break  # next interval would be unbounded
        lo, hi = 1 / (hi - flo), 1 / (lo - flo)
    return terms, rung.bits
