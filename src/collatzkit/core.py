"""Triplet-parameterized Collatz-type maps over the positive integers.

A triplet (d, alpha, beta) with a sign kappa in {+1, -1} defines

    T(n) = n / d                                  if d | n
    T(n) = (alpha * n + beta * [kappa * n]_d) / d  otherwise

where [m]_d is the least nonnegative residue of m mod d.  T maps the
naturals into the naturals exactly when the triplet is well-formed, i.e.

    alpha + kappa*beta > ((kappa - 1)/2) * beta * d   and
    alpha + kappa*beta == 0  (mod d).

For kappa = +-1, [kappa*n]_d = kappa * (n mod kappa*d), with Python's
floored mod (n mod -d lies in (-d, 0]), so the fast kernels take one rule
for both signs: r = n mod kappa*d, and T(n) = (alpha*n + kappa*beta*r) / d
when r != 0.  As kappa^2 = 1, kappa*beta*r = beta*[kappa*n]_d: the
numerator is the one above, so every division is exact.

All arithmetic is exact over Python's arbitrary-precision integers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

from .errors import InvalidTripletError, NotWellFormedError

PLUS = 1
MINUS = -1


def signed_residue(n: int, d: int, kappa: int) -> int:
    """Least nonnegative residue [kappa*n]_d, in [0, d).

    For kappa=+1 this is n mod d; for kappa=-1 it is 0 when d | n and
    d - (n mod d) otherwise.
    """
    if n < 1 or d < 2:
        raise InvalidTripletError(f"signed_residue requires n >= 1 and d >= 2, got n={n}, d={d}")
    if kappa == PLUS:
        return n % d
    if kappa == MINUS:
        r = n % d
        return 0 if r == 0 else d - r
    raise InvalidTripletError(f"kappa must be +1 or -1, got {kappa}")


@dataclass(frozen=True)
class WellFormedness:
    """Outcome of the map-closure test for a triplet.

    satisfied is equivalent to divisibility_ok and magnitude_ok.  When not
    satisfied, witness is an n in 1..d at which exact evaluation of T(n)
    leaves the naturals (non-positive or non-integral numerator).
    """

    satisfied: bool
    divisibility_ok: bool
    magnitude_ok: bool
    witness: Optional[int] = None


@dataclass(frozen=True)
class Triplet:
    """Immutable map parameters (d, alpha, beta) with residue sign kappa."""

    d: int
    alpha: int
    beta: int
    kappa: int

    def __post_init__(self):
        if self.d < 2:
            raise InvalidTripletError(f"d must be >= 2, got {self.d}")
        if self.alpha <= self.d:
            raise InvalidTripletError(f"alpha must exceed d, got alpha={self.alpha}, d={self.d}")
        if self.kappa not in (PLUS, MINUS):
            raise InvalidTripletError(f"kappa must be +1 or -1, got {self.kappa}")
        if self.beta == 0:
            raise InvalidTripletError("beta must be nonzero")
        if self.alpha % self.d == 0:
            raise InvalidTripletError(f"alpha must not be divisible by d: {self.alpha} = 0 mod {self.d}")
        if abs(self.beta) % self.d == 0:
            raise InvalidTripletError(f"|beta| must not be divisible by d: {self.beta} = 0 mod {self.d}")

    @cached_property
    def wellformedness(self) -> WellFormedness:
        return check_wellformed(self)

    @property
    def is_wellformed(self) -> bool:
        return self.wellformedness.satisfied

    @property
    def text(self) -> str:
        """Compact form d:alpha:beta:+|-, the CLI wire format."""
        return f"{self.d}:{self.alpha}:{self.beta}:{'+' if self.kappa == PLUS else '-'}"

    def __str__(self) -> str:
        return f"({self.d},{self.alpha},{self.beta}){'+' if self.kappa == PLUS else '-'}"

    def to_json_dict(self) -> dict:
        """Decimal-string record; big integers must not cross JSON as numbers."""
        return {
            "d": str(self.d),
            "alpha": str(self.alpha),
            "beta": str(self.beta),
            "kappa": "+" if self.kappa == PLUS else "-",
        }

    def step_function(self) -> Callable[[int], int]:
        """Fast single-step closure for hot loops; assumes well-formedness checked.

        One rule serves both signs of kappa: with sd = kappa*d and sb =
        kappa*beta, r = n % sd is kappa*[kappa*n]_d, since Python's n % -d
        is -[-n]_d.  So r == 0 exactly when d | n, and otherwise sb*r =
        beta*[kappa*n]_d: the numerator alpha*n + sb*r is that of
        `apply_map`, a multiple of d for a well-formed triplet, and the
        floor division is exact."""
        if not self.is_wellformed:
            raise NotWellFormedError(f"triplet {self} is not well-formed")
        d, alpha, sd, sb = self.d, self.alpha, self.kappa * self.d, self.kappa * self.beta

        def step(n: int) -> int:
            r = n % sd
            return n // d if r == 0 else (alpha * n + sb * r) // d
        return step


_TRIPLET_RE = re.compile(r"^(\d+):(\d+):(-?\d+):([+-])$")


def parse_triplet(text: str) -> Triplet:
    """Parse the compact d:alpha:beta:+|- form."""
    m = _TRIPLET_RE.match(text.strip())
    if not m:
        raise InvalidTripletError(f"cannot parse triplet {text!r}; expected d:alpha:beta:+|-")
    d, alpha, beta, sign = m.groups()
    return Triplet(int(d), int(alpha), int(beta), PLUS if sign == "+" else MINUS)


def check_wellformed(t: Triplet) -> WellFormedness:
    """Exact evaluation of both closure clauses, with a failure witness.

    The magnitude clause is alpha + kappa*beta > ((kappa-1)/2) * beta * d,
    which is alpha + beta > 0 for kappa=+1 and alpha - beta > -beta*d for
    kappa=-1.  When either clause fails, some n in 1..d already has
    T(n) outside the naturals; the witness search confirms it exactly.
    """
    s = t.alpha + t.kappa * t.beta
    divisibility_ok = s % t.d == 0
    magnitude_ok = s > ((t.kappa - 1) // 2) * t.beta * t.d
    satisfied = divisibility_ok and magnitude_ok
    witness = None
    if not satisfied:
        for n in range(1, t.d):
            numerator = t.alpha * n + t.beta * signed_residue(n, t.d, t.kappa)
            if numerator <= 0 or numerator % t.d != 0:
                witness = n
                break
    return WellFormedness(satisfied, divisibility_ok, magnitude_ok, witness)


def apply_map(t: Triplet, n: int) -> int:
    """One exact application of T.  The triplet must be well-formed."""
    if n < 1:
        raise InvalidTripletError(f"map domain is n >= 1, got {n}")
    if not t.is_wellformed:
        raise NotWellFormedError(f"triplet {t} is not well-formed")
    if n % t.d == 0:
        return n // t.d
    numerator = t.alpha * n + t.beta * signed_residue(n, t.d, t.kappa)
    quotient, remainder = divmod(numerator, t.d)
    if remainder != 0 or quotient < 1:
        # unreachable for a well-formed triplet; would indicate a defect here
        raise AssertionError(f"inexact or non-positive map value at n={n} for {t}")
    return quotient


def apply_map_iter(t: Triplet, n: int, k: int) -> int:
    """k-th iterate of T; the 0-th iterate is n itself."""
    if k < 0:
        raise InvalidTripletError(f"iteration count must be >= 0, got {k}")
    if n < 1:
        raise InvalidTripletError(f"map domain is n >= 1, got {n}")
    if k == 0:
        return n
    step = t.step_function()
    v = n
    for _ in range(k):
        v = step(v)
    return v
