"""Constructors for triplet families with provably present cycles.

Every constructor re-verifies each claimed cycle by iterating the map before
returning; a verification failure is a hard error, never a warning, because
these builders encode proven statements and a mismatch means a bug here.
"""

from __future__ import annotations

import math
import re
from dataclasses import astuple, dataclass
from typing import Iterable, Optional

from .core import MINUS, PLUS, Triplet
from .dynamics import _REVISIT, Cycle, _walk, canonicalize
from .errors import (InvalidFamilyParamsError, NoApplicableCaseError,
                     NotACycleError)


@dataclass(frozen=True)
class LadderParams:
    """Parameters of the power-ladder family: alpha = d^nu1 - kappa1*delta,
    beta = kappa0*(d^nu0 - alpha), delta in [1, d-1]."""

    d: int
    nu0: int
    nu1: int
    delta: int
    kappa0: int
    kappa1: int

    def __post_init__(self):
        if self.d < 2:
            raise InvalidFamilyParamsError(f"d must be >= 2, got {self.d}")
        if self.nu0 < 1 or self.nu1 < 1:
            raise InvalidFamilyParamsError("nu0 and nu1 must be >= 1")
        if not 1 <= self.delta <= self.d - 1:
            raise InvalidFamilyParamsError(f"delta must lie in [1, d-1], got {self.delta}")
        if self.kappa0 not in (PLUS, MINUS) or self.kappa1 not in (PLUS, MINUS):
            raise InvalidFamilyParamsError("kappa0 and kappa1 must be +1 or -1")

    @property
    def alpha(self) -> int:
        return self.d**self.nu1 - self.kappa1 * self.delta

    @property
    def beta(self) -> int:
        return self.kappa0 * (self.d**self.nu0 - self.alpha)


@dataclass(frozen=True)
class SquareGapParams:
    """Parameters of the square-gap family: alpha = d^nu1 + 1,
    beta = d^(2*mu0exp + nu1) - alpha^2, with 2*mu0exp > nu1 >= 1."""

    d: int
    nu1: int
    mu0exp: int

    def __post_init__(self):
        if self.d < 2:
            raise InvalidFamilyParamsError(f"d must be >= 2, got {self.d}")
        if self.nu1 < 1 or self.mu0exp < 1:
            raise InvalidFamilyParamsError("nu1 and mu0exp must be >= 1")
        if 2 * self.mu0exp <= self.nu1:
            raise InvalidFamilyParamsError(
                f"need 2*mu0exp > nu1, got {2 * self.mu0exp} <= {self.nu1}")

    @property
    def alpha(self) -> int:
        return self.d**self.nu1 + 1

    @property
    def beta(self) -> int:
        return self.d**(2 * self.mu0exp + self.nu1) - self.alpha**2

    @property
    def cycle_length(self) -> int:
        return 2 * self.mu0exp + self.nu1


@dataclass(frozen=True)
class PredictedCycleSet:
    """A triplet together with verified cycles and their provenance."""

    triplet: Triplet
    cycles: tuple[Cycle, ...]
    provenance: str
    generated_count: Optional[int] = None  # pre-deduplication, where it differs

    @property
    def lower_bound_on_order(self) -> int:
        """The distinct cycles built, a lower bound on the triplet's count."""
        return len(self.cycles)

    @property
    def minima(self) -> tuple[int, ...]:
        return tuple(c.omega for c in self.cycles)

    def to_json_dict(self) -> dict:
        return {
            "triplet": self.triplet.to_json_dict(),
            "provenance": self.provenance,
            "lower_bound_on_order": self.lower_bound_on_order,
            "generated_count": self.generated_count,
            "cycles": [c.to_json_dict() for c in self.cycles],
        }


def _sorted_cycles(by_omega: dict[int, Cycle]) -> tuple[Cycle, ...]:
    return tuple(sorted(by_omega.values(), key=lambda c: (c.length, c.omega)))


def _wellformed_or_raise(t: Triplet, who: str) -> Triplet:
    if not t.is_wellformed:
        raise InvalidFamilyParamsError(f"{who} produced non-well-formed triplet {t}")
    return t


def _ladder_elements(start: int, d: int, nu: int) -> list[int]:
    # (start -> start*d^(nu-1) -> ... -> start*d -> start); nu = 1 is a fixed point
    return [start] + [start * d**e for e in range(nu - 1, 0, -1)]


def _orbit_until_return(t: Triplet, start: int, length: int) -> Cycle:
    """The cycle of start, whose orbit must return to it after exactly
    length steps."""
    v, steps, end, path = _walk(t.step_function(), start, length, math.inf)
    if end != _REVISIT or v != start or steps != length:
        raise NotACycleError(
            f"orbit of {start} under {t} does not return to it in exactly {length} steps")
    return canonicalize(t, tuple(path))


def build_ladder_family(params: LadderParams) -> PredictedCycleSet:
    """Cycles guaranteed for the power-ladder family.

    Case kappa0=+1: the d-1 ladders Omega(r) of length nu0.
    Case kappa1*beta>0 with delta=1: the d-1 ladders Omega(r*|beta|) of
    length nu1.  With 1<delta<=d-1, nu0,nu1>=2, nu0!=nu1: the
    floor((d-1)/delta0) ladders Omega(r*|beta0|) of length nu1 where
    q0 = gcd(d^(nu0-1)-d^(nu1-1), delta), beta = q0*beta0, delta = q0*delta0.
    Both families are emitted when both cases apply (they coincide when
    kappa0=+1, delta=1 and nu0=nu1).
    """
    d = params.d
    alpha, beta = params.alpha, params.beta
    if alpha <= d:
        raise InvalidFamilyParamsError(f"derived alpha={alpha} must exceed d={d}")
    if beta == 0:
        raise InvalidFamilyParamsError("derived beta is zero")
    t = _wellformed_or_raise(Triplet(d, alpha, beta, params.kappa0), "ladder family")

    by_omega: dict[int, Cycle] = {}
    gates: list[str] = []
    if params.kappa0 == PLUS:
        for r in range(1, d):
            cyc = canonicalize(t, _ladder_elements(r, d, params.nu0))
            by_omega.setdefault(cyc.omega, cyc)
    else:
        gates.append("kappa0 is -1 (no unit-residue ladders)")
    if params.kappa1 * beta > 0:
        if params.delta == 1:
            for r in range(1, d):
                cyc = canonicalize(t, _ladder_elements(r * abs(beta), d, params.nu1))
                by_omega.setdefault(cyc.omega, cyc)
        elif params.nu0 >= 2 and params.nu1 >= 2 and params.nu0 != params.nu1:
            q0 = math.gcd(d**(params.nu0 - 1) - d**(params.nu1 - 1), params.delta)
            if beta % q0 != 0 or params.delta % q0 != 0:
                raise AssertionError("gcd factor does not divide beta and delta")
            beta0 = beta // q0
            delta0 = params.delta // q0
            for r in range(1, (d - 1) // delta0 + 1):
                cyc = canonicalize(t, _ladder_elements(r * abs(beta0), d, params.nu1))
                by_omega.setdefault(cyc.omega, cyc)
        else:
            gates.append(
                "delta > 1 requires nu0, nu1 >= 2 and nu0 != nu1 for scaled ladders")
    else:
        gates.append("kappa1*beta <= 0 (no scaled ladders)")
    if not by_omega:
        raise NoApplicableCaseError(
            f"no ladder case applies to {params}: " + "; ".join(gates))
    cycles = _sorted_cycles(by_omega)
    return PredictedCycleSet(t, cycles, _spec_string("ladder", *astuple(params)))


def build_square_gap_family(params: SquareGapParams) -> PredictedCycleSet:
    """Cycles from seeds r1*(r2*d^k + r3*alpha), plus the extra length-d
    cycle at beta when nu1 = 1 and beta > 0.

    Every admissible (k, r1, r2, r3) with 1<=k<=mu0exp, 1<=r1,r2,r3<=d-1,
    r1*r2<=d-1, r1*r3<=d-1 seeds a cycle of length 2*mu0exp+nu1; different
    seeds may land on the same cycle, so cycles are deduplicated by minimum
    and the raw generator count is reported separately.
    """
    d = params.d
    alpha, beta = params.alpha, params.beta
    t = _wellformed_or_raise(Triplet(d, alpha, beta, PLUS), "square-gap family")
    expected_len = params.cycle_length
    by_omega: dict[int, Cycle] = {}
    generated = 0
    for k in range(1, params.mu0exp + 1):
        for r1 in range(1, d):
            cap = (d - 1) // r1
            for r2 in range(1, cap + 1):
                for r3 in range(1, cap + 1):
                    generated += 1
                    seed = r1 * (r2 * d**k + r3 * alpha)
                    cyc = _orbit_until_return(t, seed, expected_len)
                    by_omega.setdefault(cyc.omega, cyc)
    if params.nu1 == 1 and beta > 0:
        extra = canonicalize(t, [m * beta for m in range(1, d + 1)])
        if extra.length != d:
            raise NotACycleError(f"extra cycle at beta has length {extra.length}, expected {d}")
        by_omega.setdefault(extra.omega, extra)
    cycles = _sorted_cycles(by_omega)
    return PredictedCycleSet(t, cycles, _spec_string("squaregap", *astuple(params)),
                             generated_count=generated)


def scale_cycles(base: Triplet, cycles: Iterable[Cycle], a0: int) -> PredictedCycleSet:
    """Transport cycles of (d, alpha, beta0) to (d, alpha, a0*beta0) by
    multiplying every element by a0, where a0 = 1 (mod d)."""
    if a0 < 1:
        raise InvalidFamilyParamsError(f"a0 must be a positive integer, got {a0}")
    if a0 % base.d != 1:
        raise InvalidFamilyParamsError(
            f"a0 must be congruent to 1 mod d; got a0={a0}, d={base.d}")
    scaled_t = _wellformed_or_raise(
        Triplet(base.d, base.alpha, a0 * base.beta, base.kappa), "scaling")
    by_omega: dict[int, Cycle] = {}
    for c in cycles:
        scaled = canonicalize(scaled_t, [a0 * x for x in c.elements])
        if scaled.length != c.length:
            raise NotACycleError(
                f"scaling changed cycle length {c.length} -> {scaled.length}")
        by_omega.setdefault(scaled.omega, scaled)
    out = _sorted_cycles(by_omega)
    return PredictedCycleSet(scaled_t, out, f"scale:a0={a0},base={base.text}")


def build_dplus1_family(d: int, kappa: int) -> PredictedCycleSet:
    """(d, d+1, -1)+ has the d-1 fixed points (r -> r); (d, d+1, 1)- has the
    rotation (1 -> 2 -> ... -> d -> 1) of length d."""
    if d < 2:
        raise InvalidFamilyParamsError(f"d must be >= 2, got {d}")
    if kappa == PLUS:
        t = _wellformed_or_raise(Triplet(d, d + 1, -1, PLUS), "d+1 family")
        by_omega = {r: canonicalize(t, [r]) for r in range(1, d)}
    elif kappa == MINUS:
        t = _wellformed_or_raise(Triplet(d, d + 1, 1, MINUS), "d+1 family")
        cyc = canonicalize(t, list(range(1, d + 1)))
        by_omega = {cyc.omega: cyc}
    else:
        raise InvalidFamilyParamsError(f"kappa must be +1 or -1, got {kappa}")
    cycles = _sorted_cycles(by_omega)
    return PredictedCycleSet(t, cycles, _spec_string("dplus1", d, kappa))


def build_mersenne_family(p: int) -> PredictedCycleSet:
    """(2^(p-1), 2^p - 1, 1)+ carries the doubling cycle (1 -> 2 -> ... ->
    2^(p-1) -> 1) of length p."""
    if p < 2:
        raise InvalidFamilyParamsError(f"p must be >= 2, got {p}")
    t = _wellformed_or_raise(Triplet(2**(p - 1), 2**p - 1, 1, PLUS), "mersenne family")
    cyc = canonicalize(t, [2**i for i in range(p)])
    if cyc.length != p:
        raise NotACycleError(f"mersenne cycle has length {cyc.length}, expected {p}")
    return PredictedCycleSet(t, (cyc,), _spec_string("mersenne", p))


# Exceptional two-power pairs carrying extra cycles beyond the doubling one.
# (6,2) starts at 1264 like (4,0); same number, different triplets.
TWO_POWER_EXCEPTIONS: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {
    (1, 0): ((14, 9),),
    (2, 1): ((74, 7),),
    (2, 2): ((67, 6),),
    (3, 0): ((280, 21),),
    (4, 0): ((1264, 49),),
    (5, 2): ((76200, 70), (87176, 35)),
    (6, 2): ((1264, 69),),
    (7, 0): ((3027584, 630),),
}


def build_two_power_family(p: int, q: int) -> PredictedCycleSet:
    """(2^p + 2^q, 2^p + 2^(q+1), 2^p)+ with its doubling-then-multiples
    cycle at 2^(p-q), of length 2^(p-q) + q + 1; exceptional (p, q) pairs
    additionally carry the tabulated extra cycles, re-verified here."""
    if q < 0 or p < q:
        raise InvalidFamilyParamsError(f"need 0 <= q <= p, got p={p}, q={q}")
    d = 2**p + 2**q
    t = _wellformed_or_raise(
        Triplet(d, 2**p + 2**(q + 1), 2**p, PLUS), "two-power family")
    doubling = [2**e for e in range(p - q, p + 1)]
    multiples = [m * 2**p for m in range(2, 2**(p - q) + 2)]
    main = canonicalize(t, doubling + multiples)
    expected_len = 2**(p - q) + q + 1
    if main.length != expected_len or main.omega != 2**(p - q):
        raise NotACycleError(
            f"main cycle mismatch for (p,q)=({p},{q}): omega={main.omega}, L={main.length}")
    by_omega = {main.omega: main}
    for omega, length in TWO_POWER_EXCEPTIONS.get((p, q), ()):
        cyc = _orbit_until_return(t, omega, length)
        if cyc.omega != omega:
            raise NotACycleError(
                f"tabulated start {omega} is not its cycle minimum ({cyc.omega})")
        by_omega.setdefault(cyc.omega, cyc)
    cycles = _sorted_cycles(by_omega)
    return PredictedCycleSet(t, cycles, _spec_string("power2", p, q))


# --- family registry: spec strings and CLI flags -----------------------------

_NATURAL_RE = re.compile(r"(\d+)(?:\^(\d+))?")


def parse_natural(text: str) -> int:
    """Decimal or base^exponent shorthand (5^15, 2^71)."""
    m = _NATURAL_RE.fullmatch(text.strip())
    if not m:
        raise InvalidFamilyParamsError(f"expected a natural number or b^e, got {text!r}")
    base, exp = m.groups()
    return int(base) if exp is None else int(base) ** int(exp)


def parse_sign(text: str) -> int:
    """+ or +1, - or -1."""
    if text in ("+", "+1"):
        return PLUS
    if text in ("-", "-1"):
        return MINUS
    raise InvalidFamilyParamsError(f"expected + or -, got {text!r}")


def _scale_spec(a0: int, base: str) -> PredictedCycleSet:
    """Scale the family of a base spec, ';'-nested ('squaregap;d=5;nu1=1;mu0=2')
    or plain ('squaregap:d=5,nu1=1,mu0=2')."""
    plain = base.replace(";", ",")
    base_set = parse_family_spec(plain if ":" in plain else plain.replace(",", ":", 1))
    return scale_cycles(base_set.triplet, base_set.cycles, a0)


# Family name -> (builder, (key, value parser) pairs in argument order); the keys
# are spec keys and `family` flags.  Lambdas see a later rebinding of a builder.
FAMILIES = {
    "ladder": (lambda *a: build_ladder_family(LadderParams(*a)),
               (("d", parse_natural), ("nu0", parse_natural), ("nu1", parse_natural),
                ("delta", parse_natural), ("k0", parse_sign), ("k1", parse_sign))),
    "squaregap": (lambda *a: build_square_gap_family(SquareGapParams(*a)),
                  (("d", parse_natural), ("nu1", parse_natural), ("mu0", parse_natural))),
    "dplus1": (lambda *a: build_dplus1_family(*a),
               (("d", parse_natural), ("kappa", parse_sign))),
    "mersenne": (lambda *a: build_mersenne_family(*a), (("p", parse_natural),)),
    "power2": (lambda *a: build_two_power_family(*a),
               (("p", parse_natural), ("q", parse_natural))),
    "scale": (_scale_spec, (("a0", parse_natural), ("base", str))),
}


def _spec_string(name: str, *values: int) -> str:
    """The spec of one family member, its keys in table order."""
    return f"{name}:" + ",".join(
        f"{key}={('+' if v == PLUS else '-') if parse is parse_sign else v}"
        for (key, parse), v in zip(FAMILIES[name][1], values))


def parse_family_spec(spec: str) -> PredictedCycleSet:
    """Build a family from its compact string form, e.g.
    'ladder:d=3,nu0=3,nu1=2,delta=1,k0=+,k1=+' or 'power2:p=3,q=1'.

    A scale spec nests its base with ';' separators:
    'scale:a0=121,base=squaregap;d=5;nu1=1;mu0=2'.
    """
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    if name not in FAMILIES:
        raise InvalidFamilyParamsError(f"unknown family {name!r} in {spec!r}")
    build, params = FAMILIES[name]
    parsers = dict(params)  # the keys not yet given
    values = {}
    for item in rest.split(",") if rest else ():
        key, _, val = (part.strip() for part in item.partition("="))
        parse = parsers.pop(key, None)
        if parse is None or not val:
            raise InvalidFamilyParamsError(
                f"unknown, repeated or empty parameter {item!r} in {spec!r}")
        values[key] = parse(val)
    if parsers:
        raise InvalidFamilyParamsError(f"{name} spec missing {list(parsers)}")
    return build(*(values[key] for key, _ in params))
