"""Counts of separable self-maps with prescribed ramification at general
points, in the mid and high characteristic ranges.

The count is the Schubert series R(t) = (1 - t)^(1 - n') prod_(e_i >= 2)
(1 - t^(e_i)), n' the number of orders e_i >= 2, folded modulo p:
N_gen = sum_(k in Z) [t^(d-1+kp)] R.  For p > d (or characteristic 0, the
INFINITY sentinel) only k = 0 is in range and this is the intersection
number (``schubert``).  It is the Kac-Walton formula for the sl_2 fusion
ring at level p - 2 (Kac, *Infinite-dimensional Lie algebras*, 3rd ed.,
Exercise 13.35; Walton, *Nucl. Phys. B* 340, 1990).  The paper counts by a
degeneration recursion over the degree d' of one component
(``_recursion_steps``); that the two agree is not proved here, and the
evidence is a test comparing them on more than 10^4 profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .algebra import is_prime
from .schubert import _series_coefficient

INFINITY = float("inf")

UNKNOWN = "unknown"


class CharClass(Enum):
    HIGH = "HIGH"
    MID = "MID"
    LOW = "LOW"


@dataclass(frozen=True)
class RamProfile:
    """A counting instance: characteristic, ramification orders, degree."""

    p: object  # prime int or INFINITY
    orders: tuple
    d: int
    char_class: CharClass
    wild: tuple = ()       # orders divisible by p (count 0 by Riemann-Hurwitz)
    oversized: tuple = ()  # orders exceeding d (no valid instance, count 0)

    @property
    def n(self):
        return len(self.orders)

    @property
    def forced_zero(self):
        return bool(self.wild) or bool(self.oversized)


@dataclass(frozen=True)
class CountResult:
    """A count with its characteristic class.

    ``trace`` holds the (d', e) summation range of the degeneration
    recursion's first step for the two largest orders (empty below four
    orders).
    """

    value: object  # non-negative int, or UNKNOWN
    char_class: CharClass
    trace: tuple = ()
    reason: str = ""

    @property
    def is_unknown(self):
        return self.value == UNKNOWN

    def to_json(self, profile=None):
        out = {
            "schema": 1,
            "class": self.char_class.value,
            "count": self.value,
            "trace": [{"dprime": dp, "e": e} for dp, e in self.trace],
        }
        if profile is not None:
            out["orders"] = list(profile.orders)
            out["p"] = "inf" if profile.p == INFINITY else profile.p
            out["d"] = profile.d
        if self.reason:
            out["reason"] = self.reason
        return out


def _classify(top, p, d):
    """The class of a profile of degree d whose largest order is top."""
    if p == INFINITY or p > d:
        return CharClass.HIGH
    if top < p:
        return CharClass.MID
    return CharClass.LOW


def validate_profile(orders, p):
    """Build a RamProfile; raises on structurally invalid input."""
    orders = tuple(map(int, orders))
    if not orders:
        raise ValueError("orders must be nonempty")
    if min(orders) < 1:
        raise ValueError("every ramification order must be >= 1")
    if p != INFINITY and (not isinstance(p, int) or not is_prime(p) or p < 3):
        raise ValueError(f"p must be a prime >= 3 or INFINITY, got {p!r}")
    total = sum(orders) - len(orders)
    if total % 2 != 0:
        raise ValueError(f"sum of (e_i - 1) = {total} is odd; no integer degree")
    d = 1 + total // 2
    top = max(orders)
    # an order divisible by p is at least p (never, for p = INFINITY)
    wild = tuple(e for e in orders if e % p == 0) if top >= p else ()
    oversized = tuple(e for e in orders if e > d) if top > d else ()
    return RamProfile(p=p, orders=orders, d=d,
                      char_class=_classify(top, p, d),
                      wild=wild, oversized=oversized)


def n_three(e1, e2, e3, p):
    """Three-point count.  Degenerate order-1 entries are allowed (their
    condition is vacuous).  Wild or out-of-range orders give 0; triples
    outside the mid/high range are UNKNOWN (the closed form does not apply
    when two of the orders reach p)."""
    try:
        profile = validate_profile((e1, e2, e3), p)
    except ValueError as exc:
        return CountResult(0, CharClass.LOW, reason=str(exc))
    return n_gen_recursive(profile)


def _recursion_steps(d, en1, en, p):
    """The (d', e) pairs of the recursion's summation range."""
    lo = max(d - en1 + 1, d - en + 1)
    hi = d if p == INFINITY else min(d, p + d - en1 - en)
    for dp in range(lo, hi + 1):
        yield dp, 2 * dp - 2 * d + en1 + en - 1


def n_gen_recursive(profile):
    """Count for a RamProfile; UNKNOWN exactly in the untreated low range."""
    if profile.wild:
        return CountResult(0, profile.char_class,
                           reason="wild excluded: some e_i divisible by p")
    if profile.oversized:
        return CountResult(0, profile.char_class,
                           reason="invalid instance: some e_i exceeds d")
    if profile.char_class is CharClass.LOW:
        return CountResult(UNKNOWN, CharClass.LOW,
                           reason="low characteristic: formulas do not apply")
    period = profile.p if profile.char_class is CharClass.MID else None
    value = _series_coefficient(profile.d, profile.orders, period)
    largest = sorted(profile.orders)[-2:]
    trace = (tuple(_recursion_steps(profile.d, *largest, profile.p))
             if profile.n >= 4 else ())
    return CountResult(value, profile.char_class, trace=trace)


def n_gen(orders, p):
    """Convenience wrapper: validate then count."""
    return n_gen_recursive(validate_profile(orders, p))


def n_four_closed(e1, e2, e3, e4, p):
    """Closed form for four points:
    max(0, min_i{e_i, d+1-e_i} - max(0, d+1-p))."""
    try:
        profile = validate_profile((e1, e2, e3, e4), p)
    except ValueError as exc:
        return CountResult(0, CharClass.LOW, reason=str(exc))
    return _four_closed(profile)


def _four_closed(profile):
    """n_four_closed on a validated four-point profile."""
    orders, p, d = profile.orders, profile.p, profile.d
    if p != INFINITY and any(e >= p for e in orders):
        return CountResult(UNKNOWN, profile.char_class,
                           reason="closed form requires all e_i < p")
    bound = min(min(orders), min(d + 1 - e for e in orders))
    penalty = 0 if p == INFINITY else max(0, d + 1 - p)
    return CountResult(max(0, bound - penalty), profile.char_class)


def involution_reduce(profile, i, j):
    """Replace (e_i, e_j) by (p - e_i, p - e_j); new degree d + p - e_i - e_j."""
    p = profile.p
    if p == INFINITY:
        raise ValueError("involution reduction needs finite characteristic")
    if i == j:
        raise ValueError("indices must be distinct")
    n = len(profile.orders)
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("index out of range")
    ei, ej = profile.orders[i], profile.orders[j]
    if ei >= p or ej >= p:
        raise ValueError(f"orders ({ei}, {ej}) must be < p = {p}")
    new_orders = list(profile.orders)
    new_orders[i] = p - ei
    new_orders[j] = p - ej
    return validate_profile(new_orders, p)
