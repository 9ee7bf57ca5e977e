"""Counts of separable self-maps with prescribed ramification at general
points, in the mid and high characteristic ranges.

The central recursion sums over the degree d' of one component of a
degenerate configuration, replacing the last two orders by a single order
e = 2d' - 2d + e_{n-1} + e_n - 1, down to the three-point base case which
is 1 exactly when p > d.  Characteristic 0 is the INFINITY sentinel; the
recursion then simply drops its p-dependent upper summation bound.

The orders are merged in the order given, so after j merges an instance
is the untouched prefix orders[:n-1-j] plus one merged order e.  A count
is therefore one pass over the prefixes carrying {e: number of merge
paths}; no state outlives a call.  Counts are symmetric in the orders,
which the tests check by permuting them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import accumulate

from .algebra import is_prime

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

    ``trace`` holds the (d', e) summation range of the recursion's first
    step for the *sorted* profile's two largest orders (empty below four
    orders).  ``_ngen`` merges the orders in the given order, so for an
    unsorted profile the trace is not the step that ran; the count does not
    depend on the order.
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


def _three_point_count(e1, e2, e3, p):
    """Closed form for a structurally valid MID/HIGH triple: 1 iff p > d."""
    d = (e1 + e2 + e3 - 1) // 2
    return 1 if (p == INFINITY or p > d) else 0


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


def _ngen(orders, p):
    """The recursion on validated MID/HIGH data, merging the last two
    orders first.  After the merges down to k orders an instance is
    orders[:k-1] + (e,), so {e: number of merge paths} is the whole state."""
    excess = [0, *accumulate(x - 1 for x in orders)]  # sum(x - 1) of orders[:i]
    largest = [0, *accumulate(orders, max)]            # max of orders[:i]
    states = {orders[-1]: 1}
    for k in range(len(orders), 3, -1):
        en1 = orders[k - 2]
        rest_excess, rest_max = excess[k - 2], largest[k - 2]
        merged = {}
        for en, weight in states.items():
            d = 1 + (excess[k - 1] + en - 1) // 2
            for dp, e in _recursion_steps(d, en1, en, p):
                assert 1 + (rest_excess + e - 1) // 2 == dp
                top = max(rest_max, e)
                if top > dp:
                    continue  # no valid instance: no contribution to the sum
                assert p == INFINITY or p > dp or top < p, \
                    "recursion left the mid/high range"
                merged[e] = merged.get(e, 0) + weight
        states = merged
    head = ((1, 1) + orders[:min(len(orders), 3) - 1])[-2:]  # padded with 1s
    return sum(weight * _three_point_count(*head, e, p)
               for e, weight in states.items())


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
    value = _ngen(profile.orders, profile.p)
    orders_sorted = sorted(profile.orders)
    trace = ()
    if len(orders_sorted) >= 4:
        trace = tuple(_recursion_steps(
            profile.d, orders_sorted[-2], orders_sorted[-1], profile.p))
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
