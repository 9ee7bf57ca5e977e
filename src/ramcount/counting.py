"""Counts of separable self-maps with prescribed ramification at general
points, in the mid and high characteristic ranges.

The count is the Schubert series R(t) = (1 - t)^(1 - n') prod_(e_i >= 2)
(1 - t^(e_i)), n' the number of orders e_i >= 2, folded modulo p:
N_gen = sum_(k in Z) [t^(d-1+kp)] R, read with period min(p, d + 1).  For
p > d (or characteristic 0, the INFINITY sentinel) only k = 0 is in range
and this is the intersection number (``schubert``).  The count compares
INFINITY as the number it is; only validation (``check_prime``) and output
name it.

The fold is the paper's count.  The paper counts by a degeneration
recursion over the degree d' of one component (``_recursion_steps``).  With
a = e - 1 for each order and k = p - 2, one step merges labels a, b into the
labels |a - b|, |a - b| + 2, ..., min(a + b, 2k - a - b): the sl_2
Clebsch-Gordan rule at level k (Gepner-Witten, *Nucl. Phys. B* 278, 1986).
Its base case, one map through three points iff p > d, is the same rule's
level bound a + b + c <= 2k.  So, by associativity of the level-k fusion
ring, the recursion computes the multiplicity of V_0 in the product of the
V_(e_i - 1).  By the Kac-Walton formula (Kac, *Infinite-dimensional Lie
algebras*, 3rd ed., Exercise 13.35; Walton, *Nucl. Phys. B* 340, 1990) that
multiplicity is the alternating sum over the affine Weyl orbit, which is
the fold.  The tests check the first link exhaustively for p <= 31 and the
end-to-end agreement on more than 10^4 profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .algebra import is_prime
from .schubert import _series_dot, _series_product, _series_tail

INFINITY = float("inf")

UNKNOWN = "unknown"

WILD_REASON = "wild excluded: some e_i divisible by p"


class CharClass(Enum):
    HIGH = "HIGH"
    MID = "MID"
    LOW = "LOW"


@dataclass(frozen=True)
class RamProfile:
    """A validated counting instance: characteristic, ramification orders
    and their degree.  A count's class and reason are in its CountResult."""

    p: object  # prime int or INFINITY
    orders: tuple
    d: int

    @property
    def n(self):
        return len(self.orders)


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

    def to_json(self, profile):
        out = {
            "schema": 1,
            "class": self.char_class.value,
            "count": self.value,
            "trace": [{"dprime": dp, "e": e} for dp, e in self.trace],
            "orders": list(profile.orders),
            "p": "inf" if profile.p == INFINITY else profile.p,
            "d": profile.d,
        }
        if self.reason:
            out["reason"] = self.reason
        return out


def _classify(top, p, d):
    """The class of a profile of degree d whose largest order is top."""
    if p > d:
        return CharClass.HIGH
    if top < p:
        return CharClass.MID
    return CharClass.LOW


def _wild(orders, top, p):
    """Whether some order is divisible by p, given their largest, top: such
    an order is at least p (never, for p = INFINITY)."""
    return top >= p and any(e % p == 0 for e in orders)


def check_prime(p):
    """The characteristic rule: raise ValueError unless p is a prime >= 3
    or INFINITY."""
    if p != INFINITY and (not isinstance(p, int) or not is_prime(p) or p < 3):
        raise ValueError(f"p must be a prime >= 3 or INFINITY, got {p!r}")


def validate_profile(orders, p):
    """Build a RamProfile, with d from sum (e_i - 1) = 2(d - 1); raises
    ValueError on no orders, an order below 1, a bad p or an odd sum."""
    orders = tuple(map(int, orders))
    if not orders:
        raise ValueError("orders must be nonempty")
    if min(orders) < 1:
        raise ValueError("every ramification order must be >= 1")
    check_prime(p)
    total = sum(orders) - len(orders)
    if total % 2 != 0:
        raise ValueError(f"sum of (e_i - 1) = {total} is odd; no integer degree")
    return RamProfile(p=p, orders=orders, d=1 + total // 2)


def _recursion_steps(d, en1, en, p):
    """The (d', e) pairs of the recursion's summation range."""
    lo = max(d - en1 + 1, d - en + 1)
    hi = min(d, p + d - en1 - en)
    for dp in range(lo, hi + 1):
        yield dp, 2 * dp - 2 * d + en1 + en - 1


def n_gen_cells(parts, d, primes):
    """Yield (orders, cells) for each orders of parts, all of degree d: one
    (class, count, reason) per p of primes, which check_prime accepts;
    UNKNOWN exactly in the untreated low range.  A part's series product,
    which no p changes, is built at most once, and its value once per
    period min(p, d + 1): every p > d (HIGH), inf too, has period d + 1,
    whose fold has only k = 0, the intersection number.  Each (1 - t)^(-r)
    tail is built once per call, by (r, period).
    """
    tails = {}
    for orders in parts:
        top = max(orders)
        values = {}
        cells = []
        for p in primes:
            char_class = _classify(top, p, d)
            if _wild(orders, top, p):
                cells.append((char_class, 0, WILD_REASON))
            elif top > d:
                cells.append((char_class, 0, "invalid instance: some e_i exceeds d"))
            elif char_class is CharClass.LOW:
                cells.append((char_class, UNKNOWN,
                              "low characteristic: formulas do not apply"))
            else:
                period = min(p, d + 1)
                if period not in values:
                    if not values:
                        product, r = _series_product(d, orders)
                    if (r, period) not in tails:
                        tails[r, period] = _series_tail(r, d, period)
                    values[period] = _series_dot(product, tails[r, period], d)
                cells.append((char_class, values[period], ""))
        yield orders, cells


def n_gen_recursive(profile):
    """Count for a RamProfile: n_gen_cells at its one prime, with the
    recursion's trace."""
    [(_, [(char_class, value, reason)])] = n_gen_cells(
        [profile.orders], profile.d, [profile.p])
    trace = ()
    if not reason and profile.n >= 4:
        largest = sorted(profile.orders)[-2:]
        trace = tuple(_recursion_steps(profile.d, *largest, profile.p))
    return CountResult(value, char_class, trace=trace, reason=reason)


def n_gen(orders, p):
    """Convenience wrapper: validate then count."""
    return n_gen_recursive(validate_profile(orders, p))


def n_four_closed(e1, e2, e3, e4, p):
    """Closed form for four points:
    max(0, min_i{e_i, d+1-e_i} - max(0, d+1-p)); raises as n_gen does."""
    profile = validate_profile((e1, e2, e3, e4), p)
    value = _four_closed(profile.orders, p, profile.d)
    reason = "closed form requires all e_i < p" if value == UNKNOWN else ""
    return CountResult(value, _classify(max(profile.orders), p, profile.d),
                       reason=reason)


def _four_closed(orders, p, d):
    """n_four_closed's value on four valid orders of degree d: UNKNOWN
    unless every e_i < p."""
    if any(e >= p for e in orders):
        return UNKNOWN
    bound = min(min(orders), min(d + 1 - e for e in orders))
    return max(0, bound - (d + 1 - min(p, d + 1)))


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
