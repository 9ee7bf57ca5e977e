"""Pieri-rule intersection numbers on the Grassmannian of pencils G(1, d).

Classes are two-row partitions (a, b) with d-1 >= a >= b >= 0; a
ramification condition of order e is the special class (e-1, 0).  These
are characteristic-zero intersection numbers: coefficients are exact
integers with no modular reduction.

Multiplying by a special class raises a + b by a fixed amount, so a
product of special classes lives in one degree s = a + b at a time and is
a list of coefficients indexed by b (with a = s - b).
"""

from __future__ import annotations

from itertools import accumulate


def _check_class(cls, d):
    a, b = cls
    if not (d - 1 >= a >= b >= 0):
        raise ValueError(f"class {cls} outside the 2 x {d - 1} box")


def _check_order(e, d):
    if not 1 <= e <= d:
        raise ValueError(f"order e = {e} outside 1..d")


def _pieri_step(coeffs, s, e, d):
    """Multiply the degree-s class sum coeffs (coeffs[b] is the coefficient
    of (s - b, b), for b = 0..s//2) by the special class (e-1, 0).

    (a, b) contributes to (a', b') when a' + b' = s + e - 1, d-1 >= a' >= a
    and a >= b' >= b, so the new coefficient of b' is the sum of coeffs[b]
    over max(0, b' - e + 1) <= b <= min(b', s - b').
    """
    step = e - 1
    t = s + step
    prefix = [0, *accumulate(coeffs)]
    out = [0] * (t // 2 + 1)
    for bp in range(max(0, t - (d - 1)), t // 2 + 1):
        lo, hi = max(0, bp - step), min(bp, s - bp)
        if hi >= lo:
            out[bp] = prefix[hi + 1] - prefix[lo]
    return out


def pieri_multiply(class_sum, e, d):
    """Multiply by the special class (e-1, 0).

    Each (a, b) contributes every (a', b') with a' + b' = a + b + e - 1,
    d-1 >= a' >= a and a >= b' >= b; coefficients accumulate, and the
    nonzero ones are returned.
    """
    _check_order(e, d)
    by_degree = {}
    for (a, b), coeff in class_sum.items():
        _check_class((a, b), d)
        coeffs = by_degree.setdefault(a + b, [0] * ((a + b) // 2 + 1))
        coeffs[b] += coeff
    out = {}
    for s, coeffs in by_degree.items():
        t = s + e - 1
        for b, coeff in enumerate(_pieri_step(coeffs, s, e, d)):
            if coeff:
                out[(t - b, b)] = coeff
    return out


def intersection_number(d, orders):
    """Coefficient of the point class (d-1, d-1) in the product of the
    special classes (e_i - 1, 0), starting from the identity class.

    Requires complementary total codimension: sum (e_i - 1) = 2(d - 1).
    """
    orders = tuple(int(e) for e in orders)
    if any(e < 1 for e in orders):
        raise ValueError("orders must be >= 1")
    codim = sum(e - 1 for e in orders)
    if codim != 2 * (d - 1):
        raise ValueError(
            f"codimension mismatch: sum(e_i - 1) = {codim} != 2(d-1) = {2 * (d - 1)}")
    # A partial product of codimension <= 2(d - 1) is never zero, so the
    # loop ends at s = 2(d - 1), where (d - 1, d - 1) is the only class.
    s, coeffs = 0, [1]
    for e in orders:
        _check_order(e, d)
        coeffs = _pieri_step(coeffs, s, e, d)
        s += e - 1
    return coeffs[d - 1]
