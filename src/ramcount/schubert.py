"""Intersection numbers of special Schubert classes on the Grassmannian of
pencils G(1, d) = G(2, d + 1).

Classes are two-row partitions (a, b) with d-1 >= a >= b >= 0; a
ramification condition of order e is the special class (e-1, 0).  These
are characteristic-zero intersection numbers: coefficients are exact
integers with no modular reduction.

H*(G(2, d + 1)) is Lambda_2, the symmetric polynomials in two variables,
modulo the Schur polynomials s_(a,b) with a > d - 1, and the special class
(k, 0) is the complete symmetric polynomial h_k (Fulton, *Young Tableaux*,
1997, Section 9.4).  Those s_(a,b) span an ideal, so the coefficient of the
point class s_(d-1,d-1) can be read in Lambda_2 itself, where it is the
coefficient of x^d y^(d-1) in (x - y) prod_i h_(e_i - 1)(x, y).  Setting
y = 1 and t = x, and using that the product is palindromic, gives

    I(d; e) = [t^(d-1)] (1 - t) prod_i (1 + t + ... + t^(e_i - 1))
            = [t^(d-1)] (1 - t)^(1 - n') prod_(e_i >= 2) (1 - t^(e_i)),

with n' the number of orders e_i >= 2; order-1 entries are the identity
class and drop out.  For 2d - 2 simple points this is the Catalan number
C(2m, m) - C(2m, m - 1), m = d - 1.  ``intersection_number`` extracts that
one coefficient; ``counting`` reads the same series folded modulo p.

``pieri_multiply`` is the Pieri rule on class sums: multiplying by a
special class raises a + b by a fixed amount, so a product of special
classes lives in one degree s = a + b at a time and is a list of
coefficients indexed by b (with a = s - b).  No count uses it; it stays
because ``perfbench/tracing.py`` wraps it by name.
"""

from __future__ import annotations

from collections import Counter
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
    for e in orders:
        _check_order(e, d)
    return _series_coefficient(d, orders)


def _series_coefficient(d, orders, p=None):
    """[t^(d-1)] R for R = (1 - t)^(1 - n') prod_(e_i >= 2) (1 - t^(e_i)),
    or, given a period p, the folded sum over k in Z of [t^(d-1+kp)] R.

    R has degree 2d - 1 and R[j] = -R[2d - 1 - j], so every coefficient the
    fold reads has index at most d - 1, inside the truncated series.
    """
    m = d - 1
    multiplicity = Counter(e for e in orders if e >= 2)
    # prod (1 - t^e)^k as a sparse {degree: coefficient}, truncated at t^m
    series = {0: 1}
    for e, k in multiplicity.items():
        factor, binom = [], 1  # (e j, (-1)^j C(k, j))
        for j in range(min(k, m // e) + 1):
            factor.append((e * j, binom))
            binom = -binom * (k - j) // (j + 1)
        product = {}
        for deg, coeff in series.items():
            for shift, f in factor:
                if deg + shift > m:
                    break
                product[deg + shift] = product.get(deg + shift, 0) + coeff * f
        series = product
    # (1 - t)^(-r) = sum_j c_j t^j with c_(j+1) = c_j (r + j) / (j + 1),
    # exact for every integer r (for r <= 0 the series is a polynomial)
    r = sum(multiplicity.values()) - 1
    coeffs = [1]
    for j in range(m):
        coeffs.append(coeffs[j] * (r + j) // (j + 1))
    # with C_j = c_j + c_(j-p) + ..., the terms at d-1-kp (k >= 0) add up to
    # C_(m-deg), and those at d-1+kp (k >= 1) to minus C_(m+1-p-deg)
    reflected = -1  # unfolded: no reflected terms
    if p is not None:
        reflected = m + 1 - p
        for j in range(p, m + 1):
            coeffs[j] += coeffs[j - p]
    return sum(coeff * (coeffs[m - deg]
                        - (coeffs[reflected - deg] if deg <= reflected else 0))
               for deg, coeff in series.items())
