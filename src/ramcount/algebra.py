"""Exact arithmetic in F_{p^k} and dense univariate polynomials over it.

Fields are represented as F_p[y]/(modulus) with a deterministically chosen
modulus, so results are bit-identical across runs: the monic irreducible
polynomial of degree k with the least encoding.  The search tests each
candidate as a Poly over finite_field(p), whose own modulus is y, so a
prime field needs no search.  The first p candidates are the binomials
x^k + c, and it skips them when none can be irreducible: some prime
dividing k does not divide p - 1, or 4 | k and p = 3 mod 4.  The
characteristic is tested by trial division by the primes to 41, then by
Miller-Rabin to those 13 bases, exact below psi_13 ~ 3.3e24; a larger p
with no factor <= 41 is refused.  Elements are encoded as
integers in [0, q): the base-p digits of the encoding are the coordinates
with respect to the basis 1, y, ..., y^{k-1} (constant digit least
significant).  Polynomials are dense coefficient tuples, low degree first,
with no trailing zeros; the zero polynomial is the empty tuple and its
degree is the NEG_INFINITY sentinel, never -1.

Field arithmetic is table-driven.  A field of order q <= 2^16 builds, on its
first arithmetic call, a log table, an exp table over a fixed generator g
(doubled, so a sum of two logs indexes it directly) and a Zech table
zech[i] = log(1 + g^i); every scalar op is a few lookups in them.  The raw
routines (digit-by-digit addition, and a schoolbook product of coordinate
vectors reduced by the modulus) define these tables and serve fields with
q > 2^16.  The exp table steps from one power to the next by the F_p-linear
map a -> a * g, read off lookups: a splits into its low and high halves of
digits, whose products with g are raw products made once per half and
packed one digit to a lane, and two tables turn the sum of the two
packings back into an encoding.  The Zech table adds 1 to the constant
digit alone.  A field with q > 2^16 builds its log and exp lists only when
they are read, in O(q) time and memory; the census reads them for its
length-q arrays.  The census does its numpy arithmetic on the base-p
digits that decode returns (pencil._jet_classifier); this module does not
import numpy.
Apart from the raw product, which stays on digit lists because it defines
the tables and a Poly product over F_p is ~3x slower, Poly is the only
polynomial arithmetic here, and poly_powmod works on Poly's coefficient
lists.  Their sums, differences, scalings, products, squares and divisions
all run on one row kernel, FiniteField.axpy_i
(acc[start + j] += c * vec[j]), called once per row; a difference is the
row with c = -1, so the field has no subtraction.  On a tabulated field the
kernel adds in the log domain, one Zech and one exp lookup per nonzero
product, and a field with q > 2^16 rebinds it to the raw routines.

There is one remainder path, _reducer: it scales the divisor's low part by
-1/lead once, so x^n = low modulo a divisor of degree n, and clears a
coefficient list from the top with one row per coefficient above degree n,
writing a quotient only for a caller that asks.  Poly.divrem, % and //,
poly_powmod's reductions and poly_gcd, which runs Euclid on coefficient
lists and makes its result monic once, at the end, all reduce through it.

Roots are split out, never scanned for.  The roots of f in its own field
F_q are those of g = gcd(x^q - x, f), and roots_with_multiplicity splits g
into linear factors by Cantor-Zassenhaus, gcd((x + a)^{(q-1)/2} - 1, g),
with shifts a that leave every proper subfield at once: O(deg^2 log q)
field operations, where a scan takes O(q deg).  splitting_field_roots
splits each distinct-degree part of f over F_{q^K} on its own.  A part of
degree j > 1 is known to split there, so it needs no gcd, and the roots of
each of its irreducible factors are one Frobenius orbit r, r^q, ...,
r^{q^(j-1)}: the splitter descends to one root r, and the orbit's product
is divided out of the part, and one valuation gives the multiplicity of
the whole orbit.  The distinct-degree pass stops as soon as its answer is
known: at step j, a remainder of degree below 2j is one irreducible
factor.  Under a budget it also refuses early, with K_max the largest m
with q^m <= budget, computed once: once L > K_max for the lcm L of the
degrees found, or, before step j's power, once the degree left is no sum
of degrees >= j that fit with L under K_max.  It refuses exactly when
q^K > budget, and its message gives a lower bound on K.

FiniteField.embedding needs one root of its modulus in the target.  The
modulus is irreducible of degree k, so there it is k distinct linear
factors: _split_linear alone splits it, with no gcd or valuation, and the
least root is cached.  An element's image is its digit polynomial evaluated
at that root.  Poly.over, which applies the embedding coefficientwise, is
the one way a polynomial is carried into an extension field.

p = 2 is rejected at construction.
"""

from __future__ import annotations

import math
import os
from functools import cached_property, lru_cache, reduce

NEG_INFINITY = float("-inf")

# Largest field order for which log/exp/Zech tables are built.
_TABLE_LIMIT = 1 << 16

# The one size limit: pencils in a census, order entries in a table,
# entries of the three-point system, elements of a splitting field.
DEFAULT_BUDGET = 10 ** 7


class BudgetExceeded(RuntimeError):
    """An enumeration or search would exceed its configured budget."""


def enumeration_budget(budget=None):
    """budget if given, else RAMCOUNT_BUDGET if set, else DEFAULT_BUDGET.
    RAMCOUNT_BUDGET must be an integer >= 1; otherwise ValueError."""
    if budget is not None:
        return budget
    env = os.environ.get("RAMCOUNT_BUDGET")
    if not env:
        return DEFAULT_BUDGET
    try:
        value = int(env)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise ValueError(f"RAMCOUNT_BUDGET must be an integer >= 1, got {env!r}")
    return value


# Miller-Rabin to the bases 2, 3, ..., 41, the first 13 primes, is exact
# below psi_13 (Sorenson and Webster, Math. Comp. 86 (2017)).
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n):
    """Trial division by the primes to 41, then Miller-Rabin to those 13
    bases; ValueError for an n >= psi_13 with no factor <= 41."""
    if n < 2:
        return False
    for r in _SMALL_PRIMES:
        if n % r == 0:
            return n == r
    if n < 43 * 43:
        return True
    if n >= _PRIME_TEST_LIMIT:
        raise ValueError(f"cannot decide whether {n} is prime: "
                         f"primality is decided below {_PRIME_TEST_LIMIT}")
    odd, s = n - 1, 0
    while odd % 2 == 0:
        odd, s = odd // 2, s + 1
    for a in _SMALL_PRIMES:
        x = pow(a, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n):
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    factors, d = [], 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


def _lexleast_modulus(p, k):
    """Monic irreducible of degree k over F_p with least integer encoding.

    A monic f of degree k is irreducible iff its distinct-degree parts are
    [(k, f)].  k = 1 gives x, which is what lets the search run on Poly over
    finite_field(p) without recursing.  The binomials x^k + c, the first p
    candidates, are skipped when none is irreducible (Lidl and Niederreiter,
    Finite Fields, Theorem 3.75)."""
    if k == 1:
        return (0, 1)
    fp = finite_field(p)
    no_binomial = (any((p - 1) % r for r in _prime_factors(k))
                   or (k % 4 == 0 and p % 4 == 3))
    for m in range(p if no_binomial else 0, p ** k):
        f = Poly(fp, [m // p ** i % p for i in range(k)] + [1])
        if _distinct_degree_parts(f) == [(k, f)]:
            return f.coeffs
    raise ArithmeticError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# finite fields
# ---------------------------------------------------------------------------

class FiniteField:
    """F_{p^k} = F_p[y]/(modulus), elements encoded as integers in [0, q)."""

    def __init__(self, p, k=1):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if p == 2:
            raise ValueError("characteristic 2 is not supported (p > 2 required)")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.k = k
        self.q = p ** k
        self.modulus = _lexleast_modulus(p, k)
        self._half = (self.q - 1) // 2  # g^half = -1
        self._embedding_roots = {}
        if self.q > _TABLE_LIMIT:
            # too large to tabulate: the raw routines serve every op
            self.add_i, self.neg_i = self._add_raw, self._neg_raw
            self.mul_i, self.inv_i, self.pow_i = self._mul_raw, self._inv_raw, self._pow_raw
            self.axpy_i = self._axpy_raw

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        # finite_field hands out one cached instance per field, so identity
        # settles almost every comparison
        return self is other or (
            isinstance(other, FiniteField)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus))

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"

    # -- encoding ----------------------------------------------------------

    def decode(self, a):
        """Digits of a, constant coordinate first."""
        out = []
        for _ in range(self.k):
            a, r = divmod(a, self.p)
            out.append(r)
        return tuple(out)

    def encode(self, digits):
        a = 0
        for d in reversed(digits):
            a = a * self.p + d % self.p
        return a

    def element_str(self, a):
        """Digit string, most significant coordinate first; plain int for k=1."""
        digits = self.decode(a)
        return "".join(str(d) for d in reversed(digits))

    def element_parse(self, s):
        s = s.strip()
        if self.k == 1:
            a = int(s)
            if not 0 <= a < self.p:
                raise ValueError(f"element {s!r} out of range for {self}")
            return a
        if not s.isdigit() or len(s) > self.k:
            raise ValueError(f"element {s!r} must be at most {self.k} base-{self.p} digits")
        digits = [int(c) for c in reversed(s)]
        if any(d >= self.p for d in digits):
            raise ValueError(f"element {s!r} has digits >= {self.p}")
        return self.encode(digits + [0] * (self.k - len(digits)))

    # -- arithmetic on encodings --------------------------------------------
    #
    # Every op below reads the log/exp/Zech tables, which are built on the
    # first arithmetic call.  A field too large to tabulate has its ops
    # rebound to the raw routines in __init__, so no op checks its path.

    @cached_property
    def exp(self):
        """exp[i] = g^i for the least generator g, for 0 <= i < 2(q-1).

        Each power is the last one times g.  Multiplication by g is
        F_p-linear, so with h = k // 2 and a = lo + p^h hi, a * g is
        lo * g + (p^h hi) * g.  Both terms come from _mul_raw once per lo
        and per hi, p^h + p^(k-h) raw products, packed into integers with
        one lane per digit, wide enough for a sum of two digits; two more
        tables map the low h and the high k - h lanes of such a sum to
        their part of the encoding.  A step is then a divmod, two lookups,
        an add, a mask and a shift, and two lookups."""
        p, k = self.p, self.k
        g = self._find_generator()
        if k == 1:  # the high half would be the whole element: step a -> a g
            powers = [1]
            for _ in range(p - 2):
                powers.append(powers[-1] * g % p)
            return powers + powers
        h, width = k // 2, (2 * (p - 1)).bit_length()
        shifts = [t * width for t in range(k)]

        def packed(a):
            return sum(d << s for d, s in zip(self.decode(a), shifts))

        def lanes_to_encoding(count, weight):
            # entry v: sum over lanes t < count of (lane t of v mod p) p^t,
            # times weight; lane t is bits [t * width, (t + 1) * width)
            table = [0]
            for t in range(count):
                table = [v + x % p * weight * p ** t
                         for x in range(1 << width) for v in table]
            return table

        low = p ** h
        lo_g = [packed(self._mul_raw(lo, g)) for lo in range(low)]
        hi_g = [packed(self._mul_raw(low * hi, g)) for hi in range(self.q // low)]
        low_lanes, high_lanes = lanes_to_encoding(h, 1), lanes_to_encoding(k - h, low)
        shift = h * width
        mask = (1 << shift) - 1
        powers, a = [1], 1
        for _ in range(self.q - 2):
            hi, lo = divmod(a, low)
            s = lo_g[lo] + hi_g[hi]
            a = low_lanes[s & mask] + high_lanes[s >> shift]
            powers.append(a)
        return powers + powers

    @cached_property
    def log(self):
        """log[a] = i with g^i = a, for a != 0 (log[0] is never read)."""
        log = [0] * self.q
        for i, a in enumerate(self.exp[:self.q - 1]):
            log[a] = i
        return log

    @cached_property
    def zech(self):
        """zech[i] = log(1 + g^i), or -1 where 1 + g^i = 0; doubled like exp,
        so that any difference of two logs indexes it directly.  Adding 1
        changes only the constant digit."""
        log, p = self.log, self.p
        zech = []
        for a in self.exp[:self.q - 1]:
            s = a + 1 if a % p != p - 1 else a + 1 - p
            zech.append(log[s] if s else -1)
        return zech + zech

    def add_i(self, a, b):
        if a and b:
            log = self.log
            la = log[a]
            z = self.zech[log[b] - la]
            return self.exp[la + z] if z >= 0 else 0
        return a or b

    def neg_i(self, a):
        return self.exp[self.log[a] + self._half] if a else 0

    def mul_i(self, a, b):
        return self.exp[self.log[a] + self.log[b]] if a and b else 0

    def inv_i(self, a):
        if not a:
            raise ZeroDivisionError(f"inverting zero in {self}")
        return self.exp[self.q - 1 - self.log[a]]

    def div_i(self, a, b):
        return self.mul_i(a, self.inv_i(b))

    def pow_i(self, a, n):
        if a:
            return self.exp[self.log[a] * n % (self.q - 1)]
        if n < 0:
            raise ZeroDivisionError(f"inverting zero in {self}")
        return 0 if n else 1

    def pth_root_i(self, a):
        """Inverse of Frobenius: the unique b with b^p = a."""
        return self.pow_i(a, self.q // self.p)

    def axpy_i(self, acc, start, c, vec):
        """acc[start + j] += c * vec[j] in place, for c != 0: the row
        operation of Poly's product and division, and of rref.  In logs,
        a + b is g^la (1 + g^(lb - la)), so each nonzero product costs one
        zech and one exp lookup; lb - la may be negative, and Python's
        negative indexing then lands on the same Zech entry, since zech is
        doubled."""
        log, exp, zech = self.log, self.exp, self.zech
        lc = log[c]
        for j, v in enumerate(vec, start):
            if v:
                lb = lc + log[v]
                a = acc[j]
                if a:
                    la = log[a]
                    z = zech[lb - la]
                    acc[j] = exp[la + z] if z >= 0 else 0
                else:
                    acc[j] = exp[lb]

    # -- raw routines: they define the tables and serve fields with q > 2^16

    def _add_raw(self, a, b, sign=1):
        """Digit-by-digit a + sign * b."""
        p = self.p
        out, mult = 0, 1
        for _ in range(self.k):
            out += (a + sign * b) % p * mult
            a //= p
            b //= p
            mult *= p
        return out

    def _neg_raw(self, a):
        return self._add_raw(0, a, -1)

    def _mul_raw(self, a, b):
        """Schoolbook product of the coordinate vectors, reduced from the
        top by the monic modulus; encode takes each digit mod p."""
        p, k, mod = self.p, self.k, self.modulus
        prod = [0] * (2 * k - 1)
        db = self.decode(b)
        for i, x in enumerate(self.decode(a)):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] += x * y
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i] % p
            if c:
                for j in range(k):
                    prod[i - k + j] -= c * mod[j]
        return self.encode(prod[:k])

    def _axpy_raw(self, acc, start, c, vec):
        add, mul = self._add_raw, self._mul_raw
        for j, v in enumerate(vec, start):
            if v:
                acc[j] = add(acc[j], mul(c, v))

    def _inv_raw(self, a):
        if not a:
            raise ZeroDivisionError(f"inverting zero in {self}")
        return self._pow_raw(a, self.q - 2)

    def _pow_raw(self, a, n):
        if n < 0:
            a, n = self._inv_raw(a), -n
        result = 1
        while n:
            if n & 1:
                result = self._mul_raw(result, a)
            a = self._mul_raw(a, a)
            n >>= 1
        return result

    def _find_generator(self):
        order = self.q - 1
        factors = _prime_factors(order)
        for g in range(1, self.q):
            if all(self._pow_raw(g, order // f) != 1 for f in factors):
                return g
        raise ArithmeticError("no generator found")  # unreachable

    # -- extensions and embeddings -------------------------------------------

    def extension(self, m):
        """The canonical field F_{p^{k*m}}."""
        if m == 1:
            return self
        return finite_field(self.p, self.k * m)

    def embedding(self, target):
        """Map of encodings F_{p^k} -> F_{p^{k*m}}: an element's digit
        polynomial evaluated at the first root (in encoding order) of this
        field's modulus in the target, which is where y goes.  Digits are in
        F_p, and an element of F_p has the same encoding in every extension,
        so a prime field embeds as the identity."""
        if target.p != self.p or target.k % self.k != 0:
            raise ValueError(f"{target} does not contain {self}")
        if target == self or self.k == 1:
            return lambda a: a
        if target not in self._embedding_roots:
            self._embedding_roots[target] = min(
                _split_linear(Poly(target, self.modulus)))
        root, add, mul = self._embedding_roots[target], target.add_i, target.mul_i
        return lambda a: reduce(lambda acc, d: add(mul(acc, root), d), reversed(self.decode(a)), 0)


def finite_field(p, k=1):
    """Canonical (cached) field instance with the deterministic modulus:
    one per (p, k), however the arguments are spelled."""
    return _canonical_field(p, k)


@lru_cache(maxsize=None)
def _canonical_field(p, k):
    return FiniteField(p, k)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Poly:
    """Dense univariate polynomial over a FiniteField.

    coeffs: tuple of integer encodings, low degree first, no trailing zeros.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c % field.q,))

    @classmethod
    def from_ints(cls, field, ints):
        """Coefficients as plain integers reduced mod p (prime-subfield values)."""
        return cls(field, tuple(c % field.p for c in ints))

    @classmethod
    def from_string(cls, field, text):
        """Parse the exchange format: comma-separated elements, low degree first."""
        text = text.strip()
        if not text:
            return cls.zero(field)
        return cls(field, tuple(field.element_parse(tok) for tok in text.split(",")))

    def to_string(self):
        return ",".join(self.field.element_str(c) for c in self.coeffs)

    # -- structure -----------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    @property
    def is_zero(self):
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"Poly[{self.to_string() or '0'}]"

    def _check(self, other):
        if self.field is not other.field and self.field != other.field:
            raise ValueError("polynomials over different fields")

    # -- ring operations -------------------------------------------------------

    def _axpy(self, c, other):
        """self + c * other, as one axpy_i row on a copy of self (c != 0)."""
        self._check(other)
        acc = list(self.coeffs) + [0] * (len(other.coeffs) - len(self.coeffs))
        self.field.axpy_i(acc, 0, c, other.coeffs)
        return Poly(self.field, acc)

    def __add__(self, other):
        return self._axpy(1, other)

    def __sub__(self, other):
        return self._axpy(self.field.p - 1, other)  # p - 1 encodes -1

    def __neg__(self):
        return Poly.zero(self.field)._axpy(self.field.p - 1, self)

    def __mul__(self, other):
        self._check(other)
        f = self.field
        if not self.coeffs or not other.coeffs:
            return Poly.zero(f)
        # one row per coefficient of the shorter factor
        rows, vec = sorted((self.coeffs, other.coeffs), key=len)
        out = [0] * (len(rows) + len(vec) - 1)
        axpy = f.axpy_i
        for i, c in enumerate(rows):
            if c:
                axpy(out, i, c, vec)
        return Poly(f, out)

    def scale(self, c):
        c %= self.field.q
        zero = Poly.zero(self.field)
        return zero._axpy(c, self) if c else zero

    def shift(self, n):
        """Multiply by x^n."""
        if not self.coeffs:
            return self
        return Poly(self.field, (0,) * n + self.coeffs)

    def __pow__(self, n):
        result = Poly.one(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divrem(self, other):
        """(q, r) with self = q*other + r and deg r < deg other."""
        self._check(other)
        f = self.field
        quot = [0] * (len(self.coeffs) - len(other.coeffs) + 1)
        rem = _reducer(f, other.coeffs)(list(self.coeffs), quot)
        return Poly(f, quot), Poly(f, rem)

    def __floordiv__(self, other):
        return self.divrem(other)[0]

    def __mod__(self, other):
        self._check(other)
        return Poly(self.field, _reducer(self.field, other.coeffs)(list(self.coeffs)))

    def monic(self):
        """(self/lc, lc)."""
        if self.is_zero:
            return self, 1
        lc = self.leading()
        if lc == 1:
            return self, 1
        return self.scale(self.field.inv_i(lc)), lc

    # -- evaluation & calculus ---------------------------------------------------

    def __call__(self, a):
        f = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = f.add_i(f.mul_i(acc, a), c)
        return acc

    def derivative(self):
        f = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(f.mul_i(i % f.p, self.coeffs[i]))
        return Poly(f, out)

    def reverse(self, d):
        """x^d * self(1/x): reversed coefficients padded to degree d."""
        if not self.is_zero and self.degree > d:
            raise ValueError("degree exceeds reversal bound")
        padded = list(self.coeffs) + [0] * (d + 1 - len(self.coeffs))
        return Poly(self.field, tuple(reversed(padded)))

    def over(self, target):
        """The same polynomial over target, an extension of its field."""
        if target == self.field:
            return self
        embed = self.field.embedding(target)
        return Poly(target, tuple(embed(c) for c in self.coeffs))


# ---------------------------------------------------------------------------
# module-level polynomial operations
# ---------------------------------------------------------------------------

def _reducer(field, divisor):
    """Reduction modulo divisor, a coefficient sequence with a nonzero last
    entry, as a function remainder(rem, quot=None) -> rem.

    Modulo divisor, x^n = low, where n = deg divisor and low is the low
    part scaled by -1/lead, once, here.  remainder clears the coefficient
    list rem in place from the top, with one axpy_i row c * low at i - n
    for each coefficient c of x^i, i >= n, and returns it cut to the
    remainder, without trailing zeros.  The row at i leaves rem[i] stale,
    but it is never read again.  Given a list quot of length
    len(rem) - n, it also writes the quotient into it: c per row,
    scaled by 1/lead once at the end."""
    if not divisor:
        raise ZeroDivisionError("polynomial division by zero")
    n, axpy = len(divisor) - 1, field.axpy_i
    inv = 1 if divisor[-1] == 1 else field.inv_i(divisor[-1])
    low = [0] * n
    axpy(low, 0, field.neg_i(inv), divisor[:-1])

    def remainder(rem, quot=None):
        for i in range(len(rem) - 1, n - 1, -1):
            c = rem[i]
            if c:
                if quot is not None:
                    quot[i - n] = c
                axpy(rem, i - n, c, low)
        del rem[n:]
        while rem and not rem[-1]:
            rem.pop()
        if quot is not None and inv != 1:
            scaled = [0] * len(quot)
            axpy(scaled, 0, inv, quot)
            quot[:] = scaled
        return rem

    return remainder


def poly_gcd(a, b):
    """Monic gcd, by Euclid on coefficient lists, made monic once at the
    end; a nonzero constant remainder ends it at 1."""
    a._check(b)
    field = a.field
    r0, r1 = list(a.coeffs), list(b.coeffs)
    while r1:
        if len(r1) == 1:
            return Poly.one(field)
        r0, r1 = r1, _reducer(field, r1)(r0)
    return Poly(field, r0).monic()[0]


def poly_xgcd(a, b):
    """(g, u, v) with g monic, u*a + v*b = g, standard degree bounds."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    f = a.field
    r0, r1 = a, b
    s0, s1 = Poly.one(f), Poly.zero(f)
    t0, t1 = Poly.zero(f), Poly.one(f)
    while not r1.is_zero:
        q, r = r0.divrem(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    g, lc = r0.monic()
    if lc != 1:
        inv = f.inv_i(lc)
        s0, t0 = s0.scale(inv), t0.scale(inv)
    return g, s0, t0


def poly_valuation(fpoly, a):
    """Largest m with (x - a)^m dividing fpoly (a: integer encoding)."""
    if fpoly.is_zero:
        raise ValueError("valuation of the zero polynomial is undefined")
    field = fpoly.field
    if a == 0:
        m = 0
        while m < len(fpoly.coeffs) and fpoly.coeffs[m] == 0:
            m += 1
        return m
    add, mul = field.add_i, field.mul_i
    cs = fpoly.coeffs
    m = 0
    while len(cs) > 1:
        # synthetic division by x - a: one Horner pass yields the quotient's
        # coefficients, top first, and then the remainder fpoly(a)
        acc = 0
        quot = []
        for c in reversed(cs):
            acc = add(mul(acc, a), c)
            quot.append(acc)
        if acc:
            return m
        m += 1
        cs = quot[-2::-1]
    return m


def poly_is_inseparable(fpoly):
    """True iff the formal derivative vanishes (constants included)."""
    return fpoly.derivative().is_zero


def poly_pth_root(fpoly):
    """g with g(x)^p = fpoly; requires fpoly in k[x^p]."""
    field = fpoly.field
    p = field.p
    if fpoly.is_zero:
        return fpoly
    out = []
    for i, c in enumerate(fpoly.coeffs):
        if i % p == 0:
            out.append(field.pth_root_i(c))
        elif c:
            raise ValueError("polynomial is not in k[x^p]")
    return Poly(field, out)


def frobenius_power(fpoly):
    """fpoly(x)^p computed via the Frobenius identity (cheap and exact)."""
    field = fpoly.field
    p = field.p
    if fpoly.is_zero:
        return fpoly
    out = [0] * (p * (len(fpoly.coeffs) - 1) + 1)
    for i, c in enumerate(fpoly.coeffs):
        if c:
            out[p * i] = field.pow_i(c, p)
    return Poly(field, out)


def bezout_inseparable(a, b):
    """(H1, H2) inseparable with a*H2 - b*H1 = 1, for coprime a, b in k[x^p].

    Degree bounds deg H1 < deg a, deg H2 < deg b hold except in the standard
    degenerate constant cases.
    """
    field = a.field
    if a.field != b.field:
        raise ValueError("polynomials over different fields")
    for h in (a, b):
        if not poly_is_inseparable(h):
            raise ValueError("inputs must be inseparable or constant")
    if a.is_zero or b.is_zero:
        raise ValueError("inputs must be nonzero")
    if a.degree == 0:
        return Poly.zero(field), Poly.constant(field, field.inv_i(a.coeffs[0]))
    if b.degree == 0:
        return Poly.constant(field, field.neg_i(field.inv_i(b.coeffs[0]))), Poly.zero(field)
    ra, rb = poly_pth_root(a), poly_pth_root(b)
    g, u, v = poly_xgcd(ra, rb)
    if g.degree != 0:
        raise ValueError("inputs are not coprime")
    # u*ra + v*rb = 1; raise to the p-th power: u^p*a + v^p*b = 1
    h2 = frobenius_power(u)
    h1 = -frobenius_power(v)
    return h1, h2


# ---------------------------------------------------------------------------
# exact linear algebra on encoded row vectors
# ---------------------------------------------------------------------------

def rref(rows, field):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv_i(rows[r][c])
        if inv != 1:
            rows[r] = [field.mul_i(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                field.axpy_i(rows[i], 0, field.neg_i(rows[i][c]), rows[r])
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [tuple(row) for row in rows], pivots


def nullspace(rows, field):
    """Basis of the right kernel of a matrix with at least one row, as
    encoded vectors."""
    ncols = len(rows[0])
    red, pivots = rref(rows, field)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = field.neg_i(red[r][fc])
        basis.append(tuple(vec))
    return basis


# ---------------------------------------------------------------------------
# roots and splitting fields
# ---------------------------------------------------------------------------

def poly_powmod(base, exp, mod):
    """base^exp mod mod, by left-to-right square-and-multiply on coefficient
    lists: a set bit multiplies by the reduced base, which costs O(deg mod)
    when the base is short, like x or x + a.  A square is its diagonal c^2
    plus one row 2c * r[i+1:] per coefficient r[i].  Every reduction runs
    on mod's _reducer, so no quotient is built."""
    field = base.field
    if not exp:
        return Poly.one(field)
    base._check(mod)
    remainder = _reducer(field, mod.coeffs)
    axpy, mul = field.axpy_i, field.mul_i
    result = rbase = remainder(list(base.coeffs))
    for bit in bin(exp)[3:]:
        out = [0] * (2 * len(result) - 1)
        out[::2] = [mul(c, c) for c in result]
        for i, c in enumerate(result[:-1]):
            if c:
                axpy(out, 2 * i + 1, mul(2, c), result[i + 1:])
        result = remainder(out)
        if bit == "1":
            out = [0] * (len(result) + len(rbase) - 1)
            for i, c in enumerate(rbase):
                if c:
                    axpy(out, i, c, result)
            result = remainder(out)
    return Poly(field, result)


def roots_with_multiplicity(fpoly):
    """All roots of fpoly in its own field F_q, in encoding order, each with
    its multiplicity.  The distinct roots are those of the squarefree
    g = gcd(x^q - x, fpoly), which _split_linear separates."""
    field = fpoly.field
    if fpoly.is_zero:
        raise ValueError("roots of the zero polynomial")
    if fpoly.degree == 0:
        return []
    x = Poly.x(field)
    g = poly_gcd(poly_powmod(x, field.q, fpoly) - x, fpoly)
    return [(r, poly_valuation(fpoly, r)) for r in sorted(_split_linear(g))]


def _split_linear(g):
    """Roots of a monic squarefree g that is a product of linear factors
    over its field, split by _split_step down to linear factors."""
    roots = []
    todo = [(g, 1)] if g.degree > 0 else []
    while todo:
        g, start = todo.pop()
        if g.degree == 1:
            roots.append(g.field.neg_i(g.coeffs[0]))
            continue
        h, start = _split_step(g, start)
        todo += [(h, start), (g // h, start)]
    return roots


def _split_step(g, start):
    """(h, i + 1) for the first shift index i >= start whose gcd h splits g,
    0 < deg h < deg g; g is as in _split_linear, of degree >= 2, and the
    shift at i cannot split either factor again.

    This is Cantor-Zassenhaus equal-degree splitting (Math. Comp. 36, 1981)
    over F_q (q odd): for a shift a, gcd((x + a)^{(q-1)/2} - 1, g) collects
    the roots r with r + a a nonzero square.  The shifts a = i * step run
    over every encoding, since step is coprime to q.  For k > 1 the step is
    p + 1, the element y + 1, so the first shifts, its multiples by F_p, lie
    in no proper subfield: a shift a in a subfield F_s gives chi(r^s + a) =
    chi(r + a) and so never separates roots conjugate over F_s, as the roots
    of a lifted polynomial are.  Two distinct roots r, t stay together only
    when (r + a)(t + a) is a nonzero square or zero, and as
    sum_a chi((a + r)(a + t)) = -1, at least (q - 1)/2 of the q shifts
    separate them.  So q failed tries mean that g was not a squarefree
    product of linear factors."""
    field = g.field
    q = field.q
    step = field.p + 1 if field.k > 1 else 1
    one = Poly.one(field)
    for i in range(start, start + q):
        shift = Poly(field, (i * step % q, 1))
        h = poly_gcd(poly_powmod(shift, (q - 1) // 2, g) - one, g)
        if 0 < h.degree < g.degree:
            return h, i + 1
    raise ArithmeticError(f"{q} shifts failed to split a polynomial over {field}")


def _distinct_degree_parts(fpoly, budget=None):
    """[(j, g_j)] for each degree j of an irreducible factor, ascending:
    g_j is the product of the distinct monic irreducible factors of degree
    j, so it is squarefree.

    Works directly on non-squarefree input: gcd with x^{q^j} - x picks up
    every degree-j factor once, and exact division by g_j, then repeated
    gcd-division, strips that degree to full multiplicity before moving on.
    At step j every factor left in work has degree >= j, so a work of
    degree below 2j is one irreducible factor, and the pass stops there.

    With a budget, the splitting field F_{q^K}, K the lcm of the part
    degrees, must have at most budget elements: K <= K_max, the largest m
    with q^m <= budget.  The pass raises BudgetExceeded as soon as that is
    known to fail: when the lcm L of the degrees found so far exceeds
    K_max, or, before the power of step j, when the least multiple of L
    over which work could split, given that its factors have degree >= j,
    does (_least_split_degree).  K is a multiple of both, so the message's
    bound is a lower bound on K.
    """
    field = fpoly.field
    work = fpoly.monic()[0]
    parts = []
    x = frob = Poly.x(field)
    j, ext_deg = 0, 1
    if budget is not None:
        max_ext = 0
        while field.q ** (max_ext + 1) <= budget:
            max_ext += 1
    while work.degree > 0:
        j += 1
        n = work.degree
        if n < 2 * j:
            g, j = work, n
        else:
            if budget is not None:
                need = _least_split_degree(n, j, ext_deg)
                if need > max_ext:
                    _refuse(field, need, budget)
            # x^{q^j} mod work: work only loses factors, so the previous
            # power reduced mod the new work is still right
            frob = poly_powmod(frob, field.q, work)
            g = poly_gcd(frob - x, work)
            if g.degree == 0:
                continue
        parts.append((j, g))
        ext_deg = math.lcm(ext_deg, j)
        if budget is not None and ext_deg > max_ext:
            _refuse(field, ext_deg, budget)
        work = work // g
        h = poly_gcd(work, g)
        while h.degree > 0:
            work = work // h
            h = poly_gcd(work, g)
    return parts


def _least_split_degree(n, j, ext_deg):
    """The least multiple L of ext_deg over which a polynomial of degree n
    whose irreducible factors all have degree >= j can split: the least L
    such that n is a sum of divisors >= j of L, with repeats.  L =
    lcm(ext_deg, n) always is, so the search ends there at the latest."""
    ext = ext_deg
    while True:
        sums = [True] + [False] * n
        for i in range(j, min(ext, n) + 1):
            if ext % i == 0:
                for s in range(i, n + 1):
                    sums[s] = sums[s] or sums[s - i]
        if sums[n]:
            return ext
        ext += ext_deg


def _refuse(field, ext_deg, budget):
    """Refuse a splitting field of degree at least ext_deg over field."""
    raise BudgetExceeded(
        f"splitting field F_{{{field.p}^m}} with m >= {field.k * ext_deg} "
        f"exceeds budget {budget}")


def distinct_degree_profile(fpoly):
    """Sorted degrees of the irreducible factors (multiplicities ignored)."""
    return [j for j, _ in _distinct_degree_parts(fpoly)] or [1]


def splitting_field_roots(fpoly, budget=None):
    """(ext_field, [(root, mult)]) over the smallest F_{q^K} where fpoly
    splits into linear factors, roots in encoding order.  The distinct-degree
    pass refuses a K with q^K > enumeration_budget(budget), as early as it
    can tell.  Each squarefree distinct-degree part is lifted and split on
    its own; the multiplicities are read off the lifted fpoly, once per
    Frobenius orbit."""
    field = fpoly.field
    if fpoly.is_zero:
        raise ValueError("cannot split the zero polynomial")
    if fpoly.degree == 0:
        return field, []
    parts = _distinct_degree_parts(fpoly, enumeration_budget(budget))
    ext = field.extension(math.lcm(*(j for j, _ in parts)))
    embed = field.embedding(ext)
    lifted = fpoly.over(ext)
    roots = []
    for j, g in parts:
        if j == 1:
            # the roots lie in the base field: find them there, then embed
            orbits = [[embed(r)] for r, _ in roots_with_multiplicity(g)]
        else:
            # g_j is squarefree and splits over F_{q^K}, since j divides K,
            # so no gcd with x^{q^K} - x is needed.  The roots of each
            # irreducible factor are one orbit r, r^q, ..., r^{q^(j-1)}:
            # split down the smaller factor to one root r, and divide its
            # orbit's product out
            orbits, g = [], g.over(ext)
            while g.degree > 0:
                h, start = g, 1
                while h.degree > 1:
                    f, start = _split_step(h, start)
                    h = f if 2 * f.degree <= h.degree else h // f
                orbit = [ext.neg_i(h.coeffs[0])]
                while len(orbit) < j:
                    orbit.append(ext.pow_i(orbit[-1], field.q))
                g, rem = g.divrem(reduce(Poly.__mul__, (Poly(ext, (ext.neg_i(r), 1)) for r in orbit)))
                if rem:
                    raise ArithmeticError(f"a Frobenius orbit failed to divide a polynomial over {ext}")
                orbits.append(orbit)
        for orbit in orbits:
            # fpoly is over F_q, so its order is the same at every root of
            # an orbit: one valuation serves the whole orbit
            mult = poly_valuation(lifted, orbit[0])
            roots += [(r, mult) for r in orbit]
    roots.sort()
    total = sum(m for _, m in roots)
    if total != fpoly.degree:
        raise ArithmeticError("polynomial failed to split over computed field")
    return ext, roots
