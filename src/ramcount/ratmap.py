"""Rational self-maps of P^1 with ramification queries.

A map is a coprime pair (F, G) of polynomials up to a common scalar; the
degree is max(deg F, deg G).  Every way from a pair to a map ends in one
normalization; ``RatMap.reduce`` cancels the gcd, whose degree counts the
finite base points, and only ``RatMap.new`` goes on to find them, in a
splitting field.  Ramification at infinity and at poles is handled by
reversing coefficient sequences (the coordinate swap x -> 1/x) so a single
valuation code path covers every point: the order at a is the valuation of
the pencil member through a.

``involution_transform`` is the map-level form of the symmetry that trades
orders (e1, e2) < p at two finite points P1, P2 for (p - e1, p - e2).  With
A and B the members through P1 and P2, g = A/B is f moved in the image so
that g(P1) = 0 and g(P2) = infinity, and the result is g u^p with
u = (x - P2)/(x - P1), of degree d + p - e1 - e2.  At any other point Q,
infinity included, u - u(Q) has order 1 and
g u^p - g(Q) u(Q)^p = (g - g(Q)) u^p + g(Q) (u - u(Q))^p, so every order
below p is kept.  Applied twice it gives back f up to an automorphism of
the image.
"""

from __future__ import annotations

from .algebra import (
    Poly,
    poly_gcd,
    poly_valuation,
    splitting_field_roots,
)


class InseparableMapError(ValueError):
    """Raised when an operation requires a separable map."""


class WildRamificationError(ArithmeticError):
    """Tame different accounting refused at a wildly ramified point.

    Carries the point, its ramification index, and the raw Wronskian
    valuation there (which exceeds index - 1 in the wild case).
    """

    def __init__(self, point, ram, wronskian_valuation):
        self.point = point
        self.ram = ram
        self.wronskian_valuation = wronskian_valuation
        super().__init__(
            f"wild ramification at {point}: index {ram}, "
            f"wronskian valuation {wronskian_valuation}")


class ProjPoint:
    """A point of P^1(F_q): a field element or infinity."""

    __slots__ = ("field", "i")

    def __init__(self, field, i):
        self.field = field
        self.i = i  # encoding, or None for infinity

    @classmethod
    def infinity(cls, field):
        return cls(field, None)

    @classmethod
    def from_ratio(cls, field, num, den):
        """The point num/den of encodings: infinity where den = 0."""
        if den == 0:
            return cls.infinity(field)
        return cls(field, field.div_i(num, den))

    @classmethod
    def coerce(cls, field, point):
        """point itself if it is a ProjPoint, else the finite point whose
        encoding is int(point) mod q."""
        if isinstance(point, ProjPoint):
            return point
        return cls(field, int(point) % field.q)

    @property
    def is_infinity(self):
        return self.i is None

    def __eq__(self, other):
        return (isinstance(other, ProjPoint)
                and self.field == other.field and self.i == other.i)

    def __hash__(self):
        return hash((self.field, self.i))

    def __repr__(self):
        return "inf" if self.is_infinity else self.field.element_str(self.i)

    @staticmethod
    def parse(field, text):
        text = text.strip()
        if text == "inf":
            return ProjPoint.infinity(field)
        return ProjPoint(field, field.element_parse(text))


class Divisor:
    """Finitely supported map ProjPoint -> positive multiplicity."""

    __slots__ = ("_data",)

    def __init__(self, data=()):
        items = dict(data)
        for pt, m in items.items():
            if m < 1:
                raise ValueError("divisor multiplicities must be >= 1")
        self._data = items

    def multiplicity(self, point):
        return self._data.get(point, 0)

    def items(self):
        return self._data.items()

    def points(self):
        return self._data.keys()

    @property
    def total(self):
        return sum(self._data.values())

    def __len__(self):
        return len(self._data)

    def __eq__(self, other):
        return isinstance(other, Divisor) and self._data == other._data

    def __hash__(self):
        return hash(frozenset(self._data.items()))

    def to_json(self):
        return {repr(pt): m for pt, m in sorted(
            self._data.items(), key=lambda kv: (kv[0].i is None, kv[0].i or 0))}

    def __repr__(self):
        return f"Divisor({self.to_json()})"


def _check_pair(F, G):
    if F.field != G.field:
        raise ValueError("numerator and denominator over different fields")
    if F.is_zero or G.is_zero:
        raise ValueError("constant maps are rejected")


class RatMap:
    """Degree-d self-map of P^1 as a normalized coprime pair (F, G)."""

    __slots__ = ("field", "F", "G")

    def __init__(self, F, G):
        _check_pair(F, G)
        if poly_gcd(F, G).degree > 0:
            raise ValueError("pair has common factors; use RatMap.new")
        self._normalize(F, G)

    def _normalize(self, F, G):
        """The private constructor, from a pair known to be coprime (no gcd
        is run): constant maps are rejected, and the common scalar is fixed
        by making the higher-degree member monic."""
        d = max(F.degree, G.degree)
        if d < 1:
            raise ValueError("constant maps are rejected")
        scale = F.field.inv_i((F if F.degree == d else G).leading())
        self.field, self.F, self.G = F.field, F.scale(scale), G.scale(scale)

    @classmethod
    def reduce(cls, F, G):
        """(map, monic common factor): the pair with its gcd cancelled.  The
        degree of the factor is the number of finite base points."""
        _check_pair(F, G)
        g = poly_gcd(F, G)
        if g.degree > 0:
            F, G = F // g, G // g
        f = cls.__new__(cls)
        f._normalize(F, G)
        return f, g

    @classmethod
    def new(cls, F, G):
        """Cancel common factors; returns (map, cancelled base divisor), the
        roots of the common factor over its splitting field."""
        f, g = cls.reduce(F, G)
        ext, roots = splitting_field_roots(g)
        return f, Divisor({ProjPoint(ext, r): m for r, m in roots})

    @property
    def degree(self):
        return max(self.F.degree, self.G.degree)

    def __eq__(self, other):
        """Same map: equal normalized pairs (common scalar already fixed)."""
        return (isinstance(other, RatMap) and self.field == other.field
                and self.F == other.F and self.G == other.G)

    def __hash__(self):
        return hash((self.field, self.F, self.G))

    def __repr__(self):
        return f"({self.F.to_string() or '0'})/({self.G.to_string() or '0'})"

    def to_string(self):
        return f"{self.F.to_string()}/{self.G.to_string()}"

    @classmethod
    def from_string(cls, field, text):
        num, _, den = text.partition("/")
        return cls(Poly.from_string(field, num), Poly.from_string(field, den))

    # -- evaluation ----------------------------------------------------------

    def __call__(self, point):
        """Value at a ProjPoint (or finite encoding), as a ProjPoint."""
        point = ProjPoint.coerce(self.field, point)
        if point.field != self.field:
            raise ValueError("point in a different field; embed the map first")
        if point.is_infinity:
            d = self.degree
            return ProjPoint.from_ratio(self.field, self.F.coeff(d), self.G.coeff(d))
        return ProjPoint.from_ratio(self.field, self.F(point.i), self.G(point.i))

    def lift(self, target):
        """The same map over an extension field, with no gcd: coprimality
        does not depend on the field."""
        if target == self.field:
            return self
        f = RatMap.__new__(RatMap)
        f._normalize(self.F.over(target), self.G.over(target))
        return f


# ---------------------------------------------------------------------------
# ramification queries
# ---------------------------------------------------------------------------

def pair_wronskian(F, G):
    """F'G - FG' for any pair with derivative(): polynomials in x, or in x
    over k[t]."""
    return F.derivative() * G - F * G.derivative()


def wronskian(f):
    """F'G - FG'; zero exactly when the map is inseparable."""
    return pair_wronskian(f.F, f.G)


def is_separable(f):
    return not wronskian(f).is_zero


def ram_index(f, point):
    """Ramification index e_P >= 1 at the given point."""
    point = ProjPoint.coerce(f.field, point)
    if point.field != f.field:
        f = f.lift(point.field)
    if point.is_infinity:
        return pair_index_at_infinity(f.F, f.G)
    return poly_valuation(_member_through(f.F, f.G, point.i), point.i)


def pair_index_at_infinity(F, G):
    """Ramification index at infinity of the coprime pair (F, G): at 0 after
    x -> 1/x, both members reversed to degree d = max(deg F, deg G).  That
    keeps the pair coprime: a shared root r != 0 would give a shared root
    1/r of F and G, and 0 divides at most one side."""
    d = max(F.degree, G.degree)
    return poly_valuation(_member_through(F.reverse(d), G.reverse(d), 0), 0)


def _member_through(F, G, a):
    """The member of the pencil <F, G> that vanishes at the finite point a:
    F - (F(a)/G(a)) G, or G where G(a) = 0.  Its order at a is e_a."""
    gval = G(a)
    if gval == 0:
        return G
    return F - G.scale(F.field.div_i(F(a), gval))


def ramification_profile(f):
    """Divisor of ramification indices (only points with e_P >= 2),
    computed over the splitting field of the Wronskian: a point with
    e_P >= 2 is a zero of the Wronskian."""
    try:
        div = wronskian_divisor(f)
    except InseparableMapError:
        raise InseparableMapError("inseparable map has no ramification profile") from None
    return Divisor({pt: e for pt, _, e in _ram_indices(f, div) if e > 1})


def wronskian_divisor(f, root_budget=None):
    """div(W) on P^1: valuations of the Wronskian plus the degree-deficiency
    part at infinity.  Total is 2d - 2 identically; asserted.  The
    splitting field is bounded by enumeration_budget(root_budget)."""
    w = wronskian(f)
    if w.is_zero:
        raise InseparableMapError("wronskian divisor of an inseparable map")
    d = f.degree
    ext, roots = splitting_field_roots(w, root_budget)
    data = {ProjPoint(ext, r): m for r, m in roots}
    inf_mult = (2 * d - 2) - w.degree
    if inf_mult > 0:
        data[ProjPoint.infinity(ext)] = inf_mult
    div = Divisor(data)
    if div.total != 2 * d - 2:
        raise ArithmeticError("wronskian accounting failed to reach 2d-2")
    return div


def different_divisor(f, root_budget=None):
    """The different of a separable map, with the tame accounting audit.

    At every point carrying Wronskian valuation the ramification index is
    recomputed independently; tame points must satisfy ord = e_P - 1 and the
    total must be exactly 2d - 2.  A wildly ramified point (p | e_P) raises
    WildRamificationError carrying the raw valuation, since tame
    bookkeeping does not apply there.
    """
    div = wronskian_divisor(f, root_budget)
    p = f.field.p
    for pt, mult, e in _ram_indices(f, div):
        if e % p == 0:
            raise WildRamificationError(pt, e, mult)
        if mult != e - 1:
            raise ArithmeticError(
                f"tame accounting violated at {pt}: index {e}, valuation {mult}")
    return div


def _ram_indices(f, div):
    """(point, valuation, e_P) for each point of div, in order, with f lifted
    once to the field the points share (the Wronskian's splitting field)."""
    lifted = None
    for pt, mult in div.items():
        lifted = lifted or f.lift(pt.field)
        yield pt, mult, ram_index(lifted, pt)


# ---------------------------------------------------------------------------
# Moebius actions
# ---------------------------------------------------------------------------

def _check_matrix(field, M):
    (a, b), (c, e) = M
    a, b, c, e = (x % field.q for x in (a, b, c, e))
    if field.mul_i(a, e) == field.mul_i(b, c):
        raise ValueError("matrix is singular")
    return (a, b, c, e)


def mobius_apply(field, M, point):
    """Apply (a b; c e) as w -> (aw+b)/(cw+e) to a ProjPoint."""
    a, b, c, e = _check_matrix(field, M)
    if point.is_infinity:
        return ProjPoint.from_ratio(field, a, c)
    return ProjPoint.from_ratio(field, field.add_i(field.mul_i(a, point.i), b),
                                field.add_i(field.mul_i(c, point.i), e))


def mobius_domain_basis(field, entries, d):
    """[(ax+b)^i (cx+e)^(d-i) for i = 0..d]: the images of x^i under the
    substitution x -> (ax+b)/(cx+e), cleared to degree d.  entries is
    (a, b, c, e) as returned by _check_matrix."""
    a, b, c, e = entries
    lin1 = Poly(field, (b, a))  # ax + b
    lin2 = Poly(field, (e, c))  # cx + e
    pow1 = [Poly.one(field)]
    pow2 = [Poly.one(field)]
    for _ in range(d):
        pow1.append(pow1[-1] * lin1)
        pow2.append(pow2[-1] * lin2)
    return [pow1[i] * pow2[d - i] for i in range(d + 1)]


def mobius_act(f, M, side):
    """Act on the map by an invertible 2x2 matrix.

    image side: (F, G) -> (aF + bG, cF + eG), i.e. post-compose with the
    fractional linear transformation.  domain side: substitute
    x -> (ax+b)/(cx+e) and clear denominators to degree d, i.e. pre-compose.
    """
    field = f.field
    a, b, c, e = _check_matrix(field, M)
    if side == "image":
        F2 = f.F.scale(a) + f.G.scale(b)
        G2 = f.F.scale(c) + f.G.scale(e)
        return RatMap(F2, G2)
    if side == "domain":
        basis = mobius_domain_basis(field, (a, b, c, e), f.degree)
        def subst(poly):
            acc = Poly.zero(field)
            for coeff, term in zip(poly.coeffs, basis):
                if coeff:
                    acc = acc + term.scale(coeff)
            return acc
        return RatMap(subst(f.F), subst(f.G))
    raise ValueError("side must be 'image' or 'domain'")


# ---------------------------------------------------------------------------
# involution transform (multiply by (x-P2)^p / (x-P1)^p)
# ---------------------------------------------------------------------------

def involution_transform(f, P1, P2):
    """Trade ramification orders (e1, e2) at finite P1, P2 for (p-e1, p-e2).

    Requires e1, e2 < p, f(P1) != f(P2), and f separable.  With A and B the
    members of the pencil through P1 and P2, the result is
    (A/B) ((x - P2)/(x - P1))^p, of degree d + p - e1 - e2.  Every other
    point, infinity included, keeps its order where that order is below p.
    """
    field = f.field
    p = field.p
    P1, P2 = ProjPoint.coerce(field, P1), ProjPoint.coerce(field, P2)
    if P1.is_infinity or P2.is_infinity:
        raise ValueError("P1 and P2 must be finite (apply a domain Moebius first)")
    if P1 == P2:
        raise ValueError("P1 and P2 must be distinct")
    if not is_separable(f):
        raise InseparableMapError("involution transform needs a separable map")
    e1 = ram_index(f, P1)
    e2 = ram_index(f, P2)
    if e1 >= p or e2 >= p:
        raise ValueError(f"orders ({e1}, {e2}) must be < p = {p}")
    if f(P1) == f(P2):
        raise ValueError("f(P1) = f(P2); transform undefined")
    lin1 = Poly(field, (field.neg_i(P1.i), 1))
    lin2 = Poly(field, (field.neg_i(P2.i), 1))
    A, rem1 = _member_through(f.F, f.G, P1.i).divrem(lin1 ** e1)
    B, rem2 = _member_through(f.F, f.G, P2.i).divrem(lin2 ** e2)
    if not (rem1.is_zero and rem2.is_zero):
        raise ArithmeticError("a member does not vanish to its order at P1 or P2")
    return RatMap(A * lin2 ** (p - e2), B * lin1 ** (p - e1))
