"""One-parameter families of maps over k[t]: the tame pathology family,
the inseparable-limit transformation, and limit analysis.

A family is a pair of polynomials in x whose coefficients are polynomials
in t (exact, never power series).  ``FamilyPoly`` has the ring operations
and ``derivative`` of ``Poly``, so the pair primitives of ``ratmap`` apply
to families unchanged: ``pair_wronskian`` is the one Wronskian, and
``family_domain_mobius`` lifts ``mobius_domain_basis``.  The family text
format is parsed strictly; anything else is a ValueError.

The transformation composes with a fractional linear transformation with
inseparable coefficients built from Bezout data of the special fiber; its
determinant is 1, so the Wronskian of the new pair is the old one with a
positive power of t removed, which is asserted at every step and forces
termination.  A family normalizes its basis (``_nonconstant_basis``) once,
when it is built, and stores it with the special fiber's separability:
``insep_limit_transform`` and each step of ``analyze_limit`` read them, and
the last one gives the limit.

``MapFamily`` refuses members that share a factor over k(t).  It
specializes t over F_q first, which settles almost every family; when F_q
has too few values to decide, it scans the least F_{q^m} with more
elements than the resultant's t-degree bound plus the top t-degree, and
that field decides every family.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields

from .algebra import (
    Poly,
    bezout_inseparable,
    finite_field,
    poly_gcd,
    poly_valuation,
    roots_with_multiplicity,
)
from .ratmap import (
    InseparableMapError,
    ProjPoint,
    RatMap,
    _check_matrix,
    is_separable,
    mobius_domain_basis,
    pair_index_at_infinity,
    pair_wronskian,
    ram_index,  # not called here: perfbench's tracer wraps degeneration.ram_index
    ramification_profile,
)


class SeparableSpecialFiberError(ValueError):
    """The transform needs an inseparable special fiber."""


class LimitLawError(ValueError):
    """A family passed the hypothesis checks, yet its limit breaks the
    limit laws: it has ramification that no marked section shows."""


# one (t-coefficients) group, and the whole text: [group, group, ...]
_FAMILY_GROUP = re.compile(r"\(([^()]*)\)")
_FAMILY_TEXT = re.compile(r"\s*\[\s*(?:{g}\s*(?:,\s*{g}\s*)*)?\]\s*".format(
    g=_FAMILY_GROUP.pattern))


# ---------------------------------------------------------------------------
# polynomials in x with k[t] coefficients
# ---------------------------------------------------------------------------

class FamilyPoly:
    """Element of k[t][x]: coeffs[i] is the t-polynomial on x^i."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = list(coeffs)
        while cs and cs[-1].is_zero:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def lift(cls, poly):
        """Constant-in-t lift of an x-polynomial."""
        field = poly.field
        return cls(field, tuple(Poly.constant(field, c) for c in poly.coeffs))

    @property
    def x_degree(self):
        return len(self.coeffs) - 1 if self.coeffs else -1

    @property
    def is_zero(self):
        return not self.coeffs

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Poly.zero(self.field)

    def __eq__(self, other):
        return (isinstance(other, FamilyPoly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def _termwise(self, other, op):
        n = max(len(self.coeffs), len(other.coeffs))
        return FamilyPoly(self.field, tuple(op(self.coeff(i), other.coeff(i))
                                            for i in range(n)))

    def __add__(self, other):
        return self._termwise(other, Poly.__add__)

    def __sub__(self, other):
        return self._termwise(other, Poly.__sub__)

    def __mul__(self, other):
        if self.is_zero or other.is_zero:
            return FamilyPoly.zero(self.field)
        out = [Poly.zero(self.field)
               for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero:
                    out[i + j] = out[i + j] + a * b
        return FamilyPoly(self.field, out)

    def scale_t(self, tpoly):
        return FamilyPoly(self.field, tuple(c * tpoly for c in self.coeffs))

    def derivative(self):
        """d/dx."""
        field = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(self.coeffs[i].scale(i % field.p))
        return FamilyPoly(field, out)

    def eval_t(self, c):
        """The x-polynomial at t = c (encoding)."""
        return Poly(self.field, tuple(coeff(c) for coeff in self.coeffs))

    def t_valuation(self):
        """Largest v with t^v dividing every coefficient; None for zero."""
        if self.is_zero:
            return None
        return min(poly_valuation(c, 0) for c in self.coeffs if not c.is_zero)

    def shift_t_down(self, v):
        """Divide by t^v exactly."""
        if v == 0 or self.is_zero:
            return self
        return FamilyPoly(self.field, [Poly(self.field, c.coeffs[v:])
                                       for c in self.coeffs])

    def max_t_degree(self):
        return max((c.degree for c in self.coeffs if not c.is_zero), default=-1)

    def to_string(self):
        """Nested exchange format: [(t-coeffs of x^0),(x^1),...], low first."""
        return "[" + ",".join(f"({c.to_string() or '0'})" for c in self.coeffs) + "]"

    @classmethod
    def from_string(cls, field, text):
        """Parse the nested exchange format; anything but a bracketed,
        comma-separated list of parenthesized groups is a ValueError."""
        if not _FAMILY_TEXT.fullmatch(text):
            raise ValueError(f"malformed family polynomial {text!r}: expected "
                             "[(t-coeffs of x^0),(t-coeffs of x^1),...]")
        return cls(field, [Poly.from_string(field, group)
                           for group in _FAMILY_GROUP.findall(text)])

    def __repr__(self):
        return f"FamilyPoly{self.to_string()}"


# ---------------------------------------------------------------------------
# marked sections and families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Section:
    """A point of P^1 moving with t: num(t)/den(t), or the constant infinity."""

    num: object = None          # Poly in t
    den: object = None          # Poly in t; None means 1
    order: int = 1
    at_infinity: bool = False

    def value_at(self, field, c):
        """The point at t = c, once the common factor of num and den is
        cancelled: t/t is 1 at t = 0, not infinity."""
        if self.at_infinity:
            return ProjPoint.infinity(field)
        num = self.num
        den = self.den if self.den is not None else Poly.one(field)
        g = poly_gcd(num, den)
        return ProjPoint.from_ratio(field, (num // g)(c), (den // g)(c))

    @classmethod
    def constant(cls, field, point, order):
        if point.is_infinity:
            return cls(order=order, at_infinity=True)
        return cls(num=Poly.constant(field, point.i), order=order)

    def to_json(self):
        if self.at_infinity:
            return {"point": "inf", "order": self.order}
        out = {"num": self.num.to_string() or "0", "order": self.order}
        if self.den is not None:
            out["den"] = self.den.to_string() or "0"
        return out


class MapFamily:
    """A family F(x,t)/G(x,t) with optional marked sections.

    The pair is normalized so that no positive power of t divides both
    members; the generic fiber must be nonconstant and coprime over k(t).
    ``basis`` is ``_nonconstant_basis`` of the pair.
    """

    __slots__ = ("field", "F", "G", "sections", "basis", "_special_separable")

    def __init__(self, F, G, sections=()):
        if F.field != G.field:
            raise ValueError("family members over different fields")
        if F.is_zero or G.is_zero:
            raise ValueError("family members must be nonzero")
        v = min(F.t_valuation(), G.t_valuation())
        if v:
            F, G = F.shift_t_down(v), G.shift_t_down(v)
        self.field = F.field
        self.F = F
        self.G = G
        self.sections = tuple(sections)
        if max(F.x_degree, G.x_degree) < 1:
            raise ValueError("generic fiber is constant")
        if not self._generically_coprime():
            raise ValueError("family members share a factor over k(t)")
        self.basis = _nonconstant_basis(F, G)
        _, _, _, Fb, Gb = self.basis
        self._special_separable = not pair_wronskian(Fb, Gb).is_zero

    @property
    def degree(self):
        return max(self.F.x_degree, self.G.x_degree)

    def _generically_coprime(self):
        """gcd over k(t) is 1 iff some specialization is coprime with full
        degree.  A full-degree value of t where the members share a root
        is a root of Res_x(F, G), whose t-degree is below `bound`; so once
        more than `bound` such values fail, the resultant vanishes and the
        members share a factor.  The degree drops only at roots of one
        leading t-coefficient, at most `top` values, so a field with more
        than bound + top elements decides.  The values of F_q are tried,
        then those of the least such F_{q^m}."""
        dx = self.degree
        top = max(self.F.max_t_degree(), self.G.max_t_degree())
        bound = 2 * dx * (top + 1) + 1
        m = 1
        while self.field.q ** m <= bound + top:
            m += 1
        for field in (self.field, self.field.extension(m)):
            F, G = (FamilyPoly(field, tuple(c.over(field) for c in member.coeffs))
                    for member in (self.F, self.G))
            failed = 0
            for c in range(field.q):
                Fc, Gc = F.eval_t(c), G.eval_t(c)
                if max(Fc.degree, Gc.degree) != dx:
                    continue
                if poly_gcd(Fc, Gc).degree == 0:
                    return True
                failed += 1
                if failed > bound:
                    return False
        return False

    def member(self, c):
        """The fiber at t = c as a RatMap (base points cancelled)."""
        return RatMap.reduce(self.F.eval_t(c), self.G.eval_t(c))[0]

    def wronskian(self):
        return pair_wronskian(self.F, self.G)

    def generic_separable(self):
        return not self.wronskian().is_zero

    def special_fiber_separable(self):
        """Separability of the reduced limit map at t = 0 (after choosing a
        basis whose specialization is nonconstant)."""
        return self._special_separable

    def to_json(self):
        return {
            "schema": 1,
            "p": self.field.p,
            "k": self.field.k,
            "F": self.F.to_string(),
            "G": self.G.to_string(),
            "sections": [s.to_json() for s in self.sections],
        }

    @classmethod
    def from_json(cls, payload):
        """The family of a family-file object.  Every field is checked
        before any is parsed, so the ValueError for a bad file names the
        first field that is missing, of the wrong type or out of range."""
        def need(obj, key, kind, where=""):
            if key not in obj:
                raise ValueError(f"family JSON: {where}missing field {key!r}")
            value = obj[key]
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"family JSON: {where}field {key!r} must be "
                                 f"{kind.__name__}, got {value!r}")
            return value

        if not isinstance(payload, dict):
            raise ValueError("family JSON must be an object")
        p = need(payload, "p", int)
        k = need(payload, "k", int) if "k" in payload else 1
        F, G = need(payload, "F", str), need(payload, "G", str)
        items = need(payload, "sections", list) if "sections" in payload else ()
        marks = []  # (where, order, num, den); num is None at infinity
        for i, item in enumerate(items):
            where = f"sections[{i}]: "
            if not isinstance(item, dict):
                raise ValueError(f"family JSON: {where}must be an object, got {item!r}")
            order = need(item, "order", int, where)
            if order < 1:
                raise ValueError(f"family JSON: {where}field 'order' must be "
                                 f">= 1, got {order!r}")
            if "point" in item:
                if item["point"] != "inf":
                    raise ValueError(f"family JSON: {where}field 'point' must be "
                                     f"'inf', got {item['point']!r}")
                for key in ("num", "den"):
                    if key in item:
                        raise ValueError(f"family JSON: {where}field {key!r} "
                                         "must be absent at point 'inf'")
                marks.append((where, order, None, None))
            else:
                marks.append((where, order, need(item, "num", str, where),
                               need(item, "den", str, where) if "den" in item else None))
        field = finite_field(p, k)
        F, G = FamilyPoly.from_string(field, F), FamilyPoly.from_string(field, G)
        sections = []
        for where, order, num, den in marks:
            if num is None:
                sections.append(Section(order=order, at_infinity=True))
                continue
            num = Poly.from_string(field, num)
            den = None if den is None else Poly.from_string(field, den)
            if num.is_zero and den is not None and den.is_zero:
                raise ValueError(f"family JSON: {where}fields 'num' and 'den' "
                                 "are both zero")
            sections.append(Section(num=num, den=den, order=order))
        return cls(F, G, sections)


def _nonconstant_basis(F, G):
    """Replace F by nu(F - cG) until the reduced special pair is nonconstant.

    A member that vanishes at t = 0 is first divided by its own power of t
    (the c = 0 case of the same move), so neither special member is zero.
    Returns (F, G, g, Fb, Gb): the adjusted basis, the common factor of the
    special pair, and the reduced special pair.
    """
    field = F.field
    F, G = F.shift_t_down(F.t_valuation()), G.shift_t_down(G.t_valuation())
    guard = 0
    limit = 2 * (F.max_t_degree() + G.max_t_degree() + 2)
    while True:
        F0, G0 = F.eval_t(0), G.eval_t(0)
        g = poly_gcd(F0, G0)
        Fb = F0 // g if g.degree else F0
        Gb = G0 // g if g.degree else G0
        if max(Fb.degree, Gb.degree) > 0:
            return F, G, g, Fb, Gb
        # special fiber is constant: this basis degenerates at t = 0
        c = field.div_i(Fb.coeffs[0], Gb.coeffs[0])
        F = F - G.scale_t(Poly.constant(field, c))
        v = F.t_valuation()
        if v is None:
            raise ArithmeticError("family members dependent over k(t)")
        F = F.shift_t_down(v)
        guard += 1
        if guard > limit:
            raise ArithmeticError("basis normalization did not terminate")


def family_domain_mobius(fam, M):
    """Pre-compose the whole family with a t-constant fractional linear map
    x -> (ax+b)/(cx+e); sections are carried along by the inverse matrix.

    Useful for moving marked sections away from infinity so that the
    limit-law hypotheses hold.
    """
    field = fam.field
    a, b, c, e = _check_matrix(field, M)
    basis = [FamilyPoly.lift(term)
             for term in mobius_domain_basis(field, (a, b, c, e), fam.degree)]

    def subst(fp):
        acc = FamilyPoly.zero(field)
        for coeff, term in zip(fp.coeffs, basis):
            if not coeff.is_zero:
                acc = acc + term.scale_t(coeff)
        return acc

    new_sections = []
    for s in fam.sections:
        if s.at_infinity:
            num, den = Poly.one(field), Poly.zero(field)
        else:
            num = s.num
            den = s.den if s.den is not None else Poly.one(field)
        # inverse matrix (e, -b; -c, a) acting on (num : den)
        new_num = num.scale(e) - den.scale(b)
        new_den = num.scale(field.neg_i(c)) + den.scale(a)
        if new_den.is_zero:
            new_sections.append(Section(order=s.order, at_infinity=True))
        else:
            new_sections.append(Section(num=new_num, den=new_den, order=s.order))
    return MapFamily(subst(fam.F), subst(fam.G), tuple(new_sections))


# ---------------------------------------------------------------------------
# the tame pathology family f - t x^p
# ---------------------------------------------------------------------------

def pathology_family(F, G):
    """(family, profile): the family F/G - t x^p, for maps with a tame pole
    of order e1 > p at infinity and all finite orders < p, and the
    ramification profile of F/G, which the checks need and ``family``
    reports.  Every member has the same ramification divisor while the
    pencils are pairwise distinct.  The sections are infinity and every
    F_q-rational ramification point.

    With (F, G) reduced, the member at t = c is the pencil <F - c x^p G, G>,
    and the q members over F_q have q distinct pencils, so ``family`` counts
    them without building them.  Each member is coprime, as gcd(F - c x^p G,
    G) = gcd(F, G), and has degree deg F, as e1 = deg F - deg G > p.  If
    c != c' gave one pencil, it would hold (c - c') x^p G, of degree
    deg G + p; but a member a (F - c x^p G) + b G has degree deg F if a != 0
    and deg G if a = 0, and deg G < deg G + p < deg F."""
    base_map, common = RatMap.reduce(F, G)
    if common.degree:
        raise ValueError("input pair must be coprime")
    field = F.field
    p = field.p
    e1 = base_map.F.degree - base_map.G.degree
    if e1 <= 0:
        raise ValueError("map must send infinity to infinity (deg F > deg G)")
    if e1 <= p:
        raise ValueError(f"order at infinity must exceed p: got {e1} <= {p}")
    if e1 % p == 0:
        raise ValueError("order at infinity must be prime to p")
    profile = ramification_profile(base_map)
    for pt, e in profile.items():
        if not pt.is_infinity and e >= p:
            raise ValueError(f"finite ramification order {e} at {pt} is not < p")
    # a finite order e < p is tame: an F_q-root of the Wronskian of order e - 1
    sections = [Section(order=e1, at_infinity=True)] + [
        Section(num=Poly.constant(field, r), order=v + 1)
        for r, v in roots_with_multiplicity(pair_wronskian(base_map.F, base_map.G))]
    t_xp = FamilyPoly(field, tuple([Poly.zero(field)] * p + [Poly.x(field)]))
    Ffam = FamilyPoly.lift(base_map.F) - FamilyPoly.lift(base_map.G) * t_xp
    Gfam = FamilyPoly.lift(base_map.G)
    return MapFamily(Ffam, Gfam, tuple(sections)), profile


# ---------------------------------------------------------------------------
# the inseparable-limit transformation
# ---------------------------------------------------------------------------

def insep_limit_transform(fam):
    """One step: compose with the inseparable unimodular transformation built
    from the special fiber, then factor the maximal power of t out of the
    new numerator.  The Wronskian loses exactly that (positive) power of t;
    both facts are asserted."""
    field = fam.field
    if fam.special_fiber_separable():
        raise SeparableSpecialFiberError("special fiber is already separable")
    F, G, g, Fb, Gb = fam.basis
    w_before = pair_wronskian(F, G)
    if w_before.is_zero:
        raise InseparableMapError("generic fiber must be separable")
    h1, h2 = bezout_inseparable(Fb, Gb)
    # raw is not zero: F Gb = G Fb would make F/G = Fb/Gb, an inseparable
    # generic fiber
    raw = F * FamilyPoly.lift(Gb) - G * FamilyPoly.lift(Fb)
    v = raw.t_valuation()
    if v < 1:
        raise ArithmeticError("expected a positive power of t in the new numerator")
    Fnew = raw.shift_t_down(v)
    Gnew = F * FamilyPoly.lift(h2) - G * FamilyPoly.lift(h1)
    # determinant of the transformation is Fb*h2 - Gb*h1 = 1, so the
    # Wronskian is divided by exactly t^v
    t_pow = FamilyPoly(field, (Poly(field, (0,) * v + (1,)),))
    if pair_wronskian(Fnew, Gnew) * t_pow != w_before:
        raise ArithmeticError("wronskian bookkeeping failed")
    g0_check = Gnew.eval_t(0)
    if g0_check.is_zero or g0_check.monic()[0] != g:
        raise ArithmeticError("new denominator at t=0 is not the cancelled factor")
    return MapFamily(Fnew, Gnew, fam.sections)


def tame_at_infinity_reduce(F0, G0):
    """Remove wild ramification at infinity by subtracting inseparable
    image translates: while p divides the index at infinity, subtract the
    matching multiple of x^{e_inf} G0.  Swaps and constant translates (image
    automorphisms) orient the pair.  None of the moves touches the affine
    Wronskian (up to scalar), which is asserted before returning."""
    field = F0.field
    p = field.p
    rmap, _ = RatMap.reduce(F0, G0)
    if not is_separable(rmap):
        raise InseparableMapError("tame reduction needs a separable map")
    F0, G0 = rmap.F, rmap.G
    w_in = pair_wronskian(F0, G0).monic()[0]
    guard = 0
    while True:
        guard += 1
        if guard > 4 * (F0.degree + G0.degree + 4):
            raise ArithmeticError("tame reduction did not terminate")
        if pair_index_at_infinity(F0, G0) % p:
            if pair_wronskian(F0, G0).monic()[0] != w_in:
                raise ArithmeticError("tame reduction changed the affine different")
            return F0, G0
        if F0.degree < G0.degree:
            F0, G0 = G0, F0  # image swap 0 <-> infinity
            continue
        if F0.degree == G0.degree:
            c = field.div_i(F0.leading(), G0.leading())
            F0 = F0 - G0.scale(c)  # image translate, drops deg F0
            continue
        e = F0.degree - G0.degree  # the wild pole order
        c = field.div_i(F0.leading(), G0.leading())
        F0 = F0 - (G0.shift(e)).scale(c)
        if F0.is_zero:
            raise ArithmeticError("reduction annihilated the numerator")


# ---------------------------------------------------------------------------
# limit analysis
# ---------------------------------------------------------------------------

@dataclass
class LimitReport:
    separable_limit: bool
    iterations: int
    m: int
    b: int
    degrees: tuple      # (d_tilde, d_0) after base removal and tame reduction
    e_infinity: int
    epsilon: object = None
    hypotheses_ok: bool = False
    warnings: tuple = ()
    collision: object = None  # (point, combined order) when a pair collides

    def to_json(self):
        """Every field but the collision, whose point is not JSON."""
        out = {"schema": 1}
        for f in fields(self):
            if f.name != "collision":
                value = getattr(self, f.name)
                out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


def _check_hypotheses(fam):
    """Limit-law hypotheses, checked as far as the data allows."""
    warnings = []
    p = fam.field.p
    if not fam.sections:
        warnings.append("no marked sections: hypothesis checks are partial")
    limits = {}  # the point at t = 0 -> the orders of the sections there
    for s in fam.sections:
        pt = s.value_at(fam.field, 0)
        if pt.is_infinity:
            warnings.append("a marked section meets infinity")
        if s.order >= p:
            warnings.append(f"marked order {s.order} is not < p")
        limits.setdefault(pt, []).append(s.order)
    collision = None
    for pt, orders in limits.items():
        if len(orders) == 2:
            if sum(orders) >= p:
                warnings.append("colliding pair has combined order >= p")
            collision = (pt, sum(orders))
        elif len(orders) > 2:
            warnings.append("more than two sections collide")
    ok = not warnings
    return ok, warnings, collision


def analyze_limit(fam):
    """Iterate the transform to a separable limit, tame-reduce at infinity,
    remove base points at the collision point, and report the limit data:
    m = d - deg(G0), e_infinity, b, and the measured epsilon.

    The loop ends: each step divides the Wronskian by t^v with v >= 1, which
    the transform asserts, so there are at most val_t(W) steps.  A family
    whose generic fiber is inseparable is refused by its first step.

    After a step, p <= m <= d, so the "outside [p, d]" check only guards the
    law.  m <= d as G0 is nonzero.  A step's special pair is g (Fb, Gb) with
    Fb/Gb inseparable and nonconstant, so of degree at least p; the first
    pair has degree at most d, so deg g <= d - p.  The new denominator at
    t = 0 is g (asserted), which normalizing the basis keeps, so the next
    step's g divides it.  The tame reduction never raises the denominator's
    degree: it swaps only to a smaller member.  So deg G0 <= d - p."""
    p = fam.field.p
    d = fam.degree
    hypotheses_ok, warnings, collision = _check_hypotheses(fam)
    iterations = 0
    current = fam
    while not current.special_fiber_separable():
        current = insep_limit_transform(current)
        iterations += 1
    _, _, g, F0r, G0r = current.basis

    F0t, G0t = tame_at_infinity_reduce(F0r, G0r)
    d_tilde = max(F0t.degree, G0t.degree)
    d0 = G0t.degree
    m = d - d0
    e_inf = pair_index_at_infinity(F0t, G0t)

    b = 0
    if collision is not None and g.degree and not collision[0].is_infinity:
        b = poly_valuation(g, collision[0].i)
    if g.degree and g.degree != b:
        warnings.append("base points appeared away from the collision point")

    epsilon = None
    if iterations:
        # the limit's degree, base points divided out, minus the expected d + m - 1
        epsilon = d_tilde - (d + m - 1)
        checks = []
        if e_inf != 2 * m - 1:
            checks.append(f"e_infinity = {e_inf} != 2m-1 = {2 * m - 1}")
        if not (p <= m <= d):
            checks.append(f"m = {m} outside [p, d] = [{p}, {d}]")
        if 2 * d_tilde - 2 != 2 * d - 2 + e_inf - 1:
            checks.append("degree bookkeeping 2d~-2 = 2d-2+e_inf-1 failed")
        if checks:
            if hypotheses_ok:
                raise LimitLawError("limit law failed: " + "; ".join(checks))
            warnings.extend(checks)
    return LimitReport(
        separable_limit=iterations == 0,
        iterations=iterations,
        m=m,
        b=b,
        degrees=(d_tilde, d0),
        e_infinity=e_inf,
        epsilon=epsilon,
        hypotheses_ok=hypotheses_ok,
        warnings=tuple(warnings),
        collision=collision,
    )
