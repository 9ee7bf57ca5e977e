"""Pencils of polynomials: the three-point solver, by one truncated
Euclid, and the brute-force census of Schubert problems over F_q.

A pencil is stored as the reduced row echelon form of its 2 x (d+1)
coefficient matrix, the unique canonical representative of the subspace;
``Pencil`` always reduces its rows.  The census does not screen pencils
one by one: in each echelon stratum it reduces the choices of each row
to jet classes and joins the two sides (see the census engine below),
O(q^(d-1)) rows per stratum instead of O(q^(2d-2)) pencils; the strata
that share the second row's pivot are joined in one step.  The point of
largest order is first moved to 0, where its condition is a lower bound
on that pivot, so the census skips the steps below it and never
classifies that condition.  It runs in numpy (imported only there) on the
field's own coordinates: a jet is F_p-linear in the base-p digits of a
row, so the jets of all conditions are one matrix product mod p, a jet
is scaled to its class with the field's length-q log and exp tables, and
a class is packed in base q to one integer id.  The tests check it
against a small oracle, ``tests/test_pencil.py::_scan_census``, which
scans every pencil and tests each condition by its 2x2 minors.
``Pencil.to_map`` classifies a survivor; it counts the base points by
degree and never locates them.

Schubert-condition membership at (P, e) is a rank condition: the two rows'
order-e Taylor jets at P (Hasse derivatives; top coefficients for P = inf)
must form a matrix of rank <= 1, i.e. all 2x2 minors vanish.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass

from .algebra import BudgetExceeded, Poly, enumeration_budget, euclid_remainders, rref
from .ratmap import ProjPoint, RatMap, is_separable, mobius_apply, mobius_domain_basis, ram_index
from .schubert import check_orders

_INT64_MAX = (1 << 63) - 1

# Rows the census classifies at a time, which bounds its float temporaries.
_BLOCK = 1 << 12


def gaussian_binomial_pencils(d, q):
    """Number of 2-dimensional subspaces of a (d+1)-dimensional F_q space."""
    return ((q ** (d + 1) - 1) * (q ** d - 1)) // ((q ** 2 - 1) * (q - 1))


class Pencil:
    """A point of G(1, d): canonical echelon basis of a rank-2 subspace."""

    __slots__ = ("field", "d", "rows")

    def __init__(self, field, d, rows):
        if len(rows) != 2 or any(len(r) != d + 1 for r in rows):
            raise ValueError("pencil needs two rows of length d+1")
        rows, pivots = rref(rows, field)
        if len(pivots) != 2:
            raise ValueError("rows do not span a 2-dimensional space")
        self.field = field
        self.d = d
        self.rows = (tuple(rows[0]), tuple(rows[1]))

    @classmethod
    def from_polys(cls, f, g, d):
        field = f.field
        rows = []
        for poly in (f, g):
            if not poly.is_zero and poly.degree > d:
                raise ValueError("polynomial degree exceeds pencil bound")
            rows.append(list(poly.coeffs) + [0] * (d + 1 - len(poly.coeffs)))
        return cls(field, d, rows)

    def polys(self):
        return Poly(self.field, self.rows[0]), Poly(self.field, self.rows[1])

    def to_map(self):
        """(reduced map, number of base points with multiplicity): the
        degree of the rows' common factor plus the pencil's degree deficit,
        the base point at infinity.  No base point is located."""
        A, B = self.polys()
        m, g = RatMap.reduce(A, B)
        return m, g.degree + self.d - max(A.degree, B.degree)

    def __eq__(self, other):
        return (isinstance(other, Pencil) and self.field == other.field
                and self.d == other.d and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.d, self.rows))

    def __repr__(self):
        A, B = self.polys()
        return f"Pencil<{A.to_string() or '0'} ; {B.to_string() or '0'}>"

    def to_json(self):
        return {"d": self.d,
                "rows": [",".join(self.field.element_str(c) for c in row)
                         for row in self.rows]}


# ---------------------------------------------------------------------------
# Schubert conditions via jets
# ---------------------------------------------------------------------------

def vanishing_jet_matrix(field, d, point, e):
    """e x (d+1) matrix whose kernel is {polys of degree <= d with
    valuation >= e at the point}; rows are Hasse-derivative evaluations."""
    rows = []
    if point.is_infinity:
        for r in range(e):
            rows.append(tuple(1 if j == d - r else 0 for j in range(d + 1)))
    else:
        a = point.i
        powers = [1]
        for _ in range(d):
            powers.append(field.mul_i(powers[-1], a))
        for r in range(e):
            row = []
            for j in range(d + 1):
                if j < r:
                    row.append(0)
                else:
                    c = math.comb(j, r) % field.p
                    row.append(field.mul_i(c, powers[j - r]) if c else 0)
            rows.append(tuple(row))
    return rows


# ---------------------------------------------------------------------------
# three-point solver (points normalized to 0, infinity, 1)
# ---------------------------------------------------------------------------

@dataclass
class ThreePointSolution:
    m: int                      # projective dimension of the solution space
    pencil: object              # Pencil when m == 0, else None
    separable: object           # bool when m == 0, else None
    count: int                  # 1 iff the unique pencil is a separable map

    def to_json(self):
        out = {"m": self.m, "count": self.count}
        out["separable"] = self.separable
        out["pencil"] = self.pencil.to_json() if self.pencil is not None else None
        return out


def solve_three_point(d, e1, e2, e3, field):
    """The pencils <F, G> with F of order e1 at 0, G of order e2 at
    infinity and F - G of order e3 at 1 form a P^m, m >= 0; when m = 0 the
    unique pencil is returned with its separability.

    So F = x^e1 * a with deg a <= M = d - e1, deg G <= L = d - e2 and
    x^e1 * a = G mod (x - 1)^e3, where L + M + 1 = e3: the [L/M] Pade
    problem, solved by rational reconstruction (von zur Gathen-Gerhard,
    Modern Computer Algebra, ch. 5).  Euclid on (x - 1)^e3 and
    x^e1 mod (x - 1)^e3 stops at its first remainder r with deg r <= L,
    never zero since x and x - 1 are coprime; with t the cofactor of x^e1,
    the solutions are u * (t, r) with deg u <= m = min(L - deg r,
    M - deg t).  The O(d^2) work is bounded by the dense system's
    (2d + 1)(2d + 2) entries, charged to ``enumeration_budget()`` before
    any polynomial is built.
    """
    check_orders(d, (e1, e2, e3))
    entries, limit = (2 * d + 1) * (2 * d + 2), enumeration_budget()
    if entries > limit:
        raise BudgetExceeded(f"{entries} system entries exceed budget {limit}")
    modulus = Poly.from_ints(field, (-1, 1)) ** e3
    steps = euclid_remainders(modulus, Poly.one(field).shift(e1) % modulus)
    r, t = next((r, t) for r, t in steps if r.degree <= d - e2)
    m = min(d - e2 - r.degree, d - e1 - t.degree)
    if m:
        return ThreePointSolution(m=m, pencil=None, separable=None, count=0)
    pencil = Pencil.from_polys(t.shift(e1), r, d)
    zero, inf, one = ProjPoint(field, 0), ProjPoint.infinity(field), ProjPoint(field, 1)
    _, _, sep, counted = _classify_pencil(pencil, ((zero, e1), (inf, e2), (one, e3)), d)
    return ThreePointSolution(m=0, pencil=pencil, separable=sep, count=int(counted))


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

@dataclass
class CensusReport:
    total: int
    separable: int
    inseparable: int
    with_base_points: int
    witnesses: list
    d: int
    assignments: tuple
    field: object
    distinct_images: object = None  # bool: witnesses send the P_i to distinct points

    def to_json(self):
        return {
            "schema": 1,
            "total": self.total,
            "separable": self.separable,
            "inseparable": self.inseparable,
            "with_base_points": self.with_base_points,
            "d": self.d,
            "q": self.field.q,
            "points": [repr(pt) for pt, _ in self.assignments],
            "orders": [e for _, e in self.assignments],
            "distinct_images": self.distinct_images,
            "witnesses": [{"pencil": pencil.to_json(), "map": rmap.to_string()}
                          for pencil, rmap in self.witnesses],
        }


def count_maps_bruteforce(d, assignments, field, budget=None):
    """Census of the intersection of the vanishing conditions in G(1, d)(F_q).

    assignments: sequence of (ProjPoint, order).  Every surviving pencil is
    classified through its reduced map; separable witnesses are audited for
    exact ramification orders and the Riemann-Hurwitz total.
    """
    assignments = tuple(
        (ProjPoint.coerce(field, pt), int(e)) for pt, e in assignments)
    pts = [pt for pt, _ in assignments]
    if len(set(pts)) != len(pts):
        raise ValueError("assigned points must be distinct")
    check_orders(d, [e for _, e in assignments])
    total_pencils = gaussian_binomial_pencils(d, field.q)
    limit = enumeration_budget(budget)
    if total_pencils > limit:
        raise BudgetExceeded(f"{total_pencils} pencils exceed budget {limit}")
    survivors = _census_survivors(d, assignments, field)
    return _classify_survivors(d, assignments, field, survivors)


def _classify_survivors(d, assignments, field, survivors):
    total = len(survivors)
    separable = inseparable = with_base = 0
    witnesses = []
    for pencil in survivors:
        rmap, base, _, counted = _classify_pencil(pencil, assignments, d)
        if base:
            with_base += 1
        if counted:
            separable += 1
            witnesses.append((pencil, rmap))
        else:
            inseparable += 1
    witnesses.sort(key=lambda pair: pair[0].rows)
    distinct = None
    if witnesses:
        # genuine ramification points only: an order-1 condition is vacuous
        # and puts no constraint on where its point lands
        ram_points = [pt for pt, e in assignments if e >= 2]
        distinct = True
        for _, rmap in witnesses:
            if len({rmap(pt) for pt in ram_points}) != len(ram_points):
                distinct = False
    return CensusReport(total=total, separable=separable, inseparable=inseparable,
                        with_base_points=with_base, witnesses=witnesses, d=d,
                        assignments=assignments, field=field,
                        distinct_images=distinct)


def _classify_pencil(pencil, assignments, d):
    """(reduced map, base points, separable, counted) of a pencil meeting
    the assigned conditions.  The census and solve3 count a pencil iff it
    is separable with no base point, and audit every counted one."""
    rmap, base = pencil.to_map()
    sep = is_separable(rmap)
    counted = sep and not base
    if counted:
        _audit_witness(rmap, assignments, d)
    return rmap, base, sep, counted


def _audit_witness(rmap, assignments, d):
    """Separable survivors must be exact: Riemann-Hurwitz forces the orders."""
    if rmap.degree != d:
        raise ArithmeticError("separable witness lost degree")
    claimed = 0
    for pt, e in assignments:
        if ram_index(rmap, pt) != e:
            raise ArithmeticError(f"witness ramification at {pt} is not exactly {e}")
        claimed += e - 1
    if claimed != 2 * d - 2:
        raise ArithmeticError("witness orders do not exhaust the different")


# -- census engine: a join of jet classes, once per pivot of B ---------------
#
# In the echelon stratum (j1, j2) the rows A (pivot j1) and B (pivot j2)
# range independently, and the condition at (P, e) -- rank [jet_P(A);
# jet_P(B)] <= 1 -- holds iff one jet is zero or the two are proportional.
# So each side's q^|free| rows are reduced once to jet classes (the jet
# scaled so that its first nonzero entry is 1), each packed in base q to one
# integer id, and the pencils are the pairs whose ids agree at every
# condition where neither jet is zero.  Order-1 conditions are vacuous and
# skipped.  Every A row of a stratum (j1, j2) pairs with every row of B(j2),
# so the census takes one step per pivot j2 of B: one array holds the A rows
# of all the strata (j1, j2) and then B(j2), one call classifies it, and one
# join pairs its two slices.  A step holds at most 2 q^(d-1) rows.
#
# First the point P0 of largest order e0 (the first on a tie) is moved to 0,
# by y = x - P0 or by y = 1/x for infinity, and the other points with it.
# At 0 a member lambda A + mu B has valuation j1 if lambda != 0, and B has
# valuation j2 > j1, so the condition (0, e0) holds iff j2 >= e0: it is
# dropped, and the steps run over j2 = e0..d.  Each survivor is brought back
# by substituting the move into its rows (ratmap.mobius_domain_basis), and
# everything after the join sees the original points.

def _census_survivors(d, assignments, field):
    """Every pencil meeting the assigned conditions, as canonical echelon
    forms."""
    q = field.q
    P0, e0 = max(assignments, key=lambda pe: pe[1], default=(ProjPoint(field, 0), 1))
    entries = (0, 1, 1, 0) if P0.is_infinity else (1, field.neg_i(P0.i), 0, 1)
    moved = [(mobius_apply(field, (entries[:2], entries[2:]), pt), e)
             for pt, e in assignments if pt != P0]
    mats = [vanishing_jet_matrix(field, d, pt, e) for pt, e in moved if e >= 2]
    jet_classes = _jet_classifier(field, mats)
    bases = [q ** len(M) for M in mats]
    basis = mobius_domain_basis(field, entries, d)
    survivors = []
    for j2 in range(e0, d + 1):
        rows, split = _pivot_rows(d, q, j2)
        zero, ids = jet_classes(rows)
        ia, ib = _join((zero[:split], ids[:, :split]), (zero[split:], ids[:, split:]), bases)
        for pair in zip(rows[:, ia].T.tolist(), rows[:, split + ib].T.tolist()):
            f, g = (sum((term.scale(c) for c, term in zip(row, basis) if c), Poly.zero(field))
                    for row in pair)
            survivors.append(Pencil.from_polys(f, g, d))
    return survivors


def _pivot_rows(d, q, j2):
    """(rows, split): the rows of the strata (j1, j2), j1 < j2, as one
    (d+1) x n array of columns.  Columns before split are the A rows, each
    stratum's q^(d-j1-1) in turn: 1 at j1, 0 at j2 and left of j1, every
    value at the other positions.  From split on come the q^(d-j2) rows of
    B(j2): 1 at j2, 0 left of it, every value right of it."""
    import numpy as np

    parts = [(j1, [j for j in range(j1 + 1, d + 1) if j != j2]) for j1 in range(j2)]
    parts.append((j2, list(range(j2 + 1, d + 1))))
    rows = np.zeros((d + 1, sum(q ** len(free) for _, free in parts)), dtype=np.intp)
    start = 0
    for pivot, free in parts:
        part = rows[:, start:start + q ** len(free)]
        part[pivot] = 1
        for axis, j in enumerate(free):  # in place, through a q x ... x q view of row j
            grid = part[j].reshape((q,) * len(free))
            grid[...] = np.arange(q).reshape((q,) + (1,) * (len(free) - axis - 1))
        start += part.shape[1]
    return rows, start - q ** (d - j2)


def _jet_classifier(field, mats):
    """The map rows -> (zero, ids) for the jet matrices: bit c of zero[t]
    is set iff row t's jet at condition c vanishes, and ids[c, t] is the
    class of that jet, the jet scaled by the inverse of its first nonzero
    entry (0 for a zero jet), packed as the sum of entry i times q^i.  The
    packing is canonical, so ids of any two calls compare directly.
    lin[(r, i), (l, j)] = digit i of M[r][j] y^l maps the digits (l, j) of a
    row to the digits (r, i) of its jets, and a jet is scaled as
    exp[log[jet] - log[lead] + q - 1].  All tables are built once per census
    and are O(q); rows go in blocks of _BLOCK.  A step has j2 >= 1, so no
    column of rows is zero: 0 is (0, j2)'s pivot, j2 is B's, the rest free."""
    import numpy as np

    if not mats:
        return lambda rows: (np.zeros(rows.shape[1], dtype=np.int64),
                             np.zeros((0, rows.shape[1]), dtype=np.int64))
    p, k, q = field.p, field.k, field.q
    width, sizes = len(mats[0][0]), [len(M) for M in mats]
    # float64 is exact while a sum of k (d + 1) products below p^2 is < 2^50,
    # and an id is below 2^63 while q^e <= 2^63
    if k * width * (p - 1) ** 2 >= 1 << 50 or q ** max(sizes) > 1 << 63:
        raise BudgetExceeded(f"{field} is too large for an exact census")
    digit = (np.arange(q) // p ** np.arange(k)[:, None] % p).astype(np.float64)
    scaled = [[field.mul_i(m, p ** l) for l in range(k) for m in mrow] for M in mats for mrow in M]
    lin = digit[:, scaled].transpose(1, 0, 2).reshape(k * len(scaled), k * width)
    # pack[r, (r, i)] = p^i turns the k digits of a jet entry into its encoding
    pack = np.kron(np.eye(len(scaled)), p ** np.arange(k, dtype=np.float64))
    log, exp = np.array(field.log), np.array(field.exp, dtype=np.min_scalar_type(q - 1))
    weights = q ** np.arange(max(sizes), dtype=np.int64)
    bits = 1 << np.arange(len(sizes), dtype=np.int64)
    # ids are kept in the smallest signed type that holds q^e - 1: a large
    # stratum's ids then take no more memory than its scaled entries
    id_type = np.min_scalar_type(1 - q ** max(sizes))

    def jet_classes(rows):
        zero = np.empty(rows.shape[1], dtype=np.int64)
        ids = np.empty((len(sizes), rows.shape[1]), dtype=id_type)
        for s in range(0, rows.shape[1], _BLOCK):
            block = slice(s, s + _BLOCK)
            jets = lin @ digit[:, rows[:, block]].reshape(k * width, -1)
            quot = jets * (1 / p)  # in place: jets mod p, safe at multiples of p
            np.floor(np.add(quot, 0.5 / p, out=quot), out=quot)
            jets -= np.multiply(quot, p, out=quot)
            enc = (pack @ jets).astype(np.intp)
            logs, end = log[enc], 0
            for c, e in enumerate(sizes):
                jet, jet_log, end = enc[end:end + e], logs[end:end + e], end + e
                lead = jet_log[-1]
                for i in range(e - 2, -1, -1):  # down to the first nonzero entry
                    lead = np.where(jet[i], jet_log[i], lead)
                ids[c, block] = weights[:e] @ np.where(jet, exp[jet_log - lead + (q - 1)], 0)
            # a nonzero jet's first nonzero entry is 1, so its id is >= 1
            zero[block] = bits @ (ids[:, block] == 0)
        return zero, ids

    return jet_classes


def _join(side_a, side_b, bases):
    """Index pairs (ia, ib) of A and B rows whose class ids agree at every
    condition where neither jet is zero.  A side is (zero, ids) as
    jet_classes returns it, and bases[c] bounds the ids of condition c.
    Rows are grouped by their zero pattern; each pair of patterns is joined
    on the conditions live on both sides (with none live, every pair
    matches)."""
    import numpy as np

    zero_a, ids_a = side_a
    zero_b, ids_b = side_b
    order_a, groups_a = _zero_groups(zero_a)
    order_b, groups_b = _zero_groups(zero_b)
    ids_a, ids_b = ids_a[:, order_a], ids_b[:, order_b]
    pairs_a, pairs_b = [], []
    for pa, a0, a1 in groups_a:
        for pb, b0, b1 in groups_b:
            live = [c for c in range(len(bases)) if not (pa | pb) >> c & 1]
            both = np.concatenate([ids_a[live, a0:a1], ids_b[live, b0:b1]], axis=1)
            keys = _class_keys(both, [bases[c] for c in live])
            ia, ib = _equal_pairs(keys[:a1 - a0], keys[a1 - a0:])
            pairs_a.append(ia + a0)
            pairs_b.append(ib + b0)
    return order_a[np.concatenate(pairs_a)], order_b[np.concatenate(pairs_b)]


def _zero_groups(zero):
    """(order, groups): order sorts the rows by zero pattern, and groups
    holds (pattern, start, stop) for each distinct pattern, whose rows are
    order[start:stop]."""
    import numpy as np

    order = np.argsort(zero, kind="stable")
    patterns, starts = np.unique(zero[order], return_index=True)
    bounds = starts.tolist() + [zero.size]
    return order, list(zip(patterns.tolist(), bounds, bounds[1:]))


def _class_keys(values, bases):
    """One int64 key for each of the n columns of the 2-D array values (row
    c's entries in [0, bases[c])), equal iff the columns are equal.  Rows
    are packed in their bases; before the next row could overflow int64,
    the key and that row are replaced by the dense rank of their pairs,
    which is below n."""
    import numpy as np

    n = values.shape[1]
    key = np.zeros(n, dtype=np.int64)
    bound = 1
    for row, base in zip(values, bases):
        if bound * base > _INT64_MAX:
            key = np.unique(np.stack([key, row]), axis=1, return_inverse=True)[1].reshape(-1)
            bound = n
        else:
            key = key * base + row
            bound *= base
    return key


def _equal_pairs(keys_a, keys_b):
    """Every index pair (i, j) with keys_a[i] == keys_b[j]."""
    import numpy as np

    order = np.argsort(keys_b, kind="stable")
    sorted_b = keys_b[order]
    lo = np.searchsorted(sorted_b, keys_a, "left")
    if not (sorted_b.take(lo, mode="clip") == keys_a).any():  # as for most pairs of patterns
        return lo[:0], lo[:0]
    counts = np.searchsorted(sorted_b, keys_a, "right") - lo
    ia = np.repeat(np.arange(keys_a.size), counts)
    starts = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return ia, order[starts + np.arange(ia.size)]


# ---------------------------------------------------------------------------
# general-position sampling
# ---------------------------------------------------------------------------

def sample_general_points(n, field, seed):
    """n distinct seeded-random finite points.

    Deterministic for a given (n, field, seed).  The field must satisfy
    q >= 4n, so that the points have room to be general, and q <= sys.maxsize,
    the largest range that random.sample draws from.
    """
    if field.q < 4 * n:
        raise ValueError(
            f"field of size {field.q} too small for {n} general points "
            f"(need q >= {4 * n})")
    if field.q > sys.maxsize:
        raise ValueError(
            f"field of size {field.q} too large to sample points from "
            f"(need q <= {sys.maxsize})")
    rng = random.Random(seed)
    return tuple(ProjPoint(field, x) for x in rng.sample(range(field.q), n))
