"""Pencils of polynomials: the three-point linear solver and the
brute-force census of Schubert problems over F_q.

A pencil is stored as the reduced row echelon form of its 2 x (d+1)
coefficient matrix, the unique canonical representative of the subspace;
``Pencil`` always reduces its rows.  The census does not screen pencils one
by one: in each echelon stratum it reduces the choices of each row to jet
classes and joins the two sides (see the census engine below), O(q^(d-1))
rows per stratum instead of O(q^(2d-2)) pencils.  It runs in numpy (imported
only there) on the field's own coordinates: a jet is F_p-linear in the
base-p digits of a row, so the jets of all conditions are one matrix
product mod p, and a jet is scaled to its class with the field's length-q
log and exp tables.  The tests check it against a small oracle,
``tests/test_pencil.py::_scan_census``, which scans every pencil and tests
each condition by its 2x2 minors.  ``Pencil.to_map`` classifies a
survivor; it counts the base points by degree and never locates them.

Schubert-condition membership at (P, e) is a rank condition: the two rows'
order-e Taylor jets at P (Hasse derivatives; top coefficients for P = inf)
must form a matrix of rank <= 1, i.e. all 2x2 minors vanish.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from dataclasses import dataclass

from .algebra import BudgetExceeded, Poly, enumeration_budget, nullspace, rref
from .ratmap import ProjPoint, RatMap, is_separable, ram_index
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
    """Solve the normalized three-point system on the stacked coefficients
    (F | G): the census's jet conditions for F at 0 to order e1, G at
    infinity to order e2, and F - G at 1 to order e3.

    The 2d + 1 equations in 2d + 2 unknowns cut out a projective space P^m,
    m >= 0; when m = 0 the unique pencil is returned together with its
    separability.  Its (2d + 1)(2d + 2) entries are charged to
    ``enumeration_budget()`` before any row is built.
    """
    check_orders(d, (e1, e2, e3))
    entries, limit = (2 * d + 1) * (2 * d + 2), enumeration_budget()
    if entries > limit:
        raise BudgetExceeded(f"{entries} system entries exceed budget {limit}")
    zero, inf, one = ProjPoint(field, 0), ProjPoint.infinity(field), ProjPoint(field, 1)
    blank = (0,) * (d + 1)
    rows = [jet + blank for jet in vanishing_jet_matrix(field, d, zero, e1)]
    rows += [blank + jet for jet in vanishing_jet_matrix(field, d, inf, e2)]
    rows += [jet + tuple(map(field.neg_i, jet))
             for jet in vanishing_jet_matrix(field, d, one, e3)]
    kernel = nullspace(rows, field)
    m = len(kernel) - 1
    if m:
        return ThreePointSolution(m=m, pencil=None, separable=None, count=0)
    pencil = Pencil(field, d, (kernel[0][:d + 1], kernel[0][d + 1:]))
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


# -- census engine: a per-stratum join of jet classes -------------------------
#
# In the echelon stratum (j1, j2) the rows A (pivot j1) and B (pivot j2)
# range independently, and the condition at (P, e) -- rank [jet_P(A);
# jet_P(B)] <= 1 -- holds iff one jet is zero or the two are proportional.
# So each side's q^|free| rows are reduced once to jet classes (the jet
# scaled so that its first nonzero entry is 1), and the pencils are the
# pairs whose classes agree at every condition where neither jet is zero.
# Order-1 conditions are vacuous and skipped.

def _census_survivors(d, assignments, field):
    """Every pencil meeting the assigned conditions, as canonical echelon
    forms."""
    mats = [vanishing_jet_matrix(field, d, pt, e) for pt, e in assignments if e >= 2]
    jet_classes = _jet_classifier(field, mats)
    survivors = []
    for j1, j2 in itertools.combinations(range(d + 1), 2):
        free_a = [j for j in range(j1 + 1, d + 1) if j != j2]
        rows_a = _echelon_rows(d, field.q, j1, free_a)
        rows_b = _echelon_rows(d, field.q, j2, list(range(j2 + 1, d + 1)))
        ia, ib = _join(field.q, jet_classes(rows_a), jet_classes(rows_b))
        for row_a, row_b in zip(rows_a[:, ia].T.tolist(), rows_b[:, ib].T.tolist()):
            survivors.append(Pencil(field, d, (row_a, row_b)))
    return survivors


def _echelon_rows(d, q, pivot, free):
    """The q^len(free) rows with 1 at the pivot, every value at the free
    positions and 0 elsewhere, as a (d+1) x q^len(free) array of columns."""
    import numpy as np

    rows = np.zeros((d + 1, q ** len(free)), dtype=np.intp)
    rows[pivot] = 1
    if free:
        rows[free] = np.indices((q,) * len(free)).reshape(len(free), -1)
    return rows


def _jet_classifier(field, mats):
    """The map rows -> (zero, classes) for the jet matrices: bit c of
    zero[t] is set iff row t's jet at condition c vanishes, and classes[c]
    (e x n) holds the jets scaled by the inverse of their first nonzero
    entry (0 for a zero jet).  lin[(r, i), (l, j)] = digit i of M[r][j] y^l
    maps the digits (l, j) of a row to the digits (r, i) of its jets, and
    a jet is scaled as exp[log[jet] - log[lead] + q - 1].  All tables are
    built once per census and are O(q); rows go in blocks of _BLOCK."""
    import numpy as np

    if not mats:
        return lambda rows: (np.zeros(rows.shape[1], dtype=np.int64), [])
    p, k, q = field.p, field.k, field.q
    width, sizes = len(mats[0][0]), [len(M) for M in mats]
    # float64 is exact while a sum of k (d + 1) products below p^2 is < 2^50
    if k * width * (p - 1) ** 2 >= 1 << 50:
        raise BudgetExceeded(f"{field} is too large for an exact census")
    digit = (np.arange(q) // p ** np.arange(k)[:, None] % p).astype(np.float64)
    scaled = [[field.mul_i(m, p ** l) for l in range(k) for m in mrow] for M in mats for mrow in M]
    lin = digit[:, scaled].transpose(1, 0, 2).reshape(k * len(scaled), k * width)
    # pack[r, (r, i)] = p^i turns the k digits of a jet entry into its encoding
    pack = np.kron(np.eye(len(scaled)), p ** np.arange(k, dtype=np.float64))
    log, exp = np.array(field.log), np.array(field.exp, dtype=np.min_scalar_type(q - 1))

    def jet_classes(rows):
        live = [j for j in range(width) if rows[j].any()]
        sub = lin[:, [l * width + j for l in range(k) for j in live]]
        zero = np.zeros(rows.shape[1], dtype=np.int64)
        classes = np.empty((len(scaled), rows.shape[1]), dtype=exp.dtype)
        for s in range(0, rows.shape[1], _BLOCK):
            block = slice(s, s + _BLOCK)
            jets = sub @ digit[:, rows[live, block]].reshape(k * len(live), -1)
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
                zero[block] |= (~jet.any(axis=0)).astype(np.int64) << c
                classes[end - e:end, block] = np.where(jet, exp[jet_log - lead + (q - 1)], 0)
        return zero, [classes[end - e:end] for e, end in zip(sizes, itertools.accumulate(sizes))]

    return jet_classes


def _join(q, side_a, side_b):
    """Index pairs (ia, ib) of A and B rows whose classes agree at every
    condition where neither jet is zero.  Rows are grouped by their zero
    pattern; each pair of patterns is joined on the conditions live on both
    sides (with none live, every pair matches)."""
    import numpy as np

    zero_a, classes_a = side_a
    zero_b, classes_b = side_b
    groups_b = _zero_groups(zero_b)
    pairs_a, pairs_b = [], []
    for pa, sel_a in _zero_groups(zero_a):
        for pb, sel_b in groups_b:
            live = [np.concatenate([classes_a[c][:, sel_a], classes_b[c][:, sel_b]], axis=1)
                    for c in range(len(classes_a)) if not (pa | pb) >> c & 1]
            keys = _class_keys(live, sel_a.size + sel_b.size, q)
            ia, ib = _equal_pairs(keys[:sel_a.size], keys[sel_a.size:])
            pairs_a.append(sel_a[ia])
            pairs_b.append(sel_b[ib])
    return np.concatenate(pairs_a), np.concatenate(pairs_b)


def _zero_groups(zero):
    """(pattern, indices of the rows with that zero pattern), for each
    distinct pattern."""
    import numpy as np

    order = np.argsort(zero, kind="stable")
    patterns, starts = np.unique(zero[order], return_index=True)
    return list(zip(patterns.tolist(), np.split(order, starts[1:])))


def _class_keys(classes, n, base):
    """One int64 key for each of the n columns of the stacked class arrays
    (entries in [0, base)), equal iff the columns are equal.  Entries are
    packed in base `base`; before the next entry could overflow int64, the
    key is replaced by its dense rank, which is below n."""
    import numpy as np

    key = np.zeros(n, dtype=np.int64)
    bound = 1
    for block in classes:
        for entry in block:
            if bound * base > _INT64_MAX:
                key = np.unique(key, return_inverse=True)[1].reshape(-1).astype(np.int64)
                bound = n
            key = key * base + entry
            bound *= base
    return key


def _equal_pairs(keys_a, keys_b):
    """Every index pair (i, j) with keys_a[i] == keys_b[j]."""
    import numpy as np

    order = np.argsort(keys_b, kind="stable")
    sorted_b = keys_b[order]
    lo = np.searchsorted(sorted_b, keys_a, "left")
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
