"""The tests' reference three-point solver: the census's jet conditions on
the stacked coefficients (F | G), a dense (2d + 1) x (2d + 2) system, and
its kernel by row reduction.  It shares with solve_three_point only the
jet matrices and Pencil's canonical form."""

from ramcount.algebra import rref
from ramcount.pencil import Pencil, vanishing_jet_matrix
from ramcount.ratmap import ProjPoint


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


def dense_three_point(d, e1, e2, e3, field):
    """(m, pencil): the kernel of F at 0 to order e1, G at infinity to order
    e2 and F - G at 1 to order e3 is a P^m, and when m = 0 its one point is
    the pencil <F, G> (else None)."""
    zero, inf, one = ProjPoint(field, 0), ProjPoint.infinity(field), ProjPoint(field, 1)
    blank = (0,) * (d + 1)
    rows = [jet + blank for jet in vanishing_jet_matrix(field, d, zero, e1)]
    rows += [blank + jet for jet in vanishing_jet_matrix(field, d, inf, e2)]
    rows += [jet + tuple(map(field.neg_i, jet))
             for jet in vanishing_jet_matrix(field, d, one, e3)]
    kernel = nullspace(rows, field)
    m = len(kernel) - 1
    return m, Pencil(field, d, (kernel[0][:d + 1], kernel[0][d + 1:])) if m == 0 else None
