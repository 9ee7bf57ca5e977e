"""Exact counting of separable self-maps of P^1 with prescribed
ramification in characteristic p, with brute-force verification over
small finite fields."""

from .algebra import (
    BudgetExceeded,
    FiniteField,
    Poly,
    bezout_inseparable,
    finite_field,
    poly_gcd,
    poly_is_inseparable,
    poly_pth_root,
    poly_valuation,
    poly_xgcd,
)
from .counting import (
    INFINITY,
    UNKNOWN,
    CharClass,
    CountResult,
    RamProfile,
    involution_reduce,
    n_four_closed,
    n_gen,
    n_gen_recursive,
    n_three,
    validate_profile,
)
from .degeneration import (
    FamilyPoly,
    LimitReport,
    MapFamily,
    Section,
    analyze_limit,
    family_domain_mobius,
    insep_limit_transform,
    pathology_family,
    tame_at_infinity_reduce,
)
from .pencil import (
    CensusReport,
    Pencil,
    count_maps_bruteforce,
    gaussian_binomial_pencils,
    sample_general_points,
    solve_three_point,
)
from .ratmap import (
    Divisor,
    InseparableMapError,
    ProjPoint,
    RatMap,
    WildRamificationError,
    different_divisor,
    involution_transform,
    is_separable,
    mobius_act,
    ram_index,
    ramification_profile,
    wronskian,
    wronskian_divisor,
)
from .schubert import intersection_number

__version__ = "0.1.0"
