"""Command-line interface: exact counts, censuses, solvers, and tables.

Every command prints exact integers only; identical arguments and seed give
byte-identical output.  Exit codes: 0 success, 1 invalid input,
2 enumeration budget exceeded.

``build_parser`` is the only declaration of the command line: each
subcommand names its handler there, and the handler reads the parsed
arguments directly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from contextlib import contextmanager
from functools import lru_cache

from .algebra import BudgetExceeded, Poly, enumeration_budget, finite_field
from .counting import (
    INFINITY,
    WILD_REASON,
    _four_closed,
    check_prime,
    n_gen_cells,
    n_gen_recursive,
    validate_profile,
)
from .degeneration import MapFamily, analyze_limit, insep_limit_transform, pathology_family
from .pencil import (
    count_maps_bruteforce,
    sample_general_points,
    solve_three_point,
)
from .ratmap import ProjPoint
from .schubert import intersection_number

SCHEMA_VERSION = 1

TABLE_COLUMNS = ["schema", "orders", "n", "d", "p", "class", "count",
                 "closed4", "schubert", "match", "reason"]


def _parse_p(text):
    if text == "inf":
        return INFINITY
    return int(text)


def _p_str(p):
    return "inf" if p == INFINITY else str(p)


def _parse_orders(text):
    try:
        return tuple(int(tok) for tok in text.split(","))
    except (ValueError, AttributeError):
        raise ValueError(f"bad orders list: {text!r}")


def _require_finite_p(args):
    if args.p == INFINITY:
        raise ValueError(f"{args.command} needs a finite prime --p")
    return args.p


@contextmanager
def _exact_ints():
    """Lift Python's 4300-digit cap on int <-> str while a count is written
    out; input is parsed under the cap, which guards against slow inputs."""
    if not hasattr(sys, "get_int_max_str_digits"):  # before 3.10.7: no cap
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _emit(payload, fmt, text_lines=None):
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if text_lines is None:
        # nested values as JSON, so that each line reads back
        text_lines = [f"{k} = {json.dumps(v, sort_keys=True)}"
                      if isinstance(v, (dict, list)) else f"{k} = {v}"
                      for k, v in sorted(payload.items())]
    return "\n".join(text_lines) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_count(args):
    profile = validate_profile(args.orders, args.p)
    result = n_gen_recursive(profile)
    payload = result.to_json(profile)
    with _exact_ints():
        lines = [f"N_gen{tuple(profile.orders)} at p={_p_str(args.p)} "
                 f"[{result.char_class.value}] = {result.value}"]
        return _emit(payload, args.format, lines)


def cmd_schubert(args):
    number = intersection_number(args.d, args.orders)
    payload = {"schema": SCHEMA_VERSION, "d": args.d,
               "orders": list(args.orders), "count": number}
    with _exact_ints():
        return _emit(payload, args.format, [str(number)])


def cmd_solve3(args):
    p = _require_finite_p(args)
    if len(args.orders) != 3:
        raise ValueError("solve3 needs exactly three orders")
    profile = validate_profile(args.orders, p)
    field = finite_field(p, args.k)
    sol = solve_three_point(profile.d, *args.orders, field)
    payload = sol.to_json()
    payload.update({"schema": SCHEMA_VERSION, "p": p, "k": args.k,
                    "d": profile.d, "orders": list(args.orders)})
    lines = [f"m = {sol.m}",
             f"separable = {sol.separable}",
             f"count = {sol.count}"]
    return _emit(payload, args.format, lines)


def cmd_search(args):
    p = _require_finite_p(args)
    field = finite_field(p, args.k)
    orders = args.orders
    d = validate_profile(orders, p).d
    if args.points:
        points = tuple(ProjPoint.parse(field, tok)
                       for tok in args.points.split(","))
    else:
        points = sample_general_points(len(orders), field, args.seed)
    if len(points) != len(orders):
        raise ValueError("points and orders must have the same length")
    report = count_maps_bruteforce(d, list(zip(points, orders)), field,
                                   budget=args.budget)
    payload = report.to_json()
    payload["seed"] = args.seed
    payload["p"] = p
    payload["k"] = args.k
    lines = [f"total = {report.total}",
             f"separable = {report.separable}",
             f"inseparable = {report.inseparable}",
             f"with_base_points = {report.with_base_points}"]
    return _emit(payload, args.format, lines)


def cmd_family(args):
    p = _require_finite_p(args)
    field = finite_field(p, args.k)
    F = Poly.from_string(field, args.numerator)
    G = Poly.from_string(field, args.denominator or "1")
    # the q members have q distinct pencils (see pathology_family)
    fam, profile = pathology_family(F, G)
    payload = fam.to_json()
    payload["members"] = payload["distinct_pencils"] = field.q
    payload["ramification"] = profile.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(fam.to_json(), handle, sort_keys=True, indent=2)
            handle.write("\n")
    lines = [f"members = {field.q}", f"distinct_pencils = {field.q}"]
    return _emit(payload, args.format, lines)


def cmd_transform(args):
    if not args.family:
        raise ValueError("transform needs --family <path>")
    with open(args.family, "r", encoding="utf-8") as handle:
        fam = MapFamily.from_json(json.load(handle))
    if args.analyze:
        report = analyze_limit(fam)
        payload = report.to_json()
        lines = [f"iterations = {report.iterations}",
                 f"m = {report.m}",
                 f"e_infinity = {report.e_infinity}"]
        return _emit(payload, args.format, lines)
    out = insep_limit_transform(fam)
    return _emit(out.to_json(), args.format)


def _heavy_parts(total, most, top):
    """The partitions of total >= 1 into at most `most` parts a <= top, as
    the nondecreasing orders a + 1.  The largest part comes first, and is at
    least total / most, so that the rest fit below it."""
    for a in range(-(-total // most), min(total, top) + 1):
        if a == total:
            yield (a + 1,)
        elif most == 2:  # the second part is the rest, at most a
            yield (total - a + 1, a + 1)
        else:
            for rest in _heavy_parts(total - a, most - 1, a):
                yield rest + (a + 1,)


def cmd_table(args):
    """One row per (orders, p), sorted by n, then orders, then p.

    Every row (1, ..., 1) + heavy shares the cell of its heavy part (the
    orders >= 2) at its prime, so the rows themselves are formatting.  The
    partition walk yields only valid orders, and one n_gen_cells call per
    degree counts each of its heavy parts at every prime: the series folded
    with period d + 1, the intersection number, once for all p > d (HIGH)
    and inf, and each tail once for the degree.  A MID row is the series
    folded with period p, a LOW row is unknown or wild.  The inf row's
    schubert column is its own count, so its match holds by construction;
    the independent checks are closed4, the four-point closed form, and the
    paper's degeneration recursion, which the tests run against the table.

    A profile of degree d has 3 <= n <= n_max orders e <= d with sum (e - 1)
    = 2(d - 1) (Riemann-Hurwitz), so the heavy parts of degree d are the
    partitions of 2(d - 1) into at most n_max parts e - 1 <= d - 1, walked
    once.  Before any cell is computed, the order entries the rows would
    print are counted, O(1) per heavy part; the table is refused as soon as
    the degrees seen prove that count above enumeration_budget().
    """
    seen = set()
    for p in args.p:
        check_prime(p)
        if p in seen:
            raise ValueError(f"p = {_p_str(p)} is listed twice")
        seen.add(p)
    primes = sorted(seen)  # inf last
    degrees = range(2, args.d + 1) if args.n_max >= 3 else ()

    # a first pass walks and counts, so that a refusal computes no cell.
    # Adding 1 to the two largest orders maps the heavy parts of degree d one
    # to one to parts of degree d + 1 of the same length, so each degree
    # prints at least as many entries as the one before: with at_d entries of
    # degree d seen so far, the degrees d..d_max print at least
    # (d_max - d + 1) at_d
    limit, entries, parts_by_degree = enumeration_budget(), 0, []
    for d in degrees:
        at_d, parts = 0, []
        for heavy in _heavy_parts(2 * (d - 1), args.n_max, d - 1):
            parts.append(heavy)
            low = max(3, len(heavy))
            # the rows of low <= n <= n_max entries, once per prime
            at_d += len(primes) * (low + args.n_max) * (args.n_max + 1 - low) // 2
            if entries + (args.d - d + 1) * at_d > limit:
                raise BudgetExceeded(f"table order entries exceed budget {limit}")
        entries += at_d
        parts_by_degree.append((d, parts))
    texts = [_p_str(p) for p in primes]
    groups = []
    for d, parts in parts_by_degree:
        for heavy, cells in n_gen_cells(parts, d, primes):
            cells = [(char_class.value, count,
                      "wild excluded" if reason == WILD_REASON else reason)
                     for char_class, count, reason in cells]
            heavy_text = " ".join(map(str, heavy))
            for n in range(max(3, len(heavy)), args.n_max + 1):
                ones = n - len(heavy)
                groups.append((n, "1 " * ones + heavy_text, (1,) * ones + heavy, d,
                               cells))
    groups.sort()
    rows = []
    for n, orders_text, orders, d, cells in groups:
        for p, p_text, (class_text, count, reason) in zip(primes, texts, cells):
            # the inf row's schubert column is its own count, so its match
            # holds by construction.  Every e_i <= d, and outside LOW every
            # e_i < p: so only LOW rows are wild or UNKNOWN, and they have no
            # cross-check.  For p > d the closed form's penalty
            # d + 1 - min(p, d + 1) is 0, as at inf
            schubert, match = (count, "true") if p_text == "inf" else ("", "")
            closed4 = ""
            if n == 4 and class_text != "LOW":
                closed4 = _four_closed(orders, p, d)
                match = "true" if closed4 == count else "false"
            rows.append([SCHEMA_VERSION, orders_text, n, d, p_text, class_text,
                         count, closed4, schubert, match, reason])
    if args.format == "json":
        return json.dumps(
            {"schema": SCHEMA_VERSION,
             "rows": [dict(zip(TABLE_COLUMNS, row)) for row in rows]},
            sort_keys=True, separators=(",", ":")) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(TABLE_COLUMNS)
    writer.writerows(rows)
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# argv parsing
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def build_parser():
    """The command line, built once per process: building it is most of the
    time of a small command, and parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ramcount",
        description="Exact counts of separable self-maps of P^1 with "
                    "prescribed ramification in characteristic p.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument("--format", default="json", choices=("json", "text"))

    sp = sub.add_parser("count", help="evaluate the counting recursion")
    sp.set_defaults(handler=cmd_count)
    sp.add_argument("--p", required=True, help="prime >= 3, or 'inf'")
    sp.add_argument("--orders", required=True, help="comma list of e_i")
    add_format(sp)

    sp = sub.add_parser("schubert", help="intersection number on G(1,d)")
    sp.set_defaults(handler=cmd_schubert)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--orders", required=True)
    add_format(sp)

    sp = sub.add_parser("solve3", help="three-point solver at (0, inf, 1)")
    sp.set_defaults(handler=cmd_solve3)
    sp.add_argument("--p", required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--orders", required=True, help="e1,e2,e3")
    add_format(sp)

    sp = sub.add_parser("search", help="brute-force census of a Schubert problem")
    sp.set_defaults(handler=cmd_search)
    sp.add_argument("--p", required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--orders", required=True)
    sp.add_argument("--points", default=None,
                    help="comma list of points ('inf' allowed); sampled if omitted")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--budget", type=int, default=None)
    add_format(sp)

    sp = sub.add_parser("family", help="build the tame pathology family f - t x^p")
    sp.set_defaults(handler=cmd_family)
    sp.add_argument("--p", required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--f", required=True, dest="numerator",
                    help="numerator, exchange format")
    sp.add_argument("--g", default="1", dest="denominator",
                    help="denominator, exchange format")
    sp.add_argument("--out", default=None, help="write the family JSON here")
    add_format(sp)

    sp = sub.add_parser("transform", help="inseparable-limit transformation")
    sp.set_defaults(handler=cmd_transform)
    sp.add_argument("--family", required=True, help="path to a family JSON file")
    sp.add_argument("--analyze", action="store_true",
                    help="iterate to a separable limit and report the limit data")
    add_format(sp)

    sp = sub.add_parser("table", help="bulk table of counts with cross-checks")
    sp.set_defaults(handler=cmd_table)
    sp.add_argument("--p", required=True, help="comma list of primes and/or 'inf'")
    sp.add_argument("--d", type=int, required=True, help="maximum degree")
    sp.add_argument("--n-max", type=int, default=4)
    sp.add_argument("--format", default="csv", choices=("json", "text", "csv"),
                    help="text prints the CSV, byte for byte")

    return parser


def run_argv(argv=None):
    """Parse argv and dispatch; returns (exit_code, output_text)."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return (1 if exc.code else 0), ""
    try:
        # converted here, not by argparse, so that a bad value is an
        # `error:` line with exit 1 rather than a usage message
        if args.command == "table":
            args.p = [_parse_p(tok) for tok in args.p.split(",")]
        elif hasattr(args, "p"):
            args.p = _parse_p(args.p)
        if hasattr(args, "orders"):
            args.orders = _parse_orders(args.orders)
        return 0, args.handler(args)
    except BudgetExceeded as exc:
        return 2, f"error: {exc}\n"
    except MemoryError as exc:
        # the census budget counts pencils, not the arrays built for them,
        # so a request within budget can still exhaust memory
        return 2, f"error: out of memory: {str(exc) or 'allocation failed'}\n"
    except (ValueError, OSError, KeyError) as exc:
        return 1, f"error: {exc}\n"


def main(argv=None):
    code, output = run_argv(argv)
    stream = sys.stdout if code == 0 else sys.stderr
    stream.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
