"""Command-line interface: exact counts, censuses, solvers, and tables.

Every command prints exact integers only; identical configuration and seed
give byte-identical output.  Exit codes: 0 success, 1 invalid input,
2 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys
from dataclasses import dataclass

from .algebra import BudgetExceeded, Poly, finite_field
from .counting import (
    INFINITY,
    UNKNOWN,
    CharClass,
    _four_closed,
    n_gen_recursive,
    validate_profile,
)
from .degeneration import MapFamily, analyze_limit, insep_limit_transform, pathology_family
from .pencil import count_maps_bruteforce, sample_general_points, solve_three_point
from .ratmap import ProjPoint, ramification_profile
from .schubert import intersection_number

SCHEMA_VERSION = 1

COMMANDS = ("count", "schubert", "solve3", "search", "family", "transform", "table")

TABLE_COLUMNS = ["schema", "orders", "n", "d", "p", "class", "count",
                 "closed4", "schubert", "match", "reason"]


@dataclass
class RunConfig:
    """A validated invocation; seed defaults to a fixed constant so that
    repeated runs are byte-identical."""

    command: str
    p: object = None            # prime int, INFINITY, or None
    k: int = 1
    d: object = None
    orders: tuple = ()
    points: object = None       # comma string or None (sampled)
    seed: int = 0
    format: str = "json"
    budget: object = None
    family: object = None       # path for `transform`
    expansion: bool = False
    analyze: bool = False
    numerator: str = ""
    denominator: str = "1"
    out: object = None
    n_max: int = 4

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.format not in ("json", "text", "csv"):
            raise ValueError(f"unknown format {self.format!r}")


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


def _require_finite_p(config):
    if config.p is None or config.p == INFINITY:
        raise ValueError(f"{config.command} needs a finite prime --p")
    return config.p


def _emit(payload, fmt, text_lines=None):
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if fmt == "text":
        if text_lines is None:
            text_lines = [f"{k} = {payload[k]}" for k in sorted(payload)]
        return "\n".join(text_lines) + "\n"
    raise ValueError(f"unsupported format {fmt!r} for this command")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_count(config):
    profile = validate_profile(config.orders, config.p)
    result = n_gen_recursive(profile)
    payload = result.to_json(profile)
    lines = [f"N_gen{tuple(profile.orders)} at p={_p_str(config.p)} "
             f"[{result.char_class.value}] = {result.value}"]
    return _emit(payload, config.format, lines)


def cmd_schubert(config):
    if config.d is None:
        raise ValueError("schubert needs --d")
    number, expansion = intersection_number(config.d, config.orders, full=True)
    payload = {"schema": SCHEMA_VERSION, "d": config.d,
               "orders": list(config.orders), "count": number}
    if config.expansion:
        payload["expansion"] = {f"{a},{b}": c
                                for (a, b), c in sorted(expansion.items())}
    return _emit(payload, config.format, [str(number)])


def cmd_solve3(config):
    p = _require_finite_p(config)
    if len(config.orders) != 3:
        raise ValueError("solve3 needs exactly three orders")
    profile = validate_profile(config.orders, p)
    field = finite_field(p, config.k)
    sol = solve_three_point(profile.d, *config.orders, field)
    payload = sol.to_json()
    payload.update({"schema": SCHEMA_VERSION, "p": p, "k": config.k,
                    "d": profile.d, "orders": list(config.orders)})
    lines = [f"m = {sol.m}",
             f"separable = {sol.separable}",
             f"count = {sol.count}"]
    return _emit(payload, config.format, lines)


def cmd_search(config):
    p = _require_finite_p(config)
    field = finite_field(p, config.k)
    orders = config.orders
    if config.d is not None:
        d = config.d
    else:
        d = validate_profile(orders, p).d
    if config.points:
        points = tuple(ProjPoint.parse(field, tok)
                       for tok in config.points.split(","))
    else:
        points = sample_general_points(len(orders), field, config.seed)
    if len(points) != len(orders):
        raise ValueError("points and orders must have the same length")
    report = count_maps_bruteforce(d, list(zip(points, orders)), field,
                                   budget=config.budget)
    payload = report.to_json()
    payload["seed"] = config.seed
    payload["p"] = p
    payload["k"] = config.k
    lines = [f"total = {report.total}",
             f"separable = {report.separable}",
             f"inseparable = {report.inseparable}",
             f"with_base_points = {report.with_base_points}"]
    return _emit(payload, config.format, lines)


def cmd_family(config):
    p = _require_finite_p(config)
    field = finite_field(p, config.k)
    F = Poly.from_string(field, config.numerator)
    G = Poly.from_string(field, config.denominator or "1")
    fam = pathology_family(F, G)
    profile = ramification_profile(fam.member(0))
    pencils = {fam.member(c).pencil_rows() for c in range(field.q)}
    payload = fam.to_json()
    payload["members"] = field.q
    payload["distinct_pencils"] = len(pencils)
    payload["ramification"] = {repr(pt): e for pt, e in sorted(
        profile.items(), key=lambda kv: (kv[0].i is None, kv[0].i or 0))}
    if config.out:
        with open(config.out, "w", encoding="utf-8") as handle:
            json.dump(fam.to_json(), handle, sort_keys=True, indent=2)
            handle.write("\n")
    lines = [f"members = {field.q}", f"distinct_pencils = {len(pencils)}"]
    return _emit(payload, config.format, lines)


def cmd_transform(config):
    if not config.family:
        raise ValueError("transform needs --family <path>")
    with open(config.family, "r", encoding="utf-8") as handle:
        fam = MapFamily.from_json(json.load(handle))
    if config.analyze:
        report = analyze_limit(fam)
        payload = report.to_json()
        lines = [f"iterations = {report.iterations}",
                 f"m = {report.m}",
                 f"e_infinity = {report.e_infinity}"]
        return _emit(payload, config.format, lines)
    out = insep_limit_transform(fam)
    return _emit(out.to_json(), config.format)


def _table_profiles(n_max, d_max):
    for n in range(3, n_max + 1):
        for orders in itertools.combinations_with_replacement(
                range(1, d_max + 1), n):
            total = sum(e - 1 for e in orders)
            if total % 2 or total == 0:
                continue
            d = 1 + total // 2
            if d > d_max or any(e > d for e in orders):
                continue
            yield orders, d


def cmd_table(config):
    if config.d is None:
        raise ValueError("table needs --d (maximum degree)")
    ps = config.p if isinstance(config.p, (list, tuple)) else [config.p]
    rows = []
    for orders, d in _table_profiles(config.n_max, config.d):
        orders_text = " ".join(str(e) for e in orders)
        for p in ps:
            profile = validate_profile(orders, p)
            result = n_gen_recursive(profile)
            count = UNKNOWN if result.is_unknown else result.value
            closed4 = ""
            schubert = ""
            reason = result.reason
            if len(orders) == 4 and not profile.forced_zero and \
                    profile.char_class is not CharClass.LOW:
                c4 = _four_closed(profile)
                closed4 = c4.value if not c4.is_unknown else ""
            if p == INFINITY and not profile.forced_zero:
                schubert = intersection_number(d, orders)
            checks = [v for v in (closed4, schubert) if v != ""]
            if result.is_unknown or profile.forced_zero:
                match = ""
            elif checks:
                match = "true" if all(v == count for v in checks) else "false"
            else:
                match = ""
            if profile.wild:
                reason = "wild excluded"
            rows.append({
                "schema": SCHEMA_VERSION,
                "orders": orders_text,
                "n": len(orders),
                "d": d,
                "p": _p_str(p),
                "class": profile.char_class.value,
                "count": count,
                "closed4": closed4,
                "schubert": schubert,
                "match": match,
                "reason": reason,
            })
    rows.sort(key=lambda r: (r["n"], r["orders"], r["p"] == "inf",
                             0 if r["p"] == "inf" else int(r["p"])))
    if config.format == "json":
        return json.dumps({"schema": SCHEMA_VERSION, "rows": rows},
                          sort_keys=True, separators=(",", ":")) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(TABLE_COLUMNS)
    writer.writerows([row[col] for col in TABLE_COLUMNS] for row in rows)
    return buffer.getvalue()


_HANDLERS = {
    "count": cmd_count,
    "schubert": cmd_schubert,
    "solve3": cmd_solve3,
    "search": cmd_search,
    "family": cmd_family,
    "transform": cmd_transform,
    "table": cmd_table,
}


def run(config):
    """Dispatch a RunConfig; returns (exit_code, serialized report)."""
    try:
        return 0, _HANDLERS[config.command](config)
    except BudgetExceeded as exc:
        return 2, f"error: {exc}\n"
    except (ValueError, OSError, KeyError) as exc:
        return 1, f"error: {exc}\n"


# ---------------------------------------------------------------------------
# argv parsing
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="ramcount",
        description="Exact counts of separable self-maps of P^1 with "
                    "prescribed ramification in characteristic p.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(sp, default="json"):
        sp.add_argument("--format", default=default,
                        choices=("json", "text", "csv"))

    sp = sub.add_parser("count", help="evaluate the counting recursion")
    sp.add_argument("--p", required=True, help="prime >= 3, or 'inf'")
    sp.add_argument("--orders", required=True, help="comma list of e_i")
    add_format(sp)

    sp = sub.add_parser("schubert", help="Pieri intersection number on G(1,d)")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--orders", required=True)
    sp.add_argument("--expansion", action="store_true",
                    help="include the full class expansion")
    add_format(sp)

    sp = sub.add_parser("solve3", help="three-point linear solver at (0, inf, 1)")
    sp.add_argument("--p", required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--orders", required=True, help="e1,e2,e3")
    add_format(sp)

    sp = sub.add_parser("search", help="brute-force census of a Schubert problem")
    sp.add_argument("--p", required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--orders", required=True)
    sp.add_argument("--points", default=None,
                    help="comma list of points ('inf' allowed); sampled if omitted")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--budget", type=int, default=None)
    add_format(sp)

    sp = sub.add_parser("family", help="build the tame pathology family f - t x^p")
    sp.add_argument("--p", required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--f", required=True, dest="numerator",
                    help="numerator, exchange format")
    sp.add_argument("--g", default="1", dest="denominator",
                    help="denominator, exchange format")
    sp.add_argument("--out", default=None, help="write the family JSON here")
    add_format(sp)

    sp = sub.add_parser("transform", help="inseparable-limit transformation")
    sp.add_argument("--family", required=True, help="path to a family JSON file")
    sp.add_argument("--analyze", action="store_true",
                    help="iterate to a separable limit and report the limit data")
    add_format(sp)

    sp = sub.add_parser("table", help="bulk table of counts with cross-checks")
    sp.add_argument("--p", required=True, help="comma list of primes and/or 'inf'")
    sp.add_argument("--d", type=int, required=True, help="maximum degree")
    sp.add_argument("--n-max", type=int, default=4)
    add_format(sp, default="csv")

    return parser


def config_from_argv(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    kwargs = {"command": args.command, "format": args.format}
    if hasattr(args, "p"):
        if args.command == "table":
            kwargs["p"] = [_parse_p(tok) for tok in args.p.split(",")]
        else:
            kwargs["p"] = _parse_p(args.p)
    for name in ("k", "d", "points", "seed", "budget", "family",
                 "expansion", "analyze", "numerator", "denominator", "out",
                 "n_max"):
        if hasattr(args, name):
            kwargs[name] = getattr(args, name)
    if hasattr(args, "orders"):
        kwargs["orders"] = _parse_orders(args.orders)
    return RunConfig(**kwargs)


def run_argv(argv=None):
    """Parse argv and dispatch; returns (exit_code, output_text)."""
    try:
        config = config_from_argv(argv)
    except SystemExit as exc:
        return (1 if exc.code else 0), ""
    except ValueError as exc:
        return 1, f"error: {exc}\n"
    return run(config)


def main(argv=None):
    code, output = run_argv(argv)
    stream = sys.stdout if code == 0 else sys.stderr
    stream.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
