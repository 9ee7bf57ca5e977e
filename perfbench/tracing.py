"""Spans and counters recorded from outside the program.

Each layer's public functions are wrapped where their caller looks the name
up (``ramcount.cli.count_maps_bruteforce``, ``ramcount.ratmap.ram_index``,
...).  A span is [name, start, end, parent index, op id]; spans are kept in
memory, written once at the end of the run, and self times are computed
from them afterwards.  Counters are recorded at the same boundaries.
"""

from __future__ import annotations

import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.stack = []
        self.op_id = None
        self.enabled = False

    def span(self, name, fn, hook=None):
        """Wrap fn in a span; hook(counts, args, kwargs, result, exc) runs
        at the end, with exc the exception raised or None."""
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            spans = self.spans
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0,
                          self.stack[-1] if self.stack else -1, self.op_id])
            self.stack.append(idx)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                spans[idx][2] = time.perf_counter()
                self.stack.pop()
                if hook is not None:
                    hook(self.counts, args, kwargs, result, exc)
        return wrapper

    def counter(self, fn, hook):
        """Wrap fn with a counter hook only (no span)."""
        def wrapper(*args, **kwargs):
            if self.enabled:
                hook(self.counts, args, kwargs)
            return fn(*args, **kwargs)
        return wrapper


# -- counter hooks --------------------------------------------------------------

def _census_counts(counts, args, kwargs, report, exc):
    from ramcount.pencil import gaussian_binomial_pencils
    if exc is None:
        d, _, field = args[:3]
        counts["pencil.pencils_screened"] += gaussian_binomial_pencils(d, field.q)
        counts["pencil.survivors"] += report.total
        counts["pencil.separable"] += report.separable


def _roots_counts(counts, args, kwargs, result, exc):
    counts["algebra.roots.candidates"] += args[0].field.q


def _splitting_counts(counts, args, kwargs, result, exc):
    from ramcount.algebra import BudgetExceeded
    if isinstance(exc, BudgetExceeded):
        counts["algebra.root_budget_refusals"] += 1


def _n_gen_counts(counts, args, kwargs, result, exc):
    counts["counting.orders_total"] += len(args[0].orders)


def _pieri_counts(counts, args, kwargs):
    counts["schubert.pieri_steps"] += 1
    counts["schubert.pieri_terms"] += len(args[0])


def _transform_counts(counts, args, kwargs):
    counts["degeneration.transform_steps"] += 1


def install(tracer):
    """Wrap every traced name in place.  Wrappers pass straight through
    while ``tracer.enabled`` is false."""
    import ramcount.algebra as algebra
    import ramcount.cli as cli
    import ramcount.degeneration as degeneration
    import ramcount.pencil as pencil
    import ramcount.ratmap as ratmap
    import ramcount.schubert as schubert

    spans = [
        (cli, "count_maps_bruteforce", "pencil.census", _census_counts),
        (cli, "solve_three_point", "pencil.solve3", None),
        (cli, "n_gen_recursive", "counting.n_gen", _n_gen_counts),
        (cli, "intersection_number", "schubert.intersection", None),
        (cli, "analyze_limit", "degeneration.analyze", None),
        (degeneration, "tame_at_infinity_reduce", "degeneration.tame_reduce", None),
        (ratmap, "splitting_field_roots", "algebra.splitting_roots", _splitting_counts),
        (algebra, "roots_with_multiplicity", "algebra.roots", _roots_counts),
        (algebra, "poly_gcd", "algebra.gcd", None),
        (ratmap, "poly_gcd", "algebra.gcd", None),
        (degeneration, "poly_gcd", "algebra.gcd", None),
        (algebra, "rref", "algebra.rref", None),
        (pencil, "rref", "algebra.rref", None),
        (ratmap, "ram_index", "ratmap.ram_index", None),
        (pencil, "ram_index", "ratmap.ram_index", None),
        (degeneration, "ram_index", "ratmap.ram_index", None),
        (pencil, "is_separable", "ratmap.is_separable", None),
        (degeneration, "is_separable", "ratmap.is_separable", None),
    ]
    for module, attr, name, hook in spans:
        setattr(module, attr, tracer.span(name, getattr(module, attr), hook))
    ratmap.RatMap.new = staticmethod(
        tracer.span("ratmap.new", ratmap.RatMap.new))
    schubert.pieri_multiply = tracer.counter(schubert.pieri_multiply, _pieri_counts)
    degeneration.insep_limit_transform = tracer.counter(
        degeneration.insep_limit_transform, _transform_counts)


def self_times(spans):
    """{name: (calls, total self seconds)}: a span's duration minus the
    durations of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - child[i])
    return out
