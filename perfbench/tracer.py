"""Per-layer tracing from outside the program.

The tracer replaces public functions of ``preproj`` with wrappers for the
duration of a traced pass and puts the originals back afterwards; nothing
under ``src/`` changes.  A ``from .trace import eigenvalue_table`` in another
module copies the binding, so each function is rebound in every ``preproj``
module that holds it, and each method under every name its class gives it
(``__rmul__`` is ``__mul__``).

Span wrappers time a call and charge it to the function's self time: its
span minus the spans of the wrapped functions it called.  Count wrappers
only count; the time of those calls lands in the caller's self time.  The
bookkeeping a wrapper does around the call (observing arguments and
results) is left out of every self time.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# metric prefix -> (module, attribute); several may share a prefix
SPANS = [
    ("ratfun.poly_gcd", "preproj.ratfun", "poly_gcd"),
    ("ratfun.series_expand", "preproj.ratfun", "series_expand"),
    ("ratfun.mat_inverse", "preproj.ratfun", "mat_inverse"),
    ("trace.trace_oracle", "preproj.trace", "trace_oracle"),
    ("trace.eigenvalue_table", "preproj.trace", "eigenvalue_table"),
    ("trace.vector_trace_closed_34", "preproj.trace", "vector_trace_closed_34"),
    ("trace.vector_trace_closed_35", "preproj.trace", "vector_trace_closed_35"),
    ("trace.total_trace_closed", "preproj.trace", "total_trace_closed"),
    ("trace.trace_report", "preproj.trace", "trace_report"),
    ("molien.molien_scalar", "preproj.molien", "molien_scalar"),
    ("molien.molien_vector", "preproj.molien", "molien_vector"),
    ("molien.molien_matrix", "preproj.molien", "molien_matrix"),
    ("molien.molien_report", "preproj.molien", "molien_report"),
    ("fixedring.minimal_generators", "preproj.fixedring", "minimal_generators"),
    ("fixedring.verify_generators", "preproj.fixedring", "verify_generators"),
    ("fixedring.discover_relations", "preproj.fixedring", "discover_relations"),
    ("fixedring.check_ambiguities", "preproj.fixedring", "check_ambiguities"),
    ("fixedring.count_irreducible_words", "preproj.fixedring", "count_irreducible_words"),
    ("fixedring.diagnose_projectivity", "preproj.fixedring", "diagnose_projectivity"),
    ("quiver.generate_group", "preproj.quiver", "generate_group"),
    ("quiver.make_aut", "preproj.quiver", "make_aut"),
    ("parsing.format_ratfun", "preproj.parsing", "format_ratfun"),
    ("parsing.format_ratfun", "preproj.parsing", "format_ratfun_factored"),
    ("cli.main", "preproj.cli", "main"),
]

COUNTS = [
    ("ratfun.RatFun.init", "preproj.ratfun", "RatFun.__init__"),
    ("ratfun.Poly.divmod", "preproj.ratfun", "Poly.divmod"),
    ("cyclotomic.CycNum.mul", "preproj.cyclotomic", "CycNum.__mul__"),
    ("cyclotomic.CycNum.add", "preproj.cyclotomic", "CycNum.__add__"),
    ("cyclotomic.CycNum.inverse", "preproj.cyclotomic", "CycNum.inverse"),
    ("cyclotomic.CycNum.lift", "preproj.cyclotomic", "CycNum.lift"),
    ("parsing.parse_scalar", "preproj.parsing", "parse_scalar"),
]

# (metric, unit, better), in the order BENCHMARK.json lists them
PER_LAYER = [
    ("ratfun.poly_gcd.calls", "count", "lower"),
    ("ratfun.poly_gcd.self_s", "s", "lower"),
    ("ratfun.poly_gcd.max_degree", "count", "lower"),
    ("ratfun.poly_gcd.nontrivial_ratio", "ratio", "higher"),
    ("ratfun.RatFun.init.calls", "count", "lower"),
    ("ratfun.Poly.divmod.calls", "count", "lower"),
    ("ratfun.series_expand.self_s", "s", "lower"),
    ("ratfun.mat_inverse.self_s", "s", "lower"),
    ("ratfun.mat_inverse.max_dim", "count", "lower"),
    ("ratfun.max_coeff_bits", "bits", "lower"),
    ("cyclotomic.CycNum.mul.calls", "count", "lower"),
    ("cyclotomic.CycNum.add.calls", "count", "lower"),
    ("cyclotomic.CycNum.inverse.calls", "count", "lower"),
    ("cyclotomic.CycNum.lift.calls", "count", "lower"),
    ("cyclotomic.max_conductor", "count", "lower"),
    ("trace.trace_oracle.self_s", "s", "lower"),
    ("trace.eigenvalue_table.self_s", "s", "lower"),
    ("trace.vector_trace_closed_34.self_s", "s", "lower"),
    ("trace.vector_trace_closed_35.self_s", "s", "lower"),
    ("trace.total_trace_closed.self_s", "s", "lower"),
    ("trace.trace_report.self_s", "s", "lower"),
    ("molien.molien_scalar.self_s", "s", "lower"),
    ("molien.molien_vector.self_s", "s", "lower"),
    ("molien.molien_matrix.self_s", "s", "lower"),
    ("molien.molien_report.self_s", "s", "lower"),
    ("molien.matrix_ok_ratio", "ratio", "higher"),
    ("fixedring.minimal_generators.self_s", "s", "lower"),
    ("fixedring.verify_generators.self_s", "s", "lower"),
    ("fixedring.discover_relations.self_s", "s", "lower"),
    ("fixedring.check_ambiguities.self_s", "s", "lower"),
    ("fixedring.count_irreducible_words.self_s", "s", "lower"),
    ("fixedring.diagnose_projectivity.self_s", "s", "lower"),
    ("fixedring.relations.count", "count", "lower"),
    ("quiver.generate_group.self_s", "s", "lower"),
    ("quiver.make_aut.self_s", "s", "lower"),
    ("parsing.parse_scalar.calls", "count", "lower"),
    ("parsing.format_ratfun.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("tracing.overhead_ratio", "ratio", "lower"),
]


def _coeff_bits(poly) -> int:
    bits = 0
    for c in poly.coeffs:
        for q in c.coeffs:
            bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
    return bits


class Tracer:
    """Wraps preproj's public functions; collects self times and counts."""

    def __init__(self):
        self.active = False
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.maxima = defaultdict(int)
        self._stack = []  # child time of each open span
        self._patches = []  # (owner, name, original)

    # -- observers: run outside the timed call ----------------------------

    def _before(self, prefix, args):
        if prefix == "ratfun.poly_gcd":
            a, b = args[0], args[1]
            m = self.maxima
            m["ratfun.poly_gcd.max_degree"] = max(
                m["ratfun.poly_gcd.max_degree"], a.degree, b.degree)
            m["ratfun.max_coeff_bits"] = max(
                m["ratfun.max_coeff_bits"], _coeff_bits(a), _coeff_bits(b))
        elif prefix == "ratfun.mat_inverse":
            self.maxima["ratfun.mat_inverse.max_dim"] = max(
                self.maxima["ratfun.mat_inverse.max_dim"], args[0].rows)
        elif prefix == "cyclotomic.CycNum.lift":
            self.maxima["cyclotomic.max_conductor"] = max(
                self.maxima["cyclotomic.max_conductor"], args[1])

    def _after(self, prefix, result):
        if prefix == "ratfun.poly_gcd":
            if result.degree > 0:
                self.calls["ratfun.poly_gcd.nontrivial"] += 1
        elif prefix == "molien.molien_matrix":
            if result.status == "ok":
                self.calls["molien.molien_matrix.ok"] += 1
        elif prefix == "fixedring.discover_relations":
            self.calls["fixedring.relations"] += len(result.relations)

    # -- wrappers -----------------------------------------------------------

    def _span(self, prefix, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            enter = perf_counter()
            self._before(prefix, args)
            self.calls[prefix] += 1
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.self_s[prefix] += perf_counter() - start - stack.pop()
                if stack:
                    stack[-1] += perf_counter() - enter
                raise
            self.self_s[prefix] += perf_counter() - start - stack.pop()
            self._after(prefix, result)
            if stack:
                stack[-1] += perf_counter() - enter
            return result

        return wrapper

    def _count(self, prefix, fn):
        calls = self.calls
        observe = prefix == "cyclotomic.CycNum.lift"

        def wrapper(*args, **kwargs):
            if self.active:
                calls[prefix] += 1
                if observe:
                    self._before(prefix, args)
            return fn(*args, **kwargs)

        return wrapper

    # -- installing -----------------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "preproj" or name.startswith("preproj."))]
        for specs, make in ((SPANS, self._span), (COUNTS, self._count)):
            for prefix, module_name, attr in specs:
                module = sys.modules[module_name]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    owners = [getattr(module, cls_name)]
                    original = owners[0].__dict__[method]
                else:
                    owners = modules
                    original = getattr(module, attr)
                wrapper = make(prefix, original)
                for owner in owners:
                    for name, value in list(vars(owner).items()):
                        if value is original:
                            self._patches.append((owner, name, original))
                            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics per pass over the job list."""
        out = {}
        for name, unit, _ in PER_LAYER:
            prefix, stat = name.rsplit(".", 1)
            if stat == "self_s":
                value = self.self_s[prefix] / passes
            elif stat in ("calls", "count"):
                value = self.calls[prefix] / passes
            elif name == "ratfun.poly_gcd.nontrivial_ratio":
                value = _ratio(self.calls["ratfun.poly_gcd.nontrivial"],
                               self.calls["ratfun.poly_gcd"])
            elif name == "molien.matrix_ok_ratio":
                value = _ratio(self.calls["molien.molien_matrix.ok"],
                               self.calls["molien.molien_matrix"])
            elif name == "tracing.overhead_ratio":
                continue
            else:
                value = self.maxima[name]
            out[name] = {"value": value, "unit": unit}
        return out


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
