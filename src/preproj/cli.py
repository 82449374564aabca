"""Command-line front end.

Problems are described by a single JSON document (file or stdin)::

    {"quiver": {"family": "A_tilde", "n": 3},
     "generators": [{"c": ["1","-1","-1"], "t": ["zeta(3)","-zeta(3)","-zeta(3)"]}],
     "options": {"truncation": 40}}

Scalars are strings in the exact cyclotomic grammar (rationals, i, zeta(n));
floats are never accepted.  Exit codes: 0 all checks passed, 1 inconclusive
or failed verification, 2 hard error (bad input, cap exceeded, internal
inconsistency).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import fixedring
from .molien import hilbert_A, hilbert_eA, matrix_hilbert_A, molien_report
from .parsing import ParseError, format_ratfun, format_ratfun_factored
from .quiver import (
    AutomorphismError,
    GroupBoundError,
    generate_group,
    make_aut,
    make_cycle_quiver,
)
from .ratfun import RatFun
from .trace import trace_report

SCHEMA_VERSION = 1


class JobError(ValueError):
    """Malformed job document."""


def _load_job(path: str | None) -> dict:
    try:
        if path is None or path == "-":
            return json.load(sys.stdin)
        with open(path) as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise JobError("invalid JSON at line %d column %d: %s"
                       % (exc.lineno, exc.colno, exc.msg)) from exc


def _parse_job(data: dict, args):
    if not isinstance(data, dict) or "quiver" not in data:
        raise JobError("job must be an object with a 'quiver' field")
    quiver_spec = data["quiver"]
    if quiver_spec.get("family", "A_tilde") != "A_tilde":
        raise JobError("unsupported quiver family %r" % quiver_spec.get("family"))
    try:
        quiver = make_cycle_quiver(int(quiver_spec["n"]))
    except (KeyError, ValueError) as exc:
        raise JobError("bad quiver description: %s" % exc) from exc
    gens = []
    for idx, gen in enumerate(data.get("generators", [])):
        try:
            gens.append(make_aut(quiver, gen["c"], gen["t"]))
        except (KeyError, ParseError, AutomorphismError) as exc:
            raise JobError("generator %d: %s" % (idx + 1, exc)) from exc
    options = dict(data.get("options", {}))
    if args.degree is not None:
        options["truncation"] = args.degree
    if args.group_cap is not None:
        options["group_cap"] = args.group_cap
    if args.gen_bound is not None:
        options["gen_bound"] = args.gen_bound
    if args.factored:
        options["factored"] = True
    return quiver, gens, options


def _fmt(f: RatFun, options) -> str:
    if options.get("factored", True):
        return format_ratfun_factored(f)
    return format_ratfun(f)


def _fmt_matrix(m, options):
    return [[_fmt(m[i, j], options) for j in range(m.cols)] for i in range(m.rows)]


class _Output:
    def __init__(self, as_json: bool):
        self.as_json = as_json
        self.doc = {"version": SCHEMA_VERSION}

    def emit(self, key: str, value, text: str | None = None):
        self.doc[key] = value
        if not self.as_json:
            print(text if text is not None else "%s: %s" % (key, value))

    def finish(self):
        if self.as_json:
            json.dump(self.doc, sys.stdout, indent=2)
            print()


def _need_group(gens, options):
    if not gens:
        raise JobError("this command needs at least one group generator")
    cap = int(options.get("group_cap", 10000))
    return generate_group(gens, cap)


def cmd_trace(quiver, gens, options, out: _Output) -> int:
    if len(gens) != 1:
        raise JobError("trace expects exactly one automorphism, got %d" % len(gens))
    D = int(options.get("truncation", 2 * quiver.n))
    report = trace_report(gens[0], max(D, 2 * quiver.n))
    out.emit("total", _fmt(report.total, options),
             "Tr(g,t) = %s" % _fmt(report.total, options))
    out.emit("vector", [_fmt(v, options) for v in report.vector],
             "vector:\n  " + "\n  ".join(_fmt(v, options) for v in report.vector))
    out.emit("raw_p", str(report.raw_p), "raw p(t) = %s" % report.raw_p)
    out.emit("raw_q", str(report.raw_q), "raw q(t) = %s" % report.raw_q)
    out.emit("pole_order_one", report.pole_order_one,
             "pole order at t=1: %d" % report.pole_order_one)
    out.emit("q_roots_unity", report.q_roots_unity,
             "all q roots are roots of unity: %s" % report.q_roots_unity)
    return 0


def cmd_hilbert(quiver, gens, options, out: _Output) -> int:
    n = quiver.n
    out.emit("hilbert_A", _fmt(hilbert_A(n), options),
             "H_A(t) = %s" % _fmt(hilbert_A(n), options))
    out.emit("hilbert_eA", _fmt(hilbert_eA(n), options),
             "H_eA(t) = %s" % _fmt(hilbert_eA(n), options))
    matrix = _fmt_matrix(matrix_hilbert_A(n), options)
    out.emit("matrix", matrix, "matrix:\n  " + "\n  ".join(map(str, matrix)))
    return 0


def cmd_molien(quiver, gens, options, out: _Output) -> int:
    G = _need_group(gens, options)
    D = options.get("truncation")
    report = molien_report(G, int(D) if D is not None else None)
    out.emit("group_order", len(G), "group order: %d" % len(G))
    out.emit("scalar", _fmt(report.scalar, options),
             "H_fixed(t) = %s" % _fmt(report.scalar, options))
    out.emit("vector", [_fmt(v, options) for v in report.vector],
             "vector:\n  " + "\n  ".join(_fmt(v, options) for v in report.vector))
    out.emit("matrix_status", report.matrix.status,
             "matrix series: %s (checked against path sums)" % report.matrix.status)
    matrix = _fmt_matrix(report.matrix.matrix, options)
    out.emit("matrix", matrix, "matrix:\n  " + "\n  ".join(map(str, matrix)))
    return 0


def cmd_fixed_ring(quiver, gens, options, out: _Output) -> int:
    G = _need_group(gens, options)
    bound = options.get("gen_bound")
    gens_list = fixedring.minimal_generators(G, int(bound) if bound is not None else None)
    out.emit(
        "generators",
        [
            {"label": g.label, "start": g.path.start, "nonstar": g.path.m,
             "star": g.path.k, "degree": g.degree, "purity": g.purity}
            for g in gens_list
        ],
        "generators:\n  " + "\n  ".join(
            "%s = %s (degree %d, %s)" % (g.label, g.path, g.degree, g.purity)
            for g in gens_list
        ),
    )
    warnings = fixedring.coverage_warnings(G.n, gens_list)
    out.emit("warnings", warnings,
             "warnings: %s" % ("; ".join(warnings) if warnings else "none"))
    verify_D = int(options.get("truncation", 4 * G.n))
    complete, fail_deg = fixedring.verify_generators(G, gens_list, verify_D)
    out.emit("generators_complete", complete,
             "generators complete through degree %d: %s" % (verify_D, complete))
    if not complete:
        out.emit("first_failing_degree", fail_deg,
                 "first failing degree: %d" % fail_deg)
        return 1
    pres = fixedring.discover_relations(G, gens_list)
    out.emit(
        "presentation", fixedring.presentation_to_json(pres),
        "relations:\n  " + "\n  ".join(
            "%s = %s" % ("*".join(lhs), "*".join(rhs)) for lhs, rhs in pres.relations
        ),
    )
    verification = fixedring.verify_presentation(pres, G)
    out.emit("ambiguities_resolvable", verification.ambiguities.all_resolvable,
             "all ambiguities resolvable: %s" % verification.ambiguities.all_resolvable)
    out.emit("presentation_verified", verification.ok,
             "presentation matches the averaged trace series: %s" % verification.ok)
    return 0 if verification.ok else 1


def cmd_diagnose(quiver, gens, options, out: _Output) -> int:
    G = _need_group(gens, options)
    D = options.get("truncation")
    report = fixedring.diagnose_projectivity(G, int(D) if D is not None else None)
    out.emit("verdict", report.verdict, "verdict: %s" % report.verdict)
    cofactor = report.freeness_cofactor
    out.emit("freeness_cofactor",
             cofactor if isinstance(cofactor, str) else str(cofactor),
             "freeness cofactor: %s" % cofactor)
    if report.P is not None:
        matrix = _fmt_matrix(report.P, options)
        out.emit("P", matrix, "P:\n  " + "\n  ".join(map(str, matrix)))
    if not out.as_json:
        for note in report.notes:
            print("note: %s" % note)
    out.doc["notes"] = report.notes
    return 1 if report.verdict == "Inconclusive" else 0


def cmd_verify_presentation(quiver, gens, options, out: _Output, path: str) -> int:
    try:
        with open(path) as handle:
            pres = fixedring.presentation_from_json(json.load(handle))
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        raise JobError("bad presentation file %s: %s" % (path, exc)) from exc
    G = _need_group(gens, options)
    D = options.get("truncation")
    verification = fixedring.verify_presentation(pres, G, int(D) if D is not None else None)
    out.emit("ambiguities_resolvable", verification.ambiguities.all_resolvable,
             "all ambiguities resolvable: %s" % verification.ambiguities.all_resolvable)
    out.emit("total_ok", verification.total_ok, "total series match: %s" % verification.total_ok)
    out.emit("vector_ok", verification.vector_ok, "vector series match: %s" % verification.vector_ok)
    out.emit("matrix_ok", verification.matrix_ok, "matrix series match: %s" % verification.matrix_ok)
    out.emit("verified", verification.ok, "presentation verified: %s" % verification.ok)
    return 0 if verification.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="preproj",
        description="Exact trace, Molien and fixed-ring computations for "
                    "preprojective algebras of cycle quivers.",
    )
    parser.add_argument("command", choices=[
        "trace", "molien", "hilbert", "fixed-ring", "diagnose", "verify-presentation",
    ])
    parser.add_argument("job", nargs="?", default=None,
                        help="job JSON file (default: stdin)")
    parser.add_argument("--degree", type=int, default=None,
                        help="series truncation / verification degree")
    parser.add_argument("--group-cap", type=int, default=None,
                        help="maximum group size during generation")
    parser.add_argument("--gen-bound", type=int, default=None,
                        help="degree bound for generator search")
    parser.add_argument("--presentation", default=None,
                        help="presentation JSON file (verify-presentation)")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--factored", action="store_true",
                        help="factored denominators in JSON output too")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = _Output(args.json)
    try:
        data = _load_job(args.job)
        quiver, gens, options = _parse_job(data, args)
        if not args.json:
            options.setdefault("factored", True)
        else:
            options.setdefault("factored", False)
        if args.command == "trace":
            code = cmd_trace(quiver, gens, options, out)
        elif args.command == "hilbert":
            code = cmd_hilbert(quiver, gens, options, out)
        elif args.command == "molien":
            code = cmd_molien(quiver, gens, options, out)
        elif args.command == "fixed-ring":
            code = cmd_fixed_ring(quiver, gens, options, out)
        elif args.command == "diagnose":
            code = cmd_diagnose(quiver, gens, options, out)
        else:
            if args.presentation is None:
                raise JobError("verify-presentation needs --presentation FILE")
            code = cmd_verify_presentation(quiver, gens, options, out, args.presentation)
    except (JobError, ParseError, AutomorphismError, GroupBoundError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    out.finish()
    return code


if __name__ == "__main__":
    sys.exit(main())
