"""Command-line driver.

Exit codes: 0 success; 1 type error, any other zetacalc error (translation,
diagram, evaluation), DISTINCT or an unsound rule; 2 parse error, unreadable
or non-UTF-8 file, malformed or negative ZETA_WIRE_BUDGET, a --tol that is
not a finite number >= 0, a --copies that is not N or LO..HI with
0 <= LO <= HI, or mismatched equivalence query; 3 wire budget exceeded
(evaluation, in any command, rules too, would hold a tensor of more than
ZETA_WIRE_BUDGET legs, default 14), out of memory or a tensor too large to
address within a budget set too high, term too deep to process, or term
too large (a generator arity past what the machine can index).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .diagram import to_dot
from .evaluator import (
    DEFAULT_TOL,
    WIRE_BUDGET,
    WireBudgetError,
    denote,
    format_complex,
    matrix_to_json,
    render_matrix,
)
from .semantics import eval_as_map, translate
from .syntax import Basis, ParseError, ZetaError, parse, print_term, print_type
from .theory import commutes_with_sharing, compare, run_suite
from .types import (
    ZetaTypeError,
    derivation_summary,
    infer,
    parse_context,
)

EXIT_OK = 0
EXIT_TYPE = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3


class SettingError(ZetaError):
    """A setting, option value or input file the command cannot use."""


def wire_budget() -> int:
    raw = os.environ.get("ZETA_WIRE_BUDGET", str(WIRE_BUDGET))
    try:
        budget = int(raw)
    except ValueError:
        raise SettingError(f"ZETA_WIRE_BUDGET must be an integer, got {raw!r}") from None
    if budget < 0:
        raise SettingError(f"ZETA_WIRE_BUDGET must not be negative, got {raw!r}")
    return budget


def _read_term(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise SettingError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    return parse(text)


def _tolerance(text: str) -> float:
    """argparse type for --tol: a finite number >= 0."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return tol


def _fail(code: int, msg: str) -> int:
    print(msg, file=sys.stderr)
    return code


def _typed(args, path: str):
    """Parse + infer under --ctx; raises ParseError / ZetaTypeError."""
    term = _read_term(path)
    ctx = parse_context(args.ctx)
    ty, deriv = infer(ctx, term)
    return term, ctx, ty, deriv


def cmd_check(args) -> int:
    term, ctx, ty, deriv = _typed(args, args.file)
    summary = derivation_summary(deriv)
    if args.json:
        print(json.dumps({
            "term": print_term(term),
            "type": print_type(ty),
            "summary": summary,
        }))
        return EXIT_OK
    print(print_type(ty))
    for c in summary["c_nodes"]:
        print(f"C-node: {c['var']} shared {c['arity']} ways in basis {c['basis']}")
    if summary["w_count"]:
        print(f"W-nodes: {summary['w_count']}")
    return EXIT_OK


def cmd_diagram(args) -> int:
    _, _, _, deriv = _typed(args, args.file)
    jd = translate(deriv)
    if args.format == "dot":
        print(to_dot(jd.diagram))
    else:
        print(jd.to_json())
    return EXIT_OK


def cmd_eval(args) -> int:
    _, _, _, deriv = _typed(args, args.file)
    jd = translate(deriv)
    if args.as_map:
        jd = eval_as_map(jd)
    m = denote(jd.diagram, wire_budget())
    if args.json:
        print(matrix_to_json(m))
    else:
        print(f"{print_type(jd.type)}  [{m.shape[0]}x{m.shape[1]}]")
        print(render_matrix(m))
    return EXIT_OK


def cmd_equiv(args) -> int:
    term1 = _read_term(args.file1)
    term2 = _read_term(args.file2)
    ctx = parse_context(args.ctx)
    result = compare(ctx, term1, term2, args.tol, wire_budget())
    if result.status == "size-mismatch":
        return _fail(
            EXIT_PARSE,
            f"types {print_type(result.type1)} and {print_type(result.type2)}"
            " have different wire counts",
        )
    s = result.scalar
    if result.status == "distinct":
        verdict = {"verdict": "DISTINCT", "deviation": result.deviation}
        line = f"DISTINCT  max deviation = {result.deviation:.3e}"
    else:
        verdict = {"verdict": "EQUIVALENT",
                   "scalar": None if s is None else [s.real, s.imag]}
        shown = "0 (both sides zero)" if s is None else format_complex(s)
        line = f"EQUIVALENT  scalar = {shown}"
    verdict["method"] = result.method
    print(json.dumps(verdict) if args.json else line)
    return EXIT_TYPE if result.status == "distinct" else EXIT_OK


def cmd_rules(args) -> int:
    verdicts = run_suite(args.tol, wire_budget())
    any_unsound = any(v.status == "unsound" for v in verdicts)
    if args.json:
        print(json.dumps([v.to_json_obj() for v in verdicts]))
    else:
        for v in verdicts:
            scalar = "" if v.scalar is None else f"  scalar={format_complex(v.scalar)}"
            dev = "" if v.deviation is None else f"  dev={v.deviation:.2e}"
            print(f"{v.rule_id:14s} {v.status:20s}{scalar}{dev}  [{v.bindings}]")
        counts = {}
        for v in verdicts:
            counts[v.status] = counts.get(v.status, 0) + 1
        print("totals: " + ", ".join(f"{k}={n}" for k, n in sorted(counts.items())))
    return EXIT_TYPE if any_unsound else EXIT_OK


def _parse_copies(text: str) -> range:
    lo, sep, hi = text.partition("..")
    try:
        first = int(lo)
        last = int(hi) if sep else first
    except ValueError:
        raise SettingError(f"--copies must be N or LO..HI, got {text!r}") from None
    if not 0 <= first <= last:
        raise SettingError(f"--copies needs 0 <= LO <= HI, got {text!r}")
    return range(first, last + 1)


def cmd_share_check(args) -> int:
    copies = _parse_copies(args.copies)
    term = _read_term(args.file)
    ctx = parse_context(args.ctx)
    basis = Basis(args.basis)
    budget = wire_budget()
    results = {}
    for n in copies:
        results[n] = commutes_with_sharing(ctx, term, basis, n, args.tol, budget)
    if args.json:
        print(json.dumps({str(n): ok for n, ok in results.items()}))
    else:
        for n, ok in results.items():
            print(f"n={n}: commutes: {'yes' if ok else 'no'}")
    return EXIT_OK if all(results.values()) else EXIT_TYPE


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="zeta", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def json_output(sp):
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    def context(sp):
        sp.add_argument("--ctx", default="", help="context, e.g. 'x:Z:1, f:X:1->1*1'")

    def common(sp):
        context(sp)
        json_output(sp)

    def tolerance(sp):
        sp.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                        help="comparison tolerance, a finite number >= 0")

    sp = sub.add_parser("check", help="typecheck a term file")
    sp.add_argument("file")
    common(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("diagram", help="translate to a string diagram")
    sp.add_argument("file")
    sp.add_argument("--format", choices=["json", "dot"], default="json")
    context(sp)
    sp.set_defaults(fn=cmd_diagram)

    sp = sub.add_parser("eval", help="evaluate the denotation matrix")
    sp.add_argument("file")
    sp.add_argument("--as-map", dest="as_map", action="store_true",
                    help="uncurry a function type once before evaluating")
    common(sp)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("equiv", help="decide denotational equivalence of two files")
    sp.add_argument("file1")
    sp.add_argument("file2")
    common(sp)
    tolerance(sp)
    sp.set_defaults(fn=cmd_equiv)

    sp = sub.add_parser("rules", help="run the equational-theory soundness suite")
    json_output(sp)
    tolerance(sp)
    sp.set_defaults(fn=cmd_rules)

    sp = sub.add_parser("share-check", help="check commutation with sharing")
    sp.add_argument("file")
    sp.add_argument("--basis", choices=["Z", "X"], default="Z")
    sp.add_argument("--copies", default="2..3", help="copy counts, e.g. 2..3 or 2")
    common(sp)
    tolerance(sp)
    sp.set_defaults(fn=cmd_share_check)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        return _fail(EXIT_PARSE, f"parse error: {exc}")
    except WireBudgetError as exc:
        return _fail(EXIT_BUDGET, str(exc))
    except ZetaTypeError as exc:
        return _fail(EXIT_TYPE, f"type error: {exc}")
    except SettingError as exc:
        return _fail(EXIT_PARSE, str(exc))
    except ZetaError as exc:
        return _fail(EXIT_TYPE, f"{type(exc).__name__}: {exc}")
    except RecursionError:
        return _fail(EXIT_BUDGET, "term too deep: nesting exceeds the recursion limit")
    except MemoryError:
        return _fail(EXIT_BUDGET, "out of memory: lower ZETA_WIRE_BUDGET")
    except OverflowError:
        return _fail(EXIT_BUDGET, "term too large: an arity past what the machine can index")
    except OSError as exc:
        return _fail(EXIT_PARSE, str(exc))


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
