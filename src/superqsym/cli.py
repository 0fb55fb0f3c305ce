"""Command-line surface: batch subcommands over the library, one result per
invocation.  Exit codes: 0 ok, 1 domain error, 2 parse error, 3 verify failure.

main() empties the package memos (superqsym.clear_caches) when a command
returns, whatever its exit: they are bounded by entry count, not by size,
and one command shares little with the next.  A command run in-process then
leaves memory as a process of its own would.  Library calls keep their
process-wide memos."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import algebra, clear_caches, hopf, realize, shuffles, superschur
from .algebra import Expr, render_expr
from .composition import (
    CompositionParseError,
    _composition_at,
    def_sets,
    parse_composition,
    strong_leq,
    weak_leq,
)
from .superschur import Superpartition, SuperpartitionParseError


class DomainError(ValueError):
    pass


def _parse_expr_atom(text: str) -> Expr:
    """Parse 'M[...]', 'L[...]' or 'Lbar[...]'."""
    for basis in ("Lbar", "L", "M"):
        if text.startswith(basis):
            return Expr.basis_element(basis, _composition_at(text, len(basis)))
    raise CompositionParseError("expected basis prefix M, L or Lbar", 0)


def _integer(text: str) -> int:
    """An integer option: ASCII digits after an optional '-'."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"expected an integer in ASCII digits, got {text!r}")
    return int(text)


def _cmd_product(args) -> int:
    a = parse_composition(args.A)
    b = parse_composition(args.B)
    if args.trace:
        if args.basis == "M":
            trace = [
                {"gamma": str(g), "sign": s}
                for g, s in shuffles.overlapping_shuffles(a, b)
            ]
        else:
            trace = [
                {
                    "steps": r.path.to_json(),
                    "word": str(r.word),
                    "gamma": str(r.gamma),
                    "sign": r.sign,
                }
                for r in shuffles.fundamental_paths(a, b)
            ]
        print(json.dumps(trace))
    ea = Expr.basis_element(args.basis, a)
    eb = Expr.basis_element(args.basis, b)
    print(render_expr(hopf.product(ea, eb), args.format))
    return 0


def _cmd_coproduct(args) -> int:
    e = Expr.basis_element(args.basis, parse_composition(args.A))
    print(render_expr(hopf.coproduct(e), args.format))
    return 0


def _cmd_antipode(args) -> int:
    alpha = parse_composition(args.A)
    e = Expr.basis_element(args.basis, alpha)
    print(render_expr(hopf.antipode(e, via=args.via), args.format))
    return 0


def _cmd_convert(args) -> int:
    alpha = parse_composition(args.A)
    e = Expr.basis_element(getattr(args, "from"), alpha)
    key = (e.basis, args.to)
    if key == ("L", "M"):
        out = algebra.L_to_M(e)
    elif key == ("M", "L"):
        out = algebra.M_to_L(e)
    elif key == ("Lbar", "M"):
        out = algebra.cofundamental_to_M(e)
    else:
        raise DomainError(f"unsupported conversion {key[0]} -> {key[1]}")
    print(render_expr(out, args.format))
    return 0


def _cmd_orders(args) -> int:
    a = parse_composition(args.A)
    b = parse_composition(args.B)
    data = {
        "A": str(a),
        "B": str(b),
        "strong": {"A<=B": strong_leq(a, b), "B<=A": strong_leq(b, a)},
        "weak": {"A<=B": weak_leq(a, b), "B<=A": weak_leq(b, a)},
    }
    for name, alpha in (("A", a), ("B", b)):
        s = def_sets(alpha)
        data[f"def_sets_{name}"] = {
            "D": sorted(s.D),
            "E": sorted(s.E),
            "F": sorted(s.F),
            "Fminus": sorted(s.Fminus),
        }
    if args.format == "json":
        print(json.dumps(data))
    else:
        print(f"A = {a}   B = {b}")
        print(f"A <= B (strong): {data['strong']['A<=B']}")
        print(f"B <= A (strong): {data['strong']['B<=A']}")
        print(f"A <= B (weak):   {data['weak']['A<=B']}")
        print(f"B <= A (weak):   {data['weak']['B<=A']}")
        for name in ("A", "B"):
            s = data[f"def_sets_{name}"]
            print(f"{name}: D={s['D']} E={s['E']} F={s['F']} F-={s['Fminus']}")
    return 0


def _cmd_schur(args) -> int:
    outer = Superpartition.parse(args.LAMBDA)
    inner = Superpartition.parse(args.skew) if args.skew else superschur.EMPTY_SHAPE
    if args.show_tableaux:
        for tab in superschur.dot_standard_tableaux(outer, inner):
            sign = "+" if tab.sign() == 1 else "-"
            print(f"{sign} L{superschur.comp_of_tableau(tab)}")
            print(tab.ascii())
            print()
    print(render_expr(superschur.schur_to_L(outer, inner), args.format))
    return 0


def _cmd_realize(args) -> int:
    e = _parse_expr_atom(args.EXPR)
    p = realize.realize_expr(e, args.vars)
    # a polynomial has no LaTeX form: --format latex prints plain text
    print(render_expr(p, "json" if args.format == "json" else "plain"))
    return 0


def _cmd_verify(args) -> int:
    report = hopf.verify_hopf(args.max_degree, args.max_fermionic)
    if args.format == "json":
        print(json.dumps(report.to_json()))
    else:
        # a report has no LaTeX form: --format latex prints plain text
        for check in report.checks:
            print(f"{check.name} [{check.universe}]: {check.status}"
                  + (f" ({check.counterexample})" if check.counterexample else ""))
    return 0 if report.passed else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superqsym",
        description="Exact Hopf-algebra computations for quasisymmetric "
        "functions in superspace (compositions use [2,d3,1]; dotted parts "
        "carry a d prefix).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=algebra.FORMATS, default="plain")

    p = sub.add_parser("product", help="product of two basis elements")
    p.add_argument("A")
    p.add_argument("B")
    p.add_argument("--basis", choices=("M", "L"), required=True)
    p.add_argument(
        "--trace", action="store_true",
        help="also print the contributing shuffles/paths as JSON",
    )
    add_format(p)
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("coproduct", help="coproduct of a basis element")
    p.add_argument("A")
    p.add_argument("--basis", choices=("M", "L"), required=True)
    add_format(p)
    p.set_defaults(func=_cmd_coproduct)

    p = sub.add_parser("antipode", help="antipode of a basis element")
    p.add_argument("A")
    p.add_argument("--basis", choices=("M", "L"), required=True)
    p.add_argument("--via", choices=("columns", "monomial"), default="columns")
    add_format(p)
    p.set_defaults(func=_cmd_antipode)

    p = sub.add_parser("convert", help="change of basis")
    p.add_argument("A")
    p.add_argument("--from", choices=("M", "L", "Lbar"), required=True)
    p.add_argument("--to", choices=("M", "L"), required=True)
    add_format(p)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("orders", help="compare two compositions in both orders")
    p.add_argument("A")
    p.add_argument("B")
    add_format(p)
    p.set_defaults(func=_cmd_orders)

    p = sub.add_parser("schur", help="fundamental expansion of a Schur function")
    p.add_argument("LAMBDA", help="superpartition, e.g. (3,0;5,3,2)")
    p.add_argument("--skew", default=None, help="inner shape")
    p.add_argument("--show-tableaux", action="store_true")
    add_format(p)
    p.set_defaults(func=_cmd_schur)

    p = sub.add_parser("realize", help="polynomial realization of a basis element")
    p.add_argument("EXPR", help="e.g. L[2,d3,1]")
    p.add_argument("--vars", type=_integer, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("verify", help="run the Hopf axiom suite")
    p.add_argument("--max-degree", type=_integer, required=True)
    p.add_argument("--max-fermionic", type=_integer, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    return parser


_PARSER: argparse.ArgumentParser | None = None


def _parser() -> argparse.ArgumentParser:
    """The parser main() uses, built once per process: building it costs
    more than parsing a typical query."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (CompositionParseError, SuperpartitionParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # every domain error of the package subclasses ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        clear_caches()


def entry() -> None:
    """The console script: main() on the command line.  A reader that closes
    stdout early, as `| head` does, ends the command quietly with exit 1."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; let that flush succeed
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
