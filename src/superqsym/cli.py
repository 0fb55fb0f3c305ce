"""Command-line surface: batch subcommands over the library, one result per
invocation.  Exit codes: 0 ok, 1 domain error or an input too deep or too
large to compute, 2 parse error, 3 verify failure.

main() empties the package memos (superqsym.clear_caches, over the list each
memo joins where it is made) when a command returns, whatever its exit: they
are bounded by entry count, not by size, and one command shares little with
the next.  A command run in-process then leaves memory as a process of its
own would.  Library calls keep their process-wide memos."""

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


# the algebra function of each (from, to), read by name at each call so that
# a function rebound in algebra, as the bench tracer rebinds it, is the one run
_CONVERSIONS = {("L", "M"): "L_to_M", ("M", "L"): "M_to_L", ("Lbar", "M"): "cofundamental_to_M"}


def _cmd_convert(args) -> int:
    e = Expr.basis_element(getattr(args, "from"), parse_composition(args.A))
    name = _CONVERSIONS.get((e.basis, args.to))
    if name is None:
        raise DomainError(f"unsupported conversion {e.basis} -> {args.to}")
    print(render_expr(getattr(algebra, name)(e), args.format))
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


# each subcommand: its help, its handler and its arguments, each a name and
# the keywords of its add_argument call; build_parser() and _reader() both
# read this table, and an argument several subcommands share is one entry
_BASIS = ("--basis", {"choices": ("M", "L"), "required": True})
_FORMAT = ("--format", {"choices": algebra.FORMATS, "default": "plain"})
_COMMANDS = {
    "product": ("product of two basis elements", _cmd_product, (
        ("A", {}), ("B", {}), _BASIS,
        ("--trace", {"action": "store_true",
                     "help": "also print the contributing shuffles/paths as JSON"}),
        _FORMAT,
    )),
    "coproduct": ("coproduct of a basis element", _cmd_coproduct, (("A", {}), _BASIS, _FORMAT)),
    "antipode": ("antipode of a basis element", _cmd_antipode, (
        ("A", {}), _BASIS,
        ("--via", {"choices": ("columns", "monomial"), "default": "columns"}),
        _FORMAT,
    )),
    "convert": ("change of basis", _cmd_convert, (
        ("A", {}),
        ("--from", {"choices": ("M", "L", "Lbar"), "required": True}),
        ("--to", {"choices": ("M", "L"), "required": True}),
        _FORMAT,
    )),
    "orders": ("compare two compositions in both orders", _cmd_orders, (
        ("A", {}), ("B", {}), _FORMAT,
    )),
    "schur": ("fundamental expansion of a Schur function", _cmd_schur, (
        ("LAMBDA", {"help": "superpartition, e.g. (3,0;5,3,2)"}),
        ("--skew", {"help": "inner shape; the skew expansion sums the skew tableaux, each "
                    "with its own sign, and is not the coefficient of the inner "
                    "shape's Schur function in the coproduct"}),
        ("--show-tableaux", {"action": "store_true"}),
        _FORMAT,
    )),
    "realize": ("polynomial realization of a basis element", _cmd_realize, (
        ("EXPR", {"help": "e.g. L[2,d3,1]"}),
        ("--vars", {"type": _integer, "required": True}),
        _FORMAT,
    )),
    "verify": ("run the Hopf axiom suite", _cmd_verify, (
        ("--max-degree", {"type": _integer, "required": True}),
        ("--max-fermionic", {"type": _integer, "required": True}),
        _FORMAT,
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superqsym",
        description="Exact Hopf-algebra computations for quasisymmetric "
        "functions in superspace (compositions use [2,d3,1]; dotted parts "
        "carry a d prefix).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand's own parser, by name
    parser.commands = sub.choices
    for name, (text, func, arguments) in _COMMANDS.items():
        command = sub.add_parser(name, help=text)
        for argument, keywords in arguments:
            command.add_argument(argument, **keywords)
        command.set_defaults(func=func)
    return parser


def _reader(func, arguments):
    """A reader of the plain argv of the subcommand with handler `func` and
    `_COMMANDS` arguments `arguments`, read off the keywords build_parser()
    hands argparse (`action`, `type`, `choices`, `required`, `default`).
    Each value lands where argparse puts it for these names: under the name
    without its leading dashes, '-' read as '_'.

    The reader takes exact option names, each followed by its value as the
    next argument, flags with no value, one argument per positional, values
    that pass the argument's `type` and `choices`, and every required option.
    For such argv it returns the namespace argparse would, less `command`.
    For any other argv it returns None, and the full parser reads it and
    prints and exits as its own: help, an abbreviation, `--opt=value`, `--`,
    an unknown option, a value or positional that starts with '-' and is no
    negative integer, a value for a flag, a bad value, a missing argument.
    Defaults are used as given, not passed through `type`: no typed option
    of the table has a string default."""
    flags: dict[str, str] = {}
    takes: dict[str, tuple] = {}
    positionals = []
    required = []
    defaults = {"func": func}
    for name, keywords in arguments:
        dest = name.lstrip("-").replace("-", "_")
        if keywords.get("action") == "store_true":
            flags[name] = dest
            defaults[dest] = False
            continue
        entry = (dest, keywords.get("type"), keywords.get("choices"))
        if name[0] == "-":
            takes[name] = entry
        else:
            positionals.append(entry)
        if keywords.get("required"):
            required.append(dest)
        else:
            defaults[dest] = keywords.get("default")

    def plain(arg: str) -> bool:
        """Whether argparse reads arg as a value, not as an option."""
        return arg[:1] != "-" or (arg[1:].isdigit() and arg.isascii())

    def read(argv: list[str]) -> argparse.Namespace | None:
        values = defaults.copy()
        at = 0
        rest = iter(argv)
        for arg in rest:
            if plain(arg):
                if at == len(positionals):
                    return None
                entry = positionals[at]
                at += 1
            elif arg in flags:
                values[flags[arg]] = True
                continue
            elif arg in takes:
                entry = takes[arg]
                # a missing value reads as "-", which is no value
                arg = next(rest, "-")
                if not plain(arg):
                    return None
            else:
                return None
            dest, convert, choices = entry
            if convert is not None:
                try:
                    arg = convert(arg)
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    return None
            if choices is not None and arg not in choices:
                return None
            values[dest] = arg
        if at < len(positionals):
            return None
        for dest in required:
            if dest not in values:
                return None
        args = argparse.Namespace()
        vars(args).update(values)
        return args

    return read


_PARSER: argparse.ArgumentParser | None = None


def _parser() -> argparse.ArgumentParser:
    """The parser main() uses, built once per process with a reader per
    subcommand, both from `_COMMANDS`: building the parser costs more than
    parsing a typical query."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
        _PARSER.readers = {name: _reader(f, a) for name, (_, f, a) in _COMMANDS.items()}
    return _PARSER


def _parse(argv: list[str]) -> argparse.Namespace:
    """The full parser's namespace for argv.  When argv[0] names a
    subcommand, the rest goes to that subcommand's reader, made from the
    same `_COMMANDS` entry as its parser; whatever the reader declines, and
    any argv that names no subcommand, the full parser reads, prints and
    exits on as its own."""
    parser = _parser()
    read = parser.readers.get(argv[0]) if argv else None
    args = read(argv[1:]) if read else None
    if args is None:
        return parser.parse_args(argv)
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (CompositionParseError, SuperpartitionParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # every domain error of the package subclasses ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RecursionError, MemoryError) as exc:
        name = type(exc).__name__
        print(f"error: the input is too large to compute ({name})", file=sys.stderr)
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
