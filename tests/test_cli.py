import contextlib
import gc
import io
import json
import os
import random
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import superqsym
from superqsym.algebra import expr_from_json
from superqsym.cli import main
from superqsym.composition import comp


# the child interpreter imports the same package as the tests, however
# pytest found it
SRC = str(Path(superqsym.__file__).resolve().parent.parent)
CATALOGUE = Path(__file__).resolve().parents[1] / "bench" / "refs" / "cli_session.json"
DIGESTS = Path(__file__).with_name("cli_digests.json")


def run_cli(*args, **streams):
    path = [SRC, os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "superqsym", *args],
        **(streams or {"capture_output": True}),
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p)),
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestSubcommands:
    def test_antipode_known_formula(self):
        code, out, _ = run_cli("antipode", "[3,1,2,1,2]", "--basis", "L")
        assert code == 0
        assert out.strip() == "-L[1,3,3,1,1]"

    def test_antipode_via_routes_agree(self, capsys):
        assert main(["antipode", "[2,d1,1]", "--basis", "L", "--via", "columns"]) == 0
        columns = capsys.readouterr().out
        assert main(["antipode", "[2,d1,1]", "--basis", "L", "--via", "monomial"]) == 0
        monomial = capsys.readouterr().out
        assert columns == monomial

    def test_product_example_4_3(self):
        code, out, _ = run_cli("product", "[d1,2]", "[d2,1]", "--basis", "L")
        assert code == 0
        terms = out.replace("- ", "+ -").strip().split(" + ")
        assert len(terms) == 15
        assert sum(1 for t in terms if t.startswith("-")) == 5

    def test_product_trace(self, capsys):
        assert main(["product", "[d1]", "[1]", "--basis", "L", "--trace"]) == 0
        out = capsys.readouterr().out.splitlines()
        trace = json.loads(out[0])
        assert len(trace) == 3
        assert all({"steps", "word", "gamma", "sign"} <= set(t) for t in trace)

    def test_product_json_round_trips(self, capsys):
        assert main(["product", "[1]", "[1]", "--basis", "M", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        e = expr_from_json(data)
        assert e.coefficient(comp(1, 1)) == 2
        assert e.coefficient(comp(2)) == 1

    def test_coproduct(self, capsys):
        assert main(["coproduct", "[d2,1,d3,4]", "--basis", "M"]) == 0
        out = capsys.readouterr().out
        assert out.count("@") == 5

    def test_convert(self, capsys):
        assert main(["convert", "[2]", "--from", "L", "--to", "M"]) == 0
        assert capsys.readouterr().out.strip() == "M[1,1] + M[2]"
        assert main(["convert", "[2]", "--from", "M", "--to", "L"]) == 0
        assert capsys.readouterr().out.strip() == "-L[1,1] + L[2]"
        assert main(["convert", "[d1]", "--from", "Lbar", "--to", "M"]) == 0
        assert capsys.readouterr().out.strip() == "M[d0,1] + M[d1] + M[1,d0]"

    def test_orders(self, capsys):
        assert main(["orders", "[1,1,d3,2,1,1]", "[2,d3,2,2]"]) == 0
        out = capsys.readouterr().out
        assert "A <= B (strong): True" in out
        assert "D=" in out

    def test_orders_json(self, capsys):
        assert main(["orders", "[2]", "[1,1]", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["strong"] == {"A<=B": False, "B<=A": True}

    def test_schur(self, capsys):
        assert main(["schur", "(1;2,2)"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.count("L[") == 10

    def test_schur_show_tableaux(self, capsys):
        assert main(["schur", "(;2,1)", "--show-tableaux"]) == 0
        out = capsys.readouterr().out
        assert "[1]" in out

    def test_schur_skew(self, capsys):
        assert main(["schur", "(;2,2)", "--skew", "(;1)"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "L[1,2] + L[2,1]"

    def test_realize(self, capsys):
        assert main(["realize", "L[d1]", "--vars", "2"]) == 0
        assert capsys.readouterr().out.strip() == "theta[1]*x[1] + theta[2]*x[2]"

    def test_realize_json(self, capsys):
        assert main(["realize", "M[2]", "--vars", "2", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data) == 2

    def test_latex_output(self, capsys):
        assert main(["antipode", "[d1]", "--basis", "L", "--format", "latex"]) == 0
        assert capsys.readouterr().out.strip() == "-L_{(\\dot{1})}"


class TestVerifyCommand:
    def test_verify_passes(self):
        code, out, _ = run_cli(
            "verify", "--max-degree", "3", "--max-fermionic", "1",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert all(c["status"] == "pass" for c in report["checks"])

    def test_verify_plain(self, capsys):
        assert main(["verify", "--max-degree", "2", "--max-fermionic", "1"]) == 0
        out = capsys.readouterr().out
        assert "convolution_M" in out and "pass" in out

    def test_verify_latex_prints_the_plain_report(self, capsys):
        argv = ["verify", "--max-degree", "2", "--max-fermionic", "1"]
        assert main(argv + ["--format", "plain"]) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--format", "latex"]) == 0
        assert capsys.readouterr().out == plain

    def test_parser_is_built_once(self, capsys, monkeypatch):
        import superqsym.cli as cli

        build, built = cli.build_parser, []

        def counting():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        for _ in range(3):
            assert main(["convert", "[2]", "--from", "L", "--to", "M"]) == 0
        assert capsys.readouterr().out == "M[1,1] + M[2]\n" * 3
        assert len(built) <= 1

    def test_verify_failure_exits_3(self, capsys, monkeypatch):
        import superqsym.hopf as hopf
        from superqsym.hopf import CheckResult, HopfReport

        def failing(max_total, max_fermionic):
            return HopfReport(
                [CheckResult("convolution_M", "n+m<=2, m<=1", "fail", "[d1]")]
            )

        monkeypatch.setattr(hopf, "verify_hopf", failing)
        assert main(["verify", "--max-degree", "2", "--max-fermionic", "1"]) == 3
        capsys.readouterr()


class TestExitCodes:
    def test_parse_error_is_2(self, capsys):
        assert main(["product", "[2,", "[1]", "--basis", "M"]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_superpartition_parse_error_is_2(self, capsys):
        assert main(["schur", "(1,2)"]) == 2
        assert capsys.readouterr().err

    def test_domain_error_is_1(self, capsys):
        assert main(["convert", "[2]", "--from", "M", "--to", "M"]) == 1
        assert "unsupported conversion" in capsys.readouterr().err

    def test_incompatible_shape_is_1(self, capsys):
        assert main(["schur", "(;1)", "--skew", "(;2)"]) == 1
        capsys.readouterr()

    def test_negative_vars_is_1(self):
        code, out, err = run_cli("realize", "L[2]", "--vars", "-3")
        assert code == 1
        assert out == ""
        assert "error: number of variables must be >= 0, got -3" in err

    @pytest.mark.parametrize(
        "argv",
        [("schur", "(;600)"), ("convert", "[1100]", "--from", "M", "--to", "L")],
    )
    def test_too_deep_input_is_1(self, argv):
        """A one-row shape and a long plain part recurse past the
        interpreter's limit: one error line, no traceback, no output."""
        code, out, err = run_cli(*argv)
        assert code == 1
        assert out == ""
        assert err.splitlines() == ["error: the input is too large to compute (RecursionError)"]

    def test_out_of_memory_is_1(self, capsys, monkeypatch):
        import superqsym.cli as cli

        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli.superschur, "schur_to_L", exhausted)
        assert main(["schur", "(1;2)"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the input is too large to compute (MemoryError)\n"

    @pytest.mark.parametrize("bounds", [("-1", "1"), ("3", "-1")])
    def test_negative_verify_bounds_is_1(self, capsys, bounds):
        degree, fermionic = bounds
        code = main(["verify", "--max-degree", degree, "--max-fermionic", fermionic])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: verify bounds must be >= 0")

    @pytest.mark.parametrize(
        "argv, position",
        [
            (["product", "[\u00b2]", "[1]", "--basis", "L"], 1),
            (["product", "[1]", "[\u0663]", "--basis", "M"], 1),
            (["schur", "(\u0661;)"], 1),
        ],
    )
    def test_non_ascii_digit_is_2(self, capsys, argv, position):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"parse error at position {position}:" in captured.err

    @pytest.mark.parametrize(
        "expr, position",
        [("L[1]x", 4), ("Lbar[1,]", 7), ("M[d]", 3), ("Lbarx[1]", 4), ("X[1]", 0)],
    )
    def test_realize_parse_error_counts_the_prefix(self, capsys, expr, position):
        assert main(["realize", expr, "--vars", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"parse error at position {position}:" in captured.err

    @pytest.mark.parametrize(
        "shape, position",
        [
            ("(1;2,x)", 5),
            ("(1,x;2)", 3),
            ("(1;2,)", 5),
            ("(1;2)x", 5),
            ("(1;2", 4),
            (" (1;2) x", 7),
        ],
    )
    def test_bad_superpartition_piece_is_2(self, capsys, shape, position):
        assert main(["schur", shape]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"parse error at position {position}:" in captured.err

    def test_closed_stdout_ends_quietly(self):
        # as `| head -c 10` leaves it once head has exited
        read, write = os.pipe()
        os.close(read)
        try:
            code, _, err = run_cli(
                "schur", "(1;2,2)", "--show-tableaux", stdout=write, stderr=subprocess.PIPE
            )
        finally:
            os.close(write)
        assert code == 1
        assert err == ""

    def test_unknown_flag_is_2(self):
        code, _, _ = run_cli("product", "[1]", "[1]", "--basis", "Q")
        assert code == 2


def outcome(parse, argv) -> tuple:
    """stdout, stderr and exit code of parse(argv); 0 when it returns."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parse(argv)
            code = 0
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


def parsed(parser, argv):
    """vars() of parser's namespace for argv, or its exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code


def _pick(rng, items):
    return rng.choice(items) if items else None


def _valued(options):
    return [o for o in options if len(o) == 2]


def _abbreviation(rng, actions, positionals, options):
    o = _pick(rng, options)
    if o:
        o[0] = o[0][: rng.randrange(3, len(o[0]))]
        return positionals + options


def _equals(rng, actions, positionals, options):
    o = _pick(rng, _valued(options))
    if o:
        o[:] = [f"{o[0]}={o[1]}"]
        return positionals + options


def _empty_equals(rng, actions, positionals, options):
    o = _pick(rng, _valued(options))
    if o:
        o[:] = [f"{o[0]}="]
        return positionals + options


def _repeat(rng, actions, positionals, options):
    o = _pick(rng, _valued(options))
    if o:
        choices = actions[o[0]].choices
        again = [o[0], rng.choice(choices) if choices else str(rng.randrange(4))]
        return positionals + options + [again]


def _missing_value(rng, actions, positionals, options):
    o = _pick(rng, _valued(options))
    if o:
        del o[1]
        return positionals + options


def _bad_choice(rng, actions, positionals, options):
    o = _pick(rng, [o for o in _valued(options) if actions[o[0]].choices])
    if o:
        o[1] = rng.choice(["Q", "html", "l", ""])
        return positionals + options


def _negative_value(rng, actions, positionals, options):
    o = _pick(rng, _valued(options))
    if o:
        o[1] = "-1"
        return positionals + options


def _negative_positional(rng, actions, positionals, options):
    if positionals:
        positionals[rng.randrange(len(positionals))] = ["-1"]
        return positionals + options


def _insert(word):
    def insert(rng, actions, positionals, options):
        words = positionals + options
        words.insert(rng.randrange(len(words) + 1), [word])
        return words

    return insert


def _options_first(rng, actions, positionals, options):
    if positionals and options:
        return options + positionals


def _extra_positional(rng, actions, positionals, options):
    return positionals + [["[1]"]] + options


def _missing_option(rng, actions, positionals, options):
    required = [o for o in options if actions[o[0]].required]
    if required:
        options.remove(rng.choice(required))
        return positionals + options


def _missing_positional(rng, actions, positionals, options):
    if positionals:
        del positionals[rng.randrange(len(positionals))]
        return positionals + options


# kind of near-valid argv: (mutation, what the reader does with it: True
# reads every one, False declines every one, None may do either)
NEAR_VALID = {
    "abbreviation": (_abbreviation, False),
    "equals": (_equals, False),
    "empty-equals": (_empty_equals, False),
    "repeat": (_repeat, True),
    "missing-value": (_missing_value, False),
    "bad-choice": (_bad_choice, False),
    "negative-value": (_negative_value, None),
    "negative-positional": (_negative_positional, None),
    "double-dash": (_insert("--"), False),
    "help": (_insert("-h"), False),
    "options-first": (_options_first, True),
    "extra-positional": (_extra_positional, False),
    "flag-value": (_insert("--trace=x"), False),
    "missing-option": (_missing_option, False),
    "missing-positional": (_missing_positional, False),
}


def near_valid(rng, parser, mutate, count):
    """`count` argv made by `mutate` from the digested commands: each
    mutation reads the command as its positionals and its options, each a
    list of words, and returns the words in order, or None where it has
    nothing to change."""
    commands = [shlex.split(c) for c in sorted(json.loads(DIGESTS.read_text()))]
    made = []
    while len(made) < count:
        argv = rng.choice(commands)
        actions = {s: a for a in parser.commands[argv[0]]._actions for s in a.option_strings}
        positionals, options = [], []
        rest = iter(argv[1:])
        for arg in rest:
            if arg in actions:
                options.append([arg] if actions[arg].nargs == 0 else [arg, next(rest)])
            else:
                positionals.append([arg])
        words = mutate(rng, actions, positionals, options)
        if words is not None:
            made.append([argv[0]] + [w for word in words for w in word])
    return made


class TestDispatch:
    """main() reads argv on one of two paths: the reader of the subcommand
    that argv[0] names, or the full parser for whatever that reader declines
    and for argv that names no subcommand.  What it prints and how it exits
    are the full parser's."""

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["-h"],
            ["--help"],
            ["prod"],
            ["product", "[1]"],
            ["product", "[1]", "[2]", "--basis", "L", "--bogus"],
            ["product", "[1]", "[2]", "--bas", "L", "x", "y"],
            ["product", "--help"],
            ["verify", "--max-degree", "x", "--max-fermionic", "1"],
            ["verify", "--max-degree", "1", "--max-fermionic", "1", "--max-degree"],
        ],
    )
    def test_refusals_and_help_match_the_full_parser(self, argv):
        import superqsym.cli as cli

        want = outcome(cli.build_parser().parse_args, argv)
        assert want[2] in (0, 2)
        assert outcome(main, argv) == want

    def test_unknown_arguments_are_reported_by_the_top_level_parser(self):
        _, err, code = outcome(main, ["product", "[1]", "[2]", "--basis", "L", "--bogus"])
        assert code == 2
        assert err.startswith("usage: superqsym [-h]")
        assert err.endswith("superqsym: error: unrecognized arguments: --bogus\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["product", "[1]", "[2]", "--basis", "L", "--trace"],
            ["convert", "[2]", "--from", "Lbar", "--to", "M", "--format", "json"],
            ["schur", "(1;)", "--skew", "(0;)", "--show-tableaux"],
            ["verify", "--max-degree", "2", "--max-fermionic", "1"],
            ["realize", "L[1]", "--vars=2"],
            ["realize", "L[2]", "--vars", "-3"],
            ["product", "--basis", "L", "[1]", "--format=json", "[2]"],
            ["antipode", "[2]", "--via", "monomial", "--basis", "M", "--via=columns", "--basis", "L"],
            ["schur", "-1", "--skew", "-2"],
        ],
    )
    def test_namespaces_match_the_full_parser(self, argv):
        import superqsym.cli as cli

        assert vars(cli._parse(argv)) == vars(cli.build_parser().parse_args(argv))

    def test_every_catalogue_command_is_read_without_argparse(self, monkeypatch):
        """Every query of the benchmark and every digested command takes the
        reader's path, with the full parser's namespace."""
        import superqsym.cli as cli

        argvs = [e["argv"] for e in json.loads(CATALOGUE.read_text())["entries"]]
        argvs += [shlex.split(command) for command in json.loads(DIGESTS.read_text())]
        assert len(argvs) == 859 + 111
        # the fallback, the full parser, calls parse_known_args, and so does
        # each subcommand parser it hands argv to
        monkeypatch.setattr(cli._parser(), "parse_known_args", None)
        for command in cli._parser().commands.values():
            monkeypatch.setattr(command, "parse_known_args", None)
        parser = cli.build_parser()
        for argv in argvs:
            assert vars(cli._parse(argv)) == vars(parser.parse_args(argv)), argv

    @pytest.mark.parametrize("kind", sorted(NEAR_VALID))
    def test_near_valid_argv_are_read_as_argparse_reads_them(self, kind):
        """Seeded near-valid argv: the reader returns argparse's namespace or
        None, and None whenever argparse exits; argv of a kind it reads it
        must read, and argv of a kind it declines it must decline."""
        import superqsym.cli as cli

        mutate, reads = NEAR_VALID[kind]
        parser = cli.build_parser()
        rng = random.Random(f"near-valid:{kind}")
        for argv in near_valid(rng, parser, mutate, 40):
            want = parsed(parser, argv)
            got = cli._parser().readers[argv[0]](argv[1:])
            if got is not None:
                got = dict(vars(got), command=argv[0])
            if reads:
                assert got == want, argv
            elif reads is False or type(want) is int:
                assert got is None, argv
            else:
                assert got in (None, want), argv

    def test_each_reader_agrees_with_its_parser_on_the_table(self):
        """Each subcommand's parser and reader come from one `_COMMANDS`
        entry.  Argparse's action for each entry has the table's option
        name, `type`, `choices` and `required`, and no typed option has a
        string default, which argparse would pass through `type` and the
        reader would not.  On the argv of the positionals and required
        options alone, and on argv that gives every argument, the reader's
        namespace is argparse's: so is each `dest` and default it derives."""
        import superqsym.cli as cli

        parser = cli.build_parser()
        assert list(parser.commands) == list(cli._COMMANDS)
        for name, (_, func, arguments) in cli._COMMANDS.items():
            actions = [a for a in parser.commands[name]._actions if a.dest != "help"]
            assert len(actions) == len(arguments), name
            least, every = [name], [name]
            for (argument, keywords), action in zip(arguments, actions):
                assert action.option_strings in ([], [argument]), name
                assert action.type is keywords.get("type"), argument
                assert action.choices == keywords.get("choices"), argument
                positional = not action.option_strings
                assert action.required == keywords.get("required", positional), argument
                assert action.type is None or not isinstance(action.default, str), argument
                value = action.choices[-1] if action.choices else "7" if action.type else "x"
                words = [] if positional else [argument]
                words += [] if action.nargs == 0 else [value]
                every += words
                if action.required:
                    least += words
            assert parser.commands[name].get_default("func") is func
            for argv in (least, every):
                got = vars(cli._parser().readers[name](argv[1:]))
                assert dict(got, command=name) == vars(parser.parse_args(argv)), argv

    def test_argv_defaults_to_the_command_line(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["superqsym", "convert", "[2]", "--from", "L", "--to", "M"])
        assert main() == 0
        assert capsys.readouterr().out == "M[1,1] + M[2]\n"


def memo_sizes() -> dict:
    return {f"{m.__module__}.{m.__qualname__}": m.cache_info().currsize for m in superqsym._MEMOS}


class TestMemos:
    """main() releases the package memos when a command returns."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["product", "[d1,2]", "[d2,1]", "--basis", "L"], 0),
            (["product", "[d1,2]", "[1,d0]", "--basis", "M"], 0),
            (["realize", "L[1]", "--vars", "-1"], 1),
            (["product", "[0]", "[1]", "--basis", "L"], 2),
        ],
    )
    def test_every_exit_code_leaves_the_memos_empty(self, capsys, argv, code):
        # fill the memos first, so that an empty memo afterwards means main()
        # emptied it
        superqsym.product_L(comp(1, "d1"), comp(2))
        superqsym.product_M(comp(1, "d1"), comp(2))
        superqsym.strong_refinements(comp(3, "d1"))
        assert all(memo_sizes()[f"superqsym.{name}"] for name in (
            "shuffles.fundamental_product", "shuffles.overlapping_shuffles",
            "composition.strong_refinements",
        ))
        assert main(argv) == code
        capsys.readouterr()
        assert memo_sizes() == dict.fromkeys(memo_sizes(), 0)

    def test_an_uncaught_exception_leaves_the_memos_empty(self, capsys, monkeypatch):
        import superqsym.cli as cli

        def failing(e, via):
            superqsym.product_L(comp(1, "d1"), comp(2))
            raise RuntimeError("boom")

        monkeypatch.setattr(cli.hopf, "antipode", failing)
        with pytest.raises(RuntimeError):
            main(["antipode", "[2]", "--basis", "L"])
        capsys.readouterr()
        assert memo_sizes() == dict.fromkeys(memo_sizes(), 0)

    def test_a_long_lived_process_stays_flat(self, capsys):
        """Two rounds of 20 distinct L products from the benchmark's catalogue:
        the second leaves no more traced memory than the first, within 256 KB.
        Without the release, the memos of round 2 alone hold about 1.5 MB."""
        entries = sorted(
            (e for e in json.loads(CATALOGUE.read_text())["entries"] if e["group"] == "product_L"),
            key=lambda e: (e["work"], e["argv"]),
        )
        # 40 distinct pairs over the whole range of work, dealt to the two
        # rounds in turn
        picked = [entries[i * len(entries) // 40]["argv"] for i in range(40)]
        assert len({tuple(argv[1:3]) for argv in picked}) == 40
        rounds = (picked[0::2], picked[1::2])
        assert main(["product", "[1]", "[1]", "--basis", "L"]) == 0  # builds the parser
        capsys.readouterr()
        traced = []
        tracemalloc.start()
        try:
            for argvs in rounds:
                for argv in argvs:
                    assert main(argv) == 0
                    capsys.readouterr()
                gc.collect()
                traced.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert abs(traced[1] - traced[0]) <= 256 * 1024, traced


def test_import_loads_neither_dataclasses_nor_inspect():
    """The package's records are NamedTuples and plain classes, so importing
    it and the CLI loads neither `dataclasses` nor the `inspect` it pulls in,
    which together cost a fresh process most of its start-up time."""
    path = [SRC, os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; before = set(sys.modules); import superqsym, superqsym.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))",
        ],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
