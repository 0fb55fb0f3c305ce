import gc
import json
import os
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
