"""The one-pass writer (algebra.render_expr) against the renderer it replaced
(tests/render_oracle.py), byte for byte in plain text, LaTeX and JSON: over
every expression and polynomial the CLI renders for the benchmark's query
catalogue and for the pinned CLI commands, over hand-made edge cases, and
over random expressions.  Every JSON text also parses back to the document
of expr_to_json, tensor_to_json or SuperPolynomial.to_json."""

import contextlib
import io
import json
import shlex
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import render_oracle as oracle
import test_cli_outputs
from superqsym import cli
from superqsym.algebra import (
    Expr,
    TensorExpr,
    expr_to_json,
    render_expr,
    render_tensor,
    tensor,
    tensor_to_json,
)
from superqsym.composition import EMPTY, comp, universe
from superqsym.realize import SuperPolynomial, render_poly

CATALOGUE = Path(__file__).resolve().parents[1] / "bench" / "refs" / "cli_session.json"
FORMATS = ("plain", "latex", "json")


def same(got: str, want: str, fmt: str) -> None:
    # a short message: pytest's own diff of two long texts takes minutes
    if got != want:
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), len(want))
        near = slice(max(i - 30, 0), i + 30)
        pytest.fail(f"{fmt} differs at {i}: {got[near]!r} != {want[near]!r}")


def check(x) -> None:
    """x renders as the oracle renders it in every format it has."""
    if isinstance(x, SuperPolynomial):
        same(render_expr(x, "plain"), oracle.render_poly(x), "plain")
        same(render_expr(x, "json"), oracle.poly_json(x), "json")
        assert json.loads(render_expr(x, "json")) == x.to_json()
        return
    for fmt in FORMATS:
        same(render_expr(x, fmt), oracle.render_expr(x, fmt), fmt)
    doc = tensor_to_json(x) if isinstance(x, TensorExpr) else expr_to_json(x)
    assert json.loads(render_expr(x, "json")) == doc


def rendered_by_cli(argvs) -> list:
    """Each expression or polynomial the CLI renders for these commands."""
    seen = []

    def record(x, fmt="plain"):
        seen.append(x)
        return render_expr(x, fmt)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "render_expr", record)
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                cli.main(argv)
    return seen


def test_every_expression_of_the_query_catalogue():
    entries = json.loads(CATALOGUE.read_text())["entries"]
    seen = rendered_by_cli(e["argv"] for e in entries)
    # one rendering per entry: 779 expressions and 80 realize polynomials
    assert len(seen) == len(entries) == 859
    assert sum(isinstance(x, SuperPolynomial) for x in seen) == 80
    for x in seen:
        check(x)


def test_every_expression_of_the_pinned_commands():
    seen = rendered_by_cli(shlex.split(c) for c in test_cli_outputs.COMMANDS)
    assert any(isinstance(x, TensorExpr) for x in seen)
    assert any(isinstance(x, SuperPolynomial) for x in seen)
    for x in seen:
        check(x)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize(
    "command",
    [
        # a part text far longer than one digit, in a tensor
        "coproduct '[1000000,d3]' --basis M",
        # the empty composition times itself: one term with no parts
        "product '[]' '[]' --basis L",
        # an empty skew shape: no term at all
        "schur '(1;)' --skew '(0;)'",
    ],
)
def test_edge_commands_print_what_the_oracle_writes(capsys, command, fmt):
    argv = shlex.split(command) + ["--format", fmt]
    [x] = rendered_by_cli([argv])
    check(x)
    assert cli.main(argv) == 0
    same(capsys.readouterr().out, oracle.render_expr(x, fmt) + "\n", fmt)


def L(*parts, c=1, basis="L"):
    return Expr.basis_element(basis, comp(*parts), c)


def test_edge_cases():
    zero = Expr.zero("L")
    assert render_expr(zero) == render_expr(zero, "latex") == "0"
    assert render_expr(zero, "json") == '{"basis": "L", "terms": []}'
    assert render_expr(L()) == "L[]"
    assert render_expr(L(), "latex") == "L_{()}"
    assert render_expr(L(2, c=2) + L(1, c=-2)) == "-2*L[1] + 2*L[2]"
    assert render_expr(L(1, c=2) + L(2, c=-2)) == "2*L[1] - 2*L[2]"
    half = L("d1", 2, c=Fraction(1, 2)) - L(3, c=Fraction(3, 4))
    assert render_expr(half) == "1/2*L[d1,2] - 3/4*L[3]"
    assert render_expr(half, "latex") == "\\frac{1}{2}L_{(\\dot{1},2)} - \\frac{3}{4}L_{(3)}"
    assert render_expr(-half, "latex") == "-\\frac{1}{2}L_{(\\dot{1},2)} + \\frac{3}{4}L_{(3)}"
    assert render_expr(-half) == "-1/2*L[d1,2] + 3/4*L[3]"
    assert render_expr(L(5, c=Fraction(-7, 3)), "latex") == "-\\frac{7}{3}L_{(5)}"
    assert render_expr(L(1, "d0", basis="Lbar"), "latex") == "\\bar L_{(1,\\dot{0})}"
    assert render_expr(L(1, "d0", basis="Lbar")) == "Lbar[1,d0]"
    mixed = tensor(L(1) - L("d2", c=Fraction(-5, 2)), L(c=3, basis="M") + L(2, basis="M"))
    assert render_tensor(mixed) == (
        "3*L[1] @ M[] + L[1] @ M[2] + 15/2*L[d2] @ M[] + 5/2*L[d2] @ M[2]"
    )
    assert render_expr(mixed, "latex").startswith("3*L_{(1)} \\otimes M_{()} + ")
    assert render_expr(TensorExpr(("M", "L")), "json") == '{"bases": ["M", "L"], "terms": []}'
    poly = SuperPolynomial(2, {((1,), ((1, 3), (2, 1))): Fraction(-1, 2), ((), ()): 2})
    assert render_poly(poly) == "2*1 - 1/2*theta[1]*x[1]^3*x[2]"
    assert render_poly is render_expr
    assert render_poly(SuperPolynomial.zero(2)) == "0"
    assert render_expr(SuperPolynomial.zero(2), "json") == "[]"
    for x in (zero, L(), half, -half, mixed, TensorExpr(("M", "L")), poly, SuperPolynomial.zero(2)):
        check(x)


def test_unknown_formats_are_refused():
    for x in (L(1), tensor(L(1), L(2)), SuperPolynomial.one(1)):
        with pytest.raises(ValueError, match="'plain', 'latex', 'json'"):
            render_expr(x, "xml")
    with pytest.raises(ValueError, match="no LaTeX form"):
        render_expr(SuperPolynomial.one(1), "latex")


coefficients = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)
keys = st.sampled_from(universe(4))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(("M", "L", "Lbar")),
    st.sampled_from(("M", "L", "Lbar")),
    st.dictionaries(keys, coefficients, max_size=8),
    st.dictionaries(st.tuples(keys, keys), coefficients, max_size=8),
)
def test_random_expressions(b1, b2, terms, pairs):
    check(Expr(b1, terms))
    check(TensorExpr((b1, b2), pairs))
    check(Expr(b2, {EMPTY: 1, **terms}))
