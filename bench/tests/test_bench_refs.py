"""The stored references must agree with the brute-force polynomial oracle,
so that an output recorded from a faulty commit cannot become the standard.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads as wl  # noqa: E402
from superqsym import (  # noqa: E402
    Expr,
    L_to_M,
    Superpartition,
    cli,
    expr_from_json,
    parse_composition,
    poly_mul,
    product_L,
    product_M,
    realize_expr,
    realize_s,
    schur_to_L,
)
from superqsym.superschur import EMPTY_SHAPE  # noqa: E402

ORACLE_VARS = 5


def test_schur_references_match_the_tableau_oracle():
    """Every straight shape with |Lambda| + circles <= 6 is realized with
    that many variables, where the realization is faithful."""
    checked = 0
    for e in wl.load_refs("schur_expand"):
        if e["inner"]:
            continue
        lam = Superpartition.parse(e["outer"])
        nvars = lam.degree + lam.n_circles
        if nvars > 6:
            continue
        got = schur_to_L(lam)
        assert wl.expr_digest(got) == e["digest"], e["key"]
        assert realize_s(lam, EMPTY_SHAPE, nvars) == realize_expr(L_to_M(got), nvars), e["key"]
        checked += 1
    assert checked == 63, checked


def test_product_L_references_match_the_polynomial_oracle():
    """The three smallest L products of the catalogue, checked against the
    product of the realized factors in five variables and against the M
    product.  Five variables do not make the realization faithful at this
    bidegree; the M route covers what they miss."""
    entries = [
        e for e in wl.load_refs("cli_session")
        if e["group"] == "product_L" and "json" in e["argv"]
    ]
    for e in sorted(entries, key=lambda e: e["work"])[:3]:
        code, text = wl.run_cli(cli, e["argv"])
        assert wl.cli_output_digest((code, text)) == e["digest"], e["key"]
        a, b = (Expr.basis_element("L", parse_composition(s)) for s in e["argv"][1:3])
        got = expr_from_json(json.loads(text))
        assert got == product_L(a, b)
        assert realize_expr(got, ORACLE_VARS) == poly_mul(
            realize_expr(a, ORACLE_VARS), realize_expr(b, ORACLE_VARS)
        ), e["key"]
        assert L_to_M(got) == product_M(L_to_M(a), L_to_M(b)), e["key"]


def test_every_catalogue_key_is_unique():
    for workload in ("cli_session", "schur_expand"):
        keys = [e["key"] for e in wl.load_refs(workload)]
        assert len(keys) == len(set(keys)), workload
