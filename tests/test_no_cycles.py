"""Every walk frees its working set when it returns.

A recursive walker is a nested function that calls itself, so it reaches
itself through its own closure; the package drops that reference when the
top-level call returns, and reference counting then frees the walk's move
table, memo and accumulator at once.  Each case below runs one CLI command or
library call with the cycle collector switched off and asserts that
gc.collect() then finds nothing: no reference cycle was left behind for it.
test_cli's long-lived-process test calls gc.collect() before it reads memory,
so it cannot see such cycles."""

import contextlib
import gc
import io

import pytest

import superqsym
from superqsym import cli, composition, hopf, realize, shuffles, superschur
from superqsym.algebra import Expr
from superqsym.composition import parse_composition
from superqsym.superschur import EMPTY_SHAPE, Superpartition

A = parse_composition("[1,d1,2]")
B = parse_composition("[2,1]")
SHAPE = Superpartition.parse("(3,0;2,1)")

COMMANDS = [
    ["product", "[1,d1,2]", "[2,1]", "--basis", "M"],
    ["product", "[1,d1,2]", "[2,1]", "--basis", "M", "--trace"],
    ["product", "[1,d1,2]", "[2,1]", "--basis", "L"],
    ["product", "[1,d1,2]", "[2,1]", "--basis", "L", "--trace"],
    ["coproduct", "[1,d1,2]", "--basis", "M"],
    ["coproduct", "[1,d1,2]", "--basis", "L"],
    ["antipode", "[1,d1,2]", "--basis", "M"],
    ["antipode", "[1,d1,2]", "--basis", "L", "--via", "columns"],
    ["antipode", "[1,d1,2]", "--basis", "L", "--via", "monomial"],
    ["convert", "[1,d1,2]", "--from", "L", "--to", "M"],
    ["convert", "[1,d1,2]", "--from", "M", "--to", "L"],
    ["convert", "[1,d1,2]", "--from", "Lbar", "--to", "M"],
    ["realize", "L[2,d1]", "--vars", "3"],
    ["schur", "(3,0;2,1)"],
    ["schur", "(3,0;2,1)", "--skew", "(0;1)", "--show-tableaux"],
    ["orders", "[1,d1,2]", "[3,d1]"],
    ["verify", "--max-degree", "3", "--max-fermionic", "1"],
]


def _verify_then_clear():
    hopf.verify_hopf(4, 2)
    superqsym.clear_caches()


CALLS = {
    "fundamental_paths": lambda: shuffles.fundamental_paths(A, B),
    "fundamental_product": lambda: shuffles.fundamental_product.__wrapped__(A, B),
    "overlapping_shuffles": lambda: shuffles.overlapping_shuffles.__wrapped__(A, B),
    "weak_coarsenings": lambda: composition.weak_coarsenings.__wrapped__(A),
    "compositions_of": lambda: composition.compositions_of(3, 2),
    "realize_expr": lambda: realize.realize_expr(Expr.basis_element("L", A), 3),
    "realize_s": lambda: superschur.realize_s(SHAPE, EMPTY_SHAPE, 3),
    "enumerate_s_tableaux": lambda: superschur.enumerate_s_tableaux(
        SHAPE, EMPTY_SHAPE, [1, 1, "d0", 1, "d1", 1]
    ),
    "schur_to_L": lambda: superschur.schur_to_L(SHAPE),
    "superpartitions": lambda: superschur.superpartitions(4, 2),
    "verify_hopf": _verify_then_clear,
}


def _cyclic_garbage(call) -> int:
    """The number of objects that only the cycle collector frees after
    call(), run cold: every package memo is emptied first, so a memoized
    walk really walks."""
    superqsym.clear_caches()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.fixture(scope="module", autouse=True)
def _parser_built():
    # building the argparse parser makes cycles, once per process
    cli._parser()


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_a_command_leaves_no_cycles(argv):
    assert _cyclic_garbage(lambda: _run(argv)) == 0


@pytest.mark.parametrize("name", CALLS)
def test_a_library_call_leaves_no_cycles(name):
    assert _cyclic_garbage(CALLS[name]) == 0
