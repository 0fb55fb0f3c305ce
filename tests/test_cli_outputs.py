"""Byte-identity of the CLI: every README example and every command of
tests/test_cli.py, in plain, LaTeX and JSON, against blake2b digests of its
exit code, stdout and stderr stored in tests/cli_digests.json.

A change that means to alter an output regenerates the file with
`PYTHONPATH=src python tests/test_cli_outputs.py` and says why."""

import contextlib
import hashlib
import io
import json
import shlex
import sys
from pathlib import Path

from superqsym.cli import main

DIGESTS = Path(__file__).with_name("cli_digests.json")

README = [
    "product '[d1,2]' '[d2,1]' --basis L",
    "product '[d1]' '[1]' --basis L --trace",
    "coproduct '[d2,1,d3,4]' --basis M",
    "antipode '[3,1,2,1,2]' --basis L",
    "antipode '[2,d1,1]' --basis L --via monomial",
    "convert '[2]' --from L --to M",
    "convert '[d2]' --from Lbar --to M",
    "orders '[1,1,d3,2,1,1]' '[2,d3,2,2]'",
    "schur '(1;2,2)' --show-tableaux",
    "schur '(;2,2)' --skew '(;1)'",
    "realize 'L[2,d3,1]' --vars 4",
    "verify --max-degree 4 --max-fermionic 2",
]

# tests/test_cli.py, less the README duplicates and the argparse failure
# (its usage text belongs to the Python version, not to the package)
TEST_CLI = [
    "antipode '[2,d1,1]' --basis L --via columns",
    "product '[1]' '[1]' --basis M",
    "convert '[2]' --from M --to L",
    "convert '[d1]' --from Lbar --to M",
    "orders '[2]' '[1,1]'",
    "schur '(1;2,2)'",
    "schur '(;2,1)' --show-tableaux",
    "realize 'L[d1]' --vars 2",
    "realize 'M[2]' --vars 2",
    "antipode '[d1]' --basis L",
    "verify --max-degree 3 --max-fermionic 1",
    "verify --max-degree 2 --max-fermionic 1",
    "product '[2,' '[1]' --basis M",
    "schur '(1,2)'",
    "convert '[2]' --from M --to M",
    "schur '(;1)' --skew '(;2)'",
    "realize 'L[2]' --vars -3",
]

# the product and coproduct branches the lists above leave out
BRANCHES = [
    "product '[d1,2]' '[1,d0]' --basis M --trace",
    "coproduct '[2,d1,3]' --basis L",
    "antipode '[d1,2,d0]' --basis M",
    # L paths with D3 and D4 steps over two cells and doubly-dotted cells
    "product '[d1,2]' '[d0,2]' --basis L --trace",
    # comp_of_tableau on 52 tableaux
    "schur '(2,0;2,1)' --show-tableaux",
    # L products whose signs cancel: two paths to 0; 99 paths, 22 gammas
    # cancelled, 55 terms; and a coefficient of 2
    "product '[d1]' '[d1]' --basis L",
    "product '[d0,1,d0]' '[1,d0,2]' --basis L",
    "product '[1,1]' '[1,1]' --basis L",
]

COMMANDS = [
    f"{cmd} --format {fmt}"
    for cmd in README + TEST_CLI + BRANCHES
    for fmt in ("plain", "latex", "json")
]


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def run(command: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(shlex.split(command))
    return {"code": code, "stdout": _digest(out.getvalue()), "stderr": _digest(err.getvalue())}


def capture() -> dict:
    return {command: run(command) for command in COMMANDS}


def test_cli_outputs_match_the_digests():
    want = json.loads(DIGESTS.read_text())
    assert sorted(want) == sorted(COMMANDS)
    changed = [c for c, got in capture().items() if got != want[c]]
    assert not changed, changed


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
