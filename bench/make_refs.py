"""Build the query catalogues in refs/ and record each entry's reference
output digest and work.

Run from the repository root:  python3 bench/make_refs.py

The references are the standard every later run is checked against, so
rebuild them only when an output is meant to change, and cross-check them
with bench/tests/test_bench_refs.py against the polynomial oracle.
"""

from __future__ import annotations

import json
import random
import sys

from workloads import (
    CLI_KINDS,
    REFS_DIR,
    ROOT,
    SCHUR_MAX_DEGREE,
    cli_output_digest,
    expr_digest,
    run_cli,
)

sys.path.insert(0, str(ROOT / "src"))

import superqsym as sq  # noqa: E402
from superqsym import cli  # noqa: E402

CATALOGUE_SEED = 20241120
FORMATS = ("plain", "json", "latex")


def _comps(n: int, m: int) -> list[str]:
    return [str(a) for a in sq.compositions_of(n, m)]


def cli_candidates(kind: str) -> list[list[str]]:
    """Every query of a kind.  Operands come from one fixed bidegree per
    kind, never from a part count: the bidegree bounds the part count, which
    keeps `antipode --via monomial` to at most four parts."""
    if kind in ("product_L", "product_M"):
        basis = kind[-1]
        return [
            ["product", a, b, "--basis", basis, "--format", f]
            for a in _comps(4, 2)
            for b in _comps(4, 1)
            for f in FORMATS
        ]
    if kind == "antipode_columns":
        return [["antipode", a, "--basis", "L", "--format", f] for a in _comps(5, 2) for f in FORMATS]
    if kind == "antipode_monomial":
        return [
            ["antipode", a, "--basis", "L", "--via", "monomial", "--format", f]
            for a in _comps(3, 1)
            for f in FORMATS
        ]
    if kind == "antipode_M":
        return [["antipode", a, "--basis", "M", "--format", f] for a in _comps(5, 2) for f in FORMATS]
    if kind == "coproduct":
        return [
            ["coproduct", a, "--basis", basis, "--format", f]
            for a in _comps(5, 2)
            for basis in ("M", "L")
            for f in FORMATS
        ]
    if kind == "convert":
        return (
            [["convert", a, "--from", "L", "--to", "M", "--format", f] for a in _comps(5, 1) for f in FORMATS]
            + [["convert", a, "--from", "M", "--to", "L", "--format", f] for a in _comps(4, 1) for f in FORMATS]
            + [["convert", a, "--from", "Lbar", "--to", "M", "--format", f] for a in _comps(4, 1) for f in FORMATS]
        )
    if kind == "realize":
        return [
            ["realize", f"{basis}{a}", "--vars", "5", "--format", f]
            for a in _comps(3, 1)
            for basis in ("L", "M")
            for f in ("plain", "json")
        ]
    if kind == "schur":
        return [
            ["schur", str(lam), "--format", f]
            for m in (1, 2)
            for lam in sq.superpartitions(4, m)
            for f in FORMATS
        ]
    raise ValueError(kind)


def build_cli() -> list[dict]:
    rng = random.Random(CATALOGUE_SEED)
    entries = []
    for kind, size, _quota in CLI_KINDS:
        candidates = cli_candidates(kind)
        for argv in rng.sample(candidates, min(size, len(candidates))):
            code, text = run_cli(cli, argv)
            if code != 0:
                raise SystemExit(f"catalogue query failed: {argv}")
            entries.append(
                {
                    "group": kind,
                    "argv": argv,
                    "digest": cli_output_digest((code, text)),
                    "work": cli_work(kind, argv, text),
                }
            )
    return entries


def cli_work(kind: str, argv: list[str], text: str) -> int:
    """What a query's cost grows with: the grid paths or overlapping
    shuffles a product enumerates, else the characters it prints."""
    if kind == "product_L":
        return len(sq.fundamental_paths(*map(sq.parse_composition, argv[1:3])))
    if kind == "product_M":
        return len(sq.overlapping_shuffles(*map(sq.parse_composition, argv[1:3])))
    return len(text)


def _schur_entry(group: str, outer, inner) -> dict:
    """A shape's work is the number of dot-standard tableaux it walks."""
    e = sq.schur_to_L(outer, inner)
    inner_text = str(inner) if inner.degree or inner.n_circles else ""
    return {
        "key": f"{outer}/{inner_text}",
        "group": group,
        "outer": str(outer),
        "inner": inner_text,
        "digest": expr_digest(e),
        "work": len(sq.dot_standard_tableaux(outer, inner)),
    }


def build_schur() -> list[dict]:
    entries = []
    for d in range(SCHUR_MAX_DEGREE + 1):
        for m in (1, 2, 3) if d < SCHUR_MAX_DEGREE else (1,):
            for lam in sq.superpartitions(d, m):
                entries.append(_schur_entry(f"d{d}c{m}", lam, sq.superschur.EMPTY_SHAPE))
    rng = random.Random(CATALOGUE_SEED)
    skew = [
        (outer, inner)
        for m in (1, 2)
        for outer in sq.superpartitions(6, m)
        for k, c in ((1, 0), (2, 0), (1, 1), (2, 1))
        for inner in sq.superpartitions(k, c)
        if outer.contains(inner)
    ]
    for outer, inner in rng.sample(skew, len(skew)):
        entry = _schur_entry("skew", outer, inner)
        if entry["work"]:
            entries.append(entry)
        if sum(e["group"] == "skew" for e in entries) == 32:
            break
    return entries


def write(workload: str, entries: list[dict]) -> None:
    path = REFS_DIR / f"{workload}.json"
    lines = ",\n".join(json.dumps(e) for e in entries)
    with open(path, "w") as fh:
        fh.write(f'{{"catalogue_seed": {CATALOGUE_SEED}, "entries": [\n{lines}\n]}}\n')
    print(f"{path.relative_to(ROOT)}: {len(entries)} entries")


def main() -> None:
    write("cli_session", build_cli())
    write("schur_expand", build_schur())


if __name__ == "__main__":
    main()
