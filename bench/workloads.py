"""The benchmark's three workloads: seeded inputs, the operations one pass
times, and the reference checks run after the timed phase.

Inputs for ``cli_session`` and ``schur_expand`` are drawn from fixed
catalogues stored in ``refs/``.  Each catalogue entry carries the digest of
its output at the commit that defined the benchmark and its work: the count
its cost grows with.  A seed sorts each query kind by work, cuts it into as
many bands as the kind has queries in a session, and draws one entry from
each band, so two seeds run different inputs with the same bidegree and work
profile.  Every entry has a reference, so every seed is checked.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path
from typing import Callable, NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFS_DIR = BENCH_DIR / "refs"

WORKLOADS = ("hopf_axioms", "cli_session", "schur_expand")

# verify_hopf(5, 2): the library path behind
# `superqsym verify --max-degree 5 --max-fermionic 2`.
HOPF_DEGREES = (5, 2)
HOPF_CHECKS = tuple(
    f"{check}_{basis}"
    for basis in ("M", "L")
    for check in ("counit", "coassociativity", "convolution", "bialgebra")
) + ("antipode_bullet_M", "antipode_odot_M", "bullet_L", "odot_L")

# cli_session query kinds: (kind, catalogue entries, queries per session).
# The catalogue builder in make_refs.py fixes each kind's bidegrees.
CLI_KINDS = (
    ("product_L", 96, 64),
    ("product_M", 120, 40),
    ("antipode_columns", 120, 20),
    ("antipode_monomial", 60, 12),
    ("antipode_M", 80, 12),
    ("coproduct", 120, 24),
    ("convert", 120, 24),
    ("realize", 80, 24),
    ("schur", 63, 16),
)

# schur_expand: straight shapes with |Lambda| <= 6 and 1-3 circles, and with
# |Lambda| = 7 and one circle, in groups by (degree, circles); a seed draws
# this share of each group.  A degree-7 shape with 2-3 circles costs up to
# 0.4 s, so a few of them would decide a pass's time by which ones a seed drew.
SCHUR_MAX_DEGREE = 7
SCHUR_SHARE = 0.9
SCHUR_SKEW_QUOTA = 8

# Guards: an operation over its time budget, or a pass over the RSS ceiling,
# fails the run.  The address-space limit keeps a runaway query from taking
# the machine's memory.
OP_BUDGET_S = {"hopf_axioms": 60.0, "cli_session": 5.0, "schur_expand": 5.0}
RSS_CEILING_MB = 1024
ADDRESS_SPACE_LIMIT = 3 << 30


class Op(NamedTuple):
    """One timed operation: ``key`` names it in the references, ``run``
    performs it and returns its raw output."""

    key: str
    run: Callable[[], object]


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def expr_digest(e) -> str:
    """Digest of an expansion from its terms alone, so that the check does
    not depend on the package's own rendering."""
    items = sorted((str(alpha), str(c)) for alpha, c in e.terms.items())
    return digest(e.basis + repr(items))


def load_refs(workload: str) -> list[dict]:
    """The workload's catalogue; a cli entry's key is its argv joined."""
    with open(REFS_DIR / f"{workload}.json") as fh:
        entries = json.load(fh)["entries"]
    for e in entries:
        e.setdefault("key", " ".join(e.get("argv", ())))
    return entries


def work_bands(entries: list[dict], quota: int) -> list[list[dict]]:
    """``quota`` bands of near-equal count, in order of work.  A few product_L
    queries cost ten times the median one, so a plain sample would make the
    session's time follow the seed."""
    ordered = sorted(entries, key=lambda e: (e["work"], e["key"]))
    n = len(ordered)
    return [ordered[i * n // quota : (i + 1) * n // quota] for i in range(quota)]


def draw(workload: str, seed: int, entries: list[dict]) -> list[dict]:
    """The entries one seed runs, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    groups: dict[str, list[dict]] = {}
    for e in entries:
        groups.setdefault(e["group"], []).append(e)
    picked = []
    for group in sorted(groups):
        members = groups[group]
        quota = quota_for(workload, group, len(members))
        picked.extend(rng.choice(band) for band in work_bands(members, quota))
    rng.shuffle(picked)
    return picked


def quota_for(workload: str, group: str, size: int) -> int:
    if workload == "cli_session":
        return dict((k, q) for k, _, q in CLI_KINDS)[group]
    if group == "skew":
        return SCHUR_SKEW_QUOTA
    return max(1, round(SCHUR_SHARE * size))


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def cli_output_digest(out: tuple[int, str]) -> str:
    code, text = out
    return digest(f"{code}\n{text}")


def make_ops(workload: str, seed: int, sq) -> list[Op]:
    """Generate a pass's operations; ``sq`` is the imported package."""
    if workload == "hopf_axioms":
        return [Op("verify_hopf(%d,%d)" % HOPF_DEGREES, lambda: sq.verify_hopf(*HOPF_DEGREES))]
    if workload == "cli_session":
        from superqsym import cli

        return [
            Op(e["key"], lambda argv=e["argv"]: run_cli(cli, argv))
            for e in draw(workload, seed, load_refs(workload))
        ]
    if workload == "schur_expand":
        ops = []
        for e in draw(workload, seed, load_refs(workload)):
            outer = sq.Superpartition.parse(e["outer"])
            inner = sq.Superpartition.parse(e["inner"]) if e["inner"] else sq.superschur.EMPTY_SHAPE
            ops.append(Op(e["key"], lambda o=outer, i=inner: sq.schur_to_L(o, i)))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def hopf_items(sq) -> int:
    """Axiom items verify_hopf(5, 2) checks: six checks run over the single
    compositions and six over the admissible pairs."""
    n, m = HOPF_DEGREES
    singles = sq.universe(n, m)
    pairs = sum(
        1
        for a in singles
        for b in singles
        if a.total_degree + a.fermionic_degree + b.total_degree + b.fermionic_degree <= n
        and a.fermionic_degree + b.fermionic_degree <= m
    )
    return 6 * len(singles) + 6 * pairs


def output_digest(workload: str, out) -> str:
    if workload == "cli_session":
        return cli_output_digest(out)
    return expr_digest(out)


def check_hopf(report) -> bool:
    return report.passed and tuple(c.name for c in report.checks) == HOPF_CHECKS
