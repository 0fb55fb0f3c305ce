"""Seeded inputs: the same seed gives the same inputs, another seed gives
other inputs with the same profile, and a pass starts with every cache of the
package empty."""

import subprocess
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402

SEEDED = ("cli_session", "schur_expand")


def profile(workload, entries):
    """Group and work band of each drawn entry."""
    catalogue = wl.load_refs(workload)
    out = Counter()
    for group in {c["group"] for c in catalogue}:
        members = [c for c in catalogue if c["group"] == group]
        bands = wl.work_bands(members, wl.quota_for(workload, group, len(members)))
        for i, band in enumerate(bands):
            out[group, i] = sum(e in band for e in entries)
    return out


def bidegrees(entries):
    """Bidegree of each composition operand, per query kind."""
    sys.path.insert(0, str(wl.ROOT / "src"))
    from superqsym import parse_composition

    out = Counter()
    for e in entries:
        for arg in e.get("argv", ())[1:]:
            if arg.startswith("["):
                out[e["group"], parse_composition(arg).degrees()] += 1
    return out


def test_same_seed_same_inputs():
    for workload in SEEDED:
        catalogue = wl.load_refs(workload)
        assert wl.draw(workload, 3, catalogue) == wl.draw(workload, 3, wl.load_refs(workload))


def test_other_seed_other_inputs_same_profile():
    for workload in SEEDED:
        catalogue = wl.load_refs(workload)
        a, b = wl.draw(workload, 0, catalogue), wl.draw(workload, 1, catalogue)
        assert [e["key"] for e in a] != [e["key"] for e in b]
        assert {e["key"] for e in a} != {e["key"] for e in b}
        assert set(profile(workload, a).values()) == {1}
        assert profile(workload, a) == profile(workload, b)
        assert bidegrees(a) == bidegrees(b)


def test_session_sizes():
    """At least 100 operations, so that p90 has ten samples above it."""
    assert len(wl.draw("cli_session", 0, wl.load_refs("cli_session"))) >= 190
    assert len(wl.draw("schur_expand", 0, wl.load_refs("schur_expand"))) >= 140


def test_caches_are_empty_when_the_timed_phase_starts():
    """Generating a pass's inputs fills no lru_cache of the package."""
    script = f"""
import sys
sys.path[:0] = [{str(BENCH)!r}, {str(wl.ROOT / "src")!r}]
import superqsym as sq, superqsym.cli
import tracer, workloads
for w in workloads.WORKLOADS:
    workloads.make_ops(w, 0, sq)
caches = tracer.cached_functions(tracer.package_modules())
assert sum(len(fns) for fns in caches.values()) >= 6, caches
full = [f.__qualname__ for fns in caches.values() for f in fns if f.cache_info().currsize]
assert not full, full
"""
    subprocess.run([sys.executable, "-c", script], check=True, timeout=120)
