"""The superqsym benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs cold passes of one workload back to back, each in a fresh interpreter
(the package's lru_cache memos are process-global), until S seconds have
gone.  Times are in reference seconds: wall time scaled by the machine
speed measured while it passed (refclock.py).  It prints each metric by
name with its unit, and as its last line one JSON object: {"correct",
"attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones, taken from untraced passes.  With
--trace 1 untraced and traced passes alternate and the metrics are the
per-layer ones, plus trace_overhead: traced wall time over untraced.
See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import refclock  # noqa: E402
import workloads as wl  # noqa: E402

RUN_DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "hopf.self_s": "s",
    "hopf.calls": "count",
    "hopf.terms": "count",
    "hopf.terms_per_path": "ratio",
    "algebra.self_s": "s",
    "algebra.calls": "count",
    "algebra.render_s": "s",
    "composition.self_s": "s",
    "composition.items": "count",
    "composition.cache_hit_ratio": "ratio",
    "shuffles.self_s": "s",
    "shuffles.paths": "count",
    "shuffles.cache_hit_ratio": "ratio",
    "shuffles.cache_entries": "count",
    "shuffles.share": "ratio",
    "shuffles.tail_share": "ratio",
    "cli.self_s": "s",
    "cli.out_bytes": "B",
    "realize.self_s": "s",
    "realize.monomials": "count",
    "realize.cache_entries": "count",
    "superschur.self_s": "s",
    "superschur.tableaux": "count",
    "superschur.strip_calls": "count",
    "superschur.strip_accept_ratio": "ratio",
    "superschur.cache_hit_ratio": "ratio",
    "trace_overhead": "ratio",
}


def run_child(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(int(trace)), "--spawned", repr(spawned)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median_latencies(passes: list[dict]) -> list[float]:
    """Each operation's median latency over the run's passes, in ms.  Every
    pass repeats the same operations from the same cold start."""
    return [statistics.median(col) for col in zip(*(p["op_ms"] for p in passes))]


def median_of(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def end_to_end(passes: list[dict]) -> dict[str, float]:
    """Medians over passes; latencies per operation, then percentiles over
    the operations."""
    lat = median_latencies(passes)
    wall_s = median_of(passes, "wall_s")
    return {
        "setup_s": median_of(passes, "setup_s"),
        "wall_s": wall_s,
        "ops_per_s": passes[0]["attempted"] / wall_s,
        "op_p50_ms": quantile(lat, 50),
        "op_p90_ms": quantile(lat, 90),
        "peak_rss_mb": median_of(passes, "peak_rss_mb"),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    """Medians over the traced passes, and the traced over the untraced
    median wall time."""
    out = {}
    for name in PER_LAYER:
        if name == "trace_overhead":
            out[name] = median_of(traced, "wall_s") / median_of(untraced, "wall_s")
        elif name == "cli.out_bytes":
            out[name] = median_of(traced, "out_bytes")
        else:
            out[name] = statistics.median(p["layers"][name] for p in traced)
    return out


def trace_consistent(p: dict) -> bool:
    """Per-layer self times must add up to the top-level spans' total."""
    layers = p["layers"]
    return layers["self_sum_error_s"] <= 1e-6 + 1e-9 * layers["traced_total_s"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t0 = time.monotonic()
    if not (ROOT / "src" / "superqsym" / "__init__.py").is_file():
        print(f"error: no superqsym package under {ROOT / 'src'}", file=sys.stderr)
        return 1
    # Compile the package's bytecode once, so that no timed pass pays for it.
    sys.path.insert(0, str(ROOT / "src"))
    import superqsym.cli  # noqa: F401

    untraced: list[dict] = []
    traced: list[dict] = []
    while True:
        elapsed = time.monotonic() - t0
        enough = untraced and (traced or not args.trace)
        if enough and elapsed >= args.seconds:
            break
        trace = bool(args.trace) and len(traced) < len(untraced)
        try:
            p = run_child(args.workload, args.seed, trace, RUN_DEADLINE_S - elapsed)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
            return 1
        (traced if trace else untraced).append(p)

    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = [e for p in passes for e in p["errors"]]
    correct = not errors and failed == 0 and all(trace_consistent(p) for p in traced)
    for e in errors[:10]:
        print(f"check failed: {e}")

    if args.trace:
        metrics, units = per_layer(untraced, traced), PER_LAYER
    else:
        metrics, units = end_to_end(untraced), END_TO_END
    ops = untraced[0]["ops"]
    print(
        f"{args.workload} seed {args.seed}: {len(untraced)} untraced + {len(traced)} traced "
        f"cold passes, {untraced[0]['attempted']} operations each ({ops} timed); "
        "times are medians over passes, in reference seconds"
    )
    print(
        f"  machine speed: a calibration slice took {median_of(passes, 'slice_ms'):.3f} ms "
        f"(median), {refclock.REFERENCE_SLICE_S * 1000:.3f} ms in a reference second"
    )
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    print(f"  {'fail_ratio':32s} {failed / attempted:14.6g} ratio")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
