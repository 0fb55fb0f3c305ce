"""One cold pass of a workload in a fresh interpreter.

    python3 bench/child.py --workload W --seed N --trace 0|1 --spawned T

``--spawned`` is the parent's time.monotonic() just before it started this
process, so that set-up time counts interpreter start and imports.  Every
time the pass reports is in reference seconds (see refclock.py): the clock
starts first, and the interpreter start before it is scaled by the machine
speed the clock measured then.  The pass prints one JSON record on its last
line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import refclock
import workloads as wl


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cache_sizes(caches: dict[str, list]) -> dict[str, int]:
    return {
        f"{f.__module__}.{f.__qualname__}": f.cache_info().currsize
        for fns in caches.values()
        for f in fns
    }


def run_pass(workload: str, seed: int, trace: bool, spawned: float) -> dict:
    started = time.monotonic()
    clock = refclock.RefClock()
    clock.start()
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = wl.ADDRESS_SPACE_LIMIT if hard == resource.RLIM_INFINITY else min(hard, wl.ADDRESS_SPACE_LIMIT)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    sys.path.insert(0, str(wl.ROOT / "src"))
    import superqsym as sq
    import superqsym.cli  # noqa: F401

    import tracer as tr

    if not sq.__file__.startswith(str(wl.ROOT / "src")):
        raise SystemExit(f"superqsym imported from {sq.__file__}, not from this checkout")
    ops = wl.make_ops(workload, seed, sq)
    setup_s = (started - spawned) * clock.initial_factor + clock.now()

    modules = tr.package_modules()
    caches = tr.cached_functions(modules)
    warm = {k: v for k, v in cache_sizes(caches).items() if v}
    tracer = None
    if trace:
        tracer = tr.Tracer(clock.now)
        tracer.install(modules, sq)

    budget = wl.OP_BUDGET_S[workload]
    outputs: list = []
    lat: list[float] = []
    errors: list[str] = []
    now = clock.now
    t_start = now()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = i
        t0 = now()
        try:
            out = op.run()
        except Exception as exc:  # one failed operation must not end the pass
            out = None
            errors.append(f"{op.key}: {type(exc).__name__}: {exc}")
        dt = now() - t0
        outputs.append(out)
        lat.append(dt)
        if dt > budget:
            errors.append(f"{op.key}: {dt:.1f} s over the {budget:.0f} s budget")
            break
        if rss_mb() > wl.RSS_CEILING_MB:
            errors.append(f"{op.key}: RSS over {wl.RSS_CEILING_MB} MB")
            break
    wall_s = now() - t_start
    clock.stop()
    peak = rss_mb()

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics(caches)
        tracer.write(wl.ROOT / "bench_out" / f"spans-{workload}-{seed}.json")

    failed, attempted = check(workload, ops, outputs, sq, errors)
    if warm:
        errors.append(f"caches not empty when the timed phase started: {warm}")
    return {
        "workload": workload,
        "seed": seed,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ops": len(ops),
        "attempted": attempted,
        "failed": failed,
        "op_ms": [t * 1000.0 for t in lat],
        "out_bytes": sum(len(o[1].encode()) for o in outputs if workload == "cli_session" and o),
        "peak_rss_mb": peak,
        "slice_ms": statistics.median(clock.slices) * 1000.0,
        "errors": errors[:20],
        "layers": layers,
    }


def check(workload: str, ops, outputs, sq, errors: list[str]) -> tuple[int, int]:
    """Failed and attempted operations.  An hopf_axioms operation is one
    axiom item; the others are one query or shape each."""
    if workload == "hopf_axioms":
        items = wl.hopf_items(sq)
        report = outputs[0] if outputs else None
        if report is None or not wl.check_hopf(report):
            errors.append(f"verify_hopf report: {report!r}")
            return items, items
        return 0, items
    refs = {e["key"]: e for e in wl.load_refs(workload)}
    failed = len(ops) - len(outputs)
    for op, out in zip(ops, outputs):
        if out is None:
            failed += 1
            continue
        if workload == "cli_session" and out[0] != 0:
            failed += 1
            errors.append(f"{op.key}: exit code {out[0]}")
            continue
        if wl.output_digest(workload, out) != refs[op.key]["digest"]:
            failed += 1
            errors.append(f"{op.key}: output differs from the reference")
    return failed, len(ops)


def main(argv=None) -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned", type=float, required=True)
    args = p.parse_args(argv)
    record = run_pass(args.workload, args.seed, bool(args.trace), args.spawned)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
