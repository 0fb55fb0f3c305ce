"""The benchmark command end to end: metric names and units, reference checks
on the default and a held-out seed, the trace's self-time identity, and
failure outside a checkout."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer as tr  # noqa: E402

DEFAULT_SEED = 0
HELD_OUT_SEED = 99


def run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", ["cli_session", "schur_expand"])
@pytest.mark.parametrize("seed", [DEFAULT_SEED, HELD_OUT_SEED])
def test_outputs_match_references(workload, seed):
    proc = run(workload, seed, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert "fail_ratio" in proc.stdout


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_metrics_list_every_name_with_its_unit(trace, section):
    proc = run("hopf_axioms", DEFAULT_SEED, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in spec()[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, unit in want.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in proc.stdout.splitlines()), name


def test_traced_run_reports_layers_where_the_work_is():
    proc = run("schur_expand", DEFAULT_SEED, 1)
    assert proc.returncode == 0, proc.stderr
    m = {k: v["value"] for k, v in json.loads(proc.stdout.splitlines()[-1])["metrics"].items()}
    assert m["superschur.self_s"] > m["shuffles.self_s"] == 0
    assert m["superschur.tableaux"] > 0 and 0 < m["superschur.strip_accept_ratio"] < 1


def test_self_times_sum_to_top_level_total():
    sys.path.insert(0, str(ROOT / "src"))
    import superqsym as sq
    import superqsym.cli  # noqa: F401

    modules = tr.package_modules()
    original = sq.hopf.product_L
    tracer = tr.Tracer(time.perf_counter)
    tracer.install(modules, sq)
    try:
        assert sq.hopf.product_L is not original
        a, b = sq.parse_composition("[d1,2,1]"), sq.parse_composition("[2,d0]")
        sq.antipode(sq.product_L(a, b), via="monomial")
    finally:
        tracer.uninstall()
    assert sq.hopf.product_L is original and sq.product_L is original
    selfs, total = tracer.self_times()
    assert total > 0 and abs(sum(selfs) - total) < 1e-9
    layers = {tracer.layer_of(s) for s in range(len(selfs))}
    assert {"hopf", "shuffles", "algebra", "composition"} <= layers


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("cli_session", DEFAULT_SEED, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
