"""Smoke tests of the benchmark itself, at tiny sizes.

Each workload runs once untraced and once traced in a subprocess (the
benchmark pins BLAS threads before numpy loads, which an in-process call
could not do).  The tests check that the emitted metric names are exactly
those declared in BENCHMARK.json, that every operation passes its checks,
and that the traced self times fit in the traced wall time of the threads
that recorded them.  One more checks the speed gauge's arithmetic.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("sweep", "duality", "certify")


def run_bench(cwd: Path, workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    results = json.loads((cwd / ".perfbench" / "results" / (
        f"{workload}-seed3-trace{trace}.json")).read_text())
    return last, results


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_declared_metrics(tmp_path, declared, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        last, results = run_bench(tmp_path, workload, trace)
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0, results["problems"]
        assert last["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in declared[key]}
        got = {name: m["unit"] for name, m in last["metrics"].items()}
        assert got == want
        assert all(isinstance(m["value"], (int, float))
                   for m in last["metrics"].values())
        if trace:
            layers = results["per_layer"]
            assert layers["self_total_s"] <= (
                layers["threads"] * layers["traced_wall_s"] + 1e-6)
            assert layers["spans"] > 0


def test_determinism_check_flags_a_changed_output(tmp_path):
    """A stored digest that no longer matches counts as failed operations."""
    run_bench(tmp_path, "sweep", 0)
    store = tmp_path / ".perfbench" / "digests.json"
    entries = json.loads(store.read_text())
    assert entries
    store.write_text(json.dumps({k: "0" * 64 for k in entries}))
    last, results = run_bench(tmp_path, "sweep", 0)
    assert not last["correct"]
    assert last["failed"] == last["attempted"]
    assert any("differs from an earlier run" in p
               for p in results["problems"])


def test_gauge_scales_each_stretch_by_the_kernel_speed_around_it():
    sys.path.insert(0, str(BENCH_DIR))
    import bench_gauge
    gauge = bench_gauge.SpeedGauge("small")
    ref = gauge.ref_unit_s
    # the kernel ran at the reference speed, then at half of it, twice
    gauge.samples = [(10, 10 * ref), (10, 20 * ref), (5, 10 * ref)]
    gauge.stretches = [3.0, 4.0]
    assert gauge.wall_s == pytest.approx(7.0)
    assert gauge.ref_s == pytest.approx(3.0 / 1.5 + 4.0 / 2.0)
