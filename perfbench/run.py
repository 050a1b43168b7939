"""qstein benchmark: the sweep, duality and certify workloads.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload

One run sets up its workload (import, inputs, references), then repeats the
workload's fixed batch until ``--seconds`` have passed and the workload's
minimum number of passes is done, and checks every operation.  Each pass is
timed with a speed gauge (bench_gauge.py) that interleaves a fixed
calibration kernel, so times are reported at a reference speed.  With
``--trace 1`` it runs one more pass with every public entry point of qstein
wrapped in spans and reports the per-layer table.  It prints a table of every metric with its unit and, as the last
line, one JSON object: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer metrics.  Results and spans are written under
``.perfbench/results`` in the working directory.

BLAS is pinned to one thread before numpy loads and ``exponent`` runs with
two pool threads: on a 2-core box the product of the two must not exceed
the cores (NOTES.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
STATE_DIR = ".perfbench"
WORKLOAD_NAMES = ("sweep", "duality", "certify")
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CHILDREN = 3  # fresh-interpreter set-ups before, and again after, passes
SETUP_TIMEOUT_S = 120
CHILD_TIMEOUT_S = 900

# End-to-end metrics printed on the last line with --trace 0.  They are
# defined, and never 0, on every workload; the other end-to-end metrics
# (wall_s, op_p50_s, op_tail_s, failed_frac, n_max_accurate) are printed in
# the table, and failures also reach the last line as "attempted"/"failed".
END_TO_END_UNITS = {
    "wall_ref_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "accurate_frac": "share",
    "certified_frac": "share",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_qstein():
    src = ROOT / "src"
    if not (src / "qstein" / "__init__.py").is_file():
        sys.exit(f"error: no qstein sources under {src}")
    sys.path.insert(0, str(src))
    import qstein
    if Path(qstein.__file__).resolve().parent != (src / "qstein").resolve():
        sys.exit(f"error: imported qstein from {qstein.__file__}, "
                 f"not from {src}")
    return qstein


def source_fingerprint(np_version: str, scipy_version: str) -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qstein").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    h.update(f"{np_version} {scipy_version} blas={BLAS_THREADS}".encode())
    return h.hexdigest()


def blas_version(np) -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas']['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def child_argv(args, workload: str, *extra: str) -> list[str]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
            workload, "--seed", str(args.seed), "--seconds",
            str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        argv.append("--smoke")
    return argv + list(extra)


def setup_in_child(args) -> tuple[float, float]:
    """Set-up time of a fresh interpreter (import, inputs, references) and
    the calibration kernel's time per unit right after it."""
    out = subprocess.run(child_argv(args, args.workload, "--setup-only"),
                         capture_output=True, text=True, check=True,
                         timeout=SETUP_TIMEOUT_S)
    setup_s, unit_s = out.stdout.strip().splitlines()[-1].split()
    return float(setup_s), float(unit_s)


def run_gauged(workload, tally, cores):
    """One pass of the workload, timed by a speed gauge."""
    import bench_gauge
    gauge = bench_gauge.SpeedGauge(workload.kernel, cores)
    gauge.start()
    tally.gauge = gauge
    try:
        workload.run_pass(tally)
    finally:
        tally.gauge = None
    gauge.finish()
    return gauge


def tail_latency(latencies: list[float]):
    """Highest percentile with at least ten samples beyond it."""
    xs = sorted(latencies)
    k = len(xs) - 11
    if k < 0:
        return None
    return {"value": xs[k], "percentile": 100.0 * (k + 1) / len(xs),
            "samples": len(xs), "beyond": len(xs) - k - 1}


def run_one(args) -> int:
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    t0 = time.perf_counter()
    import_qstein()
    sys.path.insert(0, str(BENCH_DIR))
    import numpy as np
    import scipy

    import bench_workloads as bw

    cpus = sorted(os.sched_getaffinity(0))
    cores = cpus
    if bw.WORKLOADS[args.workload].threads == 1:
        # one CPU, so the gauge samples the CPU the operations run on
        os.sched_setaffinity(0, {cpus[0]})
        cores = None

    state = Path.cwd() / STATE_DIR
    workdir = state / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    (state / "results").mkdir(parents=True, exist_ok=True)
    digests = bw.DigestStore(state / "digests.json",
                             source_fingerprint(np.__version__,
                                                scipy.__version__))
    try:
        workload = bw.WORKLOADS[args.workload](args.seed, workdir, args.smoke,
                                               digests)
        own_setup = time.perf_counter() - t0
        # imported after set-up is timed: it loads scipy.optimize, which
        # qstein only loads on its first solve
        import bench_gauge
        own_unit = bench_gauge.unit_seconds("small", bench_gauge.SETUP_UNITS)
        if args.setup_only:
            print(repr(own_setup), repr(own_unit))
            return 0
        setup_samples = [(own_setup, own_unit)]
        if not args.trace:
            setup_samples += [setup_in_child(args)
                              for _ in range(SETUP_CHILDREN)]

        tally = bw.Tally()
        gauges = []
        start = time.perf_counter()
        while (len(gauges) < workload.min_passes
               or time.perf_counter() - start < args.seconds):
            gauges.append(run_gauged(workload, tally, cores))
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not args.trace:
            # this box's speed drifts over tens of seconds; sampling set-up
            # at both ends of the run keeps one slow spell from setting it
            setup_samples += [setup_in_child(args)
                              for _ in range(SETUP_CHILDREN)]

        layers = None
        traced = bw.Tally()
        if args.trace:
            from bench_trace import Tracer
            tracer = Tracer()
            tracer.install()
            try:
                traced_gauge = run_gauged(workload, traced, cores)
            finally:
                tracer.uninstall()
            layers = layer_report(
                tracer, traced_gauge.wall_s,
                traced_gauge.ref_s / statistics.median(
                    g.ref_s for g in gauges) - 1)
            tracer.write_spans(str(state / "results" / (
                f"{args.workload}-seed{args.seed}-spans.csv.gz")))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "settings": {
            "blas_threads": BLAS_THREADS,
            "exponent_threads": bw.EXPONENT_THREADS,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": blas_version(np),
            "cpus": os.cpu_count(),
            "pinned_cpu": None if cores else cpus[0],
            "gauge_cores": cores,
        },
        "passes": len(gauges),
        "pass_walls_s": [g.wall_s for g in gauges],
        "pass_ref_s": [g.ref_s for g in gauges],
        "pass_calibration_s": [g.calibration_s for g in gauges],
        "setup_samples": [{"setup_s": s, "unit_s": u}
                          for s, u in setup_samples],
        "counts": {"attempted": tally.attempted + traced.attempted,
                   "failed": tally.failed + traced.failed,
                   "with_reference": tally.with_reference,
                   "accurate": tally.accurate, "certified": tally.certified,
                   "timed_ops": len(tally.latencies)},
        "end_to_end": end_to_end(args.workload, gauges, setup_samples,
                                 peak_rss_mb, tally),
        "per_layer": layers,
        "problems": (tally.problems + traced.problems)[:50],
        "ops": tally.ops,
    }
    out = state / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print_report(result)
    print(f"results written to {out}")
    print(json.dumps(last_line(result, args.trace)))
    return 0


def end_to_end(workload, gauges, setup_samples, peak_rss_mb, tally) -> dict:
    """Every end-to-end metric; a value of None is printed as n/a."""
    from bench_gauge import KERNELS
    lat = tally.latencies
    tail = tail_latency(lat) if workload == "duality" else None
    setup_ref = [s * KERNELS["small"][1] / u for s, u in setup_samples]
    out = {
        "wall_ref_s": {"value": statistics.median(g.ref_s for g in gauges),
                       "unit": "s", "passes": len(gauges),
                       "calibration_s": sum(g.calibration_s for g in gauges)},
        "wall_s": {"value": statistics.median(g.wall_s for g in gauges),
                   "unit": "s"},
        "op_p50_s": {"value": statistics.median(lat), "unit": "s",
                     "ops": len(lat)},
        "op_tail_s": {"value": None, "unit": "s", "ops": len(lat),
                      **(tail or {})},
        "setup_s": {"value": statistics.median(setup_ref), "unit": "s",
                    "samples": setup_ref},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        "failed_frac": {"value": tally.failed / tally.attempted,
                        "unit": "share", "failed": tally.failed,
                        "attempted": tally.attempted},
        "accurate_frac": {
            "value": (tally.accurate / tally.with_reference
                      if tally.with_reference else None),
            "unit": "share", "accurate": tally.accurate,
            "with_reference": tally.with_reference},
        "certified_frac": {"value": tally.certified / tally.attempted,
                           "unit": "share", "certified": tally.certified,
                           "attempted": tally.attempted},
        "n_max_accurate": {"value": (min(tally.n_max_accurate)
                                     if tally.n_max_accurate else None),
                           "unit": "count"},
    }
    if workload != "duality":
        for name in ("op_p50_s", "op_tail_s"):
            out[name].update(value=None, why="duality only: too few ops")
    elif tail is None:
        out["op_tail_s"]["why"] = "fewer than 11 ops"
    if workload != "sweep":
        out["n_max_accurate"]["why"] = "sweep only"
    return out


def layer_report(tracer, traced_wall: float, overhead: float) -> dict:
    from bench_trace import PER_LAYER_UNITS
    table = tracer.layer_table()
    self_total = sum(row["self_s"] for row in table.values()
                     if row is not table.get("opalg.eigh"))
    return {
        "metrics": tracer.per_layer_metrics(overhead),
        "units": PER_LAYER_UNITS,
        "table": table,
        "counters": tracer.counters(),
        "traced_wall_s": traced_wall,
        "threads": tracer.threads(),
        "self_total_s": self_total,
        "spans": len(tracer.spans),
    }


def last_line(result: dict, trace: int) -> dict:
    counts = result["counts"]
    if trace:
        layers = result["per_layer"]
        metrics = {name: {"value": layers["metrics"][name], "unit": unit}
                   for name, unit in layers["units"].items()}
    else:
        e2e = result["end_to_end"]
        metrics = {name: {"value": e2e[name]["value"], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    return {"correct": counts["failed"] == 0,
            "attempted": counts["attempted"], "failed": counts["failed"],
            "metrics": metrics}


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_report(result: dict) -> None:
    s = result["settings"]
    c = result["counts"]
    print(f"== {result['workload']}  seed={result['seed']}  "
          f"passes={result['passes']}  "
          f"{'smoke  ' if result['smoke'] else ''}"
          f"blas_threads={s['blas_threads']}  "
          f"exponent_threads={s['exponent_threads']}  numpy={s['numpy']}  "
          f"scipy={s['scipy']}  blas={s['blas']}")
    print(f"   ops attempted={c['attempted']} failed={c['failed']} "
          f"with_reference={c['with_reference']} accurate={c['accurate']} "
          f"certified={c['certified']} timed={c['timed_ops']}")
    print(f"   {'metric':<16}{'value':>14}  {'unit':<7}note")
    for name, m in result["end_to_end"].items():
        note = ""
        if m["value"] is None:
            note = m.get("why", "")
        elif name == "op_tail_s":
            note = (f"p{m['percentile']:.1f} of {m['samples']} ops, "
                    f"{m['beyond']} beyond")
        elif name in ("op_p50_s",):
            note = f"{m['ops']} ops"
        elif name == "wall_ref_s":
            note = (f"at reference speed, median of {m['passes']} passes; "
                    f"{m['calibration_s']:.1f} s calibrating")
        elif name == "wall_s":
            note = "as measured, not gated: the box's speed swings"
        elif name == "setup_s":
            note = ("at reference speed, median of "
                    + ", ".join(f"{x:.3f}" for x in m["samples"]))
        elif name == "failed_frac":
            note = f"{m['failed']} of {m['attempted']}"
        elif name == "accurate_frac":
            note = f"{m['accurate']} of {m['with_reference']} with reference"
        elif name == "certified_frac":
            note = f"{m['certified']} of {m['attempted']}"
        print(f"   {name:<16}{_fmt(m['value']):>14}  {m['unit']:<7}{note}")
    for problem in result["problems"][:10]:
        print(f"   problem: {problem}")
    layers = result["per_layer"]
    if layers:
        print(f"   per-layer table (traced pass {layers['traced_wall_s']:.3f} "
              f"s, {layers['threads']} threads, {layers['spans']} spans, "
              f"self total {layers['self_total_s']:.3f} s)")
        print(f"   {'layer':<42}{'calls':>9}{'s':>11}{'self_s':>11}")
        for name in sorted(layers["table"]):
            row = layers["table"][name]
            print(f"   {name:<42}{row['calls']:>9}{row['s']:>11.4f}"
                  f"{row['self_s']:>11.4f}")
        print(f"   {'metric':<42}{'value':>14}  unit")
        for name, unit in layers["units"].items():
            print(f"   {name:<42}{_fmt(layers['metrics'][name]):>14}  {unit}")


def run_all(args) -> int:
    """Each workload in its own process, then one combined table."""
    summary, ok = {}, True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(child_argv(args, name), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            ok = False
            continue
        path = Path.cwd() / STATE_DIR / "results" / (
            f"{name}-seed{args.seed}-trace{args.trace}.json")
        summary[name] = json.loads(path.read_text(encoding="utf-8"))
    if summary:
        key = "per_layer" if args.trace else "end_to_end"
        names = list(summary)
        if args.trace:
            rows = list(next(iter(summary.values()))[key]["units"])
            cell = lambda r, m: r[key]["metrics"][m]  # noqa: E731
        else:
            rows = list(next(iter(summary.values()))[key])
            cell = lambda r, m: r[key][m]["value"]  # noqa: E731
        print("== all workloads")
        print(f"   {'metric':<42}" + "".join(f"{n:>14}" for n in names))
        for m in rows:
            print(f"   {m:<42}" + "".join(f"{_fmt(cell(summary[n], m)):>14}"
                                          for n in names))
        print("   ops attempted/failed: " + ", ".join(
            f"{n} {r['counts']['attempted']}/{r['counts']['failed']}"
            for n, r in summary.items()))
    return 0 if ok and len(summary) == len(WORKLOAD_NAMES) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
