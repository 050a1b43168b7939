"""Command-line harness: exponent sweeps, verification suites, pipeline runs.

Subcommands: ``exponent``, ``verify``, ``pipeline``, ``pn``.  Exit codes:
0 pass, 1 verification failure, 2 usage (also a path that cannot be read or
written, or a family that does not fit the state), 3 premise out of
interval, 4 certificate failure, 5 dimension cap.  All CSV output is UTF-8
with a header row and 12 significant digits, and is byte-identical across
runs with the same config and seed.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import opalg, pipeline, verify
from .errors import (CertificateFailed, DimensionCap, PremiseOutOfInterval,
                     QSteinError, ShapeMismatch)
from .freesets import parse_family_spec
from .opalg import DensityMatrix, SystemShape
from .optim import (SolverSettings, hypothesis_dual, hypothesis_primal,
                    min_positive_part, rate_threshold)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_PREMISE = 3
EXIT_CERTIFICATE = 4
EXIT_DIMENSION = 5


def _fmt(x: float) -> str:
    return f"{x:.12g}"


class ConfigError(QSteinError):
    pass


def parse_config(path: str) -> dict[str, str]:
    """Plain-text ``key = value`` lines; ``#`` starts a comment."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def state_from_spec(spec: str) -> DensityMatrix:
    """State presets: coherence:<p>, bell, classical:<p>, or an operator file."""
    s = spec.strip()
    if s.startswith("coherence:"):
        p = float(s.split(":", 1)[1])
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"coherence weight must be in [0,1], got {p}")
        v = np.array([math.sqrt(p), math.sqrt(1.0 - p)])
        return DensityMatrix(SystemShape((2,)), np.outer(v, v))
    if s == "bell":
        v = np.zeros(4)
        v[0] = v[3] = 1.0 / math.sqrt(2.0)
        return DensityMatrix(SystemShape((4,)), np.outer(v, v))
    if s.startswith("classical:"):
        p = float(s.split(":", 1)[1])
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"classical weight must be in [0,1], got {p}")
        return DensityMatrix(SystemShape((2,)), np.diag([p, 1.0 - p]))
    if os.path.exists(s):
        return opalg.load_density(s)
    raise ConfigError(f"unknown state spec {spec!r}")


def _settings_from(cfg: dict[str, str], args) -> SolverSettings:
    """Flags override config keys, which override ``SolverSettings``'
    defaults."""
    given = {}
    for name, kind in (("max_iters", int), ("tol", float), ("seed", int)):
        if getattr(args, name, None) is not None:
            given[name] = getattr(args, name)
        elif name in cfg:
            given[name] = kind(cfg[name])
    return SolverSettings(**given)


def _floats(csv_text: str) -> list[float]:
    return [float(x) for x in csv_text.split(",") if x.strip()]


def _ints(csv_text: str) -> list[int]:
    return [int(x) for x in csv_text.split(",") if x.strip()]


# ---------------------------------------------------------------------------
# exponent
# ---------------------------------------------------------------------------

def _exponent_row(power, fam_spec, y_grid, settings):
    """Ascending-rate sweep at fixed N on ``power``, an ``opalg.Power``,
    each rate started at the previous rate's result.

    Only an annealed solve reads that start; the closed form of a pure
    power does not.  So the start guarantees no monotonicity:
    ``cmd_exponent`` checks that each row is at most the one before plus
    1e-12.
    """
    n = power.n
    family = parse_family_spec(fam_spec, power.base.total_dim, n)
    rows, res = [], None
    for y in sorted(y_grid):
        res = min_positive_part(power, rate_threshold(y, n), family,
                                settings, start=res)
        rows.append((n, y, res.value, res.fw_gap))
    return rows


def cmd_exponent(args) -> int:
    cfg = parse_config(args.config)
    rho = state_from_spec(cfg["state"])
    y_grid = _floats(cfg["y_grid"])
    n_grid = _ints(cfg["n_grid"])
    if not y_grid or not n_grid:
        raise ConfigError("y_grid and n_grid must be non-empty")
    settings = _settings_from(cfg, args)
    out_path = args.out or cfg.get("out", "exponent.csv")
    if args.threads is not None and args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    threads = args.threads or os.cpu_count() or 1
    powers = [opalg.Power(rho, n) for n in n_grid]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(_exponent_row, power, cfg["family"], y_grid,
                               settings) for power in powers]
        per_n = [f.result() for f in futures]
    lines = ["N,y,e,gap"]
    for rows in per_n:
        prev = None
        for n, y, e, gap in rows:
            if prev is not None and e > prev + 1e-12:
                raise QSteinError(
                    f"monotonicity violated at N={n}, y={y}: {e} > {prev}")
            prev = e
            lines.append(",".join([str(n), _fmt(y), _fmt(e), _fmt(gap)]))
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    if args.gnuplot:
        _write_gnuplot(out_path)
    print(f"wrote {out_path} ({len(lines) - 1} rows)")
    return EXIT_OK


def _write_gnuplot(csv_path: str) -> None:
    gp = csv_path + ".gp"
    with open(gp, "w", encoding="utf-8") as fh:
        fh.write(
            "set datafile separator ','\n"
            "set key autotitle columnhead\n"
            "set xlabel 'y'\nset ylabel 'e_N(y)'\n"
            f"plot '{csv_path}' using 2:3 with linespoints\n")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ConfigError("--trials must be at least 1")
    results = verify.run_suite(args.suite, args.trials, args.seed)
    lines = ["suite,check,trial,margin,tolerance"]
    failed = None
    for res in results:
        for i, m in enumerate(res.margins):
            lines.append(",".join([args.suite, res.name, str(i),
                                   _fmt(float(m)), _fmt(res.tolerance)]))
        status = "ok" if res.passed else "VIOLATION"
        print(f"{res.name}: worst margin {res.worst:.3e} "
              f"(tol {res.tolerance:.1e}) {status}")
        if not res.passed and failed is None:
            failed = res
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    if failed is not None:
        print(f"first failure: {failed.name} worst={failed.worst:.6e}")
        return EXIT_VERIFY_FAIL
    return EXIT_OK


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def cmd_pipeline(args) -> int:
    cfg = parse_config(args.config)
    rho = state_from_spec(cfg["state"])
    y = float(cfg["y"])
    n = int(cfg["n"])
    settings = _settings_from(cfg, args)
    family = parse_family_spec(cfg["family"], rho.total_dim, n)
    outdir = args.out or cfg.get("out", "trace")
    try:
        trace = pipeline.run_direct_part(rho, y, n, family, settings)
    except PremiseOutOfInterval as exc:
        if not args.expect_premise_fail:
            raise
        print(f"premise out of interval: {exc}")
        return EXIT_OK
    pipeline.save_trace(trace, outdir)
    for cert in trace.certificates:
        print(cert)
    print(f"trace written to {outdir}")
    if args.expect_premise_fail:
        print("expected a premise failure but the run succeeded")
        return EXIT_VERIFY_FAIL
    return EXIT_OK


# ---------------------------------------------------------------------------
# pn
# ---------------------------------------------------------------------------

def cmd_pn(args) -> int:
    cfg = parse_config(args.config)
    rho = state_from_spec(cfg["state"])
    n = int(cfg.get("n", "1"))
    if "k" in cfg:
        K = float(cfg["k"])
    elif "y" in cfg:
        K = rate_threshold(float(cfg["y"]), n)
    else:
        raise ConfigError("pn needs either 'k' or 'y' (with 'n') in the config")
    settings = _settings_from(cfg, args)
    family = parse_family_spec(cfg["family"], rho.total_dim, n)
    eta = opalg.Power(rho, n)
    primal = hypothesis_primal(eta, K, family, settings)
    dual = hypothesis_dual(eta, K, family, settings)
    print(f"primal = {_fmt(primal)}")
    print(f"dual   = {_fmt(dual)}")
    print(f"gap    = {_fmt(dual - primal)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    p = argparse.ArgumentParser(
        prog="steincli",
        description="Exponent sweeps, verification suites and certificate "
                    "pipelines for composite hypothesis testing.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--max-iters", dest="max_iters", type=int,
                        default=None)

    pe = sub.add_parser("exponent", help="rate sweep of the threshold minimum")
    pe.add_argument("--config", required=True)
    pe.add_argument("--out", default=None)
    pe.add_argument("--threads", type=int, default=None)
    pe.add_argument("--gnuplot", action="store_true")
    common(pe)
    pe.set_defaults(fn=cmd_exponent)

    pv = sub.add_parser("verify", help="randomized inequality suites")
    pv.add_argument("--suite", required=True)
    pv.add_argument("--trials", type=int, default=100)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--out", default=None)
    pv.set_defaults(fn=cmd_verify)

    pp = sub.add_parser("pipeline", help="run the direct-part certificate chain")
    pp.add_argument("--config", required=True)
    pp.add_argument("--out", default=None)
    pp.add_argument("--expect-premise-fail", action="store_true")
    common(pp)
    pp.set_defaults(fn=cmd_pipeline)

    pn = sub.add_parser("pn", help="primal and dual values of the test problem")
    pn.add_argument("--config", required=True)
    common(pn)
    pn.set_defaults(fn=cmd_pn)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except (ConfigError, ShapeMismatch, ValueError, KeyError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PremiseOutOfInterval as exc:
        print(f"premise out of interval: {exc}", file=sys.stderr)
        return EXIT_PREMISE
    except CertificateFailed as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CERTIFICATE
    except DimensionCap as exc:
        print(f"dimension cap: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except QSteinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
