"""The benchmark's three workloads: inputs from a seed, passes, checks.

Each workload is a closed loop with one client: the next operation starts
when the previous one returns.  ``setup`` builds every input (config files,
states, families) and loads the stored references; ``run_pass`` runs the
fixed batch once and records every operation in a :class:`Tally`.

Why these workloads (NOTES.md has the measurements):

* ``sweep``: ``steincli exponent`` on the coherent qubit at N = 4..7 (dims
  16-128).  Frank-Wolfe on large matrices: the FW driver, ``eigh``, the
  SLSQP corrective step and the thread pool.
* ``duality``: primal and dual test values on 48 instances of dimension
  2..6.  Many tiny solves, bound by per-call overhead: the same layers as
  ``sweep`` at the other end of the size axis.
* ``certify``: ``steincli pipeline`` at N = 5..7 plus library calls.  The
  only workload that runs ``symmetry``, ``pipeline``, ``entropy`` and the
  separable-hull seesaw oracle.

The seed never changes problem sizes or values, only the numbers the
program sees: ``duality`` applies a symmetry of each stored base instance
(a unitary conjugation the family is invariant under, or a permutation of
the basis); ``certify`` puts a seeded phase on ``|+>`` and passes the seed
to the pipeline configs and the diagonal-family solvers.  References
therefore stay valid and run time stays comparable across seeds.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qstein import cli, opalg, optim, pipeline
from qstein.freesets import (DiagonalFamily, FullSpaceFamily,
                             SingletonIIDFamily, parse_family_spec)
from qstein.optim import SolverSettings

REFS_PATH = Path(__file__).resolve().with_name("refs.json")

# Tolerances are those of the acceptance tests, never looser.
SWEEP_TOL = 1e-4          # criterion 2, type-class oracle (one-sided here)
KNAPSACK_TOL = 1e-6       # criterion 4, Neyman-Pearson oracle
BELL_TOL = 1e-3           # criterion 3, E_R(Phi) = 1
ROBUSTNESS_TOL = 1e-4     # criterion 3, robustness of |+>
COHERENCE_TOL = 1e-6      # criterion 3, relative entropy of coherence
DUAL_CERT_GAP = 1e-4      # criterion 4, commuting duality gap
WEAK_DUALITY_SLACK = 1e-6  # criterion 4, weak duality
MONOTONE_SLACK = 1e-12    # the exponent command's own monotonicity check
WITNESS_TOL = 1e-9        # feasibility of the robustness witness

EXPONENT_THREADS = 2
DUALITY_SETTINGS = SolverSettings(max_iters=120, tol=1e-8, seed=0)


@dataclass
class Tally:
    """Counts over every operation of a run."""

    attempted: int = 0
    failed: int = 0
    with_reference: int = 0
    accurate: int = 0
    certified: int = 0
    latencies: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    n_max_accurate: list[int] = field(default_factory=list)
    ops: list[dict] = field(default_factory=list)
    # a bench_gauge.SpeedGauge, ticked between operations
    gauge: object | None = None

    def record(self, name: str, problems=(), accurate: bool | None = None,
               certified: bool = False, seconds: float | None = None) -> None:
        self.ops.append({"op": name, "failed": bool(problems),
                         "accurate": accurate,
                         "certified": bool(certified) and not problems,
                         "latency_s": seconds})
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems)
        if accurate is not None:
            self.with_reference += 1
            self.accurate += bool(accurate)
        self.certified += bool(certified) and not problems


class DigestStore:
    """Digests of outputs that must be byte-identical across runs of one
    version of the code at the pinned thread settings."""

    def __init__(self, path: Path, fingerprint: str):
        self.path = path
        self.fingerprint = fingerprint
        self.entries = (json.loads(path.read_text(encoding="utf-8"))
                        if path.exists() else {})

    def matches(self, key: str, data: bytes) -> bool:
        """True unless an earlier run stored a different digest for key."""
        k = hashlib.sha256(f"{self.fingerprint}\0{key}".encode()).hexdigest()
        digest = hashlib.sha256(data).hexdigest()
        old = self.entries.get(k)
        if old is None:
            self.entries[k] = digest
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.entries, indent=0),
                           encoding="utf-8")
            os.replace(tmp, self.path)
            return True
        return old == digest


def load_refs() -> dict:
    return json.loads(REFS_PATH.read_text(encoding="utf-8"))


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _matrix(entry: dict) -> np.ndarray:
    return np.array(entry["re"]) + 1j * np.array(entry["im"])


def _conj(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    return u @ m @ u.conj().T


def _in_unit_interval(value: float) -> list[str]:
    if not -MONOTONE_SLACK <= value <= 1.0 + MONOTONE_SLACK:
        return [f"value {value!r} outside [0, 1]"]
    return []


def _timed(tally: Tally, fn, *args):
    """Call fn, timing it; returns (result, error text or None, seconds)."""
    start = time.perf_counter()
    result, err = None, None
    try:
        result = fn(*args)
    except Exception as exc:  # a raising operation is a failed operation
        err = f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    tally.latencies.append(seconds)
    if tally.gauge is not None:
        tally.gauge.tick()
    return result, err, seconds


def _quiet_cli(argv: list[str]) -> int:
    with redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Workload:
    name = ""
    min_passes = 1
    threads = 1  # threads the operations run on
    kernel = "small"  # the speed gauge's kernel (bench_gauge.KERNELS)

    def __init__(self, seed: int, workdir: Path, smoke: bool,
                 digests: DigestStore):
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke
        self.digests = digests
        workdir.mkdir(parents=True, exist_ok=True)
        self.setup(load_refs())

    def setup(self, refs: dict) -> None:
        raise NotImplementedError

    def run_pass(self, tally: Tally) -> None:
        raise NotImplementedError


class Sweep(Workload):
    """``steincli exponent``, coherence:0.8 against diagonal states."""

    name = "sweep"
    threads = EXPONENT_THREADS
    kernel = "mid"

    def setup(self, refs: dict) -> None:
        sweep = refs["sweep"]
        self.n_grid = [2, 3] if self.smoke else [4, 5, 6, 7]
        rows = [r for r in sweep["rows"] if r["N"] in self.n_grid]
        self.ys = sorted({r["y"] for r in rows})
        self.refs = {(r["N"], self.ys.index(r["y"])): r["ref"] for r in rows}
        self.cfg_text = (
            f"state = {sweep['state']}\nfamily = {sweep['family']}\n"
            f"y_grid = {','.join(repr(y) for y in self.ys)}\n"
            f"n_grid = {','.join(str(n) for n in self.n_grid)}\n"
            f"seed = {self.seed}\n")
        self.cfg = self.workdir / "exponent.cfg"
        self.cfg.write_text(self.cfg_text, encoding="utf-8")
        self.out = self.workdir / "exponent.csv"
        # the exponent command's default gap target, as no tol is configured
        self.gap_tol = SolverSettings().tol

    def run_pass(self, tally: Tally) -> None:
        if self.out.exists():
            self.out.unlink()
        rc, err, _ = _timed(tally, _quiet_cli,
                            ["exponent", "--config", str(self.cfg), "--out",
                             str(self.out), "--threads",
                             str(EXPONENT_THREADS)])
        expected = [(n, i) for n in self.n_grid for i in range(len(self.ys))]
        common = []
        if err or rc != 0:
            common.append(err or f"exit code {rc}")
            rows = {}
        else:
            data = self.out.read_bytes()
            if not self.digests.matches(self.cfg_text, data):
                common.append("CSV differs from an earlier run of this code")
            rows = self._parse(data.decode("utf-8"), common)
        accurate_by_n: dict[int, bool] = {}
        for n, i in expected:
            name = f"sweep N={n} y={self.ys[i]:.6f}"
            row = rows.get((n, i))
            if row is None:
                tally.record(name, common or ["row missing from the CSV"])
                accurate_by_n[n] = False
                continue
            y, e, gap = row
            problems = list(common) + _in_unit_interval(e)
            if abs(y - self.ys[i]) > 1e-9:
                problems.append(f"rate {y!r} does not match the config")
            if i > 0 and (n, i - 1) in rows and e > rows[(n, i - 1)][1] + \
                    MONOTONE_SLACK:
                problems.append("value increases with the rate")
            ok = e <= self.refs[(n, i)] + SWEEP_TOL
            accurate_by_n[n] = accurate_by_n.get(n, True) and ok
            tally.record(name, problems, accurate=ok,
                         certified=gap <= self.gap_tol)
        n_max = 0
        for n in self.n_grid:
            if not accurate_by_n.get(n, False):
                break
            n_max = n
        tally.n_max_accurate.append(n_max)

    def _parse(self, text: str, problems: list[str]) -> dict:
        rows, seen = {}, {}
        reader = csv.reader(io.StringIO(text))
        if next(reader, None) != ["N", "y", "e", "gap"]:
            problems.append("CSV header is not N,y,e,gap")
            return rows
        for rec in reader:
            try:
                n, y, e, gap = int(rec[0]), *map(float, rec[1:4])
            except (ValueError, IndexError, TypeError):
                problems.append(f"malformed CSV row {rec!r}")
                return {}
            i = seen.get(n, 0)
            seen[n] = i + 1
            rows[(n, i)] = (y, e, gap)
        return rows


class Duality(Workload):
    """``hypothesis_primal`` and ``hypothesis_dual`` on the stored base
    instances, each moved by a seeded symmetry of its family."""

    name = "duality"

    def setup(self, refs: dict) -> None:
        base = refs["duality"]["instances"]
        if self.smoke:
            base = base[:4]
        rng = np.random.default_rng(self.seed)
        self.instances = []
        for i, inst in enumerate(base):
            d, kind = inst["d"], inst["kind"]
            if kind == "commuting":
                perm = rng.permutation(d)
                eta = np.diag(np.array(inst["eta_diag"])[perm])
                fam = SingletonIIDFamily(
                    d, 1, sigma0=np.diag(np.array(inst["sigma0_diag"])[perm]))
            elif kind == "diagonal":
                # permutations and diagonal phases map diagonal states to
                # diagonal states
                u = np.eye(d)[rng.permutation(d)] * np.exp(
                    2j * np.pi * rng.random(d))
                eta = _conj(u, _matrix(inst["eta"]))
                fam = DiagonalFamily(d, 1)
            else:
                u = haar_unitary(rng, d)
                eta = _conj(u, _matrix(inst["eta"]))
                fam = (FullSpaceFamily(d, 1) if kind == "full" else
                       SingletonIIDFamily(
                           d, 1, sigma0=_conj(u, _matrix(inst["sigma0"]))))
            self.instances.append((f"{kind}[{i}] d={d} K={inst['K']:g}",
                                   opalg.density(eta), inst["K"], fam,
                                   inst["ref"]))

    def run_pass(self, tally: Tally) -> None:
        for label, eta, K, fam, ref in self.instances:
            p, p_err, p_s = _timed(tally, optim.hypothesis_primal, eta, K,
                                   fam, DUALITY_SETTINGS)
            du, d_err, d_s = _timed(tally, optim.hypothesis_dual, eta, K,
                                    fam, DUALITY_SETTINGS)
            certified = (p_err is None and d_err is None
                         and du - p <= DUAL_CERT_GAP)
            p_problems = [p_err] if p_err else _in_unit_interval(p)
            d_problems = [d_err] if d_err else _in_unit_interval(du)
            if not p_err and not d_err and du < p - WEAK_DUALITY_SLACK:
                d_problems.append(f"dual {du!r} below primal {p!r}")
            for name, value, problems, seconds in (
                    ("primal", p, p_problems, p_s),
                    ("dual", du, d_problems, d_s)):
                accurate = None
                if ref is not None:
                    accurate = (not problems
                                and abs(value - ref) <= KNAPSACK_TOL)
                tally.record(f"{label} {name}", problems, accurate=accurate,
                             certified=certified, seconds=seconds)


class _ConvergenceObserver:
    """Collects ``OptResult.converged`` from the solvers ``pipeline`` calls."""

    NAMES = ("min_positive_part", "distance_to_family", "rel_ent_of_resource")

    def __init__(self):
        self.flags: list[bool] = []
        self._saved = {}

    def __enter__(self):
        for name in self.NAMES:
            original = getattr(pipeline, name)
            self._saved[name] = original

            def observed(*args, _fn=original, **kwargs):
                res = _fn(*args, **kwargs)
                self.flags.append(bool(res.converged))
                return res
            setattr(pipeline, name, observed)
        return self

    def __exit__(self, *exc):
        for name, original in self._saved.items():
            setattr(pipeline, name, original)
        return False


class Certify(Workload):
    """``steincli pipeline`` runs plus resource measures from the library."""

    name = "certify"
    # a 15 s batch: two passes per run average out part of this box's
    # second-to-second speed swings
    min_passes = 2

    def setup(self, refs: dict) -> None:
        cert = refs["certify"]
        self.refs = cert
        rng = np.random.default_rng(self.seed)
        rates = cert["rates"][1:2] if self.smoke else cert["rates"]
        copies = (4,) if self.smoke else (5, 6, 7)
        self.pipelines = []
        for n in copies:
            for k, y in enumerate(rates):
                text = (f"state = {cert['state']}\nfamily = diagonal\n"
                        f"y = {y!r}\nn = {n}\nseed = {self.seed}\n")
                cfg = self.workdir / f"pipeline_{n}_{k}.cfg"
                cfg.write_text(text, encoding="utf-8")
                self.pipelines.append((f"pipeline N={n} y={y:.6f}", text, cfg,
                                       self.workdir / f"trace_{n}_{k}"))
        p = float(cert["state"].split(":")[1])
        v = np.array([math.sqrt(p), math.sqrt(1.0 - p)])
        self.coherent = opalg.density(np.outer(v, v))
        self.sandwich_copies = 2 if self.smoke else 3
        self.settings = SolverSettings(max_iters=256, tol=1e-7,
                                       seed=self.seed)
        # Fixed inputs and solver seed for the separable hull: its seesaw
        # oracle stops with an exit gap of about 1.2e-7 against the 1e-7
        # target on the Bell state, so whether that op certifies flips with
        # the restarts' seed and with local rotations of the state.
        self.sep_settings = SolverSettings(max_iters=400, tol=1e-7, seed=0)
        self.robust_settings = SolverSettings(max_iters=120, tol=1e-8,
                                              seed=self.seed)
        bell = np.zeros(4)
        bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
        phi = np.outer(bell, bell)
        self.entangled = []
        for n in ((1,) if self.smoke else (1, 2)):
            mat = phi if n == 1 else np.kron(phi, phi)
            self.entangled.append(
                (f"E_R bell x{n}", opalg.density(mat),
                 parse_family_spec("sep:2x2", 4, n), cert["bell"][str(n)]))
        F = cert["isotropic_F"]
        iso = F * phi + (1.0 - F) * (np.eye(4) - phi) / 3.0
        self.entangled.append(
            (f"E_R isotropic F={F}", opalg.density(iso),
             parse_family_spec("sep:2x2", 4, 1), cert["isotropic"]))
        phase = np.exp(2j * np.pi * rng.random())
        plus = np.array([1.0, phase]) / math.sqrt(2.0)
        self.plus = opalg.density(np.outer(plus, plus.conj()))

    def run_pass(self, tally: Tally) -> None:
        for name, text, cfg, outdir in self.pipelines:
            certs = outdir / "certificates.csv"
            if certs.exists():
                certs.unlink()
            with _ConvergenceObserver() as seen:
                rc, err, seconds = _timed(
                    tally, _quiet_cli,
                    ["pipeline", "--config", str(cfg), "--out", str(outdir)])
            problems = []
            if err or rc != 0:
                problems.append(err or f"exit code {rc}")
            elif not certs.exists():
                problems.append("no certificates.csv written")
            else:
                data = certs.read_bytes()
                table = list(csv.DictReader(io.StringIO(data.decode())))
                failing = [r.get("name") for r in table
                           if r.get("pass") != "true"]
                if failing or not table:
                    problems.append(f"certificates not passing: {failing}")
                if not self.digests.matches(text, data):
                    problems.append("certificates.csv differs from an "
                                    "earlier run of this code")
            tally.record(name, problems,
                         certified=not problems and all(seen.flags),
                         seconds=seconds)
        self._library_ops(tally)

    def _library_ops(self, tally: Tally) -> None:
        fam = DiagonalFamily(2, self.sandwich_copies)
        with _ConvergenceObserver() as seen:
            rep, err, seconds = _timed(tally, pipeline.finite_n_sandwich,
                                       self.coherent, fam, 1e-4,
                                       self.settings)
        name = f"sandwich N={self.sandwich_copies}"
        if err:
            tally.record(name, [err], accurate=False, seconds=seconds)
        else:
            problems = []
            if not rep.lower_bound <= rep.eps_value <= rep.upper_bound + 1e-12:
                problems.append("sandwich bracket violated")
            ok = abs(rep.upper_bound - self.refs["sandwich_per_copy"]) <= \
                COHERENCE_TOL
            tally.record(name, problems, accurate=ok,
                         certified=rep.certificate.passed and all(seen.flags),
                         seconds=seconds)

        for name, rho, family, ref in self.entangled:
            res, err, seconds = _timed(tally, optim.rel_ent_of_resource, rho,
                                       family, self.sep_settings)
            if err:
                tally.record(name, [err], accurate=False, seconds=seconds)
                continue
            problems = [] if res.value >= -BELL_TOL else [
                f"negative relative entropy {res.value!r}"]
            tally.record(name, problems,
                         accurate=abs(res.value - ref) <= BELL_TOL,
                         certified=res.converged, seconds=seconds)

        out, err, seconds = _timed(tally, optim.generalized_robustness,
                                   self.plus, DiagonalFamily(2, 1),
                                   self.robust_settings, 1e-6, True)
        name = "robustness |+>"
        if err:
            tally.record(name, [err], accurate=False, seconds=seconds)
            return
        s, witness = out
        # (1 + s) sigma >= rho certifies s as an upper bound
        margin = float(np.linalg.eigvalsh(
            (1.0 + s) * witness.mat - self.plus.mat)[0])
        problems = [] if s >= 0.0 else [f"negative robustness {s!r}"]
        tally.record(name, problems,
                     accurate=abs(s - self.refs["robustness_plus"])
                     <= ROBUSTNESS_TOL,
                     certified=margin >= -WITNESS_TOL, seconds=seconds)


WORKLOADS = {cls.name: cls for cls in (Sweep, Duality, Certify)}
