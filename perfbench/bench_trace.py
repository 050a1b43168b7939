"""Span tracer that wraps qstein's public entry points from outside.

Nothing under ``src/`` is edited: :meth:`Tracer.install` rebinds each traced
function in every ``qstein`` module that holds it (``eigh`` is imported by
name into several modules, so patching ``opalg.eigh`` alone would miss most
calls), patches the free families' ``lmo`` methods and
``DensityMatrix.__post_init__`` on their classes, and patches
``scipy.optimize.minimize``, which ``optim`` looks up on every call.
:meth:`Tracer.uninstall` puts every original back.

Each span records name, start, end, parent span and thread.  Each thread
keeps its own span stack, because ``steincli exponent`` runs a thread pool.
Spans stay in memory until :meth:`Tracer.write_spans` is called at the end
of the run.  A span's self time is its duration minus the durations of its
children, which lie inside it on the same thread.
"""

from __future__ import annotations

import csv
import functools
import gzip
import itertools
import os
import sys
import threading
import time

import numpy as np

EIGH_SMALL_MAX = 16
EIGH_MID_MAX = 128

OPTIM_ENTRY_POINTS = ("min_positive_part", "hypothesis_primal",
                      "hypothesis_dual", "rel_ent_of_resource",
                      "distance_to_family", "generalized_robustness")
SYMMETRY_ENTRY_POINTS = ("twirl", "perm_invariant_purification",
                         "conditioned_state", "truncate_to_almost_power",
                         "verify_power_inequality", "beta_truncation_delta")
PIPELINE_ENTRY_POINTS = ("step1", "step2", "relent_bound_certificate",
                         "asym_free_certificate", "finite_n_sandwich",
                         "save_trace")
LMO_KINDS = ("diagonal", "iid", "full", "sep")

# Per-layer metrics printed on every traced run, with their units.  Counts
# repeat exactly between runs of one commit; times are only listed here for
# layers that all three workloads exercise (see NOTES.md), the others are in
# the full table written next to the results.
PER_LAYER_UNITS: dict[str, str] = {
    "opalg.eigh.small.calls": "count",
    "opalg.eigh.small.s": "s",
    "opalg.eigh.mid.calls": "count",
    "opalg.eigh.large.calls": "count",
    "opalg.eigh.work_n3": "n3",
    "opalg.eigh.bytes": "B",
    "opalg.eigh.complex_calls": "count",
    "opalg.DensityMatrix.calls": "count",
    "opalg.DensityMatrix.s": "s",
    **{f"freesets.lmo.{k}.calls": "count" for k in LMO_KINDS},
    "freesets.lmo.diagonal.s": "s",
    "freesets.lmo.diagonal.self_s": "s",
    "optim.slsqp.calls": "count",
    "optim.slsqp.s": "s",
    "optim.slsqp.self_s": "s",
    "optim.slsqp.nfev": "count",
    "optim.slsqp.success_frac": "share",
    **{f"optim.{f}.calls": "count" for f in OPTIM_ENTRY_POINTS},
    "optim.min_positive_part.s": "s",
    "optim.dual.inner_solves": "solves/call",
    "optim.fw.iterations": "count",
    **{f"symmetry.{f}.calls": "count" for f in SYMMETRY_ENTRY_POINTS},
    "entropy.relative_entropy.calls": "count",
    "pipeline.certificates": "count",
    "pipeline.save_trace.bytes": "B",
    "cli.main.calls": "count",
    "cli.csv.bytes": "B",
    "trace.overhead_frac": "share",
}


class Tracer:
    """Records spans around qstein's public entry points while installed."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, name, start, end, parent, thread)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counters: list[dict[str, float]] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _thread_state(self):
        loc = self._local
        try:
            return loc.stack, loc.counters
        except AttributeError:
            loc.stack, loc.counters = [], {}
            loc.thread = threading.get_ident()
            with self._lock:
                self._counters.append(loc.counters)
            return loc.stack, loc.counters

    def count(self, key: str, amount: float = 1) -> None:
        _, counters = self._thread_state()
        counters[key] = counters.get(key, 0) + amount

    def wrap(self, name, fn, after=None, name_of=None):
        """Wrap ``fn`` in a span; ``after(tracer, args, kwargs, result)``
        adds counts and ``name_of(args)`` picks the span name per call."""
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, _ = self._thread_state()
            span_name = name_of(args) if name_of else name
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, span_name, start, end, parent,
                              local.thread))
            if after is not None:
                after(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapper) -> None:
        """Replace ``original`` in every loaded qstein module that holds it."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "qstein"
                                   or modname.startswith("qstein.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        import scipy.optimize

        from qstein import cli, entropy, freesets, opalg, optim, pipeline
        from qstein import symmetry

        self._rebind_everywhere(
            opalg.eigh, self.wrap("opalg.eigh", opalg.eigh,
                                  after=_after_eigh, name_of=_eigh_name))
        cls = opalg.DensityMatrix
        self._set(cls, "__post_init__",
                  self.wrap("opalg.DensityMatrix", cls.__post_init__))
        for fam in (freesets.DiagonalFamily, freesets.SingletonIIDFamily,
                    freesets.FullSpaceFamily, freesets.SeparableHullFamily):
            self._set(fam, "lmo",
                      self.wrap(f"freesets.lmo.{fam.kind}", fam.lmo))
        self._set(scipy.optimize, "minimize",
                  self.wrap("optim.slsqp", scipy.optimize.minimize,
                            after=_after_minimize))
        groups = ((optim, "optim", OPTIM_ENTRY_POINTS),
                  (symmetry, "symmetry", SYMMETRY_ENTRY_POINTS),
                  (entropy, "entropy", ("relative_entropy",)),
                  (pipeline, "pipeline", PIPELINE_ENTRY_POINTS),
                  (cli, "cli", ("main",)))
        afters = {"save_trace": _after_save_trace, "main": _after_cli_main}
        for mod, label, names in groups:
            for fname in names:
                original = getattr(mod, fname)
                after = afters.get(fname)
                if label == "optim":
                    after = _after_optresult
                self._rebind_everywhere(
                    original, self.wrap(f"{label}.{fname}", original,
                                        after=after))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        child = {}
        for sid, _, start, end, parent, _ in self.spans:
            if parent:
                child[parent] = child.get(parent, 0.0) + (end - start)
        table: dict[str, dict[str, float]] = {}
        for sid, name, start, end, _, _ in self.spans:
            row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            dur = end - start
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child.get(sid, 0.0)
        eigh_rows = [table[k] for k in table if k.startswith("opalg.eigh.")]
        if eigh_rows:
            table["opalg.eigh"] = {key: sum(r[key] for r in eigh_rows)
                                   for key in ("calls", "s", "self_s")}
        return table

    def counters(self) -> dict[str, float]:
        out: dict[str, float] = {}
        with self._lock:
            for counters in self._counters:
                for key, value in counters.items():
                    out[key] = out.get(key, 0) + value
        return out

    def threads(self) -> int:
        return len({span[5] for span in self.spans}) or 1

    def inner_solves_per_dual(self) -> float:
        """min_positive_part calls made under hypothesis_dual, per dual."""
        names = {sid: (name, parent)
                 for sid, name, _, _, parent, _ in self.spans}
        duals = sum(1 for name, _ in names.values()
                    if name == "optim.hypothesis_dual")
        if not duals:
            return 0.0
        inner = 0
        for name, parent in names.values():
            if name != "optim.min_positive_part":
                continue
            while parent:
                pname, parent = names[parent]
                if pname == "optim.hypothesis_dual":
                    inner += 1
                    break
        return inner / duals

    def per_layer_metrics(self, overhead_frac: float) -> dict[str, float]:
        """The values of every name in PER_LAYER_UNITS."""
        table, counts = self.layer_table(), self.counters()
        out: dict[str, float] = {}
        for name in PER_LAYER_UNITS:
            if name.endswith((".calls", ".s", ".self_s")):
                layer, _, key = name.rpartition(".")
                out[name] = table.get(layer, {}).get(key, 0)
            else:
                out[name] = counts.get(name, 0)
        slsqp_calls = table.get("optim.slsqp", {}).get("calls", 0)
        out["optim.slsqp.success_frac"] = (
            counts.get("optim.slsqp.successes", 0) / slsqp_calls
            if slsqp_calls else 0.0)
        out["optim.dual.inner_solves"] = self.inner_solves_per_dual()
        out["trace.overhead_frac"] = overhead_frac
        return out

    def write_spans(self, path: str) -> None:
        """All spans as gzipped CSV; times are seconds from the first span."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start_s", "end_s", "parent",
                             "thread"])
            for sid, name, start, end, parent, thread in self.spans:
                writer.writerow([sid, name, f"{start - t0:.9f}",
                                 f"{end - t0:.9f}", parent, thread])


def _eigh_name(args) -> str:
    n = np.shape(args[0])[0]
    if n <= EIGH_SMALL_MAX:
        return "opalg.eigh.small"
    if n <= EIGH_MID_MAX:
        return "opalg.eigh.mid"
    return "opalg.eigh.large"


def _after_eigh(tracer, args, kwargs, result) -> None:
    m = np.asarray(args[0])
    n = m.shape[0]
    tracer.count("opalg.eigh.work_n3", n ** 3)
    tracer.count("opalg.eigh.bytes", m.nbytes)
    # same test as opalg.eigh: complex input with a visible imaginary part
    if np.iscomplexobj(m) and m.size and float(np.abs(m.imag).max()) >= 1e-14:
        tracer.count("opalg.eigh.complex_calls")


def _after_minimize(tracer, args, kwargs, result) -> None:
    tracer.count("optim.slsqp.nfev", int(getattr(result, "nfev", 0)))
    tracer.count("optim.slsqp.successes", int(bool(result.success)))


def _after_optresult(tracer, args, kwargs, result) -> None:
    iterations = getattr(result, "iterations", None)
    if iterations is not None:
        tracer.count("optim.fw.iterations", iterations)


def _after_save_trace(tracer, args, kwargs, result) -> None:
    trace, outdir = args[0], args[1]
    tracer.count("pipeline.certificates", len(trace.certificates))
    tracer.count("pipeline.save_trace.bytes",
                 sum(e.stat().st_size for e in os.scandir(outdir)
                     if e.is_file()))


def _after_cli_main(tracer, args, kwargs, result) -> None:
    argv = list(args[0]) if args else []
    if argv[:1] == ["exponent"] and "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.isfile(path):
            tracer.count("cli.csv.bytes", os.path.getsize(path))
