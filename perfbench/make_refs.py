"""Regenerate perfbench/refs.json, the benchmark's stored references.

Run from the repository root:

    python3 perfbench/make_refs.py

Every value comes from an oracle that does not call the qstein solvers it
checks: the type-class simplex optimum and the fractional-knapsack
Neyman-Pearson test in ``tests/oracles.py``, and closed forms.  The duality
base instances are drawn here with plain numpy from a fixed seed and stored,
so the benchmark's inputs do not change when ``qstein.rand`` does.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFS_PATH = BENCH_DIR / "refs.json"

COHERENCE_P = 0.8
SWEEP_N = (2, 3, 4, 5, 6, 7)          # 2 and 3 serve the smoke mode
RATE_OFFSETS = (-0.25, -0.1, 0.0, 0.1, 0.25)
PIPELINE_OFFSETS = (-0.1, 0.0, 0.1)
DUALITY_BASE_SEED = 2401
DUALITY_INSTANCES = 48
DUALITY_KINDS = ("commuting", "full", "diagonal", "iid")
DUALITY_DIMS = (2, 3, 4, 5, 6)
DUALITY_KS = (2.0, 4.0, 8.0)
ISOTROPIC_F = 0.9


def load_oracles():
    spec = importlib.util.spec_from_file_location(
        "qstein_test_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def matrix_json(m: np.ndarray) -> dict:
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def duality_instances(oracles) -> list[dict]:
    """Slot i has kind KINDS[i % 4], d = 2 + (i // 4) % 5 and K cycling over
    2, 4, 8, so the sizes are the same for every benchmark seed."""
    rng = np.random.default_rng(DUALITY_BASE_SEED)
    out = []
    for i in range(DUALITY_INSTANCES):
        kind = DUALITY_KINDS[i % 4]
        j = i // 4
        d = DUALITY_DIMS[j % len(DUALITY_DIMS)]
        K = DUALITY_KS[j % len(DUALITY_KS)]
        inst = {"kind": kind, "d": d, "K": K, "ref": None}
        if kind == "commuting":
            eta = rng.dirichlet(np.ones(d))
            sig = rng.dirichlet(np.ones(d)) + 0.05
            sig /= sig.sum()
            inst["eta_diag"] = eta.tolist()
            inst["sigma0_diag"] = sig.tolist()
            inst["ref"] = float(oracles.classical_neyman_pearson(eta, sig,
                                                                 1.0 / K))
        else:
            inst["eta"] = matrix_json(random_density(rng, d))
            if kind == "iid":
                inst["sigma0"] = matrix_json(random_density(rng, d))
            if kind == "full":
                # max Tr[E eta] with Tr[E sigma] <= 1/K for every state sigma
                # forces E <= I/K, so the value is 1/K
                inst["ref"] = 1.0 / K
        out.append(inst)
    return out


def main() -> None:
    oracles = load_oracles()
    h = oracles.binary_entropy(COHERENCE_P)
    sweep_rows = []
    for n in SWEEP_N:
        for off in RATE_OFFSETS:
            y = h + off
            ref = oracles.diagonal_threshold_optimum(n, y, p=COHERENCE_P)
            sweep_rows.append({"N": n, "offset": off, "y": y, "ref": ref})
            print(f"sweep N={n} y={y:.6f} ref={ref:.10f}", flush=True)
    refs = {
        "generated_by": "perfbench/make_refs.py",
        "sweep": {
            "state": f"coherence:{COHERENCE_P}",
            "family": "diagonal",
            "source": "tests/oracles.diagonal_threshold_optimum",
            "rows": sweep_rows,
        },
        "duality": {
            "base_seed": DUALITY_BASE_SEED,
            "source": "tests/oracles.classical_neyman_pearson (commuting), "
                      "1/K (full family)",
            "instances": duality_instances(oracles),
        },
        "certify": {
            "state": f"coherence:{COHERENCE_P}",
            "rates": [h + off for off in PIPELINE_OFFSETS],
            "sandwich_per_copy": h,
            "sandwich_source": "relative entropy of coherence of a pure "
                               "qubit: h(p), additive over copies",
            "bell": {"1": 1.0, "2": 2.0},
            "bell_source": "E_R(Phi^{x n}) = n",
            "isotropic_F": ISOTROPIC_F,
            "isotropic": 1.0 - oracles.binary_entropy(ISOTROPIC_F),
            "isotropic_source": "E_R of the 2-qubit isotropic state: 1 - h(F)",
            "robustness_plus": 1.0,
            "robustness_source": "generalized robustness of |+> against "
                                 "diagonal states",
        },
    }
    REFS_PATH.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFS_PATH}")


if __name__ == "__main__":
    main()
