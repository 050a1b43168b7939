"""Independent oracles used to pin expected values.

Everything here is deliberately written against different primitives than
the library paths it checks: closed-form scalar expressions, exhaustive
index sums, binomial enumerations, simplex optimization over type classes,
and grid searches.
"""

from __future__ import annotations

from math import comb, log2, sqrt

import numpy as np
from scipy.optimize import minimize


def binary_entropy(p: float) -> float:
    out = 0.0
    if 0.0 < p:
        out -= p * log2(p)
    if p < 1.0:
        out -= (1.0 - p) * log2(1.0 - p)
    return out


def kron_index_formula(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a x b)[ik, jl] = a[i, j] b[k, l] assembled entry by entry."""
    n, m = a.shape[0], b.shape[0]
    out = np.zeros((n * m, n * m), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(m):
                for ell in range(m):
                    out[i * m + k, j * m + ell] = a[i, j] * b[k, ell]
    return out


def partial_trace_index_sum(mat: np.ndarray, dims: tuple[int, ...],
                            drop: int) -> np.ndarray:
    """Brute-force double-index sum for tracing one subsystem."""
    keep_dims = [d for i, d in enumerate(dims) if i != drop]
    dk = int(np.prod(keep_dims))
    out = np.zeros((dk, dk), dtype=complex)
    full = mat.reshape(dims + dims)
    n = len(dims)
    for idx in np.ndindex(*dims):
        for jdx in np.ndindex(*dims):
            if idx[drop] != jdx[drop]:
                continue
            ik = [x for t, x in enumerate(idx) if t != drop]
            jk = [x for t, x in enumerate(jdx) if t != drop]
            ii = int(np.ravel_multi_index(ik, keep_dims)) if keep_dims else 0
            jj = int(np.ravel_multi_index(jk, keep_dims)) if keep_dims else 0
            out[ii, jj] += full[idx + jdx]
    return out


def classical_threshold_value(N: int, y: float, p: float = 0.75,
                              q0: float = 0.5) -> float:
    """Exact binomial sum for diag(p,1-p) against the IID (q0,1-q0) state."""
    t_base = 2.0 ** (y * N)
    total = 0.0
    for k in range(N + 1):
        lam = p ** k * (1.0 - p) ** (N - k)
        thr = t_base * q0 ** k * (1.0 - q0) ** (N - k)
        if lam > thr:
            total += comb(N, k) * (lam - thr)
    return total


def classical_neyman_pearson(eta_diag: np.ndarray, sigma_diag: np.ndarray,
                             budget: float) -> float:
    """Fractional-knapsack most powerful test for diagonal instances."""
    order = np.argsort(-(eta_diag / np.maximum(sigma_diag, 1e-300)))
    value, left = 0.0, budget
    for i in order:
        if sigma_diag[i] <= left:
            value += eta_diag[i]
            left -= sigma_diag[i]
        else:
            value += eta_diag[i] * left / sigma_diag[i]
            left = 0.0
            break
    return min(1.0, value)


def coherence_power_state(p: float, N: int) -> np.ndarray:
    theta = np.array([sqrt(p), sqrt(1.0 - p)])
    rho1 = np.outer(theta, theta)
    out = rho1.copy()
    for _ in range(N - 1):
        out = np.kron(out, rho1)
    return out


def diagonal_threshold_optimum(N: int, y: float, p: float = 0.8,
                               starts: int = 4, seed: int = 0) -> float:
    """Type-class simplex optimum of the threshold quantity, via SLSQP.

    Permutation symmetry reduces the diagonal family to one weight per
    Hamming class; the problem is convex, so any local optimum is global.
    """
    rng = np.random.default_rng(seed)
    rp = coherence_power_state(p, N)
    b = 2.0 ** (y * N)
    idx = np.array([bin(i).count("1") for i in range(2 ** N)])
    mult = np.array([comb(N, k) for k in range(N + 1)], dtype=float)

    def f(w):
        diag = w[idx] / mult[idx]
        ev = np.linalg.eigvalsh(rp - b * np.diag(diag))
        return float(ev[ev > 0.0].sum())

    cons = [{"type": "eq", "fun": lambda w: w.sum() - 1.0}]
    best = None
    for _ in range(starts):
        res = minimize(f, rng.dirichlet(np.ones(N + 1)), method="SLSQP",
                       bounds=[(0.0, 1.0)] * (N + 1), constraints=cons,
                       options={"maxiter": 600, "ftol": 1e-14})
        if best is None or res.fun < best:
            best = float(res.fun)
    return best


def diagonal_dual_optimum(N: int, K: float, p: float = 0.8) -> float:
    """Type-class optimum of the hypothesis-test dual of the pure power
    state against the diagonal family, min over b <= K and free sigma of
    Tr[(psi psi^T - b sigma)_+] + b/K.

    With X = b sigma = sum_k x_k P_k / C(N,k), psi psi^T - X is rank one
    minus positive, so its positive part is its one eigenvalue lam >= 0,
    the least lam with sum_k C(N,k)^2 q_k / (C(N,k) lam + x_k) <= 1, where
    q_k = p^(N-k) (1-p)^k is the weight of one string of Hamming weight k.
    Minimizing lam + sum_k x_k / K over (lam, x) is then a smooth convex
    program, independent of the dense solvers.
    """
    c = np.array([comb(N, k) for k in range(N + 1)], dtype=float)
    q = np.array([p ** (N - k) * (1.0 - p) ** k for k in range(N + 1)])
    cons = [{"type": "ineq",
             "fun": lambda z: 1.0 - np.sum(c * c * q / (c * z[0] + z[1:]))},
            {"type": "ineq", "fun": lambda z: K - z[1:].sum()}]
    z0 = np.concatenate([[1.0], K * c * q])
    res = minimize(lambda z: z[0] + z[1:].sum() / K, z0, method="SLSQP",
                   bounds=[(1e-12, None)] * (N + 2), constraints=cons,
                   options={"maxiter": 1000, "ftol": 1e-15})
    return float(res.fun)


def hull_minimum_slsqp(eval_fn, atoms, maxiter: int = 80) -> float:
    """Least value of a solver evaluator over the hull of ``atoms`` (pairs
    [matrix, weight], started at their weights), via SLSQP on the weight
    simplex.

    ``eval_fn(mat, need_grad)`` returns (value, gradient, exact value); the
    result is the value at SLSQP's weights clipped to be nonnegative and
    normalized, so it is attained on the hull.
    """
    mats = [m for m, _ in atoms]

    def point(w):
        return sum(wi * m for wi, m in zip(w, mats))

    def fun(w):
        value, grad, _ = eval_fn(point(w), True)
        return value, np.array([np.einsum("ij,ji->", grad, m).real
                                for m in mats])

    res = minimize(fun, np.array([w for _, w in atoms], dtype=float),
                   jac=True, method="SLSQP", bounds=[(0.0, 1.0)] * len(mats),
                   constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0,
                                 "jac": lambda w: np.ones_like(w)}],
                   options={"maxiter": maxiter, "ftol": 1e-14})
    w = np.clip(res.x, 0.0, None)
    return eval_fn(point(w / w.sum()), False)[0]


def sequential_seesaw_lmo(family, grad: np.ndarray,
                          seed: int = 0) -> np.ndarray:
    """The separable-hull oracle run one restart at a time.

    The same multi-start alternating-eigenvector search as
    ``SeparableHullFamily.lmo``, written as a loop over restarts with one
    2-D ``eigh`` per half-sweep: each restart draws its own B start, stops
    once a sweep fails to lower its value by ``seesaw_tol``, and the first
    restart with the least value wins.
    """
    from qstein import opalg
    n = family.copies
    da, db = family.dim_a ** n, family.dim_b ** n
    g4 = opalg.pairs_to_blocks(grad, family.dim_a, family.dim_b,
                               n).reshape(da, db, da, db)
    rng = np.random.default_rng(seed)
    best_val, best_pair = np.inf, None
    for _ in range(family.n_restarts):
        b = rng.standard_normal(db) + 1j * rng.standard_normal(db)
        b /= np.linalg.norm(b)
        a = None
        prev = np.inf
        for _ in range(family.seesaw_iters):
            ma = np.einsum("ijkl,j,l->ik", g4, b.conj(), b)
            w, V = opalg.eigh(ma)
            a = V[:, 0]
            mb = np.einsum("ijkl,i,k->jl", g4, a.conj(), a)
            w, V = opalg.eigh(mb)
            b = V[:, 0]
            val = float(w[0])
            if prev - val < family.seesaw_tol:
                break
            prev = val
        val = float(np.einsum("ijkl,i,j,k,l->", g4, a.conj(), b.conj(),
                              a, b).real)
        if val < best_val:
            best_val, best_pair = val, (a, b)
    a, b = best_pair
    vec = opalg.blocks_to_pairs(np.kron(a, b), family.dim_a, family.dim_b, n)
    m = np.outer(vec, vec.conj())
    return 0.5 * (m + m.conj().T)


def max_product_overlap_bell(grid: int = 60) -> float:
    """Brute-force Bloch-grid maximum of |<Phi|a,b>|^2 for the 2x2 ray."""
    best = 0.0
    phis = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    thetas = np.linspace(0.0, np.pi, grid)
    bell = np.zeros(4)
    bell[0] = bell[3] = 1.0 / sqrt(2.0)
    for ta in thetas:
        for pa in phis:
            a = np.array([np.cos(ta / 2), np.exp(1j * pa) * np.sin(ta / 2)])
            # optimal b for fixed a has a closed form: <Phi|a,b> = conj-lin in b
            w = np.array([bell[0] * a[0], bell[3] * a[1]])
            best = max(best, float(np.vdot(w, w).real))
    return best


def robustness_qubit_diagonal_grid(rho: np.ndarray, s_grid=None,
                                   w_grid=None) -> float:
    """Grid bisection oracle for the least s with (1+s) diag(w) >= rho."""
    if w_grid is None:
        w_grid = np.linspace(1e-6, 1.0 - 1e-6, 4001)

    def feasible(s: float) -> bool:
        for w in w_grid:
            m = (1.0 + s) * np.diag([w, 1.0 - w]) - rho
            ev = np.linalg.eigvalsh(m)
            if ev[0] >= -1e-12:
                return True
        return False

    lo, hi = 0.0, 1.0
    while not feasible(hi):
        lo, hi = hi, 2.0 * hi
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi
