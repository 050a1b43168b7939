"""Independent oracles used to pin expected values.

Everything here is deliberately written against different primitives than
the library paths it checks: closed-form scalar expressions, exhaustive
index sums, binomial enumerations, simplex optimization over type classes,
and grid searches.
"""

from __future__ import annotations

from itertools import product
from math import comb, exp, log2, sqrt

import numpy as np
from scipy.optimize import minimize

from qstein.opalg import kron_power


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


def ray_step2_reference(q: np.ndarray, rho_N: np.ndarray,
                        sigma_N: np.ndarray, mu: float, y: float, N: int,
                        M: int, R: int) -> tuple[np.ndarray, np.ndarray]:
    """(sigma~, Delta~) of pipeline step 2 for a pure base state q, dense.

    rho_N is conditioned on q^{x M} by a quadratic form and cut to at most
    R factors off q by the projector U^{x n} diag(defects <= R) U^{x n dag},
    n = N - M, U a unitary whose first column is q (from a QR factoring).
    The correction states, the positive part of the cut minus the
    conditioned state and the cut itself, lose their first R factors and
    are blended with the weights a = 2 sqrt(2) e^{-MR/(2N)} / mu and
    b = 2 sqrt(2R) / N; sigma~ mixes the blend into the marginal of
    sigma_N with eps = 2 mu^3 2^{-yN} (a + b).
    """
    d = q.size
    n = N - M
    qm = kron_power(q, M)
    t = rho_N.reshape(d ** M, d ** n, d ** M, d ** n)
    cond = np.einsum("a,abcd,c->bd", qm.conj(), t, qm)
    cond /= np.trace(cond)
    U = np.linalg.qr(np.column_stack([q, np.eye(d)]))[0]
    un = kron_power(U, n)
    defects = (np.indices((d,) * n).reshape(n, -1) != 0).sum(axis=0)
    proj = (un * (defects <= R)) @ un.conj().T
    cut = proj @ cond @ proj
    cut /= np.trace(cut)
    w, V = np.linalg.eigh(cut - cond)
    pos = np.clip(w, 0.0, None)
    delta = (V * pos) @ V.conj().T / pos.sum()

    def drop_first(mat: np.ndarray, k: int) -> np.ndarray:
        keep = mat.shape[0] // d ** k
        return np.einsum("abac->bc", mat.reshape(d ** k, keep, d ** k, keep))

    a = 2.0 * sqrt(2.0) * exp(-M * R / (2.0 * N)) / mu
    b = 2.0 * sqrt(2.0 * R) / N
    eps = 2.0 * mu ** 3 * 2.0 ** (-y * N) * (a + b)
    blend = (a * drop_first(delta, R) + b * drop_first(cut, R)) / (a + b)
    marg = drop_first(sigma_N, M + R)
    sigma = (marg + 0.5 * eps * blend) / (1.0 + 0.5 * eps)
    return sigma, blend


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


def pure_power_threshold_optimum(vec: np.ndarray, N: int, y: float,
                                 starts: int = 4, seed: int = 0) -> float:
    """min over diagonal sigma of Tr[(psi psi^dag - 2^{yN} sigma)_+], psi =
    vec^{x N}, over the type classes by SLSQP as in
    ``diagonal_threshold_optimum``, with each evaluation made in the
    classes so that it stays cheap past N = 8.

    The d^N strings are enumerated and grouped by their letter counts.
    Every string of class t carries the same amplitude psi_t, so for sigma
    = sum_t w_t P_t / |T_t|, psi psi^dag - b sigma is u u^dag - diag(b w /
    |T|) on the normalized class indicators, u_t = sqrt(|T_t|) psi_t, and
    -b w_t / |T_t| <= 0 on the rest of class t: its positive part is that
    of the T x T matrix.
    """
    rng = np.random.default_rng(seed)
    classes: dict[tuple, int] = {}
    for string in product(range(len(vec)), repeat=N):
        key = tuple(sorted(string))
        classes[key] = classes.get(key, 0) + 1
    keys = sorted(classes)
    sizes = np.array([classes[k] for k in keys], dtype=float)
    u = np.sqrt(sizes) * np.array([np.prod(vec[list(k)]) for k in keys])
    rank_one = np.outer(u, u.conj())
    b = 2.0 ** (y * N)

    def f(w):
        ev = np.linalg.eigvalsh(rank_one - b * np.diag(w / sizes))
        return float(ev[ev > 0.0].sum())

    cons = [{"type": "eq", "fun": lambda w: w.sum() - 1.0}]
    best = None
    for _ in range(starts):
        res = minimize(f, rng.dirichlet(np.ones(len(keys))), method="SLSQP",
                       bounds=[(0.0, 1.0)] * len(keys), constraints=cons,
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


def hull_minimum_slsqp(probe, atoms, maxiter: int = 80) -> float:
    """Least value of a solver probe over the hull of ``atoms`` (pairs
    [matrix, weight], started at their weights), via SLSQP on the weight
    simplex.

    ``probe(mat)`` returns (value, exact value, gradient, local); SLSQP
    reads the value and the gradient matrix ``grad()``.  The result is the
    value at SLSQP's weights clipped to be nonnegative and normalized, so it
    is attained on the hull.
    """
    mats = [m for m, _ in atoms]

    def point(w):
        return sum(wi * m for wi, m in zip(w, mats))

    def fun(w):
        value, _, grad, _ = probe(point(w))
        g = grad()
        return value, np.array([np.einsum("ij,ji->", g, m).real
                                for m in mats])

    res = minimize(fun, np.array([w for _, w in atoms], dtype=float),
                   jac=True, method="SLSQP", bounds=[(0.0, 1.0)] * len(mats),
                   constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0,
                                 "jac": lambda w: np.ones_like(w)}],
                   options={"maxiter": maxiter, "ftol": 1e-14})
    w = np.clip(res.x, 0.0, None)
    return probe(point(w / w.sum()))[0]


def _seesaw_newton_step(g4: np.ndarray, a: np.ndarray, b: np.ndarray,
                        val: float) -> tuple[np.ndarray, np.ndarray, float]:
    """One saddle-free Newton step on the product of unit spheres from the
    pair (a, b) of value ``val``, for one restart.

    The second-order model of the normalized value is written as complex
    terms in (da, db); its Hessian and gradient in real coordinates of all
    of C^dA x C^dB come from evaluating those terms on the basis vectors,
    and are projected onto the tangent space by the complex projectors
    I - aa*, I - bb*.  Eigenvalues are taken in absolute value, those at
    most 1e-12 times the largest dropped; of the step and its seven
    halvings the least exact value is kept if it is below ``val``.
    """
    da, db = len(a), len(b)
    n = 2 * (da + db)
    m_b = np.einsum("ijkl,j,l->ik", g4, b.conj(), b)
    m_a = np.einsum("ijkl,i,k->jl", g4, a.conj(), a)
    K = np.einsum("ijkl,j,k->il", g4, b.conj(), a)
    N = np.einsum("ijkl,i,j->kl", g4, a.conj(), b.conj())

    def split(z):
        return (z[..., :da] + 1j * z[..., da:2 * da],
                z[..., 2 * da:2 * da + db] + 1j * z[..., 2 * da + db:])

    # row i of xa, xb is the (da, db) of the i-th real basis vector
    xa, xb = split(np.eye(n))
    form = ((xa.conj() @ (m_b - val * np.eye(da)) @ xa.T)
            + (xb.conj() @ (m_a - val * np.eye(db)) @ xb.T)
            + 2.0 * (xa.conj() @ K @ xb.T) + 2.0 * (xa @ N @ xb.T)).real
    hess = 0.5 * (form + form.T)
    grad = 2.0 * (xa.conj() @ m_b @ a + xb.conj() @ m_a @ b).real
    pa = np.eye(da) - np.outer(a, a.conj())
    pb = np.eye(db) - np.outer(b, b.conj())
    ya, yb = xa @ pa.T, xb @ pb.T
    proj = np.concatenate([ya.real, ya.imag, yb.real, yb.imag], axis=1).T
    lam, u = np.linalg.eigh(proj @ hess @ proj)
    keep = np.abs(lam) > 1e-12 * np.abs(lam).max()
    coef = (u[:, keep].T @ (proj @ grad)) / np.abs(lam[keep])
    step_a, step_b = split(-0.5 * (u[:, keep] @ coef))
    best = (a, b, val)
    for t in 0.5 ** np.arange(8):
        a2, b2 = a + t * step_a, b + t * step_b
        a2, b2 = a2 / np.linalg.norm(a2), b2 / np.linalg.norm(b2)
        v = float(np.einsum("ijkl,i,j,k,l->", g4, a2.conj(), b2.conj(), a2,
                            b2).real)
        if v < best[2]:
            best = (a2, b2, v)
    return best


def sequential_seesaw_lmo(family, grad: np.ndarray, seed: int = 0,
                          newton: bool = True,
                          sweeps: list | None = None) -> np.ndarray:
    """The separable-hull oracle run one restart at a time.

    The same multi-start alternating-eigenvector search as
    ``SeparableHullFamily.lmo``, written as a loop over restarts with one
    2-D ``eigh`` per half-sweep: each restart draws its own B start, takes
    a Newton step after each sweep from its third on (none if ``newton`` is
    False: the plain seesaw), stops once a sweep fails to lower its value by
    ``seesaw_tol``, and the first restart with the least value wins.  The
    number of sweeps each restart ran is appended to ``sweeps`` if given.
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
        for sweep in range(family.seesaw_iters):
            ma = np.einsum("ijkl,j,l->ik", g4, b.conj(), b)
            w, V = opalg.eigh(ma)
            a = V[:, 0]
            mb = np.einsum("ijkl,i,k->jl", g4, a.conj(), a)
            w, V = opalg.eigh(mb)
            b = V[:, 0]
            val = float(w[0])
            if newton and sweep >= 2:
                a, b, val = _seesaw_newton_step(g4, a, b, val)
            if prev - val < family.seesaw_tol:
                break
            prev = val
        if sweeps is not None:
            sweeps.append(sweep + 1)
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
