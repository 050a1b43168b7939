"""Seeded random generators for states, operators and channels.

Used by the randomized verification suites and the tests; everything takes
an explicit ``numpy.random.Generator`` so runs are reproducible.
"""

from __future__ import annotations

import numpy as np

from .opalg import DensityMatrix, HermitianOperator, PureState, SystemShape


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def ginibre(rng: np.random.Generator, n: int, m: int | None = None) -> np.ndarray:
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def random_hermitian(rng: np.random.Generator, shape: SystemShape,
                     scale: float = 1.0) -> HermitianOperator:
    g = ginibre(rng, shape.total_dim)
    return HermitianOperator(shape, scale * 0.5 * (g + g.conj().T))


def random_psd(rng: np.random.Generator, shape: SystemShape,
               rank: int | None = None, scale: float = 1.0) -> HermitianOperator:
    n = shape.total_dim
    g = ginibre(rng, n, rank or n)
    return HermitianOperator(shape, scale * (g @ g.conj().T) / n)


def random_density(rng: np.random.Generator, shape: SystemShape,
                   rank: int | None = None) -> DensityMatrix:
    m = random_psd(rng, shape, rank).mat
    return DensityMatrix(HermitianOperator(shape, m / np.trace(m).real))


def random_pure(rng: np.random.Generator, shape: SystemShape) -> PureState:
    v = ginibre(rng, shape.total_dim, 1).reshape(-1)
    return PureState(shape, v / np.linalg.norm(v))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(ginibre(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_kraus_channel(rng: np.random.Generator, d: int,
                         n_kraus: int = 3) -> list[np.ndarray]:
    """Random CPTP channel on C^d via a Haar isometry split into Kraus blocks."""
    u = random_unitary(rng, d * n_kraus)
    iso = u[:, :d]
    return [iso[k * d:(k + 1) * d, :] for k in range(n_kraus)]


def random_perm_invariant_density(rng: np.random.Generator, d: int,
                                  copies: int) -> DensityMatrix:
    """Random permutation-invariant mixed state on (C^d)^{x copies}."""
    from .symmetry import twirl  # local import avoids a module cycle

    rho = random_density(rng, SystemShape((d,) * copies))
    return DensityMatrix(twirl(rho.op))
