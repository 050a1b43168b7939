"""Seeded random generators for states, operators and channels.

Used by the randomized verification suites and the tests; everything takes
an explicit ``numpy.random.Generator`` so runs are reproducible.
"""

from __future__ import annotations

import numpy as np

from .opalg import DensityMatrix, HermitianOperator, PureState, SystemShape
from .symmetry import twirl


def ginibre(rng: np.random.Generator, n: int, m: int | None = None) -> np.ndarray:
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def random_hermitian(rng: np.random.Generator,
                     shape: SystemShape) -> HermitianOperator:
    g = ginibre(rng, shape.total_dim)
    return HermitianOperator(shape, 0.5 * (g + g.conj().T))


def random_psd(rng: np.random.Generator, shape: SystemShape) -> HermitianOperator:
    n = shape.total_dim
    g = ginibre(rng, n)
    return HermitianOperator(shape, (g @ g.conj().T) / n)


def random_density(rng: np.random.Generator, shape: SystemShape) -> DensityMatrix:
    m = random_psd(rng, shape).mat
    return DensityMatrix(shape, m / np.trace(m).real)


def random_pure(rng: np.random.Generator, shape: SystemShape) -> PureState:
    v = ginibre(rng, shape.total_dim, 1).reshape(-1)
    return PureState(shape, v / np.linalg.norm(v))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(ginibre(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_kraus_channel(rng: np.random.Generator, d: int) -> list[np.ndarray]:
    """Random CPTP channel on C^d via a Haar isometry split into three Kraus
    blocks."""
    iso = random_unitary(rng, 3 * d)[:, :d]
    return [iso[k * d:(k + 1) * d, :] for k in range(3)]


def random_perm_invariant_density(rng: np.random.Generator, d: int,
                                  copies: int) -> DensityMatrix:
    """Random permutation-invariant mixed state on (C^d)^{x copies}."""
    shape = SystemShape((d,) * copies)
    return DensityMatrix(shape, twirl(random_density(rng, shape)).mat)
