"""Desk-scale numerics for composite quantum hypothesis testing and
resource measures: operator algebra, entropic bounds, convex free-state
families with linear oracles, Frank-Wolfe solvers, symmetric-subspace
constructions, and a certificate pipeline for the finite-size direct-part
inequalities."""

from . import (entropy, freesets, fw, lp, opalg, optim, pipeline, rand,
               symmetry, typeclass, verify)
from .certificates import Certificate
from .opalg import (DensityMatrix, HermitianOperator, PureState, SystemShape,
                    density, operator, pure)

__all__ = [
    "Certificate",
    "DensityMatrix",
    "HermitianOperator",
    "PureState",
    "SystemShape",
    "density",
    "entropy",
    "freesets",
    "fw",
    "lp",
    "opalg",
    "operator",
    "optim",
    "pipeline",
    "pure",
    "rand",
    "symmetry",
    "typeclass",
    "verify",
]

__version__ = "0.1.0"
