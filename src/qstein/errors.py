"""Exception types raised across the package."""


class QSteinError(Exception):
    """Base class for all package-specific errors."""


class NegativeEigenvalue(QSteinError):
    """An operator required to be positive semidefinite is not, beyond tolerance."""


class NotTracePreserving(QSteinError):
    """Kraus operators do not satisfy the completeness relation."""


class SingularSigma(QSteinError):
    """The second argument of a bound requires a strictly positive operator."""


class NoFullRankMember(QSteinError):
    """The requested free family contains no full-rank state."""


class ShapeMismatch(QSteinError):
    """Operands live on incompatible tensor-product systems."""


class DimensionCap(QSteinError):
    """The requested construction exceeds the dense-representation size cap."""


class PremiseFailed(QSteinError):
    """A lemma-style construction was invoked with its premise violated."""


class PremiseOutOfInterval(QSteinError):
    """The optimized threshold quantity left the open interval required to proceed."""


class ConstructionFailed(QSteinError):
    """A constructive witness violated the conclusion it was built to satisfy."""


class CertificateFailed(QSteinError):
    """A certified inequality failed beyond its tolerance."""

    def __init__(self, certificate):
        self.certificate = certificate
        super().__init__(
            f"certificate '{certificate.name}' failed: "
            f"margin {certificate.margin:.3e} < -{certificate.tolerance:.1e}"
        )


class ZeroOverlap(QSteinError):
    """Projected vector has numerically zero norm; conditioning is undefined."""


class ZeroNorm(QSteinError):
    """Truncation annihilated the vector."""


class NotPermutationInvariant(QSteinError):
    """Input state is not invariant under subsystem permutations within tolerance."""


class Infeasible(QSteinError):
    """No parameter choice satisfies the requested constraints."""
