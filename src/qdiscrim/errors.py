"""Exception types shared across the package."""


class QdiscrimError(Exception):
    """Base class for every domain or validation error raised by qdiscrim."""


class NotFinite(QdiscrimError):
    """Numeric input holds a NaN or an infinity."""


class NotHermitian(QdiscrimError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NotUnitary(QdiscrimError):
    """Matrix is not unitary within tolerance."""


class NotNormalized(QdiscrimError):
    """State vector does not have unit norm."""


class NotTracePreserving(QdiscrimError):
    """Kraus operators do not satisfy the completeness relation."""


class BlochBallViolation(QdiscrimError):
    """Affine map is not a qubit channel (not completely positive)."""


class DimensionMismatch(QdiscrimError):
    """Operands act on spaces of incompatible dimension."""


class UnknownName(QdiscrimError):
    """Requested named channel does not exist."""


class ParamOutOfRange(QdiscrimError):
    """Channel parameter lies outside its admissible interval."""


class BasisNotPauli(QdiscrimError):
    """Operation requires the qubit Pauli basis (I, X, Y, Z)."""


class BasisNotOrthogonal(QdiscrimError):
    """Unitary basis fails the trace-orthogonality requirement."""


class BasisMismatch(QdiscrimError):
    """Two channels were expected to share the same unitary basis."""


class UnsupportedDimension(QdiscrimError):
    """Dimension outside the supported range."""


class InvalidDistribution(QdiscrimError):
    """Probability vector has negative entries or does not sum to one."""
