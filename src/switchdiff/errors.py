"""Exception hierarchy shared across the package."""


class SwitchDiffError(Exception):
    """Base class for all package errors."""


class DomainError(SwitchDiffError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class ConfigurationError(SwitchDiffError, ValueError):
    """Inconsistent or incomplete configuration (scenario, inputs)."""


class EvaluationError(SwitchDiffError, RuntimeError):
    """A user callback returned something unusable (shape, sign, non-finite)."""


class StructuralError(SwitchDiffError, ValueError):
    """Structural defect of a chain or kernel (reducibility, bad rows)."""


class ErgodicityError(SwitchDiffError, RuntimeError):
    """Divergent tail: no normalizable invariant measure on the truncation."""


class NumericError(SwitchDiffError, RuntimeError):
    """A numeric routine failed to meet its tolerance or to converge."""


class ContractError(SwitchDiffError, ValueError):
    """A documented precondition was violated by the caller."""


class RateEstimationError(SwitchDiffError, RuntimeError):
    """Pathwise rate estimation had no usable paths or grid points."""
