"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration/contract problems exit 2,
numerical failures exit 3 (observability shortfalls use exit 4 without an
exception).
"""


class ConfigurationError(ValueError):
    """A model, scenario or config file is structurally invalid."""


class _WithContext:
    """Carries a ``context`` dict (hypothesis index, step number, matrix
    diagnostics) to make failures inside long runs traceable."""

    def __init__(self, message, context=None):
        super().__init__(message)
        self.context = dict(context or {})


class ContractError(_WithContext, ValueError):
    """An input violates a documented precondition (e.g. weights off the simplex)."""


class NumericalFailureError(_WithContext, RuntimeError):
    """A linear-algebra step failed, e.g. on an indefinite covariance or a non-finite value."""


class SingularGradientError(NumericalFailureError):
    """Gradient of a range measurement is undefined (state coincides with a sensor)."""


class ExcitationError(ValueError):
    """An all-zero output sequence cannot pin down any hypothesis."""


class NoMatchError(ValueError):
    """No candidate hypothesis fits the output sequence within tolerance."""
