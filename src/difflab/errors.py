"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes, so keep the hierarchy flat
and the categories coarse.
"""


class DifflabError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(DifflabError, ValueError):
    """A caller violated a documented precondition."""


class UnmodeledCaseError(InvalidArgumentError):
    """The closed form does not model the case; reason is one token."""

    def __init__(self, reason, detail):
        super().__init__(f"closed form does not model {reason}: {detail}")
        self.reason = reason


class GenerationFailureError(DifflabError):
    """Random graph generation exhausted its retry budget."""


class NumericalFailureError(DifflabError):
    """An iterative numerical routine failed to converge."""


class InstabilityError(DifflabError):
    """The mean recursion is unstable (spectral radius rho >= 1)."""

    def __init__(self, message, rho=None):
        super().__init__(message)
        self.rho = rho


class EmptyEnsembleError(DifflabError):
    """Every Monte Carlo run diverged; no data to average."""


class ConfigError(DifflabError):
    """Config file could not be parsed or validated."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}" + (
                f", column {column})" if column is not None else ")"
            )
        super().__init__(message)
        self.line = line
        self.column = column


class UnknownKeyError(ConfigError):
    """Config contains a key the schema does not define."""
