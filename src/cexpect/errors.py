"""Exception hierarchy shared across the package."""


class CexpectError(Exception):
    """Base class for all package errors; `param` names the argument at fault."""

    def __init__(self, message="", param=None):
        super().__init__(message)
        self.param = param


class DomainError(CexpectError, ValueError):
    """An argument is outside its documented domain."""


class ConstructionError(CexpectError, ValueError):
    """A model cannot be built (e.g. covariance matrix not positive definite)."""


class NumericalError(CexpectError, ArithmeticError):
    """A numerical routine failed to converge; carries the offending point."""

    def __init__(self, message, point=None, param=None):
        super().__init__(message, param)
        self.point = point


class UnsupportedModelError(CexpectError, ValueError):
    """Operation needs structure the model lacks (e.g. a monotone regression)."""


class ExtrapolationError(CexpectError, ValueError):
    """Evaluation point lies outside the trusted band of an empirical estimator."""


class SampleSizeError(CexpectError, ValueError):
    """Too little data survived simulation for a stable estimate."""


class ConfigError(DomainError):
    """A config failed validation; carries per-field diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(d.render() for d in self.diagnostics))
