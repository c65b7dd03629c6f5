"""Exception and warning types shared across the package."""


class SpincritError(Exception):
    """Base class for all package errors."""


class ValidationError(SpincritError, ValueError):
    """Invalid parameters, operators, or states."""


class PhaseDomainError(ValidationError):
    """Closed-form result requested outside its phase of validity."""


class SolverError(SpincritError, RuntimeError):
    """Numerical solver failed to produce a usable result."""


class ConvergenceError(SolverError):
    """A solver did not reach the requested tolerance."""


class DegenerateSteadyStateError(SolverError):
    """The generator has more than one steady state within tolerance."""


class SupportLeakWarning(UserWarning):
    """A state derivative has weight outside the kept eigenvalue support."""
