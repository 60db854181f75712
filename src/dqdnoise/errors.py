"""Exception taxonomy; the CLI maps these onto exit codes."""


class ConfigError(ValueError):
    """Invalid configuration file or flag combination (exit code 2)."""


class NumericalError(RuntimeError):
    """Solver or method failure (exit code 3)."""


class DegenerateSteadyState(NumericalError):
    """More than one stationary eigenvalue within tolerance."""


class ConvergenceFailure(NumericalError):
    """Iteration or integral did not converge within its budget."""


class MethodUnavailable(NumericalError):
    """Requested diagnostic method cannot run on this generator."""
