"""Exception types shared across the package."""


class NanotrapError(Exception):
    """Base class for all package-specific errors."""


class DomainError(NanotrapError, ValueError):
    """Input outside the physical or numerical domain of an operation."""


class BracketError(NanotrapError, ValueError):
    """Root bracket does not contain a sign change."""


class EvaluationError(NanotrapError, ArithmeticError):
    """A user-supplied function returned a non-finite value."""


class DegenerateFitError(NanotrapError, RuntimeError):
    """Least-squares problem is singular or its components collapsed."""


class NoModeError(NanotrapError, RuntimeError):
    """No guided-mode root inside the guidance interval."""


class ModeStateError(NanotrapError, RuntimeError):
    """Field evaluation requested from an unsolved mode."""


class SelectionRuleError(NanotrapError, ValueError):
    """Transition violates an angular-momentum selection rule."""


class ValidityError(NanotrapError, ValueError):
    """Input outside the validity range of an approximation."""


class NearResonanceError(NanotrapError, ValueError):
    """Wavelength too close to an atomic resonance for a polarizability model."""


class NoTrapError(NanotrapError, RuntimeError):
    """No bound minimum exists for the configured trap."""


class SaddlePointError(NanotrapError, RuntimeError):
    """Trap curvature matrix is not positive definite."""


class NonUniqueSteadyStateError(NanotrapError, RuntimeError):
    """Rate-equation dynamics are disconnected; steady state is not unique."""


class ConfigError(NanotrapError, ValueError):
    """Run configuration file is missing, malformed, or inconsistent."""
