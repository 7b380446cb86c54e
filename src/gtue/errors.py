"""Exception taxonomy shared by all modules.

Every error raised on a documented failure path derives from GTUEError so
the CLI can map library failures to exit codes uniformly.
"""


class GTUEError(Exception):
    """Base class for all library errors."""


class UndefinedProduct(GTUEError):
    """A scale() call outside the domain the conventions define."""


class HorizonMismatch(GTUEError):
    """A process extends deeper than the tree model can verify."""


class NotTerminal(GTUEError):
    """A path-limit query on a process without a terminal cut."""


class NegativeWeight(GTUEError):
    """A mixture weight was negative."""


class WeightSumMismatch(GTUEError):
    """Mixture weights do not sum to one."""


class DepthExceeded(GTUEError):
    """A variable is deeper than the tree model's maximum depth."""


class NotBoundedBelow(GTUEError):
    """A bounded-below argument contained -inf."""


class NotBoundedAbove(GTUEError):
    """A bounded-above argument contained +inf."""


class MonotonicityViolated(GTUEError):
    """A declared monotone sequence broke its declared order."""


class NotASupermartingale(GTUEError):
    """A certificate process failed supermartingale verification."""


class DominanceFailed(GTUEError):
    """A certificate's tail does not dominate the target variable.

    Carries the offending terminal-cut member as ``witness``.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SpaceMismatch(GTUEError):
    """Two objects disagree on the underlying state space."""


class BadWindow(GTUEError):
    """Transform window parameters violate 0 < a < b."""


class NonFiniteRoot(GTUEError):
    """The base process is infinite at the transform root."""


class WindowOutsideRange(GTUEError):
    """A transform window cannot produce any crossing for the given variable."""


class CapExceeded(GTUEError):
    """Brute-force enumeration refused above the configured selection cap."""


class SchemaError(GTUEError):
    """An input file violates the documented JSON schema."""
