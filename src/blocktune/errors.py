"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: config/data problems exit 1,
infeasible instances exit 2, internal invariant failures exit 3.
"""


class BlocktuneError(Exception):
    """Base class for all package errors."""


class ConfigError(BlocktuneError):
    """A config file is missing, unparsable, or violates its schema."""


class DatasetError(BlocktuneError):
    """A dataset file is malformed or contains invalid values."""


class InfeasibleInstanceError(BlocktuneError):
    """The problem instance admits no feasible assignment."""


class MalformedAssignmentError(BlocktuneError):
    """An assignment vector does not match its instance."""


class ConstraintViolationError(BlocktuneError):
    """An operation requiring a feasible assignment received an infeasible one."""


class EmptyInstanceError(BlocktuneError):
    """An operation requiring at least one transaction received none."""


class FitError(BlocktuneError):
    """Model fitting failed (too few samples, degenerate design, ...)."""


class EnumerationBudgetError(BlocktuneError):
    """Exhaustive search would exceed the configured enumeration budget."""


class InternalInvariantError(BlocktuneError):
    """A condition the construction-time checks should rule out occurred anyway."""
