"""Exception hierarchy.

Four families, matching the CLI exit codes: bad input (1), a checked
mathematical property failing to hold (2), search/size budgets running
out (3), and an internal error (4), which the CLI reports for any
exception that is not a SimalError.
"""


class SimalError(Exception):
    exit_code = 1


class InputError(SimalError):
    """The supplied data does not describe a valid object."""

    exit_code = 1


class PropertyViolation(SimalError):
    """A property that should hold for valid input failed an exhaustive check."""

    exit_code = 2


class BudgetError(SimalError):
    exit_code = 3


class InternalError(SimalError):
    """Wraps an unexpected exception, so the CLI still writes a report."""

    exit_code = 4


# -- input / precondition errors ------------------------------------------

class MalformedTable(InputError):
    pass


class NotMaltsev(InputError):
    pass


class InvalidParameters(InputError):
    pass


class InconsistentConstants(InputError):
    pass


class IdentityViolated(InputError):
    """A simplicial or groupoid structure identity fails."""


class NotSurjective(InputError):
    pass


class NotCommuting(InputError):
    pass


class NotRegularEpi(InputError):
    pass


class NotLevelwiseSurjective(InputError):
    pass


class UnsupportedVariety(InputError):
    pass


class PreconditionUnmet(InputError):
    pass


# -- property violations ---------------------------------------------------

class JoinNotComposite(PropertyViolation):
    """The join of two congruences is not their single relational composite."""


class NotTransitive(PropertyViolation):
    """A direct image of a congruence failed to be transitive."""


class TripleEqualityViolated(PropertyViolation):
    pass


class CompositionIllDefined(PropertyViolation):
    pass


class HomotopyMismatch(PropertyViolation):
    pass


class CrossRouteMismatch(PropertyViolation):
    """Two independent routes to the same answer disagree."""


# -- budget ----------------------------------------------------------------

class BudgetExceeded(BudgetError):
    pass


class LevelTooLarge(BudgetError):
    pass
