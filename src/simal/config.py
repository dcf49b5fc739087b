"""Budget handling.

Enumerative constructions (limits, kernels, horns) refuse to grow past
a budget.  The default can be overridden per call, or globally through
the SIMAL_BUDGET environment variable.  A budget is a count of rows,
so a negative one is bad input.
"""

import os

from .errors import InvalidParameters

DEFAULT_BUDGET = 1_000_000


def resolve_budget(budget=None):
    if budget is not None:
        return _count(int(budget), f"budget {budget}")
    env = os.environ.get("SIMAL_BUDGET")
    if env is None:
        return DEFAULT_BUDGET
    try:
        value = int(env)
    except ValueError:
        raise InvalidParameters(f"SIMAL_BUDGET={env!r} is not an integer") from None
    return _count(value, f"SIMAL_BUDGET={env!r}")


def _count(value, what):
    if value < 0:
        raise InvalidParameters(f"{what} is negative")
    return value
