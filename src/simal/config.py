"""Budget handling.

Enumerative constructions (limits, kernels, horns) refuse to grow past
a budget.  The default can be overridden per call, or globally through
the SIMAL_BUDGET environment variable.
"""

import os

from .errors import InvalidParameters

DEFAULT_BUDGET = 1_000_000


def resolve_budget(budget=None):
    if budget is not None:
        return int(budget)
    env = os.environ.get("SIMAL_BUDGET")
    if env is None:
        return DEFAULT_BUDGET
    try:
        return int(env)
    except ValueError:
        raise InvalidParameters(f"SIMAL_BUDGET={env!r} is not an integer") from None
