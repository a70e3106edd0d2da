"""Plan cost functions (Section 2, "Cost").

The framework works with any black-box cost that is *monotone*: appending
access commands never lowers a plan's cost.  The paper's default is the
*simple cost function* -- each method has a positive weight; a plan costs
the sum of the weights of its access commands (the same method invoked by
two commands is charged twice).  Theorem 9's optimality guarantee is
stated for simple cost functions; the search accepts any other monotone
:class:`CostFunction` as well.
"""

from repro.cost.functions import (
    CostFunction,
    CountingCostFunction,
    SimpleCostFunction,
    is_monotone_on,
)

__all__ = [
    "CostFunction",
    "CountingCostFunction",
    "SimpleCostFunction",
    "is_monotone_on",
]
