"""Exceptions shared across the package, and the search budget.

The budget sits here, next to the BudgetExceededError it raises, below
every layer that charges it: monoid's searches and atom readings, and
polytopes' decompose_2d, which imports nothing from monoid for it.
"""


class DimensionMismatchError(ValueError):
    """Operands live in ambient spaces of different dimension."""


class NotStarMultipleError(ValueError):
    """Cancellation was requested against an ideal that is not a star factor."""


class NotIntegrallyClosedError(ValueError):
    """A monoid query got an ideal that is not integrally closed."""


class BudgetExceededError(RuntimeError):
    """A bounded search ran out of budget before reaching an answer.

    Distinct from a negative answer: callers must not treat this as "false".
    Both arguments stay in args, so pickle and copy rebuild the error.
    """

    def __init__(self, message, examined):
        super().__init__(message, examined)
        self.examined = examined

    def __str__(self):
        return self.args[0]


class IdealParseError(ValueError):
    """Monomial-ideal text that does not match the input grammar.

    Both arguments stay in args, so pickle and copy rebuild the error.
    """

    def __init__(self, message, position):
        super().__init__(message, position)
        self.position = position

    def __str__(self):
        return f"{self.args[0]} (at position {self.position})"


DEFAULT_BUDGET = 500_000


class SearchBudget:
    """One unit per map of a divisor search (a node of its depth-first
    search) and per divisor it yields; closed_supersets: per candidate;
    decompose_2d: one unit per basis copy.  Atoms read off by a theorem
    are charged by one rule (monoid._spend_atoms): a reading that gives
    one atom, or none, is free, and one that gives more costs one unit
    per atom, each a spend(), so a budget it exceeds stops at limit + 1.
    A reading is a 2D ideal's edges, all of them together, or one dilated
    simplex (monoid._atom_power).  The copies of each (x_i) are free.
    monoid._atoms charges by this rule, and so does is_star_irreducible,
    which charges nothing for an I with a monomial factor, answered off
    its corner alone."""

    def __init__(self, limit):
        self.limit = limit
        self.examined = 0

    def spend(self, n=1):
        self.examined += n
        if self.limit is not None and self.examined > self.limit:
            raise BudgetExceededError(
                f"search budget of {self.limit} exceeded",
                examined=self.examined)


def _as_budget(budget):
    """A SearchBudget as given, or a new one of limit budget (a count or
    None for no bound)."""
    return budget if isinstance(budget, SearchBudget) else SearchBudget(budget)
