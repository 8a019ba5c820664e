"""Exceptions shared across the package."""


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
