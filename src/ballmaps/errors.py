"""Exception types shared across the package."""


class BallmapsError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(BallmapsError, ValueError):
    """An array argument has the wrong shape or dimensionality."""


class ContractViolation(BallmapsError, ValueError):
    """An argument violates a documented precondition."""


class DegenerateMapError(BallmapsError, ValueError):
    """The associated matrix of a map is singular."""


class PoleError(BallmapsError, ArithmeticError):
    """Evaluation at or too close to a pole, or a map whose poles meet the ball.

    ``point`` holds the offending input when one is known.
    """

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point
