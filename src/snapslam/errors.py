"""Exception types shared across the package."""


class SlamError(Exception):
    """Base class for all snapslam errors."""


class DegenerateGeometry(SlamError):
    """Coincident points, zero-length segments, or a rank-deficient Jacobian."""


class SingularGeometry(SlamError):
    """Normal matrix of the conditional estimate is numerically singular."""


class TooFewPaths(SlamError):
    """Fewer paths than the minimum the requested operation needs."""


class NoFeasibleSolution(SlamError):
    """Every candidate cell of the robust search failed the feasibility gate."""


class MissingTruth(SlamError):
    """Operation needs ground truth but the snapshot carries none."""


class EmptyInput(SlamError):
    """An aggregate operation received no records."""


class InvalidPosition(SlamError):
    """A simulated receiver position is unusable (on a wall, or no paths reach it)."""
