"""Domain errors shared across the package.

Every error the library raises deliberately derives from PeakMinError so the
CLI can catch one base class and print the error name verbatim.
"""


class PeakMinError(Exception):
    pass


# --- instance / profile validation ---

class NonPositiveBound(PeakMinError):
    pass


class InvertedBounds(PeakMinError):
    pass


class ZeroHorizon(PeakMinError):
    pass


class CapacityExceedsMinDemand(PeakMinError):
    """Storage capacity exceeds the total minimum demand T * d_lb."""


class PrefixOutOfBounds(PeakMinError):
    pass


class DemandOutOfBounds(PeakMinError):
    pass


class MismatchedLengths(PeakMinError):
    pass


# --- offline / schedules ---

class BudgetExceedsTotalDemand(PeakMinError):
    pass


class InfeasibleSchedule(PeakMinError):
    pass


class InvalidCmdWeights(PeakMinError):
    """Peak weight too small against the energy-weight spread."""


# --- lp ---

class NumericalFailure(PeakMinError):
    """Solver gave up: cycling guard or iteration cap tripped."""


class DenominatorNotPositive(PeakMinError):
    """Fractional objective denominator is not positive on the feasible set."""


# --- cr / online ---

class EmptyIndexSet(PeakMinError):
    pass


class DegenerateInstance(PeakMinError):
    """Ratio computations are undefined (c = T*d_lb makes the offline peak 0)."""


class DegenerateOfflinePeak(PeakMinError):
    pass


class NegativeSlack(PeakMinError):
    """Remaining inventory fell below the certified worst-case requirement."""


# --- harness ---

class MalformedRecord(PeakMinError):
    pass


class EmptyTrace(PeakMinError):
    pass


class UnknownAlgorithm(PeakMinError):
    pass
