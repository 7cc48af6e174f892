"""Exception hierarchy for the toolkit.

Two branches matter operationally: ``DataError`` covers problems with the
input data or configuration (CLI exit code 2), ``EstimationError`` covers
numerical or statistical failures during estimation (CLI exit code 3).
"""


class RdError(Exception):
    """Base class for all toolkit errors."""


class DataError(RdError):
    """Invalid input data or configuration."""


class EstimationError(RdError):
    """Estimation is impossible or numerically degenerate."""


# --- data / ingestion ---

class MissingColumn(DataError):
    pass


class _BadValueAtRow(DataError):
    """A bad cell: the message names the row, and the value when given."""

    _prefix: str

    def __init__(self, row: int, value: str = ""):
        self.row = row
        super().__init__(f"{self._prefix} at row {row}"
                         + (f" (value {value!r})" if value else ""))


class NonFiniteScore(_BadValueAtRow):
    _prefix = "non-finite or missing score"


class NonFiniteOutcome(_BadValueAtRow):
    _prefix = "non-finite or missing outcome"


class BadTreatmentCode(_BadValueAtRow):
    _prefix = "treatment code outside {0, 1}"


class NonFiniteCutoff(_BadValueAtRow):
    _prefix = "non-finite or missing cutoff"


class MalformedRow(DataError):
    def __init__(self, row: int, reason: str):
        self.row = row
        super().__init__(f"unreadable row {row}: {reason}")


class BadSpec(DataError):
    pass


class MissingTreatmentColumn(DataError):
    pass


class MissingCovariate(DataError):
    pass


class NoCovariates(DataError):
    pass


class GridContainsTrueCutoff(DataError):
    pass


# --- estimation ---

class EmptySide(EstimationError):
    pass


class RankDeficient(EstimationError):
    pass


class WeakFirstStage(EstimationError):
    pass


class TooFewObservations(EstimationError):
    pass


class EmptyGroup(EstimationError):
    pass


class NoFeasibleWindow(EstimationError):
    pass


class NoVariation(EstimationError):
    pass


class InsufficientSideData(EstimationError):
    pass


class InsufficientData(EstimationError):
    pass


class UnreachableTarget(EstimationError):
    pass


class TooManyFailures(EstimationError):
    pass
