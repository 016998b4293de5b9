"""Exception hierarchy for the toolkit.

Three branches: configuration problems, data problems (ingest and series
manipulation), and model problems (estimation and prediction). The CLI maps
each branch to a distinct exit code.
"""


class WattcastError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(WattcastError):
    """Invalid run configuration (bad flag value, unknown key, ...)."""


# --- data errors -----------------------------------------------------------

class DataError(WattcastError):
    """Base class for input-data problems."""


class ParseError(DataError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NonUniformInterval(DataError):
    """No modal sampling interval covers enough of the observed gaps."""


class DuplicateTimestamp(DataError):
    pass


class CannotInfer(DataError):
    """Schema inference refused to guess; candidates are listed in the message."""


class UnsortedWeather(DataError):
    pass


class NotAMultiple(DataError):
    """Resampling target interval is not an integer multiple of the source."""


class GridTooLarge(DataError):
    """A series' uniform grid would not fit in the machine's physical memory."""


class TooShort(DataError):
    """Series too short for the requested operation."""


class ArityMismatch(DataError):
    """Number of retained initial values does not match the differencing order."""


class LengthMismatch(DataError):
    pass


class MissingCells(DataError):
    """Operation requires a fully observed matrix but missing cells are present."""


class NumericOverflow(DataError):
    """Values so large that a sum of their products overflows float64."""


class InsufficientTest(DataError):
    """Chronological split leaves no usable test observations."""


# --- model errors ----------------------------------------------------------

class ModelError(WattcastError):
    """Base class for estimation and prediction failures."""


class Underdetermined(ModelError):
    """Fewer samples than coefficients to estimate."""


class SingularDesign(ModelError):
    """Design matrix singular even after the ridge-jitter retry."""


class CholeskyFailure(ModelError):
    """Kernel matrix not positive definite after the maximum jitter."""


class KTooLarge(ModelError):
    pass


class KernelTooLarge(ModelError):
    """An n x n kernel matrix would not fit in the machine's physical memory."""


class NonFinitePrediction(ModelError):
    """A forecast holds a non-finite value where a finite one was due."""


class DivergedLoss(ModelError):
    """Training loss became non-finite."""


class DegenerateSeries(ModelError):
    """Differenced series is constant; AR/MA terms cannot be identified."""


class HistoryTooShort(ModelError):
    pass
