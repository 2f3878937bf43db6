"""Exception hierarchy shared by all simpca modules.

An error that names a cell or a column does so in the terms of the side
that raised it. Raised by the library (``NonFiniteInput`` and
``ZeroVarianceColumn`` from ``core.center_scale``, ``NonFiniteInput`` from
the factor of an array or a DataMatrix that every pipeline, fit and report
reads, and from ``rotation.rotate``), ``row`` is the 0-based row index
and ``col`` or ``index`` the int column index, as the array is indexed.
Raised by the CSV reader (``report.ingest_csv``) or the CLI, which raises
the library's two again in the file's terms, ``row`` is the data row
counted from 1, the header not counted, and ``col`` or ``index`` the
column's header.
"""


class SimpcaError(Exception):
    """Base class for all errors raised by this package."""


class DataError(SimpcaError):
    """Problems with the input data (shape, finiteness, parsing)."""


class ConfigError(SimpcaError, ValueError):
    """Invalid configuration or parameter values. Also a ``ValueError``, as
    Python's own argument errors are."""


class NumericalError(SimpcaError):
    """Well-formed input on which the requested computation is ill-posed."""


class NonFiniteInput(DataError):
    def __init__(self, row, col):
        self.row, self.col = row, col
        super().__init__(f"non-finite value at row {row}, column {col}")


class ZeroVarianceColumn(NumericalError):
    def __init__(self, index):
        self.index = index
        super().__init__(f"column {index} has zero variance")


class RankExceeded(ConfigError):
    def __init__(self, d, rank):
        self.d, self.rank = d, rank
        super().__init__(f"requested {d} components but numerical rank is {rank}")


class ZeroComponent(NumericalError):
    def __init__(self, msg="component score vector is identically zero"):
        super().__init__(msg)


class ZeroColumn(NumericalError):
    def __init__(self, index):
        self.index = index
        super().__init__(f"coefficient column {index} is identically zero")


class EmptySupport(NumericalError):
    def __init__(self, threshold=None):
        self.threshold = threshold
        msg = "no coefficient survives the threshold"
        if threshold is not None:
            msg += f" {threshold}"
        super().__init__(msg)


class ExhaustedSchedule(NumericalError):
    def __init__(self, t0, step):
        self.t0, self.step = t0, step
        super().__init__(
            f"adaptive threshold schedule starting at {t0} (step {step}) "
            "reached zero without selecting any variable"
        )


class ZeroTarget(NumericalError):
    def __init__(self):
        super().__init__("target score vector is identically zero")


class SingularSubset(NumericalError):
    def __init__(self, indices):
        self.indices = list(indices)
        super().__init__(
            f"selected columns {self.indices} are collinear; the denominator "
            "matrix of the generalized eigenproblem is singular"
        )


class InfeasibleOrthogonality(NumericalError):
    def __init__(self, support_size, n_constraints):
        self.support_size = support_size
        self.n_constraints = n_constraints
        super().__init__(
            f"support of size {support_size} cannot satisfy "
            f"{n_constraints} orthogonality constraints"
        )


class TooFewObservations(DataError):
    def __init__(self, n):
        self.n = n
        super().__init__(f"need at least 2 observations, got {n}")


class ConstantData(DataError):
    def __init__(self, p):
        self.p = p
        super().__init__(
            "every feature column is constant: no variance to analyse" if p
            else "no feature column is left besides the id and response columns"
        )


class MissingColumn(DataError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"column {name!r} not found in the input file")


class NonNumericCell(DataError):
    def __init__(self, row, col):
        self.row, self.col = row, col
        super().__init__(f"non-numeric cell at row {row}, column {col}")


class MissingValue(DataError):
    def __init__(self, row, col):
        self.row, self.col = row, col
        super().__init__(
            f"missing value at row {row}, column {col}; imputation is not supported"
        )


class NotUtf8(DataError):
    def __init__(self, byte):
        self.byte = byte
        super().__init__(f"input file is not UTF-8 text: cannot decode byte 0x{byte:02x}")


class EmptyInput(DataError):
    def __init__(self):
        super().__init__("input file needs a header row and at least one data row")


class RaggedRow(DataError):
    def __init__(self, row, cells, expected):
        self.row, self.cells, self.expected = row, cells, expected
        super().__init__(f"row {row} has {cells} cells but the header has {expected}")

