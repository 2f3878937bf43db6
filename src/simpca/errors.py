"""Exception hierarchy shared by all simpca modules."""


class SimpcaError(Exception):
    """Base class for all errors raised by this package."""


class DataError(SimpcaError):
    """Problems with the input data (shape, finiteness, parsing)."""


class ConfigError(SimpcaError):
    """Invalid configuration or parameter values."""


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


class ZeroRow(NumericalError):
    def __init__(self, index):
        self.index = index
        super().__init__(
            f"row {index} is identically zero; Kaiser normalization undefined"
        )


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


class InitialFitUnderdetermined(NumericalError):
    def __init__(self, n, p):
        self.n, self.p = n, p
        super().__init__(
            f"cannot start backward selection from the full set: {p} variables "
            f"but only {n} observations"
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


class EmptyInput(DataError):
    def __init__(self):
        super().__init__("input file needs a header row and at least one data row")


class RaggedRow(DataError):
    def __init__(self, row, cells, expected):
        self.row, self.cells, self.expected = row, cells, expected
        super().__init__(f"row {row} has {cells} cells but the header has {expected}")

