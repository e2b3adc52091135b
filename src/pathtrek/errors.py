"""Exception and warning types shared across the package."""


class PathtrekError(Exception):
    """Base class for all pathtrek errors."""


class ParseError(PathtrekError):
    """Malformed tabular input (bad header, duplicate column names)."""


class NotUTF8(ParseError, UnicodeDecodeError):
    """Input bytes that are not UTF-8: the UnicodeDecodeError, with its start
    and end offsets, under a message that names the file."""

    def __init__(self, path, exc):
        UnicodeDecodeError.__init__(self, exc.encoding, exc.object, exc.start, exc.end, exc.reason)
        self.path = path

    def __str__(self):
        return f"{self.path}: byte {self.start}: not UTF-8 ({self.reason})"


class ModelSyntaxError(ParseError):
    """Bad line in the model DSL; carries the offending position."""

    def __init__(self, message, line, column=1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class TooFewRows(PathtrekError):
    """Fewer than 3 usable observations."""


class ZeroVariance(PathtrekError):
    def __init__(self, name):
        super().__init__(f"variable {name!r} has (near-)zero variance")
        self.name = name


class SingularMatrix(PathtrekError):
    """Cholesky pivot at or below its relative floor: not positive definite.

    `column` is the 0-based index of the failing pivot and `pivot` its
    value, when the factorization raised it."""

    def __init__(self, message, column=None, pivot=None):
        super().__init__(message)
        self.column, self.pivot = column, pivot


class SingularCovariance(SingularMatrix):
    """Sample covariance matrix is not invertible."""


class NoConvergence(PathtrekError):
    """An iterative special function reached its iteration cap unconverged."""


class NotSquare(PathtrekError):
    """Correlation file does not hold a square labeled matrix."""


class AsymmetryTooLarge(PathtrekError):
    """Correlation file asymmetric beyond the 1e-6 repair limit."""


class DiagonalNotOne(PathtrekError):
    """Correlation file diagonal entry differs from 1 by more than 1e-9."""


class OutOfRange(PathtrekError):
    """Value outside its admissible range (e.g. |r| > 1)."""


class VariableMissing(PathtrekError):
    def __init__(self, name, where=""):
        suffix = f" in {where}" if where else ""
        super().__init__(f"variable {name!r} not found{suffix}")
        self.name = name


class VariableMismatch(PathtrekError):
    """Two structures do not cover the same variable set."""


class DegreesOfFreedomExhausted(PathtrekError):
    """n too small for standard errors: n <= number of parents + 1."""


class UnknownVariable(PathtrekError):
    """Name referenced that is not (and cannot be) declared."""


class DuplicateArrow(PathtrekError):
    def __init__(self, source, target):
        super().__init__(f"arrow {source} -> {target} declared twice")
        self.source = source
        self.target = target


class CycleDetected(PathtrekError):
    def __init__(self, cycle):
        path = " -> ".join(cycle)
        super().__init__(f"model contains a cycle: {path}")
        self.cycle = tuple(cycle)


class MissingCoefficient(PathtrekError):
    def __init__(self, source, target):
        super().__init__(f"arrow {source} -> {target} carries no coefficient")
        self.source = source
        self.target = target


class NonPositiveResidualVariance(PathtrekError):
    def __init__(self, variable, value):
        relation = "<=" if value <= 0.0 else "not >"  # "not >" for NaN
        super().__init__(
            f"coefficients imply residual variance {value:.6g} {relation} 0 for {variable!r}"
        )
        self.variable = variable
        self.value = value


class TooManyVariables(PathtrekError):
    """Trek enumeration stopped past its trek budget.

    Only trek enumeration (explanation and export) is budgeted; reproduced
    correlations and effects come from the structural recursion at any size.
    """


class NoAdmissibleRevision(PathtrekError):
    """Misfit persists but no arrow can be added.

    The partial revision trace accumulated so far is attached as ``trace``.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class DataWarning(UserWarning):
    """Non-fatal data issue (dropped rows, range restriction, ...)."""


class ModelWarning(UserWarning):
    """Non-fatal model issue (implicitly declared variable, ...)."""
