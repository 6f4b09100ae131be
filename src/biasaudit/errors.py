"""Exception hierarchy shared across the package."""


class BiasAuditError(Exception):
    """Base class for all errors raised by this package."""


# --- tabular -----------------------------------------------------------------

class TableError(BiasAuditError):
    pass


class EmptyFileError(TableError):
    pass


class DuplicateHeaderError(TableError):
    pass


class ParseError(TableError):
    pass


class RaggedRowError(ParseError):
    pass


class UnknownColumnError(TableError):
    pass


class AllRowsDroppedError(TableError):
    pass


class ConstantColumnError(TableError):
    pass


class NonNumericalTargetError(TableError):
    pass


# --- metrics -----------------------------------------------------------------

class MetricError(BiasAuditError):
    pass


class SingleCategoryError(MetricError):
    pass


class DegenerateTableError(MetricError):
    pass


class DegenerateIQRError(MetricError):
    pass


class SingletonGroupError(MetricError):
    pass


class ZeroVarianceError(MetricError):
    pass


class MissingMediatorError(MetricError):
    pass


class InsufficientSamplesError(MetricError):
    pass


class UnsupportedArityError(MetricError):
    pass


class UnknownMetricError(MetricError):
    pass


class NumericRangeError(MetricError):
    """Values beyond what float64 arithmetic can carry: a column whose
    middle half underflows once its largest value is scaled to 1, a
    metric value that computes as NaN, a cat_num effect that exceeds
    float64 in the outcome's units, or a data tool's sum, variance or
    range of finite cells that overflows."""


# --- severity / synthgen -----------------------------------------------------

class CalibrationError(BiasAuditError):
    pass


class InvalidSpecError(BiasAuditError):
    pass


# --- method library ----------------------------------------------------------

class SchemaError(BiasAuditError):
    pass


class DuplicateIdError(SchemaError):
    pass


class UnknownIdError(BiasAuditError):
    pass


# --- orchestrator ------------------------------------------------------------

class PlannerError(BiasAuditError):
    pass


class ToolError(BiasAuditError):
    pass


class NetworkError(BiasAuditError):
    pass


class EndOfInputError(BiasAuditError):
    pass


# --- reporting ---------------------------------------------------------------

class EmptyDataError(BiasAuditError):
    pass


class ArityMismatchError(BiasAuditError):
    pass


class NoFindingsError(BiasAuditError):
    pass


# --- bench -------------------------------------------------------------------

class EmptyRecordsError(BiasAuditError):
    pass


class AllMetricsFailedError(BiasAuditError):
    pass


class MalformedLogError(BiasAuditError):
    pass


class InvalidJobsError(BiasAuditError):
    pass
