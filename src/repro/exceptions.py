"""Exception hierarchy for the repro (TitAnt reproduction) package.

Every subsystem raises exceptions rooted at :class:`ReproError` so that callers
can catch the whole family with one handler while still distinguishing the
failing layer (storage, compute, modelling, serving, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """Raised when a configuration object is internally inconsistent."""


class DataGenerationError(ReproError):
    """Raised when the synthetic transaction-world generator is misused."""


class FeatureError(ReproError):
    """Raised by the feature extraction layer."""


class NotFittedError(ReproError):
    """Raised when ``predict``/``transform`` is called before ``fit``."""


class ModelError(ReproError):
    """Raised by detection models for invalid inputs or states."""


class GraphError(ReproError):
    """Raised by the transaction-network layer."""


class EmbeddingError(ReproError):
    """Raised by the network representation learning layer."""


# ---------------------------------------------------------------------------
# Substrate errors
# ---------------------------------------------------------------------------


class StorageError(ReproError):
    """Base class for storage-substrate errors (MaxCompute tables, HBase)."""


class TableNotFoundError(StorageError):
    """Raised when a MaxCompute table or HBase table does not exist."""


class TableAlreadyExistsError(StorageError):
    """Raised when creating a table whose name is already taken."""


class SchemaError(StorageError):
    """Raised when rows do not match a table schema."""


class RowNotFoundError(StorageError):
    """Raised by point lookups that find no row."""


class SQLError(ReproError):
    """Base class for the mini SQL engine errors."""


class SQLParseError(SQLError):
    """Raised when a SQL statement cannot be parsed."""


class SQLPlanError(SQLError):
    """Raised when a parsed statement cannot be planned or executed."""


class JobError(ReproError):
    """Raised by the MaxCompute job layer (account check, invalid job)."""


class ParameterServerError(ReproError):
    """Raised by the KunPeng parameter-server simulation."""


class WorkerFailureError(ParameterServerError):
    """Raised (or injected) to simulate a worker-node crash."""


class ServingError(ReproError):
    """Raised by the online Model Server / Alipay-server simulation."""


class ModelNotLoadedError(ServingError):
    """Raised when the Model Server is asked to score before a model exists."""
