"""Exception types shared across the package."""


class GeostreamError(Exception):
    """Base class for all errors raised by this package."""


class TrainingError(GeostreamError):
    """Optimization hit a non-finite loss or gradient."""


class IngestionError(GeostreamError):
    """Input data violates the ingestion contract (duplicate ids, bad files)."""


class FormatError(IngestionError):
    """Too many malformed records to trust the input file."""


class UnknownObjectError(GeostreamError, KeyError):
    """Lookup of an entity, POI, user, or relation that does not exist."""


class StreamOrderError(GeostreamError):
    """A visit event arrived out of time order for its user."""


class ConsistencyError(GeostreamError):
    """A delta or artifact does not match the current graph version."""


class ConfigError(GeostreamError):
    """Invalid configuration value or file."""


class DataError(GeostreamError):
    """A record is missing required fields or carries invalid values."""


class ActionSpaceError(GeostreamError):
    """The agent was asked to act with no available actions."""


class CompatibilityError(GeostreamError):
    """Trained artifacts do not match the configured dimensions."""
