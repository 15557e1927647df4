"""Exception types shared across the package."""


class SubcubeHHError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SubcubeHHError, ValueError):
    """Invalid parameter or configuration value."""


class EmptySubcubeError(ConfigError):
    """A subcube must contain at least one coordinate."""


class DuplicateIndexError(ConfigError):
    """Subcube coordinates must be distinct."""


class IndexOutOfRangeError(ConfigError):
    """A coordinate index falls outside [0, d)."""


class RaggedRowError(SubcubeHHError, ValueError):
    """A delimited row has a different field count than the first row."""


class EmptyFileError(SubcubeHHError, ValueError):
    """The input source contains no data rows."""


class SupportTooLargeError(SubcubeHHError, RuntimeError):
    """The enumerated value-support product exceeds the configured cap."""


class NoClassColumnError(ConfigError):
    """The operation needs a designated class column and none was given."""


class BudgetTooSmallError(ConfigError):
    """The memory budget is too small to build the requested summary."""


class CapExceededError(SubcubeHHError, RuntimeError):
    """An enumeration exceeded its hard cap on intermediate results."""


class ExperimentError(SubcubeHHError, RuntimeError):
    """An experiment failed partway; carries whatever results were produced."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial
