"""Exception and warning types shared across the package."""


class InputError(ValueError):
    """An operation received structurally invalid inputs."""


class IngestionError(ValueError):
    """A CSV file could not be parsed into a dataset."""


class ConfigError(ValueError):
    """A configuration file or config object is malformed or out of range."""


class DataWarning(UserWarning):
    """Non-fatal data problem, e.g. a group vanishing from a subsample."""


class TrainingWarning(UserWarning):
    """Non-fatal training anomaly, e.g. an empty error set."""


class AnalysisWarning(UserWarning):
    """Non-fatal analysis fallback, e.g. sampling with replacement."""
