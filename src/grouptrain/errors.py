"""Exception and warning types shared across the package."""

import functools
import json


class InputError(ValueError):
    """An operation received structurally invalid inputs."""


class IngestionError(ValueError):
    """An input file could not be read or parsed: a dataset CSV, a checkpoint,
    an error-set or loss-snapshot file, or a run report."""


class ConfigError(ValueError):
    """A configuration file or config object is malformed or out of range."""


class DataWarning(UserWarning):
    """Non-fatal data problem, e.g. a group vanishing from a subsample."""


class TrainingWarning(UserWarning):
    """Non-fatal training anomaly, e.g. an empty error set."""


class AnalysisWarning(UserWarning):
    """Non-fatal analysis fallback, e.g. sampling with replacement."""


def reads_file(read):
    """Decorates `read(path, ...)` so that a file that is not UTF-8 text, or
    not the JSON it should hold, raises an IngestionError naming the path."""
    @functools.wraps(read)
    def reader(path, *args, **kwargs):
        try:
            return read(path, *args, **kwargs)
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise IngestionError(f"{path}: {e}") from None
    return reader
