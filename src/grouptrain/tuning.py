"""Hyperparameter grid sweeps with worst-group-validation selection of
early-stopped checkpoints, and the validation-set-size study.

Every run in a sweep records its metrics under both early-stopping criteria
(worst-group and average validation accuracy), so one sweep supports both
"tuned for worst-group" and "tuned for average" comparisons.

No trainer sees the validation split, so the study trains each grid point
once and scores its trajectory on each reduced split with `epoch_scores`,
the function that fills the history of training on that split: the study's
picks equal those of retraining exactly.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import statistics
from dataclasses import dataclass
from typing import Callable, Sequence

from .analysis import GroupMetrics, evaluate_groups
from .data import Dataset, subsample_validation
from .errors import InputError
from .trainers import (CRITERIA, WORST_GROUP, TrainConfig, TrainResult,
                       epoch_scores, select_checkpoint, train_population)
from .trainers import train  # noqa: F401 (bench/hostspeed.py wraps tuning.train at start-up)


@dataclass(frozen=True, eq=False)
class Grid:
    """A base config plus per-field value lists, enumerated as the Cartesian
    product with axes sorted by field name (last-sorted axis fastest)."""

    base: TrainConfig
    axes: dict[str, tuple]

    def __post_init__(self):
        valid = {f.name for f in dataclasses.fields(TrainConfig)}
        for key, values in self.axes.items():
            if key not in valid:
                raise InputError(f"grid axis {key!r} is not a TrainConfig field")
            if len(tuple(values)) == 0:
                raise InputError(f"grid axis {key!r} has no values")
        object.__setattr__(self, "axes", {k: tuple(v) for k, v in self.axes.items()})

    def configs(self) -> list[TrainConfig]:
        names = sorted(self.axes)
        out = []
        for combo in itertools.product(*(self.axes[n] for n in names)):
            out.append(dataclasses.replace(self.base, **dict(zip(names, combo))))
        return out

    def __len__(self) -> int:
        n = 1
        for values in self.axes.values():
            n *= len(values)
        return n


@dataclass(frozen=True)
class SelectionMetrics:
    """Metrics of one run at the epoch chosen by one stopping criterion."""

    selected_epoch: int
    val_worst_group: float
    val_average: float
    test_worst_group: float
    test_average: float


@dataclass(frozen=True, eq=False)
class SweepRow:
    config: TrainConfig
    by_criterion: dict[str, SelectionMetrics]


@dataclass(eq=False)
class SweepResult:
    """One row per grid point, in enumeration order."""

    rows: list[SweepRow]

    def best(self, criterion: str) -> int:
        """The index of the row `select_checkpoint` picks from the rows'
        validation scores at their `criterion` checkpoints: ties go to the
        earliest row."""
        if criterion not in CRITERIA:
            raise InputError(f"unknown criterion {criterion!r}")
        if not self.rows:  # select_checkpoint's -1 would index the last row
            raise InputError("a sweep without rows has no best row")
        picks = [row.by_criterion[criterion] for row in self.rows]
        return select_checkpoint([(m.val_worst_group, m.val_average) for m in picks],
                                 criterion)[0]


def _train_grid(grid: Grid, train_data: Dataset,
                val: Dataset) -> list[tuple[TrainConfig, TrainResult]]:
    """Each grid point's config and its one run, in enumeration order; the
    grid trains in lockstep, its points the lanes of shared minibatch loops."""
    configs = grid.configs()
    if any(c.epochs < 1 for c in configs):
        raise InputError("sweeps need epochs >= 1")
    return list(zip(configs, train_population(train_data, val, configs)))


def _test_metrics(run: TrainResult, test: Dataset) -> Callable[[int], GroupMetrics]:
    """Test metrics of the run's epoch-e model (-1: the initial model),
    each evaluated at most once."""
    return functools.cache(lambda epoch: evaluate_groups(run.trajectory[epoch + 1], test))


def _evaluate_config(cfg: TrainConfig, scores: Sequence[tuple[float, float]],
                     test_at: Callable[[int], GroupMetrics]) -> SweepRow:
    """One run's row: per criterion, the checkpoint select_checkpoint picks
    from per-epoch (worst-group, average) validation `scores`, and its test
    metrics."""
    by_criterion = {}
    for criterion in CRITERIA:
        epoch, (val_worst_group, val_average) = select_checkpoint(scores, criterion)
        test_metrics = test_at(epoch)
        by_criterion[criterion] = SelectionMetrics(
            selected_epoch=epoch,
            val_worst_group=val_worst_group,
            val_average=val_average,
            test_worst_group=test_metrics.worst_group_accuracy,
            test_average=test_metrics.average_accuracy,
        )
    return SweepRow(cfg, by_criterion)


def grid_sweep(grid: Grid, train_data: Dataset, val: Dataset, test: Dataset) -> SweepResult:
    """Train every grid point in enumeration order and early-stop each run
    under both criteria; `SweepResult.best` picks a row per criterion."""
    rows = [_evaluate_config(cfg, [entry[1:] for entry in run.history], _test_metrics(run, test))
            for cfg, run in _train_grid(grid, train_data, val)]
    return SweepResult(rows)


@dataclass(frozen=True)
class FractionResult:
    fraction: float
    per_seed_test_worst_group: tuple[float, ...]
    median_test_worst_group: float


def validation_size_study(fractions: Sequence[float], grid: Grid, train_data: Dataset,
                          val: Dataset, test: Dataset,
                          seeds: Sequence[int]) -> list[FractionResult]:
    """For each fraction and seed, subsample the validation set, tune on the
    reduced set by worst-group accuracy, and evaluate the selected model on
    the full test set; report per-seed values and their median. This costs
    one training per grid point; at fraction 1 the histories hold the scores."""
    if any(not (0.0 < f <= 1.0) for f in fractions):
        raise InputError("fractions must lie in (0, 1]")
    if not seeds:
        raise InputError("at least one subsampling seed required")
    runs = [(cfg, run, _test_metrics(run, test))
            for cfg, run in _train_grid(grid, train_data, val)]
    out = []
    for fraction in fractions:
        per_seed = []
        for seed in seeds:
            reduced = subsample_validation(val, fraction, seed)
            rows = []
            for cfg, run, test_at in runs:
                scores = ([entry[1:] for entry in run.history] if reduced is val
                          else epoch_scores(run.trajectory, reduced))
                rows.append(_evaluate_config(cfg, scores, test_at))
            best = rows[SweepResult(rows).best(WORST_GROUP)]
            per_seed.append(best.by_criterion[WORST_GROUP].test_worst_group)
        out.append(FractionResult(float(fraction), tuple(per_seed),
                                  float(statistics.median(per_seed))))
    return out
