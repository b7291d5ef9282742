"""Hyperparameter grid sweeps with worst-group-validation selection of
early-stopped checkpoints, and the validation-set-size study.

Every run in a sweep records its metrics under both early-stopping criteria
(worst-group and average validation accuracy), so one sweep supports both
"tuned for worst-group" and "tuned for average" comparisons.
"""

from __future__ import annotations

import dataclasses
import itertools
import statistics
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analysis import evaluate_groups
from .data import Dataset, subsample_validation
from .errors import InputError
from .trainers import AVERAGE, CRITERIA, WORST_GROUP, TrainConfig, train


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
        if not self.axes:
            return [self.base]
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
    """One row per grid point (enumeration order), with the argmax row index
    under each criterion (ties resolve to the earliest row)."""

    criterion: str
    rows: list[SweepRow]
    best_by_worst_group: int
    best_by_average: int

    def selected(self, criterion: str | None = None) -> SelectionMetrics:
        criterion = criterion or self.criterion
        idx = self.best_by_worst_group if criterion == WORST_GROUP else self.best_by_average
        return self.rows[idx].by_criterion[criterion]


def _evaluate_config(cfg: TrainConfig, train_data: Dataset, val: Dataset,
                     test: Dataset) -> SweepRow:
    result = train(train_data, val, cfg)
    by_criterion = {}
    for criterion in CRITERIA:
        ckpt = result.checkpoints[criterion]
        entry = result.history[ckpt.epoch]
        test_metrics = evaluate_groups(ckpt.model, test)
        by_criterion[criterion] = SelectionMetrics(
            selected_epoch=ckpt.epoch,
            val_worst_group=entry.val_worst_group,
            val_average=entry.val_average,
            test_worst_group=test_metrics.worst_group_accuracy,
            test_average=test_metrics.average_accuracy,
        )
    return SweepRow(cfg, by_criterion)


def grid_sweep(grid: Grid, train_data: Dataset, val: Dataset, test: Dataset,
               criterion: str = WORST_GROUP) -> SweepResult:
    """Train every grid point in enumeration order, early-stop each run
    under both criteria, and pick the best row per criterion by its
    validation metric."""
    if criterion not in CRITERIA:
        raise InputError(f"unknown criterion {criterion!r}")
    configs = grid.configs()
    if not configs:
        raise InputError("empty grid")
    if any(c.epochs < 1 for c in configs):
        raise InputError("sweeps need epochs >= 1")
    rows = [_evaluate_config(c, train_data, val, test) for c in configs]
    best_wg = int(np.argmax([r.by_criterion[WORST_GROUP].val_worst_group for r in rows]))
    best_avg = int(np.argmax([r.by_criterion[AVERAGE].val_average for r in rows]))
    return SweepResult(criterion, rows, best_wg, best_avg)


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
    the full test set; report per-seed values and their median."""
    if any(not (0.0 < f <= 1.0) for f in fractions):
        raise InputError("fractions must lie in (0, 1]")
    if not seeds:
        raise InputError("at least one subsampling seed required")
    out = []
    for fraction in fractions:
        per_seed = []
        for seed in seeds:
            reduced = subsample_validation(val, fraction, seed)
            sweep = grid_sweep(grid, train_data, reduced, test, criterion=WORST_GROUP)
            per_seed.append(sweep.selected().test_worst_group)
        out.append(FractionResult(float(fraction), tuple(per_seed),
                                  float(statistics.median(per_seed))))
    return out
