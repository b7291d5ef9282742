"""Evaluation and diagnostics: per-group accuracy, error-set composition
(precision / recall / empirical rate / enrichment), top-loss-set tracking
for the batch-reweighting trainer, and error-set manipulation modes.

Everything here is a pure function over immutable inputs. Diagnostics read
group annotations from the stored dataset, never from a trainer's view.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset, GroupId, require_binary_groups
from .errors import AnalysisWarning, InputError
from .models import Model, forward_batch, loss_values, predict

SWAP_SAME_GROUP = "swap-same-group"
DROP_GROUP = "drop-group"
DROP_Y_EQ_A = "drop-y-eq-a"
DROP_Y_NEQ_A = "drop-y-neq-a"
REPLACE_RANDOM = "replace-random"

REPLACE_MODES = (SWAP_SAME_GROUP, DROP_GROUP, DROP_Y_EQ_A, DROP_Y_NEQ_A, REPLACE_RANDOM)


@dataclass(frozen=True)
class GroupAccuracy:
    count: int
    accuracy: float


@dataclass(frozen=True, eq=False)
class GroupMetrics:
    """Per-group accuracies with the count-weighted average and the minimum."""

    per_group: dict[GroupId, GroupAccuracy]
    average_accuracy: float
    worst_group_accuracy: float
    worst_group: GroupId


def group_metrics(predictions: np.ndarray, data: Dataset) -> GroupMetrics:
    """Group accuracy report for precomputed argmax predictions."""
    if not data.has_group_annotations:
        raise InputError("group metrics need a group-annotated dataset")
    if len(data) == 0:
        raise InputError(f"group metrics need rows; dataset {data.name!r} has none")
    preds = np.asarray(predictions).ravel()
    if len(preds) != len(data):
        raise InputError("one prediction per example required")
    correct = preds == data.labels
    groups, codes, counts = data.group_index()
    accuracy = np.bincount(codes[correct], minlength=len(groups)) / counts
    per_group = {g: GroupAccuracy(int(counts[i]), float(accuracy[i]))
                 for i, g in enumerate(groups)}
    worst = min(per_group, key=lambda g: (per_group[g].accuracy, g))
    return GroupMetrics(
        per_group=per_group,
        average_accuracy=float(correct.mean()),
        worst_group_accuracy=per_group[worst].accuracy,
        worst_group=worst,
    )


def evaluate_groups(model: Model, data: Dataset) -> GroupMetrics:
    """Per-group zero-one accuracy of a model; worst group is the minimum
    (ties broken by (attribute, label) order)."""
    return group_metrics(predict(model, data.features), data)


@dataclass(frozen=True, eq=False)
class ErrorSet:
    """Sorted unique indices of training examples to upweight, plus the
    number of identification epochs that produced them (-1 when the set was
    not derived from a model)."""

    indices: np.ndarray
    source_epoch: int = -1

    def __post_init__(self):
        idx = np.unique(np.asarray(self.indices, dtype=np.int64).ravel())
        if len(idx) and idx[0] < 0:
            raise InputError("error-set indices must be non-negative")
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return len(self.indices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ErrorSet):
            return NotImplemented
        return (self.source_epoch == other.source_epoch
                and np.array_equal(self.indices, other.indices))

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True)
class ErrorSetStats:
    """How well an error set captures one target group.

    precision: fraction of the error set belonging to the target group.
    recall: fraction of the target group inside the error set.
    empirical_rate: the target group's share of the training data.
    enrichment: precision / empirical_rate (nan if the rate is zero).
    undefined: true when the error set is empty (precision reported as 0).
    """

    target_group: GroupId
    error_set_size: int
    precision: float
    recall: float
    empirical_rate: float
    enrichment: float
    undefined: bool = False


def _check_in_range(error_set: ErrorSet, train: Dataset, caller: str) -> None:
    """Every error-set index names a row of `train`."""
    if len(error_set) and error_set.indices[-1] >= len(train):
        raise InputError(f"{caller}: error-set index {error_set.indices[-1]} is out of range "
                         f"for dataset {train.name!r} of {len(train)} rows")


def _error_counts(error_set: ErrorSet, train: Dataset,
                  caller: str) -> tuple[dict[GroupId, tuple[int, int]], int]:
    """(examples, error-set members) per group present, in sorted group
    order, and the error-set size."""
    if not train.has_group_annotations:
        raise InputError(f"{caller} needs a group-annotated training set")
    _check_in_range(error_set, train, caller)
    idx = error_set.indices
    groups, codes, counts = train.group_index()
    hits = np.bincount(codes[idx], minlength=len(groups))
    return dict(zip(groups, zip(counts.tolist(), hits.tolist()))), len(idx)


def error_set_stats(error_set: ErrorSet, train: Dataset, target: GroupId) -> ErrorSetStats:
    """Precision / recall / empirical rate / enrichment of `error_set` for
    `target` over an annotated training set."""
    if len(train) == 0:
        raise InputError(f"error_set_stats needs rows; dataset {train.name!r} has none")
    per_group, e_size = _error_counts(error_set, train, "error_set_stats")
    target = GroupId(*target)
    n_target, hits = per_group.get(target, (0, 0))
    empirical_rate = n_target / len(train)
    if e_size == 0:
        precision, undefined = 0.0, True
    else:
        precision, undefined = hits / e_size, False
    recall = hits / n_target if n_target else float("nan")
    enrichment = precision / empirical_rate if empirical_rate > 0 else float("nan")
    return ErrorSetStats(target, e_size, precision, recall, empirical_rate,
                         enrichment, undefined)


@dataclass(frozen=True)
class EnrichmentRow:
    group: GroupId
    count: int
    empirical_rate: float
    error_count: int
    error_set_share: float
    enrichment: float


def enrichment_table(error_set: ErrorSet, train: Dataset) -> list[EnrichmentRow]:
    """Enrichment and error-set share for every group of the attribute x label
    product, sorted by enrichment descending; combinations absent from the
    data are omitted with an AnalysisWarning naming them."""
    per_group, e_size = _error_counts(error_set, train, "enrichment_table")
    rows = []
    for g, (count, hits) in per_group.items():
        rate = count / len(train)
        share = hits / e_size if e_size else 0.0
        rows.append(EnrichmentRow(g, count, rate, hits, share, share / rate))
    rows.sort(key=lambda r: (-r.enrichment, r.group))
    missing = [GroupId(a, y)
               for a in sorted({g.attribute for g in per_group})
               for y in sorted({g.label for g in per_group})
               if (a, y) not in per_group]
    if missing:
        names = ", ".join(f"(a={g.attribute}, y={g.label})" for g in missing)
        warnings.warn(f"group(s) {names} absent from {train.name!r}; omitted",
                      AnalysisWarning, stacklevel=2)
    return rows


@dataclass(frozen=True)
class CompositionPoint:
    epoch: int
    set_size: int
    precision: float
    recall: float


def top_loss_indices(losses: np.ndarray, alpha: float) -> np.ndarray:
    """Indices of the ceil(alpha * n) highest losses, ties by lower index."""
    losses = np.asarray(losses, dtype=np.float64).ravel()
    n = len(losses)
    if not (0.0 < alpha <= 1.0):
        raise InputError("alpha must lie in (0, 1]")
    k = min(n, max(1, int(np.ceil(alpha * n - 1e-9))))
    order = np.lexsort((np.arange(n), -losses))
    return order[:k]


def loss_snapshots(trajectory: Sequence[Model], data: Dataset) -> np.ndarray:
    """Per-example cross-entropy on `data`, one row per model of
    trajectory[1:]: (epochs, len(data)), no rows for an untrained run."""
    rows = [loss_values(forward_batch(model, data.features), data.labels)
            for model in trajectory[1:]]
    return np.array(rows).reshape(len(rows), len(data))


def track_cvar_composition(snapshots: Sequence[np.ndarray], alpha: float,
                           train: Dataset, worst: GroupId) -> list[CompositionPoint]:
    """Worst-group precision/recall of the top alpha-fraction loss set for
    each recorded per-example loss snapshot (one loss per training example)."""
    if not train.has_group_annotations:
        raise InputError("track_cvar_composition needs a group-annotated training set")
    if len(train) == 0:
        raise InputError(f"track_cvar_composition needs rows; dataset {train.name!r} has none")
    for epoch, losses in enumerate(snapshots):
        if len(losses) != len(train):
            raise InputError(f"loss snapshot {epoch} has {len(losses)} losses; "
                             f"the training set has {len(train)} examples")
    worst = GroupId(*worst)
    in_group = (train.attributes == worst.attribute) & (train.labels == worst.label)
    n_worst = int(in_group.sum())
    out = []
    for epoch, losses in enumerate(snapshots):
        top = top_loss_indices(losses, alpha)
        hits = int(in_group[top].sum())
        out.append(CompositionPoint(
            epoch=epoch,
            set_size=len(top),
            precision=hits / len(top),
            recall=hits / n_worst if n_worst else float("nan"),
        ))
    return out


def replace_error_set(error_set: ErrorSet, train: Dataset, mode: str, *,
                      group: GroupId | None = None, seed: int | None = None) -> ErrorSet:
    """Build a manipulated error set for ablation experiments.

    swap-same-group: each member is replaced by a fresh example of the same
    group, drawn without replacement from outside the original set; when a
    group is too small to supply enough fresh examples, the shortfall is
    topped up from the group's original members (flagged with an
    AnalysisWarning), so per-group counts are always preserved exactly.
    drop-* modes remove the indicated subset; replace-random draws an
    equally sized uniform set.
    """
    if not train.has_group_annotations:
        raise InputError("replace_error_set needs a group-annotated training set")
    if mode not in REPLACE_MODES:
        raise InputError(f"unknown mode {mode!r}; expected one of {REPLACE_MODES}")
    _check_in_range(error_set, train, "replace_error_set")
    idx, source_epoch = error_set.indices, error_set.source_epoch
    attrs, labels = train.attributes, train.labels

    if mode in (DROP_Y_EQ_A, DROP_Y_NEQ_A):
        require_binary_groups(train, mode)

    if mode == DROP_GROUP:
        if group is None:
            raise InputError("drop-group needs a target group")
        g = GroupId(*group)
        keep = ~((attrs[idx] == g.attribute) & (labels[idx] == g.label))
        return ErrorSet(idx[keep], source_epoch)
    if mode == DROP_Y_EQ_A:
        return ErrorSet(idx[attrs[idx] != labels[idx]], source_epoch)
    if mode == DROP_Y_NEQ_A:
        return ErrorSet(idx[attrs[idx] == labels[idx]], source_epoch)

    if seed is None:
        raise InputError(f"{mode} needs a seed")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    if mode == REPLACE_RANDOM:
        return ErrorSet(rng.choice(len(train), size=len(idx), replace=False), source_epoch)

    # swap-same-group
    in_set = np.zeros(len(train), dtype=bool)
    in_set[idx] = True
    pieces = []
    for g in sorted({GroupId(int(attrs[i]), int(labels[i])) for i in idx}):
        members = np.flatnonzero((attrs == g.attribute) & (labels == g.label))
        k = int(in_set[members].sum())
        candidates = members[~in_set[members]]
        if len(candidates) >= k:
            pieces.append(rng.choice(candidates, size=k, replace=False))
        else:
            warnings.warn(
                f"group (a={g.attribute}, y={g.label}) too small to fully swap; "
                "keeping some original members",
                AnalysisWarning, stacklevel=2,
            )
            originals = members[in_set[members]]
            shortfall = k - len(candidates)
            pieces.append(candidates)
            pieces.append(rng.choice(originals, size=shortfall, replace=False))
    new_idx = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
    return ErrorSet(new_idx, source_epoch)
