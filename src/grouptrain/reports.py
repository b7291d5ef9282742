"""Persistence: dataset fingerprints, text checkpoints, CSV tables and the
JSON run report. Everything written here is deterministic for identical
inputs; wall-clock metadata lives under the report's "timing" key only.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .analysis import CompositionPoint, EnrichmentRow, ErrorSet, GroupMetrics
from .data import ColumnKind, Dataset, csv_rows, read_columns
from .errors import IngestionError, reads_file
from .models import Architecture, Model
from .trainers import AVERAGE, WORST_GROUP, EpochMetrics
from .tuning import FractionResult, SweepResult


def _f(x: float) -> str:
    return "%.17g" % float(x)


def fingerprint(data: Dataset) -> str:
    """Stable content hash over the canonical CSV serialization, computed
    once per dataset (`Dataset.csv_digest`). Annotations are content:
    stripping them changes the hash. The dataset name does not participate."""
    return "sha256:" + data.csv_digest()


# ---------------------------------------------------------------------------
# Model checkpoints: architecture header plus one parameter per line in
# decimal text at 17 significant digits (lossless for float64).

_CKPT_MAGIC = "grouptrain-model v1"


def save_model(model: Model, path) -> None:
    lines = [
        _CKPT_MAGIC,
        f"input_dim={model.arch.input_dim}",
        "hidden=" + ",".join(str(h) for h in model.arch.hidden),
        f"n_classes={model.arch.n_classes}",
        "activation=tanh",
        f"params={model.params.size}",
    ]
    lines += [_f(v) for v in model.params]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@reads_file
def load_model(path) -> Model:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != _CKPT_MAGIC:
        raise IngestionError(f"{path}: not a {_CKPT_MAGIC!r} checkpoint")
    header = {}
    for line in lines[1:6]:
        key, _, value = line.partition("=")
        header[key] = value
    if header.get("activation") != "tanh":
        raise IngestionError(f"{path}: unsupported activation {header.get('activation')!r}")
    try:
        hidden = tuple(int(h) for h in header["hidden"].split(",") if h)
        arch = Architecture(int(header["input_dim"]), hidden, int(header["n_classes"]))
        count = int(header["params"])
    except (KeyError, ValueError) as e:
        raise IngestionError(f"{path}: malformed checkpoint header ({e})") from None
    if count != arch.n_params:
        raise IngestionError(f"{path}: params={count} does not fit the architecture "
                             f"({arch.n_params} expected)")
    values = lines[6:6 + count]
    if len(values) != count:
        raise IngestionError(f"{path}: expected {count} parameters, found {len(values)}")
    if len(lines) > 6 + count:
        raise IngestionError(f"{path}: line {count + 7}: {lines[6 + count]!r} after the "
                             f"{count} parameters")
    params = np.empty(count)
    for i, v in enumerate(values):
        try:
            params[i] = float(v)
        except ValueError:
            raise IngestionError(f"{path}: line {i + 7}: non-numeric parameter {v!r}") from None
        if not np.isfinite(params[i]):
            raise IngestionError(f"{path}: line {i + 7}: non-finite parameter {v!r}")
    return Model(arch, params)


# ---------------------------------------------------------------------------
# Dict views for the JSON report

def group_metrics_to_dict(gm: GroupMetrics) -> dict:
    return {
        "average_accuracy": gm.average_accuracy,
        "worst_group_accuracy": gm.worst_group_accuracy,
        "worst_group": list(gm.worst_group),
        "per_group": [
            {"attribute": g.attribute, "label": g.label,
             "count": acc.count, "accuracy": acc.accuracy}
            for g, acc in sorted(gm.per_group.items())
        ],
    }


def write_report(path, report: dict) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


@reads_file
def read_report(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def strip_timing(report: dict) -> dict:
    """The report without wall-clock metadata, for determinism comparisons."""
    return {k: v for k, v in report.items() if k != "timing"}


# ---------------------------------------------------------------------------
# CSV tables

def _write_rows(path, header: Sequence[str], rows) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_history_csv(path, history: Sequence[EpochMetrics]) -> None:
    _write_rows(path, ["epoch", "train_loss", "val_worst_group_acc", "val_average_acc"],
                [(e, _f(h.train_loss), _f(h.val_worst_group), _f(h.val_average))
                 for e, h in enumerate(history)])


def write_error_set_csv(path, error_set: ErrorSet) -> None:
    _write_rows(path, ["index"], [["# source_epoch=%d" % error_set.source_epoch]]
                + [[i] for i in error_set.indices.tolist()])


@reads_file
def read_error_set_csv(path) -> ErrorSet:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "index":
        raise IngestionError(f"{path}: not an error-set file")
    source_epoch, indices = None, []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        epoch_line = line.startswith("# source_epoch=")
        try:
            value = int(line.partition("=")[2] if epoch_line else line)
        except ValueError:
            raise IngestionError(f"{path}: line {lineno}: not an integer: {line!r}") from None
        if epoch_line:
            # write_error_set_csv puts it once, before the indices.
            if source_epoch is not None or indices:
                raise IngestionError(f"{path}: line {lineno}: {line!r} must come once, "
                                     f"before the first index")
            if value < -1:
                raise IngestionError(f"{path}: line {lineno}: {line!r}: the source epoch "
                                     f"must be >= -1")
            source_epoch = value
        elif value < 0:
            raise IngestionError(f"{path}: line {lineno}: negative index {value}")
        else:
            indices.append(value)
    return ErrorSet(np.asarray(indices, dtype=np.int64),
                    -1 if source_epoch is None else source_epoch)


def write_enrichment_csv(path, rows: Sequence[EnrichmentRow]) -> None:
    _write_rows(
        path,
        ["attribute", "label", "count", "empirical_rate", "error_count",
         "error_set_share", "enrichment"],
        [(r.group.attribute, r.group.label, r.count, _f(r.empirical_rate),
          r.error_count, _f(r.error_set_share), _f(r.enrichment)) for r in rows])


def write_composition_csv(path, points: Sequence[CompositionPoint]) -> None:
    _write_rows(path, ["epoch", "set_size", "precision", "recall"],
                [(p.epoch, p.set_size, _f(p.precision), _f(p.recall)) for p in points])


def write_loss_snapshots_csv(path, snapshots: np.ndarray) -> None:
    """One row per epoch, one column per training example, with csv.writer's
    line terminator; the cells need no quotes."""
    snapshots = np.asarray(snapshots, dtype=np.float64)
    header = ",".join(["epoch"] + [f"x{i}" for i in range(snapshots.shape[1])])
    with Path(path).open("wb") as fh:
        fh.write(header.encode("ascii") + b"\r\n")
        fh.writelines(block.replace(b"\n", b"\r\n")
                      for block in csv_rows([np.arange(len(snapshots))], snapshots))


_EPOCH = ColumnKind(np.int64, "bad epoch")
_LOSS = ColumnKind(np.float64, "non-numeric loss", "non-finite loss")


@reads_file
def read_loss_snapshots_csv(path) -> np.ndarray:
    """The (epochs, examples) losses of a loss-snapshot file: the header
    `epoch,x0,x1,...`, then one row per epoch, numbered from 0."""
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    if header != ["epoch"] + [f"x{i}" for i in range(len(header) - 1)]:
        raise IngestionError(f"{path}: not a loss-snapshot file")
    (epochs,), losses = read_columns(path, header, [("epoch", _EPOCH)], header[1:], _LOSS)
    wrong = np.flatnonzero(epochs != np.arange(len(epochs)))
    if len(wrong):
        raise IngestionError(f"{path}: row {wrong[0] + 1}, column 'epoch': "
                             f"expected epoch {wrong[0]}, found {epochs[wrong[0]]}")
    return losses


_SWEEP_CONFIG_COLS = ["algorithm", "epochs", "batch_size", "learning_rate", "momentum",
                      "l2", "seed", "hidden", "id_epochs", "upweight_factor",
                      "refresh_every", "alpha", "gce_q", "group_step_size"]
_SWEEP_METRIC_COLS = ["selected_epoch", "val_worst_group", "val_average",
                      "test_worst_group", "test_average"]


def write_sweep_csv(path, sweep: SweepResult) -> None:
    """One row per grid point with both criterion blocks (wg_* columns for
    worst-group selection, avg_* for average selection)."""
    header = (["index"] + _SWEEP_CONFIG_COLS
              + [f"wg_{c}" for c in _SWEEP_METRIC_COLS]
              + [f"avg_{c}" for c in _SWEEP_METRIC_COLS])
    rows = []
    for i, row in enumerate(sweep.rows):
        d = dataclasses.asdict(row.config)
        cells = [i]
        for col in _SWEEP_CONFIG_COLS:
            v = d[col]
            if col == "hidden":
                v = ";".join(str(h) for h in v)
            cells.append("" if v is None else v)
        for criterion in (WORST_GROUP, AVERAGE):
            m = row.by_criterion[criterion]
            cells += [m.selected_epoch, _f(m.val_worst_group), _f(m.val_average),
                      _f(m.test_worst_group), _f(m.test_average)]
        rows.append(cells)
    _write_rows(path, header, rows)


def write_study_csv(path, results: Sequence[FractionResult]) -> None:
    n_seeds = len(results[0].per_seed_test_worst_group) if results else 0
    header = (["fraction", "median_test_worst_group"]
              + [f"seed{i}_test_worst_group" for i in range(n_seeds)])
    _write_rows(path, header,
                [[_f(r.fraction), _f(r.median_test_worst_group)]
                 + [_f(v) for v in r.per_seed_test_worst_group] for r in results])
