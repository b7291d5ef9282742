"""Datasets: synthetic spurious-correlation generation, CSV ingestion,
group-annotation management and validation subsampling.

All randomness flows through numpy's PCG64 generator seeded from explicit
integers, so every dataset is reproducible bit-for-bit for a given
(spec, seed) on any platform running the same numpy version.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DataWarning, IngestionError, InputError


class GroupId(NamedTuple):
    """A group is a (spurious attribute, label) pair."""

    attribute: int
    label: int


class Dataset:
    """An ordered, immutable collection of examples.

    Features (finite floats), labels and optional attributes are stored as
    read-only arrays; example order is stable and part of the value. A
    dataset has group annotations iff every example carries one, which here
    means the attribute column is present.
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray,
                 attributes: np.ndarray | None = None, name: str = "dataset"):
        f = np.array(features, dtype=np.float64, copy=True)
        y = np.array(labels, dtype=np.int64, copy=True).ravel()
        if f.ndim != 2:
            raise InputError("features must be a 2-D array")
        if not np.isfinite(f).all():
            row, col = np.argwhere(~np.isfinite(f))[0]
            raise InputError(f"features must be finite; features[{row}, {col}] is "
                             f"{float(f[row, col])!r}")
        if len(y) != f.shape[0]:
            raise InputError("labels length must match the number of rows")
        if len(y) and y.min() < 0:
            raise InputError("labels must be non-negative integers")
        a = None
        if attributes is not None:
            a = np.array(attributes, dtype=np.int64, copy=True).ravel()
            if len(a) != len(y):
                raise InputError("attributes length must match the number of rows")
            if len(a) and a.min() < 0:
                raise InputError("attributes must be non-negative integers")
            a.setflags(write=False)
        f.setflags(write=False)
        y.setflags(write=False)
        self.features = f
        self.labels = y
        self.attributes = a
        self.name = str(name)
        self._group_index: tuple[tuple[GroupId, ...], np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def has_group_annotations(self) -> bool:
        return self.attributes is not None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        if self.name != other.name:
            return False
        if (self.attributes is None) != (other.attributes is None):
            return False
        same_attrs = self.attributes is None or np.array_equal(self.attributes, other.attributes)
        return (same_attrs and np.array_equal(self.labels, other.labels)
                and np.array_equal(self.features, other.features))

    __hash__ = None  # type: ignore[assignment]

    def group_index(self) -> tuple[tuple[GroupId, ...], np.ndarray, np.ndarray]:
        """Sorted distinct groups; per example, the position of its group
        among them; per group, its example count (read-only int64 arrays).
        Computed once: the data never changes."""
        if self.attributes is None:
            raise InputError(f"dataset {self.name!r} has no group annotations")
        if self._group_index is None:
            pairs, codes = np.unique(np.stack([self.attributes, self.labels], axis=1),
                                     axis=0, return_inverse=True)
            codes = codes.ravel().astype(np.int64)
            counts = np.bincount(codes, minlength=len(pairs))
            codes.setflags(write=False)
            counts.setflags(write=False)
            self._group_index = (tuple(GroupId(int(a), int(y)) for a, y in pairs), codes, counts)
        return self._group_index

    def subset(self, indices: np.ndarray, name: str | None = None) -> "Dataset":
        """New dataset holding the given rows, in the given order."""
        idx = np.asarray(indices, dtype=np.int64)
        attrs = self.attributes[idx] if self.attributes is not None else None
        return Dataset(self.features[idx], self.labels[idx], attrs,
                       name if name is not None else self.name)


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the two-coordinate Gaussian spurious-correlation design.

    One coordinate carries the label signal (mean gap core_separation), one
    carries the spurious-attribute signal (mean gap spurious_separation), and
    noise_dims coordinates are pure noise. Training data correlates attribute
    with label at majority_fraction; validation and test are group-balanced.
    """

    n_train: int
    n_val: int
    n_test: int
    majority_fraction: float
    label_balance: tuple[float, float]
    core_separation: float
    spurious_separation: float
    noise_dims: int
    noise_sigma: float

    def __post_init__(self):
        if min(self.n_train, self.n_val, self.n_test) < 1:
            raise InputError("split sizes must be positive")
        if not (0.5 < self.majority_fraction < 1.0):
            raise InputError("majority_fraction must lie in (0.5, 1)")
        balance = tuple(float(b) for b in self.label_balance)
        if len(balance) != 2:
            raise InputError("label_balance must have one entry per binary label")
        if any(b <= 0 for b in balance) or abs(sum(balance) - 1.0) > 1e-9:
            raise InputError("label_balance entries must be positive and sum to 1")
        if self.core_separation <= 0 or self.spurious_separation <= 0:
            raise InputError("separations must be positive")
        if self.noise_dims < 0:
            raise InputError("noise_dims must be >= 0")
        if self.noise_sigma <= 0:
            raise InputError("noise_sigma must be positive")
        object.__setattr__(self, "label_balance", balance)

    @property
    def n_features(self) -> int:
        return 2 + self.noise_dims


_GROUP_ORDER = (GroupId(0, 0), GroupId(0, 1), GroupId(1, 0), GroupId(1, 1))


def _split_rng(seed: int, split: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(split,))))


def _features_for(rng, labels, attrs, spec: SyntheticSpec) -> np.ndarray:
    n = len(labels)
    core = (2 * labels - 1) * (spec.core_separation / 2.0) + rng.normal(0.0, spec.noise_sigma, n)
    spur = (2 * attrs - 1) * (spec.spurious_separation / 2.0) + rng.normal(0.0, spec.noise_sigma, n)
    noise = rng.normal(0.0, spec.noise_sigma, (n, spec.noise_dims))
    return np.column_stack([core, spur, noise]) if spec.noise_dims else np.column_stack([core, spur])


def _balanced_split(rng, n: int, spec: SyntheticSpec, name: str) -> Dataset:
    per_group = n // len(_GROUP_ORDER)
    dropped = n - per_group * len(_GROUP_ORDER)
    blocks = []
    for g in _GROUP_ORDER:
        labels = np.full(per_group, g.label, dtype=np.int64)
        attrs = np.full(per_group, g.attribute, dtype=np.int64)
        blocks.append((_features_for(rng, labels, attrs, spec), labels, attrs))
    features = np.concatenate([b[0] for b in blocks])
    labels = np.concatenate([b[1] for b in blocks])
    attrs = np.concatenate([b[2] for b in blocks])
    if dropped:
        name = f"{name}-dropped{dropped}"
    return Dataset(features, labels, attrs, name)


def generate_synthetic(spec: SyntheticSpec, seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """Deterministic (train, val, test) for the given spec and seed.

    Train draws labels from label_balance and sets attribute = label with
    probability majority_fraction; val and test hold equal counts per group,
    dropping any remainder (recorded in the dataset name). All three splits
    carry group annotations; trainers other than the group-aware ones are
    handed stripped views downstream.
    """
    rng = _split_rng(seed, 0)
    labels = rng.choice(2, size=spec.n_train, p=list(spec.label_balance)).astype(np.int64)
    majority = rng.random(spec.n_train) < spec.majority_fraction
    attrs = np.where(majority, labels, 1 - labels).astype(np.int64)
    train = Dataset(_features_for(rng, labels, attrs, spec), labels, attrs, "synthetic-train")
    val = _balanced_split(_split_rng(seed, 1), spec.n_val, spec, "synthetic-val")
    test = _balanced_split(_split_rng(seed, 2), spec.n_test, spec, "synthetic-test")
    return train, val, test


def strip_group_annotations(data: Dataset) -> Dataset:
    """The same examples with group annotations removed; identity if absent."""
    if data.attributes is None:
        return data
    return Dataset(data.features, data.labels, None, data.name)


def require_binary_groups(data: Dataset, what: str) -> None:
    """Raise InputError("<what> requires binary attributes" or "... labels")
    unless every attribute, then every label, of annotated `data` is 0 or 1."""
    for arr, name in ((data.attributes, "attributes"), (data.labels, "labels")):
        if len(np.setdiff1d(np.unique(arr), [0, 1])):
            raise InputError(f"{what} requires binary {name}")


def subsample_validation(val: Dataset, fraction: float, seed: int) -> Dataset:
    """Uniform sample without replacement of floor(fraction * m) examples
    (at least one), preserving relative order and group annotations.

    Warns with DataWarning if any group present in `val` is lost entirely;
    downstream worst-group metrics then cover the represented groups only.
    """
    if not val.has_group_annotations:
        raise InputError("subsample_validation needs a group-annotated validation set")
    if not (0.0 < fraction <= 1.0):
        raise InputError("fraction must lie in (0, 1]")
    m = len(val)
    k = max(1, int(math.floor(fraction * m)))
    if k >= m:
        return val
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    idx = np.sort(rng.choice(m, size=k, replace=False))
    out = val.subset(idx, name=f"{val.name}-sub{fraction:g}")
    lost = set(val.group_index()[0]) - set(out.group_index()[0])
    if lost:
        missing = ", ".join(f"(a={g.attribute}, y={g.label})" for g in sorted(lost))
        warnings.warn(
            f"subsample of {val.name!r} lost group(s) {missing}; "
            "worst-group metrics cover represented groups only",
            DataWarning, stacklevel=2,
        )
    return out


# ---------------------------------------------------------------------------
# CSV schema: header row with `label`, optional `attribute`, features f0..fk.

def save_csv(data: Dataset, path) -> None:
    """Write the canonical CSV form (floats at 17 significant digits)."""
    Path(path).write_text(dataset_csv_text(data), encoding="utf-8")


def dataset_csv_text(data: Dataset) -> str:
    header, columns = ["label"], [data.labels.tolist()]
    if data.attributes is not None:
        header.append("attribute")
        columns.append(data.attributes.tolist())
    header += [f"f{j}" for j in range(data.n_features)]
    template = ",".join(["%d"] * len(columns) + ["%.17g"] * data.n_features)
    rows = zip(*columns, *data.features.T.tolist())
    return "\n".join([",".join(header)] + [template % row for row in rows]) + "\n"


def load_csv(path, name: str | None = None) -> Dataset:
    """Read a dataset from CSV: the `label` column, the `attribute` column
    (group annotations) if present, and every column named f<number> as a
    feature, in file order. Row numbers in errors are 1-based data rows.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if "label" not in header:
            raise IngestionError(f"{path}: missing label column 'label'")
        attr_col = header.index("attribute") if "attribute" in header else None
        feat_names = [h for h in header if h.startswith("f") and h[1:].isdigit()]
        if not feat_names:
            raise IngestionError(f"{path}: no feature columns found")
        label_col = header.index("label")
        feat_cols = [header.index(c) for c in feat_names]

        labels, attrs, rows = [], [], []
        for rownum, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise IngestionError(f"{path}: row {rownum} has {len(row)} cells, expected {len(header)}")
            try:
                y = int(row[label_col])
                if y < 0:
                    raise ValueError
            except ValueError:
                raise IngestionError(
                    f"{path}: row {rownum}, column 'label': unknown label value {row[label_col]!r}"
                ) from None
            labels.append(y)
            if attr_col is not None:
                try:
                    a = int(row[attr_col])
                    if a < 0:
                        raise ValueError
                except ValueError:
                    raise IngestionError(
                        f"{path}: row {rownum}, column 'attribute': bad attribute value {row[attr_col]!r}"
                    ) from None
                attrs.append(a)
            vals = []
            for cname, c in zip(feat_names, feat_cols):
                try:
                    vals.append(float(row[c]))
                except ValueError:
                    raise IngestionError(
                        f"{path}: row {rownum}, column {cname!r}: non-numeric feature {row[c]!r}"
                    ) from None
            rows.append(vals)

    if not rows:
        raise IngestionError(f"{path}: no data rows")
    values = np.asarray(rows)
    if not np.isfinite(values).all():
        row, col = np.argwhere(~np.isfinite(values))[0]
        raise IngestionError(f"{path}: row {row + 1}, column {feat_names[col]!r}: "
                             f"non-finite feature {float(values[row, col])!r}")
    return Dataset(values, np.asarray(labels),
                   np.asarray(attrs) if attr_col is not None else None,
                   name if name is not None else path.stem)
