"""Datasets: synthetic spurious-correlation generation, CSV ingestion,
group-annotation management and validation subsampling.

All randomness flows through numpy's PCG64 generator seeded from explicit
integers, so every dataset is reproducible bit-for-bit for a given
(spec, seed) on any platform running the same numpy version. `_rng` is the
package's one seeded-generator helper; `analysis` and `trainers` use it too.

CSV tables (datasets, and the CVaR loss snapshots `reports` reads) go
through one reader, `read_columns`, which reads the file row by row with
Python's csv module. A column's `ColumnKind` says how its cells read and
what a bad one's error says; a table's float columns share one kind, and
must be finite.

A dataset CSV may have an array twin beside it, `<stem>.npy` (`save_twin`;
`generate` writes one per split). `load_csv` takes the twin's arrays only
when their canonical CSV text is the CSV file's bytes, compared block by
block; its sha256 is then the dataset's cached fingerprint: the file parses
to those arrays bit for bit.
The twin is the one fast path: a file without a valid twin (absent,
unreadable, of another shape or dtype, or stale) is read as CSV, with the
same values and errors, at about four times a twin load's cost.

CSV output (`csv_rows`, and through it `save_csv` and the fingerprints) is
Python's `%d` / `%.17g` text of every cell, made in NumPy blocks:
fixed-notation floats (1e-4 <= |v| < 1e16) and integers 0 <= v < 10**17
exactly by table, every other cell by `%` itself.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DataWarning, IngestionError, InputError, reads_file


class GroupId(NamedTuple):
    """A group is a (spurious attribute, label) pair."""

    attribute: int
    label: int


def _integer_column(values, column: str) -> np.ndarray:
    """`values`, a 1-D array or one column, as a fresh flat int64 array of
    non-negative integers; an integer array converts as it is. An InputError
    names the column, and the shape or the first bad index and value."""
    array = np.asarray(values)
    if not (array.ndim == 1 or array.ndim == 2 and array.shape[1] == 1):
        raise InputError(f"{column} must be one column; got an array of shape {array.shape}")
    if array.dtype.kind not in "biu":
        array = np.asarray(array, dtype=np.float64).ravel()
        bad = ~(np.abs(array) < 2.0 ** 63) | (array != np.trunc(array))  # NaN is bad too
        if bad.any():
            i = int(bad.argmax())
            raise InputError(f"{column} must be integers; {column}[{i}] is {float(array[i])!r}")
    array = np.array(array, dtype=np.int64, copy=True).ravel()
    if array.min(initial=0) < 0:
        raise InputError(f"{column} must be non-negative integers")
    return array


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
        y = _integer_column(labels, "labels")
        if f.ndim != 2:
            raise InputError("features must be a 2-D array")
        if not np.isfinite(f).all():
            row, col = np.argwhere(~np.isfinite(f))[0]
            raise InputError(f"features must be finite; features[{row}, {col}] is "
                             f"{float(f[row, col])!r}")
        if len(y) != f.shape[0]:
            raise InputError("labels length must match the number of rows")
        a = None
        if attributes is not None:
            a = _integer_column(attributes, "attributes")
            if len(a) != len(y):
                raise InputError("attributes length must match the number of rows")
            a.setflags(write=False)
        f.setflags(write=False)
        y.setflags(write=False)
        self.features = f
        self.labels = y
        self.attributes = a
        self.name = str(name)
        self._group_index: tuple[tuple[GroupId, ...], np.ndarray, np.ndarray] | None = None
        self._csv_digest: str | None = None

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
            # One key per (attribute, label) pair, in the pairs' sorted order.
            n_labels = int(self.labels.max(initial=0)) + 1
            keys, codes = np.unique(self.attributes * n_labels + self.labels,
                                    return_inverse=True)
            codes = codes.astype(np.int64)
            counts = np.bincount(codes, minlength=len(keys))
            codes.setflags(write=False)
            counts.setflags(write=False)
            self._group_index = (tuple(GroupId(*divmod(k, n_labels)) for k in keys.tolist()),
                                 codes, counts)
        return self._group_index

    def csv_digest(self) -> str:
        """The sha256 hex digest of the canonical CSV text, the bytes
        `save_csv` writes. Computed once: the data never changes."""
        if self._csv_digest is None:
            digest = hashlib.sha256()
            for block in dataset_csv_blocks(self):
                digest.update(block)
            self._csv_digest = digest.hexdigest()
        return self._csv_digest

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
        for key, least in (("n_train", 1), ("n_val", 4), ("n_test", 4)):  # n // 4 per group
            if getattr(self, key) < least:
                raise InputError(f"{key}: must be >= {least}")
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


_GROUP_ORDER = (GroupId(0, 0), GroupId(0, 1), GroupId(1, 0), GroupId(1, 1))


def _seedseq(seed: int, *stream: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=stream)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    """The PCG64 generator of `seed`'s named stream (no stream: the seed's own)."""
    return np.random.Generator(np.random.PCG64(_seedseq(seed, *stream)))


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
    rng = _rng(seed, 0)
    labels = rng.choice(2, size=spec.n_train, p=list(spec.label_balance)).astype(np.int64)
    majority = rng.random(spec.n_train) < spec.majority_fraction
    attrs = np.where(majority, labels, 1 - labels).astype(np.int64)
    train = Dataset(_features_for(rng, labels, attrs, spec), labels, attrs, "synthetic-train")
    val = _balanced_split(_rng(seed, 1), spec.n_val, spec, "synthetic-val")
    test = _balanced_split(_rng(seed, 2), spec.n_test, spec, "synthetic-test")
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
    idx = np.sort(_rng(seed).choice(m, size=k, replace=False))
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
# CSV text: `%d` integer cells and `%.17g` float cells, formatted in blocks.
#
# A cell is rendered into a frame of three little-endian uint64 words (24
# bytes, NUL where no text goes); the block's frames are joined and their NULs
# deleted. A fast cell's 17 significant digits come from one integer N with
# 10**16 <= N < 10**17, written at bytes 1..17 of the frame by a table of
# 4-digit chunks. Its layout -- sign at byte 0, which digits stay in place,
# the decimal point, leading "0.000", which digits move right and how far,
# trailing zeros cut -- is one row of the _layouts() tables, picked by the
# cell's key. Integers 0 <= v < 10**17 take the same route with N = v. Every
# other cell (0, -0, nan, inf, |v| < 1e-4, |v| >= 1e16, negative or larger
# integers) is formatted by Python's `%` and copied into its frame.

_CELLS_PER_BLOCK = 4096  # keeps a block's temporaries in cache

_LEAD, _TAIL = 10000, 11000  # first rows of the 3- and 2-digit chunks


def _chunk_tables() -> tuple[np.ndarray, np.ndarray]:
    """The chunk table as uint32: "dddd" for 0..9999, then "\\0ddd" for the
    leading three digits and "dd\\0\\0" for the last two; and the trailing
    zeros of each entry's digits."""
    n = np.arange(10000)
    digits = (n[:, None] // 10 ** np.arange(3, -1, -1) % 10 + ord("0")).astype(np.uint8)
    chunks = np.concatenate([digits, np.pad(digits[:1000, 1:], ((0, 0), (1, 0))),
                             np.pad(digits[:100, 2:], ((0, 0), (0, 2)))])
    zeros = [sum(n[:count] % 10**k == 0 for k in range(1, width + 1))
             for count, width in ((10000, 4), (1000, 3), (100, 2))]
    return chunks.view(np.uint32).ravel(), np.concatenate(zeros).astype(np.int8)


_CHUNKS, _CHUNK_ZEROS = _chunk_tables()

# 10**k and its Veltkamp split into two 26-bit halves, k = 0..22 (all exact)
_SPLIT = 134217729.0  # 2**27 + 1
_POW10 = 10.0 ** np.arange(23)
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_PARTS = np.stack([_POW10, _POW10_HI, _POW10 - _POW10_HI])
_INT_POW10 = 10 ** np.arange(1, 17, dtype=np.int64)

_INT_KEY = 680 - 1  # after the 20 * 2 * 17 float keys
_OTHER_KEY = _INT_KEY + 18


def _layouts() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per key, the frame words of the fixed text (a fast text has at most
    23 bytes, so every frame can end in its separator, ","), of the mask of
    digit bytes kept in place, of the mask of digit bytes moved right, and
    the move in bits (repeated per word).

    Keys: ((e + 4) * 2 + negative) * 17 + t for a float with decimal exponent
    -4 <= e <= 15 whose N has t trailing zeros; _INT_KEY + d for an integer
    of d digits; _OTHER_KEY for a cell formatted by `%`."""
    fixed, still, moved = (np.zeros((_OTHER_KEY + 1, 24), np.uint8) for _ in range(3))
    fixed[:, 23] = ord(",")
    shift = np.full(_OTHER_KEY + 1, 8, np.uint64)
    for key, (e, negative, t) in enumerate(itertools.product(range(-4, 16), (0, 1), range(17))):
        fixed[key, 0] = negative * ord("-")
        if e >= 0:  # digits 0..e stay, "." at byte e + 2, the rest move one byte
            kept = max(16 - e - t, 0)
            if kept:
                fixed[key, e + 2] = ord(".")
            still[key, 1:e + 2] = 0xFF
            moved[key, e + 2:e + 2 + kept] = 0xFF
        else:  # "0.000" then every digit, moved 1 - e bytes
            fixed[key, 1:2 - e] = ord("0")
            fixed[key, 2] = ord(".")
            moved[key, 1:18 - t] = 0xFF
            shift[key] = 8 * (1 - e)
    for d in range(1, 18):
        still[_INT_KEY + d, 18 - d:18] = 0xFF
    return (fixed.view(np.uint64), still.view(np.uint64), moved.view(np.uint64),
            np.repeat(shift[:, None], 3, axis=1))


_FIXED, _STILL, _MOVED, _SHIFT = _layouts()


def _scaled(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """round-half-even(a * 10**p) as int64, exact for products below 2**63.

    Dekker's two-product: hi + lo is the exact product. Where hi >= 2**53 it
    is an even integer, so rounding lo half-to-even rounds the sum so."""
    pw, pw_hi, pw_lo = _POW10_PARTS.take(p, axis=1)
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    hi = a * pw
    lo = ((a_hi * pw_hi - hi) + a_hi * pw_lo + a_lo * pw_hi) + a_lo * pw_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _float_digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per value: N, the 17 significant digits of |v| as an integer, and
    p = 16 - e for its decimal exponent e; and which values are in the fast
    range 1e-4 <= |v| < 1e16 (N and p are meaningless elsewhere)."""
    a = np.abs(values)
    fast = (a >= 1e-4) & (a < 1e16)
    if not fast.all():
        a[~fast] = 1.0
    # floor(log10 a) = trunc(log10 a + 5) - 5 here; off by one near a power of
    # ten, which shows as N outside [10**16, 10**17) and is redone
    p = 21 - (np.log10(a) + 5).astype(np.int64)
    digits = _scaled(a, p)
    redo = np.flatnonzero((digits - 10**16).view(np.uint64) >= 9 * 10**16)
    if len(redo):
        p[redo] += np.where(digits[redo] < 10**16, 1, -1)
        digits[redo] = _scaled(a[redo], p[redo])
    return digits, p, fast


def _digit_words(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 3) frame words with each value's 17 digits (leading zeros
    included) at bytes 1..17, and the (n, 5) chunk-table rows they came from."""
    chunks = np.empty((len(digits), 6), np.int64)  # table rows of bytes 0..3, 4..7, ...
    q = digits // 100
    np.add(digits - q * 100, _TAIL, out=chunks[:, 4])
    chunks[:, 5] = 0  # bytes 20..23, outside every mask
    lead = q // 10**12
    np.add(lead, _LEAD, out=chunks[:, 0])
    q -= lead * 10**12
    np.floor_divide(q, 10**8, out=chunks[:, 1])
    q -= chunks[:, 1] * 10**8
    np.floor_divide(q, 10**4, out=chunks[:, 2])
    np.subtract(q, chunks[:, 2] * 10**4, out=chunks[:, 3])
    return _CHUNKS.take(chunks).view(np.uint64), chunks[:, :5]


def _trailing_zeros(chunks: np.ndarray) -> np.ndarray:
    """Per row of `_digit_words`' chunk-table rows, the trailing zeros of
    its 17 digits: the last chunk's, then the next chunk's where that one is
    all zeros, and so on."""
    zeros = _CHUNK_ZEROS.take(chunks[:, 4])
    more = np.flatnonzero(zeros == 2)
    for col, width in ((3, 4), (2, 4), (1, 4), (0, 3)):
        if not len(more):
            break
        z = _CHUNK_ZEROS.take(chunks[more, col])
        zeros[more] += z
        more = more[z == width]
    return zeros


def _csv_block(ints: list[np.ndarray], floats: np.ndarray) -> bytes:
    """`csv_rows` for one block. Cells are rendered float cells first, then
    integer cells, and framed in row order."""
    rows, n_float = floats.shape
    n_int = len(ints)
    values = floats.reshape(-1)
    integers = np.stack(ints, axis=1).reshape(-1) if n_int else np.empty(0, np.int64)
    n = len(values)

    float_digits, p, float_fast = _float_digits(values)
    int_fast = (integers >= 0) & (integers < 10**17)
    words, chunks = _digit_words(np.concatenate([float_digits, np.where(int_fast, integers, 0)]))
    key = np.concatenate([((20 - p) * 2 + np.signbit(values)) * 17 + _trailing_zeros(chunks[:n]),
                          _INT_KEY + 1 + np.searchsorted(_INT_POW10, integers, side="right")])
    other = np.flatnonzero(~np.concatenate([float_fast, int_fast]))
    key[other] = _OTHER_KEY

    text = _FIXED.take(key, axis=0)  # every frame ends in "," (byte 23)
    text |= words & _STILL.take(key, axis=0)
    moved = words & _MOVED.take(key, axis=0)
    shift = _SHIFT.take(key, axis=0)
    carry = moved >> (np.uint64(64) - shift)
    text |= moved << shift
    text.reshape(-1)[1:] |= carry.reshape(-1)[:-1]  # word 2's carry is 0
    last = text[n_float - 1:n:n_float] if n_float else text[n + n_int - 1::n_int]
    last[:, 2] ^= np.uint64((ord(",") ^ ord("\n")) << 56)

    width = 3
    if len(other):  # Python's text, then the separator
        column = np.where(other < n, n_int + other % max(n_float, 1), (other - n) % max(n_int, 1))
        texts = (["%.17g" % v for v in values[other[other < n]].tolist()]
                 + ["%d" % v for v in integers[other[other >= n] - n].tolist()])
        texts = [t + ("\n" if end else ",")
                 for t, end in zip(texts, (column == n_int + n_float - 1).tolist())]
        if any(len(t) > 24 for t in texts):  # negative, with a three-digit exponent
            width = 4
            text = np.pad(text, ((0, 0), (0, 1)))
        text[other] = np.frombuffer(np.array(texts, f"S{8 * width}").tobytes(),
                                    np.uint64).reshape(-1, width)
    frames = np.empty((rows, n_int + n_float, width), np.uint64)
    frames[:, n_int:] = text[:n].reshape(rows, n_float, width)
    frames[:, :n_int] = text[n:].reshape(rows, n_int, width)
    return frames.tobytes().translate(None, b"\0")


def csv_rows(ints: list[np.ndarray], floats: np.ndarray) -> Iterator[bytes]:
    """The CSV rows of the given columns as ASCII, in blocks: per row, the
    `%d` text of each integer column, then the `%.17g` text of each column of
    the 2-D `floats`, comma-separated, the row ended by "\\n". The text is
    byte-identical to Python's `%` formatting of each value."""
    ints = [np.asarray(col, dtype=np.int64) for col in ints]
    floats = np.asarray(floats, dtype=np.float64)
    step = max(1, _CELLS_PER_BLOCK // (len(ints) + floats.shape[1]))
    for start in range(0, len(floats), step):
        yield _csv_block([col[start:start + step] for col in ints], floats[start:start + step])


# ---------------------------------------------------------------------------
# CSV schema: header row with `label`, optional `attribute`, features f0..fk.

def save_csv(data: Dataset, path) -> None:
    """Write the canonical CSV form (floats at 17 significant digits); its
    digest becomes `data`'s cached `csv_digest`."""
    digest = hashlib.sha256()
    with Path(path).open("wb") as fh:
        for block in dataset_csv_blocks(data):
            digest.update(block)
            fh.write(block)
    data._csv_digest = digest.hexdigest()


def save_twin(data: Dataset, csv_path) -> Path:
    """Write the array twin of `data`'s CSV file `csv_path` where `load_csv`
    looks for it, the path with suffix `.npy`, and return that path: one
    record per row, `label`, `attribute` when annotated, then `features`."""
    table = np.empty(len(data), _twin_dtype(data.has_group_annotations, data.n_features))
    table["label"] = data.labels
    if data.has_group_annotations:
        table["attribute"] = data.attributes
    table["features"] = data.features
    path = Path(csv_path).with_suffix(".npy")
    with path.open("wb") as fh:
        np.save(fh, table, allow_pickle=False)
    return path


def _twin_dtype(annotated: bool, n_features: int) -> np.dtype:
    return np.dtype([("label", "<i8")] + [("attribute", "<i8")] * annotated
                    + [("features", "<f8", (n_features,))])


def dataset_csv_blocks(data: Dataset) -> Iterator[bytes]:
    """The canonical CSV text as ASCII, header first, in blocks."""
    header, columns = ["label"], [data.labels]
    if data.attributes is not None:
        header.append("attribute")
        columns.append(data.attributes)
    header += [f"f{j}" for j in range(data.n_features)]
    yield (",".join(header) + "\n").encode("ascii")
    yield from csv_rows(columns, data.features)


class ColumnKind(NamedTuple):
    """What the cells of a CSV column hold, and what their errors say: int64
    cells are non-negative integers by Python's int(), float64 cells are
    Python's float() and must be finite. `bad` goes before a cell that does
    not read, `nonfinite` before a non-finite value."""

    dtype: type
    bad: str
    nonfinite: str = ""

    def parse(self, cell: str) -> int | float:
        if self.dtype is np.float64:
            return float(cell)
        if (value := int(cell)) < 0:
            raise ValueError(cell)
        return value


_LABEL = ColumnKind(np.int64, "unknown label value")
_ATTRIBUTE = ColumnKind(np.int64, "bad attribute value")
_FEATURE = ColumnKind(np.float64, "non-numeric feature", "non-finite feature")


@reads_file
def load_csv(path, name: str | None = None) -> Dataset:
    """Read a dataset from CSV: the `label` column, the `attribute` column
    (group annotations) if present, and every column named f<number> as a
    feature, in file order. Header cells are stripped of blanks. Row
    numbers in errors are 1-based data rows. The file's array twin, if
    valid, stands in for parsing it."""
    path = Path(path)
    name = name if name is not None else path.stem
    twin = _load_twin(path, name)
    if twin is not None:
        return twin
    with path.open(newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
    if header is None:
        raise IngestionError(f"{path}: empty file")
    header = [h.strip() for h in header]
    if "label" not in header:
        raise IngestionError(f"{path}: missing label column 'label'")
    features = [h for h in header if h.startswith("f") and h[1:].isdigit()]
    if not features:
        raise IngestionError(f"{path}: no feature columns found")
    ints = [("label", _LABEL)] + [("attribute", _ATTRIBUTE)] * ("attribute" in header)
    (labels, *attrs), values = read_columns(path, header, ints, features, _FEATURE)
    return Dataset(values, labels, attrs[0] if attrs else None, name)


def _load_twin(path: Path, name: str) -> Dataset | None:
    """The dataset in the array twin of CSV file `path`, or None unless its
    canonical CSV text is the file's bytes, so parsing the file would give
    the same arrays bit for bit. Each formatted block is compared with the
    file's next bytes, up to the first that differs, and the text is hashed
    once, as the dataset's `csv_digest`. The twin must be a version 1.0
    `.npy` file of `save_twin`'s dtype holding at least one row and one
    feature, and its header is checked before any data is read, so no
    object array or pickle is ever loaded. Values the CSV reader rejects
    (negative integers, non-finite features) make no twin, so its error is
    raised as ever."""
    try:
        with path.with_suffix(".npy").open("rb") as fh:
            if np.lib.format.read_magic(fh) != (1, 0):
                return None
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
            annotated = dtype.names == ("label", "attribute", "features")
            n_features = dtype.itemsize // 8 - 1 - annotated
            if (fortran or n_features < 1 or dtype != _twin_dtype(annotated, n_features)
                    or len(shape) != 1 or shape[0] < 1
                    or os.fstat(fh.fileno()).st_size - fh.tell() != shape[0] * dtype.itemsize):
                return None
            table = np.fromfile(fh, dtype, shape[0])
        data = Dataset(table["features"], table["label"],
                       table["attribute"] if annotated else None, name)
        digest = hashlib.sha256()
        with path.open("rb") as fh:  # block by block: no whole-file buffer
            for block in dataset_csv_blocks(data):
                if fh.read(len(block)) != block:
                    return None
                digest.update(block)
            if fh.read(1):
                return None
        data._csv_digest = digest.hexdigest()
        return data
    except (OSError, ValueError):  # InputError is a ValueError
        return None


def read_columns(path: Path, header: list[str], ints: list[tuple[str, ColumnKind]],
                 floats: list[str], kind: ColumnKind) -> tuple[list[np.ndarray], np.ndarray]:
    """The data rows' integer columns `ints`, (name, kind) pairs, one array
    each, and the float columns named `floats`, all of kind `kind`, as one
    2-D array, read row by row with Python's csv module, each cell by its
    column's kind. `header` names the file's columns; a name stands for its
    first. An IngestionError names the path, row and column of the first bad
    cell: row by row, a cell count other than the header's or a cell its kind
    does not read (integers first); then no data rows; then a non-finite float."""
    first = dict(zip(reversed(header), range(len(header) - 1, -1, -1)))  # name: first column
    columns = [(name, cell_kind, first[name]) for name, cell_kind in ints]
    columns += [(name, kind, first[name]) for name in floats]
    rows = []
    with path.open(newline="", encoding="utf-8") as fh:
        for rownum, row in enumerate(itertools.islice(csv.reader(fh), 1, None), start=1):
            if len(row) != len(header):
                raise IngestionError(f"{path}: row {rownum} has {len(row)} cells, "
                                     f"expected {len(header)}")
            cells = []
            for name, cell_kind, c in columns:
                try:
                    cells.append(cell_kind.parse(row[c]))
                except ValueError:
                    raise IngestionError(f"{path}: row {rownum}, column {name!r}: "
                                         f"{cell_kind.bad} {row[c]!r}") from None
            rows.append(cells)
    if not rows:
        raise IngestionError(f"{path}: no data rows")
    values = np.asarray([r[len(ints):] for r in rows])
    if not np.isfinite(values).all():
        row, col = np.argwhere(~np.isfinite(values))[0]
        raise IngestionError(f"{path}: row {row + 1}, column {floats[col]!r}: "
                             f"{kind.nonfinite} {float(values[row, col])!r}")
    return [np.asarray([r[j] for r in rows]) for j in range(len(ints))], values
