"""Datasets: synthetic spurious-correlation generation, CSV ingestion,
group-annotation management and validation subsampling.

All randomness flows through numpy's PCG64 generator seeded from explicit
integers, so every dataset is reproducible bit-for-bit for a given
(spec, seed) on any platform running the same numpy version.

CSV ingestion reads a plain file in one NumPy pass. Files with quoted
cells, text columns, blank lines or lone carriage returns take the per-row
reader instead; values and error messages are the same either way.

CSV output (`csv_rows`, and through it `dataset_csv_text`, `save_csv` and
the fingerprints) is Python's `%d` / `%.17g` text of every cell, made in
NumPy blocks: fixed-notation floats (1e-4 <= |v| < 1e16) and integers
0 <= v < 10**17 exactly by table, every other cell by `%` itself.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

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
    """Write the canonical CSV form (floats at 17 significant digits)."""
    Path(path).write_text(dataset_csv_text(data), encoding="utf-8")


def dataset_csv_blocks(data: Dataset) -> Iterator[bytes]:
    """The canonical CSV text as ASCII, header first, in blocks."""
    header, columns = ["label"], [data.labels]
    if data.attributes is not None:
        header.append("attribute")
        columns.append(data.attributes)
    header += [f"f{j}" for j in range(data.n_features)]
    yield (",".join(header) + "\n").encode("ascii")
    yield from csv_rows(columns, data.features)


def dataset_csv_text(data: Dataset) -> str:
    return b"".join(dataset_csv_blocks(data)).decode("ascii")


def load_csv(path, name: str | None = None) -> Dataset:
    """Read a dataset from CSV: the `label` column, the `attribute` column
    (group annotations) if present, and every column named f<number> as a
    feature, in file order. Row numbers in errors are 1-based data rows.

    A plain file is parsed in one NumPy pass (`read_plain_csv`); any other
    file goes through the per-row reader, which gives the same values and
    the same errors.
    """
    path = Path(path)
    parsed = _read_plain_dataset(path)
    values, labels, attrs, feat_names = parsed if parsed is not None else _read_rows(path)
    if not np.isfinite(values).all():
        row, col = np.argwhere(~np.isfinite(values))[0]
        raise IngestionError(f"{path}: row {row + 1}, column {feat_names[col]!r}: "
                             f"non-finite feature {float(values[row, col])!r}")
    return Dataset(values, labels, attrs, name if name is not None else path.stem)


def _columns(path: Path, reader) -> tuple[list[str], int, int | None, list[str], list[int]]:
    """The stripped header cells, the label column, the attribute column (or
    None), and the feature names with their columns."""
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
    return header, header.index("label"), attr_col, feat_names, [header.index(c) for c in feat_names]


def _read_plain_dataset(path: Path):
    """`_read_rows`' result from one NumPy pass, or None where the per-row
    reader must decide: the file is not plain, or a label or attribute is
    negative (the reader rejects those; NumPy reads them)."""
    with path.open(newline="", encoding="utf-8") as fh:
        header, label_col, attr_col, feat_names, feat_cols = _columns(path, csv.reader(fh))
    ints = (label_col, attr_col)
    table = read_plain_csv(path, [(f"c{i}", np.int64 if i in ints else np.float64)
                                  for i in range(len(header))])
    if table is None:
        return None
    labels = table[f"c{label_col}"]
    attrs = table[f"c{attr_col}"] if attr_col is not None else None
    if labels.min() < 0 or (attrs is not None and attrs.min() < 0):
        return None
    return np.column_stack([table[f"c{c}"] for c in feat_cols]), labels, attrs, feat_names


def _read_rows(path: Path):
    """The per-row reader: Python's int() and float() on each cell, raising
    an IngestionError that names the first bad row and column."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header, label_col, attr_col, feat_names, feat_cols = _columns(path, reader)

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
    return (np.asarray(rows), np.asarray(labels),
            np.asarray(attrs) if attr_col is not None else None, feat_names)


def read_plain_csv(path, fields) -> np.ndarray | None:
    """The data rows of a plain CSV file as a structured array with the given
    fields, in one NumPy pass; the header line is skipped. Plain means: no
    quote, no carriage return outside a CRLF line end, no blank line, every
    row one cell per (flattened) field, every cell a number that NumPy reads
    as Python's int() or float() would. Returns None for any other file, so
    that the caller's per-row reader reads or rejects it.
    """
    lines = _plain_line_count(Path(path))
    if lines is None:
        return None
    try:
        with warnings.catch_warnings():
            # a file without data rows warns; like any file NumPy warns
            # about, it goes to the per-row reader
            warnings.simplefilter("error")
            table = np.loadtxt(path, dtype=np.dtype(fields), delimiter=",", comments=None,
                               quotechar=None, skiprows=1, ndmin=1, encoding="utf-8")
    except (ValueError, Warning):
        return None
    # NumPy skips blank lines, which the per-row readers reject
    return table if len(table) == lines - 1 else None


def _plain_line_count(path: Path) -> int | None:
    """The number of lines in the file, or None if it holds a quote or a
    carriage return that does not end a CRLF line."""
    lines, last = 0, b"\n"
    with path.open("rb") as fh:
        while chunk := fh.read(1 << 16):
            if chunk.endswith(b"\r"):
                chunk += fh.read(1)
            if b'"' in chunk or (b"\r" in chunk and chunk.count(b"\r") != chunk.count(b"\r\n")):
                return None
            # bytes.count of one byte is ~6x slower than this compare
            lines += int(np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord("\n")))
            last = chunk[-1:]
    return lines + (last != b"\n")
