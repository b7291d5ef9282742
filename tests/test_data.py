import hashlib
import math
import re

import numpy as np
import numpy.lib.recfunctions as rfn
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import norm

import grouptrain.data as data_module
from grouptrain.cli import main
from grouptrain.data import (
    Dataset,
    GroupId,
    SyntheticSpec,
    csv_rows,
    dataset_csv_blocks,
    generate_synthetic,
    load_csv,
    save_csv,
    save_twin,
    strip_group_annotations,
    subsample_validation,
)
from grouptrain.errors import DataWarning, IngestionError, InputError
from grouptrain.reports import fingerprint, read_report
from oracles import reference_csv_text, reference_load_csv


def spec(**overrides):
    base = dict(n_train=2000, n_val=400, n_test=400, majority_fraction=0.95,
                label_balance=(0.5, 0.5), core_separation=2.0,
                spurious_separation=4.0, noise_dims=2, noise_sigma=1.0)
    base.update(overrides)
    return SyntheticSpec(**base)


@st.composite
def extreme_datasets(draw):
    """Any finite float64 features (subnormals and -0.0 included) and any
    non-negative int64 labels, with or without attributes."""
    features = draw(hnp.arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 4)),
                               elements=st.floats(allow_nan=False, allow_infinity=False)))
    ints = hnp.arrays(np.int64, len(features), elements=st.integers(0, 2**63 - 1))
    return Dataset(features, draw(ints), draw(st.none() | ints), "extreme")


class TestGenerate:
    def test_deterministic_per_seed(self):
        a = generate_synthetic(spec(), 42)
        b = generate_synthetic(spec(), 42)
        for da, db in zip(a, b):
            assert da == db
        c = generate_synthetic(spec(), 43)
        assert a[0] != c[0]

    def test_minority_counts_near_expectation(self):
        train, _, _ = generate_synthetic(spec(), 0)
        # each (a != y, y) group: Binomial(2000, 0.5 * 0.05); 4 sigma band
        sigma = math.sqrt(2000 * 0.025 * 0.975)
        for g in (GroupId(0, 1), GroupId(1, 0)):
            count = int(((train.attributes == g.attribute) & (train.labels == g.label)).sum())
            assert abs(count - 50) < 4 * sigma

    def test_eval_splits_exactly_group_balanced(self):
        _, val, test = generate_synthetic(spec(), 1)
        for ds, n in ((val, 400), (test, 400)):
            assert len(ds) == n
            for g in ds.group_index()[0]:
                mask = (ds.attributes == g.attribute) & (ds.labels == g.label)
                assert int(mask.sum()) == n // 4

    @pytest.mark.parametrize("key", ["n_val", "n_test"])
    def test_eval_splits_need_a_row_per_group(self, key):
        with pytest.raises(InputError, match=f"^{key}: must be >= 4"):
            spec(**{key: 3})
        assert all(len(ds) == 4 for ds in generate_synthetic(spec(n_val=4, n_test=4), 1)[1:])

    def test_remainder_dropped_and_recorded_in_name(self):
        _, val, _ = generate_synthetic(spec(n_val=10), 1)
        assert len(val) == 8
        assert "dropped2" in val.name

    def test_all_splits_annotated(self):
        train, val, test = generate_synthetic(spec(), 2)
        assert train.has_group_annotations
        assert val.has_group_annotations
        assert test.has_group_annotations
        assert train.n_features == 2 + 2

    def test_core_only_classifier_has_equal_bayes_accuracy_per_group(self):
        # classifying on the sign of the core coordinate alone has accuracy
        # Phi(core_separation / (2 sigma)) in every group
        _, _, test = generate_synthetic(spec(n_test=40000, core_separation=2.0), 5)
        expected = norm.cdf(2.0 / 2.0)
        preds = (test.features[:, 0] > 0).astype(int)
        accs = []
        for g in test.group_index()[0]:
            mask = (test.attributes == g.attribute) & (test.labels == g.label)
            accs.append(float((preds[mask] == test.labels[mask]).mean()))
        for acc in accs:
            assert acc == pytest.approx(expected, abs=0.02)
        assert max(accs) - min(accs) < 0.03

    def test_train_proportions_converge(self):
        train, _, _ = generate_synthetic(spec(n_train=100000, n_val=40, n_test=40), 9)
        for y in (0, 1):
            mask = train.labels == y
            majority_rate = float((train.attributes[mask] == y).mean())
            assert abs(majority_rate - 0.95) < 0.01

    def test_spec_validation(self):
        with pytest.raises(InputError):
            spec(majority_fraction=0.4)
        with pytest.raises(InputError):
            spec(label_balance=(0.6, 0.6))
        with pytest.raises(InputError):
            spec(noise_sigma=0.0)
        with pytest.raises(InputError):
            spec(core_separation=-1.0)


class TestCsv:
    def test_roundtrip_is_identity(self, tmp_path, small_bench):
        for ds in small_bench:
            path = tmp_path / "split.csv"
            save_csv(ds, path)
            again = load_csv(path, name=ds.name)
            assert again == ds

    @given(ds=extreme_datasets())
    @example(ds=Dataset(np.array([[5e-324, -0.0, 1.7976931348623157e308,
                                   -2.2250738585072014e-308]]), [2**63 - 1], [0], "extreme"))
    @settings(max_examples=100, deadline=None)
    def test_extreme_floats_round_trip_bit_for_bit(self, tmp_path_factory, ds):
        assert b"".join(dataset_csv_blocks(ds)).decode() == reference_csv_text(ds)
        path = tmp_path_factory.getbasetemp() / "extreme.csv"
        save_csv(ds, path)
        again = load_csv(path, name=ds.name)
        assert again == ds
        assert np.array_equal(again.features.view(np.int64), ds.features.view(np.int64))

    def test_attribute_column_optional(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,attribute,f0,f1\n0,1,0.5,1.5\n1,0,2.5,3.5\n0,0,4.5,5.5\n")
        with_groups = load_csv(path)
        assert len(with_groups) == 3
        assert with_groups.has_group_annotations
        path.write_text("label,f0,f1\n0,0.5,1.5\n1,2.5,3.5\n0,4.5,5.5\n")
        without = load_csv(path)
        assert not without.has_group_annotations
        assert np.array_equal(without.features, with_groups.features)
        assert np.array_equal(without.labels, with_groups.labels)

    def test_non_numeric_feature_names_row_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,f0\n0,1.0\n1,abc\n")
        with pytest.raises(IngestionError, match=r"row 2.*'f0'"):
            load_csv(path)

    def test_unknown_label_value(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,f0\nx,1.0\n")
        with pytest.raises(IngestionError, match="unknown label"):
            load_csv(path)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,f0\n0,1.0\n")
        with pytest.raises(IngestionError, match="label"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(IngestionError):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_row_and_column(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"label,f0,f1\n0,1.0,2.0\n1,3.0,{cell}\n")
        with pytest.raises(IngestionError, match=r"row 2, column 'f1': non-finite"):
            load_csv(path)


_PLAIN_INTS = ["0", "1", "2", "01", "+1", " 1", "1 ", "-0", str(2**63 - 1)]
_INTS = _PLAIN_INTS + ["1.0", "-1", "1_0", "2**63", str(2**63), "x", "", "\u30001"]
_PLAIN_FLOATS = st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.17g" % v) \
    | st.sampled_from(["-0.0", "5e-324", " 2.5 ", ".5", "1e400", "nan", "infinity", "-inf"])
_FLOATS = _PLAIN_FLOATS | st.sampled_from(["1_0", "0x1p3", "abc", "", " ", '"1.5"', "\ufeff1"])
_TEXTS = st.sampled_from(["a", "b c", '"x,y"', '"q"', "3", "nan", ""])
_COLUMNS = ["attribute", "f0", "f1", " f2", "name", '"f1"']


@st.composite
def csv_texts(draw):
    """Dataset CSV text, plain (every cell a number, one line end
    throughout) or malformed in the ways files go wrong:
    rare cells, quotes, ragged rows, blank lines, mixed line ends, a BOM, a
    missing label column or a duplicated f0."""
    noisy = draw(st.booleans())

    def rare():
        return noisy and not draw(st.integers(0, 3))

    header = draw(st.lists(st.sampled_from(_COLUMNS), max_size=3)) + ["f0"]
    if not rare():
        header.append("label")
    header = draw(st.permutations(header))
    ints = st.sampled_from(_INTS if noisy else _PLAIN_INTS)
    floats = _FLOATS if noisy else _PLAIN_FLOATS
    cells = {"label": ints, "attribute": ints, "name": _TEXTS}
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 4))):
        row = [draw(cells.get(h, floats)) for h in header]
        if rare():
            row = row[:draw(st.integers(0, len(row)))] + ["0"] * draw(st.integers(0, 1))
        if rare():
            lines.append(draw(st.sampled_from(["", "  "])))
        lines.append(",".join(row))
    if noisy:
        ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    else:
        ends = [draw(st.sampled_from(["\n", "\r\n"]))] * len(lines)
    if draw(st.booleans()):
        ends[-1] = ""
    return ("\ufeff" if rare() else "") + "".join(line + end for line, end in zip(lines, ends))


def _outcome(read, path):
    """What a reader makes of the file: the dataset's arrays, features as
    bits, or the type and text of what it raised."""
    try:
        ds = read(path, name="d")
    except Exception as e:  # the contract is the same exception, whatever it is
        return type(e), str(e)
    attrs = None if ds.attributes is None else ds.attributes.tolist()
    return ds.name, ds.labels.tolist(), attrs, ds.features.shape, ds.features.view(np.int64).tolist()


class TestCsvReader:
    @given(text=csv_texts())
    @example(text="label,f0\n1,0.5\n\n0,1.5\n")
    @example(text="label,f0\n1,0.5\n  \n")
    @example(text="label,f0\r\n1,0.5\r0,1.5\r\n")
    @example(text="label,f0")
    @example(text="label,f0\n")
    @example(text="\ufefflabel,f0\n1,0.5\n")
    @example(text="label,f0,f0\n1,0.5,1.5\n")
    @example(text="label,attribute,f0\n1,-1,0.5\n")
    @example(text=f"label,f0\n{2**63},0.5\n")
    @example(text="label,f0\n1,0.5,\n")
    @example(text='label,name,f0\n1,"a,b",0.5\n')
    @example(text='f0,label,"f1\n1,2,3\n')
    @example(text="label,f0\n1,0.5\r\r\n")
    @settings(max_examples=400, deadline=None)
    def test_equals_the_per_row_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "differential.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(load_csv, path) == _outcome(reference_load_csv, path)

    def test_random_bit_patterns_round_trip(self, tmp_path):
        rng = np.random.default_rng(20000)
        bits = rng.integers(0, 2**64, size=21000, dtype=np.uint64)
        bits[:3000] &= np.uint64(0x800F_FFFF_FFFF_FFFF)  # subnormals
        values = bits.view(np.float64)
        specials = [0.0, -0.0, 5e-324, -5e-324, np.finfo(np.float64).max, -np.finfo(np.float64).max]
        values = np.concatenate([specials, values[np.isfinite(values)]])[:20000]
        assert len(values) == 20000
        ds = Dataset(values.reshape(2000, 10), rng.integers(0, 2, 2000), rng.integers(0, 2, 2000), "bits")
        save_csv(ds, tmp_path / "bits.csv")
        again = load_csv(tmp_path / "bits.csv", name="bits")
        assert np.array_equal(again.features.view(np.int64), ds.features.view(np.int64))
        assert again == ds

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    @pytest.mark.parametrize("final", [True, False])
    def test_line_ends_round_trip(self, tmp_path, small_bench, end, final):
        _, val, _ = small_bench
        text = b"".join(dataset_csv_blocks(val)).decode().replace("\n", end)
        (tmp_path / "val.csv").write_bytes((text if final else text[:-len(end)]).encode())
        assert load_csv(tmp_path / "val.csv", name=val.name) == val


@st.composite
def unreadable_canonical_datasets(draw):
    """Datasets whose canonical CSV the reader rejects: no data rows, or no
    feature columns."""
    if draw(st.booleans()):
        n, k = 0, draw(st.integers(0, 3))
    else:
        n, k = draw(st.integers(1, 3)), 0
    ints = np.arange(n)
    return Dataset(np.zeros((n, k)), ints, ints if draw(st.booleans()) else None, "edge")


def _save_with_twin(ds, path):
    save_csv(ds, path)
    assert save_twin(ds, path) == path.with_suffix(".npy")


def _forbidden(name):
    def call(first, *args):
        raise AssertionError(f"{name} called on {first}")
    return call


def _counting_csv_reads(monkeypatch) -> list:
    """Patches the CSV reader to record each path it reads."""
    reads, read_columns = [], data_module.read_columns

    def counting(path, *args):
        reads.append(path)
        return read_columns(path, *args)

    monkeypatch.setattr(data_module, "read_columns", counting)
    return reads


def _twin_table(path):
    return np.load(path.with_suffix(".npy"), allow_pickle=False)


def _rewrite(path, table, allow_pickle=False):
    with path.with_suffix(".npy").open("wb") as fh:
        np.save(fh, table, allow_pickle=allow_pickle)


def _flip_feature_bit(path):
    table = _twin_table(path)
    table["features"].view(np.int64)[1, 0] ^= 1
    _rewrite(path, table)


def _change_label(path):
    table = _twin_table(path)
    table["label"][2] += 1
    _rewrite(path, table)


def _drop_attribute_field(path):
    _rewrite(path, rfn.repack_fields(_twin_table(path)[["label", "features"]]))


def _drop_last_row(path):
    _rewrite(path, _twin_table(path)[:-1])


def _two_dimensional(path):
    _rewrite(path, _twin_table(path)[None])


def _big_endian(path):
    table = _twin_table(path)
    _rewrite(path, table.astype(table.dtype.newbyteorder(">")))


def _float32_features(path):
    table = _twin_table(path)
    _rewrite(path, table.astype([("label", "<i8"), ("attribute", "<i8"),
                                 ("features", "<f4", table["features"].shape[1:])]))


def _unstructured(path):
    table = _twin_table(path)
    cells = np.column_stack([table["label"], table["attribute"], table["features"].view(np.int64)])
    _rewrite(path, cells)


def _truncate(path):
    twin = path.with_suffix(".npy")
    twin.write_bytes(twin.read_bytes()[:-8])


def _object_array(path):
    _rewrite(path, np.array([{"label": 0}, [1, 2]], dtype=object), allow_pickle=True)


def _zip_archive(path):
    table = _twin_table(path)
    with path.with_suffix(".npy").open("wb") as fh:
        np.savez(fh, table=table)


def _empty_file(path):
    path.with_suffix(".npy").write_bytes(b"")


def _edit_csv(path):
    text = path.read_text()
    header, first, rest = text.split("\n", 2)
    cells = first.split(",")
    cells[-1] = "0.25"
    path.write_text("\n".join([header, ",".join(cells), rest]))


_TAMPERINGS = [_flip_feature_bit, _change_label, _drop_attribute_field, _drop_last_row,
               _two_dimensional, _big_endian, _float32_features, _unstructured, _truncate,
               _object_array, _zip_archive, _empty_file, _edit_csv]


class TestArrayTwin:
    """`load_csv` takes a CSV file's array twin only when the twin's
    canonical CSV text is the file's bytes; otherwise it reads the CSV."""

    @given(ds=extreme_datasets() | unreadable_canonical_datasets())
    @example(ds=Dataset(np.zeros((0, 2)), [], [], "edge"))
    @example(ds=Dataset(np.zeros((2, 0)), [0, 1], None, "edge"))
    @settings(max_examples=100, deadline=None)
    def test_equals_the_per_row_reader(self, tmp_path_factory, ds):
        path = tmp_path_factory.getbasetemp() / "twin-differential.csv"
        _save_with_twin(ds, path)
        assert _outcome(load_csv, path) == _outcome(reference_load_csv, path)

    @given(ds=extreme_datasets())
    @settings(max_examples=50, deadline=None)
    def test_takes_the_twin_and_caches_the_fingerprint(self, tmp_path_factory, ds):
        want = "sha256:" + hashlib.sha256(reference_csv_text(ds).encode("ascii")).hexdigest()
        path = tmp_path_factory.getbasetemp() / "twin-taken.csv"
        _save_with_twin(ds, path)
        assert fingerprint(ds) == want  # save_csv's digest
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data_module, "read_columns", _forbidden("read_columns"))
            again = load_csv(path, name=ds.name)
            mp.setattr(data_module, "dataset_csv_blocks", _forbidden("dataset_csv_blocks"))
            assert fingerprint(again) == want  # the digest the twin was checked by
        assert np.array_equal(again.features.view(np.int64), ds.features.view(np.int64))
        assert again == ds
        path.with_suffix(".npy").unlink()
        assert fingerprint(load_csv(path)) == want

    @pytest.mark.parametrize("tamper", _TAMPERINGS, ids=lambda f: f.__name__.strip("_"))
    def test_a_bad_twin_falls_back_to_the_csv(self, tmp_path, small_bench, monkeypatch, tamper):
        _, val, _ = small_bench
        path = tmp_path / "val.csv"
        _save_with_twin(val.subset(np.arange(40)), path)
        tamper(path)
        reads = _counting_csv_reads(monkeypatch)
        assert _outcome(load_csv, path) == _outcome(reference_load_csv, path)
        assert reads == [path]

    def test_a_stale_twin_stops_at_its_first_differing_block(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(3000, 2)), rng.integers(0, 2, 3000),
                     rng.integers(0, 2, 3000), "d")  # three blocks of rows
        path = tmp_path / "stale.csv"
        _save_with_twin(ds, path)
        _edit_csv(path)  # the first row
        blocks, block = [], data_module._csv_block

        def counting(*args):
            blocks.append(len(args[1]))
            return block(*args)

        monkeypatch.setattr(data_module, "_csv_block", counting)
        assert _outcome(load_csv, path) == _outcome(reference_load_csv, path)
        assert blocks == [1024]

    def test_generated_splits_load_from_their_twins(self, tmp_path, monkeypatch):
        (tmp_path / "gen.ini").write_text(
            "[generate]\nn_train = 300\nn_val = 80\nn_test = 120\nmajority_fraction = 0.9\n"
            "label_balance = 0.75, 0.25\ncore_separation = 2.0\nspurious_separation = 4.0\n"
            "noise_dims = 3\nnoise_sigma = 1.0\nseed = 11\n")
        assert main(["generate", "--config", str(tmp_path / "gen.ini"),
                     "--out", str(tmp_path / "data")]) == 0
        report = read_report(tmp_path / "data" / "report.json")
        made = generate_synthetic(spec(n_train=300, n_val=80, n_test=120, majority_fraction=0.9,
                                       label_balance=(0.75, 0.25), noise_dims=3), 11)
        monkeypatch.setattr(data_module, "read_columns", _forbidden("read_columns"))
        for split, ds in zip(("train", "val", "test"), made):
            assert report["outputs"][f"{split}_twin"] == f"{split}.npy"
            loaded = load_csv(tmp_path / "data" / f"{split}.csv", name=ds.name)
            assert np.array_equal(loaded.features.view(np.int64), ds.features.view(np.int64))
            assert loaded == ds
            assert fingerprint(loaded) == report["datasets"][split]["fingerprint"]


def _percent_rows(ints, floats):
    """Each row formatted by one `%` call, the old way."""
    template = ",".join(["%d"] * len(ints) + ["%.17g"] * floats.shape[1]) + "\n"
    return "".join(template % row for row in zip(*[c.tolist() for c in ints], *floats.T.tolist()))


def _assert_rows_match(ints, floats):
    got, want = b"".join(csv_rows(ints, floats)).decode(), _percent_rows(ints, floats)
    if got != want:
        line = next(i for i, (g, w) in enumerate(zip(got.split("\n"), want.split("\n"))) if g != w)
        assert got.split("\n")[line] == want.split("\n")[line], f"row {line}"
    assert got == want


class TestCsvRows:
    """csv_rows against Python's `%` formatting, value by value."""

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(14)
        bits = rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64)
        bits[:100_000] &= np.uint64(0x800F_FFFF_FFFF_FFFF)  # subnormals
        values = bits.view(np.float64)
        values[100_000:100_006] = [0.0, -0.0, np.finfo(np.float64).max,
                                   -np.finfo(np.float64).max, 5e-324, -5e-324]
        rng.shuffle(values)
        floats = values.reshape(-1, 8)
        ints = [rng.integers(0, 2, len(floats)), rng.integers(-2**63, 2**63 - 1, len(floats))]
        _assert_rows_match(ints, floats)

    def test_powers_of_ten_and_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-7, 19)])
        ulps = np.arange(-40, 41)
        values = (powers.view(np.int64)[:, None] + ulps).view(np.float64).ravel()
        _assert_rows_match([], np.concatenate([values, -values])[:, None])

    def test_ties_at_the_17th_digit_round_half_to_even(self):
        rng = np.random.default_rng(17)
        k16 = np.concatenate([[1e15, 1e16 - 1], rng.integers(10**15, 10**16, 200_000)]).astype(float)
        k15 = np.concatenate([[1e14, 1e15 - 1], rng.integers(10**14, 10**15, 200_000)]).astype(float)
        assert "%.17g" % (1e15 + 0.25) == "1000000000000000.2"
        values = np.concatenate([k16 + 0.25, k16 + 0.75, k15 + 0.0625])
        _assert_rows_match([], np.concatenate([values, -values]).reshape(-1, 2))

    def test_int64_columns(self):
        rng = np.random.default_rng(63)
        edges = [0, 1, 9, 10, 99, 100, 10**16 - 1, 10**16, 10**17 - 1, 10**17,
                 2**63 - 1, -1, -2**63]
        powers = [10**k + d for k in range(19) for d in (-1, 0, 1)]
        ints = np.concatenate([edges, powers, rng.integers(0, 2**63 - 1, 100_000, endpoint=True),
                               2 ** rng.integers(0, 63, 10_000) - 1])
        _assert_rows_match([ints, ints[::-1]], np.empty((len(ints), 0)))
        _assert_rows_match([ints], rng.normal(size=(len(ints), 1)))


class TestStrip:
    def test_strip_removes_groups_only(self, small_bench):
        train, _, _ = small_bench
        stripped = strip_group_annotations(train)
        assert not stripped.has_group_annotations
        assert np.array_equal(stripped.features, train.features)
        assert np.array_equal(stripped.labels, train.labels)

    def test_strip_is_idempotent(self, small_bench):
        train, _, _ = small_bench
        stripped = strip_group_annotations(train)
        assert strip_group_annotations(stripped) is stripped

    def test_index_join_recovers_groups(self, small_bench):
        train, _, _ = small_bench
        stripped = strip_group_annotations(train)
        recovered = [GroupId(int(a), int(y))
                     for a, y in zip(train.attributes, stripped.labels)]
        groups, codes, _ = train.group_index()
        assert recovered == [groups[c] for c in codes]


class TestSubsample:
    def test_fraction_one_is_identity(self, small_bench):
        _, val, _ = small_bench
        assert subsample_validation(val, 1.0, 7) is val

    def test_subsample_count_uses_floor(self):
        rng = np.random.default_rng(0)
        val = Dataset(rng.normal(size=(1199, 2)), rng.integers(0, 2, 1199),
                      rng.integers(0, 2, 1199), "val")
        assert len(subsample_validation(val, 1 / 10, 0)) == 119

    def test_small_set_loses_group_and_warns(self):
        rng = np.random.default_rng(1)
        labels = np.tile([0, 0, 1, 1], 10)
        attrs = np.tile([0, 1, 0, 1], 10)
        val = Dataset(rng.normal(size=(40, 2)), labels, attrs, "val")
        with pytest.warns(DataWarning, match="lost group"):
            out = subsample_validation(val, 1 / 20, 3)
        assert len(out) == 2

    @given(st.floats(0.05, 0.99), st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_subset_preserves_relative_order(self, fraction, seed):
        rng = np.random.default_rng(5)
        n = 97
        val = Dataset(np.arange(n, dtype=float)[:, None], np.zeros(n, dtype=int),
                      np.zeros(n, dtype=int), "val")
        import warnings as w
        with w.catch_warnings():
            w.simplefilter("ignore")
            out = subsample_validation(val, fraction, seed)
        assert len(out) == max(1, int(math.floor(fraction * n)))
        values = out.features[:, 0]
        assert np.all(np.diff(values) > 0)

    def test_requires_annotations(self, small_bench):
        train, _, _ = small_bench
        with pytest.raises(InputError):
            subsample_validation(strip_group_annotations(train), 0.5, 0)

    def test_fraction_out_of_range(self, small_bench):
        _, val, _ = small_bench
        with pytest.raises(InputError):
            subsample_validation(val, 0.0, 0)
        with pytest.raises(InputError):
            subsample_validation(val, 1.5, 0)


class TestDataset:
    def test_group_index_gives_each_example_its_group(self, small_bench):
        train, _, _ = small_bench
        groups, codes, counts = train.group_index()
        per_example = [GroupId(int(a), int(y)) for a, y in zip(train.attributes, train.labels)]
        assert list(groups) == sorted(set(per_example))
        assert [groups[c] for c in codes] == per_example
        assert counts.tolist() == [per_example.count(g) for g in groups]
        assert train.group_index() is train.group_index()
        with pytest.raises(ValueError):
            codes[0] = 0

    @pytest.mark.parametrize("rows, missing", [(500, None), (500, (2, 1)), (0, None)])
    def test_group_index_equals_the_pairwise_unique(self, rows, missing):
        rng = np.random.default_rng(rows)
        attributes, labels = rng.integers(0, 4, rows), rng.integers(0, 3, rows)
        if missing is not None:
            drop = (attributes == missing[0]) & (labels == missing[1])
            attributes, labels = attributes[~drop], labels[~drop]
        ds = Dataset(np.zeros((len(labels), 1)), labels, attributes)
        pairs, codes = np.unique(np.stack([attributes, labels], axis=1), axis=0,
                                 return_inverse=True)
        groups, got_codes, counts = ds.group_index()
        assert groups == tuple(GroupId(int(a), int(y)) for a, y in pairs)
        assert got_codes.dtype == np.int64 and got_codes.tolist() == codes.ravel().tolist()
        assert counts.dtype == np.int64
        assert counts.tolist() == np.bincount(codes.ravel(), minlength=len(pairs)).tolist()
        assert (missing is None) == (len(groups) == (12 if rows else 0))

    def test_arrays_read_only(self, small_bench):
        train, _, _ = small_bench
        with pytest.raises(ValueError):
            train.features[0, 0] = 1.0
        with pytest.raises(ValueError):
            train.labels[0] = 1

    def test_non_finite_features_rejected(self):
        features = np.zeros((3, 2))
        features[1, 0] = np.nan
        with pytest.raises(InputError, match=r"features\[1, 0\] is nan"):
            Dataset(features, np.zeros(3, dtype=int))

    @pytest.mark.parametrize("labels, attributes, message", [
        ([0.7, 1.2], [0, 1], "labels must be integers; labels[0] is 0.7"),
        ([0, 1], [0.0, 2.9], "attributes must be integers; attributes[1] is 2.9"),
        ([1.0, float("nan")], None, "labels must be integers; labels[1] is nan"),
        ([1e30, 0.0], None, "labels must be integers; labels[0] is 1e+30"),
    ], ids=["fractional-label", "fractional-attribute", "nan", "overflow"])
    def test_non_integral_labels_and_attributes_rejected(self, labels, attributes, message):
        # They used to be truncated (0.7 -> 0), or to fail with NumPy's own error.
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            Dataset(np.zeros((2, 1)), labels, attributes)

    def test_integral_floats_and_integer_arrays_load(self):
        ds = Dataset(np.zeros((2, 1)), [0.0, 1.0], np.array([2, 0], dtype=np.int32))
        assert ds.labels.dtype == ds.attributes.dtype == np.int64
        assert ds.labels.tolist() == [0, 1] and ds.attributes.tolist() == [2, 0]

    @pytest.mark.parametrize("call, message", [
        (lambda: Dataset(np.zeros((4, 1)), [[0, 1], [1, 0]]),
         "labels must be one column; got an array of shape (2, 2)"),
        (lambda: Dataset(np.zeros((2, 1)), [0, 1], np.zeros((2, 1, 1))),
         "attributes must be one column; got an array of shape (2, 1, 1)"),
        (lambda: Dataset(np.zeros((1, 1)), 0), "labels must be one column; got an array of shape ()"),
        (lambda: Dataset(np.zeros(2), [0, 1]), "features must be a 2-D array"),
        (lambda: Dataset(np.zeros((2, 1)), [0, 1], [1, -1]),
         "attributes must be non-negative integers"),
        (lambda: Dataset(np.zeros((2, 1)), [0, 1], None, "plain").group_index(),
         "dataset 'plain' has no group annotations"),
        (lambda: spec(noise_dims=-1), "noise_dims must be >= 0"),
    ], ids=["2-d-labels", "3-d-attributes", "0-d-labels", "1-d-features",
            "negative-attribute", "unannotated-group-index", "negative-noise-dims"])
    def test_bad_inputs_are_named(self, call, message):
        # Labels and attributes of any shape used to be raveled.
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            call()

    def test_one_column_labels_and_attributes_load(self):
        ds = Dataset(np.zeros((2, 1)), [[1], [0]], np.array([[2], [3]]))
        assert ds.labels.tolist() == [1, 0] and ds.attributes.tolist() == [2, 3]

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            Dataset(np.zeros((3, 2)), np.zeros(2, dtype=int))
        with pytest.raises(InputError):
            Dataset(np.zeros((3, 2)), np.zeros(3, dtype=int), np.zeros(2, dtype=int))
