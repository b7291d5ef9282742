import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grouptrain as gt
from grouptrain.analysis import (
    ErrorSet,
    enrichment_table,
    error_set_stats,
    evaluate_groups,
    group_metrics,
    loss_snapshots,
    replace_error_set,
    top_loss_indices,
    track_cvar_composition,
)
from grouptrain.data import Dataset, GroupId, SyntheticSpec, generate_synthetic
from grouptrain.errors import AnalysisWarning, InputError
from grouptrain.models import Architecture, Model


def grouped_dataset(counts: dict[GroupId, int], seed=0) -> Dataset:
    """A dataset with the requested per-group example counts."""
    rng = np.random.default_rng(seed)
    labels, attrs = [], []
    for (a, y), n in sorted(counts.items()):
        labels += [y] * n
        attrs += [a] * n
    n_total = len(labels)
    return Dataset(rng.normal(size=(n_total, 2)), labels, attrs, "grouped")


def predictions_with_accuracy(data: Dataset, accuracy: dict[GroupId, float]) -> np.ndarray:
    """Predictions achieving an exact per-group accuracy (counts must divide)."""
    preds = data.labels.copy()
    for g, acc in accuracy.items():
        idx = np.flatnonzero((data.attributes == g.attribute) & (data.labels == g.label))
        wrong = round(len(idx) * (1 - acc))
        preds[idx[:wrong]] = 1 - data.labels[idx[:wrong]]
    return preds


def empty_dataset() -> Dataset:
    """A group-annotated dataset with no rows."""
    return Dataset(np.empty((0, 2)), np.empty(0, np.int64), np.empty(0, np.int64), "no-rows")


# An error set with an index past the end of the 4-row `grouped` dataset.
OUT_OF_RANGE = r"error-set index 7 is out of range for dataset 'grouped' of 4 rows"


def four_rows() -> Dataset:
    return grouped_dataset({GroupId(0, 0): 2, GroupId(1, 1): 2})


FOUR_GROUPS = {GroupId(0, 0): 1000, GroupId(0, 1): 1000,
               GroupId(1, 0): 1000, GroupId(1, 1): 1000}


class TestGroupMetrics:
    def test_group_metrics_of_no_rows_names_the_dataset(self):
        with pytest.raises(InputError, match="dataset 'no-rows' has none"):
            group_metrics(np.empty(0, np.int64), empty_dataset())

    def test_evaluate_groups_of_no_rows_names_the_dataset(self):
        model = Model(Architecture(2, (), 2), np.zeros(6))
        with pytest.raises(InputError, match="dataset 'no-rows' has none"):
            evaluate_groups(model, empty_dataset())

    def test_worst_group_is_minimum_of_per_group_accuracies(self):
        # per-group accuracies (0.993, 0.963, 0.733, 0.726): the minimum wins
        data = grouped_dataset(FOUR_GROUPS)
        accs = {GroupId(0, 0): 0.993, GroupId(1, 1): 0.963,
                GroupId(1, 0): 0.733, GroupId(0, 1): 0.726}
        m = group_metrics(predictions_with_accuracy(data, accs), data)
        assert m.worst_group_accuracy == pytest.approx(0.726)
        assert m.worst_group == GroupId(0, 1)
        for g, acc in accs.items():
            assert m.per_group[g].accuracy == pytest.approx(acc)

    def test_average_is_count_weighted(self):
        data = grouped_dataset({GroupId(0, 0): 90, GroupId(1, 1): 10})
        preds = predictions_with_accuracy(data, {GroupId(0, 0): 1.0, GroupId(1, 1): 0.0})
        m = group_metrics(preds, data)
        assert m.average_accuracy == pytest.approx(0.9)
        assert m.worst_group_accuracy == 0.0
        total = sum(s.count for s in m.per_group.values())
        weighted = sum(s.count * s.accuracy for s in m.per_group.values()) / total
        assert abs(m.average_accuracy - weighted) < 1e-12

    def test_single_group_all_correct(self):
        data = grouped_dataset({GroupId(0, 0): 25})
        m = group_metrics(data.labels, data)
        assert m.worst_group_accuracy == 1.0
        assert m.average_accuracy == 1.0

    def test_ties_break_by_group_order(self):
        data = grouped_dataset({GroupId(0, 1): 10, GroupId(1, 0): 10})
        preds = 1 - data.labels  # both groups at accuracy 0
        m = group_metrics(preds, data)
        assert m.worst_group == GroupId(0, 1)

    def test_evaluate_groups_uses_model_predictions(self):
        data = grouped_dataset({GroupId(0, 0): 6, GroupId(1, 1): 6})
        arch = Architecture(2, (), 2)
        params = np.zeros(arch.n_params)
        params[-2] = 1.0  # constant label-0 predictor
        m = evaluate_groups(Model(arch, params), data)
        assert m.per_group[GroupId(0, 0)].accuracy == 1.0
        assert m.per_group[GroupId(1, 1)].accuracy == 0.0

    def test_requires_annotations(self):
        data = Dataset(np.zeros((3, 1)), np.zeros(3, dtype=int))
        with pytest.raises(InputError):
            group_metrics(np.zeros(3, dtype=int), data)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_worst_never_exceeds_average(self, seed):
        rng = np.random.default_rng(seed)
        n = 60
        data = Dataset(rng.normal(size=(n, 2)), rng.integers(0, 2, n),
                       rng.integers(0, 2, n), "rand")
        m = group_metrics(rng.integers(0, 2, n), data)
        assert m.worst_group_accuracy <= m.average_accuracy + 1e-12

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
                    min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_matches_a_mask_per_group(self, rows):
        # (attribute, label, prediction) rows: small ranges give single-example
        # groups and attribute x label pairs missing from the data
        attrs, labels, preds = (np.array(col) for col in zip(*rows))
        data = Dataset(np.zeros((len(rows), 1)), labels, attrs, "rows")
        correct = preds == labels
        naive = {}
        for a, y in sorted(set(zip(attrs.tolist(), labels.tolist()))):
            mask = (attrs == a) & (labels == y)
            naive[GroupId(a, y)] = (int(mask.sum()), float(correct[mask].mean()))
        m = group_metrics(preds, data)
        assert list(m.per_group) == list(naive)
        assert {g: (s.count, s.accuracy) for g, s in m.per_group.items()} == naive
        worst = min(naive, key=lambda g: (naive[g][1], g))
        assert (m.worst_group, m.worst_group_accuracy) == (worst, naive[worst][1])
        assert m.average_accuracy == float(correct.mean())


class TestErrorSetStats:
    def test_out_of_range_index_names_the_index_and_the_dataset(self):
        with pytest.raises(InputError, match=f"^error_set_stats: {OUT_OF_RANGE}$"):
            error_set_stats(ErrorSet([1, 7]), four_rows(), GroupId(0, 0))

    def test_no_rows_names_the_dataset(self):
        with pytest.raises(InputError, match="dataset 'no-rows' has none"):
            error_set_stats(ErrorSet(np.empty(0, np.int64)), empty_dataset(), GroupId(0, 0))

    def test_exact_target_capture(self):
        data = grouped_dataset({GroupId(0, 0): 80, GroupId(1, 1): 20})
        target = GroupId(1, 1)
        idx = np.flatnonzero((data.attributes == 1) & (data.labels == 1))
        stats = error_set_stats(ErrorSet(idx), data, target)
        assert stats.precision == 1.0
        assert stats.recall == 1.0
        assert stats.enrichment == pytest.approx(1.0 / stats.empirical_rate)

    def test_hand_counted_case(self):
        # n=100, target group 10, |E|=20 with 8 targets
        data = grouped_dataset({GroupId(0, 0): 90, GroupId(1, 1): 10})
        target_idx = np.flatnonzero((data.attributes == 1) & (data.labels == 1))
        other_idx = np.flatnonzero((data.attributes == 0))
        e = ErrorSet(np.concatenate([target_idx[:8], other_idx[:12]]))
        stats = error_set_stats(e, data, GroupId(1, 1))
        assert stats.precision == pytest.approx(0.4)
        assert stats.recall == pytest.approx(0.8)
        assert stats.empirical_rate == pytest.approx(0.1)
        assert stats.enrichment == pytest.approx(4.0)
        # counting identity: precision * |E| == recall * |target|
        assert stats.precision * stats.error_set_size == pytest.approx(
            stats.recall * 10, abs=1e-12)

    def test_enrichment_in_the_high_teens_from_rare_group(self):
        # ~19% precision over a 1.2% empirical rate lands near 15.9x
        data = grouped_dataset({GroupId(0, 0): 988, GroupId(1, 1): 12})
        target_idx = np.flatnonzero(data.labels == 1)
        other_idx = np.flatnonzero(data.labels == 0)
        e = ErrorSet(np.concatenate([target_idx, other_idx[:51]]))
        stats = error_set_stats(e, data, GroupId(1, 1))
        assert stats.enrichment == pytest.approx(stats.precision / stats.empirical_rate)
        assert stats.enrichment == pytest.approx(15.9, abs=0.1)

    def test_empty_error_set_flagged(self):
        data = grouped_dataset({GroupId(0, 0): 10})
        stats = error_set_stats(ErrorSet(np.array([], dtype=int)), data, GroupId(0, 0))
        assert stats.precision == 0.0
        assert stats.undefined


class TestEnrichmentRows:
    def test_out_of_range_index_names_the_index_and_the_dataset(self):
        with pytest.raises(InputError, match=f"^enrichment_table: {OUT_OF_RANGE}$"):
            enrichment_table(ErrorSet([1, 7]), four_rows())

    def test_uniform_error_set_has_unit_enrichment(self):
        spec = SyntheticSpec(100, 10000, 100, 0.95, (0.5, 0.5), 2.0, 4.0, 0, 1.0)
        _, balanced, _ = generate_synthetic(spec, 0)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            e = ErrorSet(rng.choice(len(balanced), size=1000, replace=False))
            for row in enrichment_table(e, balanced):
                assert 0.8 <= row.enrichment <= 1.2

    def test_single_group_error_set(self):
        data = grouped_dataset(FOUR_GROUPS)
        idx = np.flatnonzero((data.attributes == 0) & (data.labels == 1))
        by_group = {r.group: r for r in enrichment_table(ErrorSet(idx), data)}
        assert by_group[GroupId(0, 1)].enrichment == pytest.approx(4.0)
        for g in (GroupId(0, 0), GroupId(1, 0), GroupId(1, 1)):
            assert by_group[g].enrichment == 0.0

    def test_shares_sum_to_one_and_sorted(self):
        data = grouped_dataset(FOUR_GROUPS)
        rng = np.random.default_rng(3)
        rows = enrichment_table(ErrorSet(rng.choice(4000, 600, replace=False)), data)
        assert sum(r.error_set_share for r in rows) == pytest.approx(1.0)
        values = [r.enrichment for r in rows]
        assert values == sorted(values, reverse=True)

    def test_missing_group_combination_flagged(self):
        data = grouped_dataset({GroupId(0, 0): 10, GroupId(0, 1): 10, GroupId(1, 0): 10})
        with pytest.warns(AnalysisWarning, match=r"group\(s\) \(a=1, y=1\) absent"):
            rows = enrichment_table(ErrorSet(np.array([0, 1])), data)
        assert GroupId(1, 1) not in {r.group for r in rows}
        assert len(rows) == 3


class TestCvarComposition:
    def test_no_rows_names_the_dataset(self):
        with pytest.raises(InputError, match="dataset 'no-rows' has none"):
            track_cvar_composition([np.empty(0)], 0.5, empty_dataset(), GroupId(0, 0))

    def test_single_snapshot(self):
        data = grouped_dataset({GroupId(0, 0): 8, GroupId(1, 1): 8})
        pts = track_cvar_composition([np.arange(16.0)], 0.5, data, GroupId(1, 1))
        assert len(pts) == 1
        assert pts[0].set_size == 8

    def test_equal_losses_take_first_indices(self):
        data = grouped_dataset({GroupId(0, 0): 10, GroupId(1, 1): 10})
        pts = track_cvar_composition([np.zeros(20)], 0.25, data, GroupId(0, 0))
        # first 5 indices all belong to group (0,0) by construction
        assert pts[0].precision == 1.0
        assert pts[0].recall == pytest.approx(0.5)

    def test_alpha_one_precision_equals_empirical_rate(self):
        data = grouped_dataset({GroupId(0, 0): 30, GroupId(1, 1): 10})
        rng = np.random.default_rng(0)
        snapshots = [rng.uniform(size=40) for _ in range(4)]
        pts = track_cvar_composition(snapshots, 1.0, data, GroupId(1, 1))
        for p in pts:
            assert p.precision == pytest.approx(0.25)
            assert p.recall == 1.0

    @pytest.mark.parametrize("width", [60, 150])
    def test_snapshot_width_must_match_the_training_set(self, width):
        data = grouped_dataset({GroupId(0, 0): 50, GroupId(1, 1): 50})
        snapshots = [np.arange(100.0), np.arange(float(width))]
        with pytest.raises(InputError, match=f"loss snapshot 1 has {width} losses; "
                                             "the training set has 100 examples"):
            track_cvar_composition(snapshots, 0.5, data, GroupId(1, 1))

    def test_top_loss_ties_break_by_index(self):
        idx = top_loss_indices(np.array([1.0, 3.0, 3.0, 0.0]), 0.5)
        assert np.array_equal(idx, [1, 2])

    def test_ceil_count(self):
        assert len(top_loss_indices(np.arange(10.0), 0.25)) == 3
        assert len(top_loss_indices(np.arange(10.0), 0.2)) == 2


class TestReplaceErrorSet:
    @pytest.fixture()
    def setting(self):
        data = grouped_dataset({GroupId(0, 0): 40, GroupId(0, 1): 12,
                                GroupId(1, 0): 12, GroupId(1, 1): 40}, seed=2)
        rng = np.random.default_rng(1)
        idx = np.sort(rng.choice(len(data), size=30, replace=False))
        return data, ErrorSet(idx, source_epoch=3)

    def test_out_of_range_index_names_the_index_and_the_dataset(self):
        with pytest.raises(InputError, match=f"^replace_error_set: {OUT_OF_RANGE}$"):
            replace_error_set(ErrorSet([1, 7]), four_rows(), "replace-random", seed=0)

    @staticmethod
    def group_counts(data, error_set):
        out = {}
        for g in data.group_index()[0]:
            mask = (data.attributes[error_set.indices] == g.attribute) & \
                   (data.labels[error_set.indices] == g.label)
            out[g] = int(mask.sum())
        return out

    def test_swap_preserves_group_counts(self, setting):
        data, e = setting
        swapped = replace_error_set(e, data, "swap-same-group", seed=5)
        assert self.group_counts(data, swapped) == self.group_counts(data, e)
        assert swapped.source_epoch == e.source_epoch

    def test_swap_deterministic(self, setting):
        data, e = setting
        a = replace_error_set(e, data, "swap-same-group", seed=5)
        b = replace_error_set(e, data, "swap-same-group", seed=5)
        assert a == b
        c = replace_error_set(e, data, "swap-same-group", seed=6)
        assert a != c

    def test_swap_shortfall_keeps_counts_and_warns(self):
        data = grouped_dataset({GroupId(0, 0): 30, GroupId(0, 1): 4}, seed=3)
        group_idx = np.flatnonzero((data.attributes == 0) & (data.labels == 1))
        e = ErrorSet(group_idx[:3])  # 3 of 4 members: only 1 fresh candidate
        with pytest.warns(AnalysisWarning, match="too small"):
            swapped = replace_error_set(e, data, "swap-same-group", seed=0)
        assert self.group_counts(data, swapped)[GroupId(0, 1)] == 3

    def test_drop_group(self, setting):
        data, e = setting
        out = replace_error_set(e, data, "drop-group", group=GroupId(0, 0))
        counts = self.group_counts(data, out)
        assert counts[GroupId(0, 0)] == 0
        for g in (GroupId(0, 1), GroupId(1, 0), GroupId(1, 1)):
            assert counts[g] == self.group_counts(data, e)[g]

    def test_drop_alignment_modes(self, setting):
        data, e = setting
        no_minority = replace_error_set(e, data, "drop-y-neq-a")
        assert np.all(data.attributes[no_minority.indices]
                      == data.labels[no_minority.indices])
        no_majority = replace_error_set(e, data, "drop-y-eq-a")
        assert np.all(data.attributes[no_majority.indices]
                      != data.labels[no_majority.indices])
        assert len(no_minority) + len(no_majority) == len(e)

    def test_replace_random(self, setting):
        data, e = setting
        out = replace_error_set(e, data, "replace-random", seed=9)
        assert len(out) == len(e)
        assert not np.array_equal(out.indices, e.indices)

    def test_validation(self, setting):
        data, e = setting
        with pytest.raises(InputError, match="mode"):
            replace_error_set(e, data, "invert")
        with pytest.raises(InputError, match="group"):
            replace_error_set(e, data, "drop-group")
        with pytest.raises(InputError, match="seed"):
            replace_error_set(e, data, "swap-same-group")
        non_binary = Dataset(data.features, data.labels,
                             np.full(len(data), 2), "bad")
        with pytest.raises(InputError, match="binary"):
            replace_error_set(e, non_binary, "drop-y-eq-a")


@pytest.fixture(scope="module")
def jtt_run(reference_bench):
    from grouptrain.benchmark import reference_config
    train, val, _ = reference_bench
    return gt.train(train, val, reference_config("jtt", seed=0))


class TestReferenceBenchmarkDiagnostics:
    """Frozen-seed reference runs behind the error-set and top-loss-set
    diagnostics; thresholds calibrated once and committed."""

    def test_minority_groups_top_the_enrichment_table(self, reference_bench, jtt_run):
        train, _, _ = reference_bench
        table = enrichment_table(jtt_run.aux["error_set"], train)
        top_two = {row.group for row in table[:2]}
        assert top_two == {GroupId(0, 1), GroupId(1, 0)}

    def test_swapping_same_group_hurts_little_drops_hurt_much(self, reference_bench, jtt_run):
        train, val, test = reference_bench
        from grouptrain.benchmark import reference_config
        cfg = reference_config("jtt", seed=0)
        e = jtt_run.aux["error_set"]
        base = evaluate_groups(jtt_run.checkpoints["worst-group"].model,
                               test).worst_group_accuracy

        def rerun(mode):
            import warnings as warnings_mod
            with warnings_mod.catch_warnings():
                # nearly all minority examples sit in the error set, so the
                # swap mode legitimately reports a partial-swap fallback
                warnings_mod.simplefilter("ignore", AnalysisWarning)
                modified = replace_error_set(e, train, mode, seed=100)
            result = gt.train_upweighted(train, val, cfg, modified)
            wg = evaluate_groups(result.checkpoints["worst-group"].model,
                                 test).worst_group_accuracy
            return wg - base

        swap = rerun("swap-same-group")
        drop_minority = rerun("drop-y-neq-a")
        random = rerun("replace-random")
        assert abs(swap) <= 0.10
        assert drop_minority <= -0.25
        assert random <= -0.15
        assert swap > drop_minority + 0.15 and swap > random + 0.10

    def test_cvar_top_loss_set_oscillates_while_static_set_is_constant(self, reference_bench):
        import dataclasses
        from grouptrain.benchmark import reference_config
        train, val, _ = reference_bench
        cfg = dataclasses.replace(reference_config("cvar", seed=0), alpha=0.1)
        result = gt.train(train, val, cfg)
        worst = GroupId(0, 1)  # the group the tuned ERM reference is worst on
        points = track_cvar_composition(loss_snapshots(result.trajectory, train),
                                        cfg.alpha, train, worst)
        recalls = [p.recall for p in points]
        assert max(recalls) - min(recalls) > 0.2
        # a static error set is one fixed reference line by construction
        jtt_stats = error_set_stats(
            gt.train(train, val, reference_config("jtt", seed=0)).aux["error_set"],
            train, worst)
        assert jtt_stats.recall > 0.7
