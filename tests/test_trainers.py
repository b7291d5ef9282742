import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grouptrain as gt
from grouptrain.analysis import loss_snapshots
from grouptrain.benchmark import REFERENCE_GRIDS, reference_config, reference_grid_axes
from grouptrain.data import Dataset, strip_group_annotations, subsample_validation
from grouptrain.errors import ConfigError, DataWarning, InputError, TrainingWarning
from grouptrain.models import PROB_EPS, Architecture, Model, init_model
from grouptrain.trainers import (
    AVERAGE,
    WORST_GROUP,
    ErrorSet,
    TrainConfig,
    _seedseq,
    _upsampled_rows,
    build_upsampled,
    compute_error_set,
    cvar_batch_weights,
    epoch_scores,
    group_dro_update,
    lff_weight,
    train_population,
    train_upweighted,
)
from grouptrain.tuning import Grid, grid_sweep
from oracles import assert_same_run, cvar_lp_optimum, reference_train


def cfg(algorithm="erm", **overrides):
    base = dict(epochs=4, batch_size=32, learning_rate=0.05, l2=1e-3, seed=0)
    base.update(overrides)
    return TrainConfig(algorithm, **base)


def assert_same_result(a, b, check_aux_error_sets=False):
    assert np.array_equal(a.model.params, b.model.params)
    assert a.history == b.history
    for criterion in (WORST_GROUP, AVERAGE):
        ca, cb = a.checkpoints[criterion], b.checkpoints[criterion]
        assert ca.epoch == cb.epoch
        assert np.array_equal(ca.model.params, cb.model.params)
    if check_aux_error_sets:
        assert a.aux["error_set"] == b.aux["error_set"]
        assert a.aux["refresh_epochs"] == b.aux["refresh_epochs"]


class TestCvarBatchWeights:
    def test_half_of_four(self):
        w = cvar_batch_weights(np.array([1.0, 2.0, 3.0, 4.0]), 0.5)
        assert np.array_equal(w, [0.0, 0.0, 0.5, 0.5])
        assert w @ [1, 2, 3, 4] == pytest.approx(3.5)

    def test_alpha_one_is_uniform(self):
        w = cvar_batch_weights(np.array([1.0, 2.0, 3.0, 4.0]), 1.0)
        assert np.array_equal(w, np.full(4, 0.25))
        assert w @ [1, 2, 3, 4] == pytest.approx(2.5)

    def test_fractional_mass_on_boundary_entry(self):
        w = cvar_batch_weights(np.array([1.0, 2.0, 3.0]), 0.5)
        assert w == pytest.approx([0.0, 1 / 3, 2 / 3], abs=1e-12)
        assert w @ [1, 2, 3] == pytest.approx(8 / 3)

    def test_tiny_alpha_all_mass_on_top(self):
        w = cvar_batch_weights(np.array([5.0, 9.0, 1.0]), 0.1)
        assert np.array_equal(w, [0.0, 1.0, 0.0])

    def test_ties_break_by_lower_index(self):
        w = cvar_batch_weights(np.array([2.0, 2.0, 2.0, 0.0]), 0.25)
        assert np.array_equal(w, [1.0, 0.0, 0.0, 0.0])

    def test_identical_losses_weighted_sum_is_mean(self):
        losses = np.full(6, 3.3)
        for alpha in (0.2, 0.5, 1.0):
            w = cvar_batch_weights(losses, alpha)
            assert w @ losses == pytest.approx(3.3, abs=1e-12)

    @given(st.lists(st.floats(0, 50), min_size=1, max_size=12),
           st.floats(0.05, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_weight_properties(self, losses, alpha):
        losses = np.asarray(losses)
        w = cvar_batch_weights(losses, alpha)
        b = len(losses)
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) < 1e-12
        assert w.max() <= 1.0 / (alpha * b) + 1e-12
        assert w @ losses >= losses.mean() - 1e-9

    @given(st.lists(st.floats(0, 50), min_size=2, max_size=10),
           st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_weighted_sum_non_increasing_in_alpha(self, losses, a1, a2):
        losses = np.asarray(losses)
        lo, hi = sorted([a1, a2])
        v_lo = cvar_batch_weights(losses, lo) @ losses
        v_hi = cvar_batch_weights(losses, hi) @ losses
        assert v_lo >= v_hi - 1e-9

    def test_matches_lp_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            b = int(rng.integers(1, 11))
            losses = rng.uniform(0, 10, size=b)
            alpha = float(rng.uniform(0.05, 1.0))
            mine = cvar_batch_weights(losses, alpha) @ losses
            assert abs(mine - cvar_lp_optimum(losses, alpha)) < 1e-6

    def test_validation(self):
        with pytest.raises(InputError):
            cvar_batch_weights(np.array([]), 0.5)
        with pytest.raises(InputError):
            cvar_batch_weights(np.array([1.0]), 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_losses_rejected(self, bad):
        # Unchecked, a NaN loss sorted last and silently took weight 0.
        with pytest.raises(InputError, match="losses must be finite"):
            cvar_batch_weights(np.array([bad, 1.0, 2.0]), 0.5)


class TestLffWeight:
    def test_equal_probabilities_give_half(self):
        assert lff_weight(0.3, 0.3) == pytest.approx(0.5)

    def test_hand_value(self):
        expected = math.log(0.9) / (math.log(0.9) + math.log(0.1))
        assert lff_weight(0.9, 0.1) == pytest.approx(expected, abs=1e-12)
        assert lff_weight(0.9, 0.1) == pytest.approx(0.04375, abs=1e-4)

    def test_easy_examples_downweighted(self):
        assert lff_weight(1.0, 0.5) < 1e-10

    @given(st.floats(1e-9, 1 - 1e-9), st.floats(1e-9, 1 - 1e-9))
    @settings(max_examples=60, deadline=None)
    def test_range_and_swap_symmetry(self, pb, pd):
        w = float(lff_weight(pb, pd))
        assert 0.0 < w < 1.0
        assert w + float(lff_weight(pd, pb)) == pytest.approx(1.0, abs=1e-12)

    def test_vectorized(self):
        out = lff_weight(np.array([0.5, 0.9]), np.array([0.5, 0.1]))
        assert out[0] == pytest.approx(0.5)


class TestGroupDroUpdate:
    def test_single_group_stays_one(self):
        out = group_dro_update(np.array([3.7]), np.array([1.0]), 0.01)
        assert np.array_equal(out, [1.0])

    def test_equal_losses_leave_weights(self):
        w = np.array([0.3, 0.7])
        out = group_dro_update(np.array([2.0, 2.0]), w, 0.01)
        assert out == pytest.approx(w, rel=1e-12)

    def test_hand_update(self):
        out = group_dro_update(np.array([1.0, 0.0]), np.array([0.5, 0.5]), 0.01)
        expected = np.array([0.5 * math.exp(0.01), 0.5])
        expected /= expected.sum()
        assert out == pytest.approx(expected, abs=1e-15)
        assert out == pytest.approx([0.50250, 0.49750], abs=5e-5)

    def test_zero_step_size_freezes(self):
        w = np.array([0.25, 0.25, 0.25, 0.25])
        out = group_dro_update(np.array([5.0, 0.0, 1.0, 2.0]), w, 0.0)
        assert np.array_equal(out, w)

    def test_validation(self):
        with pytest.raises(InputError):
            group_dro_update(np.array([1.0]), np.array([1.0, 2.0]), 0.01)
        with pytest.raises(InputError):
            group_dro_update(np.array([np.inf]), np.array([1.0]), 0.01)

    def test_nan_weight_rejected(self):
        # Unchecked, one NaN weight made every group weight NaN.
        with pytest.raises(InputError, match="weights must be non-negative"):
            group_dro_update(np.array([1.0, 2.0]), np.array([np.nan, 0.5]), 0.01)

    def test_weights_without_mass_rejected(self):
        # Unchecked, renormalizing divided 0 by 0: every weight NaN.
        with pytest.raises(InputError, match="weights must have a positive sum"):
            group_dro_update(np.array([1.0, 2.0]), np.array([0.0, 0.0]), 0.01)

    @pytest.mark.parametrize("step_size", [math.nan, math.inf, -0.01])
    def test_bad_step_size_rejected(self, step_size):
        # Unchecked, a NaN or infinite step made every weight NaN.
        with pytest.raises(InputError, match="step_size must be finite and non-negative"):
            group_dro_update(np.array([1.0, 2.0]), np.array([0.5, 0.5]), step_size)


class TestErrorSet:
    def test_indices_sorted_unique(self):
        e = ErrorSet(np.array([5, 1, 5, 3]), source_epoch=2)
        assert np.array_equal(e.indices, [1, 3, 5])
        assert len(e) == 3
        assert e.source_epoch == 2

    def test_one_class_behind_every_export(self):
        assert ErrorSet is gt.ErrorSet is gt.analysis.ErrorSet

    @pytest.mark.parametrize("indices, source_epoch, message", [
        ([4, -2], 0, "error-set indices must be non-negative"),
        ([3], -7, "error-set source_epoch must be >= -1; got -7"),
    ], ids=["negative-index", "epoch-below-minus-one"])
    def test_bad_values_rejected(self, indices, source_epoch, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            ErrorSet(indices, source_epoch)
        assert ErrorSet([3], -1).source_epoch == -1

    def test_perfect_model_gives_empty_set(self, toy_separable):
        train, val = toy_separable
        result = gt.train(train, val, cfg(epochs=200, learning_rate=0.5, l2=0.0))
        e = compute_error_set(result.model, train)
        assert len(e) == 0

    def test_constant_predictor_errors_on_other_labels(self, small_bench):
        train, _, _ = small_bench
        arch = Architecture(train.n_features, (), 2)
        params = np.zeros(arch.n_params)
        params[-2] = 5.0  # bias pushes every prediction to label 0
        model = gt.Model(arch, params)
        e = compute_error_set(model, train)
        assert np.array_equal(e.indices, np.flatnonzero(train.labels != 0))


class TestBuildUpsampled:
    """The upsampled training view as training builds it: `_upsampled_rows`,
    an index map into the training rows."""

    def test_factor_one_is_identity(self):
        rows = _upsampled_rows(10, ErrorSet(np.array([0, 1])), 1)
        assert rows.dtype == np.int32
        assert np.array_equal(rows, np.arange(10))

    def test_empty_set_is_identity(self):
        assert np.array_equal(_upsampled_rows(10, ErrorSet(np.array([], dtype=int)), 5),
                              np.arange(10))

    def test_size_formula(self, small_bench):
        train, _, _ = small_bench
        ten = train.subset(np.arange(10))
        rows = _upsampled_rows(len(ten), ErrorSet(np.array([2, 7])), 5)
        assert len(rows) == 10 + 4 * 2
        assert np.array_equal(rows, np.concatenate([np.arange(10)] + [[2, 7]] * 4))
        assert np.array_equal(ten.features[rows[:10]], ten.features)
        assert np.array_equal(ten.features[rows[10:12]], ten.features[[2, 7]])

    def test_everything_twice(self, small_bench):
        train, _, _ = small_bench
        five = train.subset(np.arange(5))
        rows = _upsampled_rows(len(five), ErrorSet(np.arange(5)), 2)
        assert len(rows) == 10
        assert np.array_equal(five.features[rows], np.vstack([five.features, five.features]))


class TestTrainErm:
    def test_zero_epochs_returns_seeded_initialization(self, small_bench):
        train, val, _ = small_bench
        c = cfg(epochs=0, seed=123)
        result = gt.train(train, val, c)
        arch = Architecture(train.n_features, (), 2)
        expected = init_model(arch, _seedseq(123, 0))
        assert np.array_equal(result.model.params, expected.params)
        assert result.history == []
        assert result.checkpoints[WORST_GROUP].epoch == -1

    def test_deterministic(self, small_bench):
        train, val, _ = small_bench
        assert_same_result(gt.train(train, val, cfg()), gt.train(train, val, cfg()))

    def test_seed_changes_trajectory(self, small_bench):
        train, val, _ = small_bench
        a = gt.train(train, val, cfg(seed=0))
        b = gt.train(train, val, cfg(seed=1))
        assert not np.array_equal(a.model.params, b.model.params)

    def test_toy_set_reaches_zero_training_error(self, toy_separable):
        train, val = toy_separable
        result = gt.train(train, val, cfg(epochs=200, learning_rate=0.5, l2=0.0, seed=7))
        assert np.array_equal(gt.predict(result.model, train.features), train.labels)

    def test_empty_dataset_rejected(self, small_bench):
        _, val, _ = small_bench
        empty = Dataset(np.zeros((0, 4)), np.zeros(0, dtype=int))
        with pytest.raises(InputError):
            gt.train(empty, val, cfg())

    def test_val_needs_annotations(self, small_bench):
        train, val, _ = small_bench
        with pytest.raises(InputError):
            gt.train(train, strip_group_annotations(val), cfg())

    @pytest.mark.parametrize("run", [
        lambda train, val, test: gt.train(train, val, cfg()),
        lambda train, val, test: grid_sweep(Grid(cfg(), {"seed": (0,)}), train, val, test),
        lambda train, val, test: train_upweighted(train, val, cfg("jtt", id_epochs=1,
                                                                  upweight_factor=4),
                                                  ErrorSet(np.arange(3), 1)),
    ], ids=["train", "grid_sweep", "train_upweighted"])
    def test_val_without_rows_rejected(self, small_bench, run):
        train, val, test = small_bench
        empty = val.subset(np.arange(0), name="val-empty")
        with pytest.raises(InputError, match="^validation set 'val-empty' has no rows"):
            run(train, empty, test)

    @pytest.mark.parametrize("algorithm, extra", [("erm", {}), ("lff", {"gce_q": 0.7})])
    def test_validation_labels_never_shape_the_model(self, small_bench, algorithm, extra):
        train, val, _ = small_bench
        labels = val.labels.copy()
        labels[0] = 2  # a class the training data never shows
        extra_label = Dataset(val.features, labels, val.attributes, val.name)
        a = gt.train(train, val, cfg(algorithm, **extra))
        b = gt.train(train, extra_label, cfg(algorithm, **extra))
        assert a.model.arch == b.model.arch == Architecture(train.n_features, (), 2)
        assert np.array_equal(a.model.params, b.model.params)

    def test_history_length_and_checkpoint_consistency(self, small_bench):
        train, val, _ = small_bench
        result = gt.train(train, val, cfg(epochs=6))
        assert len(result.history) == 6
        for criterion, field in ((WORST_GROUP, "val_worst_group"), (AVERAGE, "val_average")):
            ck = result.checkpoints[criterion]
            values = [getattr(h, field) for h in result.history]
            assert values[ck.epoch] == max(values)
            assert ck.epoch == int(np.argmax(values))


class TestReductions:
    def test_jtt_with_factor_one_is_erm(self, small_bench):
        train, val, _ = small_bench
        erm = gt.train(train, val, cfg())
        jtt = gt.train(train, val, cfg("jtt", id_epochs=2, upweight_factor=1))
        assert_same_result(erm, jtt)

    def test_cvar_alpha_one_is_erm(self, small_bench):
        train, val, _ = small_bench
        erm = gt.train(train, val, cfg())
        cvar = gt.train(train, val, cfg("cvar", alpha=1.0))
        assert_same_result(erm, cvar)

    def test_single_group_dro_is_erm(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(150, 4))
        y = np.zeros(150, dtype=int)
        one_group = Dataset(x, y, np.zeros(150, dtype=int), "one")
        val = Dataset(rng.normal(size=(40, 4)), rng.integers(0, 2, 40),
                      rng.integers(0, 2, 40), "val")
        erm = gt.train(one_group, val, cfg())
        dro = gt.train(one_group, val, cfg("group-dro"))
        assert_same_result(erm, dro)

    def test_dynamic_without_refresh_is_jtt(self, small_bench):
        train, val, _ = small_bench
        jtt = gt.train(train, val, cfg("jtt", id_epochs=1, upweight_factor=4))
        dyn = gt.train(train, val, cfg("jtt-dynamic", id_epochs=1, upweight_factor=4))
        assert_same_result(jtt, dyn, check_aux_error_sets=True)

    def test_refresh_period_beyond_epochs_is_jtt(self, small_bench):
        train, val, _ = small_bench
        jtt = gt.train(train, val, cfg("jtt", id_epochs=1, upweight_factor=4))
        dyn = gt.train(train, val, cfg("jtt-dynamic", id_epochs=1, upweight_factor=4,
                                       refresh_every=4))
        assert_same_result(jtt, dyn, check_aux_error_sets=True)

    def test_lff_q_zero_is_erm(self, small_bench):
        train, val, _ = small_bench
        erm = gt.train(train, val, cfg())
        lff = gt.train(train, val, cfg("lff", gce_q=0.0))
        assert_same_result(erm, lff)

    def test_upsample_minority_factor_one_is_erm(self, small_bench):
        train, val, _ = small_bench
        erm = gt.train(train, val, cfg())
        ups = gt.train(train, val, cfg("upsample-minority", upweight_factor=1))
        assert_same_result(erm, ups)

    def test_upsample_minority_without_minorities_is_erm(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(120, 3))
        y = rng.integers(0, 2, 120)
        aligned = Dataset(x, y, y.copy(), "aligned")
        val = Dataset(rng.normal(size=(40, 3)), rng.integers(0, 2, 40),
                      rng.integers(0, 2, 40), "val")
        erm = gt.train(aligned, val, cfg())
        ups = gt.train(aligned, val, cfg("upsample-minority", upweight_factor=9))
        assert_same_result(erm, ups)

    def test_group_dro_zero_step_is_group_balanced_not_erm(self, small_bench):
        train, val, _ = small_bench
        dro = gt.train(train, val, cfg("group-dro", group_step_size=0.0))
        assert set(dro.aux["group_weights"].values()) == {0.25}


class TestGroupBlindness:
    @pytest.mark.parametrize("algorithm,extra", [
        ("erm", {}),
        ("jtt", {"id_epochs": 1, "upweight_factor": 3}),
        ("jtt-dynamic", {"id_epochs": 1, "upweight_factor": 3, "refresh_every": 2}),
        ("cvar", {"alpha": 0.3}),
        ("lff", {"gce_q": 0.7}),
    ])
    def test_poisoned_annotations_do_not_change_results(self, small_bench, algorithm, extra):
        train, val, _ = small_bench
        rng = np.random.default_rng(99)
        poisoned = Dataset(train.features, train.labels,
                           rng.integers(0, 5, len(train)), train.name)
        a = gt.train(strip_group_annotations(train), val, cfg(algorithm, **extra))
        b = gt.train(poisoned, val, cfg(algorithm, **extra))
        assert_same_result(a, b)


class TestJtt:
    def test_aux_contents(self, small_bench):
        train, val, _ = small_bench
        c = cfg("jtt", id_epochs=2, upweight_factor=4)
        result = gt.train(train, val, c)
        id_model = result.aux["identification_model"]
        expected = compute_error_set(id_model, strip_group_annotations(train),
                                     source_epoch=2)
        assert result.aux["error_set"] == expected
        assert result.aux["refresh_epochs"] == []
        assert set(result.aux) == {"identification_model", "error_set", "refresh_epochs",
                                   "refresh_sizes"}

    def test_identification_epochs_zero_uses_initialization(self, small_bench):
        train, val, _ = small_bench
        c = cfg("jtt", id_epochs=0, upweight_factor=2, seed=31)
        result = gt.train(train, val, c)
        arch = Architecture(train.n_features, (), 2)
        init = init_model(arch, _seedseq(31, 2))
        assert np.array_equal(result.aux["identification_model"].params, init.params)
        assert len(result.history) == c.epochs

    def test_empty_error_set_warns_and_degenerates_to_erm(self, toy_separable):
        train, val = toy_separable
        c = cfg("jtt", epochs=5, learning_rate=0.5, l2=0.0, id_epochs=300,
                upweight_factor=10, seed=7)
        with pytest.warns(TrainingWarning, match="empty"):
            result = gt.train(train, val, c)
        erm = gt.train(train, val, cfg(epochs=5, learning_rate=0.5, l2=0.0, seed=7))
        assert np.array_equal(result.model.params, erm.model.params)

    def test_dynamic_refresh_changes_trajectory_and_logs(self, small_bench):
        train, val, _ = small_bench
        static = gt.train(train, val, cfg("jtt", epochs=6, id_epochs=1, upweight_factor=4))
        dyn = gt.train(train, val, cfg("jtt-dynamic", epochs=6, id_epochs=1,
                                       upweight_factor=4, refresh_every=2))
        assert dyn.aux["refresh_epochs"] == [2, 4]
        assert len(dyn.aux["refresh_sizes"]) == 2
        assert not np.array_equal(static.model.params, dyn.model.params)

    def test_train_upweighted_matches_stage_two(self, small_bench):
        train, val, _ = small_bench
        for c in (cfg("jtt", id_epochs=1, upweight_factor=4),
                  cfg("jtt-dynamic", epochs=6, id_epochs=1, upweight_factor=4, refresh_every=2)):
            full = gt.train(train, val, c)
            stage2 = train_upweighted(train, val, c, full.aux["error_set"])
            assert np.array_equal(full.model.params, stage2.model.params)
            assert stage2.aux["refresh_epochs"] == full.aux["refresh_epochs"]

    @pytest.mark.parametrize("factor", [1, 3])
    def test_out_of_range_rejected(self, reference_bench, factor):
        # The bound holds where an error set enters, whether or not its rows
        # are ever copied.
        train, val, _ = reference_bench
        bad = ErrorSet([99999])
        message = (f"error-set index 99999 is out of range for dataset {train.name!r} "
                   f"of {len(train)} rows")
        with pytest.raises(InputError, match=re.escape(f"train_upweighted: {message}")):
            train_upweighted(train, val, cfg("jtt", id_epochs=1, upweight_factor=factor), bad)
        with pytest.raises(InputError, match=re.escape(f"build_upsampled: {message}")):
            build_upsampled(train, bad, factor)


def shared_identification_grid():
    """32 jtt and jtt-dynamic configs over id_epochs 0-3, two learning rates
    and two batch sizes: 4 identification runs of 3 epochs and 16 pairs of
    a jtt and a jtt-dynamic config that read one identification model. The
    runs' initial models are equal, so the distinct models are 13."""
    return [cfg(algorithm, epochs=3, batch_size=b, learning_rate=rate, id_epochs=k,
                upweight_factor=factor, refresh_every=2 if algorithm == "jtt-dynamic" else None)
            for (algorithm, factor), k, rate, b in itertools.product(
                (("jtt", 3), ("jtt-dynamic", 5)), range(4), (0.05, 0.02), (32, 50))]


class TestSharedIdentification:
    """Two-stage configs that differ only in id_epochs and the upweighting
    stage share one identification run and one error set per model."""

    def test_each_lane_equals_its_lone_run(self, small_bench):
        import grouptrain.trainers as trainers_mod
        train, val, _ = small_bench
        cfgs = shared_identification_grid()
        lanes = trainers_mod._two_stage(train, cfgs)
        assert all(lane.error is None for lane in lanes)
        for c, lane in zip(cfgs, lanes):
            assert_same_run(lane, lone_run(train, val, c))

    def test_lanes_equal_the_reference_two_stage_loop(self, small_bench):
        import grouptrain.trainers as trainers_mod
        train, _, _ = small_bench
        cfgs = shared_identification_grid()
        lanes = trainers_mod._two_stage(train, cfgs)
        for c, lane in zip(cfgs, lanes, strict=True):
            assert lane.error is None
            assert_same_run(lane, reference_train(train, c))
        assert {len(lane.aux["refresh_epochs"]) for lane in lanes} == {0, 1}

    def test_equal_models_of_different_epochs_keep_their_source_epochs(self, small_bench):
        import grouptrain.trainers as trainers_mod
        train, val, _ = small_bench
        # At the smallest positive rate no step changes a parameter bit: the
        # run's models after 0, 1 and 2 epochs are equal.
        cfgs = [cfg("jtt", epochs=1, learning_rate=5e-324, id_epochs=k, upweight_factor=2)
                for k in range(3)]
        lanes = trainers_mod._two_stage(train, cfgs)
        first = lanes[0].aux["identification_model"].params
        assert all(np.array_equal(lane.aux["identification_model"].params, first)
                   for lane in lanes)
        assert [lane.aux["error_set"].source_epoch for lane in lanes] == [0, 1, 2]
        for c, lane in zip(cfgs, lanes):
            assert_same_run(lane, lone_run(train, val, c))

    def test_one_run_per_key_and_one_error_set_per_model(self, small_bench, monkeypatch):
        import grouptrain.trainers as trainers_mod
        train, _, _ = small_bench
        log = []
        for name in ("_weighted_sgd", "compute_error_set"):
            def wrapped(*args, _name=name, _f=getattr(trainers_mod, name), **kwargs):
                log.append((_name, args, kwargs))
                return _f(*args, **kwargs)
            monkeypatch.setattr(trainers_mod, name, wrapped)
        cfgs = shared_identification_grid()
        lanes = trainers_mod._two_stage(train, cfgs)
        stages = [args[1] for name, args, _ in log if name == "_weighted_sgd"]
        assert len(stages) == 2
        # One row per identification key, each trained for the longest id_epochs.
        assert sorted((lane.cfg.learning_rate, lane.cfg.batch_size, lane.epochs, lane.n_models)
                      for lane in stages[0]) == [(0.02, 32, 3, 1), (0.02, 50, 3, 1),
                                                 (0.05, 32, 3, 1), (0.05, 50, 3, 1)]
        assert stages[1] == lanes
        first_main = next(i for i, (name, args, _) in enumerate(log)
                          if name == "_weighted_sgd" and args[1] == lanes)
        error_sets = [(id(args[0]), kwargs["source_epoch"])
                      for name, args, kwargs in log[:first_main] if name == "compute_error_set"]
        # Each run's models after epochs 1-3, and the runs' equal initial models once.
        assert len(set(error_sets)) == len(error_sets) == 13
        assert sorted(epoch for _, epoch in error_sets) == [0] + [1] * 4 + [2] * 4 + [3] * 4
        shared = {}
        for c, lane in zip(cfgs, lanes):
            shared.setdefault((c.learning_rate, c.batch_size, c.id_epochs), set()).add(
                (id(lane.aux["identification_model"]), id(lane.aux["error_set"])))
        assert len(shared) == 16 and all(len(ids) == 1 for ids in shared.values())
        # Every lane of a stage starts from equal initial parameters.
        for stage in stages:
            assert all(np.array_equal(lane.trajectory[0].params, stage[0].trajectory[0].params)
                       for lane in stage)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_diverging_run_fails_only_its_longer_members(self, small_bench):
        import grouptrain.trainers as trainers_mod
        train, val, _ = small_bench
        # At this rate, without l2, the shared run stays finite through its
        # first epoch and diverges in its second; the 0.05 run is healthy.
        cfgs = [cfg(algorithm, epochs=1, learning_rate=rate, l2=0.0, id_epochs=k,
                    upweight_factor=2)
                for k in (3, 0, 2, 1) for algorithm in ("jtt", "jtt-dynamic")
                for rate in (4.5e306, 0.05)]
        lanes = trainers_mod._two_stage(train, cfgs)
        assert [lane.error is None for lane in lanes] == [
            c.learning_rate == 0.05 or c.id_epochs < 2 for c in cfgs]
        assert {str(lane.error) for lane in lanes if lane.error is not None} == {
            "training diverged: non-finite objective at epoch 1, batch 7"}
        for c, lane in zip(cfgs, lanes):
            assert_same_run(lane, lone_run(train, val, c))
        with pytest.raises(FloatingPointError, match="at epoch 1, batch 7$"):
            train_population(train, val, cfgs)


class TestCvarTrainer:
    def test_snapshots_cover_every_epoch(self, small_bench):
        train, val, _ = small_bench
        result = gt.train(train, val, cfg("cvar", epochs=3, alpha=0.2))
        assert loss_snapshots(result.trajectory, train).shape == (3, len(train))
        assert result.aux == {}

    def test_training_makes_no_full_training_set_pass(self, small_bench, monkeypatch):
        import grouptrain.models as models_mod
        train, val, _ = small_bench
        rows = []
        original = models_mod._forward_cached

        def counting(model, x):
            rows.append(x.shape[-2])  # the batch axis, behind any lane axis
            return original(model, x)

        monkeypatch.setattr(models_mod, "_forward_cached", counting)
        gt.train(train, val, cfg("cvar", epochs=3, alpha=0.2))
        assert rows and rows.count(len(train)) == 0


class TestLffTrainer:
    def test_weights_are_half_on_first_batch_for_shared_init(self, small_bench, monkeypatch):
        train, val, _ = small_bench
        captured = []
        import grouptrain.trainers as trainers_mod
        original = trainers_mod.lff_weight

        def recording(pb, pd):
            out = original(pb, pd)
            captured.append(np.array(out, copy=True))
            return out

        monkeypatch.setattr(trainers_mod, "lff_weight", recording)
        gt.train(train, val, cfg("lff", epochs=1, gce_q=0.7))
        for lane in captured[0]:
            assert np.array_equal(lane, np.full(len(lane), 0.5))

    def test_weights_stay_half_throughout_on_identical_examples(self, monkeypatch):
        # identical examples + shared initialization + q = 0: both models take
        # the same steps forever, so every weight stays exactly 1/2
        x = np.tile([[0.7, -0.2]], (48, 1))
        y = np.zeros(48, dtype=int)
        train = Dataset(x, y, None, "identical")
        val = Dataset(np.array([[0.7, -0.2], [-0.7, 0.2]]), np.array([0, 1]),
                      np.array([0, 1]), "val")
        captured = []
        import grouptrain.trainers as trainers_mod
        original = trainers_mod.lff_weight

        def recording(pb, pd):
            out = original(pb, pd)
            captured.append(np.array(out, copy=True))
            return out

        monkeypatch.setattr(trainers_mod, "lff_weight", recording)
        gt.train(train, val, cfg("lff", epochs=3, batch_size=16, gce_q=0.0))
        for batch in captured:
            for lane in batch:
                assert np.array_equal(lane, np.full(len(lane), 0.5))

    def test_bias_model_in_aux(self, small_bench):
        train, val, _ = small_bench
        result = gt.train(train, val, cfg("lff", gce_q=0.7))
        assert "bias_model" in result.aux
        assert not np.array_equal(result.aux["bias_model"].params, result.model.params)


class TestGroupTrainersRequireAnnotations:
    def test_group_dro_rejects_stripped(self, small_bench):
        train, val, _ = small_bench
        with pytest.raises(InputError):
            gt.train(strip_group_annotations(train), val, cfg("group-dro"))

    def test_upsample_minority_rejects_stripped(self, small_bench):
        train, val, _ = small_bench
        with pytest.raises(InputError):
            gt.train(strip_group_annotations(train), val,
                     cfg("upsample-minority", upweight_factor=2))

    def test_upsample_minority_rejects_non_binary(self, small_bench):
        train, val, _ = small_bench
        rng = np.random.default_rng(0)
        multi = Dataset(train.features, train.labels, rng.integers(0, 3, len(train)))
        with pytest.raises(InputError, match="binary"):
            gt.train(multi, val, cfg("upsample-minority", upweight_factor=2))

    def test_group_dro_records_final_weights(self, small_bench):
        train, val, _ = small_bench
        result = gt.train(train, val, cfg("group-dro"))
        weights = result.aux["group_weights"]
        assert set(weights) == set(train.group_index()[0])
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestDivergence:
    @pytest.mark.parametrize("algorithm", gt.ALGORITHMS)
    def test_non_finite_objective_stops_the_run(self, small_bench, algorithm):
        train, val, _ = small_bench
        extra = dict(id_epochs=1, upweight_factor=4, refresh_every=2, alpha=0.3, gce_q=0.5)
        with pytest.raises(FloatingPointError, match="objective at epoch 0, batch 2"):
            gt.train(train, val, cfg(algorithm, learning_rate=1e200, **extra))

    def test_non_finite_parameters_stop_the_run(self, small_bench):
        # one batch per epoch: the overflowing step is the epoch's last
        train, val, _ = small_bench
        with pytest.raises(FloatingPointError, match="parameters after epoch 1"):
            gt.train(train, val, cfg(batch_size=len(train), learning_rate=1e200))


class TestValidationOnlyScores:
    def test_jtt_scores_val_once_per_main_stage_epoch(self, small_bench, monkeypatch):
        import grouptrain.trainers as trainers_mod
        train, val, _ = small_bench
        scored, epoch_scores = [], trainers_mod.epoch_scores

        def counting(trajectory, data):
            if data is val:
                scored.append(trajectory)
            return epoch_scores(trajectory, data)

        monkeypatch.setattr(trainers_mod, "epoch_scores", counting)
        result = gt.train(train, val, cfg("jtt", id_epochs=2, epochs=3, upweight_factor=4))
        assert len(scored) == 1
        assert len(scored[0]) == 3 + 1
        assert all(a is b for a, b in zip(scored[0], result.trajectory, strict=True))

    @pytest.mark.parametrize("algorithm, extra", [
        ("erm", {}), ("jtt", {"id_epochs": 1, "upweight_factor": 3}),
        ("jtt-dynamic", {"id_epochs": 1, "upweight_factor": 3, "refresh_every": 1}),
        ("cvar", {"alpha": 0.3}), ("lff", {"gce_q": 0.7}), ("group-dro", {}),
        ("upsample-minority", {"upweight_factor": 2})])
    def test_unannotated_val_raises_before_any_step(self, small_bench, monkeypatch,
                                                    algorithm, extra):
        import grouptrain.trainers as trainers_mod
        train, val, _ = small_bench

        def no_step(*_):
            raise AssertionError("trained before checking the validation split")

        monkeypatch.setattr(trainers_mod, "sgd_step", no_step)
        # Stripped training data would fail group-dro and upsample-minority
        # too; the validation split is checked first.
        train, val = strip_group_annotations(train), strip_group_annotations(val)
        with pytest.raises(InputError, match="validation set needs group annotations"):
            gt.train(train, val, cfg(algorithm, **extra))
        with pytest.raises(InputError, match="validation set needs group annotations"):
            train_upweighted(train, val, cfg("jtt", id_epochs=1, upweight_factor=3),
                             ErrorSet(np.arange(5), 1))


def scores_by_evaluate_groups(trajectory, data):
    """Per-epoch (worst-group, average) accuracy, one model at a time."""
    metrics = [gt.evaluate_groups(model, data) for model in trajectory[1:]]
    return [(m.worst_group_accuracy, m.average_accuracy) for m in metrics]


class TestStackedEpochScores:
    """`epoch_scores` scores a trajectory in stacked forward passes and one
    bincount per pass; its values equal per-model `evaluate_groups` calls."""

    def test_reference_grid_trajectories(self, reference_bench):
        import grouptrain.trainers as trainers_mod
        train, val, test = reference_bench
        for algorithm in REFERENCE_GRIDS:
            grid = Grid(dataclasses.replace(reference_config(algorithm, 0), epochs=3),
                        reference_grid_axes(algorithm))
            for run in trainers_mod.train_population(train, val, grid.configs()):
                for data in (val, test):
                    assert (epoch_scores(run.trajectory, data)
                            == scores_by_evaluate_groups(run.trajectory, data))

    def test_split_that_lost_a_group(self, small_bench):
        train, val, _ = small_bench
        with pytest.warns(DataWarning, match="lost group"):
            reduced = subsample_validation(val, 0.05, 3)
        run = gt.train(train, val, cfg(epochs=5))
        assert epoch_scores(run.trajectory, reduced) == scores_by_evaluate_groups(
            run.trajectory, reduced)

    def test_one_class_predictors_and_three_classes(self):
        rng = np.random.default_rng(5)
        data = Dataset(rng.normal(size=(300, 4)), rng.integers(0, 3, 300),
                       rng.integers(0, 2, 300), "three-class")
        arch = Architecture(4, (5,), 3)
        favour_two = np.zeros(arch.n_params)
        favour_two[-1] = 1.0  # zero weights, the last class's bias up: always class 2
        trajectory = [init_model(arch, 0), Model(arch, favour_two),
                      Model(arch, np.zeros(arch.n_params))]  # all ties: always class 0
        trajectory += [init_model(arch, seed) for seed in range(1, 6)]
        scores = epoch_scores(trajectory, data)
        assert scores == scores_by_evaluate_groups(trajectory, data)
        assert scores[0][0] == 0.0 and scores[1][0] == 0.0

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_short_runs(self, small_bench, epochs):
        train, val, _ = small_bench
        run = gt.train(train, val, cfg(epochs=epochs))
        assert len(run.history) == epochs
        assert epoch_scores(run.trajectory, val) == scores_by_evaluate_groups(
            run.trajectory, val)

    @pytest.mark.parametrize("cells, passes", [(1, [1] * 6), (2400, [3, 3]),
                                               (10 ** 9, [6])])
    def test_hidden_layers_and_the_cell_budget(self, small_bench, monkeypatch, cells, passes):
        import grouptrain.models as models_mod
        import grouptrain.trainers as trainers_mod
        train, val, test = small_bench
        run = gt.train(train, val, cfg(epochs=6, hidden=(4, 3)))
        # A pass holds at most `cells` cells per array: 200 rows of width 4.
        monkeypatch.setattr(trainers_mod, "_SCORE_CELLS", cells)
        stacked, forward_cached = [], models_mod._forward_cached

        def counting(model, x):
            stacked.append(len(model.params))
            return forward_cached(model, x)

        monkeypatch.setattr(models_mod, "_forward_cached", counting)
        assert epoch_scores(run.trajectory, val) == scores_by_evaluate_groups(run.trajectory, val)
        assert stacked[:len(passes)] == passes
        assert epoch_scores(run.trajectory, test) == scores_by_evaluate_groups(
            run.trajectory, test)


class TestConfigValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            cfg("boosting")

    @pytest.mark.parametrize("hidden", [[1.5], [2.0], "12", 5, (4, "3"), (True,), [4, False]])
    def test_hidden_widths_take_integers_only(self, hidden):
        with pytest.raises(ConfigError, match="^hidden: widths must be integers$"):
            cfg(hidden=hidden)
        with pytest.raises(InputError, match="^hidden: widths must be integers$"):
            Architecture(3, hidden, 2)
        assert cfg(hidden=[np.int64(4), 3]).hidden == Architecture(3, [4, 3], 2).hidden == (4, 3)

    def test_algorithm_specific_requirements(self):
        with pytest.raises(ConfigError, match="id_epochs"):
            cfg("jtt", upweight_factor=2)
        with pytest.raises(ConfigError, match="upweight_factor"):
            cfg("jtt", id_epochs=1)
        with pytest.raises(ConfigError, match="alpha"):
            cfg("cvar")
        with pytest.raises(ConfigError, match="alpha"):
            cfg("cvar", alpha=1.5)
        with pytest.raises(ConfigError, match="gce_q"):
            cfg("lff", gce_q=1.0)
        with pytest.raises(ConfigError, match="upweight_factor"):
            cfg("upsample-minority", upweight_factor=0)

    def test_range_checks(self):
        with pytest.raises(ConfigError):
            cfg(epochs=-1)
        with pytest.raises(ConfigError):
            cfg(batch_size=0)
        with pytest.raises(ConfigError):
            cfg(learning_rate=0.0)
        with pytest.raises(ConfigError):
            cfg(momentum=1.0)
        with pytest.raises(ConfigError):
            cfg("jtt", id_epochs=1, upweight_factor=2, refresh_every=0)
        with pytest.raises(ConfigError, match="seed"):
            cfg(seed=-1)
        for key in ("learning_rate", "momentum", "l2", "group_step_size"):
            with pytest.raises(ConfigError, match=key):
                cfg(**{key: math.nan})

    @pytest.mark.parametrize("key", ["epochs", "batch_size", "seed", "id_epochs",
                                     "upweight_factor", "refresh_every"])
    def test_integer_fields_take_integers_only(self, key):
        with pytest.raises(ConfigError, match=f"^{key}: must be an integer$"):
            cfg("jtt", **{"id_epochs": 1, "upweight_factor": 2, key: 1.5})
        assert getattr(cfg("jtt", **{"id_epochs": 1, "upweight_factor": 2, key: np.int64(2)}),
                       key) == 2

    @pytest.mark.parametrize("key, kind", [
        *((key, "an integer") for key in ("epochs", "batch_size", "seed", "id_epochs",
                                          "upweight_factor", "refresh_every")),
        *((key, "a number") for key in ("learning_rate", "momentum", "l2", "group_step_size",
                                        "alpha", "gce_q"))])
    @pytest.mark.parametrize("flag", [True, False])
    def test_booleans_are_neither_integers_nor_numbers(self, key, kind, flag):
        # bool is an int, so epochs = true in a report used to train one epoch.
        with pytest.raises(ConfigError, match=f"^{key}: must be {kind}$"):
            cfg("jtt", **{"id_epochs": 1, "upweight_factor": 2, key: flag})

    @pytest.mark.parametrize("changes, message", [
        ({"epochs": "3"}, "epochs: must be an integer"),
        ({"seed": None}, "seed: must be an integer"),
        ({"learning_rate": "0.1"}, "learning_rate: must be a number"),
        ({"momentum": None}, "momentum: must be a number"),
        ({"algorithm": "cvar", "alpha": "x"}, "alpha: must be a number"),
        ({"hidden": (4, 0)}, "hidden: widths must be positive"),
    ], ids=["string-epochs", "no-seed", "string-learning-rate", "no-momentum",
            "string-alpha", "zero-width"])
    def test_bad_fields_are_named(self, changes, message):
        # Types are checked before ranges: a string used to reach a `<`
        # and raise a bare TypeError.
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            cfg(**changes)


def test_error_set_on_reference_benchmark_is_minority_enriched(reference_bench):
    # after one identification epoch, both attribute-minority groups show up
    # in the error set at well over twice their empirical rate
    train, val, _ = reference_bench
    from grouptrain.benchmark import reference_config
    result = gt.train(train, val, reference_config("jtt", seed=0))
    table = gt.enrichment_table(result.aux["error_set"], train)
    enrichment = {row.group: row.enrichment for row in table}
    for g in ((0, 1), (1, 0)):
        assert enrichment[g] > 2.0


@pytest.mark.parametrize("algorithm, extra", [("erm", {}), ("cvar", {"alpha": 0.2}),
                                              ("lff", {"gce_q": 0.7})])
def test_one_forward_pass_per_model_per_step(small_bench, monkeypatch, algorithm, extra):
    import grouptrain.models as models_mod
    import grouptrain.trainers as trainers_mod
    train, val, _ = small_bench
    c = cfg(algorithm, epochs=2, **extra)
    batch_rows, steps = [], []
    forward_cached, sgd_step = models_mod._forward_cached, trainers_mod.sgd_step

    def counting_forward(model, x):
        rows = x.shape[-2]  # the batch axis, behind any lane axis
        if rows <= c.batch_size:  # evaluation passes cover whole datasets
            batch_rows.append(rows)
        return forward_cached(model, x)

    def counting_step(model, gradient, opt):
        steps.append(len(model.params))
        return sgd_step(model, gradient, opt)

    monkeypatch.setattr(models_mod, "_forward_cached", counting_forward)
    monkeypatch.setattr(trainers_mod, "sgd_step", counting_step)
    gt.train(train, val, c)
    n_models = 2 if algorithm == "lff" else 1
    assert steps == [n_models] * c.epochs * math.ceil(len(train) / c.batch_size)
    assert len(batch_rows) == len(steps)


@pytest.mark.parametrize("algorithm, extra", [("erm", {}), ("cvar", {"alpha": 0.2}),
                                              ("lff", {"gce_q": 0.7})])
def test_one_forward_pass_per_model_per_stacked_step(small_bench, monkeypatch, algorithm, extra):
    import grouptrain.models as models_mod
    import grouptrain.trainers as trainers_mod
    train, val, _ = small_bench
    cfgs = [cfg(algorithm, epochs=2, learning_rate=rate, **extra) for rate in (0.01, 0.05, 0.1)]
    batch_lanes, backprop_lanes, step_lanes = [], [], []
    forward_cached, backprop = models_mod._forward_cached, models_mod._backprop
    sgd_step = trainers_mod.sgd_step

    def counting_forward(model, x):
        if x.shape[-2] <= cfgs[0].batch_size:  # evaluation passes cover whole datasets
            batch_lanes.append(x.shape[0])
        return forward_cached(model, x)

    def counting_backprop(model, forward, index, scale):
        backprop_lanes.append(len(model.params))
        return backprop(model, forward, index, scale)

    def counting_step(model, gradient, opt):
        step_lanes.append(len(model.params))
        return sgd_step(model, gradient, opt)

    monkeypatch.setattr(models_mod, "_forward_cached", counting_forward)
    monkeypatch.setattr(models_mod, "_backprop", counting_backprop)
    monkeypatch.setattr(trainers_mod, "sgd_step", counting_step)
    trainers_mod.train_population(train, val, cfgs)
    n_models = 2 if algorithm == "lff" else 1
    stacked_steps = cfgs[0].epochs * math.ceil(len(train) / cfgs[0].batch_size)
    assert step_lanes == [n_models * len(cfgs)] * stacked_steps
    # The lanes share seed and rows, so they read one order: a step gathers
    # one batch, which broadcasts over every lane's model rows.
    assert batch_lanes == [1] * stacked_steps
    assert backprop_lanes == step_lanes


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("algorithm, extra", [("erm", {}), ("group-dro", {}),
                                              ("jtt", {"id_epochs": 1, "upweight_factor": 4}),
                                              ("lff", {"gce_q": 0.5})])
def test_lanes_fail_alone(small_bench, algorithm, extra):
    import grouptrain.trainers as trainers_mod
    train, val, _ = small_bench
    # Failing lanes come first and in between the healthy ones.
    cfgs = [cfg(algorithm, learning_rate=rate, **extra) for rate in (1e300, 0.05, 1e50, 0.01)]
    lanes = trainers_mod._TRAINERS[algorithm](train, cfgs)
    assert [lane.error is None for lane in lanes] == [False, True, False, True]
    for c, lane in zip(cfgs, lanes):
        assert_same_run(lane, lone_run(train, val, c))


def lone_run(train, val, c):
    """Training `c` alone: its result, or the error it raises."""
    try:
        return gt.train(train, val, c)
    except Exception as e:  # compared with the lane's error
        return e


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_lane_failing_in_a_later_segment_names_its_lone_epoch_and_batch(small_bench):
    import grouptrain.trainers as trainers_mod
    train, val, _ = small_bench
    # No identification epochs, so every lane upweights the initial model's
    # error set and the lanes' epochs have different lengths. The 200-row
    # lane cuts the first segments to 4 steps, then 1, then 4, while the
    # diverging lane shares its 32-row steps with the first.
    runs = [(32, 1, 0.05), (32, 5, 1e50), (50, 3, 0.05), (200, 2, 0.01)]
    cfgs = [cfg("jtt", epochs=3, batch_size=b, upweight_factor=factor, learning_rate=rate,
                id_epochs=0) for b, factor, rate in runs]
    lanes = trainers_mod._TRAINERS["jtt"](train, cfgs)
    assert [lane.error is None for lane in lanes] == [True, False, True, True]
    error_rows = len(lanes[0].aux["error_set"])
    first_segment = min((len(train) + (c.upweight_factor - 1) * error_rows) // c.batch_size
                        for c in cfgs)
    epoch, batch = map(int, re.search(r"epoch (\d+), batch (\d+)$", str(lanes[1].error)).groups())
    assert (epoch, batch) > (0, first_segment)
    assert reference_train(train, cfgs[1])[3] == (epoch, batch)
    for c, lane in zip(cfgs, lanes):
        assert_same_run(lane, lone_run(train, val, c))
        assert_same_run(lane, reference_train(train, c))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_first_failure_in_order_across_populations(small_bench):
    import grouptrain.trainers as trainers_mod
    train, val, _ = small_bench
    # The ERM population trains first and fails first, at its 1e300 config;
    # the CVaR config comes before that in order.
    cfgs = [cfg(), cfg("cvar", alpha=0.3, learning_rate=1e50), cfg(learning_rate=1e300)]
    with pytest.raises(FloatingPointError) as lone:
        gt.train(train, val, cfgs[1])
    with pytest.raises(FloatingPointError, match=f"^{re.escape(str(lone.value))}$"):
        trainers_mod.train_population(train, val, cfgs)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_rejected_population_fails_after_the_earlier_configs(small_bench):
    import grouptrain.trainers as trainers_mod
    train, val, _ = small_bench
    # Group DRO rejects the unannotated data before it trains.
    train = strip_group_annotations(train)
    with pytest.raises(FloatingPointError):
        trainers_mod.train_population(train, val, [cfg(learning_rate=1e300), cfg("group-dro")])
    with pytest.raises(InputError, match="group-dro needs training group annotations"):
        trainers_mod.train_population(train, val, [cfg(), cfg("group-dro"),
                                                   cfg(learning_rate=1e300)])


def chunk_lengths(monkeypatch) -> list[int]:
    """Records how many steps each chunk of the lockstep loop takes: a
    step's features are a slice of its chunk's (steps, lanes, rows,
    features) gather."""
    import grouptrain.models as models_mod
    lengths, last = [], [None]
    forward_cached = models_mod._forward_cached

    def recording(model, x):
        chunk = x.base
        if chunk is not None and chunk.ndim == 4 and chunk is not last[0]:
            last[0] = chunk
            lengths.append(len(chunk))
        return forward_cached(model, x)

    monkeypatch.setattr(models_mod, "_forward_cached", recording)
    return lengths


class TestChunks:
    """Segments that span several chunks, the cell cap cut down, give every
    lane the bits of a plain loop over the public calls. This guard does not
    rest on the lockstep loop, which `gt.train` also runs."""

    def test_ragged_upsampled_population_equals_the_reference_loop(self, small_bench,
                                                                  monkeypatch):
        import grouptrain.trainers as trainers_mod
        train, _, _ = small_bench
        # 3 steps of one 32-row lane per chunk; the 50- and 200-row lanes'
        # chunks take one step each.
        monkeypatch.setattr(trainers_mod, "_CHUNK_CELLS", 3 * 32 * train.n_features)
        lengths = chunk_lengths(monkeypatch)
        cfgs = [cfg("upsample-minority", epochs=3, batch_size=b, upweight_factor=factor)
                for b, factor in ((32, 4), (50, 2), (200, 8))]
        lanes = trainers_mod._TRAINERS["upsample-minority"](train, cfgs)
        assert {1, 3} <= set(lengths)
        for c, lane in zip(cfgs, lanes):
            assert lane.error is None
            assert_same_run(lane, reference_train(train, c))

    def test_lff_population_equals_the_reference_loop(self, small_bench, monkeypatch):
        import grouptrain.trainers as trainers_mod
        train, val, _ = small_bench
        # The 50-row lane's chunks take 3 steps of one batch for its main
        # and bias rows. Two 32-row lanes with different exponents read one
        # order and step together: a step gathers one batch of its 4 features
        # for their 2 * 2 model rows, 4 steps per chunk. Short last batches
        # take one step.
        monkeypatch.setattr(trainers_mod, "_CHUNK_CELLS", 3 * 50 * train.n_features)
        lengths = chunk_lengths(monkeypatch)
        cfgs = [cfg("lff", batch_size=b, gce_q=q) for b, q in ((32, 0.5), (32, 0.7), (50, 0.7))]
        results = trainers_mod.train_population(train, val, cfgs)
        assert {1, 3, 4} <= set(lengths)
        for c, result in zip(cfgs, results):
            assert_same_run(result, reference_train(train, c))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_lane_diverging_after_a_chunk_boundary_names_its_lone_epoch_and_batch(
            self, small_bench, monkeypatch):
        import grouptrain.trainers as trainers_mod
        train, val, _ = small_bench
        # The two lanes read one order: a step gathers one batch for both.
        monkeypatch.setattr(trainers_mod, "_CHUNK_CELLS", 3 * 32 * train.n_features)
        lengths = chunk_lengths(monkeypatch)
        cfgs = [cfg(learning_rate=0.05), cfg(learning_rate=1e10)]
        with pytest.raises(FloatingPointError) as lone:
            gt.train(train, val, cfgs[1])
        lanes = trainers_mod._TRAINERS["erm"](train, cfgs)
        assert str(lanes[1].error) == str(lone.value)
        epoch, batch = map(int, re.search(r"epoch (\d+), batch (\d+)$",
                                          str(lanes[1].error)).groups())
        # An epoch's 18 full batches are one segment, cut into chunks of 3
        # steps; the failing step starts a chunk, past the first.
        assert batch > 0 and batch % 3 == 0 and batch < len(train) // 32
        assert set(lengths) == {1, 3}
        assert reference_train(train, cfgs[1])[3] == (epoch, batch)
        assert lanes[0].error is None
        for c, lane in zip(cfgs, lanes):
            assert_same_run(lane, reference_train(train, c))


# The fields each algorithm adds to the reference gate's grid.
GATE_AXES = {
    "jtt": {"id_epochs": (1,), "upweight_factor": (4,)},
    "jtt-dynamic": {"id_epochs": (1,), "upweight_factor": (4,), "refresh_every": (1,)},
    "cvar": {"alpha": (0.1, 0.25, 0.5)},
    "lff": {"gce_q": (0.5, 0.7)},
    "upsample-minority": {"upweight_factor": (4,)},
}


@pytest.mark.parametrize("algorithm", gt.ALGORITHMS)
def test_every_trainer_equals_the_reference_loop(small_bench, algorithm):
    """Every algorithm's rule, checked from outside the step kernel:
    `gt.train`, and every lane of one population per hidden width, equal
    `reference_train` bit for bit: per-epoch train losses, every trajectory
    model and every extra. 600 rows leave short last batches at both batch
    sizes."""
    train, val, _ = small_bench
    axes = {"hidden": ((), (4, 3)), "batch_size": (64, 96), "seed": (0, 1),
            "learning_rate": (0.01, 0.05), **GATE_AXES.get(algorithm, {})}
    cfgs = [cfg(algorithm, epochs=3, **dict(zip(axes, values)))
            for values in itertools.product(*axes.values())]
    population = train_population(train, val, cfgs)
    for c, lane in zip(cfgs, population, strict=True):
        reference = reference_train(train, c)
        assert reference[3] is None, c
        assert_same_run(lane, reference)
        assert_same_run(gt.train(train, val, c), reference)


def stepping_lanes(monkeypatch) -> list[tuple[tuple[float, ...], int]]:
    """Records each step of the lockstep loop: the learning rates of the
    lanes it steps (each lane's rate is its own in these tests) and its
    batch length."""
    import grouptrain.trainers as trainers_mod
    log, step = [], trainers_mod._step

    def recording(model, opt, state, rule, xb, *rest):
        log.append((tuple(opt.learning_rate.ravel().tolist()), xb.shape[-2]))
        return step(model, opt, state, rule, xb, *rest)

    monkeypatch.setattr(trainers_mod, "_step", recording)
    return log


def assert_full_steps_carry_every_training_lane(log, cfgs):
    """Every step carries lanes of one batch size, and every step of a full
    batch carries every lane of that size that has a step still to come:
    one lane's short batch or epoch end splits no other lane's steps."""
    batch = {c.learning_rate: c.batch_size for c in cfgs}
    last = {rate: p for p, (rates, _) in enumerate(log) for rate in rates}
    for p, (rates, length) in enumerate(log):
        (size,) = {batch[rate] for rate in rates}
        if length == size:
            assert set(rates) == {rate for rate, b in batch.items()
                                  if b == size and last.get(rate, -1) >= p}


class TestCohorts:
    """Lanes of one batch size step as one stack; each lane's short batch
    and epoch end touch only its own rows."""

    def test_ragged_lanes_share_every_full_batch(self, small_bench, monkeypatch):
        import grouptrain.trainers as trainers_mod
        train, val, _ = small_bench
        # Upsampled lengths 600, 624, 648 and 672: three short-batch
        # lengths, and a lane without one.
        cfgs = [cfg("upsample-minority", upweight_factor=factor, learning_rate=rate)
                for factor, rate in ((1, 0.01), (2, 0.02), (3, 0.03), (4, 0.04))]
        log = stepping_lanes(monkeypatch)
        lanes = trainers_mod._TRAINERS["upsample-minority"](train, cfgs)
        monkeypatch.undo()
        assert_full_steps_carry_every_training_lane(log, cfgs)
        short = [rates for rates, length in log if length < 32]
        assert len(short) == 3 * cfgs[0].epochs and {len(rates) for rates in short} == {1}
        for c, lane in zip(cfgs, lanes):
            assert_same_run(lane, lone_run(train, val, c))

    def test_mixed_batch_sizes_equal_lone_runs(self, small_bench, monkeypatch):
        import grouptrain.trainers as trainers_mod
        train, val, _ = small_bench
        # Two ragged 32-row lanes, a 50-row lane, and a lane whose 600-row
        # view is shorter than its batch, so that every batch it takes is
        # short.
        runs = [(32, 2, 0.01), (32, 4, 0.02), (50, 2, 0.03), (1000, 1, 0.04)]
        cfgs = [cfg("upsample-minority", epochs=3, batch_size=b, upweight_factor=factor,
                    learning_rate=rate) for b, factor, rate in runs]
        log = stepping_lanes(monkeypatch)
        lanes = trainers_mod._TRAINERS["upsample-minority"](train, cfgs)
        monkeypatch.undo()
        assert_full_steps_carry_every_training_lane(log, cfgs)
        assert [length for rates, length in log if rates == (0.04,)] == [len(train)] * 3
        for c, lane in zip(cfgs, lanes):
            assert_same_run(lane, lone_run(train, val, c))


    def test_two_model_lanes_of_ragged_views_step_their_own_rows(self, small_bench,
                                                                monkeypatch):
        import grouptrain.trainers as trainers_mod
        base = strip_group_annotations(small_bench[0])
        # LfF lanes over views of 600, 608 and 620 rows: short batches of
        # 24 rows, none, and 12 rows, so each steps its main and bias rows
        # alone.
        runs = [(0, 0.5, 0.01), (8, 0.7, 0.02), (20, 0.0, 0.03)]
        cfgs = [cfg("lff", epochs=3, gce_q=q, learning_rate=rate) for _, q, rate in runs]

        def lane(extra, c):
            rows = np.concatenate([np.arange(len(base)), np.arange(extra)]).astype(np.int32)
            return trainers_mod._Lane(base, c, rows, n_models=2,
                                      state={"gce_q": np.full((2, 1), c.gce_q)})

        log = stepping_lanes(monkeypatch)
        lanes = [lane(extra, c) for (extra, _, _), c in zip(runs, cfgs)]
        trainers_mod._weighted_sgd(base, lanes, trainers_mod._lff_rule)
        monkeypatch.undo()
        assert_full_steps_carry_every_training_lane(log, cfgs)
        for (extra, _, _), c, stacked in zip(runs, cfgs, lanes):
            alone = lane(extra, c)
            trainers_mod._weighted_sgd(base, [alone], trainers_mod._lff_rule)
            assert stacked.error is None and stacked.losses == alone.losses
            assert all(np.array_equal(a.params, b.params)
                       for a, b in zip(stacked.trajectory, alone.trajectory, strict=True))
            assert stacked.state.keys() == alone.state.keys()
            for name, value in alone.state.items():
                assert np.array_equal(stacked.state[name], value)


def counting_orders(monkeypatch) -> list[int]:
    """Records the rows of each epoch order drawn by a generator that
    `trainers._rng` makes."""
    import grouptrain.trainers as trainers_mod
    drawn, rng = [], trainers_mod._rng

    class Counting:
        def __init__(self, generator):
            self.generator = generator

        def shuffle(self, order):
            drawn.append(len(order))
            self.generator.shuffle(order)

    monkeypatch.setattr(trainers_mod, "_rng", lambda *args: Counting(rng(*args)))
    return drawn


class TestOrderFamilies:
    """Lanes with one seed, shuffle stream, batch size and rows, and no
    refresh rule, draw each epoch's order once, from one generator, and
    every lane still computes what it computes alone."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_every_lane_equals_its_lone_run(self, small_bench, monkeypatch):
        import grouptrain.trainers as trainers_mod
        base = strip_group_annotations(small_bench[0])
        n = len(base)

        def lanes():
            """CVaR lanes over the 600 rows: a one-epoch lane first, so
            that the lane that draws the first order leaves first, a lane
            diverging in its last epoch, lanes of 0, 2 and 3 epochs and
            other alphas, one on the identification streams, a jtt-dynamic
            lane that refreshes its (at first equal) rows after every
            epoch, one of another seed and one of the rows in reverse."""
            made = []
            for c, kind in [(cfg("cvar", epochs=1, alpha=0.3), None),
                            (cfg("cvar", epochs=3, alpha=0.3, learning_rate=1e10), None),
                            *((cfg("cvar", epochs=e, alpha=0.3), None) for e in (0, 2, 3)),
                            (cfg("cvar", epochs=3, alpha=1.0, l2=0.0), None),
                            (cfg("cvar", epochs=3, alpha=0.1, id_epochs=3), "identification"),
                            (cfg("jtt-dynamic", epochs=3, id_epochs=0, upweight_factor=3,
                                 refresh_every=1, alpha=0.5), "refresh"),
                            (cfg("cvar", epochs=3, alpha=0.3, seed=1), None),
                            (cfg("cvar", epochs=3, alpha=0.3), "reversed")]:
                aux = dict(refresh_epochs=[], refresh_sizes=[])
                refresh = trainers_mod._refresher(base, c, aux) if kind == "refresh" else None
                rows = np.arange(n, dtype=np.int32)
                made.append(trainers_mod._Lane(
                    base, c, rows[::-1].copy() if kind == "reversed" else rows,
                    identification=kind == "identification", refresh=refresh, aux=aux,
                    state={"alpha": np.full((1, 1), c.alpha)}))
            return made

        drawn = counting_orders(monkeypatch)
        population = lanes()
        trainers_mod._weighted_sgd(base, population, trainers_mod._cvar_rule)
        # The seed-0 main-stream lanes of equal rows draw 3 orders in all;
        # the others 3 each.
        assert len(drawn) == 3 + 4 * 3
        assert [lane.error is None for lane in population] == [True, False] + [True] * 8
        assert str(population[1].error) == ("training diverged: non-finite objective "
                                            "at epoch 2, batch 6")
        assert population[7].aux["refresh_epochs"] == [1, 2]
        assert len(set(population[7].aux["refresh_sizes"])) > 1
        for stacked, alone in zip(population, lanes(), strict=True):
            trainers_mod._weighted_sgd(base, [alone], trainers_mod._cvar_rule)
            assert str(stacked.error) == str(alone.error)
            assert stacked.losses == alone.losses and stacked.aux == alone.aux
            assert all(np.array_equal(a.params, b.params)
                       for a, b in zip(stacked.trajectory, alone.trajectory, strict=True))
            if stacked.error is None:
                assert np.array_equal(stacked.state["params"], alone.state["params"])

    def test_an_erm_grid_draws_one_order_per_epoch(self, small_bench, monkeypatch):
        import grouptrain.trainers as trainers_mod
        train, val, _ = small_bench
        cfgs = [cfg(epochs=10, learning_rate=rate, l2=l2)
                for rate in (0.01, 0.05, 0.1) for l2 in (0.0, 1e-3)]
        drawn = counting_orders(monkeypatch)
        trainers_mod.train_population(train, val, cfgs)
        assert drawn == [len(train)] * 10


def tied_probabilities(rng, shape):
    """Clamped label probabilities, half of them from four values, so that
    many tie, one below the clamp floor."""
    ties = rng.choice([1e-13, 0.2, 0.5, 0.9], size=shape)
    return np.where(rng.random(shape) < 0.5, ties, rng.random(shape)).clip(PROB_EPS, 1.0)


def ranked_cvar_weights(losses, alpha):
    """CVaR batch weights from Python's sort: by descending loss, ties by
    lower index, the cap 1/(alpha*b) above rank floor(alpha*b), the
    remainder at it, 0 after."""
    cap, k = 1.0 / (alpha * len(losses)), math.floor(alpha * len(losses))
    weights = [0.0] * len(losses)
    for rank, i in enumerate(sorted(range(len(losses)), key=lambda i: (-losses[i], i))):
        weights[i] = cap if rank < k else max(1.0 - k * cap, 0.0) if rank == k else 0.0
    return weights


class TestBuiltRules:
    """Each weight rule, built once for a stack and a batch length, gives
    every step the per-lane public functions' weights bit for bit, on
    stacks whose lanes take different parameters."""

    @pytest.mark.parametrize("b", [64, 24])
    def test_uniform(self, small_bench, b):
        import grouptrain.trainers as trainers_mod
        train, _, _ = small_bench
        seen = []

        def rule(state, shape):
            weigh = trainers_mod._uniform(state, shape)

            def recorded(state, ridx, p, out):
                before = out.copy()
                weigh(state, ridx, p, out)
                seen.append((shape, before, out.copy()))
            return recorded

        lanes = [trainers_mod._Lane(train, cfg(batch_size=b, learning_rate=rate))
                 for rate in (0.01, 0.02, 0.05)]
        trainers_mod._weighted_sgd(train, lanes, rule)
        # 600 rows: batches of 64 leave a short one of 24, batches of 24 none.
        assert {shape for shape, _, _ in seen} == {(3, b), (3, 24)}
        for shape, before, after in seen:
            assert np.array_equal(before, np.full(shape, 1.0 / shape[-1]))
            assert np.array_equal(after, before)

    @pytest.mark.parametrize("b", [64, 24])
    def test_cvar(self, b):
        import grouptrain.trainers as trainers_mod
        rng = np.random.default_rng(b)
        alphas = (0.1, 0.25, 1.0)
        state = {"alpha": np.array(alphas)[:, None]}
        weigh = trainers_mod._cvar_rule(state, (3, b))
        assert not hasattr(weigh, "fixed")
        for _ in range(5):
            p = tied_probabilities(rng, (3, b))
            out = np.empty((3, b))
            weigh(state, None, p, out)
            for row, alpha, lane_p in zip(out, alphas, p):
                losses = -np.log(lane_p)
                assert np.array_equal(row, cvar_batch_weights(losses, alpha))
                assert np.array_equal(row, ranked_cvar_weights(losses.tolist(), alpha))

    @pytest.mark.parametrize("b", [64, 24])
    @pytest.mark.parametrize("qs", [(0.5, 0.5, 0.5), (0.0, 0.3, 0.7), (0.0, 0.5, 0.7)])
    def test_lff(self, b, qs):
        import grouptrain.models as models_mod
        import grouptrain.trainers as trainers_mod
        rng = np.random.default_rng(b)
        state = {"gce_q": np.repeat(qs, 2)[:, None]}
        weigh = trainers_mod._lff_rule(state, (6, b))
        assert not hasattr(weigh, "fixed")
        for _ in range(5):
            p = tied_probabilities(rng, (6, b))
            out = np.empty((6, b))
            weigh(state, None, p, out)
            for lane, q in enumerate(qs):
                main, bias = p[2 * lane], p[2 * lane + 1]
                raw = lff_weight(bias, main)
                assert np.array_equal(out[2 * lane], raw / raw.sum())
                assert np.array_equal(out[2 * lane + 1],
                                      models_mod._gce_weights(bias, 1.0 / b, q))

    @pytest.mark.parametrize("b", [64, 24])
    def test_group_dro(self, b):
        import grouptrain.trainers as trainers_mod
        rng = np.random.default_rng(b)
        n_groups = 4
        codes = rng.integers(0, n_groups, 500)
        # The first lane's batches miss group 3.
        pools = (np.flatnonzero(codes != 3), np.arange(len(codes)))
        steps = np.array([0.01, 0.5])
        state = {"group_weights": np.array([[0.1, 0.2, 0.3, 0.4], [0.25] * 4]),
                 "group_step_size": steps[:, None]}
        weigh = trainers_mod._group_dro_rule(codes, n_groups, state, (2, b))
        assert not hasattr(weigh, "fixed")
        for _ in range(5):
            ridx = np.stack([rng.choice(pool, b) for pool in pools])
            p = tied_probabilities(rng, (2, b))
            before = state["group_weights"]
            out = np.empty((2, b))
            weigh(state, ridx, p, out)
            for lane in range(2):
                batch_codes, losses = codes[ridx[lane]], -np.log(p[lane])
                counts = np.bincount(batch_codes, minlength=n_groups)
                means = [sum(losses[batch_codes == g].tolist()) / counts[g] if counts[g]
                         else 0.0 for g in range(n_groups)]
                w = group_dro_update(np.array(means), before[lane], steps[lane])
                assert counts[3] == 0 or lane == 1
                assert np.array_equal(state["group_weights"][lane], w)
                assert np.array_equal(out[lane], w[batch_codes] / counts[batch_codes])


def test_a_rule_is_built_once_per_steps_call(small_bench, monkeypatch):
    """Over a 3-lane CVaR population of ragged views, every `_steps` call,
    full batches and short ones, builds its rule once, and every step of
    it weighs with that build."""
    import grouptrain.trainers as trainers_mod
    base = strip_group_annotations(small_bench[0])
    builds, weighs, steps_calls = [], [], []
    steps, rule = trainers_mod._steps, trainers_mod._cvar_rule

    def counting_rule(state, shape):
        weigh = rule(state, shape)
        builds.append(shape)

        def counting_weigh(*args):
            weighs.append(len(builds))
            return weigh(*args)

        return counting_weigh

    def counting_steps(base, rule, state, lanes, b, n_steps):
        steps_calls.append(n_steps)
        before = len(builds)
        steps(base, rule, state, lanes, b, n_steps)
        assert len(builds) == before + 1
        assert weighs[-n_steps:] == [len(builds)] * n_steps

    monkeypatch.setattr(trainers_mod, "_steps", counting_steps)
    # Views of 600, 608 and 620 rows: short batches of 24 rows, none, and
    # 12 rows, each stepped by its own lane.
    lanes = [trainers_mod._Lane(base, c, np.concatenate([np.arange(len(base)),
                                                         np.arange(extra)]).astype(np.int32),
                                state={"alpha": np.full((1, 1), c.alpha)})
             for extra, c in ((0, cfg("cvar", alpha=0.1)), (8, cfg("cvar", alpha=0.25)),
                              (20, cfg("cvar", alpha=1.0)))]
    trainers_mod._weighted_sgd(base, lanes, counting_rule)
    assert all(lane.error is None for lane in lanes)
    assert len(builds) == len(steps_calls) and len(weighs) == sum(steps_calls)
    assert {shape[-1] for shape in builds} == {32, 24, 12}
    assert len(weighs) > len(builds)


def test_jtt_reference_grid_heap_peak(reference_bench):
    """The cell cap keeps training's heap peak near that of one-step
    chunks: this grid peaks at about 2.2 MiB with one-step chunks, 2.5 MiB
    with the cap and 9 MiB with one chunk per segment."""
    import grouptrain.trainers as trainers_mod
    train, val, _ = reference_bench
    base = dataclasses.replace(reference_config("jtt", seed=0), epochs=2)
    configs = Grid(base, reference_grid_axes("jtt")).configs()
    trainers_mod.train_population(train, val, configs)  # warm-up: caches, lazy imports
    tracemalloc.start()
    try:
        trainers_mod.train_population(train, val, configs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * 2**20
