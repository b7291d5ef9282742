import warnings

import pytest

import grouptrain.trainers as trainers
import grouptrain.tuning as tuning
from grouptrain.data import subsample_validation
from grouptrain.errors import DataWarning, InputError, TrainingWarning
from grouptrain.trainers import AVERAGE, WORST_GROUP, TrainConfig
from grouptrain.tuning import Grid, grid_sweep, validation_size_study
from oracles import reference_validation_size_study


def base_cfg(algorithm="erm", **overrides):
    kw = dict(epochs=4, batch_size=32, learning_rate=0.05, l2=1e-3, seed=0)
    kw.update(overrides)
    return TrainConfig(algorithm, **kw)


class TestGrid:
    def test_enumeration_order_sorted_axes_last_fastest(self):
        grid = Grid(base_cfg(), {"seed": (1, 2), "epochs": (3, 4)})
        combos = [(c.epochs, c.seed) for c in grid.configs()]
        assert combos == [(3, 1), (3, 2), (4, 1), (4, 2)]
        assert len(grid) == 4

    def test_empty_axes_is_single_config(self):
        grid = Grid(base_cfg(), {})
        assert grid.configs() == [base_cfg()]

    def test_unknown_axis_rejected(self):
        with pytest.raises(InputError):
            Grid(base_cfg(), {"width": (1, 2)})
        with pytest.raises(InputError):
            Grid(base_cfg(), {"epochs": ()})


class TestGridSweep:
    def test_single_config_best_under_both_criteria(self, small_bench):
        train, val, test = small_bench
        sweep = grid_sweep(Grid(base_cfg(), {}), train, val, test)
        assert sweep.best_by_worst_group == 0
        assert sweep.best_by_average == 0
        assert len(sweep.rows) == 1

    def test_argmax_invariant(self, small_bench):
        train, val, test = small_bench
        grid = Grid(base_cfg(), {"learning_rate": (0.01, 0.05), "seed": (0, 1)})
        sweep = grid_sweep(grid, train, val, test)
        best = sweep.rows[sweep.best_by_worst_group].by_criterion[WORST_GROUP]
        for row in sweep.rows:
            assert best.val_worst_group >= row.by_criterion[WORST_GROUP].val_worst_group
        best_avg = sweep.rows[sweep.best_by_average].by_criterion[AVERAGE]
        assert best.val_worst_group >= best_avg.val_worst_group

    def test_selected_epoch_matches_early_stop(self, small_bench):
        train, val, test = small_bench
        sweep = grid_sweep(Grid(base_cfg(epochs=6), {}), train, val, test)
        row = sweep.rows[0]
        from grouptrain.trainers import train as train_fn
        result = train_fn(train, val, base_cfg(epochs=6))
        for criterion, field in ((WORST_GROUP, "val_worst_group"), (AVERAGE, "val_average")):
            values = [getattr(h, field) for h in result.history]
            assert row.by_criterion[criterion].selected_epoch == values.index(max(values))

    def test_deterministic(self, small_bench):
        train, val, test = small_bench
        grid = Grid(base_cfg(), {"learning_rate": (0.01, 0.05)})
        a = grid_sweep(grid, train, val, test)
        b = grid_sweep(grid, train, val, test)
        assert a.best_by_worst_group == b.best_by_worst_group
        for ra, rb in zip(a.rows, b.rows):
            assert ra.by_criterion == rb.by_criterion

    def test_validation(self, small_bench):
        train, val, test = small_bench
        with pytest.raises(InputError):
            grid_sweep(Grid(base_cfg(epochs=0), {}), train, val, test)
        with pytest.raises(InputError):
            grid_sweep(Grid(base_cfg(), {}), train, val, test, criterion="loss")


class TestValidationSizeStudy:
    def test_fraction_one_matches_plain_sweep(self, small_bench):
        train, val, test = small_bench
        grid = Grid(base_cfg(), {"learning_rate": (0.01, 0.05)})
        plain = grid_sweep(grid, train, val, test, criterion=WORST_GROUP)
        study = validation_size_study([1.0], grid, train, val, test, seeds=(0, 1, 2))
        expected = plain.selected().test_worst_group
        assert study[0].per_seed_test_worst_group == (expected,) * 3
        assert study[0].median_test_worst_group == expected

    def test_row_per_fraction(self, small_bench):
        train, val, test = small_bench
        grid = Grid(base_cfg(epochs=2), {})
        rows = validation_size_study([1.0, 0.2, 0.1, 0.05], grid, train, val, test,
                                     seeds=(0, 1))
        assert [r.fraction for r in rows] == [1.0, 0.2, 0.1, 0.05]
        for row in rows:
            assert len(row.per_seed_test_worst_group) == 2

    def test_equals_retraining_on_each_reduced_split(self, small_bench):
        train, val, test = small_bench
        grid = Grid(base_cfg("jtt", id_epochs=1, upweight_factor=1),
                    {"upweight_factor": (1, 5), "learning_rate": (0.01, 0.05)})
        fractions, seeds = (1.0, 0.2, 0.1, 0.05), (0, 3, 6)
        with pytest.warns(DataWarning, match="lost group"):
            study = validation_size_study(fractions, grid, train, val, test, seeds)
        with pytest.warns(DataWarning, match="lost group"):
            expected = reference_validation_size_study(fractions, grid, train, val, test, seeds)
        assert study == expected
        # The grid is not degenerate: shrinking the split changes the picks.
        assert len({r.per_seed_test_worst_group for r in study}) > 2

    def test_one_training_per_grid_point(self, small_bench, monkeypatch):
        train, val, test = small_bench
        trained = []

        def counting_train(train_data, val_data, cfg):
            trained.append(cfg)
            return real_train(train_data, val_data, cfg)

        real_train = tuning.train
        monkeypatch.setattr(tuning, "train", counting_train)
        grid = Grid(base_cfg(epochs=2), {"learning_rate": (0.01, 0.05), "seed": (0, 1)})
        validation_size_study([1.0, 0.2, 0.1], grid, train, val, test, seeds=(0, 1))
        assert trained == grid.configs()

    def test_full_split_scored_only_by_training(self, small_bench, monkeypatch):
        train, val, test = small_bench
        full = []
        for module in (trainers, tuning):
            def counting(model, data, evaluate_groups=module.evaluate_groups):
                if data is val:
                    full.append(model)
                return evaluate_groups(model, data)

            monkeypatch.setattr(module, "evaluate_groups", counting)
        grid = Grid(base_cfg(epochs=3), {"learning_rate": (0.01, 0.05)})
        validation_size_study([1.0], grid, train, val, test, seeds=(0, 1))
        assert len(full) == len(grid) * 3

    def test_warnings_once_per_subsample_and_per_training(self, toy_separable):
        train, val = toy_separable
        # 200 identification epochs fit the toy set, so every error set is empty.
        grid = Grid(TrainConfig("jtt", epochs=3, batch_size=4, learning_rate=0.5, seed=7,
                                id_epochs=200, upweight_factor=5),
                    {"learning_rate": (0.5, 0.6)})
        fractions, seeds = (1.0, 0.5, 0.25), (0, 1)
        with warnings.catch_warnings(record=True) as expected:
            warnings.simplefilter("always")
            for fraction in fractions:
                for seed in seeds:
                    subsample_validation(val, fraction, seed)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            validation_size_study(fractions, grid, train, val, val, seeds)
        data = [str(w.message) for w in caught if w.category is DataWarning]
        training = [w for w in caught if w.category is TrainingWarning]
        assert len(expected) >= 2
        assert data == [str(w.message) for w in expected]
        assert len(training) == len(grid)

    def test_validation(self, small_bench):
        train, val, test = small_bench
        grid = Grid(base_cfg(), {})
        with pytest.raises(InputError):
            validation_size_study([0.0], grid, train, val, test, seeds=(0,))
        with pytest.raises(InputError):
            validation_size_study([0.5], grid, train, val, test, seeds=())
