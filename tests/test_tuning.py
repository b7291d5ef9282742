import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grouptrain as gt
import grouptrain.trainers as trainers
import grouptrain.tuning as tuning
from grouptrain.data import subsample_validation
from grouptrain.errors import DataWarning, InputError, TrainingWarning
from grouptrain.trainers import ALGORITHMS, AVERAGE, WORST_GROUP, TrainConfig
from grouptrain.tuning import Grid, grid_sweep, validation_size_study
from oracles import assert_same_run, reference_train, reference_validation_size_study


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
        assert sweep.best(WORST_GROUP) == 0
        assert sweep.best(AVERAGE) == 0
        assert len(sweep.rows) == 1

    def test_argmax_invariant(self, small_bench):
        train, val, test = small_bench
        grid = Grid(base_cfg(), {"learning_rate": (0.01, 0.05), "seed": (0, 1)})
        sweep = grid_sweep(grid, train, val, test)
        best = sweep.rows[sweep.best(WORST_GROUP)].by_criterion[WORST_GROUP]
        for row in sweep.rows:
            assert best.val_worst_group >= row.by_criterion[WORST_GROUP].val_worst_group
        best_avg = sweep.rows[sweep.best(AVERAGE)].by_criterion[AVERAGE]
        for row in sweep.rows:
            assert best_avg.val_average >= row.by_criterion[AVERAGE].val_average
        assert best.val_worst_group >= best_avg.val_worst_group

    def test_best_breaks_ties_to_the_earliest_row(self):
        def row(val_worst_group, val_average):
            metrics = tuning.SelectionMetrics(0, val_worst_group, val_average, 0.0, 0.0)
            return tuning.SweepRow(base_cfg(), {WORST_GROUP: metrics, AVERAGE: metrics})

        sweep = tuning.SweepResult([row(0.5, 0.9), row(0.7, 0.8), row(0.7, 0.9)])
        assert sweep.best(WORST_GROUP) == 1
        assert sweep.best(AVERAGE) == 0

    def test_best_rejects_an_unknown_criterion_and_no_rows(self):
        with pytest.raises(InputError, match="^unknown criterion 'median'$"):
            tuning.SweepResult([]).best("median")
        with pytest.raises(InputError, match="^a sweep without rows has no best row$"):
            tuning.SweepResult([]).best(WORST_GROUP)

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
        assert a.best(WORST_GROUP) == b.best(WORST_GROUP)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.by_criterion == rb.by_criterion

    def test_validation(self, small_bench):
        train, val, test = small_bench
        with pytest.raises(InputError):
            grid_sweep(Grid(base_cfg(epochs=0), {}), train, val, test)
        sweep = grid_sweep(Grid(base_cfg(), {}), train, val, test)
        with pytest.raises(InputError, match="unknown criterion 'loss'"):
            sweep.best("loss")


class TestValidationSizeStudy:
    def test_fraction_one_matches_plain_sweep(self, small_bench):
        train, val, test = small_bench
        grid = Grid(base_cfg(), {"learning_rate": (0.01, 0.05)})
        plain = grid_sweep(grid, train, val, test)
        study = validation_size_study([1.0], grid, train, val, test, seeds=(0, 1, 2))
        expected = plain.rows[plain.best(WORST_GROUP)].by_criterion[WORST_GROUP].test_worst_group
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

        def counting_population(train_data, val_data, configs):
            trained.extend(configs)
            return real_population(train_data, val_data, configs)

        real_population = tuning.train_population
        monkeypatch.setattr(tuning, "train_population", counting_population)
        grid = Grid(base_cfg(epochs=2), {"learning_rate": (0.01, 0.05), "seed": (0, 1)})
        validation_size_study([1.0, 0.2, 0.1], grid, train, val, test, seeds=(0, 1))
        assert trained == grid.configs()

    def test_full_split_scored_only_by_training(self, small_bench, monkeypatch):
        train, val, test = small_bench
        full = []
        for module in (trainers, tuning):
            def counting(trajectory, data, epoch_scores=module.epoch_scores):
                if data is val:
                    full.append(trajectory)
                return epoch_scores(trajectory, data)

            monkeypatch.setattr(module, "epoch_scores", counting)
        grid = Grid(base_cfg(epochs=3), {"learning_rate": (0.01, 0.05)})
        validation_size_study([1.0], grid, train, val, test, seeds=(0, 1))
        assert len(full) == len(grid)
        assert [len(trajectory) for trajectory in full] == [3 + 1] * len(grid)

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


def swept_and_lone(grid, train, val, test, monkeypatch):
    """The runs a grid_sweep trains and the warnings it raises, beside
    those of training each grid point alone."""
    runs = []

    def capturing(*args):
        results = real_population(*args)
        runs.extend(results)
        return results

    real_population = tuning.train_population
    monkeypatch.setattr(tuning, "train_population", capturing)
    with warnings.catch_warnings(record=True) as swept:
        warnings.simplefilter("always")
        grid_sweep(grid, train, val, test)
    with warnings.catch_warnings(record=True) as alone:
        warnings.simplefilter("always")
        expected = [gt.train(train, val, cfg) for cfg in grid.configs()]
    assert [(w.category, str(w.message)) for w in swept] == \
        [(w.category, str(w.message)) for w in alone]
    assert len(runs) == len(expected)
    for run, lone in zip(runs, expected):
        assert_same_run(run, lone)
    return runs, swept


EVERY_FIELD = dict(id_epochs=1, upweight_factor=4, refresh_every=2, alpha=0.3, gce_q=0.5)

LOCKSTEP_GRIDS = {
    "erm": (base_cfg(), {"learning_rate": (0.01, 0.05), "seed": (0, 1)}),
    "cvar": (base_cfg("cvar", alpha=0.2), {"alpha": (0.1, 0.2, 1.0),
                                           "learning_rate": (0.01, 0.05)}),
    "lff": (base_cfg("lff", gce_q=0.5), {"gce_q": (0.5, 0.7), "learning_rate": (0.01, 0.05)}),
    "lff-hidden": (base_cfg("lff", gce_q=0.5, hidden=(4, 3)),
                   {"gce_q": (0.5, 0.7), "seed": (0, 1)}),
    "group-dro": (base_cfg("group-dro"), {"group_step_size": (0.01, 0.5),
                                          "learning_rate": (0.01, 0.05)}),
    "upsample-minority": (base_cfg("upsample-minority", upweight_factor=4),
                          {"upweight_factor": (1, 4, 8), "batch_size": (32, 50)}),
    "jtt": (base_cfg("jtt", id_epochs=1, upweight_factor=4),
            {"upweight_factor": (1, 4, 8), "id_epochs": (0, 1, 2)}),
    "jtt-dynamic": (base_cfg("jtt-dynamic", epochs=5, id_epochs=1, upweight_factor=4),
                    {"upweight_factor": (1, 4, 8), "refresh_every": (1, 2)}),
    "hidden": (base_cfg("jtt", id_epochs=1, upweight_factor=4),
               {"hidden": ((), (4, 3)), "upweight_factor": (1, 8)}),
    "mixed": (base_cfg(**EVERY_FIELD), {"algorithm": ALGORITHMS, "batch_size": (32, 50),
                                        "seed": (0, 1)}),
}


class TestLockstep:
    """A sweep trains its grid points as lanes of shared minibatch loops;
    every lane computes exactly what training it alone does."""

    @pytest.mark.parametrize("name", list(LOCKSTEP_GRIDS))
    def test_every_lane_equals_its_lone_training(self, small_bench, monkeypatch, name):
        train, val, test = small_bench
        grid = Grid(*LOCKSTEP_GRIDS[name])
        runs, _ = swept_and_lone(grid, train, val, test, monkeypatch)
        if name in ("jtt", "jtt-dynamic", "upsample-minority"):
            # The lanes are ragged: their upsampled lengths differ.
            sets = (run.aux.get("error_set", run.aux.get("minority_set")) for run in runs)
            lengths = {len(train) + (cfg.upweight_factor - 1) * len(s)
                       for cfg, s in zip(grid.configs(), sets)}
            assert len(lengths) > 2
        if name == "jtt-dynamic":
            assert all(run.aux["refresh_epochs"] for run in runs)

    def test_warnings_come_per_lane_in_grid_order(self, toy_separable, monkeypatch):
        train, val = toy_separable
        # 200 identification epochs fit the toy set, so their error sets are
        # empty and warn; 0 epochs leave the initial model's errors.
        grid = Grid(TrainConfig("jtt", epochs=3, batch_size=4, learning_rate=0.5, seed=7,
                                id_epochs=200, upweight_factor=5),
                    {"id_epochs": (200, 0), "seed": (7, 8)})
        _, caught = swept_and_lone(grid, train, val, val, monkeypatch)
        assert [w.category for w in caught] == [TrainingWarning] * 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_first_diverging_grid_point_raises_its_error(self, small_bench, algorithm):
        train, val, test = small_bench
        # 1e50 diverges at a later batch than 1e300, after it in grid order.
        for rates in ((0.05, 1e200, 1e300), (0.05, 1e50, 1e300)):
            grid = Grid(base_cfg(**{**EVERY_FIELD, "algorithm": algorithm}),
                        {"learning_rate": rates})
            with pytest.raises(Exception) as lone:
                gt.train(train, val, grid.configs()[1])
            with pytest.raises(type(lone.value), match=f"^{re.escape(str(lone.value))}$"):
                grid_sweep(grid, train, val, test)


@st.composite
def populations(draw):
    """Two to five configs over one or two algorithms, every field drawn,
    learning rates from healthy to diverging."""
    algorithms = draw(st.lists(st.sampled_from(ALGORITHMS), min_size=1, max_size=2))
    cfgs = []
    for _ in range(draw(st.integers(2, 5))):
        algorithm = draw(st.sampled_from(algorithms))
        fields = dict(epochs=draw(st.integers(0, 3)),
                      batch_size=draw(st.sampled_from((50, 64, 100, 256, 600))),
                      learning_rate=draw(st.sampled_from((0.01, 0.05, 0.5, 1e50, 1e300))),
                      seed=draw(st.integers(0, 3)), l2=1e-3,
                      hidden=draw(st.sampled_from(((), (3,)))))
        if algorithm in ("jtt", "jtt-dynamic"):
            fields.update(id_epochs=draw(st.integers(0, 2)),
                          refresh_every=draw(st.sampled_from((None, 1, 2))))
        if algorithm in ("jtt", "jtt-dynamic", "upsample-minority"):
            fields["upweight_factor"] = draw(st.integers(1, 5))
        if algorithm == "cvar":
            fields["alpha"] = draw(st.sampled_from((0.1, 0.3, 1.0)))
        if algorithm == "lff":
            fields["gce_q"] = draw(st.sampled_from((0.0, 0.5, 0.7)))
        if algorithm == "group-dro":
            fields["group_step_size"] = draw(st.sampled_from((0.0, 0.01, 0.5)))
        cfgs.append(TrainConfig(algorithm, **fields))
    return cfgs


def _outcome(call):
    """call()'s result or error, and the warnings it raised other than
    numpy's RuntimeWarnings, whose count depends on how lanes stack."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = call()
        except Exception as e:  # compared with the other side's error
            outcome = e
    return outcome, [(w.category, str(w.message)) for w in caught
                     if w.category is not RuntimeWarning]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(cfgs=populations())
@settings(max_examples=60, deadline=None)
def test_fuzzed_populations_equal_lone_trainings(small_bench, cfgs):
    train, val, _ = small_bench
    lone = [_outcome(lambda c=c: gt.train(train, val, c)) for c in cfgs]
    lanes, scored = [], trainers._scored

    def capturing(population, v):
        lanes.extend(population)
        return scored(population, v)

    trainers._scored = capturing
    try:
        runs, caught = _outcome(lambda: trainers.train_population(train, val, cfgs))
    finally:
        trainers._scored = scored
    # Populations train in order of first appearance, so only the multiset
    # of warnings matches the lone runs'.
    assert sorted(caught, key=str) == sorted((w for _, ws in lone for w in ws), key=str)
    failures = [outcome for outcome, _ in lone if isinstance(outcome, Exception)]
    if failures:
        assert_same_run(runs, failures[0])
        runs = [lane if lane.error is not None else trainers._scored([lane], val)[0]
                for lane in lanes]
    # Every run, or every lane, scored if healthy, equals its lone training
    # and the reference loop: a failed one names the reference's (epoch,
    # batch) or epoch.
    for c, run, (expected, _) in zip(cfgs, runs, lone, strict=True):
        assert_same_run(run, expected)
        assert_same_run(run, reference_train(train, c))
