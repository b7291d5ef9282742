import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grouptrain.models as models_mod
import grouptrain.trainers as trainers_mod
from grouptrain.errors import InputError
from grouptrain.models import (
    PROB_EPS,
    Architecture,
    Model,
    OptimizerState,
    forward_batch,
    grad,
    init_model,
    loss_values,
    predict,
    sgd_step,
)
from grouptrain.trainers import cvar_batch_weights
from oracles import (
    finite_difference_grad,
    reference_backprop,
    reference_label_probs,
    reference_row_fold,
    reference_softmax,
    relative_grad_error,
)

LOGISTIC = Architecture(3, (), 2)


def zero_model(arch=LOGISTIC):
    return Model(arch, np.zeros(arch.n_params))


class TestForward:
    def test_zero_parameters_give_uniform_probabilities(self):
        probs = forward_batch(zero_model(), np.array([[0.3, -1.0, 2.0]]))
        assert np.array_equal(probs, [[0.5, 0.5]])

    def test_hand_evaluated_softmax(self):
        # logits (0, ln 3) -> probabilities (1/4, 3/4)
        arch = Architecture(1, (), 2)
        model = Model(arch, np.array([0.0, math.log(3.0), 0.0, 0.0]))
        probs = forward_batch(model, np.array([[1.0]]))[0]
        assert probs == pytest.approx([0.25, 0.75], abs=1e-12)

    def test_shift_invariance(self):
        arch = Architecture(1, (), 3)
        rng = np.random.default_rng(0)
        weights = rng.normal(size=3)
        for shift in (-50.0, 3.7, 200.0):
            m1 = Model(arch, np.concatenate([weights, np.zeros(3)]))
            m2 = Model(arch, np.concatenate([weights, np.full(3, shift)]))
            x = np.array([[1.0]])
            assert forward_batch(m1, x)[0] == pytest.approx(forward_batch(m2, x)[0], abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_probabilities_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        arch = Architecture(4, (5,), 3)
        model = init_model(arch, seed)
        probs = forward_batch(model, rng.normal(size=(8, 4), scale=3.0))
        assert np.all(probs >= 0)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            forward_batch(zero_model(), np.array([[1.0, 2.0]]))

    def test_deterministic(self):
        model = init_model(Architecture(4, (6,), 3), 11)
        x = np.linspace(-1, 1, 8).reshape(2, 4)
        assert np.array_equal(forward_batch(model, x), forward_batch(model, x))


class TestLoss:
    def test_gce_zero_when_confident(self):
        assert loss_values(np.array([[0.0, 1.0]]), np.array([1]), 0.7)[0] == 0.0

    def test_gce_approaches_cross_entropy(self):
        val = loss_values(np.array([[0.5, 0.5]]), np.array([0]), 1e-6)[0]
        assert abs(val - 0.6931471805599453) < 1e-6

    def test_gce_hand_value(self):
        val = loss_values(np.array([[0.5, 0.5]]), np.array([0]), 0.7)[0]
        expected = (1.0 - 0.5 ** 0.7) / 0.7
        assert val == pytest.approx(expected, abs=1e-12)
        assert val == pytest.approx(0.54918, abs=1e-5)

    def test_gce_limit_property(self):
        ps = np.linspace(0.01, 1.0, 25)
        gce = loss_values(np.column_stack([ps, 1.0 - ps]), np.zeros(25, dtype=int), 1e-8)
        assert np.abs(gce + np.log(ps)).max() < 1e-6

    def test_gce_q_zero_is_cross_entropy(self):
        probs, labels = np.array([[0.3, 0.7], [0.9, 0.1]]), np.array([0, 0])
        assert np.array_equal(loss_values(probs, labels, 0.0), -np.log([0.3, 0.9]))
        assert np.array_equal(loss_values(probs, labels), loss_values(probs, labels, 0.0))

    def test_cross_entropy_clamped_never_infinite(self):
        val = loss_values(np.array([[1.0, 0.0]]), np.array([1]))[0]
        assert val == pytest.approx(-math.log(1e-12))

    def test_label_out_of_range(self):
        with pytest.raises(InputError):
            loss_values(np.array([[0.5, 0.5]]), np.array([2]))

    @pytest.mark.parametrize("gce_q", [1.0, -0.1, float("nan")])
    def test_gce_q_outside_its_range_rejected(self, gce_q):
        with pytest.raises(InputError, match=r"gce_q must lie in \[0, 1\)"):
            loss_values(np.array([[0.5, 0.5]]), np.array([0]), gce_q)
        with pytest.raises(InputError, match=r"gce_q must lie in \[0, 1\)"):
            grad(init_model(LOGISTIC, 0), np.ones((1, 3)), np.array([0]), np.ones(1), gce_q)

    def test_probabilities_that_are_not_a_matrix_rejected(self):
        with pytest.raises(InputError, match=r"probs shape \(2,\)"):
            loss_values(np.array([0.5, 0.5]), np.array([0]))


class TestGrad:
    def test_zero_weights_give_zero_gradient(self):
        model = init_model(LOGISTIC, 0)
        x = np.random.default_rng(1).normal(size=(4, 3))
        y = np.array([0, 1, 0, 1])
        g = grad(model, x, y, np.zeros(4))
        assert np.array_equal(g, np.zeros(model.params.size))

    def test_linearity_in_weights(self):
        model = init_model(LOGISTIC, 2)
        x = np.random.default_rng(3).normal(size=(2, 3))
        y = np.array([1, 0])
        g_pair = grad(model, x, y, np.array([2.0, 0.0]))
        g_single = grad(model, x[:1], y[:1], np.array([1.0]))
        assert g_pair == pytest.approx(2.0 * g_single, abs=1e-14)

    @pytest.mark.parametrize("weights", [[float("nan"), 1.0], [-1.0, 1.0]])
    def test_negative_or_nan_weights_rejected(self, weights):
        # Unchecked, a NaN weight made the whole gradient NaN.
        model = init_model(LOGISTIC, 0)
        with pytest.raises(InputError, match="weights must be non-negative"):
            grad(model, np.ones((2, 3)), np.array([0, 1]), np.array(weights))

    @pytest.mark.parametrize("labels", [[0, -1], [0, 2]])
    def test_label_outside_the_classes_rejected(self, labels):
        # Unchecked, -1 would read class 1 and 2 the next row's first class.
        model = init_model(LOGISTIC, 0)
        with pytest.raises(InputError, match="label index out of range"):
            grad(model, np.ones((2, 3)), np.array(labels), np.ones(2))

    def test_non_integer_labels_rejected(self):
        model = init_model(LOGISTIC, 0)
        with pytest.raises(InputError, match="integers"):
            grad(model, np.ones((2, 3)), np.array([0.0, 1.0]), np.ones(2))

    def test_no_rows_give_a_zero_gradient(self):
        model = init_model(Architecture(3, (4,), 2), 0)
        g = grad(model, np.zeros((0, 3)), np.zeros(0, dtype=int), np.zeros(0))
        assert same_bits(g, np.zeros(model.params.size))

    @pytest.mark.parametrize("features", [np.zeros(3), np.float64(1.0)], ids=["1-d", "0-d"])
    def test_features_that_are_not_a_matrix_rejected(self, features):
        # A 0-d array raised a bare IndexError when the row count was read
        # before the shape check.
        model = init_model(LOGISTIC, 0)
        with pytest.raises(InputError, match=r"features shape \(3?,?\) does not match"):
            grad(model, features, [0], [1.0])

    @pytest.mark.parametrize("arch", [Architecture(5, (), 3), Architecture(5, (7,), 3)])
    @pytest.mark.parametrize("gce_q", [0.0, 0.7])
    def test_matches_finite_differences(self, arch, gce_q):
        rng = np.random.default_rng(17)
        for _ in range(10):
            model = init_model(arch, int(rng.integers(2**32)))
            x = rng.normal(size=(4, 5))
            y = rng.integers(0, 3, size=4)
            w = rng.uniform(0.1, 2.0, size=4)
            analytic = grad(model, x, y, w, gce_q)
            numeric = finite_difference_grad(model, x, y, w, gce_q)
            assert relative_grad_error(analytic, numeric) < 1e-5

    @pytest.mark.parametrize("hidden", [(), (5,), (4, 3)])
    @pytest.mark.parametrize("gce_q", [0.0, 0.5, 0.7])
    @pytest.mark.parametrize("skewed", [False, True])
    def test_cached_forward_pass_gives_the_same_gradient(self, hidden, gce_q, skewed):
        # The training loop backpropagates through its one cached forward
        # pass with the private kernel instead of calling `grad`.
        rng = np.random.default_rng(23)
        model = init_model(Architecture(6, hidden, 3), 4)
        x = rng.normal(size=(16, 6), scale=2.0)
        y = rng.integers(0, 3, size=16)
        w = rng.exponential(size=16) ** 3 if skewed else np.full(16, 1.0 / 16)
        cached = models_mod._forward_cached(model, x)
        assert np.array_equal(cached[0].swapaxes(-1, -2), forward_batch(model, x))
        index = models_mod._label_index(y, 3)
        p = models_mod._clamp(cached[0].take(index))
        gce = models_mod._gce_weights(p, w, gce_q)
        scale = models_mod._grad_scale(p, gce)
        assert np.array_equal(models_mod._backprop(model, cached, index, scale),
                              grad(model, x, y, w, gce_q))


class TestSgdStep:
    def test_zero_gradient_leaves_params(self):
        model = init_model(LOGISTIC, 5)
        opt = OptimizerState(0.1, 0.9, 0.0, np.zeros(model.params.size))
        new_model, _ = sgd_step(model, np.zeros(model.params.size), opt)
        assert np.array_equal(new_model.params, model.params)

    def test_no_momentum_is_plain_descent(self):
        model = Model(Architecture(1, (), 2), np.array([1.0, 2.0, 3.0, 4.0]))
        g = np.array([1.0, 1.0, 1.0, 1.0])
        opt = OptimizerState(0.5, 0.0, 0.0, np.zeros(4))
        new_model, _ = sgd_step(model, g, opt)
        assert np.array_equal(new_model.params, [0.5, 1.5, 2.5, 3.5])

    def test_hand_iterated_momentum(self):
        # one parameter, constant gradient 1: velocities 1, 1.9; params 0.9, 0.71
        arch = Architecture(1, (), 2)
        model = Model(arch, np.array([1.0, 0.0, 0.0, 0.0]))
        opt = OptimizerState(0.1, 0.9, 0.0, np.zeros(4))
        g = np.array([1.0, 0.0, 0.0, 0.0])
        model, opt = sgd_step(model, g, opt)
        assert opt.velocity[0] == pytest.approx(1.0)
        assert model.params[0] == pytest.approx(0.9)
        model, opt = sgd_step(model, g, opt)
        assert opt.velocity[0] == pytest.approx(1.9)
        assert model.params[0] == pytest.approx(0.71)

    def test_l2_enters_through_velocity(self):
        arch = Architecture(1, (), 2)
        model = Model(arch, np.array([2.0, 0.0, 0.0, 0.0]))
        opt = OptimizerState(0.1, 0.0, 0.5, np.zeros(4))
        new_model, new_opt = sgd_step(model, np.zeros(4), opt)
        assert new_opt.velocity[0] == pytest.approx(1.0)
        assert new_model.params[0] == pytest.approx(1.9)

    def test_dimension_mismatch(self):
        model = init_model(LOGISTIC, 0)
        opt = OptimizerState(0.1, 0.9, 0.0, np.zeros(model.params.size))
        with pytest.raises(InputError):
            sgd_step(model, np.zeros(2), opt)

    @pytest.mark.parametrize("field, hyper", [
        ("learning_rate", (float("nan"), 0.9, 0.0)),
        ("learning_rate", (0.0, 0.9, 0.0)),
        ("momentum", (0.1, float("nan"), 0.0)),
        ("l2", (0.1, 0.9, float("nan"))),
        ("l2", (0.1, 0.9, -1.0)),
    ])
    def test_hyperparameters_outside_their_ranges_rejected(self, field, hyper):
        # Unchecked, a NaN learning rate or l2 made every parameter NaN.
        with pytest.raises(InputError, match=field):
            OptimizerState(*hyper, np.zeros(LOGISTIC.n_params))


class TestInit:
    def test_param_count_matches_architecture(self):
        arch = Architecture(10, (16, 8), 3)
        assert arch.n_params == 10 * 16 + 16 + 16 * 8 + 8 + 8 * 3 + 3
        assert init_model(arch, 0).params.size == arch.n_params

    def test_bounds_follow_fan_in(self):
        arch = Architecture(100, (), 2)
        model = init_model(arch, 0)
        assert np.abs(model.params).max() <= 1.0 / math.sqrt(100)

    def test_seeded_and_deterministic(self):
        arch = Architecture(4, (5,), 2)
        assert np.array_equal(init_model(arch, 9).params, init_model(arch, 9).params)
        assert not np.array_equal(init_model(arch, 9).params, init_model(arch, 10).params)

    def test_wrong_param_length_rejected(self):
        with pytest.raises(InputError):
            Model(LOGISTIC, np.zeros(5))

    def test_params_read_only(self):
        model = init_model(LOGISTIC, 0)
        with pytest.raises(ValueError):
            model.params[0] = 1.0


def test_predict_ties_break_low():
    preds = predict(zero_model(), np.zeros((3, 3)))
    assert np.array_equal(preds, [0, 0, 0])



class TestLaneAxis:
    """The private kernel with a leading lane axis, as a population trains,
    equals the public 2-D calls slice by slice, bit for bit."""

    EXPONENTS = (0.0, 0.5, 0.7)

    @staticmethod
    def population(hidden, k, b, seed):
        rng = np.random.default_rng(seed)
        arch = Architecture(10, hidden, 2)
        params = rng.normal(size=(k, arch.n_params))
        x = rng.normal(size=(k, b, 10)) * 3.0
        y = rng.integers(0, 2, size=(k, b))
        w = rng.random((k, b))
        return arch, params, x, y, w / w.sum(axis=1, keepdims=True)

    @pytest.mark.parametrize("hidden", [(), (5,), (4, 3)])
    @pytest.mark.parametrize("k", [1, 2, 6, 24])
    @pytest.mark.parametrize("b", [64, 56, 1])
    def test_forward_backprop_and_update_equal_the_2d_calls(self, hidden, k, b):
        arch, params, x, y, w = self.population(hidden, k, b, seed=k * 100 + b)
        lanes = models_mod._adopt(Model, arch=arch, params=params)
        forward = models_mod._forward_cached(lanes, x)
        index = models_mod._label_index(y, arch.n_classes)
        p_label = models_mod._clamp(forward[0].take(index))
        rng = np.random.default_rng(b)
        velocity = rng.normal(size=params.shape)
        lr, momentum, l2 = (rng.random((k, 1)) for _ in range(3))
        opt = models_mod._adopt(OptimizerState, learning_rate=lr, momentum=momentum, l2=l2,
                                velocity=velocity)
        # Per-lane exponents alternate 0.5 and 0.7, as an LfF population's may.
        mixed = np.where(np.arange(k) % 2, 0.7, 0.5)[:, None]
        for gce_q in self.EXPONENTS + (None,):
            q = mixed if gce_q is None else gce_q
            losses = models_mod._losses(p_label, 0.0 if gce_q is None else q)
            scale = models_mod._grad_scale(p_label, models_mod._gce_weights(p_label, w, q))
            gradient = models_mod._backprop(lanes, forward, index, scale)
            stepped, stepped_opt = sgd_step(lanes, gradient, opt)
            for i in range(k):
                lane_q = mixed[i, 0] if gce_q is None else gce_q
                model = Model(arch, params[i])
                lane_forward = models_mod._forward_cached(model, x[i])
                assert np.array_equal(forward_batch(model, x[i]), forward[0][i].swapaxes(-1, -2))
                for a, a_lanes in zip(lane_forward[1], forward[1]):
                    assert np.array_equal(a, a_lanes[i])
                if gce_q is not None:
                    assert np.array_equal(
                        loss_values(lane_forward[0].swapaxes(-1, -2), y[i], gce_q), losses[i])
                lane_gradient = grad(model, x[i], y[i], w[i], lane_q)
                assert np.array_equal(lane_gradient, gradient[i])
                lane_opt = OptimizerState(float(lr[i, 0]), float(momentum[i, 0]),
                                          float(l2[i, 0]), velocity[i])
                new_model, new_opt = sgd_step(model, lane_gradient, lane_opt)
                assert np.array_equal(new_model.params, stepped.params[i])
                assert np.array_equal(new_opt.velocity, stepped_opt.velocity[i])

    @pytest.mark.parametrize("k", [1, 2, 6, 24])
    @pytest.mark.parametrize("b", [64, 56, 1])
    def test_stacked_objective_equals_the_dot_product(self, k, b):
        rng = np.random.default_rng(k * 100 + b)
        for _ in range(20):
            w, losses = rng.random((k, b)), rng.exponential(size=(k, b))
            stacked = (w[:, None, :] @ losses[:, :, None])[:, 0, 0]
            assert [float(w[i] @ losses[i]) for i in range(k)] == stacked.tolist()

    @pytest.mark.parametrize("k", [1, 2, 6, 24])
    @pytest.mark.parametrize("b", [64, 56, 1])
    def test_stacked_cvar_weights_equal_the_per_lane_ones_with_ties(self, k, b):
        rng = np.random.default_rng(k * 100 + b)
        for _ in range(20):
            losses = rng.integers(0, 4, size=(k, b)) / 2.0  # many ties
            alpha = rng.choice([0.05, 0.1, 0.25, 0.5, 1.0], size=(k, 1))
            stacked = trainers_mod._cvar_weigher(alpha, losses.shape)(-losses, np.empty((k, b)))
            for i in range(k):
                assert np.array_equal(cvar_batch_weights(losses[i], float(alpha[i, 0])),
                                      stacked[i])


def row_major(a):
    """A class-major (..., C, rows) array as a contiguous (..., rows, C) one."""
    return np.ascontiguousarray(a.swapaxes(-1, -2))


class TestClassAxisKernel:
    """The softmax's class-row folds and the flat label index, on class-major
    arrays, equal NumPy's last-axis reductions and 2-D fancy indexing on the
    row-major ones bit for bit, on both sides of the class count where the
    sum fold stops. A NumPy release that changes the order in which it sums
    a short axis fails here."""

    SHAPES = [(b,) for b in (1, 56, 64)] + [(k, b) for k in (1, 6, 24) for b in (1, 56, 64)]

    @staticmethod
    def logits(rng, shape):
        """Rows at scales from 1 to 1e300, with scattered +-inf and NaN."""
        scale = rng.choice([1.0, 3.0, 30.0, 1e300], size=shape[:-1] + (1,))
        z = rng.normal(size=shape) * scale
        odd = rng.random(shape)
        z[odd < 0.03] = np.inf
        z[(odd >= 0.03) & (odd < 0.06)] = -np.inf
        z[(odd >= 0.06) & (odd < 0.08)] = np.nan
        return z

    @pytest.mark.parametrize("n_classes", range(2, 11))
    @np.errstate(invalid="ignore")  # inf - inf in both forms
    def test_softmax_label_gather_and_backprop_equal_the_reductions(self, n_classes):
        rng = np.random.default_rng(n_classes)
        for lead in self.SHAPES:
            for hidden in [(), (4,)]:
                arch = Architecture(5, hidden, n_classes)
                params = rng.normal(size=lead[:-1] + (arch.n_params,))
                x = rng.normal(size=lead + (5,))
                z = self.logits(rng, lead + (n_classes,))
                probs = models_mod._softmax(row_major(z))
                assert np.array_equal(row_major(probs), reference_softmax(z), equal_nan=True)
                finite = rng.normal(size=z.shape) * 30.0
                assert np.array_equal(row_major(models_mod._softmax(row_major(finite))),
                                      reference_softmax(finite))
                y = rng.integers(0, n_classes, size=lead)
                index = models_mod._label_index(y, n_classes)
                assert np.array_equal(probs.take(index),
                                      reference_label_probs(row_major(probs), y), equal_nan=True)
                model = models_mod._adopt(Model, arch=arch, params=params)
                acts = models_mod._forward_cached(model, x)[1]
                scale = rng.random(lead) * (rng.random(lead) < 0.9)
                assert np.array_equal(models_mod._backprop(model, (probs, acts), index, scale),
                                      reference_backprop(model, (row_major(probs), acts),
                                                         y, scale),
                                      equal_nan=True)


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestStepKernel:
    """The step's one clamp of the label probabilities equals np.clip, and
    the bias gradients' row folds (the class-major output layer's
    accumulate, the hidden layers' row-major sum) equal NumPy's reduction
    over a row-major batch axis and a left fold over the rows, bit for bit.
    A NumPy release that changes the order in which it sums an outer axis
    fails here."""

    SPECIAL = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308,
                        np.nextafter(PROB_EPS, 0.0), PROB_EPS, np.nextafter(PROB_EPS, 1.0),
                        0.5, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)])
    SHAPES = [(b,) for b in (1, 56, 64)] + [(k, b) for k in (1, 6, 24) for b in (1, 56, 64)]

    @np.errstate(invalid="ignore", divide="ignore")
    def test_one_clamp_equals_np_clip_in_losses_and_gradient_scale(self):
        rng = np.random.default_rng(0)
        for shape in self.SHAPES:
            p = np.where(rng.random(shape) < 0.5, rng.choice(self.SPECIAL, size=shape),
                         rng.random(shape))
            clipped = np.clip(p, PROB_EPS, 1.0)
            clamped = models_mod._clamp(p)
            assert same_bits(clamped, clipped)
            w = rng.random(shape)
            live = (p > PROB_EPS).astype(np.float64)
            assert same_bits(models_mod._grad_scale(clamped, w), w * live)
            for q in (0.0, 0.5, 0.7):
                assert same_bits(models_mod._losses(clamped, q),
                                 -np.expm1(q * np.log(clipped)) / q if q else -np.log(clipped))
                power = np.power(clipped, q) if q else 1.0
                gce = models_mod._gce_weights(clamped, w, q)
                assert same_bits(models_mod._grad_scale(clamped, gce), w * live * power)

    @pytest.mark.parametrize("hidden", [(), (4, 3)])
    @pytest.mark.parametrize("k", [1, 6, 24])
    @pytest.mark.parametrize("b", [1, 56, 64])
    def test_row_major_bias_sum_equals_the_batch_axis_reduction(self, hidden, k, b):
        rng = np.random.default_rng(k * 100 + b)
        for n_classes in (2, 3, 10):
            arch = Architecture(5, hidden, n_classes)
            for width in (n_classes,) + hidden:
                # Rows at scales from 1e-3 to 1e3, so that the order of the
                # additions shows in the last bits.
                delta = rng.normal(size=(k, b, width)) * rng.choice([1e-3, 1.0, 1e3],
                                                                    size=(k, b, 1))
                if width == n_classes:
                    summed = np.add.accumulate(row_major(delta), axis=-1)[..., -1]
                    assert same_bits(summed, delta.sum(axis=-2))
                else:
                    summed = delta.sum(axis=-2)
                assert same_bits(summed, reference_row_fold(delta))
            model = models_mod._adopt(Model, arch=arch,
                                      params=rng.normal(size=(k, arch.n_params)))
            x = rng.normal(size=(k, b, 5))
            probs, acts = models_mod._forward_cached(model, x)
            y = rng.integers(0, n_classes, size=(k, b))
            scale = rng.random((k, b))
            index = models_mod._label_index(y, n_classes)
            assert same_bits(models_mod._backprop(model, (probs, acts), index, scale),
                             reference_backprop(model, (row_major(probs), acts), y, scale))


class TestKernelLayout:
    """The layout identities the class-major kernel rests on, bit for bit,
    and the kernel built on them against the row-major oracles:
    - the forward role swap: w @ x^T equals (x @ w^T)^T;
    - the output weight gradient (x^T @ delta^T)^T equals the row-major
      delta^T @ x (the plainer delta @ x does not);
    - np.add.accumulate along a class-major delta's rows equals a left fold
      over the rows and a row-major delta's sum(axis=-2);
    - over more than _SUM_FOLD_MAX classes, the softmax's sum of a row-major
      copy equals NumPy's pairwise last-axis sum;
    - K models scoring the same 2-D features in one broadcast pass equal K
      lone calls;
    - a training step (forward pass, clamped label probabilities, backprop)
      of K lanes, or of K two-row LfF lanes, on one batch without a lane
      axis equals the step on a copy of the batch per model row;
    - `_gce_weights` with a column of exponents equals, row by row, the
      weights times NumPy's power of the row at its scalar exponent (whose
      0.5 takes a sqrt path that an array of exponents does not).
    A NumPy or BLAS release that changes any of them fails here."""

    @staticmethod
    def scaled(rng, shape):
        """Rows at scales from 1e-3 to 1e3, so that the rounding order shows."""
        return rng.normal(size=shape) * rng.choice([1e-3, 1.0, 1e3], size=shape[:-1] + (1,))

    @pytest.mark.parametrize("k", [1, 6, 24])
    @pytest.mark.parametrize("b", [1, 56, 64])
    @pytest.mark.parametrize("n_classes", [2, 3, 10])
    def test_output_layer_forms(self, k, b, n_classes):
        rng = np.random.default_rng(k * 1000 + b * 10 + n_classes)
        for lead in ((), (k,)):
            for fan_in in (3, 5, 10):
                x = self.scaled(rng, lead + (b, fan_in))
                w = rng.normal(size=lead + (n_classes, fan_in))
                assert same_bits(w @ x.swapaxes(-1, -2), (x @ w.swapaxes(-1, -2)).swapaxes(-1, -2))
                delta = self.scaled(rng, lead + (b, n_classes))
                delta_cm = row_major(delta)  # the contiguous class-major copy
                g_w = (x.swapaxes(-1, -2) @ delta_cm.swapaxes(-1, -2)).swapaxes(-1, -2)
                assert same_bits(g_w, delta.swapaxes(-1, -2) @ x)
                g_b = np.add.accumulate(delta_cm, axis=-1)[..., -1]
                assert same_bits(g_b, delta.sum(axis=-2))
                assert same_bits(g_b, reference_row_fold(delta))

                # The kernel, built on these forms, against the row-major oracles.
                arch = Architecture(fan_in, (), n_classes)
                model = models_mod._adopt(Model, arch=arch,
                                          params=rng.normal(size=lead + (arch.n_params,)))
                probs, acts = models_mod._forward_cached(model, x)
                (w, bias), = models_mod.unpack_params(arch, model.params)
                assert same_bits(row_major(probs),
                                 reference_softmax(x @ w.swapaxes(-1, -2) + bias[..., None, :]))
                y = rng.integers(0, n_classes, size=lead + (b,))
                scale = rng.random(lead + (b,))
                index = models_mod._label_index(y, n_classes)
                assert same_bits(models_mod._backprop(model, (probs, acts), index, scale),
                                 reference_backprop(model, (row_major(probs), acts), y, scale))
            z = self.scaled(rng, lead + (b, n_classes))
            assert same_bits(row_major(models_mod._softmax(row_major(z))), reference_softmax(z))

    @pytest.mark.parametrize("k", [1, 6, 24])
    @pytest.mark.parametrize("b", [1, 56, 64])
    def test_gce_exponent_column_equals_scalar_powers(self, k, b):
        rng = np.random.default_rng(k * 100 + b)
        for p in (rng.choice(TestStepKernel.SPECIAL, size=(k, b)), rng.random((k, b))):
            p = models_mod._clamp(p)
            w = rng.random((k, b))
            q = rng.choice([0.0, 0.5, 0.7], size=(k, 1))
            weights = models_mod._gce_weights(p, w, q)
            for i in range(k):
                assert same_bits(weights[i], w[i] * np.power(p[i], float(q[i, 0])))
            for scalar in (0.0, 0.5, 0.7):
                assert same_bits(models_mod._gce_weights(p, w, scalar), w * np.power(p, scalar))

    @pytest.mark.parametrize("hidden", [(), (5,), (4, 3)])
    @pytest.mark.parametrize("n_classes", [2, 3, 10])
    @pytest.mark.parametrize("rows", [600, 2000])
    def test_broadcast_evaluation_equals_lone_calls(self, hidden, n_classes, rows):
        rng = np.random.default_rng(rows + n_classes)
        arch = Architecture(10, hidden, n_classes)
        x = rng.normal(size=(rows, 10)) * 3.0
        for k in (1, 6, 24):
            params = rng.normal(size=(k, arch.n_params))
            probs, acts = models_mod._forward_cached(
                models_mod._adopt(Model, arch=arch, params=params), x)
            for i in range(k):
                lone = models_mod._forward_cached(Model(arch, params[i]), x)
                assert same_bits(probs[i], lone[0])
                assert all(same_bits(a[i], a_lone) for a, a_lone in zip(acts[1:], lone[1][1:]))
                assert same_bits(probs[i].swapaxes(-1, -2),
                                 forward_batch(Model(arch, params[i]), x))

    @pytest.mark.parametrize("hidden", [(), (4, 3)])
    @pytest.mark.parametrize("n_classes", [2, 3])
    @pytest.mark.parametrize("m", [1, 2])
    def test_broadcast_training_step_equals_per_lane_batches(self, hidden, n_classes, m):
        rng = np.random.default_rng(n_classes * 10 + m + len(hidden))
        arch = Architecture(10, hidden, n_classes)
        for k in (1, 6, 24):
            for b in (1, 24, 64):
                model = models_mod._adopt(Model, arch=arch,
                                          params=rng.normal(size=(k * m, arch.n_params)))
                x = self.scaled(rng, (b, 10))
                index = (models_mod._label_offsets((k * m, b), n_classes)
                         + rng.integers(0, n_classes, size=b) * b)
                weights = rng.random((k * m, b))
                copied = np.ascontiguousarray(np.broadcast_to(x, (k * m, b, 10)))
                steps = []
                # No lane axis, the one-batch lane axis `_steps` gathers, a copy per row.
                for batch in (x, x[None], copied):
                    forward = models_mod._forward_cached(model, batch)
                    p = models_mod._clamp(forward[0].take(index))
                    g = models_mod._backprop(model, forward, index,
                                             models_mod._grad_scale(p, weights))
                    steps.append((forward, p, g))
                (probs, acts), p, g = steps[-1]
                for (shared_probs, shared_acts), shared_p, shared_g in steps[:-1]:
                    assert same_bits(shared_probs, probs)
                    assert all(same_bits(u, v) for u, v in zip(shared_acts[1:], acts[1:],
                                                               strict=True))
                    assert same_bits(shared_p, p)
                    assert same_bits(shared_g, g)
