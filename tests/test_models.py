import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouptrain.errors import InputError
from grouptrain.models import (
    CROSS_ENTROPY,
    GCE,
    Architecture,
    LossSpec,
    Model,
    OptimizerState,
    forward_batch,
    grad,
    init_model,
    loss_values,
    predict,
    sgd_step,
)
from oracles import finite_difference_grad, relative_grad_error

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
        assert loss_values(np.array([[0.0, 1.0]]), np.array([1]), LossSpec(GCE, 0.7))[0] == 0.0

    def test_gce_approaches_cross_entropy(self):
        val = loss_values(np.array([[0.5, 0.5]]), np.array([0]), LossSpec(GCE, 1e-6))[0]
        assert abs(val - 0.6931471805599453) < 1e-6

    def test_gce_hand_value(self):
        val = loss_values(np.array([[0.5, 0.5]]), np.array([0]), LossSpec(GCE, 0.7))[0]
        expected = (1.0 - 0.5 ** 0.7) / 0.7
        assert val == pytest.approx(expected, abs=1e-12)
        assert val == pytest.approx(0.54918, abs=1e-5)

    def test_gce_limit_property(self):
        ps = np.linspace(0.01, 1.0, 25)
        gce = loss_values(np.column_stack([ps, 1.0 - ps]), np.zeros(25, dtype=int),
                          LossSpec(GCE, 1e-8))
        assert np.abs(gce + np.log(ps)).max() < 1e-6

    def test_gce_q_zero_is_cross_entropy(self):
        probs, labels = np.array([[0.3, 0.7], [0.9, 0.1]]), np.array([0, 0])
        assert np.array_equal(loss_values(probs, labels, LossSpec(GCE, 0.0)),
                              loss_values(probs, labels, LossSpec(CROSS_ENTROPY)))

    def test_cross_entropy_clamped_never_infinite(self):
        val = loss_values(np.array([[1.0, 0.0]]), np.array([1]), LossSpec(CROSS_ENTROPY))[0]
        assert val == pytest.approx(-math.log(1e-12))

    def test_label_out_of_range(self):
        with pytest.raises(InputError):
            loss_values(np.array([[0.5, 0.5]]), np.array([2]), LossSpec(CROSS_ENTROPY))

    def test_spec_validation(self):
        with pytest.raises(InputError):
            LossSpec(GCE)  # missing q
        with pytest.raises(InputError):
            LossSpec(GCE, 1.0)
        with pytest.raises(InputError):
            LossSpec(CROSS_ENTROPY, 0.5)
        with pytest.raises(InputError):
            LossSpec("hinge")


class TestGrad:
    def test_zero_weights_give_zero_gradient(self):
        model = init_model(LOGISTIC, 0)
        x = np.random.default_rng(1).normal(size=(4, 3))
        y = np.array([0, 1, 0, 1])
        g = grad(model, x, y, np.zeros(4), LossSpec(CROSS_ENTROPY))
        assert np.array_equal(g, np.zeros(model.params.size))

    def test_linearity_in_weights(self):
        model = init_model(LOGISTIC, 2)
        x = np.random.default_rng(3).normal(size=(2, 3))
        y = np.array([1, 0])
        g_pair = grad(model, x, y, np.array([2.0, 0.0]), LossSpec(CROSS_ENTROPY))
        g_single = grad(model, x[:1], y[:1], np.array([1.0]), LossSpec(CROSS_ENTROPY))
        assert g_pair == pytest.approx(2.0 * g_single, abs=1e-14)

    def test_zero_one_is_not_a_loss_kind(self):
        with pytest.raises(InputError):
            LossSpec("zero-one")

    def test_one_dimensional_features_rejected(self):
        model = init_model(LOGISTIC, 0)
        with pytest.raises(InputError):
            grad(model, np.zeros(3), [0], [1.0], LossSpec(CROSS_ENTROPY))

    @pytest.mark.parametrize("arch", [Architecture(5, (), 3), Architecture(5, (7,), 3)])
    @pytest.mark.parametrize("spec", [LossSpec(CROSS_ENTROPY), LossSpec(GCE, 0.7)])
    def test_matches_finite_differences(self, arch, spec):
        rng = np.random.default_rng(17)
        for _ in range(10):
            model = init_model(arch, int(rng.integers(2**32)))
            x = rng.normal(size=(4, 5))
            y = rng.integers(0, 3, size=4)
            w = rng.uniform(0.1, 2.0, size=4)
            analytic = grad(model, x, y, w, spec)
            numeric = finite_difference_grad(model, x, y, w, spec)
            assert relative_grad_error(analytic, numeric) < 1e-5

    @pytest.mark.parametrize("hidden", [(), (5,), (4, 3)])
    @pytest.mark.parametrize("spec", [LossSpec(CROSS_ENTROPY), LossSpec(GCE, 0.0),
                                      LossSpec(GCE, 0.5)])
    @pytest.mark.parametrize("skewed", [False, True])
    def test_cached_forward_pass_gives_the_same_gradient(self, hidden, spec, skewed):
        rng = np.random.default_rng(23)
        model = init_model(Architecture(6, hidden, 3), 4)
        x = rng.normal(size=(16, 6), scale=2.0)
        y = rng.integers(0, 3, size=16)
        w = rng.exponential(size=16) ** 3 if skewed else np.full(16, 1.0 / 16)
        cached = forward_batch(model, x, activations=True)
        assert np.array_equal(cached[0], forward_batch(model, x))
        assert np.array_equal(grad(model, x, y, w, spec, cached), grad(model, x, y, w, spec))


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

