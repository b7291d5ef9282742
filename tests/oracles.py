"""Independent oracles the test suite checks the implementation against.
These deliberately avoid the code paths they verify."""

import statistics

import numpy as np
from scipy.optimize import linprog

from grouptrain.analysis import evaluate_groups
from grouptrain.data import subsample_validation
from grouptrain.models import (
    CROSS_ENTROPY,
    GCE,
    Architecture,
    LossSpec,
    Model,
    forward_batch,
    fresh_optimizer,
    grad,
    init_model,
    loss_values,
    sgd_step,
)
from grouptrain.trainers import WORST_GROUP, lff_weight
from grouptrain.tuning import FractionResult, grid_sweep


def finite_difference_grad(model, features, labels, weights, spec, h=1e-6):
    """Central finite differences of the weighted batch loss, coordinate by
    coordinate, in double precision."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    y = np.asarray(labels).ravel()
    w = np.asarray(weights, dtype=np.float64).ravel()

    def objective(params):
        probs = forward_batch(Model(model.arch, params), x)
        return float(w @ loss_values(probs, y, spec))

    grad = np.empty(model.params.size)
    for i in range(model.params.size):
        plus = model.params.copy()
        plus[i] += h
        minus = model.params.copy()
        minus[i] -= h
        grad[i] = (objective(plus) - objective(minus)) / (2.0 * h)
    return grad


def relative_grad_error(analytic, numeric):
    denom = max(float(np.max(np.abs(numeric))), 1e-8)
    return float(np.max(np.abs(analytic - numeric))) / denom


def cvar_lp_optimum(losses, alpha):
    """Brute-force maximizer of sum_i q_i * l_i over the capped simplex
    (0 <= q_i <= 1/(alpha*B), sum q = 1) via linear programming."""
    losses = np.asarray(losses, dtype=np.float64)
    b = len(losses)
    cap = min(1.0, 1.0 / (alpha * b))
    res = linprog(c=-losses, A_eq=np.ones((1, b)), b_eq=[1.0],
                  bounds=[(0.0, cap)] * b, method="highs")
    assert res.success, res.message
    return -res.fun


def reference_lff(train, val, cfg):
    """LfF as its own minibatch loop: per batch, forward passes of the bias
    and the main model, both gradients recomputed from scratch, then the
    bias step and the main step. Returns (main model, bias model, history
    as (train loss, val worst-group, val average) tuples)."""
    arch = Architecture(train.n_features, cfg.hidden,
                        max(2, int(max(train.labels.max(), val.labels.max())) + 1))
    model_b = model_m = init_model(arch, np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
    opt_b = fresh_optimizer(model_b, cfg.learning_rate, cfg.momentum, cfg.l2)
    opt_m = fresh_optimizer(model_m, cfg.learning_rate, cfg.momentum, cfg.l2)
    gce, ce = LossSpec(GCE, cfg.gce_q), LossSpec(CROSS_ENTROPY)
    shuffle = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed, spawn_key=(1,))))
    history = []
    for _ in range(cfg.epochs):
        order = shuffle.permutation(len(train))
        objective, n_batches = 0.0, 0
        for start in range(0, len(train), cfg.batch_size):
            bidx = order[start:start + cfg.batch_size]
            xb, yb = train.features[bidx], train.labels[bidx]
            rows = np.arange(len(yb))
            probs_b = forward_batch(model_b, xb)
            probs_m = forward_batch(model_m, xb)
            raw = lff_weight(probs_b[rows, yb], probs_m[rows, yb])
            w_main = raw / raw.sum()
            w_bias = np.full(len(yb), 1.0 / len(yb))
            grad_b = grad(model_b, xb, yb, w_bias, gce)
            grad_m = grad(model_m, xb, yb, w_main, ce)
            model_b, opt_b = sgd_step(model_b, grad_b, opt_b)
            model_m, opt_m = sgd_step(model_m, grad_m, opt_m)
            objective += float(w_main @ loss_values(probs_m, yb, ce))
            n_batches += 1
        metrics = evaluate_groups(model_m, val)
        history.append((objective / n_batches, metrics.worst_group_accuracy,
                        metrics.average_accuracy))
    return model_m, model_b, history


def reference_csv_text(data):
    """The canonical dataset CSV text, formatted one value at a time."""
    cols = ["label"] + (["attribute"] if data.has_group_annotations else [])
    cols += [f"f{j}" for j in range(data.n_features)]
    lines = [",".join(cols)]
    for i in range(len(data)):
        row = [str(int(data.labels[i]))]
        if data.attributes is not None:
            row.append(str(int(data.attributes[i])))
        row += [f"{v:.17g}" for v in data.features[i]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def reference_validation_size_study(fractions, grid, train, val, test, seeds):
    """The validation-size study as one full sweep per (fraction, seed),
    retraining every grid point with the reduced split as its validation
    set."""
    out = []
    for fraction in fractions:
        per_seed = []
        for seed in seeds:
            reduced = subsample_validation(val, fraction, seed)
            sweep = grid_sweep(grid, train, reduced, test, criterion=WORST_GROUP)
            per_seed.append(sweep.selected().test_worst_group)
        out.append(FractionResult(float(fraction), tuple(per_seed),
                                  float(statistics.median(per_seed))))
    return out
