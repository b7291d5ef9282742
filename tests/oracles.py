"""Independent oracles the test suite checks the implementation against.
These deliberately avoid the code paths they verify."""

import csv
import statistics
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from grouptrain.analysis import evaluate_groups
from grouptrain.data import Dataset, subsample_validation
from grouptrain.errors import IngestionError
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
    sgd_step,
    unpack_params,
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


def reference_softmax(logits):
    """The softmax through NumPy's own last-axis max and sum reductions."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def reference_label_probs(probs, labels):
    """Each row's label probability by 2-D fancy indexing."""
    rows = probs.reshape(-1, probs.shape[-1])
    return rows[np.arange(len(rows)), labels.ravel()].reshape(labels.shape)


def reference_backprop(model, forward, labels, scale):
    """The kernel's backward pass with the label entries subtracted by 2-D
    fancy indexing; the parameters may carry a leading lane axis."""
    probs, acts = forward
    delta = probs * scale[..., None]
    rows = delta.reshape(-1, delta.shape[-1])
    rows[np.arange(len(rows)), labels.ravel()] -= scale.ravel()
    layers = unpack_params(model.arch, model.params)
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        g_w = delta.swapaxes(-1, -2) @ acts[i]
        g_b = delta.sum(axis=-2)
        grads[i] = np.concatenate([g_w.reshape(g_b.shape[:-1] + (-1,)), g_b], axis=-1)
        if i > 0:
            delta = (delta @ layers[i][0]) * (1.0 - acts[i] ** 2)
    return np.concatenate(grads, axis=-1)


def reference_row_fold(delta):
    """Sum over the batch axis, (..., b, C) -> (..., C), as a left fold of
    row additions."""
    out = delta[..., 0, :]
    for i in range(1, delta.shape[-2]):
        out = out + delta[..., i, :]
    return out


def reference_lff(train, val, cfg):
    """LfF as its own minibatch loop: per batch, forward passes of the bias
    and the main model, both gradients recomputed from scratch, then the
    bias step and the main step. Returns (main model, bias model, history
    as (train loss, val worst-group, val average) tuples)."""
    arch = Architecture(train.n_features, cfg.hidden,
                        max(2, int(max(train.labels.max(), val.labels.max())) + 1))
    model_b = model_m = init_model(arch, np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
    opt_b = OptimizerState(cfg.learning_rate, cfg.momentum, cfg.l2, np.zeros(arch.n_params))
    opt_m = OptimizerState(cfg.learning_rate, cfg.momentum, cfg.l2, np.zeros(arch.n_params))
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


def reference_sgd(train, rows, cfg):
    """Plain minibatch SGD on the mean cross-entropy over `train`'s `rows`
    (as the main model's seed streams order them), through the public calls:
    forward_batch, loss_values, grad and sgd_step. Returns (per-epoch train
    losses, trajectory, divergence): the losses are each epoch's mean batch
    objective, the trajectory the initial model and each epoch's, and
    divergence the (epoch, batch) at which the running objective first turns
    non-finite, where training stops, or None."""
    arch = Architecture(train.n_features, cfg.hidden, max(2, int(train.labels.max()) + 1))
    model = init_model(arch, np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
    opt = OptimizerState(cfg.learning_rate, cfg.momentum, cfg.l2, np.zeros(arch.n_params))
    shuffle = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed, spawn_key=(1,))))
    ce = LossSpec(CROSS_ENTROPY)
    losses, trajectory = [], [model]
    for epoch in range(cfg.epochs):
        order = rows[shuffle.permutation(len(rows))]
        objective = 0.0
        for batch, start in enumerate(range(0, len(order), cfg.batch_size)):
            bidx = order[start:start + cfg.batch_size]
            xb, yb = train.features[bidx], train.labels[bidx]
            w = np.full(len(yb), 1.0 / len(yb))
            objective += float(w @ loss_values(forward_batch(model, xb), yb, ce))
            if not np.isfinite(objective):
                return losses, trajectory, (epoch, batch)
            model, opt = sgd_step(model, grad(model, xb, yb, w, ce), opt)
        losses.append(objective / (batch + 1))
        trajectory.append(model)
    return losses, trajectory, None


def reference_divergence(train, rows, cfg):
    """(epoch, batch) at which the running mean-cross-entropy objective of
    `reference_sgd` first turns non-finite, or None."""
    return reference_sgd(train, rows, cfg)[2]


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


def reference_load_csv(path, name: str | None = None) -> Dataset:
    """The per-row dataset reader, Python's int() and float() on every cell.
    Read a dataset from CSV: the `label` column, the `attribute` column
    (group annotations) if present, and every column named f<number> as a
    feature, in file order. Row numbers in errors are 1-based data rows.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
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
        label_col = header.index("label")
        feat_cols = [header.index(c) for c in feat_names]

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
    values = np.asarray(rows)
    if not np.isfinite(values).all():
        row, col = np.argwhere(~np.isfinite(values))[0]
        raise IngestionError(f"{path}: row {row + 1}, column {feat_names[col]!r}: "
                             f"non-finite feature {float(values[row, col])!r}")
    return Dataset(values, np.asarray(labels),
                   np.asarray(attrs) if attr_col is not None else None,
                   name if name is not None else path.stem)


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
