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
    Architecture,
    Model,
    OptimizerState,
    forward_batch,
    grad,
    init_model,
    loss_values,
    sgd_step,
    unpack_params,
)
from grouptrain.trainers import (CVAR, GROUP_DRO, JTT_DYNAMIC, WORST_GROUP, compute_error_set,
                                 cvar_batch_weights, group_dro_update, lff_weight)
from grouptrain.tuning import FractionResult, grid_sweep


def finite_difference_grad(model, features, labels, weights, gce_q=0.0, h=1e-6):
    """Central finite differences of the weighted batch loss, coordinate by
    coordinate, in double precision."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    y = np.asarray(labels).ravel()
    w = np.asarray(weights, dtype=np.float64).ravel()

    def objective(params):
        probs = forward_batch(Model(model.arch, params), x)
        return float(w @ loss_values(probs, y, gce_q))

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
            grad_b = grad(model_b, xb, yb, w_bias, cfg.gce_q)
            grad_m = grad(model_m, xb, yb, w_main)
            model_b, opt_b = sgd_step(model_b, grad_b, opt_b)
            model_m, opt_m = sgd_step(model_m, grad_m, opt_m)
            objective += float(w_main @ loss_values(probs_m, yb))
            n_batches += 1
        metrics = evaluate_groups(model_m, val)
        history.append((objective / n_batches, metrics.worst_group_accuracy,
                        metrics.average_accuracy))
    return model_m, model_b, history


def reference_batch_weights(train, cfg):
    """cfg.algorithm's per-batch example weights, as a function of a batch's
    rows of `train` and their cross-entropies, through the public calls:
    - CVaR: the capped top-loss distribution, `cvar_batch_weights`;
    - group DRO: the groups are `train`'s (attribute, label) pairs, in
      sorted order, starting at equal weights. Per batch, each group's losses
      are added in row order, their means (0 for a group the batch lacks)
      take one `group_dro_update` step, and an example weighs its group's
      weight over its group's batch count;
    - every other algorithm: uniform."""
    if cfg.algorithm == CVAR:
        return lambda bidx, losses: cvar_batch_weights(losses, cfg.alpha)
    if cfg.algorithm != GROUP_DRO:
        return lambda bidx, losses: np.full(len(losses), 1.0 / len(losses))
    pairs = list(zip(train.attributes.tolist(), train.labels.tolist()))
    code = {pair: i for i, pair in enumerate(sorted(set(pairs)))}
    group_weights = np.full(len(code), 1.0 / len(code))

    def weights(bidx, losses):
        nonlocal group_weights
        groups = np.array([code[pairs[i]] for i in bidx])
        sums, counts = np.zeros(len(code)), np.zeros(len(code), dtype=np.int64)
        for g, loss in zip(groups.tolist(), losses.tolist()):
            sums[g] += loss
            counts[g] += 1
        group_weights = group_dro_update(sums / np.maximum(counts, 1), group_weights,
                                         cfg.group_step_size)
        return group_weights[groups] / counts[groups]

    return weights


def reference_sgd(train, rows, cfg, streams=(0, 1), epochs=None, refresh=None):
    """Plain minibatch SGD over `train`'s `rows`, each batch's
    cross-entropies weighted by `reference_batch_weights`, through the
    public calls: forward_batch, loss_values, grad and sgd_step. The model
    starts from seed stream streams[0] and each epoch's order is a
    permutation of the rows from stream streams[1] (by default the main
    model's streams); it trains `epochs` epochs (by default cfg.epochs).
    After each epoch, ``refresh(epoch, model)``, if given, may return the
    rows the next epoch trains on. Returns (per-epoch train losses,
    trajectory, divergence): the losses are each epoch's mean batch
    objective, the trajectory the initial model and each epoch's, and
    divergence the (epoch, batch) at which the running objective first turns
    non-finite, where training stops, or None."""
    arch = Architecture(train.n_features, cfg.hidden, max(2, int(train.labels.max()) + 1))
    model = init_model(arch, np.random.SeedSequence(cfg.seed, spawn_key=(streams[0],)))
    opt = OptimizerState(cfg.learning_rate, cfg.momentum, cfg.l2, np.zeros(arch.n_params))
    shuffle = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(cfg.seed, spawn_key=(streams[1],))))
    batch_weights = reference_batch_weights(train, cfg)
    losses, trajectory = [], [model]
    for epoch in range(cfg.epochs if epochs is None else epochs):
        order = rows[shuffle.permutation(len(rows))]
        objective = 0.0
        for batch, start in enumerate(range(0, len(order), cfg.batch_size)):
            bidx = order[start:start + cfg.batch_size]
            xb, yb = train.features[bidx], train.labels[bidx]
            batch_losses = loss_values(forward_batch(model, xb), yb)
            w = batch_weights(bidx, batch_losses)
            objective += float(w @ batch_losses)
            if not np.isfinite(objective):
                return losses, trajectory, (epoch, batch)
            model, opt = sgd_step(model, grad(model, xb, yb, w), opt)
        losses.append(objective / (batch + 1))
        trajectory.append(model)
        if refresh is not None:
            fresh = refresh(epoch, model)
            rows = rows if fresh is None else fresh
    return losses, trajectory, None


def reference_two_stage(train, cfg):
    """JTT as Algorithm 1 of Liu et al. (arXiv 2107.09044) writes it, through
    `reference_sgd`: an identification run on seed streams 2/3 for
    cfg.id_epochs epochs over `train`'s rows in order; its final model's
    error set, by `compute_error_set`; then training on the main streams
    over the upsampled rows, the n rows followed by (upweight_factor - 1)
    copies of the error set in index order. jtt-dynamic recomputes the error
    set from the current model after every refresh_every epochs but the
    last. Returns (per-epoch train losses, trajectory, extras): the extras
    are the identification model, its error set and the epochs and sizes of
    the refreshes."""
    n = len(train)

    def upsampled(error_set):
        return np.concatenate([np.arange(n)] + [error_set.indices] * (cfg.upweight_factor - 1))

    _, identification, _ = reference_sgd(train, np.arange(n), cfg, streams=(2, 3),
                                         epochs=cfg.id_epochs)
    extras = dict(identification_model=identification[-1],
                  error_set=compute_error_set(identification[-1], train,
                                              source_epoch=cfg.id_epochs),
                  refresh_epochs=[], refresh_sizes=[])

    def refresh(epoch, model):
        done = epoch + 1
        if (cfg.algorithm != JTT_DYNAMIC or cfg.refresh_every is None
                or done == cfg.epochs or done % cfg.refresh_every):
            return None
        error_set = compute_error_set(model, train, source_epoch=done)
        extras["refresh_epochs"].append(done)
        extras["refresh_sizes"].append(len(error_set))
        return upsampled(error_set)

    losses, trajectory, _ = reference_sgd(train, upsampled(extras["error_set"]), cfg,
                                          refresh=refresh)
    return losses, trajectory, extras


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
            sweep = grid_sweep(grid, train, reduced, test)
            best = sweep.rows[sweep.best(WORST_GROUP)]
            per_seed.append(best.by_criterion[WORST_GROUP].test_worst_group)
        out.append(FractionResult(float(fraction), tuple(per_seed),
                                  float(statistics.median(per_seed))))
    return out
