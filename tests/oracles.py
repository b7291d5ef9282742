"""Independent oracles the test suite checks the implementation against;
each avoids the code path it verifies. `reference_train` is the one
reference for training, a plain loop for every algorithm, and
`assert_same_run` compares runs with it and with each other."""

import csv
import statistics
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from grouptrain.analysis import ErrorSet
from grouptrain.data import Dataset, GroupId, subsample_validation
from grouptrain.errors import IngestionError
from grouptrain.models import (Architecture, Model, OptimizerState, forward_batch, grad,
                               init_model, loss_values, sgd_step, unpack_params)
from grouptrain.trainers import (CVAR, GROUP_DRO, JTT, JTT_DYNAMIC, LFF, UPSAMPLE_MINORITY,
                                 WORST_GROUP, TrainResult, compute_error_set, cvar_batch_weights,
                                 group_dro_update, lff_weight)
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


def reference_train(train, cfg):
    """cfg.algorithm as one minibatch loop over the public calls
    forward_batch, loss_values, grad and sgd_step, with each algorithm's
    weights for a batch's cross-entropies:
    - CVaR: `cvar_batch_weights`;
    - group DRO: the groups, `train`'s (attribute, label) pairs, sorted,
      start at equal weights. Per batch, their losses' sums in row order
      over their counts (0 for a group the batch lacks) take one
      `group_dro_update` step; an example weighs its group's weight over
      its group's count;
    - LfF (Nam et al., arXiv 2007.02561): `lff_weight` of a bias model's and
      the model's pre-step label probabilities, normalized. The bias model,
      a copy of the initial model, steps on each batch on its uniformly
      weighted generalized cross-entropy at gce_q;
    - otherwise uniform.
    The model starts from seed stream 0; each epoch's order permutes the
    rows by stream 1: `train`'s rows, then (upweight_factor - 1) copies of
    upsample-minority's minority set (attribute != label) or of JTT's error
    set. JTT, as Algorithm 1 of Liu et al. (arXiv 2107.09044), takes the
    `compute_error_set` of an identification run of this loop (uniform,
    streams 2/3, id_epochs epochs over the rows); jtt-dynamic recomputes it
    from the current model after every refresh_every epochs but the last.

    Returns (per-epoch train losses, trajectory, extras, divergence): each
    epoch's mean batch objective; the initial model and each epoch's; what
    the trainer records beside them; and where training stops: the (epoch,
    batch) at which the running objective first turns non-finite, (epoch,
    None) if the parameters are non-finite at an epoch's end, or None. A
    diverging identification run returns its own losses and trajectory."""
    n = len(train)
    arch = Architecture(train.n_features, cfg.hidden, max(2, int(train.labels.max()) + 1))
    extras, rows, exponents, rule, refresh = {}, np.arange(n), (0.0,), None, None

    def upsampled(error_set):
        return np.concatenate([np.arange(n)] + [error_set.indices] * (cfg.upweight_factor - 1))

    def sgd(rows, streams, epochs, rule=None, refresh=None):
        seeds = [np.random.SeedSequence(cfg.seed, spawn_key=(stream,)) for stream in streams]
        models = [init_model(arch, seeds[0])] * len(exponents)
        opts = [OptimizerState(cfg.learning_rate, cfg.momentum, cfg.l2,
                               np.zeros(arch.n_params))] * len(exponents)
        shuffle = np.random.Generator(np.random.PCG64(seeds[1]))
        losses, trajectory = [], models[:1]
        for epoch in range(epochs):
            order, objective = rows[shuffle.permutation(len(rows))], 0.0
            for batch, start in enumerate(range(0, len(order), cfg.batch_size)):
                bidx = order[start:start + cfg.batch_size]
                xb, yb = train.features[bidx], train.labels[bidx]
                probs = [forward_batch(model, xb) for model in models]
                batch_losses, uniform = loss_values(probs[0], yb), np.full(len(yb), 1.0 / len(yb))
                # A NaN loss, which the rules reject, makes every weighted sum NaN.
                finite = rule is not None and np.isfinite(batch_losses).all()
                w = rule(bidx, probs, batch_losses) if finite else uniform
                objective += float(w @ batch_losses)
                if not np.isfinite(objective):
                    return losses, trajectory, (epoch, batch), models
                models, opts = zip(*(sgd_step(model, grad(model, xb, yb, weights, q), opt)
                                     for model, opt, weights, q
                                     in zip(models, opts, (w, uniform), exponents)))
            if not np.isfinite(models[0].params).all():
                return losses, trajectory, (epoch, None), models
            losses.append(objective / (batch + 1))
            trajectory.append(models[0])
            rows = rows if refresh is None else refresh(epoch, models[0], rows)
        return losses, trajectory, None, models

    if cfg.algorithm == CVAR:
        def rule(bidx, probs, losses):
            return cvar_batch_weights(losses, cfg.alpha)
    elif cfg.algorithm == GROUP_DRO:
        pairs = list(zip(train.attributes.tolist(), train.labels.tolist()))
        code = {pair: i for i, pair in enumerate(sorted(set(pairs)))}
        extras["group_weights"] = {GroupId(*pair): 1.0 / len(code) for pair in code}

        def rule(bidx, probs, losses):
            groups, sums = np.array([code[pairs[i]] for i in bidx]), np.zeros(len(code))
            np.add.at(sums, groups, losses)  # in row order
            counts = np.bincount(groups, minlength=len(code))
            weights = group_dro_update(sums / np.maximum(counts, 1),
                                       np.array(list(extras["group_weights"].values())),
                                       cfg.group_step_size)
            extras["group_weights"] = dict(zip(extras["group_weights"], weights.tolist()))
            return weights[groups] / counts[groups]
    elif cfg.algorithm == LFF:
        exponents = (0.0, cfg.gce_q)

        def rule(bidx, probs, losses):
            p_main, p_bias = (p[np.arange(len(bidx)), train.labels[bidx]] for p in probs)
            raw = lff_weight(p_bias, p_main)
            return raw / raw.sum()
    elif cfg.algorithm == UPSAMPLE_MINORITY:
        extras["minority_set"] = ErrorSet(np.flatnonzero(train.attributes != train.labels))
        rows = upsampled(extras["minority_set"])
    elif cfg.algorithm in (JTT, JTT_DYNAMIC):
        losses, trajectory, divergence, _ = sgd(rows, (2, 3), cfg.id_epochs)
        if divergence is not None:
            return losses, trajectory, extras, divergence
        extras.update(identification_model=trajectory[-1], refresh_epochs=[], refresh_sizes=[],
                      error_set=compute_error_set(trajectory[-1], train, cfg.id_epochs))
        rows = upsampled(extras["error_set"])

        def refresh(epoch, model, rows):
            done = epoch + 1
            if (cfg.algorithm == JTT or cfg.refresh_every is None or done == cfg.epochs
                    or done % cfg.refresh_every):
                return rows
            error_set = compute_error_set(model, train, source_epoch=done)
            extras["refresh_epochs"].append(done)
            extras["refresh_sizes"].append(len(error_set))
            return upsampled(error_set)

    losses, trajectory, divergence, models = sgd(rows, (0, 1), cfg.epochs, rule, refresh)
    if cfg.algorithm == LFF:
        extras["bias_model"] = models[1]
    return losses, trajectory, extras, divergence


def assert_same_run(run, expected):
    """`run` equals `expected` bit for bit. Each is a TrainResult, a
    population's lane, `reference_train`'s result or the error a training
    raised. Failed runs have errors of one type and message (a reference's
    divergence stands for the FloatingPointError naming it); others have
    equal per-epoch train losses (and histories, if both have one), and
    equal bits in every trajectory model and every extra."""
    a, b = _record(run), _record(expected)
    if isinstance(a, Exception) or isinstance(b, Exception):
        assert (type(a), str(a)) == (type(b), str(b))
        return

    def bits(value):
        return (value.arch, value.params.tobytes()) if isinstance(value, Model) else value

    assert a[0] == b[0] and (None in (a[3], b[3]) or a[3] == b[3])
    assert [bits(model) for model in a[1]] == [bits(model) for model in b[1]]
    assert {k: bits(v) for k, v in a[2].items()} == {k: bits(v) for k, v in b[2].items()}


def _record(run):
    """A run's (per-epoch train losses, trajectory, extras, history or
    None), or its error."""
    if isinstance(run, TrainResult):
        return [entry.train_loss for entry in run.history], run.trajectory, run.aux, run.history
    if isinstance(run, tuple):
        losses, trajectory, extras, divergence = run
        if divergence is None:
            return losses, trajectory, extras, None
        epoch, batch = divergence
        return FloatingPointError("training diverged: non-finite " + (
            f"parameters after epoch {epoch}" if batch is None
            else f"objective at epoch {epoch}, batch {batch}"))
    return run if isinstance(run, Exception) else run.error or (
        run.losses, run.trajectory, run.aux, None)


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
