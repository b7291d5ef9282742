"""The six training algorithms: plain ERM, two-stage error-set upweighting
(static and dynamically refreshed), per-batch top-loss reweighting (CVaR),
biased-pair reweighting (LfF), online worst-group reweighting (group DRO),
and ground-truth minority upsampling.

Seeding discipline
------------------
A single master seed in TrainConfig fans out to named PCG64 streams via
``SeedSequence(seed, spawn_key=(stream,))``:

* stream 0: initialization of the main model (the one a run returns),
* stream 1: per-epoch shuffling of the main training loop,
* streams 2/3: initialization/shuffling of the identification stage.

Because the final model of the two-stage trainers uses the same streams as
plain ERM, the exact reduction identities hold bit-for-bit under a shared
seed: upweight_factor=1 or an empty error set reduces the two-stage trainers
to ERM, alpha=1 reduces the CVaR trainer to ERM, a single group reduces
group DRO to ERM, gce_q=0 reduces LfF to ERM, and refresh_every=None (or
any period >= epochs) reduces the dynamic variant to the static one.

Trainers other than group DRO and minority upsampling never read training
group annotations: they operate on a stripped view of their input.

Lanes
-----
Every trainer runs a population: one lane per config, all lanes of one
architecture stepping through one minibatch loop (`_weighted_sgd`), one
stacked matmul per layer for the lanes whose batches have one length. A
lane is a config plus its training view (an index map into the shared
training rows, so upsampling copies no data), its own epoch and batch
schedule, its own seed streams as above and its own SGD state: parameters,
velocity, hyperparameters and weight-rule state. The loop stacks every
lane's state once into a pool, one row (the lane's slot) per lane. Once per
segment of steps it gathers a group's rows by slot and builds the stacked
model and optimizer state that each step's `sgd_step` hands on to the next.
It takes the segment's steps in chunks whose buffers hold at most
`_CHUNK_CELLS` cells (256 KB) each: per chunk, one gather of every step's
features and label indices, and one stacked matmul of the per-example
losses and weights the steps leave behind for every step's objective. The
objectives are folded down the steps at the segment's end; then the loop
scatters the group's rows back into the pool, and when the loop ends each
lane gets its rows back. So a lane computes bit for bit what training its
config alone computes: `train` is a population of one, and
`train_population` trains a grid. Lanes fail alone: a lane whose objective
or parameters turn non-finite records its error and leaves, the others run
to their own ends, and `_scored` raises the error of the first failed
config in order.

No trainer sees the validation split: each maps the training data and the
config to per-epoch train losses, the trajectory and its extras, and `train`
scores the trajectory on the validation split with `epoch_scores`. The
extras (`aux`) hold only what training alone produced.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from . import models
from .analysis import ErrorSet
from .analysis import evaluate_groups  # noqa: F401 (bench/layers.py wraps this binding)
from .data import Dataset, require_binary_groups, strip_group_annotations
from .errors import ConfigError, InputError, TrainingWarning
from .models import (
    CROSS_ENTROPY,
    PROB_EPS,
    Architecture,
    LossSpec,
    Model,
    OptimizerState,
    init_model,
    predict,
    sgd_step,
)
from .models import forward_batch, grad, loss_values  # noqa: F401 (bench/layers.py wraps these)

ERM = "erm"
JTT = "jtt"
JTT_DYNAMIC = "jtt-dynamic"
CVAR = "cvar"
LFF = "lff"
GROUP_DRO = "group-dro"
UPSAMPLE_MINORITY = "upsample-minority"
ALGORITHMS = (ERM, JTT, JTT_DYNAMIC, CVAR, LFF, GROUP_DRO, UPSAMPLE_MINORITY)

WORST_GROUP = "worst-group"
AVERAGE = "average"
CRITERIA = (WORST_GROUP, AVERAGE)

_CROSS_ENTROPY = models._exponent(LossSpec(CROSS_ENTROPY))  # the main models' loss exponent


def _seedseq(seed: int, stream: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=(stream,))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_seedseq(seed, stream)))


@dataclass(frozen=True)
class TrainConfig:
    """Algorithm selector plus every hyperparameter.

    Only the fields relevant to the selected algorithm are consulted during
    training, but all of them are echoed into run reports. refresh_every=None
    means the error set is never refreshed (the static two-stage algorithm).
    """

    algorithm: str
    epochs: int
    batch_size: int
    learning_rate: float
    seed: int
    momentum: float = 0.9
    l2: float = 0.0
    hidden: tuple[int, ...] = ()
    id_epochs: int | None = None
    upweight_factor: int | None = None
    refresh_every: int | None = None
    alpha: float | None = None
    gce_q: float | None = None
    group_step_size: float = 0.01

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm: unknown value {self.algorithm!r}")
        if self.epochs < 0:
            raise ConfigError("epochs: must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size: must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed: must be >= 0")
        # Written so that NaN fails every range check.
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate: must be > 0")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigError("momentum: must lie in [0, 1)")
        if not self.l2 >= 0:
            raise ConfigError("l2: must be >= 0")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if any(h < 1 for h in self.hidden):
            raise ConfigError("hidden: widths must be positive")
        if self.algorithm in (JTT, JTT_DYNAMIC):
            if self.id_epochs is None or self.id_epochs < 0:
                raise ConfigError("id_epochs: required (>= 0) for the two-stage algorithms")
        if self.algorithm in (JTT, JTT_DYNAMIC, UPSAMPLE_MINORITY):
            if self.upweight_factor is None or self.upweight_factor < 1:
                raise ConfigError("upweight_factor: required integer >= 1")
        if self.refresh_every is not None and self.refresh_every < 1:
            raise ConfigError("refresh_every: must be >= 1 (or omitted for never)")
        if self.algorithm == CVAR:
            if self.alpha is None or not (0.0 < self.alpha <= 1.0):
                raise ConfigError("alpha: required in (0, 1] for the CVaR trainer")
        if self.algorithm == LFF:
            if self.gce_q is None or not (0.0 <= self.gce_q < 1.0):
                raise ConfigError("gce_q: required in [0, 1) for the LfF trainer")
        if not self.group_step_size >= 0:
            raise ConfigError("group_step_size: must be >= 0")


class EpochMetrics(NamedTuple):
    train_loss: float
    val_worst_group: float
    val_average: float


@dataclass(frozen=True)
class Checkpoint:
    epoch: int  # -1 means the pre-training initialization
    model: Model
    metric: float


def select_checkpoint(scores: Sequence[tuple[float, float]],
                      criterion: str) -> tuple[int, tuple[float, float]]:
    """The checkpoint rule, over per-epoch (worst-group, average) validation
    accuracies: the epoch whose `criterion` value strictly beats every
    earlier one, so ties go to the earliest, with its scores; (-1, (-inf,
    -inf)), the unscored initial model, when no epoch beats -inf."""
    column = CRITERIA.index(criterion)
    epoch, picked = -1, (-math.inf, -math.inf)
    for e, score in enumerate(scores):
        if score[column] > picked[column]:
            epoch, picked = e, score
    return epoch, picked


@dataclass(eq=False)
class TrainResult:
    """A run's record: per-epoch history, the trajectory (the initial model,
    then epoch e's model at index e + 1) and algorithm-specific extras. The
    final model and the checkpoints are read off the record."""

    history: list[EpochMetrics]
    trajectory: list[Model]
    aux: dict[str, Any] = field(default_factory=dict)

    @property
    def model(self) -> Model:
        """The final model."""
        return self.trajectory[-1]

    @functools.cached_property
    def checkpoints(self) -> dict[str, Checkpoint]:
        """The selected checkpoint per early-stopping criterion."""
        scores = [entry[1:] for entry in self.history]
        out = {}
        for column, criterion in enumerate(CRITERIA):
            epoch, picked = select_checkpoint(scores, criterion)
            out[criterion] = Checkpoint(epoch, self.trajectory[epoch + 1], picked[column])
        return out


# A scoring pass holds at most this many cells per activation or
# probability array, as many as one model's evaluation of a 2000-row,
# 2-class split: long runs and big splits score in several passes, and no
# pass holds more memory than a one-model evaluation does.
_SCORE_CELLS = 1 << 12


def epoch_scores(trajectory: Sequence[Model], data: Dataset) -> list[tuple[float, float]]:
    """Per-epoch (worst-group, average) accuracy on `data` of trajectory[1:],
    the values `evaluate_groups` gives: the models' predictions come from
    stacked forward passes over the split, their per-group hits from one
    bincount per pass."""
    scored = trajectory[1:]
    if not scored:
        return []
    groups, codes, counts = data.group_index()
    arch = scored[0].arch
    per_pass = max(1, _SCORE_CELLS // (len(data) * max(arch.hidden + (arch.n_classes,))))
    out = []
    for start in range(0, len(scored), per_pass):
        chunk = scored[start:start + per_pass]
        stacked = models._adopt(Model, arch=arch, params=np.stack([m.params for m in chunk]))
        correct = models._forward_cached(stacked, data.features)[0].argmax(axis=-2) == data.labels
        bins = codes + len(groups) * np.arange(len(chunk))[:, None]  # (model, group) bins
        hits = np.bincount(bins[correct], minlength=len(chunk) * len(groups))
        worst = (hits.reshape(len(chunk), len(groups)) / counts).min(axis=1)
        out += zip(worst.tolist(), (correct.sum(axis=1) / len(data)).tolist())
    return out


def _initial_model(train: Dataset, cfg: TrainConfig, init_stream: int = 0) -> Model:
    if len(train) == 0:
        raise InputError("training set is empty")
    arch = Architecture(train.n_features, cfg.hidden, max(2, int(train.labels.max()) + 1))
    return init_model(arch, _seedseq(cfg.seed, init_stream))


class _Lane:
    """One config's run in a population: its training view (an int32 index
    map into the population's base rows; all of them, in order, by default),
    epochs, seed streams, refresh rule, extras and SGD `state`: parameters,
    velocity, (1,)-shaped learning_rate, momentum and l2, and the weight
    rule's per-lane entries, which the trainer passes. The loop stacks all
    lanes' states into one pool, steps a batch-length group on its rows,
    gathered by each lane's `slot`, and hands each lane its rows back when
    it ends; it fills in the per-epoch losses, the trajectory and, if the
    lane fails, its error, and leaves the final state in `state`."""

    def __init__(self, base: Dataset, cfg: TrainConfig, rows: np.ndarray | None = None, *,
                 identification: bool = False,
                 refresh: Callable[[int, Model], np.ndarray | None] | None = None,
                 aux: dict[str, Any] | None = None,
                 state: dict[str, np.ndarray] | None = None):
        self.cfg, self.refresh = cfg, refresh
        self.rows = np.arange(len(base), dtype=np.int32) if rows is None else rows
        self.epochs, (init, shuffle) = ((cfg.id_epochs, (2, 3)) if identification
                                        else (cfg.epochs, (0, 1)))
        self.shuffle = _rng(cfg.seed, shuffle)
        self.losses: list[float] = []
        self.trajectory = [_initial_model(base, cfg, init)]
        self.aux: dict[str, Any] = {} if aux is None else aux
        params = self.trajectory[0].params
        self.state: dict[str, np.ndarray] = {
            "params": params, "velocity": np.zeros(params.size),
            **{name: np.array([getattr(cfg, name)], dtype=np.float64)
               for name in ("learning_rate", "momentum", "l2")},
            **(state or {})}
        self.error: Exception | None = None

    @property
    def active(self) -> bool:
        return self.error is None and len(self.losses) < self.epochs

    def start_epoch(self) -> None:
        """Draw the epoch's example order from the shuffle stream."""
        self.order = self.rows[self.shuffle.permutation(len(self.rows))]
        self.pos, self.objective, self.n_batches = 0, 0.0, 0


@functools.lru_cache(maxsize=4)
def _uniform_weights(shape: tuple[int, int]) -> np.ndarray:
    """Read-only 1/b weights for (K, b) batches."""
    w = np.full(shape, 1.0 / shape[-1])
    w.setflags(write=False)
    return w


def _uniform(_state, losses: np.ndarray, *_) -> np.ndarray:
    return _uniform_weights(losses.shape)


def _descend(model: Model, opt: OptimizerState, forward: tuple[np.ndarray, list[np.ndarray]],
             index: np.ndarray, scale: np.ndarray) -> tuple[Model, OptimizerState]:
    """One `sgd_step` of stacked lanes from their cached forward pass, the
    labels given as their flat `_label_index`."""
    return sgd_step(model, models._backprop_at(model, forward, index, scale), opt)


def _step(model: Model, opt: OptimizerState, state: dict[str, np.ndarray],
          rule: Callable[..., np.ndarray], xb: np.ndarray, index: np.ndarray, ridx: np.ndarray,
          losses: np.ndarray, weights: np.ndarray) -> tuple[Model, OptimizerState]:
    """One SGD step of the stacked lanes on their batches; returns the
    stepped model and optimizer state, and leaves the lanes' per-example
    losses and weights in `losses` and `weights`."""
    forward = models._forward_cached(model, xb)
    p_label = forward[0].take(index)
    p = models._clamp(p_label)
    models._clamped_losses(p, _CROSS_ENTROPY, out=losses)
    weights[...] = w = rule(state, losses, ridx, xb, index, p_label)
    return _descend(model, opt, forward, index, models._clamped_scale(p, w, _CROSS_ENTROPY))


# A chunk's buffers hold at most this many cells (256 KB of float64) each.
# On the reference data (10 features) that is the gathered features of 51
# steps of one 64-row lane, or of 2 steps of 24 lanes; a chunk always takes at
# least one step.
_CHUNK_CELLS = 1 << 15


def _weighted_sgd(base: Dataset, lanes: list[_Lane],
                  rule: Callable[..., np.ndarray] = _uniform) -> None:
    """Minibatch SGD of a population of lanes (one architecture) over their
    views of `base` on the per-example cross-entropy, weighted uniformly by
    default. Lanes are independent: each computes exactly what it would
    alone.

    Per epoch a lane's example order is one permutation from its shuffle
    stream; batches are its consecutive slices (the last may be short), each
    taking one forward pass that the losses, the weights and the gradient
    share. The lanes' `state`s are stacked once per call into a pool of
    arrays, one row per lane, at the lane's `slot`. A segment is the steps
    over which no lane's batch length changes; per segment the lanes whose
    batches have one length gather their slots' rows (`a[slots]`), step
    together, one matmul per layer for all of them, and scatter the stepped
    rows back (`pool[name][slots] = a`). When the loop ends, each lane's
    `state` holds its rows of the pool. Per segment the group also builds
    once the stacked `Model` and `OptimizerState`, which each step's
    `sgd_step` hands on to the next, and the flat offsets of their label
    entries. The weights are ``rule(state, losses, base rows,
    features, label index, label probabilities)``, all pre-step with a
    leading lane axis; `state` holds the stacked entries other than params
    and velocity, and the rule may replace its own.

    A chunk is a run of a segment's steps whose buffers hold at most
    `_CHUNK_CELLS` cells each. Per chunk the group gathers its batches'
    features as one (steps, lanes, rows, features) array, so that each step
    reads a contiguous slice, and their flat label indices in one
    expression; each step leaves its per-example losses and weights in the
    chunk's buffers, and one stacked (1, b) @ (b, 1) matmul gives every
    step's weighted batch objective, the products a lone step takes. A
    lane's train loss per epoch is the mean over its batches of that
    objective. Per segment, the lanes' running objectives and their steps'
    objectives fill one (steps + 1, lanes) array, folded down the step axis:
    the same sequential sum as adding step by step. A non-finite objective
    or parameters fail the lane: it records a FloatingPointError naming
    where and leaves, and the other lanes run on.
    """
    arch = lanes[0].trajectory[0].arch
    models._check_labels(base.labels, arch.n_classes)
    pool = {name: np.stack([lane.state[name] for lane in lanes]) for name in lanes[0].state}
    for slot, lane in enumerate(lanes):
        lane.slot = slot
        if lane.active:
            lane.start_epoch()

    while True:
        # Lanes leave when done or failed.
        running = []
        for lane in lanes:
            if lane.active:
                running.append(lane)
            else:
                lane.rows = lane.order = None
        if not running:
            break

        # A lane on full batches may take all it has left; a short one is last.
        n_steps = min((len(lane.order) - lane.pos) // lane.cfg.batch_size or 1
                      for lane in running)
        groups: dict[int, list[_Lane]] = {}
        for lane in running:
            groups.setdefault(min(lane.cfg.batch_size, len(lane.order) - lane.pos),
                              []).append(lane)
        for b, group in groups.items():
            k = len(group)
            slots = np.array([lane.slot for lane in group])
            state = {name: a[slots] for name, a in pool.items()}
            model = models._adopt(Model, arch=arch, params=state.pop("params"))
            opt = models._adopt(OptimizerState, learning_rate=state["learning_rate"],
                                momentum=state["momentum"], l2=state["l2"],
                                velocity=state.pop("velocity"))
            rows = np.stack([lane.order[lane.pos:][:n_steps * b] for lane in group])
            offsets = models._label_offsets((k, b), arch.n_classes)
            objectives = np.empty((n_steps + 1, k))
            objectives[0] = [lane.objective for lane in group]
            per_chunk = max(1, _CHUNK_CELLS // (k * b * base.n_features))
            for start in range(0, n_steps, per_chunk):
                stop = min(start + per_chunk, n_steps)
                ridx = rows[:, start * b:stop * b].reshape(k, stop - start, b).swapaxes(0, 1)
                xs = base.features.take(ridx, axis=0)
                index = offsets + base.labels.take(ridx) * b
                losses, weights = np.empty(ridx.shape), np.empty(ridx.shape)
                for step in zip(xs, index, ridx, losses, weights):
                    model, opt = _step(model, opt, state, rule, *step)
                objectives[start + 1:stop + 1] = (weights[:, :, None, :]
                                                  @ losses[:, :, :, None])[:, :, 0, 0]
            state.update(params=model.params, velocity=opt.velocity)
            for name, a in state.items():
                pool[name][slots] = a
            objectives = np.add.accumulate(objectives)
            finite = np.isfinite(objectives[1:])
            failed, first_bad = (~finite.all(axis=0)).tolist(), finite.argmin(axis=0).tolist()
            for lane, bad, first, objective in zip(group, failed, first_bad,
                                                    objectives[-1].tolist()):
                if bad:
                    lane.error = FloatingPointError(
                        f"training diverged: non-finite objective at epoch "
                        f"{len(lane.losses)}, batch {lane.n_batches + first}")
                lane.objective = objective
                lane.pos += n_steps * b
                lane.n_batches += n_steps

        for lane in running:
            if lane.error is not None or lane.pos < len(lane.order):
                continue
            params = pool["params"][lane.slot]
            if not np.isfinite(params).all():
                lane.error = FloatingPointError(
                    f"training diverged: non-finite parameters after epoch {len(lane.losses)}")
                continue
            model = Model(arch, params)
            lane.losses.append(lane.objective / lane.n_batches)
            lane.trajectory.append(model)
            if lane.refresh is not None:
                rows = lane.refresh(len(lane.losses) - 1, model)
                if rows is not None:
                    lane.rows = rows
            if lane.active:
                lane.start_epoch()

    for lane in lanes:
        lane.state = {name: a[lane.slot] for name, a in pool.items()}


# ---------------------------------------------------------------------------
# Plain ERM

def _erm(train: Dataset, cfgs: list[TrainConfig]) -> list[_Lane]:
    """Minibatch SGD on the mean cross-entropy."""
    base = strip_group_annotations(train)
    lanes = [_Lane(base, cfg) for cfg in cfgs]
    _weighted_sgd(base, lanes)
    return lanes


# ---------------------------------------------------------------------------
# Error-set machinery and the two-stage trainers

def compute_error_set(model: Model, train: Dataset, source_epoch: int = 0) -> ErrorSet:
    """Indices of training examples the model misclassifies (argmax ties go
    to the lowest label index)."""
    wrong = predict(model, train.features) != train.labels
    return ErrorSet(np.flatnonzero(wrong), source_epoch)


def _upsampled_rows(n: int, error_set: ErrorSet, upweight_factor: int) -> np.ndarray:
    """The n rows in order, then (upweight_factor - 1) copies of the error
    set in index order: a factor of 1 or an empty set leaves the n rows. As
    int32 indices (half the memory of int64 for a population's views)."""
    copies = upweight_factor - 1 if len(error_set) else 0
    if copies and error_set.indices[-1] >= n:
        raise InputError("error-set index out of range for this dataset")
    return np.concatenate([np.arange(n)] + [error_set.indices] * copies, dtype=np.int32)


def build_upsampled(train: Dataset, error_set: ErrorSet, upweight_factor: int) -> Dataset:
    """`_upsampled_rows` as a dataset. Training never builds one: this is
    kept only because bench/layers.py wraps the name."""
    if upweight_factor < 1:
        raise InputError("upweight_factor must be >= 1")
    if upweight_factor == 1 or len(error_set) == 0:
        return train
    return train.subset(_upsampled_rows(len(train), error_set, upweight_factor),
                        name=f"{train.name}-upsampled")


def _upweighted(train: Dataset, cfgs: list[TrainConfig],
                error_sets: list[ErrorSet]) -> list[_Lane]:
    """ERM on the upsampled data, a lane per config and error set; only
    jtt-dynamic recomputes the error set from the current model, every
    cfg.refresh_every epochs (None: never)."""
    base = strip_group_annotations(train)
    lanes = []
    for cfg, error_set in zip(cfgs, error_sets):
        if len(error_set) == 0:
            warnings.warn("error set is empty; upweighted training degenerates to ERM",
                          TrainingWarning, stacklevel=2)
        aux = dict(error_set=error_set, refresh_epochs=[], refresh_sizes=[])
        lanes.append(_Lane(base, cfg, _upsampled_rows(len(base), error_set, cfg.upweight_factor),
                           refresh=_refresher(base, cfg, aux), aux=aux))
    _weighted_sgd(base, lanes)
    return lanes


def _refresher(base: Dataset, cfg: TrainConfig,
               aux: dict[str, Any]) -> Callable[[int, Model], np.ndarray | None] | None:
    """jtt-dynamic's refresh rule: after every cfg.refresh_every epochs but
    the last, the upsampled rows of the current model's error set."""
    if cfg.algorithm != JTT_DYNAMIC or cfg.refresh_every is None:
        return None

    def refresh(epoch: int, model: Model) -> np.ndarray | None:
        done = epoch + 1
        if done >= cfg.epochs or done % cfg.refresh_every:
            return None
        new_set = compute_error_set(model, base, source_epoch=done)
        aux["refresh_epochs"].append(done)
        aux["refresh_sizes"].append(len(new_set))
        return _upsampled_rows(len(base), new_set, cfg.upweight_factor)

    return refresh


def _two_stage(train: Dataset, cfgs: list[TrainConfig]) -> list[_Lane]:
    """Two-stage training: fit an identification model for id_epochs, collect
    its misclassified examples, then retrain from scratch on the upsampled
    data as `_upweighted` does. A failed identification lane is its
    config's run."""
    base = strip_group_annotations(train)
    id_lanes = [_Lane(base, cfg, identification=True) for cfg in cfgs]
    _weighted_sgd(base, id_lanes)
    ready = [lane for lane in id_lanes if lane.error is None]
    error_sets = [compute_error_set(lane.trajectory[-1], base, source_epoch=lane.cfg.id_epochs)
                  for lane in ready]
    runs = _upweighted(base, [lane.cfg for lane in ready], error_sets) if ready else []
    for lane, run in zip(ready, runs):
        run.aux["identification_model"] = lane.trajectory[-1]
    runs = iter(runs)
    return [lane if lane.error is not None else next(runs) for lane in id_lanes]


# ---------------------------------------------------------------------------
# CVaR: per-batch top-loss reweighting

def _cvar_weights(losses: np.ndarray, alpha) -> np.ndarray:
    """`cvar_batch_weights` along the last axis, alpha broadcasting against
    the leading ones: each row's rank in the stable descending order (ties
    by lower index) decides its weight."""
    ab = alpha * losses.shape[-1]
    cap, k = 1.0 / ab, np.floor(ab)  # alpha <= 1, so k <= B
    remainder = np.maximum(1.0 - k * cap, 0.0)
    rank = np.argsort(np.argsort(-losses, axis=-1, kind="stable"), axis=-1)
    return np.where(rank < k, cap, (rank == k) * remainder)


def cvar_batch_weights(losses: np.ndarray, alpha: float) -> np.ndarray:
    """The loss-maximizing batch distribution under the cap 1/(alpha*B).

    The floor(alpha*B) highest losses (ties by lower index) receive the cap
    and the next entry takes the leftover mass, so the weights sum to 1 and
    the weighted sum equals the batch CVaR at level alpha. When alpha*B < 1
    the cap exceeds 1 and all mass lands on the single highest loss.
    """
    losses = np.asarray(losses, dtype=np.float64).ravel()
    if len(losses) < 1:
        raise InputError("cvar_batch_weights needs at least one loss")
    if not (0.0 < alpha <= 1.0):
        raise InputError("alpha must lie in (0, 1]")
    return _cvar_weights(losses, alpha)


def _cvar(train: Dataset, cfgs: list[TrainConfig]) -> list[_Lane]:
    """Each minibatch step reweights examples by the capped top-loss
    distribution at level alpha before the gradient step."""
    base = strip_group_annotations(train)
    lanes = [_Lane(base, cfg, state={"alpha": np.array([cfg.alpha])}) for cfg in cfgs]

    def rule(state: dict[str, np.ndarray], losses: np.ndarray, *_) -> np.ndarray:
        return _cvar_weights(losses, state["alpha"])

    _weighted_sgd(base, lanes, rule)
    return lanes


# ---------------------------------------------------------------------------
# LfF: a deliberately biased model reweights the main model's examples

def lff_weight(p_bias, p_main):
    """log(p_bias) / (log(p_bias) + log(p_main)), probabilities clamped away
    from 0 and 1. Scalar or elementwise on arrays; W(a, b) + W(b, a) = 1."""
    pb = np.asarray(p_bias, dtype=np.float64).clip(PROB_EPS, 1.0 - PROB_EPS)
    pm = np.asarray(p_main, dtype=np.float64).clip(PROB_EPS, 1.0 - PROB_EPS)
    lb, lm = np.log(pb), np.log(pm)
    return lb / (lb + lm)


def _lff_rule(arch: Architecture, state: dict[str, np.ndarray], _losses, _ridx,
              xb: np.ndarray, index: np.ndarray, p_main: np.ndarray) -> np.ndarray:
    """Steps each lane's bias model on the mean GCE at the lane's gce_q and
    returns the main model's normalized LfF weights."""
    bias = models._adopt(Model, arch=arch, params=state["bias_params"])
    opt = models._adopt(OptimizerState, learning_rate=state["learning_rate"],
                        momentum=state["momentum"], l2=state["l2"],
                        velocity=state["bias_velocity"])
    forward = models._forward_cached(bias, xb)
    p_bias = forward[0].take(index)
    raw = lff_weight(p_bias, p_main)
    bias, opt = _descend(bias, opt, forward, index,
                         models._grad_scale(p_bias, _uniform_weights(p_bias.shape),
                                            state["gce_q"]))
    state["bias_params"], state["bias_velocity"] = bias.params, opt.velocity
    return raw / raw.sum(axis=-1, keepdims=True)


def _lff(train: Dataset, cfgs: list[TrainConfig]) -> list[_Lane]:
    """Interleaved updates of a bias model (generalized cross-entropy, which
    gradient-weights examples by p^q and so favours easy ones) and the main
    model (cross-entropy with per-example weights from `lff_weight`, using
    the pre-step probabilities of both models, normalized to sum 1). Per
    batch the bias model steps first, then the main model.

    Both models start from the identical seeded initialization, so gce_q=0
    reduces the whole procedure to ERM exactly.
    """
    base = strip_group_annotations(train)
    lanes = [_Lane(base, cfg, state={"gce_q": np.float64(cfg.gce_q)}) for cfg in cfgs]
    for lane in lanes:  # the bias model starts where the main model does
        lane.state.update(bias_params=lane.state["params"], bias_velocity=lane.state["velocity"])
    arch = lanes[0].trajectory[0].arch
    _weighted_sgd(base, lanes, functools.partial(_lff_rule, arch))
    for lane in lanes:
        lane.aux["bias_model"] = Model(arch, lane.state["bias_params"])
    return lanes


# ---------------------------------------------------------------------------
# Group DRO: online exponentiated-gradient reweighting of group losses

def group_dro_update(group_losses: np.ndarray, weights: np.ndarray,
                     step_size: float) -> np.ndarray:
    """One exponentiated-gradient ascent step on the group-weight simplex:
    w_g <- w_g * exp(step_size * loss_g), renormalized. Groups absent from
    the batch contribute loss 0 and keep their weight (up to renorm). Works
    along the last axis, step_size broadcasting against the leading ones."""
    w = np.asarray(weights, dtype=np.float64)
    gl = np.asarray(group_losses, dtype=np.float64)
    if w.shape != gl.shape:
        raise InputError("group_losses and weights must have equal length")
    if np.any(w < 0):
        raise InputError("weights must be non-negative")
    if not np.all(np.isfinite(gl)):
        raise InputError("group losses must be finite")
    return _group_dro_weights(gl, w, step_size)


def _group_dro_weights(group_losses: np.ndarray, weights: np.ndarray, step_size) -> np.ndarray:
    """`group_dro_update` unchecked: non-finite losses give NaN weights."""
    out = weights * np.exp(step_size * group_losses)
    return out / out.sum(axis=-1, keepdims=True)


def _group_dro_rule(codes: np.ndarray, n_groups: int, state: dict[str, np.ndarray],
                    losses: np.ndarray, ridx: np.ndarray, *_) -> np.ndarray:
    """Per lane, the batch's group mean losses update the group weights; an
    example's weight is its group's weight over its group's batch count."""
    n_lanes = len(ridx)
    bins = codes[ridx] + n_groups * np.arange(n_lanes)[:, None]  # (lane, group) bins
    counts = np.bincount(bins.ravel(), minlength=n_lanes * n_groups)
    sums = np.bincount(bins.ravel(), weights=losses.ravel(), minlength=n_lanes * n_groups)
    means = np.divide(sums, counts, out=np.zeros(len(sums)), where=counts > 0)
    w = _group_dro_weights(means.reshape(n_lanes, n_groups), state["group_weights"],
                           state["group_step_size"])
    state["group_weights"] = w
    return w.ravel()[bins] / counts[bins]


def _group_dro(train: Dataset, cfgs: list[TrainConfig]) -> list[_Lane]:
    """Oracle trainer with training group annotations: per batch, group mean
    losses update the adversarial group weights, then the model steps on the
    weight-averaged group losses."""
    if not train.has_group_annotations:
        raise InputError("group-dro needs training group annotations")
    groups, codes, _ = train.group_index()
    lanes = [_Lane(train, cfg, state={
        "group_weights": np.full(len(groups), 1.0 / len(groups)),
        "group_step_size": np.array([cfg.group_step_size], dtype=np.float64)}) for cfg in cfgs]
    _weighted_sgd(train, lanes, functools.partial(_group_dro_rule, codes, len(groups)))
    for lane in lanes:
        lane.aux["group_weights"] = {g: float(lane.state["group_weights"][i])
                                     for i, g in enumerate(groups)}
    return lanes


# ---------------------------------------------------------------------------
# Ground-truth minority upsampling

def _upsample_minority(train: Dataset, cfgs: list[TrainConfig]) -> list[_Lane]:
    """Duplicates every example whose attribute disagrees with its label
    upweight_factor times, then runs plain ERM. Binary labels/attributes
    only."""
    if not train.has_group_annotations:
        raise InputError("upsample-minority needs training group annotations")
    require_binary_groups(train, UPSAMPLE_MINORITY)
    minority = ErrorSet(np.flatnonzero(train.attributes != train.labels), source_epoch=-1)
    base = strip_group_annotations(train)
    lanes = [_Lane(base, cfg, _upsampled_rows(len(base), minority, cfg.upweight_factor),
                   aux={"minority_set": minority}) for cfg in cfgs]
    _weighted_sgd(base, lanes)
    return lanes


# ---------------------------------------------------------------------------

_TRAINERS = {
    ERM: _erm,
    JTT: _two_stage,
    JTT_DYNAMIC: _two_stage,
    CVAR: _cvar,
    LFF: _lff,
    GROUP_DRO: _group_dro,
    UPSAMPLE_MINORITY: _upsample_minority,
}


def _require_annotated(val: Dataset) -> None:
    if not val.has_group_annotations:
        raise InputError("validation set needs group annotations for worst-group tracking")
    if len(val) == 0:
        raise InputError(f"validation set {val.name!r} has no rows to score epochs on")


def _raise_first_failure(lanes: list[_Lane]) -> None:
    """Raise the error of the first failed lane in order, the error training
    their configs one by one would raise."""
    for lane in lanes:
        if lane.error is not None:
            raise lane.error


def _scored(lanes: list[_Lane], val: Dataset) -> list[TrainResult]:
    """Raise the first failure; otherwise score every lane's trajectory on `val`."""
    _raise_first_failure(lanes)
    return [TrainResult([EpochMetrics(loss, *score) for loss, score
                         in zip(lane.losses, epoch_scores(lane.trajectory, val))],
                        lane.trajectory, lane.aux)
            for lane in lanes]


def train_population(train_data: Dataset, val: Dataset,
                     configs: Sequence[TrainConfig]) -> list[TrainResult]:
    """`train` for every config, configs with one trainer and hidden widths
    trained as the lanes of one population. Results equal `train`'s bit for
    bit when every config trains, warnings included. A failing config
    leaves its population and the others run on; then the first config in
    order whose training fails raises its error, as training them one by one
    would."""
    _require_annotated(val)
    populations: dict[tuple, list[int]] = {}
    for i, cfg in enumerate(configs):
        populations.setdefault((_TRAINERS[cfg.algorithm], cfg.hidden), []).append(i)
    lanes: list[_Lane] = [None] * len(configs)  # type: ignore[list-item]
    for (trainer, _), members in populations.items():
        try:
            trained = trainer(train_data, [configs[i] for i in members])
        except InputError:
            # A trainer's data check rejects every member alike, so the
            # population's first config fails here, after the earlier ones.
            _raise_first_failure(lanes[:members[0]])
            raise
        for i, lane in zip(members, trained):
            lanes[i] = lane
    return _scored(lanes, val)


def train(train_data: Dataset, val: Dataset, cfg: TrainConfig) -> TrainResult:
    """Train cfg.algorithm on `train_data`, a population of one. No trainer
    sees `val`: it only scores each epoch's model for the history the
    checkpoints come from."""
    return train_population(train_data, val, [cfg])[0]


def train_upweighted(train: Dataset, val: Dataset, cfg: TrainConfig,
                     error_set: ErrorSet) -> TrainResult:
    """The upweighting stage alone, refreshing as the full run does, `val`
    used as in `train`. Useful directly for error-set manipulation experiments."""
    _require_annotated(val)
    return _scored(_upweighted(train, [cfg], [error_set]), val)[0]
