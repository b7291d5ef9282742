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

from .analysis import ErrorSet, evaluate_groups
from .data import Dataset, strip_group_annotations
from .errors import ConfigError, InputError, TrainingWarning
from .models import (
    CROSS_ENTROPY,
    GCE,
    PROB_EPS,
    Architecture,
    LossSpec,
    Model,
    forward_batch,
    fresh_optimizer,
    grad,
    init_model,
    loss_values,
    predict,
    sgd_step,
)

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

_CROSS_ENTROPY = LossSpec(CROSS_ENTROPY)
_Run = tuple[list[float], list[Model], dict[str, Any]]  # losses, trajectory, extras


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


def epoch_scores(trajectory: Sequence[Model], data: Dataset) -> list[tuple[float, float]]:
    """Per-epoch (worst-group, average) accuracy on `data` of trajectory[1:]."""
    metrics = (evaluate_groups(model, data) for model in trajectory[1:])
    return [(m.worst_group_accuracy, m.average_accuracy) for m in metrics]


def _initial_model(train: Dataset, cfg: TrainConfig, init_stream: int = 0) -> Model:
    if len(train) == 0:
        raise InputError("training set is empty")
    arch = Architecture(train.n_features, cfg.hidden, max(2, int(train.labels.max()) + 1))
    return init_model(arch, _seedseq(cfg.seed, init_stream))


def _uniform(losses: np.ndarray, *_) -> np.ndarray:
    return np.full(len(losses), 1.0 / len(losses))


def _weighted_sgd(train: Dataset, cfg: TrainConfig,
                  weight_fn: Callable[..., np.ndarray] = _uniform, *,
                  identification: bool = False,
                  refresh_fn: Callable[[int, Model], Dataset | None] | None = None,
                  ) -> tuple[list[float], list[Model]]:
    """Minibatch SGD over `train` on the per-example cross-entropy, weighted
    uniformly by default, for the main stage's cfg.epochs epochs on seed
    streams 0 (initialization) and 1 (shuffling); identification=True runs
    the identification stage, cfg.id_epochs epochs on streams 2 and 3.

    Per epoch the example order is one seeded permutation; batches are its
    consecutive slices (the last may be short), each taking one forward pass
    that the losses, the weights and the gradient share. The weights are
    ``weight_fn(losses, batch indices, features, labels, probabilities)``,
    all pre-step; it may step a model of its own. Returns the per-epoch train
    loss, the mean over batches of the weighted batch objective, and the
    trajectory. Non-finite objectives or parameters raise FloatingPointError.
    """
    epochs, streams = (cfg.id_epochs, (2, 3)) if identification else (cfg.epochs, (0, 1))
    model = _initial_model(train, cfg, streams[0])
    opt = fresh_optimizer(model, cfg.learning_rate, cfg.momentum, cfg.l2)
    shuffle = _rng(cfg.seed, streams[1])
    train_losses, trajectory = [], [model]
    data = train
    for epoch in range(epochs):
        order = shuffle.permutation(len(data))
        objective, n_batches = 0.0, 0
        for start in range(0, len(data), cfg.batch_size):
            bidx = order[start:start + cfg.batch_size]
            xb, yb = data.features[bidx], data.labels[bidx]
            forward = forward_batch(model, xb, activations=True)
            losses = loss_values(forward[0], yb, _CROSS_ENTROPY)
            w = weight_fn(losses, bidx, xb, yb, forward[0])
            model, opt = sgd_step(model, grad(model, xb, yb, w, _CROSS_ENTROPY, forward), opt)
            objective += float(w @ losses)
            if not math.isfinite(objective):
                raise FloatingPointError(
                    f"training diverged: non-finite objective at epoch {epoch}, batch {n_batches}")
            n_batches += 1
        if not np.isfinite(model.params).all():
            raise FloatingPointError(
                f"training diverged: non-finite parameters after epoch {epoch}")
        train_losses.append(objective / n_batches)
        trajectory.append(model)
        if refresh_fn is not None:
            refreshed = refresh_fn(epoch, model)
            if refreshed is not None:
                data = refreshed
    return train_losses, trajectory


# ---------------------------------------------------------------------------
# Plain ERM

def _erm(train: Dataset, cfg: TrainConfig) -> _Run:
    """Minibatch SGD on the mean cross-entropy."""
    losses, trajectory = _weighted_sgd(strip_group_annotations(train), cfg)
    return losses, trajectory, {}


# ---------------------------------------------------------------------------
# Error-set machinery and the two-stage trainers

def compute_error_set(model: Model, train: Dataset, source_epoch: int = 0) -> ErrorSet:
    """Indices of training examples the model misclassifies (argmax ties go
    to the lowest label index)."""
    wrong = predict(model, train.features) != train.labels
    return ErrorSet(np.flatnonzero(wrong), source_epoch)


def build_upsampled(train: Dataset, error_set: ErrorSet, upweight_factor: int) -> Dataset:
    """Original examples in order, followed by (upweight_factor - 1) full
    copies of the error-set examples in index order. A factor of 1 or an
    empty set returns the input unchanged."""
    if upweight_factor < 1:
        raise InputError("upweight_factor must be >= 1")
    if upweight_factor == 1 or len(error_set) == 0:
        return train
    if error_set.indices[-1] >= len(train):
        raise InputError("error-set index out of range for this dataset")
    idx = np.concatenate([np.arange(len(train))]
                         + [error_set.indices] * (upweight_factor - 1))
    return train.subset(idx, name=f"{train.name}-upsampled")


def _upweighted(train: Dataset, cfg: TrainConfig, error_set: ErrorSet) -> _Run:
    """ERM on the upsampled dataset; only jtt-dynamic recomputes the error set
    from the current model, every cfg.refresh_every epochs (None: never)."""
    refresh_every = cfg.refresh_every if cfg.algorithm == JTT_DYNAMIC else None
    base = strip_group_annotations(train)
    if len(error_set) == 0:
        warnings.warn("error set is empty; upweighted training degenerates to ERM",
                      TrainingWarning, stacklevel=2)
    upsampled = build_upsampled(base, error_set, cfg.upweight_factor)
    refresh_epochs: list[int] = []
    refresh_sizes: list[int] = []

    def refresh(epoch: int, model: Model) -> Dataset | None:
        done = epoch + 1
        if refresh_every is None or done >= cfg.epochs or done % refresh_every:
            return None
        new_set = compute_error_set(model, base, source_epoch=done)
        refresh_epochs.append(done)
        refresh_sizes.append(len(new_set))
        return build_upsampled(base, new_set, cfg.upweight_factor)

    losses, trajectory = _weighted_sgd(upsampled, cfg, refresh_fn=refresh)
    return losses, trajectory, dict(error_set=error_set, refresh_epochs=refresh_epochs,
                                    refresh_sizes=refresh_sizes)


def _two_stage(train: Dataset, cfg: TrainConfig) -> _Run:
    """Two-stage training: fit an identification model for id_epochs, collect
    its misclassified examples, then retrain from scratch on the upsampled
    data as `_upweighted` does."""
    base = strip_group_annotations(train)
    _, id_trajectory = _weighted_sgd(base, cfg, identification=True)
    error_set = compute_error_set(id_trajectory[-1], base, source_epoch=cfg.id_epochs)
    losses, trajectory, aux = _upweighted(base, cfg, error_set)
    aux["identification_model"] = id_trajectory[-1]
    return losses, trajectory, aux


# ---------------------------------------------------------------------------
# CVaR: per-batch top-loss reweighting

def cvar_batch_weights(losses: np.ndarray, alpha: float) -> np.ndarray:
    """The loss-maximizing batch distribution under the cap 1/(alpha*B).

    The floor(alpha*B) highest losses (ties by lower index) receive the cap
    and the next entry takes the leftover mass, so the weights sum to 1 and
    the weighted sum equals the batch CVaR at level alpha. When alpha*B < 1
    the cap exceeds 1 and all mass lands on the single highest loss.
    """
    losses = np.asarray(losses, dtype=np.float64).ravel()
    b = len(losses)
    if b < 1:
        raise InputError("cvar_batch_weights needs at least one loss")
    if not (0.0 < alpha <= 1.0):
        raise InputError("alpha must lie in (0, 1]")
    cap = 1.0 / (alpha * b)
    k = min(b, int(alpha * b))
    order = np.lexsort((np.arange(b), -losses))
    weights = np.zeros(b)
    weights[order[:k]] = cap
    remainder = 1.0 - k * cap
    if k < b and remainder > 0.0:
        weights[order[k]] = remainder
    return weights


def _cvar(train: Dataset, cfg: TrainConfig) -> _Run:
    """Each minibatch step reweights examples by the capped top-loss
    distribution at level alpha before the gradient step."""
    losses, trajectory = _weighted_sgd(
        strip_group_annotations(train), cfg,
        lambda losses, *_: cvar_batch_weights(losses, cfg.alpha))
    return losses, trajectory, {}


# ---------------------------------------------------------------------------
# LfF: a deliberately biased model reweights the main model's examples

def lff_weight(p_bias, p_main):
    """log(p_bias) / (log(p_bias) + log(p_main)), probabilities clamped away
    from 0 and 1. Scalar or elementwise on arrays; W(a, b) + W(b, a) = 1."""
    pb = np.clip(np.asarray(p_bias, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    pm = np.clip(np.asarray(p_main, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    lb, lm = np.log(pb), np.log(pm)
    return lb / (lb + lm)


def _lff(train: Dataset, cfg: TrainConfig) -> _Run:
    """Interleaved updates of a bias model (generalized cross-entropy, which
    gradient-weights examples by p^q and so favours easy ones) and the main
    model (cross-entropy with per-example weights from `lff_weight`, using
    the pre-step probabilities of both models, normalized to sum 1). Per
    batch the bias model steps first, then the main model.

    Both models start from the identical seeded initialization, so gce_q=0
    reduces the whole procedure to ERM exactly.
    """
    base = strip_group_annotations(train)
    bias = _initial_model(base, cfg)
    opt_b = fresh_optimizer(bias, cfg.learning_rate, cfg.momentum, cfg.l2)
    gce = LossSpec(GCE, cfg.gce_q)

    def step_bias(_losses, _idx, xb: np.ndarray, yb: np.ndarray,
                  probs_m: np.ndarray) -> np.ndarray:
        nonlocal bias, opt_b
        rows = np.arange(len(yb))
        forward = forward_batch(bias, xb, activations=True)
        raw = lff_weight(forward[0][rows, yb], probs_m[rows, yb])
        w_bias = np.full(len(yb), 1.0 / len(yb))
        bias, opt_b = sgd_step(bias, grad(bias, xb, yb, w_bias, gce, forward), opt_b)
        return raw / raw.sum()

    losses, trajectory = _weighted_sgd(base, cfg, step_bias)
    return losses, trajectory, {"bias_model": bias}


# ---------------------------------------------------------------------------
# Group DRO: online exponentiated-gradient reweighting of group losses

def group_dro_update(group_losses: np.ndarray, weights: np.ndarray,
                     step_size: float) -> np.ndarray:
    """One exponentiated-gradient ascent step on the group-weight simplex:
    w_g <- w_g * exp(step_size * loss_g), renormalized. Groups absent from
    the batch contribute loss 0 and keep their weight (up to renorm)."""
    w = np.asarray(weights, dtype=np.float64).ravel()
    gl = np.asarray(group_losses, dtype=np.float64).ravel()
    if len(w) != len(gl):
        raise InputError("group_losses and weights must have equal length")
    if np.any(w < 0):
        raise InputError("weights must be non-negative")
    if not np.all(np.isfinite(gl)):
        raise InputError("group losses must be finite")
    out = w * np.exp(step_size * gl)
    return out / out.sum()


def _group_dro(train: Dataset, cfg: TrainConfig) -> _Run:
    """Oracle trainer with training group annotations: per batch, group mean
    losses update the adversarial group weights, then the model steps on the
    weight-averaged group losses."""
    if not train.has_group_annotations:
        raise InputError("group-dro needs training group annotations")
    groups, codes, _ = train.group_index()
    n_groups = len(groups)
    state = {"w": np.full(n_groups, 1.0 / n_groups)}

    def weight_fn(losses: np.ndarray, bidx: np.ndarray, *_) -> np.ndarray:
        batch_codes = codes[bidx]
        counts = np.bincount(batch_codes, minlength=n_groups)
        sums = np.bincount(batch_codes, weights=losses, minlength=n_groups)
        means = np.divide(sums, counts, out=np.zeros(n_groups), where=counts > 0)
        state["w"] = group_dro_update(means, state["w"], cfg.group_step_size)
        return state["w"][batch_codes] / counts[batch_codes]

    losses, trajectory = _weighted_sgd(train, cfg, weight_fn)
    weights = {g: float(state["w"][i]) for i, g in enumerate(groups)}
    return losses, trajectory, {"group_weights": weights}


# ---------------------------------------------------------------------------
# Ground-truth minority upsampling

def _upsample_minority(train: Dataset, cfg: TrainConfig) -> _Run:
    """Duplicates every example whose attribute disagrees with its label
    upweight_factor times, then runs plain ERM. Binary labels/attributes
    only."""
    if not train.has_group_annotations:
        raise InputError("upsample-minority needs training group annotations")
    for arr, what in ((train.attributes, "attributes"), (train.labels, "labels")):
        if len(np.setdiff1d(np.unique(arr), [0, 1])):
            raise InputError(f"upsample-minority requires binary {what}")
    minority = ErrorSet(np.flatnonzero(train.attributes != train.labels), source_epoch=-1)
    upsampled = build_upsampled(strip_group_annotations(train), minority, cfg.upweight_factor)
    losses, trajectory = _weighted_sgd(upsampled, cfg)
    return losses, trajectory, {"minority_set": minority}


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


def _scored(trainer: Callable[..., _Run], val: Dataset, *args) -> TrainResult:
    """Run `trainer(*args)`, then score its trajectory on `val`."""
    if not val.has_group_annotations:
        raise InputError("validation set needs group annotations for worst-group tracking")
    losses, trajectory, aux = trainer(*args)
    history = [EpochMetrics(loss, *score)
               for loss, score in zip(losses, epoch_scores(trajectory, val))]
    return TrainResult(history, trajectory, aux)


def train(train_data: Dataset, val: Dataset, cfg: TrainConfig) -> TrainResult:
    """Train cfg.algorithm on `train_data`. No trainer sees `val`: it only
    scores each epoch's model for the history the checkpoints come from."""
    return _scored(_TRAINERS[cfg.algorithm], val, train_data, cfg)


def train_upweighted(train: Dataset, val: Dataset, cfg: TrainConfig,
                     error_set: ErrorSet) -> TrainResult:
    """The upweighting stage alone, refreshing as the full run does, `val`
    used as in `train`. Useful directly for error-set manipulation experiments."""
    return _scored(_upweighted, val, train, cfg, error_set)
