"""The six training algorithms: plain ERM, two-stage error-set upweighting
(static and dynamically refreshed), per-batch top-loss reweighting (CVaR),
biased-pair reweighting (LfF), online worst-group reweighting (group DRO),
and ground-truth minority upsampling.

Seeding discipline
------------------
A single master seed in TrainConfig fans out to named PCG64 streams, each
made by `data._rng` (or `data._seedseq`) from the seed and its number:

* stream 0: initialization of the main model (the one a run returns),
* stream 1: per-epoch shuffling of the main training loop,
* streams 2/3: initialization/shuffling of the identification stage.

The lanes of one minibatch loop that share a seed, a shuffle stream, a
batch size and their rows, and refresh no rows, are an order family
(`_Family`): one generator for that seed and stream draws each epoch's
order once and every member takes it. Members end their epochs at the same
steps, so the family draws the sequence each member's lone run draws.

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
Every trainer runs a population: one lane (`_Lane`) per config (the
two-stage configs share identification lanes, see `_two_stage`), all lanes
of one architecture going through one minibatch loop (`_weighted_sgd`),
each model (one per lane, two for LfF) on cross-entropy weighted by its
trainer's rule (LfF's bias model's rule makes it generalized
cross-entropy). The lanes of one batch size are a cohort: while each has a
full batch left they step as one, one stacked matmul per layer, and a
lane's short batch or epoch end touches only its own rows. When every lane
of a step reads one order at one position (a family's members, or a lone
lane), the step gathers its batch once, and the kernel broadcasts it over
all the lanes' model rows. A lane computes bit for bit what training its
config alone computes: `train` is a population of one, and
`train_population` trains a grid. Lanes fail alone, and `_scored` raises
the error of the first failed config in order.

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
from .analysis import ErrorSet, _check_in_range
from .analysis import evaluate_groups  # noqa: F401 (bench/layers.py wraps this binding)
from .data import Dataset, _rng, _seedseq, require_binary_groups, strip_group_annotations
from .errors import ConfigError, InputError, TrainingWarning
from .models import (
    PROB_EPS,
    Architecture,
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
        # Types first, so that the range checks compare numbers only.
        for names, types, kind in _FIELD_TYPES:
            for name in names:
                value = getattr(self, name)
                if isinstance(value, bool) or not isinstance(value, types):
                    raise ConfigError(f"{name}: must be {kind}")
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
        object.__setattr__(self, "hidden", models.hidden_widths(self.hidden, ConfigError))
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


_INTEGER, _NUMBER, _NONE = (int, np.integer), (int, float, np.integer, np.floating), (type(None),)
# TrainConfig's numeric fields: (names, accepted types, what errors call them).
_FIELD_TYPES = ((("epochs", "batch_size", "seed"), _INTEGER, "an integer"),
                (("id_epochs", "upweight_factor", "refresh_every"), _INTEGER + _NONE, "an integer"),
                (("learning_rate", "momentum", "l2", "group_step_size"), _NUMBER, "a number"),
                (("alpha", "gce_q"), _NUMBER + _NONE, "a number"))


class EpochMetrics(NamedTuple):
    train_loss: float
    val_worst_group: float
    val_average: float


@dataclass(frozen=True)
class Checkpoint:
    epoch: int  # -1 means the pre-training initialization
    model: Model


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
        epochs = {criterion: select_checkpoint(scores, criterion)[0] for criterion in CRITERIA}
        return {criterion: Checkpoint(epoch, self.trajectory[epoch + 1])
                for criterion, epoch in epochs.items()}


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


class _Family:
    """An order family's generator (`_rng` of its seed and shuffle stream),
    how many epoch orders it has drawn, and the last one. Every member
    holds it: it draws on, whichever members have left."""

    def __init__(self, seed: int, stream: int):
        self.shuffle, self.drawn, self.order = _rng(seed, stream), 0, None


class _Lane:
    """One config's run in a population: its training view (an int32 index
    map into the population's base rows, so upsampling copies no data; all
    of them, in order, by default), epochs, shuffle `stream`, refresh rule,
    extras and SGD `state`, each entry one row per model (the run's main
    model first, then LfF's bias model; all start from the lane's own
    initial model, drawn from its init stream): parameters, velocity,
    (models, 1)-shaped learning_rate, momentum and l2, and the entries the
    trainer passes, the weight rule's. `_weighted_sgd` gives it its order
    `family`, fills in the per-epoch losses, the trajectory and, if the
    lane fails, its error, and leaves the final state in `state`."""

    def __init__(self, base: Dataset, cfg: TrainConfig, rows: np.ndarray | None = None, *,
                 identification: bool = False,
                 refresh: Callable[[int, Model], np.ndarray | None] | None = None,
                 aux: dict[str, Any] | None = None,
                 state: dict[str, np.ndarray] | None = None, n_models: int = 1):
        if len(base) == 0:
            raise InputError("training set is empty")
        self.cfg, self.refresh, self.n_models = cfg, refresh, n_models
        self.rows = np.arange(len(base), dtype=np.int32) if rows is None else rows
        self.epochs, (init, self.stream) = ((cfg.id_epochs, (2, 3)) if identification
                                            else (cfg.epochs, (0, 1)))
        self.family: _Family | None = None
        self.losses: list[float] = []
        arch = Architecture(base.n_features, cfg.hidden, max(2, int(base.labels.max()) + 1))
        self.trajectory = [init_model(arch, _seedseq(cfg.seed, init))]
        self.aux: dict[str, Any] = {} if aux is None else aux
        params = self.trajectory[0].params
        self.state: dict[str, np.ndarray] = {
            "params": np.tile(params, (n_models, 1)),
            "velocity": np.zeros((n_models, params.size)),
            **{name: np.full((n_models, 1), getattr(cfg, name), dtype=np.float64)
               for name in ("learning_rate", "momentum", "l2")},
            **(state or {})}
        self.error: Exception | None = None

    @property
    def active(self) -> bool:
        return self.error is None and len(self.losses) < self.epochs

    def start_epoch(self) -> None:
        """Take the epoch's example order from the lane's family: the first
        member to start the epoch draws it from the family's shuffle stream,
        a shuffle of an int64 copy of the rows (the swaps `permutation`
        makes), and every member takes that array."""
        family = self.family
        if family.drawn == len(self.losses):
            order = self.rows.astype(np.int64)
            family.shuffle.shuffle(order)
            family.order, family.drawn = order.astype(self.rows.dtype), family.drawn + 1
        self.order = family.order
        self.pos, self.objective, self.n_batches = 0, 0.0, 0

    def end_epoch(self, params: np.ndarray) -> None:
        """Close the epoch on the main model's `params`: fail on non-finite
        ones; else record the epoch's loss and model, refresh the view and
        start the next epoch, if any."""
        if not np.isfinite(params).all():
            self.error = FloatingPointError(
                f"training diverged: non-finite parameters after epoch {len(self.losses)}")
            return
        model = Model(self.trajectory[0].arch, params)
        self.losses.append(self.objective / self.n_batches)
        self.trajectory.append(model)
        if self.refresh is not None:
            rows = self.refresh(len(self.losses) - 1, model)
            if rows is not None:
                self.rows = rows
        if self.active:
            self.start_epoch()


def _uniform(_state, _shape: tuple[int, int]) -> Callable:
    """Uniform weights 1/b: `_steps` allocates every weight buffer at 1/b,
    so a step writes nothing."""
    return lambda *_: None


def _step(model: Model, opt: OptimizerState, state: dict[str, np.ndarray], rule: Callable,
          xb: np.ndarray, index: np.ndarray, ridx: np.ndarray, losses: np.ndarray,
          weights: np.ndarray) -> tuple[Model, OptimizerState]:
    """One SGD step of the stacked models on their batches, each on its
    rule-weighted cross-entropy; returns the stepped model and optimizer
    state, and leaves its clamped label probabilities p in `losses` and the
    built rule's weights, ``rule(state, ridx, p, weights)``, in `weights`."""
    forward = models._forward_cached(model, xb)
    p = models._clamp(forward[0].take(index), out=losses)
    rule(state, ridx, p, weights)
    return sgd_step(model, models._backprop(model, forward, index,
                                            models._grad_scale(p, weights)), opt)


# A chunk's buffers hold at most this many cells (256 KB of float64) each.
# On the reference data (10 features, batches of 64) that is the gathered
# features of 51 steps of one batch, or of 2 steps of 24 lanes' batches, or
# the label probabilities of 28 steps of 18 model rows (9 LfF lanes on one
# order); a chunk always takes at least one step.
_CHUNK_CELLS = 1 << 15


def _steps(base: Dataset, rule: Callable, state: dict[str, np.ndarray], lanes: list[_Lane],
           b: int, n_steps: int) -> None:
    """`n_steps` steps of batch length b by `lanes`, each from its position
    in its order, on `state`, the stack of their rows (a lane's m in turn),
    which it leaves stepped. The weight rule is built once per call:
    ``rule(state, (rows, b))`` sees the stack's entries other than params
    and velocity and returns ``weigh``; ``weigh(state, base rows, label
    probabilities, out)`` writes a step's weights into `out`, all pre-step
    with a leading row axis and the probabilities clamped as the losses take
    them, and may replace its rule's entries of `state`. Each chunk's weight
    buffer starts at 1/b: `_uniform` leaves it, other rules overwrite it.

    A chunk is a run of consecutive steps whose buffers hold at most
    `_CHUNK_CELLS` cells each. Per chunk the lanes gather their batches'
    features as one (steps, batches, batch, features) array, so that each
    step reads a contiguous slice, and their flat label indices in one
    expression. When every lane reads one order at one position (an order
    family's members, see `_weighted_sgd`), a step's batches are one batch,
    which the kernel broadcasts over every model row; otherwise a lane's
    batch is gathered once per model. Each step leaves its clamped
    label probabilities and weights in the chunk's buffers, one pass turns
    the main models' into cross-entropies, and one stacked (1, b) @ (b, 1)
    matmul gives every step's weighted batch objective, the products a lone
    step takes. A lane's running objective and its steps' objectives fill a
    column of one (steps + 1, lanes) array, folded down the step axis: the
    same sequential sum as adding step by step. A non-finite objective fails
    its lane, with a FloatingPointError naming the epoch and batch; the lane
    steps on to the end of the call.
    """
    arch, m, k = lanes[0].trajectory[0].arch, lanes[0].n_models, len(lanes)
    model = models._adopt(Model, arch=arch, params=state.pop("params"))
    opt = models._adopt(OptimizerState, learning_rate=state["learning_rate"],
                        momentum=state["momentum"], l2=state["l2"],
                        velocity=state.pop("velocity"))
    weigh = rule(state, (k * m, b))
    first = lanes[0]
    shared = all(lane.order is first.order and lane.pos == first.pos for lane in lanes)
    readers = [first] if shared else lanes
    rows = np.concatenate([lane.order[lane.pos:lane.pos + n_steps * b]
                           for lane in readers]).reshape(len(readers), n_steps * b)
    batches = 1 if shared else k * m  # the batches a step gathers
    offsets = models._label_offsets((k * m, b), arch.n_classes)
    objectives = np.empty((n_steps + 1, k))
    objectives[0] = [lane.objective for lane in lanes]
    per_chunk = max(1, _CHUNK_CELLS // (max(batches * base.n_features, k * m) * b))
    for start in range(0, n_steps, per_chunk):
        stop = min(start + per_chunk, n_steps)
        ridx = rows[:, start * b:stop * b].reshape(len(readers), stop - start, b).swapaxes(0, 1)
        ridx = ridx.repeat(m, axis=1) if batches > k else ridx  # a batch per model
        xs = base.features.take(ridx, axis=0)
        index = offsets + base.labels.take(ridx) * b
        losses, weights = np.empty(index.shape), np.full(index.shape, 1.0 / b)
        for step in zip(xs, index, ridx, losses, weights):
            model, opt = _step(model, opt, state, weigh, *step)
        main = losses[:, ::m]
        models._losses(main, 0.0, out=main)
        objectives[start + 1:stop + 1] = (weights[:, ::m, None, :]
                                          @ main[:, :, :, None])[:, :, 0, 0]
    state.update(params=model.params, velocity=opt.velocity)
    objectives = np.add.accumulate(objectives)
    finite = np.isfinite(objectives[1:])
    failed, first_bad = (~finite.all(axis=0)).tolist(), finite.argmin(axis=0).tolist()
    for lane, bad, first, objective in zip(lanes, failed, first_bad, objectives[-1].tolist()):
        if bad:
            lane.error = FloatingPointError(
                f"training diverged: non-finite objective at epoch "
                f"{len(lane.losses)}, batch {lane.n_batches + first}")
        lane.objective = objective
        lane.pos += n_steps * b
        lane.n_batches += n_steps


def _weighted_sgd(base: Dataset, lanes: list[_Lane],
                  rule: Callable[..., Callable] = _uniform) -> None:
    """Minibatch SGD of a population of lanes (one architecture and model
    count m) over their views of `base`, each model on its per-example
    cross-entropy, weighted by `rule` (uniformly by default), which each
    `_steps` call builds once for its steps (see `_steps`).

    Per epoch a lane's example order is one shuffle of its rows by its
    shuffle stream; batches are its consecutive slices (the last may be
    short), each taking one forward pass per model that the losses, the
    weights and the gradient share. A lane's train loss per epoch is the
    mean over its batches of its main model's objective.

    Lanes of one seed, shuffle stream, batch size and rows (compared with
    `np.array_equal` within a key of the other three and the row count)
    and no refresh rule are an order family: they share one `_Family`,
    whose generator draws each epoch's order once, and every member takes
    that array. A refreshing lane is a family of its own.

    The lanes of one batch size b form a cohort, which trains on its own:
    lanes share no state, so only each lane's own order of steps counts. A
    cohort concatenates its lanes' `state`s into a stack, one array per
    entry with a lane's m rows in turn, and keeps it until a lane leaves
    (done or failed); then every lane's `state` takes back its rows, and the
    lanes left stack anew. While every lane has a full batch left, the
    whole stack steps, one matmul per layer for all its rows, up to the
    nearest lane's event. A lane's events touch only its own rows:
    - a short batch: the lane steps with the lanes whose short batches have
      its length then, their rows gathered from the stack (`a[rows]`); the
      entries the step replaced (params, velocity and any the rule
      replaced) are scattered back into fresh copies. The whole stack steps
      once when that is every lane, as in every lone run and every grid of
      equal lengths;
    - its epoch end (`_Lane.end_epoch`): the check of its main model's
      parameters, its loss and model, its refresh and its next order.
    A failed lane records a FloatingPointError naming where and leaves, and
    the other lanes run to their own ends.
    """
    arch, m = lanes[0].trajectory[0].arch, lanes[0].n_models
    models._check_labels(base.labels, arch.n_classes)
    firsts: dict[tuple, list[_Lane]] = {}  # each family's first lane, by key
    cohorts: dict[int, list[_Lane]] = {}
    for lane in lanes:
        peers = [] if lane.refresh is not None else firsts.setdefault(
            (lane.cfg.seed, lane.stream, lane.cfg.batch_size, len(lane.rows)), [])
        lane.family = next((peer.family for peer in peers
                            if np.array_equal(peer.rows, lane.rows)), None)
        if lane.family is None:
            lane.family = _Family(lane.cfg.seed, lane.stream)
            peers.append(lane)
        if lane.active:
            lane.start_epoch()
        cohorts.setdefault(lane.cfg.batch_size, []).append(lane)

    for b, running in cohorts.items():
        while running := [lane for lane in running if lane.active]:
            state = {name: np.concatenate([lane.state[name] for lane in running])
                     for name in running[0].state}
            while all(lane.active for lane in running):
                n_steps = min(len(lane.order) - lane.pos for lane in running) // b
                if n_steps:
                    _steps(base, rule, state, running, b, n_steps)
                # A lane that has no full batch left ends its epoch, after
                # its short batch if it has one.
                ends, short = [], {}
                for i, lane in enumerate(running):
                    left = len(lane.order) - lane.pos
                    if left < b and lane.error is None:
                        ends.append(i)
                        if left:
                            short.setdefault(left, []).append(i)
                for length, members in short.items():
                    if len(members) == len(running):
                        _steps(base, rule, state, running, length, 1)
                        continue
                    rows = (np.array(members)[:, None] * m + np.arange(m)).ravel()
                    gathered = {name: a[rows] for name, a in state.items()}
                    stepped = dict(gathered)
                    _steps(base, rule, stepped, [running[i] for i in members], length, 1)
                    for name, a in stepped.items():
                        if a is not gathered[name]:
                            state[name] = state[name].copy()
                            state[name][rows] = a
                for i in ends:
                    if running[i].error is None:
                        running[i].end_epoch(state["params"][i * m])
            for i, lane in enumerate(running):
                lane.state = {name: a[i * m:(i + 1) * m] for name, a in state.items()}
                if not lane.active:
                    lane.rows = lane.order = lane.family = None


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
    return np.concatenate([np.arange(n)] + [error_set.indices] * copies, dtype=np.int32)


def build_upsampled(train: Dataset, error_set: ErrorSet, upweight_factor: int) -> Dataset:
    """`_upsampled_rows` as a dataset. Training never builds one: this is
    kept only because bench/layers.py wraps the name."""
    if upweight_factor < 1:
        raise InputError("upweight_factor must be >= 1")
    _check_in_range(error_set, train, "build_upsampled")
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


def _identification_key(cfg: TrainConfig) -> tuple:
    """What the identification stage reads of a config other than id_epochs;
    floats by their hex text, so that -0.0 and 0.0 stay apart."""
    return (cfg.seed, cfg.batch_size, cfg.hidden,
            *(float(getattr(cfg, name)).hex() for name in ("learning_rate", "momentum", "l2")))


def _two_stage(train: Dataset, cfgs: list[TrainConfig]) -> list[_Lane]:
    """Two-stage training: fit an identification model for id_epochs, collect
    its misclassified examples, then retrain from scratch on the upsampled
    data as `_upweighted` does.

    Configs of one `_identification_key` share one identification run, as
    long as their longest id_epochs: a config's identification model is the
    run's model after its id_epochs (the initial model for 0). Error sets
    are deduplicated by model parameters and id_epochs (a set records its
    source epoch), so the equal initial models of different runs share
    one. A run that fails before a config's id_epochs is done is that
    config's run: it raises the error training the config alone raises, at
    the same epoch and batch."""
    base = strip_group_annotations(train)
    keys = [_identification_key(cfg) for cfg in cfgs]
    longest: dict[tuple, TrainConfig] = {}
    for key, cfg in zip(keys, cfgs):
        if key not in longest or cfg.id_epochs > longest[key].id_epochs:
            longest[key] = cfg
    runs = {key: _Lane(base, cfg, identification=True) for key, cfg in longest.items()}
    _weighted_sgd(base, list(runs.values()))
    lanes = [runs[key] for key in keys]  # a failed run stands for each config it fails
    ready = [i for i, cfg in enumerate(cfgs) if cfg.id_epochs < len(lanes[i].trajectory)]
    id_models = {i: lanes[i].trajectory[cfgs[i].id_epochs] for i in ready}
    model_keys = {i: (cfgs[i].id_epochs, model.arch, model.params.tobytes())
                  for i, model in id_models.items()}
    error_sets: dict[tuple, ErrorSet] = {}
    for i, key in model_keys.items():
        if key not in error_sets:
            error_sets[key] = compute_error_set(id_models[i], base, source_epoch=cfgs[i].id_epochs)
    if ready:
        stage = _upweighted(base, [cfgs[i] for i in ready],
                            [error_sets[model_keys[i]] for i in ready])
        for i, lane in zip(ready, stage):
            lane.aux["identification_model"] = id_models[i]
            lanes[i] = lane
    return lanes


# ---------------------------------------------------------------------------
# CVaR: per-batch top-loss reweighting

def _cvar_weigher(alpha, shape: tuple[int, ...]) -> Callable:
    """CVaR's weight per descending rank (the cap 1/(alpha*b) below
    floor(alpha*b), the remainder at it, 0 after) for losses of `shape`,
    alpha a scalar or a column; the function it returns scatters them, given
    the negated losses, to each row's stable order (ties by lower index)."""
    b = shape[-1]
    cap, k = 1.0 / (alpha * b), np.floor(alpha * b)  # alpha <= 1, so k <= b
    remainder = np.maximum(1.0 - k * cap, 0.0)
    rank = np.arange(b)
    ranked = np.where(rank < k, cap, (rank == k) * remainder)
    starts = np.arange(0, math.prod(shape), b).reshape(shape[:-1] + (1,))

    def weigh(negated: np.ndarray, out: np.ndarray) -> np.ndarray:
        out.put(np.argsort(negated, axis=-1, kind="stable") + starts, ranked)
        return out

    return weigh


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
    if not np.isfinite(losses).all():
        raise InputError("losses must be finite")
    if not (0.0 < alpha <= 1.0):
        raise InputError("alpha must lie in (0, 1]")
    return _cvar_weigher(alpha, losses.shape)(-losses, np.empty(losses.shape))


def _cvar(train: Dataset, cfgs: list[TrainConfig]) -> list[_Lane]:
    """Each minibatch step reweights examples by the capped top-loss
    distribution at level alpha before the gradient step."""
    base = strip_group_annotations(train)
    lanes = [_Lane(base, cfg, state={"alpha": np.full((1, 1), cfg.alpha)}) for cfg in cfgs]
    _weighted_sgd(base, lanes, _cvar_rule)
    return lanes


def _cvar_rule(state: dict[str, np.ndarray], shape: tuple[int, int]) -> Callable:
    """`_cvar_weigher` at each lane's `alpha`, built once; a step's negated
    cross-entropies are log p."""
    weigh = _cvar_weigher(state["alpha"], shape)
    return lambda _state, _ridx, p, out: weigh(np.log(p), out)


# ---------------------------------------------------------------------------
# LfF: a deliberately biased model reweights the main model's examples

def lff_weight(p_bias, p_main):
    """log(p_bias) / (log(p_bias) + log(p_main)), probabilities clamped away
    from 0 and 1. Scalar or elementwise on arrays; W(a, b) + W(b, a) = 1."""
    pb = np.asarray(p_bias, dtype=np.float64).clip(PROB_EPS, 1.0 - PROB_EPS)
    pm = np.asarray(p_main, dtype=np.float64).clip(PROB_EPS, 1.0 - PROB_EPS)
    lb, lm = np.log(pb), np.log(pm)
    return lb / (lb + lm)


def _lff_rule(state: dict[str, np.ndarray], shape: tuple[int, int]) -> Callable:
    """Per lane (main row, then bias row): the main model's normalized LfF
    weights, and the bias model's generalized cross-entropy at its lane's
    `gce_q` as uniform weights times p^q. Built once: which bias rows have
    q = 0.5, and a buffer for p^q. Each bias row computes p^q once, by
    `np.sqrt` where q = 0.5 and `np.power` elsewhere, so it has the bits
    `models._gce_weights` gives it."""
    uniform, q = 1.0 / shape[-1], state["gce_q"][1::2]
    half = q == 0.5
    power, every_half = ~half, half.all()
    gce = np.empty((len(q), shape[-1]))

    def weigh(_state, _ridx, p: np.ndarray, out: np.ndarray) -> None:
        raw = lff_weight(p[1::2], p[0::2])
        np.divide(raw, raw.sum(axis=-1, keepdims=True), out=out[0::2])
        if every_half:
            np.sqrt(p[1::2], out=gce)
        else:
            np.sqrt(p[1::2], out=gce, where=half)
            np.power(p[1::2], q, out=gce, where=power)
        np.multiply(gce, uniform, out=out[1::2])

    return weigh


def _lff(train: Dataset, cfgs: list[TrainConfig]) -> list[_Lane]:
    """Interleaved updates of a bias model (generalized cross-entropy, which
    gradient-weights examples by p^q and so favours easy ones) and the main
    model (cross-entropy with per-example weights from `lff_weight`, using
    the pre-step probabilities of both models, normalized to sum 1). The two
    models are the rows of one lane and step on each batch together, both
    on cross-entropy: `_lff_rule` weights the bias model's examples by p^q.

    Both models start from the identical seeded initialization, so gce_q=0
    reduces the whole procedure to ERM exactly.
    """
    base = strip_group_annotations(train)
    lanes = [_Lane(base, cfg, n_models=2, state={"gce_q": np.full((2, 1), cfg.gce_q)})
             for cfg in cfgs]
    _weighted_sgd(base, lanes, _lff_rule)
    for lane in lanes:
        lane.aux["bias_model"] = Model(lane.trajectory[0].arch, lane.state["params"][1])
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
    if not np.all(w >= 0):  # NaN fails too
        raise InputError("weights must be non-negative")
    if not np.all(w.sum(axis=-1) > 0):
        raise InputError("weights must have a positive sum")
    if not np.all(np.isfinite(gl)):
        raise InputError("group losses must be finite")
    step = np.asarray(step_size, dtype=np.float64)
    if not (np.isfinite(step).all() and (step >= 0).all()):
        raise InputError("step_size must be finite and non-negative")
    return _group_dro_weights(gl, w, step_size)


def _group_dro_weights(group_losses: np.ndarray, weights: np.ndarray, step_size) -> np.ndarray:
    """`group_dro_update` unchecked: non-finite losses give NaN weights."""
    out = weights * np.exp(step_size * group_losses)
    return out / out.sum(axis=-1, keepdims=True)


def _group_dro_rule(codes: np.ndarray, n_groups: int, state: dict[str, np.ndarray],
                    shape: tuple[int, int]) -> Callable:
    """Per lane, the batch's group mean losses update the group weights; an
    example's weight is its group's weight over its group's batch count.
    Built once: the lanes' (lane, group) bin offsets. A step floors the
    counts at 1 (an absent group's sum is 0, its mean 0) and gathers its
    examples' weights from the group weights over the counts."""
    n_lanes, n_bins = shape[0], shape[0] * n_groups
    lane_bins, step_size = n_groups * np.arange(n_lanes)[:, None], state["group_step_size"]

    def weigh(state: dict[str, np.ndarray], ridx: np.ndarray, p: np.ndarray,
              out: np.ndarray) -> None:
        bins = codes.take(ridx) + lane_bins
        counts = np.maximum(np.bincount(bins.ravel(), minlength=n_bins), 1)
        sums = np.bincount(bins.ravel(), weights=models._losses(p, 0.0).ravel(),
                           minlength=n_bins)
        w = _group_dro_weights((sums / counts).reshape(n_lanes, n_groups),
                               state["group_weights"], step_size)
        state["group_weights"] = w
        # Every bin is in range: the clip mode only spares take its buffer.
        (w.ravel() / counts).take(bins, out=out, mode="clip")

    return weigh


def _group_dro(train: Dataset, cfgs: list[TrainConfig]) -> list[_Lane]:
    """Oracle trainer with training group annotations: per batch, group mean
    losses update the adversarial group weights, then the model steps on the
    weight-averaged group losses."""
    if not train.has_group_annotations:
        raise InputError("group-dro needs training group annotations")
    groups, codes, _ = train.group_index()
    lanes = [_Lane(train, cfg, state={
        "group_weights": np.full((1, len(groups)), 1.0 / len(groups)),
        "group_step_size": np.full((1, 1), cfg.group_step_size, dtype=float)}) for cfg in cfgs]
    _weighted_sgd(train, lanes, functools.partial(_group_dro_rule, codes, len(groups)))
    for lane in lanes:
        lane.aux["group_weights"] = {g: float(w) for g, w
                                     in zip(groups, lane.state["group_weights"][0])}
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
    _check_in_range(error_set, train, "train_upweighted")
    return _scored(_upweighted(train, [cfg], [error_set]), val)[0]
