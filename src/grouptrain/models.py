"""Differentiable model core: small softmax classifiers with analytic gradients.

Two architecture families are supported: multinomial logistic regression
(no hidden layers) and fully-connected networks with tanh hidden layers.
Parameters live in one flat float64 vector so the optimizer, checkpointing
and finite-difference checks stay trivial. Every operation here is a pure
function: inputs are never mutated and identical inputs produce bit-identical
outputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

# Probabilities are clamped to [PROB_EPS, 1] before logs/powers so confident
# wrong predictions never produce infinities.
PROB_EPS = 1e-12

CROSS_ENTROPY = "cross-entropy"
GCE = "generalized-cross-entropy"

_LOSS_KINDS = (CROSS_ENTROPY, GCE)


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


def _adopt(cls, **fields):
    """A frozen dataclass from already valid, frozen fields: no __post_init__."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class Architecture:
    """Shape descriptor: input width, tanh hidden widths (may be empty),
    classes."""

    input_dim: int
    hidden: tuple[int, ...]
    n_classes: int

    def __post_init__(self):
        if self.input_dim < 1 or self.n_classes < 2:
            raise InputError("architecture needs input_dim >= 1 and n_classes >= 2")
        if any(h < 1 for h in self.hidden):
            raise InputError("hidden widths must be positive")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))

    def layer_shapes(self) -> list[tuple[int, int]]:
        """(fan_out, fan_in) per layer, input to output."""
        widths = (self.input_dim,) + self.hidden + (self.n_classes,)
        return [(widths[i + 1], widths[i]) for i in range(len(widths) - 1)]

    @property
    def n_params(self) -> int:
        return sum(o * i + o for o, i in self.layer_shapes())

    @functools.cached_property
    def _layout(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """Per layer: fan_out, fan_in, and where W, b and the next layer
        start in the flat parameter vector."""
        out, pos = [], 0
        for fan_out, fan_in in self.layer_shapes():
            out.append((fan_out, fan_in, pos, pos + fan_out * fan_in,
                        pos + fan_out * fan_in + fan_out))
            pos = out[-1][-1]
        return tuple(out)


@dataclass(frozen=True)
class LossSpec:
    """Selects the per-example loss; gce_q only applies to the GCE kind.

    gce_q = 0 is the limiting case and evaluates exactly as cross-entropy.
    """

    kind: str
    gce_q: float | None = None

    def __post_init__(self):
        if self.kind not in _LOSS_KINDS:
            raise InputError(f"unknown loss kind {self.kind!r}")
        if self.kind == GCE:
            if self.gce_q is None or not (0.0 <= self.gce_q < 1.0):
                raise InputError("generalized cross-entropy needs gce_q in [0, 1)")
        elif self.gce_q is not None:
            raise InputError(f"gce_q is only valid for {GCE!r}")


@dataclass(frozen=True)
class Model:
    """An architecture plus its flat parameter vector (read-only float64)."""

    arch: Architecture
    params: np.ndarray

    def __post_init__(self):
        p = _frozen(np.asarray(self.params, dtype=np.float64).ravel())
        if p.size != self.arch.n_params:
            raise InputError(
                f"params length {p.size} does not match architecture "
                f"({self.arch.n_params} expected)"
            )
        object.__setattr__(self, "params", p)


@dataclass(frozen=True)
class OptimizerState:
    """SGD-with-momentum state; velocity matches the parameter vector."""

    learning_rate: float
    momentum: float = 0.9
    l2: float = 0.0
    velocity: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise InputError("learning_rate must be > 0")
        if not (0.0 <= self.momentum < 1.0):
            raise InputError("momentum must be in [0, 1)")
        if self.l2 < 0:
            raise InputError("l2 must be >= 0")
        if self.velocity is None:
            raise InputError("velocity must be provided (zeros for a fresh state)")
        object.__setattr__(self, "velocity", _frozen(self.velocity))


def init_model(arch: Architecture, seed) -> Model:
    """Seeded initialization: per layer, weights then biases drawn uniformly
    from [-s, s] with s = 1/sqrt(fan_in).

    `seed` may be an int or a numpy SeedSequence; the generator is PCG64.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    chunks = []
    for fan_out, fan_in in arch.layer_shapes():
        s = 1.0 / np.sqrt(fan_in)
        chunks.append(rng.uniform(-s, s, size=fan_out * fan_in))
        chunks.append(rng.uniform(-s, s, size=fan_out))
    return Model(arch, np.concatenate(chunks))


def unpack_params(arch: Architecture, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a flat vector into per-layer (W, b) views, W shaped (out, in).
    Leading axes of `params` (the lanes of a population) lead W and b too."""
    lead = params.shape[:-1]
    return [(params[..., w:b].reshape(lead + (fan_out, fan_in)), params[..., b:end])
            for fan_out, fan_in, w, b, end in arch._layout]


# The private kernel below takes an optional leading lane axis: params
# (K, P) with features (K, B, input_dim) run K models at once, one stacked
# matmul per layer. Stacked matmul, gathers, elementwise ops and reductions
# along one lane's axes equal the 2-D calls slice by slice, bit for bit
# (np.einsum would not), so a lane computes exactly what a lone model does.
# Features without the lane axis broadcast: K models score the same rows at
# once, each as it would alone.
#
# The output layer is class-major: its logits, probabilities and deltas are
# (..., C, rows). Row-major, the short class axis comes last, and each op
# that broadcasts over it (the bias add, the softmax's subtraction and
# division, the delta scaling) runs one NumPy inner loop per row; class-major
# it runs one per class, over all rows. The logits are w @ x^T, which gives
# the bits of (x @ w^T)^T. The softmax reduces over the classes as a fold of
# class rows. The max fold is exact for any C: max does not round, NaN
# propagates as in `max`, and a signed-zero difference vanishes in `exp`.
# NumPy's `sum` adds a last axis of up to 7 entries left to right, so the
# sum fold equals it bit for bit up to _SUM_FOLD_MAX classes; from 8 on it
# sums in pairwise blocks, so the sum runs over a row-major copy. The label
# entries are read and written through one flat index per row.
#
# Backprop keeps the bits of the row-major form delta^T @ x for the output
# weights by computing (x^T @ delta^T)^T; the plainer delta @ x rounds
# differently. The output bias gradient is np.add.accumulate along the rows:
# the same left fold over rows as a row-major delta's sum(axis=-2), in one
# inner loop per class. Hidden layers stay row-major, as their tanh
# activations are: the output delta is copied to (..., rows, C) once, and
# their bias gradients sum rows as `_row_sum` does. `tests/oracles.py` keeps
# the row-major reductions, and `TestClassAxisKernel`, `TestStepKernel` and
# `TestKernelLayout` fail if a NumPy or BLAS release changes any of these
# orders.
#
# The hidden bias gradient sums a layer's deltas over the batch rows.
# Reducing the middle axis of (K, b, h) deltas runs NumPy's inner loop over
# one row's h entries at a time; in a (b, K, h) copy it runs over all K * h
# entries of a row. Both add the rows in order, so they give the same bits,
# and from a few lanes on the copy plus the row-major sum costs less.
#
# Clamps call the ndarray.clip method, one ufunc pass behind a thin Python
# wrapper. The np.clip function adds an array-function dispatch that costs
# more than the clamp itself on a batch, and np.maximum then np.minimum (the
# same values, NaN included) a second pass that costs more than the wrapper.
# The softmax and `sgd_step` write results into temporaries they already
# own (out=), and a training step's losses go straight into its chunk's
# buffer: the same operations in the same order, fewer allocations.

_SUM_FOLD_MAX = 7


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the class axis of class-major (..., C, rows) logits."""
    n_classes = logits.shape[-2]
    top = logits[..., :1, :]
    for c in range(1, n_classes):
        top = np.maximum(top, logits[..., c:c + 1, :])
    e = np.subtract(logits, top)
    np.exp(e, out=e)
    if n_classes > _SUM_FOLD_MAX:
        return np.divide(e, e.swapaxes(-1, -2).copy().sum(axis=-1)[..., None, :], out=e)
    total = e[..., :1, :] + e[..., 1:2, :]
    for c in range(2, n_classes):
        total += e[..., c:c + 1, :]
    return np.divide(e, total, out=e)


def _forward_cached(model: Model, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Class-major (..., C, rows) probabilities plus the per-layer row-major
    activations needed for backprop."""
    *hidden, (w, b) = unpack_params(model.arch, model.params)
    acts = [x]
    for w_h, b_h in hidden:
        acts.append(np.tanh(acts[-1] @ w_h.swapaxes(-1, -2) + b_h[..., None, :]))
    logits = w @ acts[-1].swapaxes(-1, -2)
    logits += b[..., None]
    return _softmax(logits), acts


def _label_offsets(shape: tuple[int, ...], n_classes: int) -> np.ndarray:
    """Where each row's class-0 entry sits in the ravel of class-major
    (*lanes, n_classes, rows) probabilities, for labels shaped `shape` =
    (*lanes, rows)."""
    rows = shape[-1]
    lanes = np.arange(math.prod(shape[:-1])) * (n_classes * rows)
    return (lanes[:, None] + np.arange(rows)).reshape(shape)


def _label_index(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Where each row's label entry sits in the ravel of class-major
    probabilities, shaped as `labels`: lane * C * rows + label * rows + row."""
    return _label_offsets(labels.shape, n_classes) + labels * labels.shape[-1]


def _label_probs(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Each row's probability of its label, from class-major probabilities."""
    return probs.take(_label_index(labels, probs.shape[-2]))


def _exponent(spec: LossSpec) -> float:
    """The GCE exponent q; 0 means cross-entropy."""
    return spec.gce_q if spec.kind == GCE else 0.0


def _clamp(p_label: np.ndarray) -> np.ndarray:
    """Label probabilities clamped to [PROB_EPS, 1], NaN kept, as np.clip does."""
    return p_label.clip(PROB_EPS, 1.0)


def _losses(p_label: np.ndarray, q: float) -> np.ndarray:
    """Per-example losses from label probabilities; q as `_exponent` gives it."""
    return _clamped_losses(_clamp(p_label), q)


def _clamped_losses(p: np.ndarray, q: float, out: np.ndarray | None = None) -> np.ndarray:
    """`_losses` of label probabilities `_clamp` has clamped, into `out` if given."""
    if q == 0.0:
        return np.negative(np.log(p, out=out), out=out)
    # (1 - p^q)/q, written via expm1 to stay accurate as q -> 0.
    return np.divide(-np.expm1(q * np.log(p)), q, out=out)


def _grad_scale(p_label: np.ndarray, weights: np.ndarray, q) -> np.ndarray:
    """d(weighted loss)/d(label logit) up to the softmax factor: the weight,
    zero at the clamp floor, times p^q for GCE."""
    return _clamped_scale(_clamp(p_label), weights, q)


def _clamped_scale(p: np.ndarray, weights: np.ndarray, q) -> np.ndarray:
    """`_grad_scale` of label probabilities `_clamp` has clamped. `q` is one
    exponent or one per lane; each distinct value is applied as a scalar,
    since np.power takes a sqrt fast path for the scalar 0.5 that an array
    of exponents does not, and the two differ in the last bit."""
    if isinstance(q, np.ndarray):
        values = set(q.tolist())
        if len(values) > 1:
            scale = np.empty_like(p)
            for value in values:
                lanes = q == value
                scale[lanes] = _clamped_scale(p[lanes], weights[lanes], value)
            return scale
        (q,) = values
    live = p > PROB_EPS  # the clamp floor; a bool factor multiplies as 0.0 or 1.0
    if q == 0.0:
        return weights * live
    return weights * live * np.power(p, q)


def _backprop(model: Model, forward: tuple[np.ndarray, list[np.ndarray]],
              labels: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the flat params of sum_i scale-weighted losses, from
    the cached forward pass."""
    return _backprop_at(model, forward, _label_index(labels, forward[0].shape[-2]), scale)


def _backprop_at(model: Model, forward: tuple[np.ndarray, list[np.ndarray]],
                 index: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """`_backprop` with the labels given as their `_label_index`."""
    probs, acts = forward
    delta = probs * scale[..., None, :]
    delta.reshape(-1)[index] -= scale

    g_w = (acts[-1].swapaxes(-1, -2) @ delta.swapaxes(-1, -2)).swapaxes(-1, -2)
    g_b = np.add.accumulate(delta, axis=-1)[..., -1]
    grads = [g_w.reshape(g_b.shape[:-1] + (-1,)), g_b]
    if model.arch.hidden:
        layers = unpack_params(model.arch, model.params)
        delta = delta.swapaxes(-1, -2).copy()
        for i in range(len(layers) - 1, 0, -1):
            delta = (delta @ layers[i][0]) * (1.0 - acts[i] ** 2)
            g_w = delta.swapaxes(-1, -2) @ acts[i - 1]
            g_b = _row_sum(delta)
            grads[:0] = (g_w.reshape(g_b.shape[:-1] + (-1,)), g_b)
    return np.concatenate(grads, axis=-1)


def _row_sum(delta: np.ndarray) -> np.ndarray:
    """delta.sum(axis=-2), bit for bit; more than one lane's (K, b, h) rows
    are summed in a (b, K, h) copy."""
    if delta.ndim != 3 or len(delta) == 1:
        return delta.sum(axis=-2)
    return delta.swapaxes(0, 1).copy().sum(axis=0)


def _feature_matrix(model: Model, features: np.ndarray) -> np.ndarray:
    """`features` as float64, checked to be a (n, input_dim) matrix."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.arch.input_dim:
        raise InputError(
            f"features shape {x.shape} does not match input_dim {model.arch.input_dim}"
        )
    return x


def forward_batch(model: Model, features: np.ndarray) -> np.ndarray:
    """Per-label probabilities, (n, C), for a (n, input_dim) feature matrix."""
    return _forward_cached(model, _feature_matrix(model, features))[0].swapaxes(-1, -2)


def predict(model: Model, features: np.ndarray) -> np.ndarray:
    """Argmax labels; ties break toward the lowest label index."""
    return np.argmax(forward_batch(model, features), axis=1)


def _check_labels(labels: np.ndarray, n_classes: int) -> None:
    """Labels index the class axis through `_label_index`: one outside
    [0, n_classes) would index another lane's entries, or wrap round or
    run past the array's ends."""
    if labels.dtype.kind not in "iu":
        raise InputError("labels must be integers")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= n_classes:
        raise InputError("label index out of range")


def loss_values(probs: np.ndarray, labels: np.ndarray, spec: LossSpec) -> np.ndarray:
    """Per-example losses for (n, C) probabilities and (n,) integer labels."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    n, c = probs.shape
    if labels.shape != (n,):
        raise InputError("labels must be one integer per probability row")
    _check_labels(labels, c)
    return _losses(_label_probs(probs.swapaxes(-1, -2), labels), _exponent(spec))


def grad(model: Model, features: np.ndarray, labels: np.ndarray,
         weights: np.ndarray, spec: LossSpec) -> np.ndarray:
    """Gradient of sum_i weights[i] * loss(x_i, y_i) w.r.t. the flat params.

    The L2 term is the optimizer's job, not part of this gradient. Examples
    whose clamped label probability sits at the clamp floor contribute zero
    (the clamped loss is flat there), keeping this the exact derivative of
    the loss actually computed.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels).ravel()
    w = np.asarray(weights, dtype=np.float64).ravel()
    if len(w) != len(y) or len(y) != x.shape[0]:
        raise InputError("features, labels and weights must have equal length")
    if (w < 0).any():
        raise InputError("weights must be non-negative")
    _check_labels(y, model.arch.n_classes)
    if len(y) == 0:  # the bias gradient folds the rows from the first one
        return np.zeros(model.params.size)

    forward = _forward_cached(model, _feature_matrix(model, x))
    scale = _grad_scale(_label_probs(forward[0], y), w, _exponent(spec))
    return _backprop(model, forward, y, scale)


def sgd_step(model: Model, gradient: np.ndarray, opt: OptimizerState) -> tuple[Model, OptimizerState]:
    """One SGD-with-momentum update.

    velocity <- momentum * velocity + (gradient + l2 * params)
    params   <- params - learning_rate * velocity

    Elementwise, so a population's (K, P) params and velocity may step at
    once, with (K, 1) arrays of hyperparameters.
    """
    g = np.asarray(gradient, dtype=np.float64)
    if g.size != model.params.size:
        raise InputError("gradient length does not match parameter count")
    if opt.velocity.size != model.params.size:
        raise InputError("velocity length does not match parameter count")
    g = g.reshape(model.params.shape)
    # momentum * velocity + (g + l2 * params), then params - learning_rate
    # * velocity, in that order, into temporaries the step owns.
    velocity = opt.l2 * model.params
    np.add(g, velocity, out=velocity)
    np.add(opt.momentum * opt.velocity, velocity, out=velocity)
    params = opt.learning_rate * velocity
    np.subtract(model.params, params, out=params)
    # Both arrays are fresh and sized by the checks above: freeze, don't copy.
    velocity.setflags(write=False)
    params.setflags(write=False)
    new_opt = _adopt(OptimizerState, learning_rate=opt.learning_rate,
                     momentum=opt.momentum, l2=opt.l2, velocity=velocity)
    return _adopt(Model, arch=model.arch, params=params), new_opt
