"""Differentiable model core: small softmax classifiers with analytic gradients.

Two architecture families are supported: multinomial logistic regression
(no hidden layers) and fully-connected networks with tanh hidden layers.
Parameters live in one flat float64 vector so the optimizer, checkpointing
and finite-difference checks stay trivial. Every operation here is a pure
function: inputs are never mutated and identical inputs produce bit-identical
outputs.
"""

from __future__ import annotations

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
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
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


def fresh_optimizer(model: Model, learning_rate: float, momentum: float = 0.9,
                    l2: float = 0.0) -> OptimizerState:
    """Optimizer state with zero velocity sized for `model`."""
    return OptimizerState(learning_rate, momentum, l2, np.zeros(model.params.size))


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
    """Split a flat vector into per-layer (W, b) views, W shaped (out, in)."""
    out = []
    pos = 0
    for fan_out, fan_in in arch.layer_shapes():
        w = params[pos:pos + fan_out * fan_in].reshape(fan_out, fan_in)
        pos += fan_out * fan_in
        b = params[pos:pos + fan_out]
        pos += fan_out
        out.append((w, b))
    return out


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _forward_cached(model: Model, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Probabilities plus the per-layer activations needed for backprop."""
    layers = unpack_params(model.arch, model.params)
    acts = [x]
    for i, (w, b) in enumerate(layers):
        z = acts[-1] @ w.T + b
        if i < len(layers) - 1:
            acts.append(np.tanh(z))
        else:
            return _softmax(z), acts
    raise AssertionError("unreachable")


def forward_batch(model: Model, features: np.ndarray, *, activations: bool = False):
    """Per-label probabilities for a (n, input_dim) feature matrix; with
    activations=True, (probabilities, per-layer activations) for `grad`."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.arch.input_dim:
        raise InputError(
            f"features shape {x.shape} does not match input_dim {model.arch.input_dim}"
        )
    cached = _forward_cached(model, x)
    return cached if activations else cached[0]


def predict(model: Model, features: np.ndarray) -> np.ndarray:
    """Argmax labels; ties break toward the lowest label index."""
    return np.argmax(forward_batch(model, features), axis=1)


def loss_values(probs: np.ndarray, labels: np.ndarray, spec: LossSpec) -> np.ndarray:
    """Per-example losses for (n, C) probabilities and (n,) integer labels."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    n, c = probs.shape
    if labels.shape != (n,):
        raise InputError("labels must be one integer per probability row")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= c:
        raise InputError("label index out of range")
    p = np.clip(probs[np.arange(n), labels], PROB_EPS, 1.0)
    if spec.kind == CROSS_ENTROPY or spec.gce_q == 0.0:
        return -np.log(p)
    q = spec.gce_q
    # (1 - p^q)/q, written via expm1 to stay accurate as q -> 0.
    return -np.expm1(q * np.log(p)) / q


def grad(model: Model, features: np.ndarray, labels: np.ndarray,
         weights: np.ndarray, spec: LossSpec,
         forward: tuple[np.ndarray, list[np.ndarray]] | None = None) -> np.ndarray:
    """Gradient of sum_i weights[i] * loss(x_i, y_i) w.r.t. the flat params.

    The L2 term is the optimizer's job, not part of this gradient. Examples
    whose clamped label probability sits at the clamp floor contribute zero
    (the clamped loss is flat there), keeping this the exact derivative of
    the loss actually computed. `forward`, if given, is
    ``forward_batch(model, features, activations=True)``: only backprop runs.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels).ravel()
    w = np.asarray(weights, dtype=np.float64).ravel()
    if len(w) != len(y) or len(y) != x.shape[0]:
        raise InputError("features, labels and weights must have equal length")
    if (w < 0).any():
        raise InputError("weights must be non-negative")

    probs, acts = forward if forward is not None else forward_batch(model, x, activations=True)
    rows = np.arange(x.shape[0])
    p_label = probs[rows, y]
    live = (p_label > PROB_EPS).astype(np.float64)
    if spec.kind == CROSS_ENTROPY or spec.gce_q == 0.0:
        scale = w * live
    else:
        scale = w * live * np.power(np.clip(p_label, PROB_EPS, 1.0), spec.gce_q)

    delta = probs * scale[:, None]
    delta[rows, y] -= scale

    layers = unpack_params(model.arch, model.params)
    grads: list[np.ndarray] = [np.empty(0)] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        w_i, _ = layers[i]
        g_w = delta.T @ acts[i]
        g_b = delta.sum(axis=0)
        grads[i] = np.concatenate([g_w.ravel(), g_b])
        if i > 0:
            delta = (delta @ w_i) * (1.0 - acts[i] ** 2)
    return np.concatenate(grads)


def sgd_step(model: Model, gradient: np.ndarray, opt: OptimizerState) -> tuple[Model, OptimizerState]:
    """One SGD-with-momentum update.

    velocity <- momentum * velocity + (gradient + l2 * params)
    params   <- params - learning_rate * velocity
    """
    g = np.asarray(gradient, dtype=np.float64).ravel()
    if g.size != model.params.size:
        raise InputError("gradient length does not match parameter count")
    if opt.velocity.size != model.params.size:
        raise InputError("velocity length does not match parameter count")
    velocity = opt.momentum * opt.velocity + (g + opt.l2 * model.params)
    params = model.params - opt.learning_rate * velocity
    # Both arrays are fresh and sized by the checks above: freeze, don't copy.
    velocity.setflags(write=False)
    params.setflags(write=False)
    new_opt = _adopt(OptimizerState, learning_rate=opt.learning_rate,
                     momentum=opt.momentum, l2=opt.l2, velocity=velocity)
    return _adopt(Model, arch=model.arch, params=params), new_opt
