"""Minimal dense feed-forward network with reverse-mode gradients.

The network is a stack of linear layers with leaky-ReLU activations on the
hidden layers and a linear output layer (width 4 by default, feeding the
evidential head). Training-time dropout uses inverted scaling so inference
needs no rescaling. L1/L2 penalties apply to weight matrices only, never to
biases. Everything is plain numpy, and the arithmetic follows the weights'
dtype: a network's parameters are all float64 or all float32, and
:func:`forward`, :func:`backward` and :class:`Adam` compute and hold their
arrays in that dtype, so one kernel serves both precisions. Artifacts and
every command but ``tune`` are float64; ``tune`` trains its trials in
float32, where the matrix products take about half the time. Results are
deterministic for a fixed seed on the same machine, numpy/BLAS build and BLAS
thread count: the matrix products may sum in another order under another
thread count, which moves the last bits. One layer loop serves both modes of
:func:`forward`.
The no-grad pass (``train_mode=False``), the one inference kernel, runs it
per block of :data:`BLOCK_ROWS` rows through one array per hidden layer;
the train-mode pass runs it once and keeps each layer's input.

A training step (``gustuq.evidential.step_gradients``) runs in blocks of the
same :data:`BLOCK_ROWS` rows, each its own train-mode :func:`forward` and
:func:`backward`, whose gradients are added into the step's. The train-mode
:func:`forward` draws its block's dropout keep-masks from the step's
generator, one draw per hidden layer in order. For a step of at most
:data:`BLOCK_ROWS` rows, or a network with one hidden layer, the masks are
those of one whole-batch draw per layer; a larger step through more hidden
layers uses the same doubles in block order instead. Either way the step
leaves the generator where one whole-batch draw would. A block's cache
keeps only what :func:`backward` reads: per hidden layer one activation and
its one-byte keep-mask; the leaky-ReLU derivative is read from where that
activation is positive. :func:`backward` releases each layer's entries as
soon as it has used them, so a cache holds nothing once its gradients
exist. Only the batch's own rows grow with the batch.
:class:`Adam` holds the two moments of every parameter in two flat buffers
and updates them per chunk of :data:`ADAM_CHUNK` elements through the same
scratch pair, small parameters sharing a chunk, so the rest of training
state is weight-sized: the weights, their gradients, the two moments and
the best-weights copy.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, NumericError, UsageError

LEAKY_SLOPE = 0.1

# Rows per block of the no-grad forward pass and of a training step. A
# constant, not an option, so that identical runs stay byte-identical: BLAS
# results can depend on the block shape in the last bits.
BLOCK_ROWS = 1024

# The dtypes a network's parameters may have, all of them the same one.
DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

# Parameter elements per chunk of an Adam update. A constant, not an option:
# the update of every parameter runs through one scratch pair of at most
# this size, not through two scratch arrays per parameter. Chunking cannot
# move a bit: every operation is elementwise.
ADAM_CHUNK = 1 << 16

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# The values that each real-valued training setting may take, as a test and
# its wording: the network, Adam and TrainConfig apply them through
# ``check_setting``, and the CLI and tune's search space read them here.
_FINITE_AT_LEAST_0 = (lambda v: math.isfinite(v) and v >= 0, "finite and >= 0")
SETTING_RULES = {
    "learning_rate": (lambda v: math.isfinite(v) and v > 0, "finite and > 0"),
    "evidential_coef": _FINITE_AT_LEAST_0,
    "dropout": (lambda v: 0.0 <= v <= 0.5, "in [0, 0.5]"),
    "l1": _FINITE_AT_LEAST_0,
    "l2": _FINITE_AT_LEAST_0,
}


def check_setting(name: str, value: float) -> None:
    """Raise ConfigError unless ``value`` is a value of setting ``name`` that
    ``SETTING_RULES`` allows."""
    ok, wording = SETTING_RULES[name]
    if not ok(value):
        raise ConfigError(f"{name} must be {wording}, got {value}")


@dataclass
class TrainConfig:
    """Knobs for one training run of the evidential model."""

    learning_rate: float = 1e-3
    batch_size: int = 256
    max_epochs: int = 200
    patience: int = 10
    evidential_coef: float = 0.59
    seed: int = 0

    def validate(self) -> None:
        check_setting("learning_rate", self.learning_rate)
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        check_setting("evidential_coef", self.evidential_coef)
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")


@dataclass
class Layer:
    weights: np.ndarray  # [fan_in, fan_out]
    bias: np.ndarray  # [fan_out]


@dataclass
class MLP:
    """Dense network state: layers, activation slope, dropout, penalties.

    ``version`` increments on every optimizer step so that stale forward
    caches can be detected in :func:`backward`.
    """

    layers: list[Layer]
    dropout: float = 0.0
    l1: float = 0.0
    l2: float = 0.0
    leaky_slope: float = LEAKY_SLOPE
    version: int = 0

    def __post_init__(self) -> None:
        if not self.layers:
            raise ConfigError("MLP needs at least one layer")
        for name in ("dropout", "l1", "l2"):
            check_setting(name, getattr(self, name))
        if not 0.0 < self.leaky_slope < 1.0:
            raise ConfigError(f"leaky_slope must be in (0, 1), got {self.leaky_slope}")
        for i, layer in enumerate(self.layers):
            if layer.weights.ndim != 2 or layer.bias.ndim != 1:
                raise DimensionError(f"layer {i}: weights must be 2-D and bias 1-D")
            if layer.weights.shape[1] != layer.bias.shape[0]:
                raise DimensionError(
                    f"layer {i}: bias width {layer.bias.shape[0]} does not match "
                    f"weight fan-out {layer.weights.shape[1]}"
                )
            if i > 0 and self.layers[i - 1].weights.shape[1] != layer.weights.shape[0]:
                raise DimensionError(
                    f"layer {i}: fan-in {layer.weights.shape[0]} does not chain with "
                    f"previous fan-out {self.layers[i - 1].weights.shape[1]}"
                )
        dtypes = {str(p.dtype) for layer in self.layers for p in (layer.weights, layer.bias)}
        if len(dtypes) > 1 or self.dtype not in DTYPES:
            raise ConfigError(
                f"network parameters must be all float32 or all float64, got {sorted(dtypes)}"
            )

    @property
    def dtype(self) -> np.dtype:
        """The dtype of every parameter, in which the network computes."""
        return self.layers[0].weights.dtype

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[0]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weights.shape[1]

    @property
    def hidden_sizes(self) -> list[int]:
        return [layer.weights.shape[1] for layer in self.layers[:-1]]

    def copy(self) -> "MLP":
        return copy.deepcopy(self)

    @classmethod
    def create(
        cls,
        input_dim: int,
        hidden_sizes: list[int],
        rng: np.random.Generator,
        dropout: float = 0.0,
        l1: float = 0.0,
        l2: float = 0.0,
        output_dim: int = 4,
    ) -> "MLP":
        """Build a network with fan-in scaled uniform init and zero biases."""
        widths = [input_dim, *hidden_sizes, output_dim]
        layers = []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            weights = rng.uniform(-bound, bound, size=(fan_in, fan_out))
            layers.append(Layer(weights=weights, bias=np.zeros(fan_out)))
        return cls(layers=layers, dropout=dropout, l1=l1, l2=l2)


@dataclass
class ForwardCache:
    """What :func:`backward` reads of one train-mode forward pass.

    ``inputs`` holds the input of each layer in the network's dtype (the
    batch, then each hidden layer's activation after dropout); ``keeps`` the
    bool dropout keep-mask of each hidden layer, or ``None`` without dropout
    (kept activations are scaled by ``1 / (1 - dropout)``). :func:`backward`
    pops every entry as it goes, so a cache is used up by one backward pass;
    only ``model_version`` and ``batch_size`` remain.
    """

    inputs: list[np.ndarray]
    keeps: list[np.ndarray | None]
    model_version: int
    batch_size: int


def forward(
    model: MLP,
    batch: np.ndarray,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
    first_row: int = 0,
) -> tuple[np.ndarray, ForwardCache | None]:
    """Run the network on ``batch`` [B x D].

    With ``train_mode`` set, dropout is applied to hidden activations, and
    the intermediates :func:`backward` needs are returned in a
    :class:`ForwardCache`. Its keep-masks are drawn from ``rng`` before any
    layer array exists, one ``rng.random((B, width)) >= dropout`` per hidden
    layer in order, so any generator works; without dropout none is needed.
    Otherwise this is the no-grad inference pass: it runs the batch in blocks
    of :data:`BLOCK_ROWS` rows, whose activations stay in cache where a
    whole-batch pass would stream [B x width] temporaries through memory, and
    returns ``(out, None)``. Both run the one layer loop of
    :func:`_forward_block`. A non-finite output is an error naming its
    sample index, counted from ``first_row`` (the index of ``batch``'s first
    row when it is one block of a larger batch). The batch is cast to the
    network's dtype, in which ``out`` and every activation are computed.
    """
    batch = np.asarray(batch, dtype=model.dtype)
    if batch.ndim != 2:
        raise DimensionError(f"batch must be 2-D, got shape {batch.shape}")
    if batch.shape[1] != model.input_dim:
        raise DimensionError(
            f"batch width {batch.shape[1]} does not match model input width {model.input_dim}"
        )
    keeps = [None] * len(model.hidden_sizes)
    if train_mode and model.dropout > 0.0:
        if rng is None:
            raise UsageError("dropout keep-masks need a random generator, got rng=None")
        keeps = [rng.random((batch.shape[0], width)) >= model.dropout
                 for width in model.hidden_sizes]
    out = np.empty((batch.shape[0], model.output_dim), model.dtype)
    rows = batch.shape[0] if train_mode else min(batch.shape[0], BLOCK_ROWS)
    acts = [np.empty((rows, width), model.dtype) for width in model.hidden_sizes]
    if train_mode:
        _forward_block(model, batch, out, keeps, acts)
        cache = ForwardCache([batch, *acts], keeps, model.version, batch.shape[0])
    else:
        cache = None
        for start in range(0, batch.shape[0], BLOCK_ROWS):
            block = slice(start, start + BLOCK_ROWS)
            _forward_block(model, batch[block], out[block], keeps, acts)
    if not np.isfinite(out).all():
        bad = first_row + int(np.flatnonzero(~np.isfinite(out).all(axis=1))[0])
        raise NumericError(f"forward pass produced non-finite outputs at sample index {bad}")
    return out, cache


def _forward_block(model: MLP, a: np.ndarray, out: np.ndarray, keeps: list,
                   acts: list[np.ndarray]) -> None:
    """The one layer loop: run the rows ``a`` through the network into ``out``.

    Hidden layer ``i``'s activation is computed in place in the first rows
    of ``acts[i]``, so the blocks of a no-grad pass reuse one array per
    layer; np.maximum(z, slope*z) is leaky-ReLU because 0 < slope < 1
    (checked by :class:`MLP`). Where a hidden layer has a keep-mask in
    ``keeps``, its dropped units are zeroed and its kept ones scaled by
    ``1 / (1 - dropout)``.
    """
    slope = model.leaky_slope
    scale = 1.0 / (1.0 - model.dropout)
    for layer, keep, z in zip(model.layers[:-1], keeps, acts):
        z = z[: a.shape[0]]
        np.matmul(a, layer.weights, out=z)
        z += layer.bias
        np.maximum(z, slope * z, out=z)
        if keep is not None:
            # Bit for bit z * (keep / (1 - dropout)): z * True is z, and a
            # dropped z * 0.0 stays a signed zero when scaled afterwards.
            z *= keep
            z *= scale
        a = z
    last = model.layers[-1]
    np.matmul(a, last.weights, out=out)
    out += last.bias


@dataclass
class ParamGrads:
    """Gradients mirroring the layer structure of an :class:`MLP`."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


def backward(
    model: MLP,
    cache: ForwardCache,
    grad_output: np.ndarray,
    into: ParamGrads | None = None,
) -> ParamGrads:
    """Backpropagate ``grad_output`` [B x out] to parameter gradients.

    ``grad_output`` must already carry any batch-mean normalization; it is
    cast to the network's dtype, in which the gradients are computed. Without
    ``into`` this returns new gradients of a whole step: the L1 subgradient
    (0 at exactly 0) and the 2*l2*W term are added to every weight gradient;
    biases carry no penalty. With ``into``, the gradients of an earlier block
    of the same step, this block's data gradients are added into it and it
    is returned; the penalty, already in it, is not added again. The cache
    is used up: each layer's entries are popped as they are read, so the
    peak holds no activation that is no longer needed, and a second call on
    the same cache is a :class:`UsageError`.
    """
    if cache is None:
        raise UsageError("backward called without a forward cache")
    if cache.model_version != model.version:
        raise UsageError(
            "stale forward cache: the model was updated after this forward pass"
        )
    if len(cache.inputs) != len(model.layers):
        raise UsageError("forward cache already used")
    grad_output = np.asarray(grad_output, dtype=model.dtype)
    if grad_output.shape != (cache.batch_size, model.output_dim):
        raise DimensionError(
            f"grad_output shape {grad_output.shape} does not match "
            f"({cache.batch_size}, {model.output_dim})"
        )

    n_layers = len(model.layers)
    grads = into
    if grads is None:
        empty: list[np.ndarray] = [None] * n_layers  # type: ignore[list-item]
        grads = ParamGrads(weights=empty, biases=list(empty))

    delta = grad_output
    scale = 1.0 / (1.0 - model.dropout)
    for i in range(n_layers - 1, -1, -1):
        layer = model.layers[i]
        # layer i's input is > 0 exactly where layer i - 1 had z > 0 and its
        # unit was kept; the mask is taken before the input is released
        positive = cache.inputs[-1] > 0 if i > 0 else None
        dw = cache.inputs.pop().T @ delta
        if into is None:
            if model.l1 > 0:
                dw += model.l1 * np.sign(layer.weights)
            if model.l2 > 0:
                dw += 2.0 * model.l2 * layer.weights
            grads.weights[i] = dw
            grads.biases[i] = delta.sum(axis=0)
        else:
            grads.weights[i] += dw
            grads.biases[i] += delta.sum(axis=0)
        if i > 0:
            delta = delta @ layer.weights.T
            keep = cache.keeps.pop()
            if keep is not None:
                # keep, then scale, as in the forward pass: a dropped entry is
                # zeroed before it is scaled, so it cannot overflow to inf
                delta *= keep
                delta *= scale
            # Leaky-ReLU derivative (z > 0) * (1 - slope) + slope, without the
            # per-element branch of np.where (1.5-4x slower on random signs).
            # It is exactly slope where z <= 0 and exactly 1.0 where z > 0:
            # fl(1 - slope) is within 2**-54 of 1 - slope for 0 < slope < 1,
            # so adding slope rounds back to 1. A float32 network's factor is
            # float32, where the sum came back to 1 for each of a million
            # uniform slopes in (0, 1). A dropped unit's delta is a signed
            # zero already, which either factor keeps.
            factor = np.multiply(positive, 1.0 - model.leaky_slope, dtype=model.dtype)
            factor += model.leaky_slope
            delta *= factor
    return grads


def penalty_loss(model: MLP) -> float:
    """L1/L2 penalty over weight matrices, matching the backward() terms."""
    total = 0.0
    for layer in model.layers:
        if model.l1 > 0:
            total += model.l1 * float(np.abs(layer.weights).sum())
        if model.l2 > 0:
            total += model.l2 * float((layer.weights**2).sum())
    return total


def _chunks(shape: tuple[int, ...]) -> Iterator:
    """Indices that cut a 1-D or 2-D array of ``shape`` into views of at most
    :data:`ADAM_CHUNK` elements: blocks of whole rows of a 2-D array, or
    pieces of one row where a row is longer than a chunk."""
    *lead, width = shape
    if lead and width <= ADAM_CHUNK:
        rows = ADAM_CHUNK // width
        for start in range(0, lead[0], rows):
            yield slice(start, start + rows)
        return
    for index in np.ndindex(*lead):
        for start in range(0, width, ADAM_CHUNK):
            yield (*index, slice(start, start + ADAM_CHUNK))


def _pack(params: list[np.ndarray]) -> list[tuple[int, int, list]]:
    """The chunks of an Adam update over ``params``.

    Each parameter is cut into views as :func:`_chunks` cuts it, and the
    views are packed in order into chunks of at most :data:`ADAM_CHUNK`
    elements, so small parameters share one. Per chunk: the range
    ``[lo, hi)`` it takes of a flat buffer holding every parameter element
    once, and per view ``(k, index, start, stop, shape)``: ``params[k][index]``
    has ``shape`` and fills ``[start, stop)`` of the chunk.
    """
    plan: list[tuple[int, int, list]] = []
    pieces: list = []
    lo = used = 0
    for k, param in enumerate(params):
        for index in _chunks(param.shape):
            shape = param[index].shape
            size = math.prod(shape)
            if used + size > ADAM_CHUNK:
                plan.append((lo, lo + used, pieces))
                pieces, lo, used = [], lo + used, 0
            pieces.append((k, index, used, used + size, shape))
            used += size
    plan.append((lo, lo + used, pieces))
    return plan


class Adam:
    """Adam optimizer with bias correction, updating an MLP in place.

    It keeps the first and second moments of every parameter in two flat
    buffers, and one scratch pair, all in the parameters' dtype. A step runs
    per chunk of at most :data:`ADAM_CHUNK` elements (see :func:`_pack`):
    the chunk's gradients are gathered into the scratch through views of
    each parameter, the update is computed there with one array operation
    per term, and it is subtracted from the same views, so a parameter that
    is not contiguous is still updated in place.
    """

    def __init__(self, learning_rate: float):
        check_setting("learning_rate", learning_rate)
        self.learning_rate = learning_rate
        self.step_count = 0
        self._plan: list[tuple[int, int, list]] | None = None
        self._moments: tuple[np.ndarray, np.ndarray] | None = None
        self._scratch: tuple[np.ndarray, np.ndarray] | None = None

    def _init_state(self, params: list[np.ndarray]) -> None:
        self._plan = _pack(params)
        size = self._plan[-1][1]
        dtype = params[0].dtype
        self._moments = (np.zeros(size, dtype), np.zeros(size, dtype))
        widest = max(hi - lo for lo, hi, _ in self._plan)
        self._scratch = (np.empty(widest, dtype), np.empty(widest, dtype))

    def step(self, model: MLP, grads: ParamGrads) -> None:
        if len(grads.weights) != len(model.layers):
            raise DimensionError("gradient layer count does not match model")
        params = [p for layer in model.layers for p in (layer.weights, layer.bias)]
        gradients = [g for pair in zip(grads.weights, grads.biases) for g in pair]
        if [g.shape for g in gradients] != [p.shape for p in params]:
            raise DimensionError("gradient shapes do not match the model's parameters")
        if self._plan is None:
            self._init_state(params)
        # Every gradient is checked before any parameter moves.
        for i, (dw, db) in enumerate(zip(grads.weights, grads.biases)):
            if not np.isfinite(dw).all():
                raise NumericError(f"non-finite weight gradient in layer {i}")
            if not np.isfinite(db).all():
                raise NumericError(f"non-finite bias gradient in layer {i}")

        self.step_count += 1
        t = self.step_count
        correct1 = 1.0 - ADAM_BETA1**t
        correct2 = 1.0 - ADAM_BETA2**t
        lr = self.learning_rate
        m_all, v_all = self._moments
        update, denom = self._scratch
        for lo, hi, pieces in self._plan:
            for k, index, start, stop, shape in pieces:
                np.copyto(update[start:stop].reshape(shape), gradients[k][index])
            g, d, m, v = update[: hi - lo], denom[: hi - lo], m_all[lo:hi], v_all[lo:hi]
            m *= ADAM_BETA1
            np.multiply(1.0 - ADAM_BETA1, g, out=d)
            m += d
            v *= ADAM_BETA2
            np.square(g, out=g)
            np.multiply(1.0 - ADAM_BETA2, g, out=g)
            v += g
            # g = (lr * (m / correct1)) / (sqrt(v / correct2) + eps)
            np.divide(m, correct1, out=g)
            np.multiply(lr, g, out=g)
            np.divide(v, correct2, out=d)
            np.sqrt(d, out=d)
            d += ADAM_EPS
            g /= d
            for k, index, start, stop, shape in pieces:
                p = params[k][index]
                p -= g[start:stop].reshape(shape)
        for i, layer in enumerate(model.layers):
            if not (np.isfinite(layer.weights).all() and np.isfinite(layer.bias).all()):
                raise NumericError(f"non-finite parameters in layer {i} after step")
        model.version += 1
