"""Normal-Inverse-Gamma evidential head, dual-objective loss, and training.

A width-4 network output is mapped to the NIG parameters (gamma, nu, alpha,
beta), which define a distribution over the mean and variance of a Gaussian
target. Closed-form moments split the predictive variance into an aleatoric
part beta/(alpha-1) and an epistemic part beta/(nu*(alpha-1)); their sum is
the total predictive variance (law of total variance). The training loss is
the negative log of the Student-t marginal plus an evidence regularizer
|y - gamma| * (2*nu + alpha) weighted by the evidential coefficient. The
loss, its parts and its gradient with respect to the raw outputs are all
computed from one set of shared terms (``_terms``), so each formula is
written once and a training block computes each term once.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from . import nncore
from .data import Standardizer
from .errors import CalibrationWarning, ConfigError, DomainError, NumericError
from .nncore import MLP, Adam, Layer, TrainConfig

# Floor keeping nu, beta strictly positive and alpha strictly above 1.
PARAM_FLOOR = 1e-6

_LOG_PI = np.log(np.pi)


# The loss needs lgamma only in the gap lgamma(alpha) - lgamma(alpha + 1/2),
# and its gradient psi only in the gap's derivative psi(alpha) - psi(alpha + 1/2);
# both are computed in numpy, as is expit. _terms shifts alpha up by 8 to
# y = alpha + 8, where S(y) = lgamma(y + 1/2) - lgamma(y) = log(y)/2 +
# sum_k c_k y**(1 - 2k), k = 1..7, reaches double precision; c_k =
# (2**(1 - 2k) - 2) B_2k / (2k (2k - 1)), with B_2k the Bernoulli numbers, and
# S'(y)'s coefficients are (1 - 2k) c_k. lgamma(x + 1) = lgamma(x) + log(x)
# undoes the shift: the gap is log prod_k (alpha + k + 1/2)/(alpha + k) - S(y),
# k = 0..7, and its derivative -S'(y) - sum_k 1/2 / ((alpha + k)(alpha + k + 1/2)).
# Past alpha ~ 1e150 the 1/y**2 terms underflow to 0, their value to double
# precision, so the underflow is not an error.
_SHIFT = np.arange(8.0)
_GAP_SERIES = (-1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432, 691 / 180224, -5461 / 425984)
_GAP_SLOPE_SERIES = (1 / 8, -1 / 64, 1 / 128, -17 / 2048, 31 / 2048, -691 / 16384, 5461 / 32768)


def _series(coefs, r2: np.ndarray) -> np.ndarray:
    """The sum over k of coefs[k] * r2**k, by Horner's rule."""
    total = coefs[-1]
    for c in coefs[-2::-1]:
        total = total * r2 + c
    return total


def expit(x):
    """The logistic sigmoid 1 / (1 + exp(-x)), elementwise, without overflow."""
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=float)))


@dataclass
class NIGParams:
    """Per-sample Normal-Inverse-Gamma parameters (columnar arrays)."""

    gamma: np.ndarray  # predicted mean, target units
    nu: np.ndarray  # virtual observation count, > 0
    alpha: np.ndarray  # shape, > 1
    beta: np.ndarray  # scale, target units squared, > 0

    def validate(self) -> None:
        for name, arr in (("gamma", self.gamma), ("nu", self.nu),
                          ("alpha", self.alpha), ("beta", self.beta)):
            if not np.isfinite(arr).all():
                raise NumericError(f"NIG parameter {name} contains non-finite values")
        if (self.nu <= 0).any():
            raise DomainError("NIG parameter nu must be > 0")
        if (self.alpha <= 1).any():
            raise DomainError("NIG parameter alpha must be > 1")
        if (self.beta <= 0).any():
            raise DomainError("NIG parameter beta must be > 0")


@dataclass
class UncertaintyDecomposition:
    """Predictive mean and the variance split; sds are square roots."""

    mean: np.ndarray
    aleatoric_var: np.ndarray
    epistemic_var: np.ndarray
    total_var: np.ndarray

    @property
    def aleatoric_sd(self) -> np.ndarray:
        return np.sqrt(self.aleatoric_var)

    @property
    def epistemic_sd(self) -> np.ndarray:
        return np.sqrt(self.epistemic_var)

    @property
    def total_sd(self) -> np.ndarray:
        return np.sqrt(self.total_var)


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) evaluated without overflow."""
    x = np.asarray(x, dtype=float)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def head_transform(raw: np.ndarray) -> NIGParams:
    """Map raw width-4 network outputs to valid NIG parameters.

    gamma passes through; nu and beta go through softplus with a 1e-6 floor;
    alpha additionally shifts by 1 so alpha > 1 always holds.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.shape[-1] != 4:
        raise DomainError(f"evidential head expects width-4 outputs, got {raw.shape}")
    if not np.isfinite(raw).all():
        raise NumericError("raw head outputs contain non-finite values")
    return NIGParams(
        gamma=raw[..., 0],
        nu=softplus(raw[..., 1]) + PARAM_FLOOR,
        alpha=softplus(raw[..., 2]) + 1.0 + PARAM_FLOOR,
        beta=softplus(raw[..., 3]) + PARAM_FLOOR,
    )


def to_target_units(params: NIGParams, target_scale: Standardizer) -> NIGParams:
    """The NIG of ``y = scale * z + offset`` from the NIG of the scaled target
    ``z``: gamma -> ``target_scale.inverse_column(0, gamma)`` and beta ->
    scale**2 * beta, with nu and alpha unchanged. The NIG family is closed
    under this map, so it is exact. A pass-through ``target_scale`` (offset
    0, scale 1) returns the same values."""
    scale = target_scale.scale[0]
    return NIGParams(
        gamma=target_scale.inverse_column(0, params.gamma),
        nu=params.nu,
        alpha=params.alpha,
        beta=scale * scale * params.beta,
    )


def decompose(params: NIGParams) -> UncertaintyDecomposition:
    """Closed-form mean and aleatoric/epistemic/total variances."""
    params.validate()
    aleatoric = params.beta / (params.alpha - 1.0)
    epistemic = params.beta / (params.nu * (params.alpha - 1.0))
    return UncertaintyDecomposition(
        mean=np.asarray(params.gamma, dtype=float),
        aleatoric_var=aleatoric,
        epistemic_var=epistemic,
        total_var=aleatoric + epistemic,
    )


class _Terms(NamedTuple):
    """The terms that the loss and its raw-output gradient share, each
    computed once per set of parameters and targets ``y``."""

    d: np.ndarray  # y - gamma
    d2: np.ndarray  # d**2
    two_beta: np.ndarray  # 2*beta
    one_nu: np.ndarray  # 1 + nu
    omega: np.ndarray  # 2*beta*(1 + nu)
    s: np.ndarray  # nu*d**2 + omega
    a_half: np.ndarray  # alpha + 0.5
    log_omega: np.ndarray
    log_s: np.ndarray
    abs_d: np.ndarray  # |d|
    evidence: np.ndarray  # 2*nu + alpha
    a8: np.ndarray  # alpha + 8, where the gap's series is taken
    r: np.ndarray  # 1/a8
    r2: np.ndarray  # r**2
    a_k: np.ndarray  # alpha + k, k = 0..7, one row per sample


def _terms(params: NIGParams, y: np.ndarray) -> _Terms:
    d = np.asarray(y, dtype=float) - params.gamma
    d2 = d**2
    two_beta = 2.0 * params.beta
    one_nu = 1.0 + params.nu
    omega = two_beta * one_nu
    s = params.nu * d2 + omega
    a8 = params.alpha + _SHIFT.size
    r = 1.0 / a8
    with np.errstate(under="ignore"):
        r2 = r * r
    return _Terms(
        d, d2, two_beta, one_nu, omega, s, params.alpha + 0.5, np.log(omega), np.log(s),
        np.abs(d), 2.0 * params.nu + params.alpha, a8, r, r2, params.alpha[..., None] + _SHIFT,
    )


def _lgamma_gap(t: _Terms) -> np.ndarray:
    """lgamma(alpha) - lgamma(alpha + 1/2), from the shifted terms."""
    undo_shift = np.log(np.prod(1.0 + 0.5 / t.a_k, axis=-1))
    with np.errstate(under="ignore"):
        return undo_shift - 0.5 * np.log(t.a8) - t.r * _series(_GAP_SERIES, t.r2)


def _digamma_gap(t: _Terms) -> np.ndarray:
    """psi(alpha) - psi(alpha + 1/2), the derivative of :func:`_lgamma_gap`."""
    with np.errstate(under="ignore"):
        undo_shift = (0.5 / t.a_k / (t.a_k + 0.5)).sum(axis=-1)
        return -0.5 * t.r - t.r2 * _series(_GAP_SLOPE_SERIES, t.r2) - undo_shift


def _nll(params: NIGParams, t: _Terms) -> np.ndarray:
    return (
        0.5 * (_LOG_PI - np.log(params.nu))
        - params.alpha * t.log_omega
        + t.a_half * t.log_s
        + _lgamma_gap(t)
    )


def _regularizer(t: _Terms) -> np.ndarray:
    return t.abs_d * t.evidence


def nig_nll(params: NIGParams, y: np.ndarray) -> np.ndarray:
    """Negative log of the Student-t marginal likelihood, elementwise.

    With omega = 2*beta*(1 + nu):
        0.5*log(pi/nu) - alpha*log(omega)
        + (alpha + 0.5)*log(nu*(y - gamma)^2 + omega)
        + lgamma(alpha) - lgamma(alpha + 0.5)

    It is computed from the terms the training step's loss and gradient
    share, so it is bit for bit the loss's NLL.
    """
    params.validate()
    return _nll(params, _terms(params, y))


def evidence_regularizer(params: NIGParams, y: np.ndarray) -> np.ndarray:
    """Evidence penalty |y - gamma| * (2*nu + alpha), elementwise, from the
    same shared terms as :func:`nig_nll` (so ``params`` must be valid)."""
    params.validate()
    return _regularizer(_terms(params, y))


def _loss_and_terms(params: NIGParams, y: np.ndarray, lam: float, first_row: int = 0):
    """Per-sample dual-objective loss nll + lam*reg, not averaged yet, and
    the shared terms it was computed from.

    A non-finite loss is an error naming its sample index, counted from
    ``first_row``.
    """
    if lam < 0:
        raise ConfigError(f"evidential coefficient must be >= 0, got {lam}")
    params.validate()
    t = _terms(params, y)
    nll = _nll(params, t)
    per_sample = nll + lam * _regularizer(t) if lam > 0 else nll
    if not np.isfinite(per_sample).all():
        bad = first_row + int(np.flatnonzero(~np.isfinite(per_sample))[0])
        raise NumericError(f"non-finite evidential loss at sample index {bad}")
    return per_sample, t


def _grad_from_terms(raw: np.ndarray, params: NIGParams, t: _Terms, lam: float) -> np.ndarray:
    """Per-sample gradient of the loss of :func:`_loss_and_terms` wrt the raw
    outputs, from the shared terms of ``params`` and the targets.

    ``params`` is ``head_transform(raw)``; the result has the [B x 4] shape
    of ``raw`` and is not divided by the sample count.
    """
    dg = t.a_half * (-2.0 * params.nu * t.d) / t.s
    dn = (
        -0.5 / params.nu
        - params.alpha * t.two_beta / t.omega
        + t.a_half * (t.d2 + t.two_beta) / t.s
    )
    da = -t.log_omega + t.log_s + _digamma_gap(t)
    db = 2.0 * t.one_nu * (-params.alpha / t.omega + t.a_half / t.s)

    if lam > 0:
        dg = dg - lam * np.sign(t.d) * t.evidence
        dn = dn + lam * 2.0 * t.abs_d
        da = da + lam * t.abs_d

    grad = np.empty_like(raw)
    grad[:, 0] = dg
    grad[:, 1] = dn
    grad[:, 2] = da
    grad[:, 3] = db
    grad[:, 1:] *= expit(raw[:, 1:])  # d softplus = sigmoid
    return grad


def total_loss(model: MLP, params: NIGParams, y: np.ndarray, lam: float) -> float:
    """Full training objective of ``params``: the mean evidential loss plus
    the model's L1/L2 penalties. The mean makes the evidential coefficient
    batch-size invariant."""
    return float(_loss_and_terms(params, y, lam)[0].mean()) + nncore.penalty_loss(model)


def step_gradients(
    model: MLP,
    features: np.ndarray,
    targets: np.ndarray,
    lam: float,
    rng: np.random.Generator | None,
) -> tuple[float, nncore.ParamGrads]:
    """Training objective of one batch and its gradients wrt the parameters.

    The loss is :func:`total_loss` over the whole batch, and the gradients
    are its derivatives, computed in blocks of ``nncore.BLOCK_ROWS`` rows:
    each block runs forward, ``head_transform``, loss and backward, and its
    gradients are added into the step's. A block's loss and loss gradient
    come from one set of shared terms (:func:`_loss_and_terms` and
    :func:`_grad_from_terms`). The loss is a mean over samples, so each block's loss
    gradient is divided by the batch's row count; the penalty and its
    gradient enter once. Each block's train-mode ``nncore.forward`` draws
    its dropout keep-masks from ``rng``, so the step leaves ``rng`` as many
    doubles on as one draw for the whole batch would. Every
    array of a step is one block's or weight-sized; only the batch's own
    rows grow with the batch. A batch of at most ``BLOCK_ROWS`` rows is one
    block, and its loss is bit for bit :func:`total_loss` of one train-mode
    forward over it. Over more rows the sums run in another order, which
    moves the last bits. The network runs in its own dtype; the head, the
    loss and the loss gradient run in float64 on its [B x 4] output.
    """
    rows = features.shape[0]
    grads = None
    data_sum = 0.0
    for start in range(0, rows, nncore.BLOCK_ROWS):
        block = slice(start, start + nncore.BLOCK_ROWS)
        out, cache = nncore.forward(
            model, features[block], train_mode=True, rng=rng, first_row=start
        )
        out = np.asarray(out, dtype=float)
        params = head_transform(out)
        per_sample, terms = _loss_and_terms(params, targets[block], lam, start)
        data_sum += per_sample.sum()
        grad = _grad_from_terms(out, params, terms, lam)
        grad /= rows
        grads = nncore.backward(model, cache, grad, into=grads)
    # For one block, sum / rows is bit for bit the mean that total_loss takes.
    return float(data_sum / rows) + nncore.penalty_loss(model), grads


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_mae: float


@dataclass
class EvidentialModel:
    """A trained network plus everything needed to predict from raw features:
    each prediction applies ``standardizer``, the scaling of the features it
    was trained behind, and maps the head back to target units with
    ``target_scale``, the scaling of the targets (:func:`to_target_units`).

    ``validation_params`` is the head's output on the validation split for
    these weights, in target units, as ``train_evidential`` computed it at
    the best epoch: ``decompose(validation_params)`` is
    ``predict(val_features)`` bit for bit. It is None on a model read from
    an artifact."""

    mlp: MLP
    train_config: TrainConfig
    standardizer: Standardizer
    target_scale: Standardizer
    feature_names: list[str] | None = None
    validation_params: NIGParams | None = None

    def predict_params(self, features: np.ndarray) -> NIGParams:
        out, _ = nncore.forward(self.mlp, self.standardizer.apply(features), train_mode=False)
        return to_target_units(head_transform(out), self.target_scale)

    def predict(self, features: np.ndarray) -> UncertaintyDecomposition:
        return decompose(self.predict_params(features))

    def mean_and_total_sd(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Predicted mean and total sd from raw features: the surface
        :mod:`gustuq.xai` explains."""
        dec = self.predict(features)
        return dec.mean, dec.total_sd


def _pass_through(width: int) -> Standardizer:
    """A standardizer of ``width`` columns that leaves every value as it is."""
    return Standardizer(np.zeros(width), np.ones(width))


# Validation mean total sd above this multiple of the target sd triggers a
# calibration warning (inflated-uncertainty guard); training continues.
INFLATION_GUARD_FACTOR = 100.0


def train_evidential(
    train_features: np.ndarray,
    train_targets: np.ndarray,
    val_features: np.ndarray,
    val_targets: np.ndarray,
    hidden_sizes: list[int],
    config: TrainConfig,
    dropout: float = 0.0,
    l1: float = 0.0,
    l2: float = 0.0,
    feature_names: list[str] | None = None,
    standardizer: Standardizer | None = None,
    target_scale: Standardizer | None = None,
    dtype=np.float64,
) -> tuple[EvidentialModel, list[EpochStats]]:
    """Train the evidential network with Adam and early stopping.

    Features and targets are raw: ``standardizer``, fitted on the training
    features, scales both splits' features, and ``target_scale``, a
    one-column standardizer fitted on the training targets, scales both
    splits' targets; the network learns the scaled targets, and both stay on
    the returned model. Without one, a pass-through one (offset 0, scale 1)
    is kept, and the values are used as given. The training and validation
    losses are in scaled units; each epoch's validation params are mapped
    back to target units (:func:`to_target_units`), and the validation MAE
    and the inflation guard are taken there. Returns the weights snapshot
    with the best validation MAE, with its validation pass's ``NIGParams``
    in target units as ``validation_params``, and the per-epoch metric log.

    The network trains in ``dtype``, float64 or float32 (see
    :mod:`gustuq.nncore`). Its initial weights are drawn in float64 and
    cast, and the features are cast after they are standardized in float64,
    so both dtypes draw the same batch order and dropout keep-masks; the
    head, the loss and ``validation_params`` stay float64.
    """
    config.validate()
    if standardizer is None:
        width = np.shape(train_features)[1] if np.ndim(train_features) > 1 else 1
        standardizer = _pass_through(width)
    if target_scale is None:
        target_scale = _pass_through(1)
    x_train = standardizer.apply(train_features).astype(dtype, copy=False)
    y_train = target_scale.apply(train_targets)[:, 0]
    x_val = standardizer.apply(val_features).astype(dtype, copy=False)
    y_val = np.asarray(val_targets, dtype=float)
    y_val_scaled = target_scale.apply(y_val)[:, 0]
    if x_train.shape[0] == 0 or x_val.shape[0] == 0:
        raise ConfigError("training and validation splits must be nonempty")
    if x_train.shape[0] != y_train.shape[0] or x_val.shape[0] != y_val.shape[0]:
        raise ConfigError("feature/target lengths differ")

    rng = np.random.default_rng(config.seed)
    model = MLP.create(
        x_train.shape[1], hidden_sizes, rng, dropout=dropout, l1=l1, l2=l2
    )
    model = replace(model, layers=[
        Layer(layer.weights.astype(dtype, copy=False), layer.bias.astype(dtype, copy=False))
        for layer in model.layers])
    optimizer = Adam(config.learning_rate)
    lam = config.evidential_coef

    n = x_train.shape[0]
    batch = min(config.batch_size, n)
    val_target_sd = float(np.std(y_val))
    best_mae = np.inf
    best_weights, best_params = model.copy(), None
    stall = 0
    warned_inflated = False
    log: list[EpochStats] = []

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            loss, grads = step_gradients(model, x_train[idx], y_train[idx], lam, rng)
            optimizer.step(model, grads)
            batch_losses.append(loss)
        train_loss = float(np.mean(batch_losses))

        val_out, _ = nncore.forward(model, x_val, train_mode=False)
        val_params = head_transform(val_out)
        val_loss = total_loss(model, val_params, y_val_scaled, lam)
        val_params = to_target_units(val_params, target_scale)
        val_mae = float(np.mean(np.abs(val_params.gamma - y_val)))
        log.append(EpochStats(epoch, train_loss, val_loss, val_mae))

        if not warned_inflated and val_target_sd > 0:
            mean_total_sd = float(np.mean(decompose(val_params).total_sd))
            if mean_total_sd > INFLATION_GUARD_FACTOR * val_target_sd:
                warnings.warn(
                    f"validation mean total sd {mean_total_sd:.3g} exceeds "
                    f"{INFLATION_GUARD_FACTOR:g}x the target sd {val_target_sd:.3g}",
                    CalibrationWarning,
                )
                warned_inflated = True

        if val_mae < best_mae:
            best_mae = val_mae
            best_weights, best_params = model.copy(), val_params
            stall = 0
        else:
            stall += 1
            if stall >= config.patience:
                break

    trained = EvidentialModel(
        mlp=best_weights,
        train_config=config,
        feature_names=feature_names,
        standardizer=standardizer,
        target_scale=target_scale,
        validation_params=best_params,
    )
    return trained, log


def train_with_settings(settings: Mapping, train_features, train_targets, val_features,
                        val_targets, **kwargs) -> tuple[EvidentialModel, list[EpochStats]]:
    """:func:`train_evidential` with the network and the run read from the
    flat mapping ``settings``: ``hidden_layers`` layers of ``hidden_neurons``
    units, ``dropout``, ``l1``, ``l2`` and each :class:`TrainConfig` field
    by name. Other keys are ignored; ``kwargs`` pass through."""
    config = TrainConfig(**{f.name: settings[f.name] for f in fields(TrainConfig)})
    return train_evidential(
        train_features, train_targets, val_features, val_targets,
        hidden_sizes=[settings["hidden_neurons"]] * settings["hidden_layers"], config=config,
        dropout=settings["dropout"], l1=settings["l1"], l2=settings["l2"], **kwargs)
