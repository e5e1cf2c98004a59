"""Normal-Inverse-Gamma evidential head, dual-objective loss, and training.

A width-4 network output is mapped to the NIG parameters (gamma, nu, alpha,
beta), which define a distribution over the mean and variance of a Gaussian
target. Closed-form moments split the predictive variance into an aleatoric
part beta/(alpha-1) and an epistemic part beta/(nu*(alpha-1)); their sum is
the total predictive variance (law of total variance). The training loss is
the negative log of the Student-t marginal plus an evidence regularizer
|y - gamma| * (2*nu + alpha) weighted by the evidential coefficient.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, expit, gammaln

from . import nncore
from .data import Standardizer
from .errors import CalibrationWarning, ConfigError, DomainError, NumericError
from .nncore import MLP, Adam, TrainConfig

# Floor keeping nu, beta strictly positive and alpha strictly above 1.
PARAM_FLOOR = 1e-6


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
            if not np.all(np.isfinite(arr)):
                raise NumericError(f"NIG parameter {name} contains non-finite values")
        if np.any(self.nu <= 0):
            raise DomainError("NIG parameter nu must be > 0")
        if np.any(self.alpha <= 1):
            raise DomainError("NIG parameter alpha must be > 1")
        if np.any(self.beta <= 0):
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
    if not np.all(np.isfinite(raw)):
        raise NumericError("raw head outputs contain non-finite values")
    return NIGParams(
        gamma=raw[..., 0],
        nu=softplus(raw[..., 1]) + PARAM_FLOOR,
        alpha=softplus(raw[..., 2]) + 1.0 + PARAM_FLOOR,
        beta=softplus(raw[..., 3]) + PARAM_FLOOR,
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


def nig_nll(params: NIGParams, y: np.ndarray) -> np.ndarray:
    """Negative log of the Student-t marginal likelihood, elementwise.

    With omega = 2*beta*(1 + nu):
        0.5*log(pi/nu) - alpha*log(omega)
        + (alpha + 0.5)*log(nu*(y - gamma)^2 + omega)
        + lgamma(alpha) - lgamma(alpha + 0.5)
    """
    params.validate()
    y = np.asarray(y, dtype=float)
    d = y - params.gamma
    omega = 2.0 * params.beta * (1.0 + params.nu)
    s = params.nu * d**2 + omega
    return (
        0.5 * (np.log(np.pi) - np.log(params.nu))
        - params.alpha * np.log(omega)
        + (params.alpha + 0.5) * np.log(s)
        + gammaln(params.alpha)
        - gammaln(params.alpha + 0.5)
    )


def evidence_regularizer(params: NIGParams, y: np.ndarray) -> np.ndarray:
    """Evidence penalty |y - gamma| * (2*nu + alpha), elementwise."""
    y = np.asarray(y, dtype=float)
    return np.abs(y - params.gamma) * (2.0 * params.nu + params.alpha)


def _sample_loss(params: NIGParams, y: np.ndarray, lam: float, first_row: int = 0):
    """Per-sample dual-objective loss nll + lam*reg, not averaged yet.

    A non-finite loss is an error naming its sample index, counted from
    ``first_row``.
    """
    if lam < 0:
        raise ConfigError(f"evidential coefficient must be >= 0, got {lam}")
    nll = nig_nll(params, y)
    per_sample = nll + lam * evidence_regularizer(params, y) if lam > 0 else nll
    if not np.all(np.isfinite(per_sample)):
        bad = first_row + int(np.flatnonzero(~np.isfinite(per_sample))[0])
        raise NumericError(f"non-finite evidential loss at sample index {bad}")
    return per_sample


def _raw_grad(raw: np.ndarray, params: NIGParams, y: np.ndarray, lam: float) -> np.ndarray:
    """Per-sample gradient of :func:`_sample_loss` wrt the raw outputs.

    ``params`` is ``head_transform(raw)``; the result has the [B x 4] shape
    of ``raw`` and is not divided by the sample count.
    """
    d = y - params.gamma
    omega = 2.0 * params.beta * (1.0 + params.nu)
    s = params.nu * d**2 + omega
    a_half = params.alpha + 0.5

    dg = a_half * (-2.0 * params.nu * d) / s
    dn = (
        -0.5 / params.nu
        - params.alpha * (2.0 * params.beta) / omega
        + a_half * (d**2 + 2.0 * params.beta) / s
    )
    da = -np.log(omega) + np.log(s) + digamma(params.alpha) - digamma(a_half)
    db = 2.0 * (1.0 + params.nu) * (-params.alpha / omega + a_half / s)

    if lam > 0:
        abs_d = np.abs(d)
        dg = dg - lam * np.sign(d) * (2.0 * params.nu + params.alpha)
        dn = dn + lam * 2.0 * abs_d
        da = da + lam * abs_d

    grad = np.empty_like(raw)
    grad[:, 0] = dg
    grad[:, 1] = dn * expit(raw[:, 1])  # d softplus = sigmoid
    grad[:, 2] = da * expit(raw[:, 2])
    grad[:, 3] = db * expit(raw[:, 3])
    return grad


def total_loss(model: MLP, params: NIGParams, y: np.ndarray, lam: float) -> float:
    """Full training objective of ``params``: the mean evidential loss plus
    the model's L1/L2 penalties. The mean makes the evidential coefficient
    batch-size invariant."""
    return float(_sample_loss(params, y, lam).mean()) + nncore.penalty_loss(model)


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
    gradients are added into the step's. The loss is a mean over samples,
    so each block's loss gradient is divided by the batch's row count; the
    penalty and its gradient enter once. ``nncore.draw_keeps`` draws each
    block's dropout keep-masks from ``rng`` when the block runs, and leaves
    ``rng`` as many doubles on as one draw for the whole batch would. Every
    array of a step is one block's or weight-sized; only the batch's own
    rows grow with the batch. A batch of at most ``BLOCK_ROWS`` rows is one
    block, and its loss is bit for bit :func:`total_loss` of one train-mode
    forward over it. Over more rows the sums run in another order, which
    moves the last bits.
    """
    rows = features.shape[0]
    grads = None
    data_sum = 0.0
    for block, keeps in nncore.draw_keeps(model, rows, rng):
        out, cache = nncore.forward(
            model, features[block], train_mode=True, keeps=keeps, first_row=block.start
        )
        params = head_transform(out)
        y = targets[block]
        data_sum += _sample_loss(params, y, lam, first_row=block.start).sum()
        grad = _raw_grad(out, params, y, lam)
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
    each prediction applies ``standardizer``, the scaling it was trained behind.

    ``validation_params`` is the head's output on the validation split for
    these weights, as ``train_evidential`` computed it at the best epoch:
    ``decompose(validation_params)`` is ``predict(val_features)`` bit for
    bit. It is None on a model read from an artifact."""

    mlp: MLP
    train_config: TrainConfig
    standardizer: Standardizer
    feature_names: list[str] | None = None
    validation_params: NIGParams | None = None

    def predict_params(self, features: np.ndarray) -> NIGParams:
        out, _ = nncore.forward(self.mlp, self.standardizer.apply(features), train_mode=False)
        return head_transform(out)

    def predict(self, features: np.ndarray) -> UncertaintyDecomposition:
        return decompose(self.predict_params(features))

    def mean_and_total_sd(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Predicted mean and total sd from raw features: the surface
        :mod:`gustuq.xai` explains."""
        dec = self.predict(features)
        return dec.mean, dec.total_sd


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
) -> tuple[EvidentialModel, list[EpochStats]]:
    """Train the evidential network with Adam and early stopping.

    Features are raw: ``standardizer``, fitted on the training split, scales
    both splits and stays on the returned model. Without one, a pass-through
    standardizer (offset 0, scale 1) is kept and the features are used as
    given. Returns the weights snapshot with the best validation MAE, with
    its validation pass's ``NIGParams`` as ``validation_params``, and the
    per-epoch metric log.
    """
    config.validate()
    if standardizer is None:
        width = np.shape(train_features)[1] if np.ndim(train_features) > 1 else 1
        standardizer = Standardizer(np.zeros(width), np.ones(width), np.ones(width, bool))
    x_train = standardizer.apply(train_features)
    y_train = np.asarray(train_targets, dtype=float)
    x_val = standardizer.apply(val_features)
    y_val = np.asarray(val_targets, dtype=float)
    if x_train.shape[0] == 0 or x_val.shape[0] == 0:
        raise ConfigError("training and validation splits must be nonempty")
    if x_train.shape[0] != y_train.shape[0] or x_val.shape[0] != y_val.shape[0]:
        raise ConfigError("feature/target lengths differ")

    rng = np.random.default_rng(config.seed)
    model = MLP.create(
        x_train.shape[1], hidden_sizes, rng, dropout=dropout, l1=l1, l2=l2
    )
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
        val_loss = total_loss(model, val_params, y_val, lam)
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
        validation_params=best_params,
    )
    return trained, log
