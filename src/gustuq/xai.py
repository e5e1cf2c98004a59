"""Permutation feature importance and partial dependence for evidential models.

Both procedures only need a prediction callable mapping a feature matrix to
``(mean, total_sd)`` arrays, so they work for any model with that surface.
PFI measures how much shuffling one column degrades RMSE and the spread-skill
R^2; partial dependence sweeps one column over 100 equally spaced values and
averages the model response, once for the predicted target and once for the
total uncertainty.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateInputWarning, UsageError
from .metrics import spread_skill

PredictFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

DEFAULT_N_SHUFFLES = 10
DEFAULT_PDP_GRID = 100


@dataclass
class FeatureImportance:
    """Shuffle-induced metric changes for one feature.

    Positive ``delta_rmse`` means shuffling increased RMSE (the feature helps
    prediction); positive ``delta_r2`` means shuffling decreased the
    spread-skill R^2 (the feature helps calibration). Both deltas are signed,
    not magnitudes.
    """

    feature: str
    delta_rmse_mean: float
    delta_rmse_sd: float
    delta_r2_mean: float
    delta_r2_sd: float
    n_shuffles: int
    note: str = ""


@dataclass
class PFIResult:
    baseline_rmse: float
    baseline_r2: float
    features: list[FeatureImportance]

    def ranked_by_rmse(self) -> list[FeatureImportance]:
        return sorted(self.features, key=lambda f: f.delta_rmse_mean, reverse=True)


def _resolve_names(n_features: int, feature_names: Sequence[str] | None) -> list[str]:
    if feature_names is None:
        return [f"feature_{j}" for j in range(n_features)]
    if len(feature_names) != n_features:
        raise UsageError(
            f"{len(feature_names)} feature names for {n_features} columns"
        )
    return list(feature_names)


def permutation_importance(
    predict_fn: PredictFn,
    features: np.ndarray,
    targets: np.ndarray,
    feature_names: Sequence[str] | None = None,
    n_shuffles: int = DEFAULT_N_SHUFFLES,
    seed: int = 0,
    permutations: Sequence[np.ndarray] | None = None,
) -> PFIResult:
    """Shuffle each column ``n_shuffles`` times and measure metric changes.

    The same permutations are applied to every column, which makes the
    per-feature results independent of column order. ``permutations``
    overrides the seeded draws (test hook).
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise UsageError("permutation importance needs a 2-D matrix with >= 2 rows")
    if y.shape != (x.shape[0],):
        raise UsageError("target length does not match feature rows")
    names = _resolve_names(x.shape[1], feature_names)

    if permutations is None:
        rng = np.random.default_rng(seed)
        permutations = [rng.permutation(x.shape[0]) for _ in range(n_shuffles)]
    else:
        permutations = [np.asarray(p, dtype=int) for p in permutations]
        n_shuffles = len(permutations)
    if n_shuffles < 1:
        raise UsageError("need at least one shuffle")

    def scores(matrix: np.ndarray) -> tuple[float, float]:
        mean, total_sd = predict_fn(matrix)
        rmse = float(np.sqrt(np.mean((mean - y) ** 2)))
        r2 = spread_skill(total_sd, mean - y).r_squared
        return rmse, r2

    base_rmse, base_r2 = scores(x)
    ddof = 1 if n_shuffles > 1 else 0
    results = []
    for j, name in enumerate(names):
        note = ""
        if np.ptp(x[:, j]) == 0.0:
            note = "constant feature: permutation is a no-op"
        d_rmse = np.empty(n_shuffles)
        d_r2 = np.empty(n_shuffles)
        for s, perm in enumerate(permutations):
            shuffled = x.copy()
            shuffled[:, j] = x[perm, j]
            rmse, r2 = scores(shuffled)
            d_rmse[s] = rmse - base_rmse
            d_r2[s] = base_r2 - r2
        results.append(
            FeatureImportance(
                feature=name,
                delta_rmse_mean=float(d_rmse.mean()),
                delta_rmse_sd=float(d_rmse.std(ddof=ddof)),
                delta_r2_mean=float(d_r2.mean()),
                delta_r2_sd=float(d_r2.std(ddof=ddof)),
                n_shuffles=n_shuffles,
                note=note,
            )
        )
    return PFIResult(baseline_rmse=base_rmse, baseline_r2=base_r2, features=results)


@dataclass
class PDPResult:
    """Mean model response (and its across-row sd) over one feature's range."""

    feature: str
    grid: np.ndarray
    pred_mean: np.ndarray
    pred_sd: np.ndarray
    uncertainty_mean: np.ndarray
    uncertainty_sd: np.ndarray


def partial_dependence(
    predict_fn: PredictFn,
    features: np.ndarray,
    feature: int | str,
    feature_names: Sequence[str] | None = None,
    n_grid: int = DEFAULT_PDP_GRID,
) -> PDPResult:
    """Sweep one column over equally spaced values across its observed range.

    At each grid value the column is overwritten for every row, the model is
    evaluated, and the mean and across-row sd of the predicted target and of
    the total uncertainty are recorded.
    """
    if n_grid < 1:
        raise UsageError("need at least one grid point")
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise UsageError("partial dependence needs a nonempty 2-D matrix")
    names = _resolve_names(x.shape[1], feature_names)
    if isinstance(feature, str):
        if feature not in names:
            raise UsageError(f"unknown feature {feature!r}")
        j = names.index(feature)
    else:
        j = int(feature)
        if not 0 <= j < x.shape[1]:
            raise UsageError(f"feature index {j} out of range")

    lo = float(x[:, j].min())
    hi = float(x[:, j].max())
    if lo == hi:
        warnings.warn(
            f"feature {names[j]} has zero range; single-point grid",
            DegenerateInputWarning,
        )
        grid = np.array([lo])
    else:
        grid = np.linspace(lo, hi, n_grid)

    pred_mean = np.empty(grid.size)
    pred_sd = np.empty(grid.size)
    unc_mean = np.empty(grid.size)
    unc_sd = np.empty(grid.size)
    work = x.copy()
    for g, value in enumerate(grid):
        work[:, j] = value
        mean, total_sd = predict_fn(work)
        pred_mean[g] = mean.mean()
        pred_sd[g] = mean.std()
        unc_mean[g] = total_sd.mean()
        unc_sd[g] = total_sd.std()
    return PDPResult(
        feature=names[j],
        grid=grid,
        pred_mean=pred_mean,
        pred_sd=pred_sd,
        uncertainty_mean=unc_mean,
        uncertainty_sd=unc_sd,
    )
