"""Permutation feature importance and partial dependence for evidential models.

Both procedures only need a prediction callable mapping a feature matrix to
``(mean, total_sd)`` arrays, so they work for any model with that surface.
PFI measures how much shuffling one column degrades RMSE and the spread-skill
R^2; partial dependence sweeps one column over 100 equally spaced values and
averages the model response, once for the predicted target and once for the
total uncertainty.

Every model evaluation of a call is independent of the others, so the
evaluations run on every usable CPU (``parallel.map_pieces``): the call's
list of evaluations is cut into one contiguous range per CPU, the caller
runs the first and forked workers the others. A worker sends back only each
evaluation's summary numbers; the permutations, the grids and the deltas
against the baseline are computed in the caller, so the results are the
same bits at any CPU count. ``predict_fn`` therefore runs in the workers:
it need not be picklable, but its side effects stay there.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import parallel
from .errors import DegenerateInputWarning, UsageError
from .metrics import spread_skill

PredictFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

DEFAULT_N_SHUFFLES = 10
DEFAULT_PDP_GRID = 100

# The least rows x evaluations a range of evaluations holds, so smaller
# calls fork nothing. On a 2-vCPU machine a fork from a 65 MB process, with
# its pinning and its first evaluation, costs about 10 ms more than that
# evaluation in the caller; 250,000 row-evaluations of the 1 x 64 network
# take about 60 ms there (240 ns a row).
MIN_PIECE_ROW_EVALS = 250_000


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


def _summaries(predict_fn: PredictFn, x: np.ndarray, evaluations: list) -> list:
    """``summary(*predict_fn(matrix))`` for each ``(column, change, summary)``
    of ``evaluations``, in order. ``matrix`` is ``x`` with ``column`` set to
    ``x[change, column]`` for an index array ``change``, or to the value
    ``change``; with ``column`` None it is ``x`` as given. The evaluations
    are cut into one range per usable CPU, each of at least
    ``MIN_PIECE_ROW_EVALS`` rows x evaluations, and run through
    ``parallel.map_pieces``."""
    bounds = parallel.cut(len(evaluations), -(-MIN_PIECE_ROW_EVALS // x.shape[0]))

    def run_range(k: int) -> list:
        work = x.copy()
        summaries = []
        for column, change, summary in evaluations[bounds[k]:bounds[k + 1]]:
            if column is not None:
                work[:, column] = x[change, column] if isinstance(change, np.ndarray) else change
            summaries.append(summary(*predict_fn(work)))
            if column is not None:
                work[:, column] = x[:, column]
        return summaries

    pieces = parallel.map_pieces(run_range, len(bounds) - 1, "explain")
    return [summary for piece in pieces for summary in piece]


def _resolve_names(n_features: int, feature_names: Sequence[str] | None) -> list[str]:
    if feature_names is None:
        return [f"feature_{j}" for j in range(n_features)]
    if len(feature_names) != n_features:
        raise UsageError(
            f"{len(feature_names)} feature names for {n_features} columns"
        )
    return list(feature_names)


def _pfi_inputs(features, targets, feature_names, n_shuffles, seed):
    """Checked ``(x, y, names, permutations)``, the permutations being the
    seeded draws."""
    x = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise UsageError("permutation importance needs a 2-D matrix with >= 2 rows")
    if y.shape != (x.shape[0],):
        raise UsageError("target length does not match feature rows")
    names = _resolve_names(x.shape[1], feature_names)
    if n_shuffles < 1:
        raise UsageError("need at least one shuffle")
    rng = np.random.default_rng(seed)
    return x, y, names, [rng.permutation(x.shape[0]) for _ in range(n_shuffles)]


def _shuffle_evaluations(x: np.ndarray, y: np.ndarray, permutations: list) -> list:
    """The baseline, then each column under each permutation, each scored
    as ``(rmse, spread-skill r2)``."""

    def scores(mean: np.ndarray, total_sd: np.ndarray) -> tuple[float, float]:
        rmse = float(np.sqrt(np.mean((mean - y) ** 2)))
        r2 = spread_skill(total_sd, mean - y).r_squared
        return rmse, r2

    return [(None, None, scores)] + [
        (j, perm, scores) for j in range(x.shape[1]) for perm in permutations
    ]


def _importance(scores: list, x: np.ndarray, names: list[str], n_shuffles: int) -> PFIResult:
    """``PFIResult`` from ``_shuffle_evaluations``' scores, in order."""
    (base_rmse, base_r2), shuffled = scores[0], scores[1:]
    ddof = 1 if n_shuffles > 1 else 0
    results = []
    for j, name in enumerate(names):
        note = ""
        if np.ptp(x[:, j]) == 0.0:
            note = "constant feature: permutation is a no-op"
        column = shuffled[j * n_shuffles:(j + 1) * n_shuffles]
        d_rmse = np.array([rmse - base_rmse for rmse, _ in column])
        d_r2 = np.array([base_r2 - r2 for _, r2 in column])
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


def permutation_importance(
    predict_fn: PredictFn,
    features: np.ndarray,
    targets: np.ndarray,
    feature_names: Sequence[str] | None = None,
    n_shuffles: int = DEFAULT_N_SHUFFLES,
    seed: int = 0,
) -> PFIResult:
    """Shuffle each column ``n_shuffles`` times and measure metric changes.

    The same permutations are applied to every column, which makes the
    per-feature results independent of column order. The evaluations run on
    every usable CPU, as the module docstring says.
    """
    x, y, names, perms = _pfi_inputs(features, targets, feature_names, n_shuffles, seed)
    scores = _summaries(predict_fn, x, _shuffle_evaluations(x, y, perms))
    return _importance(scores, x, names, len(perms))


@dataclass
class PDPResult:
    """Mean model response (and its across-row sd) over one feature's range."""

    feature: str
    grid: np.ndarray
    pred_mean: np.ndarray
    pred_sd: np.ndarray
    uncertainty_mean: np.ndarray
    uncertainty_sd: np.ndarray


def _grid(x: np.ndarray, j: int, name: str, n_grid: int) -> np.ndarray:
    """``n_grid`` equally spaced values over column ``j``'s observed range,
    or its one value, with a warning, when the range is zero."""
    lo = float(x[:, j].min())
    hi = float(x[:, j].max())
    if lo == hi:
        warnings.warn(
            f"feature {name} has zero range; single-point grid",
            DegenerateInputWarning,
        )
        return np.array([lo])
    return np.linspace(lo, hi, n_grid)


def _response(mean: np.ndarray, total_sd: np.ndarray) -> tuple:
    """A partial-dependence evaluation's summary: the across-row mean and
    sd of the predicted target and of the total uncertainty."""
    return mean.mean(), mean.std(), total_sd.mean(), total_sd.std()


def _dependence(name: str, grid: np.ndarray, responses: list) -> PDPResult:
    """``PDPResult`` from the ``_response`` of each grid value, in order."""
    pred_mean, pred_sd, unc_mean, unc_sd = np.array(list(zip(*responses)), dtype=float)
    return PDPResult(
        feature=name,
        grid=grid,
        pred_mean=pred_mean,
        pred_sd=pred_sd,
        uncertainty_mean=unc_mean,
        uncertainty_sd=unc_sd,
    )


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
    the total uncertainty are recorded. The evaluations run on every usable
    CPU, as the module docstring says.
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
    grid = _grid(x, j, names[j], n_grid)
    responses = _summaries(predict_fn, x, [(j, value, _response) for value in grid])
    return _dependence(names[j], grid, responses)


def explain(
    predict_fn: PredictFn,
    features: np.ndarray,
    targets: np.ndarray,
    feature_names: Sequence[str] | None = None,
    n_shuffles: int = DEFAULT_N_SHUFFLES,
    seed: int = 0,
    n_grid: int = DEFAULT_PDP_GRID,
) -> tuple[PFIResult, list[PDPResult]]:
    """``permutation_importance`` and the ``partial_dependence`` of every
    column, in column order, with one cut of all their evaluations over the
    usable CPUs: a single fork per worker for the whole call. The results
    are those of the separate calls, bit for bit."""
    x, y, names, perms = _pfi_inputs(features, targets, feature_names, n_shuffles, seed)
    if n_grid < 1:
        raise UsageError("need at least one grid point")
    grids = [_grid(x, j, name, n_grid) for j, name in enumerate(names)]
    shuffles = _shuffle_evaluations(x, y, perms)
    summaries = _summaries(predict_fn, x, shuffles + [
        (j, value, _response) for j, grid in enumerate(grids) for value in grid])
    pfi = _importance(summaries[:len(shuffles)], x, names, len(perms))
    curves, at = [], len(shuffles)
    for name, grid in zip(names, grids):
        curves.append(_dependence(name, grid, summaries[at:at + grid.size]))
        at += grid.size
    return pfi, curves
