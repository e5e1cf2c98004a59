"""Error metrics, prediction intervals, and the uncertainty-calibration suite.

Covers deterministic error scores (bias, MAE, RMSE, CRMSE, Pearson r),
prediction intervals and their coverage (PICP), percentile masking of
inflated uncertainty, PIT values and the PITD skill score, the spread-skill
relationship, and the discard-fraction curve. All functions are pure over
immutable arrays.
"""

from __future__ import annotations

import math
import statistics
import warnings
from dataclasses import InitVar, dataclass, field, fields, is_dataclass

import numpy as np

from .errors import DegenerateInputWarning, DomainError, UsageError
from .evidential import UncertaintyDecomposition

# z-scores for the four named confidence levels, as commonly tabulated
# (rounded relative to the exact normal quantiles). Other levels fall back to
# the exact quantile.
NAMED_Z_SCORES = {0.70: 1.04, 0.90: 1.65, 0.95: 1.96, 0.99: 2.58}

DEFAULT_CONFIDENCE_LEVELS = (0.70, 0.90, 0.95, 0.99)
DEFAULT_MASK_PERCENTILE = 95.0
DEFAULT_PIT_BINS = 10
DEFAULT_SPREAD_BINS = 20
# A spread whose range is at most this fraction of its largest value is
# constant up to rounding, and a line fit to its bins fits noise. It sits
# far above float32 rounding, where tune's trials compute (a collapsed
# float32 spread spans about 7e-7 of its value), and far below any trained
# spread (a standard run's total sd spans about 0.6 of its largest).
CONSTANT_SPREAD_FRACTION = 1e-4
DEFAULT_DISCARD_FRACTIONS = tuple(np.round(np.arange(0.0, 1.0, 0.05), 2))

UNCERTAINTY_KINDS = ("aleatoric", "epistemic", "total")


def z_score(level: float) -> float:
    """z for a central interval at ``level``; named levels use table values."""
    if not 0.0 < level < 1.0:
        raise UsageError(f"confidence level must be in (0, 1), got {level}")
    for named, z in NAMED_Z_SCORES.items():
        if abs(level - named) < 1e-9:
            return z
    # from the lower tail: (1 - level) / 2 is exact, while 0.5 + level / 2
    # rounds to 1 for the largest levels below 1
    return -statistics.NormalDist().inv_cdf((1.0 - level) / 2.0)


@dataclass
class ErrorMetrics:
    bias: float
    mae: float
    rmse: float
    crmse: float
    pearson_r: float


def error_metrics(pred: np.ndarray, obs: np.ndarray) -> ErrorMetrics:
    """Deterministic error scores; r is NaN when either side is constant."""
    pred = np.asarray(pred, dtype=float)
    obs = np.asarray(obs, dtype=float)
    if pred.shape != obs.shape or pred.ndim != 1:
        raise UsageError(f"pred/obs must be equal-length vectors, got {pred.shape} and {obs.shape}")
    if pred.size == 0:
        raise UsageError("error metrics need at least one sample")
    if not (np.all(np.isfinite(pred)) and np.all(np.isfinite(obs))):
        raise UsageError("error metrics inputs must be finite")
    diff = pred - obs
    bias = float(diff.mean())
    centered = diff - bias
    crmse = float(np.sqrt(np.mean(centered**2)))
    sp = pred.std()
    so = obs.std()
    if sp == 0.0 or so == 0.0:
        r = float("nan")
    else:
        r = float(np.mean((pred - pred.mean()) * (obs - obs.mean())) / (sp * so))
    return ErrorMetrics(
        bias=bias,
        mae=float(np.abs(diff).mean()),
        rmse=float(np.sqrt(np.mean(diff**2))),
        crmse=crmse,
        pearson_r=r,
    )


def prediction_interval(
    mean: np.ndarray, sd: np.ndarray, level: float
) -> tuple[np.ndarray, np.ndarray]:
    """Central interval mean +/- z*sd at the given confidence level."""
    mean = np.asarray(mean, dtype=float)
    sd = np.asarray(sd, dtype=float)
    if np.any(sd < 0):
        raise UsageError("standard deviations must be >= 0")
    z = z_score(level)
    return mean - z * sd, mean + z * sd


def picp(
    lower: np.ndarray,
    upper: np.ndarray,
    obs: np.ndarray,
    exclude: np.ndarray | None = None,
) -> float | None:
    """Fraction of observations inside [lower, upper] (closed interval).

    ``exclude`` flags samples removed from both numerator and denominator.
    Returns None when every sample is excluded (explicit empty set).
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    obs = np.asarray(obs, dtype=float)
    if not (lower.shape == upper.shape == obs.shape):
        raise UsageError("picp inputs must have equal shapes")
    keep = np.ones(obs.shape, dtype=bool) if exclude is None else ~np.asarray(exclude, dtype=bool)
    n = int(keep.sum())
    if n == 0:
        return None
    covered = (obs[keep] >= lower[keep]) & (obs[keep] <= upper[keep])
    return float(covered.mean())


def mask_highly_uncertain(
    total_sd: np.ndarray, percentile: float = DEFAULT_MASK_PERCENTILE
) -> tuple[np.ndarray, float]:
    """Flag samples whose total sd strictly exceeds the given percentile.

    The threshold uses linear interpolation between order statistics, so an
    all-equal vector flags nothing.
    """
    total_sd = np.asarray(total_sd, dtype=float)
    if total_sd.size == 0:
        raise UsageError("cannot compute a percentile of an empty vector")
    if not 0.0 < percentile < 100.0:
        raise UsageError(f"percentile must be in (0, 100), got {percentile}")
    threshold = float(np.percentile(total_sd, percentile))
    return total_sd > threshold, threshold


_erfc = np.vectorize(math.erfc, otypes=[float])


def pit_values(mean: np.ndarray, sd: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Standard-normal CDF of the observation under the predicted distribution."""
    mean = np.asarray(mean, dtype=float)
    sd = np.asarray(sd, dtype=float)
    obs = np.asarray(obs, dtype=float)
    if np.any(sd <= 0):
        raise DomainError("PIT requires strictly positive standard deviations")
    # erfc of more than about 26.5 rightly underflows to a subnormal or 0
    with np.errstate(under="ignore"):
        return 0.5 * _erfc(-((obs - mean) / sd) / math.sqrt(2.0))


@dataclass
class PitdResult:
    pitd: float
    skill: float
    n_bins: int
    bin_counts: np.ndarray


def pitd(pit: np.ndarray, n_bins: int = DEFAULT_PIT_BINS) -> PitdResult:
    """RMS deviation of the PIT histogram from uniformity, plus skill score.

    The worst case puts all mass in a single bin, giving sqrt(M-1)/M; the
    skill score is 1 - PITD/PITD_worst, in [0, 1].
    """
    pit = np.asarray(pit, dtype=float)
    if pit.size == 0:
        raise UsageError("PITD needs at least one PIT value")
    if n_bins < 2:
        raise UsageError(f"PITD needs at least 2 bins, got {n_bins}")
    if np.any(pit < 0) or np.any(pit > 1):
        raise UsageError("PIT values must lie in [0, 1]")
    counts, _ = np.histogram(pit, bins=n_bins, range=(0.0, 1.0))
    freq = counts / pit.size
    value = float(np.sqrt(np.mean((freq - 1.0 / n_bins) ** 2)))
    worst = np.sqrt(n_bins - 1.0) / n_bins
    return PitdResult(
        pitd=value,
        skill=float(1.0 - value / worst),
        n_bins=n_bins,
        bin_counts=counts,
    )


@dataclass
class SpreadSkillResult:
    """Equal-count sd bins with their RMSE, plus the RMSE-on-sd line fit."""

    bin_mean_sd: np.ndarray
    bin_rmse: np.ndarray
    bin_counts: np.ndarray
    slope: float
    intercept: float
    r_squared: float


def spread_skill(
    sd: np.ndarray, errors: np.ndarray, n_bins: int = DEFAULT_SPREAD_BINS
) -> SpreadSkillResult:
    """Bin samples by predicted sd (equal counts) and relate binned RMSE to
    binned mean sd via least squares; a calibrated model tracks the 1:1 line.
    A spread constant up to :data:`CONSTANT_SPREAD_FRACTION` is one bin with
    no fit."""
    sd = np.asarray(sd, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if sd.shape != errors.shape or sd.ndim != 1:
        raise UsageError("sd and errors must be equal-length vectors")
    if sd.size == 0:
        raise UsageError("spread_skill needs at least one sample")
    if n_bins < 2:
        raise UsageError(f"spread_skill needs at least 2 bins, got {n_bins}")
    if n_bins > sd.size:
        warnings.warn(
            f"reducing spread-skill bins from {n_bins} to {sd.size} (too few samples)",
            DegenerateInputWarning,
        )
        n_bins = sd.size
    if np.ptp(sd) <= CONSTANT_SPREAD_FRACTION * np.abs(sd).max():
        # constant spread: a single degenerate bin, no meaningful fit
        return SpreadSkillResult(
            bin_mean_sd=np.array([sd.mean()]),
            bin_rmse=np.array([float(np.sqrt(np.mean(errors**2)))]),
            bin_counts=np.array([sd.size]),
            slope=float("nan"),
            intercept=float("nan"),
            r_squared=float("nan"),
        )
    order = np.argsort(sd, kind="stable")
    groups = np.array_split(order, n_bins)
    mean_sd = np.array([sd[g].mean() for g in groups])
    rmse = np.array([float(np.sqrt(np.mean(errors[g] ** 2))) for g in groups])
    counts = np.array([len(g) for g in groups])

    x = mean_sd
    y = rmse
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        slope = intercept = r2 = float("nan")
    else:
        slope, intercept = np.polyfit(x, y, 1)
        fitted = slope * x + intercept
        ss_res = float(np.sum((y - fitted) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot
    return SpreadSkillResult(
        bin_mean_sd=mean_sd,
        bin_rmse=rmse,
        bin_counts=counts,
        slope=float(slope),
        intercept=float(intercept),
        r_squared=float(r2),
    )


@dataclass
class DiscardCurve:
    fractions: np.ndarray
    rmse: np.ndarray
    n_retained: np.ndarray


def discard_fraction(
    sd: np.ndarray,
    pred: np.ndarray,
    obs: np.ndarray,
    fractions=DEFAULT_DISCARD_FRACTIONS,
) -> DiscardCurve:
    """RMSE of the subset left after dropping the most uncertain fraction.

    At fraction f the ceil(f*n) samples with largest sd are removed; ties are
    broken by original index. Fractions leaving no samples are skipped with a
    warning.
    """
    sd = np.asarray(sd, dtype=float)
    pred = np.asarray(pred, dtype=float)
    obs = np.asarray(obs, dtype=float)
    if not (sd.shape == pred.shape == obs.shape) or sd.ndim != 1 or sd.size == 0:
        raise UsageError("discard_fraction needs equal-length nonempty vectors")
    fracs = [float(f) for f in fractions]
    if any(f < 0 or f >= 1 for f in fracs) or sorted(fracs) != fracs:
        raise UsageError("fractions must be ascending and lie in [0, 1)")
    n = sd.size
    by_uncertainty = np.argsort(-sd, kind="stable")  # largest sd first, stable ties
    sq_err = (pred - obs) ** 2
    kept_fracs, rmses, retained = [], [], []
    for f in fracs:
        drop = int(np.ceil(f * n))
        keep = by_uncertainty[drop:]
        if keep.size == 0:
            warnings.warn(
                f"discard fraction {f} leaves no samples; point skipped",
                DegenerateInputWarning,
            )
            continue
        kept_fracs.append(f)
        rmses.append(float(np.sqrt(sq_err[keep].mean())))
        retained.append(keep.size)
    return DiscardCurve(
        fractions=np.asarray(kept_fracs),
        rmse=np.asarray(rmses),
        n_retained=np.asarray(retained, dtype=int),
    )


@dataclass
class PredictionSet:
    """Per-sample predictions with uncertainty; samples whose total sd
    exceeds the ``mask_percentile`` percentile are flagged highly uncertain."""

    mean: np.ndarray
    aleatoric_sd: np.ndarray
    epistemic_sd: np.ndarray
    total_sd: np.ndarray
    mask_percentile: InitVar[float] = DEFAULT_MASK_PERCENTILE
    flagged: np.ndarray = field(init=False)
    mask_threshold: float = field(init=False)

    def __post_init__(self, mask_percentile: float) -> None:
        self.flagged, self.mask_threshold = mask_highly_uncertain(self.total_sd, mask_percentile)

    def __len__(self) -> int:
        return len(self.mean)

    def interval(self, level: float) -> tuple[np.ndarray, np.ndarray]:
        return prediction_interval(self.mean, self.total_sd, level)

    @classmethod
    def from_decomposition(
        cls, dec: UncertaintyDecomposition, mask_percentile: float = DEFAULT_MASK_PERCENTILE
    ) -> "PredictionSet":
        return cls(dec.mean, dec.aleatoric_sd, dec.epistemic_sd, dec.total_sd, mask_percentile)


@dataclass
class EvalReport:
    """Full evaluation surface: error scores, coverage, and calibration curves."""

    n_samples: int
    bias: float
    mae: float
    rmse: float
    crmse: float
    pearson_r: float
    picp: dict[float, float | None]
    pitd_by_kind: dict[str, PitdResult]
    discard: DiscardCurve
    spread: SpreadSkillResult
    r2_rmse_sigma_total: float
    n_flagged: int
    mask_threshold: float
    flagged_excluded_from_picp: bool


def evaluate_predictions(
    predictions: PredictionSet,
    obs: np.ndarray,
    levels=DEFAULT_CONFIDENCE_LEVELS,
    exclude_flagged: bool = True,
) -> EvalReport:
    """Assemble the full report for one prediction/observation set."""
    obs = np.asarray(obs, dtype=float)
    if obs.shape != predictions.mean.shape:
        raise UsageError("observation vector does not match prediction count")
    errs = error_metrics(predictions.mean, obs)

    exclude = predictions.flagged if exclude_flagged else None
    coverage: dict[float, float | None] = {}
    for level in levels:
        lower, upper = predictions.interval(float(level))
        coverage[float(level)] = picp(lower, upper, obs, exclude=exclude)

    pitd_by_kind = {
        kind: pitd(pit_values(predictions.mean, getattr(predictions, f"{kind}_sd"), obs))
        for kind in UNCERTAINTY_KINDS
    }

    spread = spread_skill(predictions.total_sd, predictions.mean - obs)
    discard = discard_fraction(predictions.total_sd, predictions.mean, obs)
    return EvalReport(
        n_samples=obs.size,
        bias=errs.bias,
        mae=errs.mae,
        rmse=errs.rmse,
        crmse=errs.crmse,
        pearson_r=errs.pearson_r,
        picp=coverage,
        pitd_by_kind=pitd_by_kind,
        discard=discard,
        spread=spread,
        r2_rmse_sigma_total=spread.r_squared,
        n_flagged=int(predictions.flagged.sum()),
        mask_threshold=predictions.mask_threshold,
        flagged_excluded_from_picp=exclude_flagged,
    )


def level_key(level: float) -> str:
    """A confidence level as the ``picp`` keys of a report dict name it."""
    return f"{level:.12g}"


# The fields of ``EvalReport`` that the report dict names otherwise.
_REPORT_KEYS = {"pitd_by_kind": "pitd", "discard": "discard_fraction", "spread": "spread_skill"}


def _jsonable(value):
    """``value`` as JSON holds it: a record as an object of its fields in
    order, a float key as ``level_key`` names it, an array as a list and a
    NaN as None."""
    if is_dataclass(value):
        return {_REPORT_KEYS.get(f.name, f.name): _jsonable(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, dict):
        return {level_key(k) if isinstance(k, float) else k: _jsonable(v)
                for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, float) and np.isnan(value):
        return None
    return value


def report_to_dict(report: EvalReport) -> dict:
    """JSON-ready key/value view of a report, curves included."""
    return _jsonable(report)
