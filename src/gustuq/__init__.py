"""Evidential wind-gust prediction with calibrated uncertainty.

A numpy library (plus a thin CLI) for training a small evidential
network whose Normal-Inverse-Gamma head yields aleatoric, epistemic, and
total uncertainty per prediction, together with the evaluation suite
(prediction intervals, PICP, PIT/PITD, spread-skill, discard fraction),
explainability procedures (PFI, PDP), gridded spatial post-processing, and a
multi-objective hyperparameter search.
"""

from .data import (
    FEATURE_NAMES,
    Dataset,
    SplitSpec,
    Standardizer,
    chronological_split,
    day_of_year_cos,
    load_grid_csv,
    load_station_csv,
    read_csv,
    wind_direction_components,
)
from .evidential import (
    EvidentialModel,
    NIGParams,
    UncertaintyDecomposition,
    decompose,
    evidence_regularizer,
    head_transform,
    nig_nll,
    train_evidential,
)
from .metrics import (
    EvalReport,
    PredictionSet,
    discard_fraction,
    error_metrics,
    evaluate_predictions,
    mask_highly_uncertain,
    picp,
    pit_values,
    pitd,
    prediction_interval,
    spread_skill,
)
from .nncore import MLP, Adam, TrainConfig
from .spatial import (
    GridField,
    StationSet,
    alignment_fraction,
    bilinear_to_stations,
    minmax_normalize,
    spatial_gradient,
    storm_cubes,
    track_spatial_max,
)
from .tune import HyperSpace, TrialConfig, TrialResult, pareto_front, sample, search
from .xai import partial_dependence, permutation_importance
from .artifact import load_model, save_model

__version__ = "0.1.0"

__all__ = [
    "FEATURE_NAMES",
    "Dataset",
    "SplitSpec",
    "Standardizer",
    "chronological_split",
    "day_of_year_cos",
    "load_grid_csv",
    "load_station_csv",
    "read_csv",
    "wind_direction_components",
    "EvidentialModel",
    "NIGParams",
    "UncertaintyDecomposition",
    "decompose",
    "evidence_regularizer",
    "head_transform",
    "nig_nll",
    "train_evidential",
    "EvalReport",
    "PredictionSet",
    "discard_fraction",
    "error_metrics",
    "evaluate_predictions",
    "mask_highly_uncertain",
    "picp",
    "pit_values",
    "pitd",
    "prediction_interval",
    "spread_skill",
    "MLP",
    "Adam",
    "TrainConfig",
    "GridField",
    "StationSet",
    "alignment_fraction",
    "bilinear_to_stations",
    "minmax_normalize",
    "spatial_gradient",
    "storm_cubes",
    "track_spatial_max",
    "HyperSpace",
    "TrialConfig",
    "TrialResult",
    "pareto_front",
    "sample",
    "search",
    "partial_dependence",
    "permutation_importance",
    "load_model",
    "save_model",
]
