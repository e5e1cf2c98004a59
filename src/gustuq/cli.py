"""Command-line pipeline: train, predict, evaluate, explain, spatial, tune.

Options resolve with CLI flags overriding config-file entries overriding
defaults. Every output file is written atomically and all stochastic
behavior hangs off ``--seed``, so identical invocations on identical inputs
produce identical outputs. Failures exit nonzero with a one-line
``<error-class>: <message>`` diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import artifact, data, evidential, metrics, spatial, tune, xai
from .errors import DegenerateInputWarning, GustUQError, IngestError, UsageError
from .fileio import fmt, write_csv, write_json
from .nncore import TrainConfig

COMMON_DEFAULTS = {
    "config": None,
    "data": None,
    "model": None,
    "out": None,
    "seed": 0,
    "levels": list(metrics.DEFAULT_CONFIDENCE_LEVELS),
    "mask_percentile": metrics.DEFAULT_MASK_PERCENTILE,
}

TRAIN_DEFAULTS = {
    **COMMON_DEFAULTS,
    "split": None,  # storm counts "train,val,test"; default 60/20/20 by storms
    "hidden_layers": 1,
    "hidden_neurons": 64,
    "dropout": 0.15,
    "l1": 0.0,
    "l2": 0.0,
    "learning_rate": 1e-3,
    "batch_size": 256,
    "max_epochs": 200,
    "patience": 10,
    "evidential_coef": 0.59,
}

EXPLAIN_DEFAULTS = {**COMMON_DEFAULTS, "n_shuffles": 10, "pdp_grid": 100}

SPATIAL_DEFAULTS = {**COMMON_DEFAULTS, "pred": None, "align_k": [0, 1, 2, 3]}

EVALUATE_DEFAULTS = {**COMMON_DEFAULTS, "pred": None, "exclude_flagged": True}

TUNE_DEFAULTS = {
    **COMMON_DEFAULTS,
    "split": None,
    "trials": 500,
    "max_epochs": 200,
    "patience": 10,
    "scalarization_weight": 0.5,
    "space": None,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gustuq",
        description="Evidential wind-gust prediction with calibrated uncertainty",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its entries")
        p.add_argument("--data", help="input CSV (station or grid schema)")
        p.add_argument("--model", help="model artifact path")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="master RNG seed")
        p.add_argument("--levels", help="comma-separated confidence levels, e.g. 0.70,0.95")
        p.add_argument("--mask-percentile", type=float, dest="mask_percentile",
                       help="total-uncertainty percentile above which predictions are flagged")

    p = sub.add_parser("train", help="fit an evidential model on station data")
    common(p)
    p.add_argument("--split", help="storm counts train,val,test (chronological)")
    p.add_argument("--hidden-layers", type=int, dest="hidden_layers")
    p.add_argument("--hidden-neurons", type=int, dest="hidden_neurons")
    p.add_argument("--dropout", type=float)
    p.add_argument("--l1", type=float)
    p.add_argument("--l2", type=float)
    p.add_argument("--learning-rate", type=float, dest="learning_rate")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--max-epochs", type=int, dest="max_epochs")
    p.add_argument("--patience", type=int)
    p.add_argument("--evidential-coef", type=float, dest="evidential_coef")

    p = sub.add_parser("predict", help="predict with uncertainty on station or grid data")
    common(p)

    p = sub.add_parser("evaluate", help="score predictions against observations")
    common(p)
    p.add_argument("--pred", help="predictions CSV from the predict command")
    p.add_argument("--no-exclude-flagged", dest="exclude_flagged",
                   action="store_false", default=None,
                   help="keep highly uncertain predictions in PICP")

    p = sub.add_parser("explain", help="permutation importance and partial dependence")
    common(p)
    p.add_argument("--n-shuffles", type=int, dest="n_shuffles")
    p.add_argument("--pdp-grid", type=int, dest="pdp_grid")

    p = sub.add_parser("spatial", help="spatial-max tracking and alignment on grid predictions")
    common(p)
    p.add_argument("--pred", help="grid predictions CSV from the predict command")
    p.add_argument("--align-k", dest="align_k",
                   help="comma-separated cell distances for the alignment statistic")

    p = sub.add_parser("tune", help="multi-objective random hyperparameter search")
    common(p)
    p.add_argument("--split", help="storm counts train,val[,test]")
    p.add_argument("--trials", type=int)
    p.add_argument("--max-epochs", type=int, dest="max_epochs")
    p.add_argument("--patience", type=int)
    p.add_argument("--scalarization-weight", type=float, dest="scalarization_weight")
    return parser


def merge_options(args: argparse.Namespace, defaults: dict) -> dict:
    """Resolve options: defaults, then config file, then explicit flags."""
    opts = dict(defaults)
    cli = {k: v for k, v in vars(args).items() if k != "command"}
    config_path = cli.get("config")
    if config_path:
        try:
            with open(config_path) as fh:
                file_opts = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {config_path}: invalid JSON ({exc})")
        if not isinstance(file_opts, dict):
            raise UsageError(f"config file {config_path}: expected a JSON object")
        unknown = sorted(set(file_opts) - set(defaults))
        if unknown:
            raise UsageError(
                f"config file {config_path}: unknown keys {', '.join(unknown)}"
            )
        opts.update(file_opts)
    for key, value in cli.items():
        if value is not None:
            opts[key] = value

    if isinstance(opts.get("levels"), str):
        opts["levels"] = [float(x) for x in opts["levels"].split(",") if x.strip()]
    if isinstance(opts.get("align_k"), str):
        opts["align_k"] = [int(x) for x in opts["align_k"].split(",") if x.strip()]
    if isinstance(opts.get("split"), str):
        parts = [int(x) for x in opts["split"].split(",") if x.strip()]
        if len(parts) == 2:
            parts.append(0)
        if len(parts) != 3:
            raise UsageError(f"--split expects train,val[,test] counts, got {opts['split']!r}")
        opts["split"] = tuple(parts)
    elif isinstance(opts.get("split"), list):
        opts["split"] = tuple(int(x) for x in opts["split"])
    return opts


def _require(opts: dict, *keys: str) -> None:
    missing = [k for k in keys if not opts.get(k)]
    if missing:
        raise UsageError(f"missing required option(s): {', '.join('--' + m for m in missing)}")


def _out_dir(opts: dict) -> Path:
    out = Path(opts["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _level_label(level: float) -> str:
    return f"{level * 100:g}"


def _split_counts(opts: dict, n_storms: int) -> tuple[int, int, int]:
    if opts.get("split") is not None:
        return opts["split"]
    val_n = max(1, round(0.2 * n_storms))
    test_n = max(0, round(0.2 * n_storms))
    train_n = n_storms - val_n - test_n
    if train_n < 1:
        raise UsageError(f"cannot auto-split {n_storms} storms; pass --split")
    return train_n, val_n, test_n


def _detect_schema(path) -> str:
    with open(path, newline="") as fh:
        header = fh.readline().strip().split(",")
    if "station_id" in header:
        return "station"
    if "row" in header and "col" in header:
        return "grid"
    raise IngestError(f"{path}: header matches neither the station nor the grid schema")


def _check_feature_names(model: evidential.EvidentialModel, names: list[str]) -> None:
    if model.feature_names is not None and list(model.feature_names) != list(names):
        raise UsageError(
            "feature mismatch between artifact and data; "
            f"artifact expects [{', '.join(model.feature_names)}], "
            f"data provides [{', '.join(names)}]"
        )


def _read_csv_rows(path, required: list[str]) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise IngestError(f"{path}: empty file without header")
        missing = [c for c in required if c not in reader.fieldnames]
        if missing:
            raise UsageError(f"{path}: missing columns {', '.join(missing)}")
        return list(reader)


# ---------------------------------------------------------------------------
# train


def _write_epoch_log(path, log) -> None:
    write_csv(
        path,
        ["epoch", "train_loss", "val_loss", "val_mae"],
        [[e.epoch, fmt(e.train_loss), fmt(e.val_loss), fmt(e.val_mae)] for e in log],
    )


def _write_report_files(out: Path, prefix: str, report: metrics.EvalReport) -> None:
    write_json(out / f"{prefix}report.json", metrics.report_to_dict(report))
    write_csv(
        out / f"{prefix}discard.csv",
        ["fraction", "rmse", "n_retained"],
        [
            [fmt(f), fmt(r), int(n)]
            for f, r, n in zip(
                report.discard.fractions, report.discard.rmse, report.discard.n_retained
            )
        ],
    )
    write_csv(
        out / f"{prefix}spread_skill.csv",
        ["bin", "mean_sd", "rmse", "count"],
        [
            [i, fmt(s), fmt(r), int(c)]
            for i, (s, r, c) in enumerate(
                zip(report.spread.bin_mean_sd, report.spread.bin_rmse, report.spread.bin_counts)
            )
        ],
    )
    pit_rows = []
    for kind, res in report.pitd_by_kind.items():
        edges = np.linspace(0.0, 1.0, res.n_bins + 1)
        for i, count in enumerate(res.bin_counts):
            pit_rows.append([kind, i, fmt(edges[i]), fmt(edges[i + 1]), int(count)])
    write_csv(out / f"{prefix}pit_hist.csv", ["kind", "bin", "left", "right", "count"], pit_rows)


def cmd_train(opts: dict) -> None:
    _require(opts, "data", "out")
    out = _out_dir(opts)
    ds = data.load_station_csv(opts["data"], require_target=True)
    if len(ds) == 0:
        raise UsageError("training data is empty")
    n_storms = len(set(ds.storm_ids.tolist()))
    train_n, val_n, test_n = _split_counts(opts, n_storms)
    spec, train_ds, val_ds, _test_ds = data.chronological_split(ds, train_n, val_n, test_n)

    standardizer = data.Standardizer.fit(train_ds.features)
    config = TrainConfig(
        learning_rate=opts["learning_rate"],
        batch_size=opts["batch_size"],
        max_epochs=opts["max_epochs"],
        patience=opts["patience"],
        evidential_coef=opts["evidential_coef"],
        seed=opts["seed"],
    )
    model, log = evidential.train_evidential(
        standardizer.apply(train_ds.features),
        train_ds.gust,
        standardizer.apply(val_ds.features),
        val_ds.gust,
        hidden_sizes=[opts["hidden_neurons"]] * opts["hidden_layers"],
        config=config,
        dropout=opts["dropout"],
        l1=opts["l1"],
        l2=opts["l2"],
        feature_names=ds.feature_names,
        standardizer=standardizer,
    )

    artifact.save_model(model, out / "model.json")
    _write_epoch_log(out / "epoch_log.csv", log)
    write_json(
        out / "split.json",
        {
            "ordered_storms": spec.ordered_storms,
            "train": spec.train_storms,
            "validation": spec.val_storms,
            "test": spec.test_storms,
        },
    )
    pset = metrics.PredictionSet.from_decomposition(
        model.predict(val_ds.features), opts["levels"], opts["mask_percentile"]
    )
    report = metrics.evaluate_predictions(pset, val_ds.gust, levels=opts["levels"])
    _write_report_files(out, "validation_", report)
    print(f"wrote {out / 'model.json'}")


# ---------------------------------------------------------------------------
# predict


def _prediction_rows(ds, pset: metrics.PredictionSet, levels, id_columns) -> tuple[list[str], list[list]]:
    header = [*id_columns, "mean", "aleatoric_sd", "epistemic_sd", "total_sd"]
    for level in levels:
        label = _level_label(level)
        header += [f"lower_{label}", f"upper_{label}"]
    header.append("highly_uncertain")
    bounds = [pset.interval(float(level)) for level in levels]
    rows = []
    for i in range(len(pset)):
        row = []
        for col in id_columns:
            if col == "storm_id":
                row.append(ds.storm_ids[i])
            elif col == "timestamp_utc":
                row.append(data.format_timestamp(ds.timestamps[i]))
            elif col == "station_id":
                row.append(ds.station_ids[i])
            elif col == "row":
                row.append(int(ds.grid_rows[i]))
            elif col == "col":
                row.append(int(ds.grid_cols[i]))
            elif col == "lat":
                row.append(fmt(ds.lats[i]))
            elif col == "lon":
                row.append(fmt(ds.lons[i]))
        row += [
            fmt(pset.mean[i]),
            fmt(pset.aleatoric_sd[i]),
            fmt(pset.epistemic_sd[i]),
            fmt(pset.total_sd[i]),
        ]
        for lower, upper in bounds:
            row += [fmt(lower[i]), fmt(upper[i])]
        row.append(int(pset.flagged[i]) if pset.flagged is not None else 0)
        rows.append(row)
    return header, rows


def _grid_fields_by_storm(
    storm_ids: np.ndarray,
    timestamps: np.ndarray,
    grid_rows: np.ndarray,
    grid_cols: np.ndarray,
    cell_lats: np.ndarray,
    cell_lons: np.ndarray,
    values: np.ndarray,
):
    """Reassemble long-format rows into per-storm, per-hour grid fields."""
    result: dict[str, list] = {}
    for storm in sorted(set(storm_ids.tolist())):
        sel = np.flatnonzero(storm_ids == storm)
        rows_idx = grid_rows[sel]
        cols_idx = grid_cols[sel]
        n_rows = int(rows_idx.max()) + 1
        n_cols = int(cols_idx.max()) + 1
        lats = np.full(n_rows, np.nan)
        lons = np.full(n_cols, np.nan)
        lats[rows_idx] = cell_lats[sel]
        lons[cols_idx] = cell_lons[sel]
        if np.any(np.isnan(lats)) or np.any(np.isnan(lons)):
            raise IngestError(
                f"storm {storm}: some grid row/col indices never appear, "
                "cannot reconstruct the raster axes"
            )
        series = []
        for ts in np.unique(timestamps[sel]):
            at = sel[timestamps[sel] == ts]
            grid_values = np.full((n_rows, n_cols), np.nan)
            valid = np.zeros((n_rows, n_cols), dtype=bool)
            grid_values[grid_rows[at], grid_cols[at]] = values[at]
            valid[grid_rows[at], grid_cols[at]] = True
            series.append(
                (ts, spatial.GridField(lats=lats, lons=lons, values=grid_values, valid=valid))
            )
        result[storm] = series
    return result


def _dataset_fields_by_storm(ds, values: np.ndarray):
    return _grid_fields_by_storm(
        ds.storm_ids, ds.timestamps, ds.grid_rows, ds.grid_cols, ds.lats, ds.lons, values
    )


def cmd_predict(opts: dict) -> None:
    _require(opts, "data", "model", "out")
    out = _out_dir(opts)
    model = artifact.load_model(opts["model"])
    schema = _detect_schema(opts["data"])
    levels = opts["levels"]

    if schema == "station":
        ds = data.load_station_csv(opts["data"], require_target=False)
        _check_feature_names(model, ds.feature_names)
        pset = metrics.PredictionSet.from_decomposition(
            model.predict(ds.features), levels, opts["mask_percentile"]
        )
        header, rows = _prediction_rows(
            ds, pset, levels, ["station_id", "timestamp_utc", "storm_id", "lat", "lon"]
        )
        write_csv(out / "predictions.csv", header, rows)
        print(f"wrote {out / 'predictions.csv'}")
        return

    ds = data.load_grid_csv(opts["data"])
    _check_feature_names(model, ds.feature_names)
    pset = metrics.PredictionSet.from_decomposition(
        model.predict(ds.features), levels, opts["mask_percentile"]
    )
    header, rows = _prediction_rows(
        ds, pset, levels, ["storm_id", "timestamp_utc", "row", "col", "lat", "lon"]
    )
    write_csv(out / "grid_predictions.csv", header, rows)

    # hourly spatial gradient of the mean prediction field
    mean_fields = _dataset_fields_by_storm(ds, pset.mean)
    gradient_rows = []
    for storm, series in mean_fields.items():
        for ts, grid in series:
            gradient = spatial.spatial_gradient(grid)
            for r in range(gradient.shape[0]):
                for c in range(gradient.shape[1]):
                    if gradient.valid[r, c]:
                        gradient_rows.append(
                            [
                                storm,
                                data.format_timestamp(ts),
                                fmt(gradient.lats[r]),
                                fmt(gradient.lons[c]),
                                fmt(gradient.values[r, c]),
                            ]
                        )
    write_csv(
        out / "gradient_mean.csv",
        ["storm_id", "time", "lat", "lon", "gradient"],
        gradient_rows,
    )

    # storm-duration cell averages of mean and total sd, min-max normalized
    sd_fields = _dataset_fields_by_storm(ds, pset.total_sd)
    norm_rows = []
    for storm in mean_fields:
        mean_avg = _average_fields([g for _, g in mean_fields[storm]])
        sd_avg = _average_fields([g for _, g in sd_fields[storm]])
        norm_mean = _safe_normalize(mean_avg, f"storm {storm} mean field")
        norm_sd = _safe_normalize(sd_avg, f"storm {storm} total-sd field")
        for r in range(mean_avg.shape[0]):
            for c in range(mean_avg.shape[1]):
                if mean_avg.valid[r, c]:
                    norm_rows.append(
                        [
                            storm,
                            fmt(mean_avg.lats[r]),
                            fmt(mean_avg.lons[c]),
                            "" if norm_mean is None else fmt(norm_mean.values[r, c]),
                            "" if norm_sd is None else fmt(norm_sd.values[r, c]),
                        ]
                    )
    write_csv(
        out / "normalized_fields.csv",
        ["storm_id", "lat", "lon", "mean_norm", "total_sd_norm"],
        norm_rows,
    )
    print(f"wrote {out / 'grid_predictions.csv'}")


def _average_fields(fields: list[spatial.GridField]) -> spatial.GridField:
    """Cell-wise mean over hours; a cell is valid if valid in any hour."""
    stack = np.stack([f.values for f in fields])
    valid = np.stack([f.valid for f in fields])
    count = valid.sum(axis=0)
    total = np.where(valid, stack, 0.0).sum(axis=0)
    out_valid = count > 0
    values = np.full(fields[0].shape, np.nan)
    np.divide(total, count, out=values, where=out_valid)
    return fields[0].with_values(values, valid=out_valid)


def _safe_normalize(grid: spatial.GridField, what: str):
    try:
        return spatial.minmax_normalize(grid)
    except UsageError:
        warnings.warn(f"{what} is constant; normalization skipped", DegenerateInputWarning)
        return None


# ---------------------------------------------------------------------------
# evaluate


def cmd_evaluate(opts: dict) -> None:
    _require(opts, "pred", "data", "out")
    out = _out_dir(opts)
    levels = opts["levels"]
    pred_rows = _read_csv_rows(
        opts["pred"],
        ["station_id", "timestamp_utc", "mean", "aleatoric_sd", "epistemic_sd", "total_sd"],
    )
    if not pred_rows:
        raise UsageError(f"{opts['pred']}: no prediction rows")
    obs_ds = data.load_station_csv(opts["data"], require_target=True)
    obs_map = {
        (str(obs_ds.station_ids[i]), data.format_timestamp(obs_ds.timestamps[i])): float(
            obs_ds.gust[i]
        )
        for i in range(len(obs_ds))
    }

    joined = []
    unmatched = []
    for row in pred_rows:
        key = (row["station_id"], row["timestamp_utc"])
        if key in obs_map:
            joined.append((row, obs_map[key]))
        else:
            unmatched.append(key)
    if not joined:
        sample = "; ".join(f"{sid}@{ts}" for sid, ts in unmatched[:10])
        raise UsageError(f"no predictions matched observations; first unmatched keys: {sample}")

    mean = np.array([float(r["mean"]) for r, _ in joined])
    alea = np.array([float(r["aleatoric_sd"]) for r, _ in joined])
    epis = np.array([float(r["epistemic_sd"]) for r, _ in joined])
    total = np.array([float(r["total_sd"]) for r, _ in joined])
    obs = np.array([g for _, g in joined])
    stations = np.array([r["station_id"] for r, _ in joined])

    flagged, threshold = metrics.mask_highly_uncertain(total, opts["mask_percentile"])
    pset = metrics.PredictionSet(
        mean=mean,
        aleatoric_sd=alea,
        epistemic_sd=epis,
        total_sd=total,
        flagged=flagged,
        mask_threshold=threshold,
    )
    report = metrics.evaluate_predictions(
        pset, obs, levels=levels, exclude_flagged=opts["exclude_flagged"]
    )
    _write_report_files(out, "", report)

    station_rows = []
    for station in sorted(set(stations.tolist())):
        sel = stations == station
        exclude = flagged[sel] if opts["exclude_flagged"] else None
        for level in levels:
            lower, upper = pset.interval(float(level))
            value = metrics.picp(lower[sel], upper[sel], obs[sel], exclude=exclude)
            n_total = int(sel.sum())
            n_kept = n_total - int(flagged[sel].sum()) if opts["exclude_flagged"] else n_total
            station_rows.append(
                [
                    station,
                    _level_label(level),
                    "" if value is None else fmt(value),
                    n_total,
                    n_kept,
                ]
            )
    write_csv(
        out / "picp_stations.csv",
        ["station_id", "level", "picp", "n_total", "n_retained"],
        station_rows,
    )
    print(f"wrote {out / 'report.json'}")


# ---------------------------------------------------------------------------
# explain


def cmd_explain(opts: dict) -> None:
    _require(opts, "data", "model", "out")
    out = _out_dir(opts)
    model = artifact.load_model(opts["model"])
    ds = data.load_station_csv(opts["data"], require_target=True)
    _check_feature_names(model, ds.feature_names)

    pfi = xai.permutation_importance(
        model.mean_and_total_sd,
        ds.features,
        ds.gust,
        feature_names=ds.feature_names,
        n_shuffles=opts["n_shuffles"],
        seed=opts["seed"],
    )
    write_csv(
        out / "pfi.csv",
        [
            "feature",
            "delta_rmse_mean",
            "delta_rmse_sd",
            "delta_r2_mean",
            "delta_r2_sd",
            "n_shuffles",
            "note",
        ],
        [
            [
                f.feature,
                fmt(f.delta_rmse_mean),
                fmt(f.delta_rmse_sd),
                fmt(f.delta_r2_mean),
                fmt(f.delta_r2_sd),
                f.n_shuffles,
                f.note,
            ]
            for f in pfi.features
        ],
    )

    pdp_rows = []
    for j in range(ds.features.shape[1]):
        curve = xai.partial_dependence(
            model.mean_and_total_sd,
            ds.features,
            j,
            feature_names=ds.feature_names,
            n_grid=opts["pdp_grid"],
        )
        for g, value in enumerate(curve.grid):
            pdp_rows.append(
                [
                    curve.feature,
                    g,
                    fmt(value),
                    fmt(curve.pred_mean[g]),
                    fmt(curve.pred_sd[g]),
                    fmt(curve.uncertainty_mean[g]),
                    fmt(curve.uncertainty_sd[g]),
                ]
            )
    write_csv(
        out / "pdp.csv",
        [
            "feature",
            "grid_index",
            "grid_value",
            "pred_mean",
            "pred_sd",
            "total_sd_mean",
            "total_sd_sd",
        ],
        pdp_rows,
    )
    print(f"wrote {out / 'pfi.csv'} and {out / 'pdp.csv'}")


# ---------------------------------------------------------------------------
# spatial


def cmd_spatial(opts: dict) -> None:
    _require(opts, "pred", "data", "out")
    out = _out_dir(opts)
    pred_rows = _read_csv_rows(
        opts["pred"], ["storm_id", "timestamp_utc", "row", "col", "lat", "lon", "total_sd"]
    )
    if not pred_rows:
        raise UsageError(f"{opts['pred']}: no prediction rows")
    feature_ds = data.load_grid_csv(opts["data"])
    ws_index = feature_ds.feature_names.index("WS_10m")

    uq_fields = _grid_fields_by_storm(
        np.array([r["storm_id"] for r in pred_rows]),
        np.array([data.parse_timestamp(r["timestamp_utc"]) for r in pred_rows],
                 dtype="datetime64[s]"),
        np.array([int(r["row"]) for r in pred_rows]),
        np.array([int(r["col"]) for r in pred_rows]),
        np.array([float(r["lat"]) for r in pred_rows]),
        np.array([float(r["lon"]) for r in pred_rows]),
        np.array([float(r["total_sd"]) for r in pred_rows]),
    )
    ws_fields = _dataset_fields_by_storm(feature_ds, feature_ds.features[:, ws_index])

    storms = sorted(set(uq_fields) & set(ws_fields))
    if not storms:
        raise UsageError("prediction and feature files share no storms")

    track_rows = []
    series_rows = []
    alignment: dict[str, dict[str, float]] = {}
    for storm in storms:
        ws_track = spatial.track_spatial_max(ws_fields[storm])
        uq_track = spatial.track_spatial_max(uq_fields[storm])
        uq_index = {p.time: k for k, p in enumerate(uq_track)}
        ws_norm = _normalize_or_none(np.array([p.value for p in ws_track]))
        uq_norm = _normalize_or_none(np.array([p.value for p in uq_track]))
        for i, p in enumerate(ws_track):
            k = uq_index.get(p.time)
            q = uq_track[k] if k is not None else None
            track_rows.append(
                [
                    storm,
                    data.format_timestamp(p.time),
                    fmt(p.value), fmt(p.lat), fmt(p.lon), p.row, p.col,
                    "" if q is None else fmt(q.value),
                    "" if q is None else fmt(q.lat),
                    "" if q is None else fmt(q.lon),
                    "" if q is None else q.row,
                    "" if q is None else q.col,
                ]
            )
            series_rows.append(
                [
                    storm,
                    data.format_timestamp(p.time),
                    "" if ws_norm is None else fmt(ws_norm[i]),
                    "" if uq_norm is None or k is None else fmt(uq_norm[k]),
                ]
            )
        alignment[storm] = {
            str(k): spatial.alignment_fraction(ws_track, uq_track, k)
            for k in opts["align_k"]
        }

    write_csv(
        out / "max_tracks.csv",
        [
            "storm_id", "time",
            "wind_value", "wind_lat", "wind_lon", "wind_row", "wind_col",
            "uq_value", "uq_lat", "uq_lon", "uq_row", "uq_col",
        ],
        track_rows,
    )
    write_csv(
        out / "normalized_series.csv",
        ["storm_id", "time", "wind_max_norm", "uq_max_norm"],
        series_rows,
    )
    write_json(out / "alignment.json", alignment)
    print(f"wrote {out / 'alignment.json'}")


def _normalize_or_none(values: np.ndarray):
    try:
        return spatial.minmax_normalize(values)
    except UsageError:
        warnings.warn("constant max series; normalization skipped", DegenerateInputWarning)
        return None


# ---------------------------------------------------------------------------
# tune


def cmd_tune(opts: dict) -> None:
    _require(opts, "data", "out")
    out = _out_dir(opts)
    ds = data.load_station_csv(opts["data"], require_target=True)
    n_storms = len(set(ds.storm_ids.tolist()))
    train_n, val_n, test_n = _split_counts(opts, n_storms)
    _spec, train_ds, val_ds, _test_ds = data.chronological_split(ds, train_n, val_n, test_n)

    standardizer = data.Standardizer.fit(train_ds.features)
    objective = tune.make_evidential_objective(
        standardizer.apply(train_ds.features),
        train_ds.gust,
        standardizer.apply(val_ds.features),
        val_ds.gust,
        max_epochs=opts["max_epochs"],
        patience=opts["patience"],
    )
    space = tune.HyperSpace()
    if opts.get("space"):
        known = {f.name for f in dataclasses.fields(space)}
        unknown = sorted(set(opts["space"]) - known)
        if unknown:
            raise UsageError(f"unknown hyperparameter space keys: {', '.join(unknown)}")
        for key, bounds in opts["space"].items():
            setattr(space, key, tuple(bounds))

    result = tune.search(
        space,
        opts["trials"],
        objective,
        seed=opts["seed"],
        log_path=out / "trials_log.csv",
        scalarization_weight=opts["scalarization_weight"],
    )

    def trial_dict(t: tune.TrialResult) -> dict:
        return {
            "trial_id": t.trial_id,
            "config": vars(t.config),
            "val_mae": t.val_mae,
            "val_r2_rmse_sigma_total": t.val_r2_rmse_sigma_total,
            "val_pitd_skill": t.val_pitd_skill,
            "n_epochs": t.n_epochs,
        }

    write_json(
        out / "pareto.json",
        {
            "objectives": {
                "val_mae": "minimize",
                "val_r2_rmse_sigma_total": "maximize",
                "val_pitd_skill": "maximize (PITD skill score)",
            },
            "n_trials": len(result.trials),
            "n_failed": result.n_failed,
            "pareto": [trial_dict(t) for t in result.pareto],
            "recommended": trial_dict(result.best),
            "scalarization_weight": opts["scalarization_weight"],
        },
    )
    print(f"wrote {out / 'pareto.json'}")


# ---------------------------------------------------------------------------

COMMANDS = {
    "train": (cmd_train, TRAIN_DEFAULTS),
    "predict": (cmd_predict, COMMON_DEFAULTS),
    "evaluate": (cmd_evaluate, EVALUATE_DEFAULTS),
    "explain": (cmd_explain, EXPLAIN_DEFAULTS),
    "spatial": (cmd_spatial, SPATIAL_DEFAULTS),
    "tune": (cmd_tune, TUNE_DEFAULTS),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler, defaults = COMMANDS[args.command]
    try:
        opts = merge_options(args, defaults)
        handler(opts)
        return 0
    except GustUQError as exc:
        print(f"{exc.error_class}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io-error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # keep the one-line contract even for bugs
        print(f"internal-error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
