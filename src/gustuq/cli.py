"""Command-line pipeline: train, predict, evaluate, explain, spatial, tune.

Options resolve with CLI flags overriding config-file entries overriding
defaults. Every output file is written atomically and all stochastic
behavior hangs off ``--seed``, so identical invocations on identical inputs
produce identical outputs. Failures exit nonzero with a one-line
``<error-class>: <message>`` diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import artifact, data, evidential, metrics, spatial, tune, xai
from .errors import DegenerateInputWarning, GustUQError, UsageError
from .fileio import fmt, fmt_column, write_csv, write_json
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


def _check_feature_names(model: evidential.EvidentialModel, names: list[str]) -> None:
    if model.feature_names is not None and list(model.feature_names) != list(names):
        raise UsageError(
            "feature mismatch between artifact and data; "
            f"artifact expects [{', '.join(model.feature_names)}], "
            f"data provides [{', '.join(names)}]"
        )


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


def _prediction_rows(
    ids: dict, pset: metrics.PredictionSet, levels
) -> tuple[list[str], list[tuple]]:
    """Header and rows of a predictions file: the ``ids`` text columns, then
    the prediction columns."""
    header = [*ids, "mean", "aleatoric_sd", "epistemic_sd", "total_sd"]
    columns = [*ids.values()]
    columns += map(fmt_column, (pset.mean, pset.aleatoric_sd, pset.epistemic_sd, pset.total_sd))
    for level in levels:
        label = _level_label(level)
        header += [f"lower_{label}", f"upper_{label}"]
        columns += map(fmt_column, pset.interval(float(level)))
    header.append("highly_uncertain")
    flagged = np.zeros(len(pset), dtype=bool) if pset.flagged is None else pset.flagged
    columns.append(flagged.astype(int).tolist())
    return header, list(zip(*columns))


def cmd_predict(opts: dict) -> None:
    _require(opts, "data", "model", "out")
    out = _out_dir(opts)
    model = artifact.load_model(opts["model"])
    ds = data.load_features_csv(opts["data"])
    _check_feature_names(model, ds.feature_names)
    levels = opts["levels"]
    pset = metrics.PredictionSet.from_decomposition(
        model.predict(ds.features), levels, opts["mask_percentile"]
    )
    storms, times = ds.storm_ids.tolist(), data.format_timestamps(ds.timestamps)
    lats, lons = fmt_column(ds.lats), fmt_column(ds.lons)

    if ds.station_ids is not None:
        header, rows = _prediction_rows(
            {"station_id": ds.station_ids.tolist(), "timestamp_utc": times,
             "storm_id": storms, "lat": lats, "lon": lons},
            pset, levels,
        )
        write_csv(out / "predictions.csv", header, rows)
        print(f"wrote {out / 'predictions.csv'}")
        return

    header, rows = _prediction_rows(
        {"storm_id": storms, "timestamp_utc": times, "row": ds.grid_rows.tolist(),
         "col": ds.grid_cols.tolist(), "lat": lats, "lon": lons},
        pset, levels,
    )
    write_csv(out / "grid_predictions.csv", header, rows)
    del storms, times, lats, lons, rows  # free the text before the cubes are built

    # hourly spatial gradient of the mean prediction field; cells in (t, r, c) order
    cells = (ds.storm_ids, ds.timestamps, ds.grid_rows, ds.grid_cols, ds.lats, ds.lons)
    mean_cubes = spatial.storm_cubes(*cells, pset.mean)
    gradient_rows = []
    for storm, (hours, field) in mean_cubes.items():
        gradient = spatial.spatial_gradient(field)
        t, r, c = np.nonzero(gradient.valid)
        gradient_rows += zip(
            itertools.repeat(storm),
            data.format_timestamps(hours[t]),
            fmt_column(gradient.lats[r]),
            fmt_column(gradient.lons[c]),
            fmt_column(gradient.values[t, r, c]),
        )
    write_csv(
        out / "gradient_mean.csv",
        ["storm_id", "time", "lat", "lon", "gradient"],
        gradient_rows,
    )

    # storm-duration cell averages of mean and total sd, min-max normalized
    sd_cubes = spatial.storm_cubes(*cells, pset.total_sd)
    norm_rows = []
    for storm, (_, field) in mean_cubes.items():
        mean_avg = _average_fields(field)
        sd_avg = _average_fields(sd_cubes[storm][1])
        norm_mean = _safe_normalize(mean_avg, f"storm {storm} mean field")
        norm_sd = _safe_normalize(sd_avg, f"storm {storm} total-sd field")
        r, c = np.nonzero(mean_avg.valid)
        blank = itertools.repeat("")
        norm_rows += zip(
            itertools.repeat(storm),
            fmt_column(mean_avg.lats[r]),
            fmt_column(mean_avg.lons[c]),
            blank if norm_mean is None else fmt_column(norm_mean.values[r, c]),
            blank if norm_sd is None else fmt_column(norm_sd.values[r, c]),
        )
    write_csv(
        out / "normalized_fields.csv",
        ["storm_id", "lat", "lon", "mean_norm", "total_sd_norm"],
        norm_rows,
    )
    print(f"wrote {out / 'grid_predictions.csv'}")


def _average_fields(field: spatial.GridField) -> spatial.GridField:
    """Cell-wise mean over the hours of a cube; a cell is valid if valid in
    any hour."""
    count = field.valid.sum(axis=0)
    total = np.where(field.valid, field.values, 0.0).sum(axis=0)
    out_valid = count > 0
    values = np.full(out_valid.shape, np.nan)
    np.divide(total, count, out=values, where=out_valid)
    return field.with_values(values, valid=out_valid)


def _safe_normalize(values, what: str):
    """``minmax_normalize`` of a field or an array, or None with a warning."""
    try:
        return spatial.minmax_normalize(values)
    except UsageError:
        warnings.warn(f"{what} is constant; normalization skipped", DegenerateInputWarning)
        return None


# ---------------------------------------------------------------------------
# evaluate


def cmd_evaluate(opts: dict) -> None:
    _require(opts, "pred", "data", "out")
    out = _out_dir(opts)
    levels = opts["levels"]
    pred = data.read_csv(
        opts["pred"],
        {"station_id": data.id_column, "timestamp_utc": data.time_column,
         **dict.fromkeys(["mean", "aleatoric_sd", "epistemic_sd", "total_sd"], data.float_column)},
        key=("station_id", "timestamp_utc"),
        exact=False,
    )
    if len(pred["mean"]) == 0:
        raise UsageError(f"{opts['pred']}: no prediction rows")
    obs_ds = data.load_station_csv(opts["data"], require_target=True)
    obs_index = {
        key: i
        for i, key in enumerate(
            zip(obs_ds.station_ids.tolist(), obs_ds.timestamps.view(np.int64).tolist())
        )
    }
    keys = zip(pred["station_id"].tolist(), pred["timestamp_utc"].view(np.int64).tolist())
    match = np.fromiter((obs_index.get(k, -1) for k in keys), np.int64, len(pred["mean"]))
    joined = match >= 0
    if not np.any(joined):
        sample = "; ".join(
            f"{pred['station_id'][i]}@{data.format_timestamp(pred['timestamp_utc'][i])}"
            for i in np.flatnonzero(~joined)[:10]
        )
        raise UsageError(f"no predictions matched observations; first unmatched keys: {sample}")

    mean, alea, epis, total = (
        pred[c][joined] for c in ("mean", "aleatoric_sd", "epistemic_sd", "total_sd")
    )
    obs = obs_ds.gust[match[joined]]
    stations = pred["station_id"][joined]

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
    kinds = {"storm_id": data.id_column, "timestamp_utc": data.time_column,
             "row": data.index_column, "col": data.index_column,
             **dict.fromkeys(["lat", "lon", "total_sd"], data.float_column)}
    pred = data.read_csv(
        opts["pred"], kinds, key=("storm_id", "timestamp_utc", "row", "col"), exact=False
    )
    if len(pred["total_sd"]) == 0:
        raise UsageError(f"{opts['pred']}: no prediction rows")
    feature_ds = data.load_grid_csv(opts["data"])
    ws_index = feature_ds.feature_names.index("WS_10m")

    uq_cubes = spatial.storm_cubes(*(pred[c] for c in kinds))
    ws_cubes = spatial.storm_cubes(
        feature_ds.storm_ids, feature_ds.timestamps, feature_ds.grid_rows,
        feature_ds.grid_cols, feature_ds.lats, feature_ds.lons,
        feature_ds.features[:, ws_index],
    )

    storms = sorted(set(uq_cubes) & set(ws_cubes))
    if not storms:
        raise UsageError("prediction and feature files share no storms")

    track_rows = []
    series_rows = []
    alignment: dict[str, dict[str, float]] = {}
    for storm in storms:
        ws_track = spatial.track_spatial_max(*ws_cubes[storm])
        uq_track = spatial.track_spatial_max(*uq_cubes[storm])
        uq_index = {p.time: k for k, p in enumerate(uq_track)}
        ws_norm = _safe_normalize(
            np.array([p.value for p in ws_track]), f"storm {storm} wind max series"
        )
        uq_norm = _safe_normalize(
            np.array([p.value for p in uq_track]), f"storm {storm} uq max series"
        )
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
