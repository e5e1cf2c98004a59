"""Command-line pipeline: train, predict, evaluate, explain, spatial, tune.

Each command reads the options that ``COMMANDS`` lists for it; they resolve
with CLI flags overriding config-file entries overriding defaults, and a
config-file value passes the same check as flag text. Every output file is
written atomically and all stochastic behavior hangs off ``--seed``, so
identical invocations on identical inputs produce byte-identical outputs
on the same machine with the same numpy/BLAS build. ``main`` holds every
loaded OpenBLAS to one thread before a command runs, so the outputs do not
depend on ``OPENBLAS_NUM_THREADS`` either. Failures exit nonzero with a
one-line ``<error-class>: <message>`` diagnostic on stderr, and each
warning shown prints as one ``<Category>: <message>`` line.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import math
import sys
import warnings
from pathlib import Path
from typing import Callable, NamedTuple, get_type_hints

import numpy as np

from . import artifact, data, evidential, metrics, parallel, spatial, tune, xai
from .errors import DegenerateInputWarning, GustUQError, IngestError, UsageError
# ``fmt`` is not called here; it stays importable as ``cli.fmt``, the name
# bench/tracer.py times.
from .fileio import fmt, read_json, write_csv, write_json
from .nncore import SETTING_RULES, TrainConfig


class Kind(NamedTuple):
    """Reads one type of option: ``text`` turns flag text into a value, and
    ``check`` turns that value, or a config-file value, into the option value.
    A kind without ``text`` has no flag. Both raise ValueError."""

    text: Callable[[str], object] | None
    check: Callable[[object], object]


def _expect(ok: bool, what: str, value):
    if not ok:
        raise ValueError(f"expected {what}, got {value!r}")
    return value


def _scalar(cast, what: str, ok) -> Kind:
    def text(value: str):
        try:
            return cast(value)
        except ValueError:
            return _expect(False, what, value)

    return Kind(text, lambda value: _expect(ok(value), what, value))


INTEGER = _scalar(int, "an integer", lambda v: type(v) is int)
COUNT = _scalar(int, "an integer >= 1", lambda v: type(v) is int and v >= 1)
NON_NEGATIVE = _scalar(int, "an integer >= 0", lambda v: type(v) is int and v >= 0)
NUMBER = _scalar(float, "a finite number",
                 lambda v: type(v) in (int, float) and math.isfinite(v))
LEVEL = _scalar(float, "a number in (0, 1)", lambda v: type(v) in (int, float) and 0 < v < 1)
PERCENTILE = _scalar(float, "a number in (0, 100)",
                     lambda v: type(v) in (int, float) and 0 < v < 100)
PATH = _scalar(str, "a path", lambda v: isinstance(v, str) and v != "")
SWITCH = _scalar(bool, "true or false", lambda v: isinstance(v, bool))  # --no-<name> stores False


def _setting(name: str) -> Kind:
    """A number that training accepts for setting ``name``, by its rule in
    ``nncore.SETTING_RULES``."""
    ok, wording = SETTING_RULES[name]
    return _scalar(float, f"a number that is {wording}",
                   lambda v: type(v) in (int, float) and ok(v))


def _items(value, kind: Kind) -> list:
    """Comma text or a JSON list, each item read as ``kind``."""
    if isinstance(value, str):
        value = [kind.text(x) for x in value.split(",") if x.strip()]
    _expect(isinstance(value, list), "comma text or a list", value)
    return [kind.check(x) for x in value]


def _distinct(kind: Kind):
    """Check of one or more distinct ``kind`` values."""

    def check(value):
        items = _items(value, kind)
        _expect(0 < len(items) == len(set(items)), "one or more distinct values", value)
        return items

    return check


def _levels(value) -> list:
    """Check of distinct levels whose column labels and report keys differ too."""
    levels = _distinct(LEVEL)(value)
    for label in (_level_label, metrics.level_key):
        _expect(len(set(map(label, levels))) == len(levels), "levels with distinct labels", value)
    return levels


def _split(value) -> tuple:
    counts = _items(value, INTEGER)
    # no run trains or validates on zero storms, so refuse that before ingest
    ok = len(counts) in (2, 3) and min(counts[:2]) >= 1 and min(counts) >= 0
    _expect(ok, "2 or 3 storm counts train,val[,test], train and val >= 1, test >= 0", value)
    return (*counts, 0)[:3]  # an omitted test count is 0


def _space(value) -> dict:
    fields = {f.name for f in dataclasses.fields(tune.HyperSpace)}
    for key, bounds in _expect(isinstance(value, dict), "[low, high] bounds", value).items():
        _expect(key in fields, "a known hyperparameter", key)
        _expect(isinstance(bounds, list) and len(bounds) == 2, f"[low, high] for {key}", bounds)
        for bound in bounds:
            NUMBER.check(bound)
    space = {key: tuple(bounds) for key, bounds in value.items()}
    try:
        tune.HyperSpace(**space).validate()
    except UsageError as exc:
        raise ValueError(str(exc)) from None
    return space


class Option(NamedTuple):
    default: object
    kind: Kind
    help: str


def _default(function, name: str):
    return inspect.signature(function).parameters[name].default


# Every option of every command; the flag is "--" and the name with dashes.
# Paths have no default and are required. A default the library defines is
# read from it. COMMANDS lists the options each command reads.
OPTIONS = {
    "data": Option(None, PATH, "input CSV"),
    "model": Option(None, PATH, "model artifact written by train"),
    "out": Option(None, PATH, "output directory"),
    "pred": Option(None, PATH, "predictions CSV written by predict"),
    "seed": Option(TrainConfig.seed, NON_NEGATIVE, "master RNG seed"),
    "levels": Option(list(metrics.DEFAULT_CONFIDENCE_LEVELS), Kind(str, _levels),
                     "comma-separated confidence levels"),
    "mask_percentile": Option(metrics.DEFAULT_MASK_PERCENTILE, PERCENTILE,
                              "total-sd percentile above which predictions are flagged"),
    "split": Option(None, Kind(str, _split),
                    "chronological storm counts train,val[,test] (default 60/20/20)"),
    "hidden_layers": Option(1, COUNT, "number of hidden layers"),
    "hidden_neurons": Option(64, COUNT, "neurons per hidden layer"),
    "dropout": Option(0.15, _setting("dropout"), "dropout rate"),
    "l1": Option(_default(evidential.train_evidential, "l1"), _setting("l1"), "L1 weight penalty"),
    "l2": Option(_default(evidential.train_evidential, "l2"), _setting("l2"), "L2 weight penalty"),
    "learning_rate": Option(TrainConfig.learning_rate, _setting("learning_rate"),
                            "Adam learning rate"),
    "batch_size": Option(TrainConfig.batch_size, COUNT, "minibatch size"),
    "max_epochs": Option(TrainConfig.max_epochs, COUNT, "maximum training epochs"),
    "patience": Option(TrainConfig.patience, COUNT, "early-stopping patience in epochs"),
    "evidential_coef": Option(TrainConfig.evidential_coef, _setting("evidential_coef"),
                              "weight of the evidence regularizer"),
    "exclude_flagged": Option(_default(metrics.evaluate_predictions, "exclude_flagged"), SWITCH,
                              "keep highly uncertain predictions in PICP"),
    "n_shuffles": Option(xai.DEFAULT_N_SHUFFLES, COUNT, "permutations per feature"),
    "pdp_grid": Option(xai.DEFAULT_PDP_GRID, COUNT,
                       "partial-dependence grid points per feature"),
    "align_k": Option([0, 1, 2, 3], Kind(str, _distinct(NON_NEGATIVE)),
                      "comma-separated cell distances for the alignment statistic"),
    "trials": Option(500, COUNT, "number of trials"),
    "scalarization_weight": Option(tune.SCALARIZATION_WEIGHT, NUMBER,
                                   "weight of R^2 + PITD skill in the pick"),
    "space": Option({}, Kind(None, _space), "hyperparameter bounds (config file only)"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, like every other failure
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gustuq",
        description="Evidential wind-gust prediction with calibrated uncertainty",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, names) in COMMANDS.items():
        p = sub.add_parser(command, help=inspect.unwrap(handler).__doc__)
        p.add_argument("--config", help="JSON config file; flags override its entries")
        for name in names:
            opt, dashed = OPTIONS[name], name.replace("_", "-")
            if opt.kind is SWITCH:
                p.add_argument(f"--no-{dashed}", dest=name, action="store_false",
                               default=None, help=opt.help)
            elif opt.kind.text is not None:
                p.add_argument(f"--{dashed}", dest=name, help=opt.help)
    return parser


def _read(convert, value, where: str):
    try:
        return convert(value)
    except ValueError as exc:
        raise UsageError(f"{where}: {exc}") from None


def merge_options(args: argparse.Namespace, names) -> dict:
    """Resolve options: defaults, then config file, then explicit flags. A
    config-file value passes the same check as the text of its flag."""
    opts = {name: OPTIONS[name].default for name in names}
    config_path = args.config
    if config_path:
        file_opts = read_json(config_path, f"config file {config_path}")
        if not isinstance(file_opts, dict):
            raise UsageError(f"config file {config_path}: expected a JSON object")
        unknown = sorted(set(file_opts) - set(names))
        if unknown:
            raise UsageError(f"config file {config_path}: unknown keys {', '.join(unknown)}")
        for key, value in file_opts.items():
            opts[key] = _read(OPTIONS[key].kind.check, value, f"config file {config_path}: {key}")
    for name in names:
        if (text := getattr(args, name, None)) is not None:
            kind = OPTIONS[name].kind
            opts[name] = _read(lambda t: kind.check(kind.text(t)), text,
                               f"argument --{name.replace('_', '-')}")
    missing = [name for name in names if OPTIONS[name].kind is PATH and not opts[name]]
    if missing:
        raise UsageError(f"missing required option(s): {', '.join('--' + m for m in missing)}")
    return opts


def _out_dir(opts: dict) -> Path:
    # Not created here: the first write creates it, so a refused input leaves
    # no directory behind.
    return Path(opts["out"])


def _level_label(level: float) -> str:
    return f"{level * 100:.12g}"


def _training_split(opts: dict):
    """The prelude of ``train`` and ``tune``: load the station CSV, split it
    by storm (``--split``, or about 60/20/20 of the storms), and fit the
    feature standardizer and the one-column target scale on the training
    storms.

    Returns ``(spec, train, val, standardizer, target_scale)``.
    """
    ds = data.load_station_csv(opts["data"], require_target=True)
    if len(ds) == 0:
        raise UsageError("training data is empty")
    counts = opts["split"]
    if counts is None:
        n_storms = len(set(ds.storm_ids.tolist()))
        val_n = max(1, round(0.2 * n_storms))
        test_n = max(0, round(0.2 * n_storms))
        if n_storms - val_n - test_n < 1:
            raise UsageError(f"cannot auto-split {n_storms} storms; pass --split")
        counts = (n_storms - val_n - test_n, val_n, test_n)
    spec, train_ds, val_ds, _test_ds = data.chronological_split(ds, *counts)
    return (spec, train_ds, val_ds, data.Standardizer.fit(train_ds.features),
            data.Standardizer.fit(train_ds.gust))


def _check_feature_names(model: evidential.EvidentialModel, names: list[str]) -> None:
    if model.feature_names is not None and list(model.feature_names) != list(names):
        raise UsageError(
            "feature mismatch between artifact and data; "
            f"artifact expects [{', '.join(model.feature_names)}], "
            f"data provides [{', '.join(names)}]"
        )


# ---------------------------------------------------------------------------
# train


def _write_records(path, record_type, records) -> None:
    """One row per ``record_type`` dataclass of ``records``, one column per
    field, headed by its name: text as is, numbers as arrays of its type."""
    kinds = get_type_hints(record_type)
    write_csv(path, list(kinds), *(
        [getattr(r, name) for r in records] if kind is str
        else np.array([getattr(r, name) for r in records], kind)
        for name, kind in kinds.items()))


def _write_report_files(out: Path, prefix: str, report: metrics.EvalReport) -> None:
    write_json(out / f"{prefix}report.json", metrics.report_to_dict(report))
    discard, spread = report.discard, report.spread
    write_csv(
        out / f"{prefix}discard.csv",
        ["fraction", "rmse", "n_retained"],
        np.asarray(discard.fractions, float), np.asarray(discard.rmse, float),
        np.asarray(discard.n_retained, int),
    )
    write_csv(
        out / f"{prefix}spread_skill.csv",
        ["bin", "mean_sd", "rmse", "count"],
        np.arange(len(spread.bin_counts)),
        np.asarray(spread.bin_mean_sd, float), np.asarray(spread.bin_rmse, float),
        np.asarray(spread.bin_counts, int),
    )
    pits = report.pitd_by_kind.items()
    edges = [np.linspace(0.0, 1.0, res.n_bins + 1) for _, res in pits]
    write_csv(
        out / f"{prefix}pit_hist.csv",
        ["kind", "bin", "left", "right", "count"],
        [kind for kind, res in pits for _ in range(res.n_bins)],
        np.concatenate([np.arange(res.n_bins) for _, res in pits]),
        np.concatenate([e[:-1] for e in edges]),
        np.concatenate([e[1:] for e in edges]),
        np.concatenate([np.asarray(res.bin_counts, int) for _, res in pits]),
    )


def cmd_train(opts: dict) -> None:
    """Fit an evidential model on station data."""
    out = _out_dir(opts)
    spec, train_ds, val_ds, standardizer, target_scale = _training_split(opts)
    model, log = evidential.train_with_settings(
        opts, train_ds.features, train_ds.gust, val_ds.features, val_ds.gust,
        feature_names=train_ds.feature_names, standardizer=standardizer,
        target_scale=target_scale,
    )

    artifact.save_model(model, out / "model.json")
    _write_records(out / "epoch_log.csv", evidential.EpochStats, log)
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
        evidential.decompose(model.validation_params), opts["mask_percentile"]
    )
    report = metrics.evaluate_predictions(pset, val_ds.gust, levels=opts["levels"])
    _write_report_files(out, "validation_", report)
    print(f"wrote {out / 'model.json'}")


# ---------------------------------------------------------------------------
# predict


def _write_predictions(path, ids: dict, pset: metrics.PredictionSet, levels) -> None:
    """A predictions file: the ``ids`` columns, then the prediction columns."""
    header = [*ids, "mean", "aleatoric_sd", "epistemic_sd", "total_sd"]
    columns = [*ids.values(), pset.mean, pset.aleatoric_sd, pset.epistemic_sd, pset.total_sd]
    for level in levels:
        label = _level_label(level)
        header += [f"lower_{label}", f"upper_{label}"]
        columns += pset.interval(float(level))
    header.append("highly_uncertain")
    columns.append(pset.flagged.astype(np.int8))
    write_csv(path, header, *columns)


def cmd_predict(opts: dict) -> None:
    """Predict with uncertainty on station or grid data."""
    out = _out_dir(opts)
    model = artifact.load_model(opts["model"])
    ds = data.load_features_csv(opts["data"])
    _check_feature_names(model, ds.feature_names)
    levels = opts["levels"]
    pset = metrics.PredictionSet.from_decomposition(
        model.predict(ds.features), opts["mask_percentile"]
    )
    coords = {"lat": ds.lats, "lon": ds.lons}
    if ds.station_ids is not None:
        ids = {"station_id": ds.station_ids, "timestamp_utc": ds.timestamps,
               "storm_id": ds.storm_ids, **coords}
        _write_predictions(out / "predictions.csv", ids, pset, levels)
        print(f"wrote {out / 'predictions.csv'}")
        return

    # the cubes check the cell coordinates, so a bad grid leaves no file behind
    cubes = spatial.storm_cubes(ds.storm_ids, ds.timestamps, ds.grid_rows, ds.grid_cols,
                                ds.lats, ds.lons, pset.mean, pset.total_sd)
    ids = {"storm_id": ds.storm_ids, "timestamp_utc": ds.timestamps,
           "row": ds.grid_rows, "col": ds.grid_cols, **coords}
    _write_predictions(out / "grid_predictions.csv", ids, pset, levels)

    # per storm: the hourly spatial gradient of the mean field, cells in
    # (t, r, c) order, and the storm-duration cell averages of mean and
    # total sd, min-max normalized
    gradients, normalized = [], []
    for storm, (hours, mean, total_sd) in cubes.items():
        gradient = spatial.spatial_gradient(mean)
        t, r, c = np.nonzero(gradient.valid)
        gradients.append((np.full(len(t), storm), hours[t], gradient.lats[r], gradient.lons[c],
                          gradient.values[t, r, c]))
        mean_avg = _average_fields(mean)
        norm_mean = _normalized(mean_avg, f"storm {storm} mean field")
        norm_sd = _normalized(_average_fields(total_sd), f"storm {storm} total-sd field")
        r, c = np.nonzero(mean_avg.valid)
        normalized.append((np.full(len(r), storm), mean_avg.lats[r], mean_avg.lons[c],
                           norm_mean[r, c], norm_sd[r, c]))
    del cubes, mean, total_sd  # the writes format their text without the rasters
    write_csv(
        out / "gradient_mean.csv",
        ["storm_id", "time", "lat", "lon", "gradient"],
        *map(np.concatenate, zip(*gradients)),
    )
    write_csv(
        out / "normalized_fields.csv",
        ["storm_id", "lat", "lon", "mean_norm", "total_sd_norm"],
        *map(np.ma.concatenate, zip(*normalized)),
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


def _normalized(values, what: str) -> np.ma.MaskedArray:
    """``minmax_normalize`` of an array or of a field's values; all masked,
    with a warning, where it cannot scale them."""
    try:
        out = spatial.minmax_normalize(values)
    except UsageError:
        warnings.warn(f"{what} is constant; normalization skipped", DegenerateInputWarning)
        return np.ma.masked_all(np.shape(getattr(values, "values", values)))
    return np.ma.asarray(getattr(out, "values", out))


# ---------------------------------------------------------------------------
# evaluate


def cmd_evaluate(opts: dict) -> None:
    """Score predictions against observations."""
    out = _out_dir(opts)
    levels = opts["levels"]
    pred = data.read_predictions(
        opts["pred"],
        ("station_id", "timestamp_utc", "mean", "aleatoric_sd", "epistemic_sd", "total_sd"),
        key=("station_id", "timestamp_utc"),
    )
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
    unmatched = np.flatnonzero(~joined)
    if len(unmatched):
        sample = "; ".join(
            f"{pred['station_id'][i]}@{data.format_timestamp(pred['timestamp_utc'][i])}"
            for i in unmatched[:10]
        )
        if len(unmatched) == len(joined):
            raise UsageError(f"no predictions matched observations; first unmatched keys: {sample}")
        warnings.warn(
            f"{len(unmatched)} of {len(joined)} prediction rows have no observation and "
            f"are not scored; first unmatched keys: {sample}",
            DegenerateInputWarning,
        )

    pset = metrics.PredictionSet(
        *(pred[c][joined] for c in ("mean", "aleatoric_sd", "epistemic_sd", "total_sd")),
        opts["mask_percentile"],
    )
    obs = obs_ds.gust[match[joined]]
    stations = pred["station_id"][joined]
    report = metrics.evaluate_predictions(
        pset, obs, levels=levels, exclude_flagged=opts["exclude_flagged"]
    )
    _write_report_files(out, "", report)

    # per-station PICP: one grouping of the rows, then counts per station
    station_ids, station_of = np.unique(stations, return_inverse=True)
    n_stations = len(station_ids)
    kept = ~pset.flagged if opts["exclude_flagged"] else np.ones(len(stations), dtype=bool)
    n_total = np.bincount(station_of, minlength=n_stations)
    n_kept = np.bincount(station_of[kept], minlength=n_stations)
    n_covered = []
    for level in levels:
        lower, upper = pset.interval(float(level))
        covered = kept & (obs >= lower) & (obs <= upper)
        n_covered.append(np.bincount(station_of[covered], minlength=n_stations))
    # one row per station and level, station-major; a station with no kept
    # row has no PICP
    hits = np.stack(n_covered, axis=1).ravel()
    kept_per_row = np.repeat(n_kept, len(levels))
    write_csv(
        out / "picp_stations.csv",
        ["station_id", "level", "picp", "n_total", "n_retained"],
        np.repeat(station_ids, len(levels)),
        [_level_label(level) for level in levels] * n_stations,
        hits / np.ma.masked_equal(kept_per_row, 0),
        np.repeat(n_total, len(levels)),
        kept_per_row,
    )
    print(f"wrote {out / 'report.json'}")


# ---------------------------------------------------------------------------
# explain


def cmd_explain(opts: dict) -> None:
    """Permutation importance and partial dependence."""
    out = _out_dir(opts)
    model = artifact.load_model(opts["model"])
    ds = data.load_station_csv(opts["data"], require_target=True)
    _check_feature_names(model, ds.feature_names)

    pfi, curves = xai.explain(
        model.mean_and_total_sd,
        ds.features,
        ds.gust,
        feature_names=ds.feature_names,
        n_shuffles=opts["n_shuffles"],
        seed=opts["seed"],
        n_grid=opts["pdp_grid"],
    )
    _write_records(out / "pfi.csv", xai.FeatureImportance, pfi.features)
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
        [curve.feature for curve in curves for _ in curve.grid],
        np.concatenate([np.arange(len(curve.grid)) for curve in curves]),
        *(np.concatenate([getattr(curve, name) for curve in curves]) for name in (
            "grid", "pred_mean", "pred_sd", "uncertainty_mean", "uncertainty_sd")),
    )
    print(f"wrote {out / 'pfi.csv'} and {out / 'pdp.csv'}")


# ---------------------------------------------------------------------------
# spatial


def cmd_spatial(opts: dict) -> None:
    """Spatial-max tracking and alignment on grid predictions."""
    out = _out_dir(opts)
    names = ("storm_id", "timestamp_utc", "row", "col", "lat", "lon", "total_sd")
    pred = data.read_predictions(opts["pred"], names, key=names[:4])
    feature_ds = data.load_grid_csv(opts["data"])
    ws_index = feature_ds.feature_names.index("WS_10m")

    uq_cubes = spatial.storm_cubes(*(pred[c] for c in names))
    ws_cubes = spatial.storm_cubes(
        feature_ds.storm_ids, feature_ds.timestamps, feature_ds.grid_rows,
        feature_ds.grid_cols, feature_ds.lats, feature_ds.lons,
        feature_ds.features[:, ws_index],
    )

    storms = sorted(set(uq_cubes) & set(ws_cubes))
    if not storms:
        raise UsageError("prediction and feature files share no storms")
    only = [f"{storm} (only in {opts['pred'] if storm in uq_cubes else opts['data']})"
            for storm in sorted(set(uq_cubes) ^ set(ws_cubes))]
    if only:
        warnings.warn(f"{len(only)} of {len(storms) + len(only)} storms are in one file only "
                      f"and are not tracked: {', '.join(only[:10])}", DegenerateInputWarning)
    # the tracks are compared by row and col, so both files must grid a
    # storm alike where their rasters overlap
    for storm in storms:
        for name, coord, axis in (("row", "lat", "lats"), ("col", "lon", "lons")):
            axes = (getattr(cubes[storm][1], axis).tolist() for cubes in (ws_cubes, uq_cubes))
            for k, (ws_value, uq_value) in enumerate(zip(*axes)):
                if ws_value != uq_value:
                    raise IngestError(f"storm {storm}: grid {name} {k} has {coord} {ws_value!r} "
                                      f"in {opts['data']} but {uq_value!r} in {opts['pred']}")

    # one row per hour of each storm's wind track; the uq track's maximum of
    # the same hour, if any, beside it
    parts = []
    alignment: dict[str, dict[str, float]] = {}
    for storm in storms:
        ws_field, uq_field = ws_cubes[storm][1], uq_cubes[storm][1]
        ws = spatial.track_spatial_max(*ws_cubes[storm])
        uq = spatial.track_spatial_max(*uq_cubes[storm])
        _, at_ws, at_uq = np.intersect1d(ws.times, uq.times, return_indices=True)

        def on_wind_hours(column):
            joined = np.ma.masked_all(len(ws.times), column.dtype)
            joined[at_ws] = column[at_uq]
            return joined

        parts.append((
            np.full(len(ws.times), storm), ws.times,
            ws.values, ws_field.lats[ws.rows], ws_field.lons[ws.cols], ws.rows, ws.cols,
            *map(on_wind_hours, (uq.values, uq_field.lats[uq.rows], uq_field.lons[uq.cols],
                                 uq.rows, uq.cols)),
            _normalized(ws.values, f"storm {storm} wind max series"),
            on_wind_hours(_normalized(uq.values, f"storm {storm} uq max series")),
        ))
        alignment[storm] = {
            str(k): spatial.alignment_fraction(ws, uq, k) for k in opts["align_k"]
        }

    storm_ids, times, *tracks, wind_norm, uq_norm = map(np.ma.concatenate, zip(*parts))
    write_csv(
        out / "max_tracks.csv",
        [
            "storm_id", "time",
            "wind_value", "wind_lat", "wind_lon", "wind_row", "wind_col",
            "uq_value", "uq_lat", "uq_lon", "uq_row", "uq_col",
        ],
        storm_ids, times, *tracks,
    )
    write_csv(
        out / "normalized_series.csv",
        ["storm_id", "time", "wind_max_norm", "uq_max_norm"],
        storm_ids, times, wind_norm, uq_norm,
    )
    write_json(out / "alignment.json", alignment)
    print(f"wrote {out / 'alignment.json'}")


# ---------------------------------------------------------------------------
# tune


def cmd_tune(opts: dict) -> None:
    """Multi-objective random hyperparameter search, one forked worker per CPU."""
    out = _out_dir(opts)
    _spec, train_ds, val_ds, standardizer, target_scale = _training_split(opts)
    objective = tune.make_evidential_objective(
        train_ds.features,
        train_ds.gust,
        val_ds.features,
        val_ds.gust,
        max_epochs=opts["max_epochs"],
        patience=opts["patience"],
        standardizer=standardizer,
        target_scale=target_scale,
    )
    result = tune.search(
        tune.HyperSpace(**opts["space"]),
        opts["trials"],
        objective,
        seed=opts["seed"],
        log_path=out / "trials_log.csv",
        scalarization_weight=opts["scalarization_weight"],
    )

    def trial_dict(t: tune.TrialResult) -> dict:
        fields = dataclasses.asdict(t)
        del fields["status"], fields["message"]  # every trial listed succeeded
        return fields

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
    "train": (cmd_train, (
        "data", "out", "seed", "levels", "mask_percentile", "split", "hidden_layers",
        "hidden_neurons", "dropout", "l1", "l2", "learning_rate", "batch_size",
        "max_epochs", "patience", "evidential_coef",
    )),
    "predict": (cmd_predict, ("data", "model", "out", "levels", "mask_percentile")),
    "evaluate": (cmd_evaluate, (
        "pred", "data", "out", "levels", "mask_percentile", "exclude_flagged",
    )),
    "explain": (cmd_explain, ("data", "model", "out", "seed", "n_shuffles", "pdp_grid")),
    "spatial": (cmd_spatial, ("pred", "data", "out", "align_k")),
    "tune": (cmd_tune, (
        "data", "out", "seed", "split", "trials", "max_epochs", "patience",
        "scalarization_weight", "space",
    )),
}


def main(argv=None) -> int:
    # only the text changes: filters and ``catch_warnings`` see each warning as before
    format_warning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        args = build_parser().parse_args(argv)
        handler, options = COMMANDS[args.command]
        parallel.hold_blas_to_one_thread()
        handler(merge_options(args, options))
        return 0
    except GustUQError as exc:
        _report(exc.error_class, exc)
        return 2
    except OSError as exc:
        _report("io-error", exc)
        return 2
    except Exception as exc:  # keep the one-line contract even for bugs
        _report(f"internal-error: {type(exc).__name__}", exc)
        return 3
    finally:
        warnings.formatwarning = format_warning


def _report(label: str, exc: Exception) -> None:
    """``<label>: <message>`` on stderr as one line, whatever text the
    message quotes from the input."""
    message = " ".join(str(exc).splitlines())
    print(f"{label}: {message}", file=sys.stderr)


def _warning_line(message, category, filename, lineno, line=None) -> str:
    """A warning as ``<Category>: <message>`` on one line, like an error."""
    text = " ".join(str(message).splitlines())
    return f"{category.__name__}: {text}\n"


if __name__ == "__main__":
    sys.exit(main())
