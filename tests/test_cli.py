import base64
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gustuq import artifact, cli, data, evidential, metrics, nncore, parallel, tune, xai
from gustuq.cli import main
from gustuq.errors import DegenerateInputWarning
from gustuq.evidential import train_evidential
from gustuq.nncore import TrainConfig

from markers import needs_two_cpus
from synth import grid_rows, station_rows, write_grid_file, write_station_file


def run(*args) -> int:
    return main([str(a) for a in args])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One trained model + station/grid inputs shared across CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    station_csv = root / "stations.csv"
    write_station_file(station_csv, n_storms=5, n_stations=3, n_hours=8, seed=14)
    grid_csv = root / "grid.csv"
    write_grid_file(grid_csv, n_storms=1, n_rows=5, n_cols=6, n_hours=4, seed=2)
    train_out = root / "train"
    code = run(
        "train", "--data", station_csv, "--out", train_out, "--split", "3,1,1",
        "--hidden-neurons", "16", "--max-epochs", "30", "--patience", "30",
        "--learning-rate", "0.005", "--evidential-coef", "0.05", "--seed", "5",
    )
    assert code == 0
    return {
        "root": root,
        "station_csv": station_csv,
        "grid_csv": grid_csv,
        "train_out": train_out,
        "model": train_out / "model.json",
    }


# ---------------------------------------------------------------------------
# train


def test_train_outputs(pipeline):
    out = pipeline["train_out"]
    for name in (
        "model.json",
        "epoch_log.csv",
        "split.json",
        "validation_report.json",
        "validation_discard.csv",
        "validation_spread_skill.csv",
        "validation_pit_hist.csv",
    ):
        assert (out / name).exists(), name
    split = json.loads((out / "split.json").read_text())
    assert len(split["train"]) == 3
    assert len(split["validation"]) == 1
    assert len(split["test"]) == 1
    log = read_rows(out / "epoch_log.csv")
    assert 1 <= len(log) <= 30
    assert list(log[0]) == ["epoch", "train_loss", "val_loss", "val_mae"]


def test_train_artifact_round_trip(pipeline):
    model = artifact.load_model(pipeline["model"])
    assert model.feature_names is not None
    assert model.standardizer is not None
    assert model.mlp.output_dim == 4
    # reload and compare serialized form byte for byte
    resaved = pipeline["root"] / "resaved.json"
    artifact.save_model(model, resaved)
    assert resaved.read_bytes() == Path(pipeline["model"]).read_bytes()


def test_artifact_with_passthrough_flags_still_loads(pipeline, tmp_path):
    # artifacts written before the flags were dropped hold a passthrough
    # list in each standardizer; the key is ignored
    payload = json.loads(Path(pipeline["model"]).read_text())
    payload["standardizer"]["passthrough"] = [False] * 11
    payload["target_scale"]["passthrough"] = [False]
    old = tmp_path / "old_model.json"
    old.write_text(json.dumps(payload))
    assert run("predict", "--model", old, "--data", pipeline["station_csv"],
               "--out", tmp_path / "old") == 0
    assert run("predict", "--model", pipeline["model"], "--data", pipeline["station_csv"],
               "--out", tmp_path / "new") == 0
    assert ((tmp_path / "old" / "predictions.csv").read_bytes()
            == (tmp_path / "new" / "predictions.csv").read_bytes())


def test_train_artifact_keeps_the_target_scale_of_the_training_storms(pipeline):
    ds = data.load_station_csv(pipeline["station_csv"], require_target=True)
    _, train_ds, _, _ = data.chronological_split(ds, 3, 1, 1)
    fitted = data.Standardizer.fit(train_ds.gust)
    model = artifact.load_model(pipeline["model"])
    scale = model.target_scale
    assert scale.offset.tobytes() == fitted.offset.tobytes()
    assert scale.scale.tobytes() == fitted.scale.tobytes()
    # the predictions are in m/s: the mean is the scaled head's gamma mapped back
    out, _ = nncore.forward(model.mlp, model.standardizer.apply(ds.features))
    gamma = evidential.head_transform(out).gamma
    assert model.predict(ds.features).mean.tobytes() == (
        gamma * fitted.scale[0] + fitted.offset[0]).tobytes()


# The standard station fixture at data seeds 1 and 5 and the standard train
# command: a model trained on raw m/s targets read validation PICP(0.70) 1.00
# and MAE 1.98 / 2.03 there, against 0.945 / 0.938 and 0.85 / 0.84 with the
# targets scaled.
@pytest.mark.parametrize("seed", [1, 5])
def test_train_on_the_standard_fixture_is_not_overdispersed(tmp_path, seed):
    station = tmp_path / "station.csv"
    write_station_file(station, seed=seed, n_storms=40, n_stations=20, n_hours=12)
    out = tmp_path / "train"
    assert run("train", "--data", station, "--out", out, "--split", "24,8,8",
               "--max-epochs", "20") == 0
    report = json.loads((out / "validation_report.json").read_text())
    assert report["picp"]["0.7"] < 0.97
    assert report["mae"] < 1.2


def test_library_model_saves_a_pass_through_standardizer(tmp_path):
    # a model trained without a standardizer still writes one, and the file
    # round-trips bit for bit
    x = np.random.default_rng(3).uniform(-2.0, 2.0, size=(120, 2))
    y = x @ [1.0, -1.0]
    model, _ = train_evidential(
        x[:90], y[:90], x[90:], y[90:], hidden_sizes=[4],
        config=TrainConfig(learning_rate=1e-3, batch_size=32, max_epochs=2, seed=1),
    )
    path = tmp_path / "model.json"
    artifact.save_model(model, path)
    std = json.loads(path.read_text())["standardizer"]
    assert artifact._decode_array(std, "offset", "offset").tolist() == [0.0, 0.0]
    assert artifact._decode_array(std, "scale", "scale").tolist() == [1.0, 1.0]
    assert model.standardizer.apply(x).tobytes() == x.tobytes()  # features as given
    loaded = artifact.load_model(path)
    for a, b in zip(loaded.mlp.layers, model.mlp.layers):
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()
    assert loaded.predict(x).mean.tobytes() == model.predict(x).mean.tobytes()
    artifact.save_model(loaded, tmp_path / "resaved.json")
    assert (tmp_path / "resaved.json").read_bytes() == path.read_bytes()


def test_train_runs_one_validation_pass_per_epoch(pipeline, tmp_path, monkeypatch):
    # the validation files are scored from the kept epoch's own pass
    forward = nncore.forward
    nograd = []

    def spy(model, batch, train_mode=False, *args, **kwargs):
        if not train_mode:
            nograd.append(len(batch))
        return forward(model, batch, train_mode, *args, **kwargs)

    monkeypatch.setattr(nncore, "forward", spy)
    out = tmp_path / "train"
    assert run("train", "--data", pipeline["station_csv"], "--out", out, "--split", "3,1,1",
               "--hidden-neurons", "8", "--max-epochs", "6", "--patience", "2") == 0
    epochs = len(read_rows(out / "epoch_log.csv"))
    assert nograd == [24] * epochs  # one storm of 3 stations x 8 hours


def test_train_same_seed_identical_artifacts(pipeline, tmp_path):
    out2 = tmp_path / "train2"
    code = run(
        "train", "--data", pipeline["station_csv"], "--out", out2, "--split", "3,1,1",
        "--hidden-neurons", "16", "--max-epochs", "30", "--patience", "30",
        "--learning-rate", "0.005", "--evidential-coef", "0.05", "--seed", "5",
    )
    assert code == 0
    assert (out2 / "model.json").read_bytes() == Path(pipeline["model"]).read_bytes()


def test_train_missing_target_column_fails(tmp_path, capsys):
    bad = tmp_path / "notarget.csv"
    rows = station_rows(n_storms=2, n_stations=1, n_hours=3)
    for row in rows:
        row[-1] = ""
    write_station_file(bad, rows=rows)
    code = run("train", "--data", bad, "--out", tmp_path / "out", "--split", "1,1,0")
    assert code != 0
    err = capsys.readouterr().err
    assert err.startswith("ingest-error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["train", "tune"])
@pytest.mark.parametrize("split", [[], ["--split", "1,1"]], ids=["auto-split", "split-1-1"])
def test_header_only_station_file_is_empty_training_data(tmp_path, capsys, command, split):
    # train and tune share one prelude, so they refuse a station file with
    # no rows alike, whatever valid split is given.
    empty = tmp_path / "empty.csv"
    write_station_file(empty, rows=[])
    out = tmp_path / "out"
    assert run(command, "--data", empty, "--out", out, *split) == 2
    assert capsys.readouterr().err == "usage-error: training data is empty\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# predict


def test_predict_station_mode(pipeline, tmp_path):
    out = tmp_path / "pred"
    code = run(
        "predict", "--model", pipeline["model"], "--data", pipeline["station_csv"],
        "--out", out, "--levels", "0.70,0.95",
    )
    assert code == 0
    rows = read_rows(out / "predictions.csv")
    assert len(rows) == 5 * 3 * 8
    first = rows[0]
    for col in (
        "station_id", "timestamp_utc", "storm_id", "lat", "lon", "mean",
        "aleatoric_sd", "epistemic_sd", "total_sd",
        "lower_70", "upper_70", "lower_95", "upper_95", "highly_uncertain",
    ):
        assert col in first, col
    mean = np.array([float(r["mean"]) for r in rows])
    total = np.array([float(r["total_sd"]) for r in rows])
    lo95 = np.array([float(r["lower_95"]) for r in rows])
    hi95 = np.array([float(r["upper_95"]) for r in rows])
    assert np.array_equal(hi95, mean + 1.96 * total)
    assert np.array_equal(lo95, mean - 1.96 * total)
    flagged = np.array([int(r["highly_uncertain"]) for r in rows])
    assert flagged.mean() <= 0.05 + 1.0 / len(rows)


def test_close_levels_get_distinct_labels(pipeline, tmp_path):
    levels = "0.7,0.70000001,0.9999999"
    pred = tmp_path / "pred"
    assert run("predict", "--model", pipeline["model"], "--data", pipeline["station_csv"],
               "--out", pred, "--levels", levels) == 0
    header = read_rows(pred / "predictions.csv")[0]
    assert [c for c in header if c.startswith("lower_")] == [
        "lower_70", "lower_70.000001", "lower_99.99999"]
    assert run("evaluate", "--pred", pred / "predictions.csv", "--data",
               pipeline["station_csv"], "--out", tmp_path / "eval", "--levels", levels) == 0
    report = json.loads((tmp_path / "eval" / "report.json").read_text())
    assert list(report["picp"]) == ["0.7", "0.70000001", "0.9999999"]
    per_station = read_rows(tmp_path / "eval" / "picp_stations.csv")
    assert [r["level"] for r in per_station[:3]] == ["70", "70.000001", "99.99999"]


def test_predict_feature_mismatch_reports_diff(pipeline, tmp_path, capsys):
    # an artifact trained on a single anonymous feature cannot serve the
    # station schema
    from gustuq.evidential import train_evidential
    from gustuq.nncore import TrainConfig

    rng = np.random.default_rng(0)
    x = rng.normal(size=300)
    y = x + rng.normal(0, 0.1, size=300)
    model, _ = train_evidential(
        x[:200], y[:200], x[200:], y[200:], hidden_sizes=[4],
        config=TrainConfig(max_epochs=2, patience=2, seed=0),
        feature_names=["x"],
    )
    other = tmp_path / "other_model.json"
    artifact.save_model(model, other)
    code = run(
        "predict", "--model", other, "--data", pipeline["station_csv"],
        "--out", tmp_path / "out",
    )
    assert code != 0
    err = capsys.readouterr().err
    assert err.startswith("usage-error:")
    assert "WS_10m" in err and "[x]" in err


def test_predict_grid_mode(pipeline, tmp_path):
    out = tmp_path / "gridpred"
    code = run(
        "predict", "--model", pipeline["model"], "--data", pipeline["grid_csv"],
        "--out", out,
    )
    assert code == 0
    rows = read_rows(out / "grid_predictions.csv")
    assert len(rows) == 5 * 6 * 4
    grads = read_rows(out / "gradient_mean.csv")
    assert len(grads) == 5 * 6 * 4
    assert all(float(g["gradient"]) >= 0 for g in grads)
    norm = read_rows(out / "normalized_fields.csv")
    assert len(norm) == 5 * 6
    values = [float(r["mean_norm"]) for r in norm]
    assert min(values) == 0.0 and max(values) == 1.0


def test_predict_grid_cell_whose_lat_disagrees_is_ingest_error(pipeline, tmp_path, capsys):
    rows = grid_rows(n_storms=1, n_rows=5, n_cols=6, n_hours=4, seed=2)
    at = 3 * 30 + 3 * 6 + 2  # last hour, raster row 3, col 2
    rows[at][4] = repr(float(rows[at][4]) + 3.0)
    moved = tmp_path / "moved.csv"
    write_grid_file(moved, rows=rows)
    out = tmp_path / "out"
    code = run("predict", "--model", pipeline["model"], "--data", moved, "--out", out)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ingest-error: storm G00: 1 coordinates differ")
    assert f"line {at + 2}: lat 44.75, but grid row 3 has lat 41.75" in err
    assert not out.exists()


def test_predict_constant_grid_constant_mean_zero_gradient(pipeline, tmp_path):
    const_grid = tmp_path / "const_grid.csv"
    rows = grid_rows(n_storms=1, n_rows=3, n_cols=4, n_hours=2, seed=0)
    for row in rows:
        row[6:] = ["8.0", "10.0", "9.0", "1.0", "0.5", "180.0", "100.0", "1.0", "2.0"]
    write_grid_file(const_grid, rows=rows)
    out = tmp_path / "out"
    with pytest.warns(UserWarning):
        code = run("predict", "--model", pipeline["model"], "--data", const_grid,
                   "--out", out)
    assert code == 0
    pred = read_rows(out / "grid_predictions.csv")
    means = {r["mean"] for r in pred}
    assert len(means) == 1
    grads = read_rows(out / "gradient_mean.csv")
    assert all(float(g["gradient"]) == 0.0 for g in grads)


@pytest.mark.parametrize("slope", [1.5, -0.1, 0.0, 1.0])
def test_predict_rejects_leaky_slope_outside_unit_interval(pipeline, tmp_path, capsys, slope):
    # np.maximum(z, slope * z) is leaky-ReLU only for 0 < slope < 1
    payload = json.loads(Path(pipeline["model"]).read_text())
    payload["network"]["leaky_slope"] = slope
    edited = tmp_path / "model.json"
    edited.write_text(json.dumps(payload))
    code = run("predict", "--model", edited, "--data", pipeline["station_csv"],
               "--out", tmp_path / "pred")
    assert code != 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config-error: leaky_slope must be in (0, 1)")


def test_predict_artifact_missing_field_is_usage_error(pipeline, tmp_path, capsys):
    payload = json.loads(Path(pipeline["model"]).read_text())
    del payload["network"]["dropout"]
    edited = tmp_path / "model.json"
    edited.write_text(json.dumps(payload))
    code = run("predict", "--model", edited, "--data", pipeline["station_csv"],
               "--out", tmp_path / "pred")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("usage-error:")
    assert "artifact field network.dropout is missing" in err


def test_predict_artifact_wrong_type_is_usage_error(pipeline, tmp_path, capsys):
    payload = json.loads(Path(pipeline["model"]).read_text())
    payload["network"]["leaky_slope"] = "0.1"
    edited = tmp_path / "model.json"
    edited.write_text(json.dumps(payload))
    code = run("predict", "--model", edited, "--data", pipeline["station_csv"],
               "--out", tmp_path / "pred")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("usage-error:")
    assert "artifact field network.leaky_slope must be a number, got str" in err


def test_predict_artifact_repeated_key_is_usage_error(pipeline, tmp_path, capsys):
    text = Path(pipeline["model"]).read_text()
    edited = tmp_path / "model.json"
    edited.write_text(text.replace('"version": 1,', '"version": 1,\n  "version": 1,', 1))
    code = run("predict", "--model", edited, "--data", pipeline["station_csv"],
               "--out", tmp_path / "pred")
    assert code == 2
    assert capsys.readouterr().err == f"usage-error: artifact {edited}: repeated key 'version'\n"


def _shorten(values):
    return values[:-1]


def _set_first(value):
    def edit(values):
        values[0] = value
        return values
    return edit


@pytest.mark.parametrize("field, edit, message", [
    pytest.param("offset", _shorten,
                 "standardizer.offset has shape (10,), but the first layer takes 11",
                 id="short-offset"),
    pytest.param("scale", _shorten,
                 "standardizer.scale has shape (10,), but the first layer takes 11",
                 id="short-scale"),
    pytest.param("offset", _set_first(np.nan), "standardizer.offset must be finite",
                 id="nan-offset"),
    pytest.param("scale", _set_first(np.inf), "standardizer.scale must be finite and > 0",
                 id="inf-scale"),
    pytest.param("scale", _set_first(0.0), "standardizer.scale must be finite and > 0",
                 id="zero-scale"),
    pytest.param("scale", _set_first(-1.0), "standardizer.scale must be finite and > 0",
                 id="negative-scale"),
])
def test_predict_artifact_bad_standardizer_is_usage_error(
    pipeline, tmp_path, capsys, field, edit, message
):
    payload = json.loads(Path(pipeline["model"]).read_text())
    std = payload["standardizer"]
    values = artifact._decode_array(std, field, field)
    std[field] = artifact._encode_array(edit(values))
    edited = tmp_path / "model.json"
    edited.write_text(json.dumps(payload))
    code = run("predict", "--model", edited, "--data", pipeline["station_csv"],
               "--out", tmp_path / "pred")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("usage-error:")
    assert f"artifact field {message}" in err


def _without(key):
    def edit(payload):
        del payload[key]
    return edit


def _target_array(field, value):
    def edit(payload):
        payload["target_scale"][field] = artifact._encode_array(np.array(value, float))
    return edit


@pytest.mark.parametrize("edit, message", [
    pytest.param(_without("target_scale"), "target_scale is missing", id="missing"),
    pytest.param(_target_array("offset", [1.0, 2.0]),
                 "target_scale.offset has shape (2,), but the target is 1 column",
                 id="two-offsets"),
    pytest.param(_target_array("scale", []),
                 "target_scale.scale has shape (0,), but the target is 1 column", id="no-scale"),
    pytest.param(_target_array("offset", [np.nan]), "target_scale.offset must be finite",
                 id="nan-offset"),
    pytest.param(_target_array("scale", [0.0]), "target_scale.scale must be finite and > 0",
                 id="zero-scale"),
    pytest.param(_target_array("scale", [-2.0]), "target_scale.scale must be finite and > 0",
                 id="negative-scale"),
])
def test_predict_artifact_bad_target_scale_is_usage_error(
    pipeline, tmp_path, capsys, edit, message
):
    payload = json.loads(Path(pipeline["model"]).read_text())
    edit(payload)
    edited = tmp_path / "model.json"
    edited.write_text(json.dumps(payload))
    code = run("predict", "--model", edited, "--data", pipeline["station_csv"],
               "--out", tmp_path / "pred")
    assert code == 2
    assert capsys.readouterr().err == f"usage-error: {edited}: artifact field {message}\n"
    assert not (tmp_path / "pred").exists()


@pytest.mark.parametrize("dtype", ["<i8", ">f8", "S8", "<f4"])
def test_predict_artifact_array_of_another_dtype_is_usage_error(
    pipeline, tmp_path, capsys, dtype
):
    # read as its own dtype, such an array would come back reinterpreted or
    # fail to convert; every artifact array is the "<f8" that saving writes
    payload = json.loads(Path(pipeline["model"]).read_text())
    layer = payload["network"]["layers"][0]
    values = artifact._decode_array(layer, "bias", "bias").astype(dtype)
    layer["bias"] = {**layer["bias"], "dtype": dtype,
                     "data": base64.b64encode(values.tobytes()).decode("ascii")}
    edited = tmp_path / "model.json"
    edited.write_text(json.dumps(payload))
    code = run("predict", "--model", edited, "--data", pipeline["station_csv"],
               "--out", tmp_path / "pred")
    assert code == 2
    assert capsys.readouterr().err == (
        f"usage-error: {edited}: artifact field network.layers[0].bias has dtype "
        f"{dtype!r}, not '<f8'\n")
    assert not (tmp_path / "pred").exists()


@pytest.mark.parametrize("field, value, message", [
    ("learning_rate", -1, "learning_rate must be finite and > 0, got -1"),
    ("batch_size", 0, "batch_size must be >= 1, got 0"),
    ("evidential_coef", float("nan"), "evidential_coef must be finite and >= 0, got nan"),
])
def test_predict_artifact_train_config_outside_its_rules_is_usage_error(
    pipeline, tmp_path, capsys, field, value, message
):
    payload = json.loads(Path(pipeline["model"]).read_text())
    payload["train_config"][field] = value
    edited = tmp_path / "model.json"
    edited.write_text(json.dumps(payload))  # a NaN is written as the NaN that JSON readers take
    code = run("predict", "--model", edited, "--data", pipeline["station_csv"],
               "--out", tmp_path / "pred")
    assert code == 2
    assert capsys.readouterr().err == (
        f"usage-error: {edited}: artifact field train_config.{message}\n")
    assert not (tmp_path / "pred").exists()


@pytest.mark.parametrize("command, defect", [
    pytest.param("predict", "short-scale", id="predict"),
    pytest.param("explain", "short-scale", id="explain"),
    pytest.param("train", None, id="train"),
    pytest.param("predict", "null-standardizer", id="predict-null-standardizer"),
    pytest.param("explain", "null-standardizer", id="explain-null-standardizer"),
    pytest.param("predict", "no-standardizer", id="predict-no-standardizer"),
    pytest.param("explain", "no-standardizer", id="explain-no-standardizer"),
])
def test_refused_input_leaves_no_out_directory(pipeline, tmp_path, capsys, command, defect):
    # --out is made by the first write, so a refused model.json (a short
    # standardizer.scale, or no standardizer at all) or station CSV (a row
    # one field short) leaves none.
    if command == "train":
        rows = station_rows(n_storms=2, n_stations=1, n_hours=3)
        rows[2] = rows[2][:-1]
        bad = tmp_path / "malformed.csv"
        write_station_file(bad, rows=rows)
        inputs = ["--data", bad, "--split", "1,1,0"]
    else:
        payload = json.loads(Path(pipeline["model"]).read_text())
        std = payload["standardizer"]
        if defect == "short-scale":
            std["scale"] = artifact._encode_array(
                _shorten(artifact._decode_array(std, "scale", "scale"))
            )
        elif defect == "null-standardizer":
            payload["standardizer"] = None
        else:
            del payload["standardizer"]
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(payload))
        inputs = ["--model", bad, "--data", pipeline["station_csv"]]
    out = tmp_path / "out"
    assert run(command, *inputs, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    if defect is not None:
        assert err.startswith("usage-error:") and "artifact field standardizer" in err
    assert not out.exists()


@pytest.mark.parametrize("source", ["station_csv", "grid_csv"])
@pytest.mark.parametrize("variant", ["quoted", "bom"])
def test_predict_header_variants_give_identical_output(pipeline, tmp_path, source, variant):
    plain = Path(pipeline[source])
    header, body = plain.read_text().split("\n", 1)
    if variant == "quoted":
        header = ",".join(f'"{name}"' for name in header.split(","))
    else:
        header = "\ufeff" + header
    edited = tmp_path / plain.name
    edited.write_text(header + "\n" + body, encoding="utf-8")
    outputs = []
    for data_csv, tag in ((plain, "plain"), (edited, variant)):
        out = tmp_path / tag
        assert run("predict", "--model", pipeline["model"], "--data", data_csv,
                   "--out", out) == 0
        outputs.append(out)
    names = sorted(f.name for f in outputs[0].iterdir())
    assert names == sorted(f.name for f in outputs[1].iterdir())
    for name in names:
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes(), name


def test_predict_unknown_schema_is_ingest_error(pipeline, tmp_path, capsys):
    other = tmp_path / "other.csv"
    other.write_text("a,b\n1,2\n")
    code = run("predict", "--model", pipeline["model"], "--data", other,
               "--out", tmp_path / "pred")
    assert code == 2
    assert "neither the station nor the grid schema" in capsys.readouterr().err


def test_predict_duplicate_observation_row_is_ingest_error(pipeline, tmp_path, capsys):
    rows = station_rows(n_storms=5, n_stations=3, n_hours=8, seed=14)
    rows.append(list(rows[10]))  # 121 rows over 120 keys
    dup = tmp_path / "dup.csv"
    write_station_file(dup, rows=rows)
    code = run("predict", "--model", pipeline["model"], "--data", dup,
               "--out", tmp_path / "pred")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ingest-error:")
    assert "line 122: same key as line 12" in err
    assert not (tmp_path / "pred" / "predictions.csv").exists()


# ---------------------------------------------------------------------------
# evaluate


def test_station_file_without_target_is_refused_where_targets_are_needed(
    pipeline, tmp_path, capsys
):
    with open(pipeline["station_csv"], newline="") as fh:
        rows = list(csv.reader(fh))
    k = rows[0].index("gust_obs")
    nogust = tmp_path / "nogust.csv"
    with open(nogust, "w", newline="") as fh:
        csv.writer(fh).writerows(row[:k] + row[k + 1:] for row in rows)
    assert run("predict", "--model", pipeline["model"], "--data", nogust,
               "--out", tmp_path / "pred") == 0
    for command, args in (("train", ["--split", "3,1,1"]),
                          ("evaluate", ["--pred", tmp_path / "pred" / "predictions.csv"])):
        capsys.readouterr()
        assert run(command, "--data", nogust, *args, "--out", tmp_path / command) == 2
        assert capsys.readouterr().err == (
            f"ingest-error: {nogust}: missing required columns: gust_obs\n")


def test_evaluate_report_and_per_station(pipeline, tmp_path):
    pred_out = tmp_path / "pred"
    assert run("predict", "--model", pipeline["model"], "--data",
               pipeline["station_csv"], "--out", pred_out) == 0
    eval_out = tmp_path / "eval"
    code = run(
        "evaluate", "--pred", pred_out / "predictions.csv",
        "--data", pipeline["station_csv"], "--out", eval_out,
        "--levels", "0.70,0.95",
    )
    assert code == 0
    report = json.loads((eval_out / "report.json").read_text())
    assert report["n_samples"] == 5 * 3 * 8
    assert set(report["picp"]) == {"0.7", "0.95"}
    assert report["rmse"] ** 2 == pytest.approx(
        report["crmse"] ** 2 + report["bias"] ** 2, rel=1e-9
    )
    stations = read_rows(eval_out / "picp_stations.csv")
    assert len(stations) == 3 * 2  # one row per station per level
    for name in ("discard.csv", "spread_skill.csv", "pit_hist.csv"):
        assert (eval_out / name).exists()


def test_evaluate_perfect_predictions_full_coverage(pipeline, tmp_path):
    pred_out = tmp_path / "pred"
    assert run("predict", "--model", pipeline["model"], "--data",
               pipeline["station_csv"], "--out", pred_out) == 0
    # craft observations equal to the predicted means
    pred_rows = read_rows(pred_out / "predictions.csv")
    by_key = {(r["station_id"], r["timestamp_utc"]): float(r["mean"]) for r in pred_rows}
    obs_csv = tmp_path / "obs.csv"
    src = read_rows(pipeline["station_csv"])
    with open(obs_csv, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(src[0]))
        writer.writeheader()
        for row in src:
            key = (row["station_id"], row["timestamp_utc"])
            row["gust_obs"] = repr(max(0.0, by_key[key]))
            writer.writerow(row)
    eval_out = tmp_path / "eval"
    assert run("evaluate", "--pred", pred_out / "predictions.csv", "--data", obs_csv,
               "--out", eval_out) == 0
    stations = read_rows(eval_out / "picp_stations.csv")
    assert all(float(r["picp"]) == 1.0 for r in stations if r["picp"] != "")


@pytest.mark.parametrize("exclude", [True, False])
def test_per_station_picp_matches_station_loop(pipeline, tmp_path, exclude):
    # ST00's predictions carry the largest sds, so at the 60th percentile all
    # of them are flagged and its PICP is blank when flagged rows are excluded
    obs = read_rows(pipeline["station_csv"])
    rng = np.random.default_rng(7)
    gust = np.array([float(r["gust_obs"]) for r in obs])
    stations = np.array([r["station_id"] for r in obs])
    mean = gust + rng.normal(0.0, 1.5, len(obs))
    total = np.where(stations == "ST00", 50.0, 1.0) + rng.uniform(0.0, 0.5, len(obs))
    pred = tmp_path / "pred.csv"
    with open(pred, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["station_id", "timestamp_utc", "mean", "aleatoric_sd",
                         "epistemic_sd", "total_sd"])
        for r, m, t in zip(obs, mean.tolist(), total.tolist()):
            writer.writerow([r["station_id"], r["timestamp_utc"], repr(m), repr(t / 2 ** 0.5),
                             repr(t / 2 ** 0.5), repr(t)])
    levels = [0.7, 0.9]
    flags = [] if exclude else ["--no-exclude-flagged"]
    assert run("evaluate", "--pred", pred, "--data", pipeline["station_csv"],
               "--out", tmp_path / "eval", "--levels", "0.7,0.9", "--mask-percentile", "60",
               *flags) == 0
    flagged, _ = metrics.mask_highly_uncertain(total, 60.0)
    want = []
    for station in sorted(set(stations.tolist())):
        sel = stations == station
        for level in levels:
            lower, upper = metrics.prediction_interval(mean[sel], total[sel], level)
            value = metrics.picp(lower, upper, gust[sel], exclude=flagged[sel] if exclude else None)
            n_kept = int((~flagged[sel]).sum()) if exclude else int(sel.sum())
            want.append({"station_id": station, "level": f"{level * 100:g}",
                         "picp": "" if value is None else repr(value),
                         "n_total": str(int(sel.sum())), "n_retained": str(n_kept)})
    got = read_rows(tmp_path / "eval" / "picp_stations.csv")
    assert got == want
    assert any(row["picp"] == "" for row in got) == exclude


def test_evaluate_empty_join_lists_keys(pipeline, tmp_path, capsys):
    pred_out = tmp_path / "pred"
    assert run("predict", "--model", pipeline["model"], "--data",
               pipeline["station_csv"], "--out", pred_out) == 0
    other_obs = tmp_path / "othertimes.csv"
    rows = station_rows(n_storms=2, n_stations=2, n_hours=3, seed=99)
    for i, row in enumerate(rows):
        row[2] = f"ZZ{i % 2}"  # station ids that never match
    write_station_file(other_obs, rows=rows)
    code = run("evaluate", "--pred", pred_out / "predictions.csv", "--data", other_obs,
               "--out", tmp_path / "eval")
    assert code != 0
    err = capsys.readouterr().err
    assert err.startswith("usage-error:")
    assert "unmatched" in err


def test_evaluate_rejects_duplicate_keys(pipeline, tmp_path, capsys):
    pred_out = tmp_path / "pred"
    assert run("predict", "--model", pipeline["model"], "--data",
               pipeline["station_csv"], "--out", pred_out) == 0
    # one duplicated observation row
    obs_rows = station_rows(n_storms=5, n_stations=3, n_hours=8, seed=14)
    obs_rows.append(list(obs_rows[10]))
    dup_obs = tmp_path / "dup_obs.csv"
    write_station_file(dup_obs, rows=obs_rows)
    code = run("evaluate", "--pred", pred_out / "predictions.csv", "--data", dup_obs,
               "--out", tmp_path / "eval")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ingest-error:") and "line 122: same key as line 12" in err
    # one duplicated prediction row
    lines = (pred_out / "predictions.csv").read_text().splitlines(keepends=True)
    dup_pred = tmp_path / "dup_pred.csv"
    dup_pred.write_text("".join(lines + [lines[3]]))
    code = run("evaluate", "--pred", dup_pred, "--data", pipeline["station_csv"],
               "--out", tmp_path / "eval")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ingest-error:") and "line 122: same key as line 4" in err
    assert not (tmp_path / "eval").exists()


def test_evaluate_warns_of_unmatched_prediction_rows(pipeline, tmp_path):
    pred_out = tmp_path / "pred"
    assert run("predict", "--model", pipeline["model"], "--data",
               pipeline["station_csv"], "--out", pred_out) == 0
    lines = (pred_out / "predictions.csv").read_text().splitlines(keepends=True)
    _, timestamp, rest = lines[5].split(",", 2)
    extra = tmp_path / "extra.csv"
    extra.write_text("".join([*lines, f"ZZ9,{timestamp},{rest}"]))
    assert run("evaluate", "--pred", pred_out / "predictions.csv",
               "--data", pipeline["station_csv"], "--out", tmp_path / "all") == 0
    message = (f"^1 of {5 * 3 * 8 + 1} prediction rows have no observation and are not "
               f"scored; first unmatched keys: ZZ9@{timestamp}$")
    with pytest.warns(DegenerateInputWarning, match=message):
        assert run("evaluate", "--pred", extra, "--data", pipeline["station_csv"],
                   "--out", tmp_path / "extra") == 0
    for name in ("report.json", "discard.csv", "spread_skill.csv", "pit_hist.csv",
                 "picp_stations.csv"):
        assert (tmp_path / "extra" / name).read_bytes() == (tmp_path / "all" / name).read_bytes()


def test_evaluate_on_validation_storms_reproduces_train_scoring(pipeline, tmp_path):
    # train scores its validation split from the model's decomposition;
    # predict then evaluate on the same rows read the predictions back from text
    split = json.loads((pipeline["train_out"] / "split.json").read_text())
    header, *rows = pipeline["station_csv"].read_text().splitlines(keepends=True)
    val_csv = tmp_path / "validation.csv"
    val_csv.write_text("".join(
        [header, *(row for row in rows if row.split(",", 1)[0] in split["validation"])]))
    assert run("predict", "--model", pipeline["model"], "--data", val_csv,
               "--out", tmp_path / "pred") == 0
    assert run("evaluate", "--pred", tmp_path / "pred" / "predictions.csv", "--data", val_csv,
               "--out", tmp_path / "eval") == 0
    for name in ("report.json", "discard.csv", "spread_skill.csv", "pit_hist.csv"):
        got = (tmp_path / "eval" / name).read_bytes()
        assert got == (pipeline["train_out"] / f"validation_{name}").read_bytes(), name


# ---------------------------------------------------------------------------
# explain


def test_explain_empty_pdp_grid_refused(pipeline, tmp_path, capsys):
    out = tmp_path / "xai"
    code = run("explain", "--model", pipeline["model"], "--data", pipeline["station_csv"],
               "--out", out, "--n-shuffles", "1", "--pdp-grid", "0")
    assert code == 2
    assert capsys.readouterr().err == (
        "usage-error: argument --pdp-grid: expected an integer >= 1, got 0\n"
    )
    assert not (out / "pfi.csv").exists() and not (out / "pdp.csv").exists()


def test_explain_outputs(pipeline, tmp_path):
    out = tmp_path / "xai"
    code = run(
        "explain", "--model", pipeline["model"], "--data", pipeline["station_csv"],
        "--out", out, "--n-shuffles", "4", "--pdp-grid", "20", "--seed", "3",
    )
    assert code == 0
    pfi = read_rows(out / "pfi.csv")
    assert len(pfi) == 11
    assert {r["feature"] for r in pfi} >= {"WS_10m", "yday", "WindDC_sin"}
    pdp = read_rows(out / "pdp.csv")
    assert len(pdp) == 11 * 20
    ws_rows = [r for r in pdp if r["feature"] == "WS_10m"]
    grid_values = np.array([float(r["grid_value"]) for r in ws_rows])
    assert np.all(np.diff(grid_values) > 0)


# explain's run in EXPLAIN_SPLIT makes 1 + 11 x 2 + 11 x 20 = 243 evaluations
EXPLAIN_SPLIT = ("--n-shuffles", "2", "--pdp-grid", "20", "--seed", "6")


@pytest.fixture(scope="module")
def split_station_csv(tmp_path_factory):
    """A station file big enough that explain cuts its evaluations in two:
    2,160 rows x 243 evaluations is over twice ``xai.MIN_PIECE_ROW_EVALS``."""
    path = tmp_path_factory.mktemp("split") / "stations.csv"
    write_station_file(path, n_storms=12, n_stations=15, n_hours=12, seed=9)
    assert 2160 * 243 >= 2 * xai.MIN_PIECE_ROW_EVALS
    return path


# Runs the CLI on argv and prints how many times it forked.
COUNTING_CLI = """
import os, sys
from gustuq import cli
forks = []
os.register_at_fork(before=lambda: forks.append(1))
code = cli.main(sys.argv[1:])
print(len(forks))
sys.exit(code)
"""


def test_explain_bytes_do_not_depend_on_cpus(pipeline, split_station_csv, tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    first_cpu = min(os.sched_getaffinity(0))

    def explain(name, one_cpu):
        out = tmp_path / name
        done = subprocess.run(
            [sys.executable, "-c", COUNTING_CLI, "explain", "--model", str(pipeline["model"]),
             "--data", str(split_station_csv), "--out", str(out), *EXPLAIN_SPLIT],
            env=env, capture_output=True, text=True, timeout=300,
            preexec_fn=(lambda: os.sched_setaffinity(0, {first_cpu})) if one_cpu else None)
        assert done.returncode == 0, done.stderr
        forks = int(done.stdout.splitlines()[-1])
        return forks, [(out / f).read_bytes() for f in ("pfi.csv", "pdp.csv")]

    forks, files = explain("cpus", one_cpu=False)
    one_forks, one_files = explain("cpu1", one_cpu=True)
    assert files == one_files
    assert one_forks == 0 and forks == (1 if parallel.available_cpus() > 1 else 0)


@needs_two_cpus
def test_explain_worker_death_is_one_line_and_leaves_nothing(
        pipeline, split_station_csv, tmp_path, capsys, monkeypatch):
    caller = os.getpid()
    mean_and_total_sd = evidential.EvidentialModel.mean_and_total_sd

    def dying(model, features):
        if os.getpid() != caller:
            os._exit(1)
        return mean_and_total_sd(model, features)

    monkeypatch.setattr(evidential.EvidentialModel, "mean_and_total_sd", dying)
    out = tmp_path / "xai"
    code = run("explain", "--model", pipeline["model"], "--data", split_station_csv,
               "--out", out, *EXPLAIN_SPLIT)
    assert code == 2
    assert capsys.readouterr().err == "worker-died: explain: a worker process died\n"
    assert not (out / "pfi.csv").exists() and not (out / "pdp.csv").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_explain_of_a_small_input_forks_nothing(pipeline, tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("explain forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert run("explain", "--model", pipeline["model"], "--data", pipeline["station_csv"],
               "--out", tmp_path / "xai", *EXPLAIN_SPLIT) == 0
    assert len(read_rows(tmp_path / "xai" / "pdp.csv")) == 11 * 20


# ---------------------------------------------------------------------------
# spatial


def make_grid_predictions_csv(path, grid_csv, sd_from="WS_10m", shift_cols=0):
    """Craft a grid predictions file whose total_sd mirrors a feature field."""
    rows = read_rows(grid_csv)
    ws = {}
    for r in rows:
        ws[(r["storm_id"], r["timestamp_utc"], int(r["row"]), int(r["col"]))] = float(
            r["WS_10m"]
        )
    n_cols = max(int(r["col"]) for r in rows) + 1
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["storm_id", "timestamp_utc", "row", "col", "lat", "lon",
             "mean", "aleatoric_sd", "epistemic_sd", "total_sd", "highly_uncertain"]
        )
        for r in rows:
            key = (
                r["storm_id"], r["timestamp_utc"],
                int(r["row"]), (int(r["col"]) + shift_cols) % n_cols,
            )
            writer.writerow(
                [r["storm_id"], r["timestamp_utc"], r["row"], r["col"],
                 r["lat"], r["lon"], "5.0", "0.5", "0.5", repr(ws[key]), "0"]
            )


def test_spatial_alignment_of_identical_fields(pipeline, tmp_path):
    pred_csv = tmp_path / "gp.csv"
    make_grid_predictions_csv(pred_csv, pipeline["grid_csv"])
    out = tmp_path / "spatial"
    code = run("spatial", "--pred", pred_csv, "--data", pipeline["grid_csv"],
               "--out", out, "--align-k", "0,1")
    assert code == 0
    alignment = json.loads((out / "alignment.json").read_text())
    assert alignment["G00"]["0"] == 1.0
    tracks = read_rows(out / "max_tracks.csv")
    assert len(tracks) == 4  # one per hour
    for row in tracks:
        assert (row["wind_row"], row["wind_col"]) == (row["uq_row"], row["uq_col"])
    series = read_rows(out / "normalized_series.csv")
    ws_norm = [float(r["wind_max_norm"]) for r in series]
    assert min(ws_norm) == 0.0 and max(ws_norm) == 1.0


def test_spatial_shifted_copy_alignment(pipeline, tmp_path):
    pred_csv = tmp_path / "gp_shift.csv"
    make_grid_predictions_csv(pred_csv, pipeline["grid_csv"], shift_cols=2)
    out = tmp_path / "spatial"
    code = run("spatial", "--pred", pred_csv, "--data", pipeline["grid_csv"],
               "--out", out, "--align-k", "0,1,2,3")
    assert code == 0
    alignment = json.loads((out / "alignment.json").read_text())["G00"]
    assert alignment["1"] == 0.0
    assert alignment["2"] == 1.0


def test_spatial_missing_total_sd_is_usage_error(pipeline, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    with open(bad, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["storm_id", "timestamp_utc", "row", "col", "lat", "lon", "mean"])
        writer.writerow(["G00", "2020-01-01T00:00:00Z", 0, 0, "41.0", "-74.0", "5.0"])
    code = run("spatial", "--pred", bad, "--data", pipeline["grid_csv"],
               "--out", tmp_path / "out")
    assert code != 0
    assert capsys.readouterr().err.startswith("usage-error:")


def test_spatial_rejects_duplicate_cells(pipeline, tmp_path, capsys):
    pred_csv = tmp_path / "gp.csv"
    make_grid_predictions_csv(pred_csv, pipeline["grid_csv"])
    # an injected 500 m/s duplicate cell in the feature file
    rows = grid_rows(n_storms=1, n_rows=5, n_cols=6, n_hours=4, seed=2)
    hot = list(rows[7])
    hot[6] = "500.0"
    rows.append(hot)
    dup_grid = tmp_path / "dup_grid.csv"
    write_grid_file(dup_grid, rows=rows)
    code = run("spatial", "--pred", pred_csv, "--data", dup_grid, "--out", tmp_path / "s1")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ingest-error:") and "line 122: same key as line 9" in err
    assert not (tmp_path / "s1" / "max_tracks.csv").exists()
    # and a duplicated cell in the predictions file
    lines = pred_csv.read_text().splitlines(keepends=True)
    dup_pred = tmp_path / "dup_pred.csv"
    dup_pred.write_text("".join(lines + [lines[5]]))
    code = run("spatial", "--pred", dup_pred, "--data", pipeline["grid_csv"],
               "--out", tmp_path / "s2")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ingest-error:") and "line 122: same key as line 6" in err


def with_cell(src, dst, line: int, column: str, text: str) -> None:
    """Copy CSV ``src`` to ``dst`` with the ``column`` cell of file line
    ``line`` set to ``text``."""
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[line - 1][rows[0].index(column)] = text
    with open(dst, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.mark.parametrize("column, text, reason", [
    ("total_sd", "nan", "must be finite, got nan"),
    ("aleatoric_sd", "-3.0", "must be >= 0, got -3.0"),
    ("epistemic_sd", "inf", "must be finite, got inf"),
    ("mean", "-inf", "must be finite, got -inf"),
])
def test_evaluate_refuses_bad_prediction_values(pipeline, tmp_path, capsys, column, text, reason):
    assert run("predict", "--model", pipeline["model"], "--data", pipeline["station_csv"],
               "--out", tmp_path / "pred") == 0
    bad = tmp_path / "bad.csv"
    with_cell(tmp_path / "pred" / "predictions.csv", bad, 4, column, text)
    capsys.readouterr()
    out = tmp_path / "out"
    code = run("evaluate", "--pred", bad, "--data", pipeline["station_csv"], "--out", out)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ingest-error:") and f"line 4: {column}: {reason}" in err
    assert not out.exists()


def test_spatial_refuses_bad_total_sd(pipeline, tmp_path, capsys):
    pred_csv = tmp_path / "gp.csv"
    make_grid_predictions_csv(pred_csv, pipeline["grid_csv"])
    with_cell(pred_csv, tmp_path / "nan.csv", 5, "total_sd", "nan")
    with_cell(tmp_path / "nan.csv", tmp_path / "bad.csv", 9, "total_sd", "-3.0")
    out = tmp_path / "out"
    code = run("spatial", "--pred", tmp_path / "bad.csv", "--data", pipeline["grid_csv"],
               "--out", out)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ingest-error:")
    assert "line 5: total_sd: must be finite, got nan" in err
    assert "line 9: total_sd: must be >= 0, got -3.0" in err
    assert not (out / "max_tracks.csv").exists()


@pytest.mark.parametrize("command", ["train", "predict", "evaluate", "spatial"])
def test_lat_has_one_rule_in_every_file(pipeline, tmp_path, capsys, command):
    # train and evaluate read lat from a station file, predict from a grid
    # file and spatial from a grid predictions file; evaluate reads no lat
    # from its predictions, which it joins to the station file by key
    station, grid, model = pipeline["station_csv"], pipeline["grid_csv"], pipeline["model"]
    if command in ("evaluate", "spatial"):
        source = station if command == "evaluate" else grid
        assert run("predict", "--model", model, "--data", source, "--out", tmp_path) == 0
    src = {"train": station, "predict": grid, "evaluate": station,
           "spatial": tmp_path / "grid_predictions.csv"}[command]
    bad = tmp_path / "bad.csv"
    with_cell(src, bad, 4, "lat", "91.0")
    args = {"train": ["--data", bad, "--split", "3,1,1"],
            "predict": ["--model", model, "--data", bad],
            "evaluate": ["--pred", tmp_path / "predictions.csv", "--data", bad],
            "spatial": ["--pred", bad, "--data", grid]}[command]
    capsys.readouterr()
    assert run(command, *args, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ingest-error: {bad}: ") and err.count("\n") == 1
    assert "[line 4: lat: 91.0 outside [-90, 90]]" in err


def test_spatial_refuses_predictions_made_on_another_grid(pipeline, tmp_path, capsys):
    # the pipeline's grid moved 2 degrees north: its grid row 0 is another
    # place than the feature file's
    rows = grid_rows(n_storms=1, n_rows=5, n_cols=6, n_hours=4, seed=2)
    for row in rows:
        row[4] = repr(float(row[4]) + 2.0)
    write_grid_file(tmp_path / "north.csv", rows=rows)
    assert run("predict", "--model", pipeline["model"], "--data", tmp_path / "north.csv",
               "--out", tmp_path / "pred") == 0
    pred = tmp_path / "pred" / "grid_predictions.csv"
    capsys.readouterr()
    out = tmp_path / "out"
    code = run("spatial", "--pred", pred, "--data", pipeline["grid_csv"], "--out", out)
    assert code == 2
    assert capsys.readouterr().err == (
        f"ingest-error: storm G00: grid row 0 has lat 41.0 in {pipeline['grid_csv']} "
        f"but 43.0 in {pred}\n"
    )
    assert not out.exists()


def test_spatial_warns_of_storms_in_one_file_only(pipeline, tmp_path):
    pred_csv = tmp_path / "gp.csv"
    make_grid_predictions_csv(pred_csv, pipeline["grid_csv"])
    # G01, a copy of G00's rows, is a storm that the feature file lacks
    lines = pred_csv.read_text().splitlines(keepends=True)
    extra = tmp_path / "extra.csv"
    extra.write_text("".join(lines + [line.replace("G00", "G01", 1) for line in lines[1:]]))
    out = tmp_path / "spatial"
    with pytest.warns(DegenerateInputWarning) as caught:
        assert run("spatial", "--pred", extra, "--data", pipeline["grid_csv"], "--out", out) == 0
    assert [str(w.message) for w in caught] == [
        f"1 of 2 storms are in one file only and are not tracked: G01 (only in {extra})"
    ]
    assert list(json.loads((out / "alignment.json").read_text())) == ["G00"]
    # G00's track as without G01
    ref = tmp_path / "reference"
    assert run("spatial", "--pred", pred_csv, "--data", pipeline["grid_csv"], "--out", ref) == 0
    assert (out / "max_tracks.csv").read_bytes() == (ref / "max_tracks.csv").read_bytes()


# ---------------------------------------------------------------------------
# blank cells, byte for byte as csv.writer wrote them


def spatial_outputs(folder, skip_hour=None, ws_10m=None) -> tuple[bytes, bytes]:
    """``spatial`` on a 2 x 3 grid of 3 hours whose total sd is 1 + row +
    col / 2 + hour / 4; ``skip_hour`` leaves an hour out of the predictions
    and ``ws_10m`` sets every cell's wind. Returns the bytes of
    ``max_tracks.csv`` and ``normalized_series.csv``."""
    rows = grid_rows(n_storms=1, n_rows=2, n_cols=3, n_hours=3, seed=0)
    if ws_10m is not None:
        for row in rows:
            row[6] = ws_10m
    write_grid_file(folder / "grid.csv", rows=rows)
    hours = sorted({row[1] for row in rows})
    with open(folder / "pred.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["storm_id", "timestamp_utc", "row", "col", "lat", "lon", "total_sd"])
        for row in rows:
            hour = hours.index(row[1])
            if hour != skip_hour:
                writer.writerow([*row[:6], repr(1.0 + row[2] + row[3] / 2 + hour / 4)])
    out = folder / "spatial"
    assert run("spatial", "--pred", folder / "pred.csv", "--data", folder / "grid.csv",
               "--out", out) == 0
    return (out / "max_tracks.csv").read_bytes(), (out / "normalized_series.csv").read_bytes()


def test_spatial_hour_missing_from_predictions_is_blank(tmp_path):
    tracks, series = spatial_outputs(tmp_path, skip_hour=1)
    assert tracks == (
        b"storm_id,time,wind_value,wind_lat,wind_lon,wind_row,wind_col,"
        b"uq_value,uq_lat,uq_lon,uq_row,uq_col\r\n"
        b"G00,2020-01-01T00:00:00Z,20.445137176002397,41.25,-73.5,1,2,3.0,41.25,-73.5,1,2\r\n"
        b"G00,2020-01-01T01:00:00Z,20.16805853027283,41.0,-74.0,0,0,,,,,\r\n"
        b"G00,2020-01-01T02:00:00Z,20.203255168374064,41.25,-73.75,1,1,3.5,41.25,-73.5,1,2\r\n"
    )
    assert series == (
        b"storm_id,time,wind_max_norm,uq_max_norm\r\n"
        b"G00,2020-01-01T00:00:00Z,1.0,0.0\r\n"
        b"G00,2020-01-01T01:00:00Z,0.0,\r\n"
        b"G00,2020-01-01T02:00:00Z,0.12702760982737601,1.0\r\n"
    )


def test_spatial_constant_wind_max_series_is_blank(tmp_path):
    with pytest.warns(DegenerateInputWarning, match="wind max series is constant"):
        tracks, series = spatial_outputs(tmp_path, ws_10m="9.0")
    assert tracks == (
        b"storm_id,time,wind_value,wind_lat,wind_lon,wind_row,wind_col,"
        b"uq_value,uq_lat,uq_lon,uq_row,uq_col\r\n"
        b"G00,2020-01-01T00:00:00Z,9.0,41.0,-74.0,0,0,3.0,41.25,-73.5,1,2\r\n"
        b"G00,2020-01-01T01:00:00Z,9.0,41.0,-74.0,0,0,3.25,41.25,-73.5,1,2\r\n"
        b"G00,2020-01-01T02:00:00Z,9.0,41.0,-74.0,0,0,3.5,41.25,-73.5,1,2\r\n"
    )
    assert series == (
        b"storm_id,time,wind_max_norm,uq_max_norm\r\n"
        b"G00,2020-01-01T00:00:00Z,,0.0\r\n"
        b"G00,2020-01-01T01:00:00Z,,0.5\r\n"
        b"G00,2020-01-01T02:00:00Z,,1.0\r\n"
    )


def write_constant_grid(path) -> None:
    """One storm of 2 x 3 cells over 2 hours, every cell with the same features."""
    rows = grid_rows(n_storms=1, n_rows=2, n_cols=3, n_hours=2, seed=0)
    for row in rows:
        row[6:] = ["8.0", "10.0", "9.0", "1.0", "0.5", "180.0", "100.0", "1.0", "2.0"]
    write_grid_file(path, rows=rows)


def test_predict_constant_storm_normalized_fields_are_blank(pipeline, tmp_path):
    write_constant_grid(tmp_path / "grid.csv")
    out = tmp_path / "out"
    with pytest.warns(DegenerateInputWarning, match="is constant"):
        assert run("predict", "--model", pipeline["model"], "--data", tmp_path / "grid.csv",
                   "--out", out) == 0
    assert (out / "normalized_fields.csv").read_bytes() == (
        b"storm_id,lat,lon,mean_norm,total_sd_norm\r\n"
        b"G00,41.0,-74.0,,\r\nG00,41.0,-73.75,,\r\nG00,41.0,-73.5,,\r\n"
        b"G00,41.25,-74.0,,\r\nG00,41.25,-73.75,,\r\nG00,41.25,-73.5,,\r\n"
    )


def test_command_warnings_print_as_one_line(pipeline, tmp_path):
    write_constant_grid(tmp_path / "grid.csv")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}

    def predict_stderr(*python_options) -> str:
        done = subprocess.run(
            [sys.executable, *python_options, "-m", "gustuq.cli", "predict", "--model",
             str(pipeline["model"]), "--data", str(tmp_path / "grid.csv"),
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stderr

    assert predict_stderr() == (
        "DegenerateInputWarning: storm G00 mean field is constant; normalization skipped\n"
        "DegenerateInputWarning: storm G00 total-sd field is constant; normalization skipped\n"
    )
    assert predict_stderr("-W", "ignore") == ""  # the filters still apply


# ---------------------------------------------------------------------------
# tune


def test_tune_cli(pipeline, tmp_path, capsys):
    out = tmp_path / "tune"
    config = tmp_path / "tune.json"
    config.write_text(json.dumps({
        "space": {
            "learning_rate": [1e-3, 1e-2],
            "hidden_neurons": [4, 8],
            "hidden_layers": [1, 1],
            "batch_size": [32, 64],
            "dropout": [0.0, 0.1],
            "evidential_coef": [0.01, 0.5],
            "l1": [1e-12, 1e-10],
            "l2": [1e-12, 1e-10],
        },
        "trials": 4,
        "max_epochs": 5,
        "patience": 5,
    }))
    code = run("tune", "--config", config, "--data", pipeline["station_csv"],
               "--out", out, "--split", "3,1,1", "--seed", "9")
    assert code == 0
    log = read_rows(out / "trials_log.csv")
    assert len(log) == 4
    pareto = json.loads((out / "pareto.json").read_text())
    assert pareto["n_trials"] == 4
    assert len(pareto["pareto"]) >= 1
    assert "recommended" in pareto
    # resume with a larger budget appends only the new trials
    code = run("tune", "--config", config, "--data", pipeline["station_csv"],
               "--out", out, "--split", "3,1,1", "--seed", "9", "--trials", "6")
    assert code == 0
    log2 = read_rows(out / "trials_log.csv")
    assert len(log2) == 6
    assert [r["trial_id"] for r in log2[:4]] == [r["trial_id"] for r in log]
    # resuming that log under another seed mixes two searches: refused
    code = run("tune", "--config", config, "--data", pipeline["station_csv"],
               "--out", out, "--split", "3,1,1", "--seed", "7", "--trials", "7")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("usage-error:") and "trial 0 has learning_rate" in err
    assert read_rows(out / "trials_log.csv") == log2


def test_tune_recommendation_is_a_train_config_file(pipeline, tmp_path):
    config = tmp_path / "tune.json"
    config.write_text(json.dumps({"space": {"hidden_neurons": [2, 4], "hidden_layers": [1, 2],
                                            "batch_size": [16, 64]}}))
    assert run("tune", "--config", config, "--data", pipeline["station_csv"],
               "--out", tmp_path / "tune", "--split", "3,1,1", "--trials", "2",
               "--max-epochs", "2") == 0
    pareto = json.loads((tmp_path / "tune" / "pareto.json").read_text())
    recommended = tmp_path / "recommended.json"
    recommended.write_text(json.dumps(pareto["recommended"]["config"]))
    assert run("train", "--config", recommended, "--data", pipeline["station_csv"],
               "--out", tmp_path / "train", "--split", "3,1,1", "--max-epochs", "2") == 0
    trained = json.loads((tmp_path / "train" / "model.json").read_text())
    for name in ("learning_rate", "batch_size", "evidential_coef"):
        assert trained["train_config"][name] == pareto["recommended"]["config"][name]


# ---------------------------------------------------------------------------
# config precedence, errors, hygiene


def test_config_file_and_flag_precedence(pipeline, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"levels": [0.9], "mask_percentile": 90}))
    out = tmp_path / "pred"
    code = run("predict", "--config", config, "--model", pipeline["model"],
               "--data", pipeline["station_csv"], "--out", out, "--levels", "0.99")
    assert code == 0
    rows = read_rows(out / "predictions.csv")
    assert "lower_99" in rows[0]       # flag wins over config file
    assert "lower_90" not in rows[0]


def test_config_file_repeated_key_is_usage_error(pipeline, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text('{"mask_percentile": 90, "levels": [0.9], "mask_percentile": 80}')
    code = run("predict", "--config", config, "--model", pipeline["model"],
               "--data", pipeline["station_csv"], "--out", tmp_path / "o")
    assert code == 2
    assert capsys.readouterr().err == (
        f"usage-error: config file {config}: repeated key 'mask_percentile'\n")
    assert not (tmp_path / "o").exists()


def test_retired_threads_config_key_rejected(pipeline, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"threads": 2}))
    code = run("explain", "--config", config, "--model", pipeline["model"],
               "--data", pipeline["station_csv"], "--out", tmp_path / "o")
    assert code != 0
    err = capsys.readouterr().err
    assert err.startswith("usage-error:")
    assert "unknown keys threads" in err


def test_unknown_config_key_rejected(pipeline, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"bogus_key": 1}))
    code = run("predict", "--config", config, "--model", pipeline["model"],
               "--data", pipeline["station_csv"], "--out", tmp_path / "o")
    assert code != 0
    assert "bogus_key" in capsys.readouterr().err


# Each case: command, extra flags, config-file entries (or None), and the flag
# or config key the one-line error must name.
BAD_OPTIONS = [
    ("train", [], {"split": [6, 2]}, "split"),  # 6+2 storms, the data has 5
    ("train", [], {"split": 7}, "split"),
    ("train", [], {"max_epochs": "2"}, "max_epochs"),
    ("predict", [], {"levels": 0.7}, "levels"),
    ("train", [], {"hidden_neurons": 8.5}, "hidden_neurons"),
    ("train", [], {"patience": None}, "patience"),
    ("explain", [], {"seed": "1"}, "seed"),
    ("predict", [], {"mask_percentile": "95"}, "mask_percentile"),
    ("tune", [], {"space": {"dropout": [0.1]}}, "space"),
    ("train", [], {"dropout": True}, "dropout"),
    ("train", ["--split", "6,x,2"], None, "--split"),
    ("predict", ["--levels", "0.7,abc"], None, "--levels"),
    ("train", ["--max-epochs", "x"], None, "--max-epochs"),
    ("predict", ["--levels", "0.7,0.7"], None, "--levels"),
    ("evaluate", [], {"exclude_flagged": "no"}, "exclude_flagged"),
    ("spatial", ["--align-k", "1,1"], None, "--align-k"),
    ("tune", [], {"space": {"depth": [1, 2]}}, "depth"),
    ("train", ["--split", "1,2,3,4"], None, "--split"),
    # counts are >= 1 and seeds >= 0, refused before any input is read
    ("train", ["--seed", "-4"], None, "--seed"),
    ("explain", ["--seed", "-1"], None, "--seed"),
    ("tune", ["--seed", "-2"], None, "--seed"),
    ("train", ["--hidden-neurons", "0"], None, "--hidden-neurons"),
    ("train", ["--hidden-layers", "-1"], None, "--hidden-layers"),
    ("train", ["--max-epochs", "0"], None, "--max-epochs"),
    ("train", [], {"patience": 0}, "patience"),
    ("train", [], {"batch_size": -256}, "batch_size"),
    ("explain", ["--n-shuffles", "0"], None, "--n-shuffles"),
    ("explain", [], {"pdp_grid": 0}, "pdp_grid"),
    ("tune", ["--trials", "0"], None, "--trials"),
    ("tune", [], {"seed": -1}, "seed"),
    # levels lie in (0, 1) and the mask percentile in (0, 100), refused before
    # train writes its model
    ("train", ["--levels", "1.5"], None, "--levels"),
    ("train", ["--mask-percentile", "150"], None, "--mask-percentile"),
    ("train", [], {"levels": [0.7, 0]}, "levels"),
    ("train", [], {"mask_percentile": 100}, "mask_percentile"),
    ("predict", ["--levels", "0.9,1"], None, "--levels"),
    ("evaluate", ["--mask-percentile", "-5"], None, "--mask-percentile"),
    # integer dimensions of the search space take integers >= 1, and cell
    # distances integers >= 0
    *(("tune", ["--trials", "1", "--max-epochs", "1"], {"space": {key: bounds}}, key)
      for key, bounds in (("hidden_neurons", [-5, 3]), ("hidden_neurons", [0, 0]),
                          ("hidden_layers", [1.5, 3]))),
    ("spatial", ["--align-k=-1"], None, "--align-k"),
    # dropout bounds lie in [0, 0.5], the rates the network accepts
    *(("tune", ["--trials", "1", "--max-epochs", "1"], {"space": {"dropout": bounds}}, "dropout")
      for bounds in ([1.0, 2.0], [-0.5, -0.1])),
    # distinct levels whose labels coincide in 12 significant digits
    ("predict", ["--levels", "0.7,0.7000000000001"], None, "--levels"),
    # training settings that the network, the optimizer or the loss would
    # refuse, refused before the station file is read
    *(("train", [flag, str(value)], None, flag)
      for flag, value in (("--dropout", 0.9), ("--learning-rate", -1),
                          ("--evidential-coef", -1), ("--l1", -1), ("--l2", -1))),
    *(("train", [], {name: value}, name)
      for name, value in (("dropout", 0.9), ("learning_rate", -1),
                          ("evidential_coef", -1), ("l1", -1), ("l2", -1))),
    # no run trains or validates on zero storms: refused before the station
    # file is read, by flag and by config key
    ("train", ["--split", "0,20,20"], None, "--split"),
    ("train", ["--split", "39,0,1"], None, "--split"),
    ("tune", ["--split", "0,3"], None, "--split"),
    ("tune", [], {"split": [3, 0, 2]}, "split"),
    ("train", [], {"split": "0,4,1"}, "split"),
]


@pytest.mark.parametrize("command, flags, entries, name", BAD_OPTIONS)
def test_bad_option_is_one_line_usage_error(pipeline, tmp_path, capsys,
                                            command, flags, entries, name):
    inputs = {
        "train": ["--data", pipeline["station_csv"]],
        "predict": ["--data", pipeline["station_csv"], "--model", pipeline["model"]],
        "evaluate": ["--data", pipeline["station_csv"], "--pred", tmp_path / "p.csv"],
        "explain": ["--data", pipeline["station_csv"], "--model", pipeline["model"]],
        "spatial": ["--data", pipeline["grid_csv"], "--pred", tmp_path / "p.csv"],
        "tune": ["--data", pipeline["station_csv"]],
    }[command]
    if entries is not None:
        config = tmp_path / "run.json"
        config.write_text(json.dumps(entries))
        flags = [*flags, "--config", config]
    code = run(command, *inputs, "--out", tmp_path / "out", *flags)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("usage-error:") and err.count("\n") == 1, err
    assert name in err
    assert not (tmp_path / "out").exists()


RETIRED_FLAGS = [
    *(("--model", "m.json", c) for c in ("train", "evaluate", "spatial", "tune")),
    *(("--seed", "1", c) for c in ("predict", "evaluate", "spatial")),
    *((flag, value, c) for c in ("explain", "spatial", "tune")
      for flag, value in (("--levels", "0.9"), ("--mask-percentile", "90"))),
]


@pytest.mark.parametrize("flag, value, command", RETIRED_FLAGS)
def test_retired_flags_refused(tmp_path, capsys, flag, value, command):
    # no handler of these commands reads the option, so it is no flag of theirs
    assert run(command, flag, value) == 2
    err = capsys.readouterr().err
    assert err == f"usage-error: unrecognized arguments: {flag} {value}\n"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({flag[2:].replace("-", "_"): value}))
    assert run(command, "--config", config) == 2
    assert "unknown keys" in capsys.readouterr().err


def resolve(*argv):
    args = cli.build_parser().parse_args([str(a) for a in argv])
    return cli.merge_options(args, cli.COMMANDS[args.command][1])


@pytest.mark.parametrize("command, flags, entries", [
    ("train", ["--split", "6,2"], {"split": [6, 2]}),
    ("train", ["--split", "3,1,1"], {"split": "3,1,1"}),
    ("predict", ["--levels", "0.7,0.95", "--mask-percentile", "90"],
     {"levels": [0.7, 0.95], "mask_percentile": 90.0}),
    ("evaluate", ["--no-exclude-flagged"], {"exclude_flagged": False}),
    ("spatial", ["--align-k", "0,2"], {"align_k": [0, 2]}),
    ("tune", ["--trials", "3", "--scalarization-weight", "0.25"],
     {"trials": 3, "scalarization_weight": 0.25}),
])
def test_flag_and_config_resolve_alike(tmp_path, command, flags, entries):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(entries))
    paths = {"train": ["--data", "d"], "tune": ["--data", "d"],
             "predict": ["--data", "d", "--model", "m"],
             "evaluate": ["--data", "d", "--pred", "p"],
             "spatial": ["--data", "d", "--pred", "p"]}[command]
    from_flags = resolve(command, *paths, "--out", "o", *flags)
    from_config = resolve(command, *paths, "--out", "o", "--config", config)
    assert from_flags == from_config
    if command == "train":
        assert from_flags["split"] in {(6, 2, 0), (3, 1, 1)}


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


def test_argument_errors_are_one_line(tmp_path, capsys):
    for argv in ([], ["bogus"], ["train", "--max-epochs"], ["predict", "--data"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage-error:") and err.count("\n") == 1, err
    assert run("train", "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == "usage-error: missing required option(s): --data\n"


def test_missing_input_file_one_line_error(tmp_path, capsys):
    code = run("train", "--data", tmp_path / "nope.csv", "--out", tmp_path / "out")
    assert code != 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.split(":")[0] in {"io-error", "ingest-error", "usage-error"}


def test_unexpected_failure_still_one_line(pipeline, tmp_path, capsys):
    # a negative seed is refused up front; whatever the error class, the CLI
    # must emit a single machine-parsable line
    code = run("train", "--data", pipeline["station_csv"], "--out", tmp_path / "o",
               "--split", "3,1,1", "--max-epochs", "1", "--seed", "-4")
    assert code != 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.split(":")[0] in {"internal-error", "usage-error", "config-error"}


def test_handler_bug_is_one_internal_error_line(pipeline, tmp_path, capsys, monkeypatch):
    def broken(opts):
        raise RuntimeError("boom\nsecond line of a bug")

    monkeypatch.setitem(cli.COMMANDS, "predict", (broken, cli.COMMANDS["predict"][1]))
    code = run("predict", "--model", pipeline["model"], "--data", pipeline["station_csv"],
               "--out", tmp_path / "o")
    assert code == 3
    err = capsys.readouterr().err
    assert err == "internal-error: RuntimeError: boom second line of a bug\n"


def test_input_text_quoted_in_a_refusal_stays_on_one_line(pipeline, tmp_path, capsys):
    # a lone " appended as the last header name opens a quoted name that
    # runs to the end of the file, so the unknown column the refusal names
    # holds every line break of the file
    lines = Path(pipeline["station_csv"]).read_text().splitlines()
    bad = tmp_path / "stations.csv"
    bad.write_text("\n".join([lines[0] + ',"', *lines[1:]]) + "\n")
    code = run("train", "--data", bad, "--out", tmp_path / "o", "--split", "3,1,1")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ingest-error: {bad}: unknown columns:  S00,")
    assert err.count("\n") == 1


def test_evaluate_header_refusal_names_the_file(pipeline, tmp_path, capsys):
    assert run("predict", "--model", pipeline["model"], "--data", pipeline["station_csv"],
               "--out", tmp_path / "pred") == 0
    lines = Path(pipeline["station_csv"]).read_text().splitlines()
    extra = tmp_path / "extra.csv"
    extra.write_text("\n".join([lines[0] + ",extra", *(line + ",0" for line in lines[1:])]))
    capsys.readouterr()
    code = run("evaluate", "--pred", tmp_path / "pred" / "predictions.csv", "--data", extra,
               "--out", tmp_path / "eval")
    assert code == 2
    assert capsys.readouterr().err == f"ingest-error: {extra}: unknown columns: extra\n"


def test_no_temp_files_left_behind(pipeline):
    leftovers = list(Path(pipeline["train_out"]).glob("*.tmp"))
    assert leftovers == []


def test_tune_bytes_do_not_depend_on_blas_threads_or_cpus(tmp_path):
    # 40 station rows and two 2 x 500-700 trials: wide enough that 1 and 2
    # OpenBLAS threads sum a trial's products in another order, unless every
    # trial runs on one thread
    station = tmp_path / "stations.csv"
    write_station_file(station, n_storms=5, n_stations=2, n_hours=4, seed=0)
    config = tmp_path / "tune.json"
    config.write_text(json.dumps({
        "space": {"hidden_layers": [2, 2], "hidden_neurons": [500, 700],
                  "batch_size": [24, 24]},
        "trials": 2,
        "max_epochs": 1,
    }))
    src = str(Path(cli.__file__).resolve().parents[1])
    first_cpu = min(os.sched_getaffinity(0))

    def tune_bytes(name, threads=None, one_cpu=False):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
        out = tmp_path / name
        done = subprocess.run(
            [sys.executable, "-m", "gustuq.cli", "tune", "--config", str(config),
             "--data", str(station), "--out", str(out), "--split", "3,1,1"],
            env=env, capture_output=True, text=True, timeout=300,
            preexec_fn=(lambda: os.sched_setaffinity(0, {first_cpu})) if one_cpu else None,
        )
        assert done.returncode == 0, done.stderr
        return [(out / f).read_bytes() for f in ("trials_log.csv", "pareto.json")]

    one_thread = tune_bytes("threads1", threads=1)
    assert tune_bytes("threads2", threads=2) == one_thread
    assert tune_bytes("cpu1", one_cpu=True) == tune_bytes("cpus") == one_thread


def test_train_and_predict_bytes_do_not_depend_on_blas_threads(tmp_path):
    # a 2 x 600 network, wide enough that 1 and 2 OpenBLAS threads sum its
    # products in another order, unless the command holds OpenBLAS to one
    station = tmp_path / "stations.csv"
    write_station_file(station, n_storms=5, n_stations=2, n_hours=4, seed=0)
    src = str(Path(cli.__file__).resolve().parents[1])

    def output_bytes(threads: int) -> dict:
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
        out = tmp_path / f"threads{threads}"
        for argv in (
            ["train", "--data", station, "--out", out / "train", "--split", "3,1,1",
             "--hidden-layers", "2", "--hidden-neurons", "600", "--batch-size", "24",
             "--max-epochs", "2"],
            ["predict", "--model", out / "train" / "model.json", "--data", station,
             "--out", out / "predict"],
        ):
            done = subprocess.run([sys.executable, "-m", "gustuq.cli", *map(str, argv)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
        return {f.relative_to(out): f.read_bytes() for f in sorted(out.rglob("*")) if f.is_file()}

    one_thread = output_bytes(1)
    assert len(one_thread) == 8  # train's 7 files and the predictions
    assert output_bytes(2) == one_thread


def fresh_python(code: str, *args) -> str:
    """Run ``code`` in a fresh interpreter on this checkout; its stdout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_loads_no_process_pool():
    # multiprocessing and concurrent.futures' process pool cost about 20 ms
    # of a start; gustuq forks with os.fork and imports neither
    stdout = fresh_python("import sys, gustuq.cli; print(sorted(m for m in sys.modules "
                          "if m.startswith(('multiprocessing', 'concurrent.futures.process'))))")
    assert stdout.strip() == "[]"


# Runs the CLI on argv, then prints the scipy modules it loaded.
SCIPY_CLI = """
import sys
from gustuq import cli
assert cli.main(sys.argv[1:]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


@pytest.mark.parametrize("command", [
    "predict-station", "predict-grid", "spatial", "explain", "train", "evaluate",
    "predict-station-unnamed-level", "tune",
])
def test_no_command_loads_scipy(pipeline, tmp_path, command):
    # the loss and the PIT compute their special functions in numpy, so
    # scipy is a test-only dependency
    station, grid, model = pipeline["station_csv"], pipeline["grid_csv"], pipeline["model"]
    assert run("predict", "--model", model, "--data", grid, "--out", tmp_path / "grid") == 0
    assert run("predict", "--model", model, "--data", station, "--out", tmp_path / "pred") == 0
    argv = {
        "predict-station": ["predict", "--model", model, "--data", station],
        "predict-grid": ["predict", "--model", model, "--data", grid],
        "spatial": ["spatial", "--pred", tmp_path / "grid" / "grid_predictions.csv",
                    "--data", grid],
        "explain": ["explain", "--model", model, "--data", station, "--n-shuffles", "1",
                    "--pdp-grid", "3"],
        "train": ["train", "--data", station, "--split", "3,1,1", "--max-epochs", "1"],
        "evaluate": ["evaluate", "--pred", tmp_path / "pred" / "predictions.csv",
                     "--data", station],
        "predict-station-unnamed-level": ["predict", "--model", model, "--data", station,
                                          "--levels", "0.8"],
        "tune": ["tune", "--data", station, "--split", "3,1,1", "--trials", "2",
                 "--max-epochs", "1"],
    }[command]
    stdout = fresh_python(SCIPY_CLI, *argv, "--out", tmp_path / "out")
    assert stdout.splitlines()[-1] == "[]"


def test_forked_trial_maps_no_openblas_its_parent_had_not():
    # search holds each OpenBLAS the caller has mapped to one thread before
    # its trials fork; one that a trial maps itself would run at its own count
    stdout = fresh_python("""
import numpy as np
from gustuq import tune
from gustuq.errors import GustUQError


def openblas():
    with open("/proc/self/maps") as fh:
        return {line.split()[-1] for line in fh if "openblas" in line.lower()}


rng = np.random.default_rng(0)
x, y = rng.normal(size=(40, 11)), rng.normal(size=40)
trial = tune.make_evidential_objective(x[:30], y[:30], x[30:], y[30:], max_epochs=2)
mapped = openblas()


def objective(config, rng):
    scores = trial(config, rng)
    if openblas() - mapped:
        raise GustUQError(f"the trial mapped {sorted(openblas() - mapped)}")
    return scores


result = tune.search(tune.HyperSpace(), 2, objective)
print(bool(mapped), [t.message for t in result.trials])
""")
    assert stdout.splitlines()[-1] == "True ['', '']"


def test_tune_worker_death_is_one_line_exit_2(pipeline, tmp_path, capsys, monkeypatch):
    def dying_objective(*args, **kwargs):
        def objective(config, rng):
            os._exit(1)
        return objective

    monkeypatch.setattr(tune, "make_evidential_objective", dying_objective)
    code = run("tune", "--data", pipeline["station_csv"], "--out", tmp_path / "tune",
               "--split", "3,1,1", "--trials", "2", "--max-epochs", "1")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("search-failure: a trial's worker process died")


def test_tune_without_cpu_affinity_is_one_line_exit_2(pipeline, tmp_path, capsys, monkeypatch):
    # as on macOS, where CPython has no CPU affinity
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.delattr(os, "sched_setaffinity")
    code = run("tune", "--data", pipeline["station_csv"], "--out", tmp_path / "tune",
               "--split", "3,1,1", "--trials", "2", "--max-epochs", "1")
    assert code == 2
    assert capsys.readouterr().err == (
        "usage-error: tune runs each trial on a CPU of its own, but this system has no "
        "CPU affinity (os.sched_getaffinity)\n")
    assert not (tmp_path / "tune").exists()


def test_end_to_end_determinism(pipeline, tmp_path):
    tune_config = tmp_path / "tune.json"
    tune_config.write_text(json.dumps({
        "space": {
            "learning_rate": [1e-3, 1e-2],
            "hidden_neurons": [4, 8],
            "hidden_layers": [1, 2],
            "batch_size": [16, 64],
            "dropout": [0.0, 0.2],
            "evidential_coef": [0.01, 0.5],
        },
        "trials": 2,
        "max_epochs": 3,
        "patience": 3,
    }))
    outputs = []
    for tag in ("a", "b"):
        t_out, p_out, e_out, g_out, s_out, x_out, u_out = (
            tmp_path / f"{stage}_{tag}"
            for stage in ("train", "pred", "eval", "grid", "spatial", "xai", "tune")
        )
        assert run("train", "--data", pipeline["station_csv"], "--out", t_out,
                   "--split", "3,1,1", "--hidden-neurons", "8", "--max-epochs", "10",
                   "--patience", "10", "--seed", "21") == 0
        assert run("predict", "--model", t_out / "model.json",
                   "--data", pipeline["station_csv"], "--out", p_out) == 0
        assert run("evaluate", "--pred", p_out / "predictions.csv",
                   "--data", pipeline["station_csv"], "--out", e_out) == 0
        assert run("predict", "--model", t_out / "model.json",
                   "--data", pipeline["grid_csv"], "--out", g_out) == 0
        assert run("spatial", "--pred", g_out / "grid_predictions.csv",
                   "--data", pipeline["grid_csv"], "--out", s_out) == 0
        assert run("explain", "--model", t_out / "model.json",
                   "--data", pipeline["station_csv"], "--out", x_out,
                   "--n-shuffles", "2", "--pdp-grid", "5", "--seed", "4") == 0
        assert run("tune", "--config", tune_config, "--data", pipeline["station_csv"],
                   "--out", u_out, "--split", "3,1,1", "--seed", "8") == 0
        outputs.append((t_out, p_out, e_out, g_out, s_out, x_out, u_out))
    for da, db in zip(*outputs):
        files_a = sorted(f.name for f in da.iterdir())
        files_b = sorted(f.name for f in db.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (da / name).read_bytes() == (db / name).read_bytes(), name
