"""Every command refuses a mutated input with exit 2, or runs it (exit 0),
and never fails with exit 3: one cell, a header name, a whole column, a
truncation or one ``model.json`` field is changed in a tiny fixture, and the
command that reads that file runs in-process through ``cli.main``."""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gustuq.cli import main

from synth import write_grid_file, write_station_file

TOKENS = [
    "", " ", "nan", "NaN", "inf", "-inf", "+inf", "1e400", "-1e400", "1_0", "0", "-1",
    "١٢",  # Arabic-Indic digits: int() and float() read them as 12
    "３",  # a fullwidth 3
    '"', '""', 'a"b', '"a,b"', "a,b", ",", "99999999999999999999", "-99999999999999999999",
    "2020-01-01T00:00:00Z", "S00", "row", "é",
]

# JSON values a model.json field is replaced with.
FIELD_VALUES = [
    None, True, 0, -1, 1.5, 10**20, -(10**20), float("nan"), float("inf"), "", "x", [], {},
    [[]], [0], [[0.0]], {"a": 1},
]


def _argv(command: str, files: dict, out: Path) -> list[str]:
    """The command line that reads ``files``, with its output in ``out``."""
    data, grid, model = files["stations.csv"], files["grid.csv"], files["model.json"]
    commands = {
        "train": ["train", "--data", data, "--split", "3,1,1", "--hidden-neurons", "4",
                  "--max-epochs", "2", "--batch-size", "8"],
        "predict": ["predict", "--model", model, "--data", data],
        "predict_grid": ["predict", "--model", model, "--data", grid],
        "evaluate": ["evaluate", "--pred", files["predictions.csv"], "--data", data],
        "spatial": ["spatial", "--pred", files["grid_predictions.csv"], "--data", grid],
        "explain": ["explain", "--model", model, "--data", data, "--n-shuffles", "1",
                    "--pdp-grid", "2"],
    }
    return [*map(str, commands[command]), "--out", str(out)]


# (command, the file it reads that is mutated)
CASES = [
    ("train", "stations.csv"),
    ("predict", "stations.csv"),
    ("predict", "model.json"),
    ("predict_grid", "grid.csv"),
    ("predict_grid", "model.json"),
    ("evaluate", "predictions.csv"),
    ("evaluate", "stations.csv"),
    ("spatial", "grid_predictions.csv"),
    ("spatial", "grid.csv"),
    ("explain", "model.json"),
]


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    """The unmutated inputs of every case: 30 station rows, a 2 x 3 grid of
    2 hours, a 4-neuron model and its two prediction files."""
    root = tmp_path_factory.mktemp("fixtures")
    files = {"stations.csv": root / "stations.csv", "grid.csv": root / "grid.csv"}
    write_station_file(files["stations.csv"], n_storms=5, n_stations=2, n_hours=3, seed=3)
    write_grid_file(files["grid.csv"], n_storms=1, n_rows=2, n_cols=3, n_hours=2, seed=3)
    files["model.json"] = root / "train" / "model.json"
    files["predictions.csv"] = root / "predict" / "predictions.csv"
    files["grid_predictions.csv"] = root / "predict_grid" / "grid_predictions.csv"
    for command in ("train", "predict", "predict_grid"):
        assert _run(_argv(command, files, root / command))[0] == 0
    return files


def _mutate(text: str, name: str, kind: str, draw) -> str:
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    if name == "model.json":
        return _mutate_model(text, draw)
    return _mutate_csv(text, kind, draw)


def _mutate_csv(text: str, kind: str, draw) -> str:
    rows = list(csv.reader(io.StringIO(text, newline="")))
    column = draw(st.integers(0, len(rows[0]) - 1))
    token = draw(st.sampled_from(TOKENS))
    if kind == "header":
        rows[0][column] = token
    elif kind == "cell":
        rows[draw(st.integers(1, len(rows) - 1))][column] = token
    else:  # a whole column
        for row in rows[1:]:
            row[column] = token
    # joined as is: a token holding a comma or a quote changes the row's fields
    return "".join(",".join(row) + "\r\n" for row in rows)


def _fields(value, path=()):
    """The path of every field of a JSON document, containers included."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) \
        if isinstance(value, list) else ()
    for key, item in items:
        yield from _fields(item, (*path, key))


def _mutate_model(text: str, draw) -> str:
    model = json.loads(text)
    # list entries past the second are left out, so that the 11 feature names
    # do not crowd out the other fields
    paths = [p for p in _fields(model) if not any(type(k) is int and k > 1 for k in p)]
    path = draw(st.sampled_from(paths[1:]))
    *parent, last = path
    holder = model
    for key in parent:
        holder = holder[key]
    if type(last) is str and draw(st.booleans()):
        del holder[last]
    else:
        holder[last] = draw(st.sampled_from(FIELD_VALUES))
    return json.dumps(model)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=st.sampled_from(CASES),
       kind=st.sampled_from(["cell", "header", "column", "truncate"]), data=st.data())
def test_mutated_input_exits_0_or_2(fixtures, case, kind, data):
    command, name = case
    with tempfile.TemporaryDirectory() as tmp:
        files = dict(fixtures)
        files[name] = Path(tmp) / name
        text = fixtures[name].read_bytes().decode("utf-8")
        files[name].write_text(_mutate(text, name, kind, data.draw), encoding="utf-8",
                               newline="")
        code, err = _run(_argv(command, files, Path(tmp) / "out"))
    assert code in (0, 2), err
    assert code == 0 or err.count("\n") == 1, err
