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
from gustuq.errors import DegenerateInputWarning

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
    # 6 validation rows: too few for 20 spread-skill bins and the top discard fractions
    with pytest.warns(DegenerateInputWarning, match="spread-skill bins|discard fraction"):
        assert _run(_argv("train", files, root / "train"))[0] == 0
    for command in ("predict", "predict_grid"):
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


# a mutated input may be degenerate, so its warnings are expected
@pytest.mark.filterwarnings("ignore::gustuq.errors.DegenerateInputWarning",
                            "ignore::gustuq.errors.CalibrationWarning")
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


# One changed line of a file past csv's field limit of 128 KB: its index,
# the change, and the file line the refusal names (None where it names none).
LARGE_FILE_CHANGES = {
    "quote in the header": (0, lambda line: line + ',"', 1),
    "quote opening a field": (1, lambda line: line.replace(",", ',"', 1), 2),
    # csv rejects a NUL before Python 3.11; from 3.11 on the timestamp parse does
    "NUL in a row": (8300, lambda line: line.replace(",", ",\0", 1), 8301),
    # within the first 8 KiB of text, which predict decodes to read the header
    "byte outside UTF-8": (5, lambda line: line.replace(",", ",\udcff", 1), None),
    # no quote, so a forked worker reads this row where two CPUs are usable
    "field past the limit": (8300, lambda line: "x" * (1 << 18) + line, 8301),
}


@pytest.fixture(scope="module")
def large_station_lines(fixtures, tmp_path_factory):
    """The lines of a station file of 8,400 rows (1.9 MB) in 5 storms that
    ``predict`` reads: past csv's field limit, and two row ranges where two
    CPUs are usable."""
    root = tmp_path_factory.mktemp("large")
    files = dict(fixtures, **{"stations.csv": root / "stations.csv"})
    write_station_file(files["stations.csv"], n_storms=5, n_stations=40, n_hours=42, seed=3)
    assert _run(_argv("predict", files, root / "out"))[0] == 0
    return files["stations.csv"].read_bytes().decode("utf-8").split("\r\n")


@pytest.mark.parametrize("command", ["train", "predict"])
@pytest.mark.parametrize("change", LARGE_FILE_CHANGES)
def test_unreadable_record_in_a_large_file_exits_2(
    fixtures, large_station_lines, tmp_path, command, change
):
    index, edit, line = LARGE_FILE_CHANGES[change]
    lines = list(large_station_lines)
    lines[index] = edit(lines[index])
    files = dict(fixtures, **{"stations.csv": tmp_path / "stations.csv"})
    files["stations.csv"].write_text("\r\n".join(lines), encoding="utf-8",
                                     errors="surrogateescape", newline="")
    code, err = _run(_argv(command, files, tmp_path / "out"))
    assert code == 2 and err.count("\n") == 1, err
    assert err.startswith(f"ingest-error: {files['stations.csv']}: "), err
    assert line is None or f"line {line}: " in err, err
