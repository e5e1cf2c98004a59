import csv
import functools
import os
import re
import tracemalloc
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gustuq import cli, data, parallel
from gustuq.data import (
    BLOCK_ROWS,
    FEATURE_NAMES,
    RANGE_ROWS,
    Dataset,
    Standardizer,
    chronological_split,
    day_of_year_cos,
    load_features_csv,
    load_grid_csv,
    load_station_csv,
    parse_timestamp,
    wind_direction_components,
)
from gustuq.errors import DegenerateInputWarning, IngestError, UsageError, WorkerDied
from gustuq.fileio import write_csv
from gustuq.tune import TRIALS_LOG_COLUMNS, load_trials_log

from markers import needs_two_cpus
from synth import (
    GRID_HEADER,
    RAW_HEADER,
    grid_rows,
    station_rows,
    write_grid_file,
    write_station_file,
)


def write_station_dataset(path, dataset, raw) -> None:
    """A station file of ``dataset`` and its [n x 9] raw feature columns
    ``raw`` (the derived features cannot be inverted back to wind direction
    degrees); a NaN gust is a blank cell."""
    gust = np.full(len(dataset), np.nan) if dataset.gust is None else dataset.gust
    write_csv(path, RAW_HEADER, dataset.storm_ids, dataset.timestamps, dataset.station_ids,
              dataset.lats, dataset.lons, *np.asarray(raw, dtype=float).T,
              np.ma.masked_invalid(gust))


@pytest.fixture
def station_file(tmp_path):
    path = tmp_path / "stations.csv"
    write_station_file(path, n_storms=4, n_stations=3, n_hours=6, seed=3)
    return path


# ---------------------------------------------------------------------------
# ingestion


def test_load_station_csv(station_file):
    ds = load_station_csv(station_file)
    assert len(ds) == 4 * 3 * 6
    assert ds.features.shape == (len(ds), len(FEATURE_NAMES))
    assert np.all(np.isfinite(ds.features))
    assert np.all(ds.gust >= 0)


def test_empty_file_with_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(",".join(RAW_HEADER) + "\n")
    ds = load_station_csv(path)
    assert len(ds) == 0


def test_negative_gust_rejected_with_line_number(tmp_path):
    rows = station_rows(n_storms=1, n_stations=1, n_hours=3)
    rows[1][-1] = "-1.0"
    path = tmp_path / "bad.csv"
    write_station_file(path, rows=rows)
    with pytest.raises(IngestError, match="line 3"):
        load_station_csv(path)


def test_unknown_column_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(RAW_HEADER + ["bogus"]) + "\n")
    with pytest.raises(IngestError, match="unknown column"):
        load_station_csv(path)


def test_repeated_column_rejected_naming_file_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RAW_HEADER + ["lat"])
        writer.writerows([*row, "0.0"] for row in station_rows(n_storms=1, n_stations=1))
    with pytest.raises(IngestError) as refused:
        load_station_csv(path)
    assert str(refused.value) == f"{path}: repeated column names lat"


def test_repeated_column_rejected_where_other_columns_may_be_present(tmp_path):
    # the last of the two would win: the mean read back would be 99.0
    path = tmp_path / "pred.csv"
    path.write_text("station_id,mean,total_sd,mean\r\nS00,1.0,0.5,99.0\r\n")
    with pytest.raises(IngestError) as refused:
        data.read_csv(path, {"station_id": data.id_column, "mean": data.float_column},
                      exact=False)
    assert str(refused.value) == f"{path}: repeated column names mean"


def test_missing_column_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(RAW_HEADER[:-2]) + "\n")
    with pytest.raises(IngestError, match="missing required"):
        load_station_csv(path)


def test_first_ten_offenders_reported(tmp_path):
    rows = station_rows(n_storms=1, n_stations=2, n_hours=10)
    for row in rows[:15]:
        row[5] = "not-a-number"
    path = tmp_path / "bad.csv"
    write_station_file(path, rows=rows)
    with pytest.raises(IngestError) as err:
        load_station_csv(path)
    assert len(err.value.row_errors) == 15
    assert "line 2" in str(err.value)
    assert str(err.value).count("line") == 10  # only the first 10 carry detail


def test_short_row_reported_as_ingest_error(tmp_path):
    rows = station_rows(n_storms=1, n_stations=1, n_hours=3)
    rows[1] = rows[1][:6]  # truncated row: DictReader fills None
    path = tmp_path / "short.csv"
    write_station_file(path, rows=rows)
    with pytest.raises(IngestError, match="line 3"):
        load_station_csv(path)


def test_missing_target_only_in_inference_mode(tmp_path):
    rows = station_rows(n_storms=1, n_stations=1, n_hours=3)
    rows[0][-1] = ""
    path = tmp_path / "mixed.csv"
    write_station_file(path, rows=rows)
    with pytest.raises(IngestError):
        load_station_csv(path, require_target=True)
    ds = load_station_csv(path, require_target=False)
    assert np.isnan(ds.gust[0]) and np.isfinite(ds.gust[1])


def test_storm_window_enforced(tmp_path):
    rows = station_rows(n_storms=1, n_stations=1, n_hours=3)
    rows[2][1] = "2020-01-05T00:00:00Z"  # 4 days after the storm start
    path = tmp_path / "long.csv"
    write_station_file(path, rows=rows)
    with pytest.raises(IngestError, match="48"):
        load_station_csv(path)


def test_storm_window_names_first_long_storm(tmp_path):
    rows = station_rows(n_storms=3, n_stations=2, n_hours=3)
    storms = sorted({r[0] for r in rows})
    for day, storm in enumerate(storms[1:]):  # stretch the last two storms
        next(r for r in rows if r[0] == storm)[1] = f"2021-06-0{day + 1}T00:00:00Z"
    path = tmp_path / "long.csv"
    write_station_file(path, rows=rows)
    with pytest.raises(IngestError, match=f"storm {storms[1]} spans more than 48 hours"):
        load_station_csv(path)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["S1", "S10", "S2", "a"]),
                          st.integers(-10**6, 10**6)), min_size=0, max_size=60))
def test_storm_start_times_match_row_loop(cells):
    ids = np.array([c[0] for c in cells], dtype=str)
    times = np.array([c[1] for c in cells], dtype=np.int64).view("datetime64[s]")
    ds = Dataset(storm_ids=ids, timestamps=times, lats=np.zeros(len(ids)),
                 lons=np.zeros(len(ids)), features=np.zeros((len(ids), len(FEATURE_NAMES))))
    want = {}
    for sid, ts in zip(ids.tolist(), times):
        if sid not in want or ts < want[sid]:
            want[sid] = ts
    got = ds.storm_start_times()
    assert got == want
    assert all(v.dtype == np.dtype("datetime64[s]") for v in got.values())


def test_round_trip_is_bitwise(tmp_path, station_file):
    ds = load_station_csv(station_file)
    # reconstruct the raw columns from the source file for re-writing
    with open(station_file, newline="") as fh:
        reader = csv.DictReader(fh)
        raw = np.array(
            [[float(row[c]) for c in data.RAW_FEATURE_COLUMNS] for row in reader]
        )
    out = tmp_path / "rewritten.csv"
    write_station_dataset(out, ds, raw)
    ds2 = load_station_csv(out)
    assert np.array_equal(ds.features, ds2.features)
    assert np.array_equal(ds.gust, ds2.gust)
    assert np.array_equal(ds.timestamps, ds2.timestamps)
    assert ds.storm_ids.tolist() == ds2.storm_ids.tolist()
    assert ds.station_ids.tolist() == ds2.station_ids.tolist()


def test_very_short_row_reported_as_ingest_error(tmp_path):
    rows = station_rows(n_storms=1, n_stations=1, n_hours=3)
    rows[2] = rows[2][:1]  # only storm_id left
    path = tmp_path / "short.csv"
    write_station_file(path, rows=rows)
    with pytest.raises(IngestError, match="line 4: missing fields"):
        load_station_csv(path)


@pytest.mark.parametrize("require_target", [True, False], ids=["training", "inference"])
@pytest.mark.parametrize("edit, reason", [
    (lambda row: row[:-1], "missing fields"),  # the gust_obs field is gone
    (lambda row: [*row, "7.5"], "extra fields"),
], ids=["short", "long"])
def test_row_width_must_match_header(tmp_path, require_target, edit, reason):
    rows = station_rows(n_storms=1, n_stations=2, n_hours=3)
    rows[2] = edit(rows[2])
    path = tmp_path / "width.csv"
    write_station_file(path, rows=rows)
    with pytest.raises(IngestError) as err:
        load_station_csv(path, require_target=require_target)
    assert err.value.row_errors == [(4, reason)]
    assert f"[line 4: {reason}]" in str(err.value)


def test_wrong_width_rows_reported_with_bad_cells(tmp_path):
    rows = station_rows(n_storms=10, n_stations=20, n_hours=24)  # 4,800 rows
    rows[1].append("")
    rows[3][3] = "north"
    rows[BLOCK_ROWS + 7] = rows[BLOCK_ROWS + 7][:5]
    path = tmp_path / "width.csv"
    write_station_file(path, rows=rows)
    with pytest.raises(IngestError) as err:
        load_features_csv(path)
    assert err.value.row_errors == [
        (3, "extra fields"),
        (5, "lat: could not convert string to float: 'north'"),
        (BLOCK_ROWS + 9, "missing fields"),
    ]


def test_bad_rows_in_later_blocks_report_their_lines(tmp_path):
    rows = station_rows(n_storms=10, n_stations=20, n_hours=24)  # 4,800 rows
    assert BLOCK_ROWS + 200 < len(rows)
    rows[5][-1] = "-2.0"
    rows[BLOCK_ROWS + 100][10] = "400.0"
    path = tmp_path / "bad.csv"
    write_station_file(path, rows=rows)
    with pytest.raises(IngestError) as err:
        load_station_csv(path)
    assert err.value.row_errors == [
        (7, "gust_obs: must be finite and >= 0, got -2.0"),
        (BLOCK_ROWS + 102, "wind_dir_deg: 400.0 outside [0, 360]"),
    ]


def test_duplicate_station_key_rejected(tmp_path):
    rows = station_rows(n_storms=5, n_stations=3, n_hours=8)  # 120 rows
    rows.append(list(rows[10]))
    path = tmp_path / "dup.csv"
    write_station_file(path, rows=rows)
    with pytest.raises(IngestError, match="line 122: same key as line 12") as err:
        load_station_csv(path)
    assert "(station_id, timestamp_utc)" in str(err.value)
    assert len(err.value.row_errors) == 1


def test_duplicate_grid_cell_rejected(tmp_path):
    rows = grid_rows(n_storms=1, n_rows=4, n_cols=5, n_hours=3)
    hot = list(rows[7])
    hot[6] = "500.0"  # a WS_10m that would become the storm maximum
    rows.append(hot)
    path = tmp_path / "dup.csv"
    write_grid_file(path, rows=rows)
    with pytest.raises(IngestError, match="line 62: same key as line 9"):
        load_grid_csv(path)


def test_every_duplicate_named_once(tmp_path):
    rows = station_rows(n_storms=1, n_stations=2, n_hours=10)
    rows += [list(r) for r in rows[:12]]  # lines 22-33 repeat lines 2-13
    path = tmp_path / "dup.csv"
    write_station_file(path, rows=rows)
    with pytest.raises(IngestError) as err:
        load_station_csv(path)
    assert err.value.row_errors == [(22 + k, f"same key as line {2 + k}") for k in range(12)]
    assert str(err.value).count(": same key") == 10  # only the first 10 carry detail


def write_lines(path, lines: list[str]) -> None:
    path.write_bytes("".join(line + "\r\n" for line in lines).encode())


@pytest.mark.parametrize("above", ["blank line", "two-line quoted field"])
@pytest.mark.parametrize("problem", ["bad row", "duplicate"])
def test_line_numbers_count_every_line_of_the_file(tmp_path, above, problem):
    rows = station_rows(n_storms=1, n_stations=2, n_hours=4)
    if problem == "bad row":
        rows[2][RAW_HEADER.index("WS_10m")] = "fast"
    else:
        rows.append(list(rows[3]))
    lines = [",".join(RAW_HEADER), *(",".join(r) for r in rows)]
    if above == "blank line":
        lines.insert(2, "")  # line 3
    else:  # the first row's station id holds a line break: lines 2 and 3
        lines[1] = lines[1].replace(",ST00,", ',"ST\n00",')
    path = tmp_path / "stations.csv"
    write_lines(path, lines)
    # row i >= 1 is on line i + 3
    want = ((5, "WS_10m: could not convert string to float: 'fast'") if problem == "bad row"
            else (11, "same key as line 6"))
    with pytest.raises(IngestError) as err:
        load_station_csv(path)
    assert err.value.row_errors == [want]


@contextmanager
def one_cpu():
    """Run the block on this process's first available CPU alone."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def test_grid_ingest_peak_stays_near_the_arrays_it_returns(tmp_path):
    # 24,000 rows: the read holds one block of text and one copy of each
    # column, and the features are written into one matrix, so the traced
    # peak is about 1.53 times the arrays returned
    path = tmp_path / "grid.csv"
    write_grid_file(path, n_storms=2, n_rows=20, n_cols=25, n_hours=24)
    with one_cpu():
        tracemalloc.start()
        try:
            ds = load_grid_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert len(ds) == 24_000
    returned = sum(a.nbytes for a in vars(ds).values() if a is not None)
    assert peak < 1.8 * returned


@pytest.mark.parametrize("problem", ["bad rows", "duplicate"])
def test_problems_in_the_last_piece_read_as_on_one_cpu(tmp_path, problem):
    rows = [list(r) for r in _three_block_rows()]
    if problem == "bad rows":
        rows[10][3] = "91"  # lat, in the first piece
        rows[-600][RAW_HEADER.index("WS_10m")] = "fast"
        rows[-1][-1] = "-1"
    else:
        rows.append(list(rows[5]))
    path = tmp_path / "stations.csv"
    write_station_file(path, rows=rows)
    assert len(parallel.cut(len(rows), RANGE_ROWS)) == min(parallel.available_cpus(), 2) + 1
    with pytest.raises(IngestError) as split:
        load_station_csv(path)
    with one_cpu(), pytest.raises(IngestError) as whole:
        load_station_csv(path)
    assert str(split.value) == str(whole.value)
    assert split.value.row_errors == whole.value.row_errors
    assert split.value.row_errors[-1] == (
        (len(rows) + 1, "gust_obs: must be finite and >= 0, got -1.0") if problem == "bad rows"
        else (len(rows) + 1, "same key as line 7"))


def read_ids(path, id_kind):
    return data.read_csv(path, {"station_id": id_kind}, exact=False)


@needs_two_cpus
def test_dead_read_worker_is_one_line_error_and_leaves_nothing(tmp_path):
    path = tmp_path / "stations.csv"
    write_station_file(path, rows=_three_block_rows())
    caller = os.getpid()

    def dying(texts):
        if os.getpid() != caller:
            os._exit(1)
        return data.id_column(texts)

    with pytest.raises(WorkerDied) as err:
        read_ids(path, dying)
    assert str(err.value) == f"{path}: a worker process died"
    assert list(tmp_path.iterdir()) == [path]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(read_ids(path, data.id_column)["station_id"]) == len(_three_block_rows())


@needs_two_cpus
def test_failing_caller_piece_leaves_no_worker(tmp_path):
    path = tmp_path / "stations.csv"
    write_station_file(path, rows=_three_block_rows())
    caller = os.getpid()

    def failing(texts):
        if os.getpid() == caller:
            raise RuntimeError("the caller's piece failed")
        return data.id_column(texts)

    with pytest.raises(RuntimeError, match="the caller's piece failed"):
        read_ids(path, failing)
    assert list(tmp_path.iterdir()) == [path]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def outcome(path):
    """What loading ``path`` gives: its rows, or its ingest error."""
    try:
        ds = load_station_csv(path)
    except IngestError as err:
        return str(err), err.row_errors
    return ds.station_ids.tolist(), ds.features.tobytes()


@pytest.mark.parametrize("station_id", ['"quoted, id"', "lone\rbreak"])
def test_file_whose_lines_may_not_be_rows_reads_as_on_one_cpu(tmp_path, station_id):
    rows = [list(r) for r in _three_block_rows()]
    rows[-2][2] = station_id  # near the end, in the last piece
    path = tmp_path / "stations.csv"
    write_lines(path, [",".join(RAW_HEADER), *(",".join(r) for r in rows)])
    assert data._line_starts(path, 256) is None
    split = outcome(path)
    with one_cpu():
        assert outcome(path) == split


def test_file_that_is_not_utf8_is_ingest_error_at_any_cpu_count(tmp_path):
    path = tmp_path / "stations.csv"
    write_station_file(path, rows=_three_block_rows())
    raw = bytearray(path.read_bytes())
    raw[-5000] = 0xFF  # in the last piece
    path.write_bytes(bytes(raw))
    split = outcome(path)
    with one_cpu():
        assert outcome(path) == split
    assert split == (f"{path}: not UTF-8 text (invalid start byte)", [])


# One malformed cell per case: the file it goes in, its column, its text (None
# cuts the row short there) and the exact reason reported for line 4.
MALFORMED_CELLS = [
    ("station", "storm_id", " ", "storm_id: empty value"),
    ("station", "timestamp_utc", "2020-02-30T00:00:00Z",
     "timestamp_utc: invalid timestamp '2020-02-30T00:00:00Z'"),
    ("station", "station_id", "", "station_id: empty value"),
    ("station", "lat", "x", "lat: could not convert string to float: 'x'"),
    ("station", "WS_10m", "inf", "WS_10m: must be finite, got inf"),
    ("station", "PBLH", "nan", "PBLH: must be finite, got nan"),
    ("station", "wind_dir_deg", "361", "wind_dir_deg: 361.0 outside [0, 360]"),
    ("station", "gust_obs", "-1", "gust_obs: must be finite and >= 0, got -1.0"),
    ("station", "gust_obs", "nan", "gust_obs: must be finite and >= 0, got nan"),
    ("station", "gust_obs", "", "gust_obs: missing value"),
    ("station", "Ustar", None, "missing fields"),
    ("grid", "row", "-1", "row: must be >= 0, got -1"),
    ("grid", "col", "1.5", "col: invalid literal for int() with base 10: '1.5'"),
    ("grid", "lon", "", "lon: could not convert string to float: ''"),
    ("grid", "wind_dir_deg", "-0.5", "wind_dir_deg: -0.5 outside [0, 360]"),
    ("evaluate", "station_id", " ", "station_id: empty value"),
    ("evaluate", "timestamp_utc", "soon", "timestamp_utc: invalid timestamp 'soon'"),
    ("evaluate", "total_sd", "x", "total_sd: could not convert string to float: 'x'"),
    ("trials", "status", "x", "status: must be ok or failed, got 'x'"),
    ("trials", "hidden_layers", "2.0",
     "hidden_layers: invalid literal for int() with base 10: '2.0'"),
    ("station", "lat", "nan", "lat: must be finite, got nan"),
    ("station", "lon", "inf", "lon: must be finite, got inf"),
    ("station", "lat", "90.5", "lat: 90.5 outside [-90, 90]"),
    ("grid", "lat", "-inf", "lat: must be finite, got -inf"),
    ("grid", "lat", "-91", "lat: -91.0 outside [-90, 90]"),
    ("grid", "lon", "nan", "lon: must be finite, got nan"),
    ("station", "timestamp_utc", "2020-01-01T00:00:00.5Z",
     "timestamp_utc: invalid timestamp '2020-01-01T00:00:00.5Z'"),
    ("grid", "row", "99999999999999999999", "row: outside the 64-bit integer range"),
    ("grid", "col", "-99999999999999999999", "col: outside the 64-bit integer range"),
    ("trials", "trial_id", "99999999999999999999", "trial_id: outside the 64-bit integer range"),
    ("trials", "n_epochs", "99999999999999999999", "n_epochs: outside the 64-bit integer range"),
]


def _evaluate(pred_path, obs_path, out):
    argv = ["evaluate", "--pred", str(pred_path), "--data", str(obs_path), "--out", str(out)]
    args = cli.build_parser().parse_args(argv)
    cli.cmd_evaluate(cli.merge_options(args, cli.COMMANDS["evaluate"][1]))


@pytest.mark.parametrize("schema, column, text, reason", MALFORMED_CELLS,
                         ids=[f"{case[0]}-{case[1]}-{i}" for i, case in enumerate(MALFORMED_CELLS)])
def test_malformed_cell_reports_line_and_column(tmp_path, schema, column, text, reason):
    if schema == "station":
        header, load = RAW_HEADER, load_station_csv
        rows = station_rows(n_storms=1, n_stations=2, n_hours=3)
    elif schema == "grid":
        header, load = GRID_HEADER, load_grid_csv
        rows = grid_rows(n_storms=1, n_rows=2, n_cols=3, n_hours=1)
    elif schema == "evaluate":
        header = ["station_id", "timestamp_utc", "mean", "aleatoric_sd", "epistemic_sd", "total_sd"]
        rows = [[r[2], r[1], "9.0", "1.0", "0.5", repr(1.25 ** 0.5)]
                for r in station_rows(n_storms=1, n_stations=2, n_hours=3)]
        obs = tmp_path / "stations.csv"
        write_station_file(obs, n_storms=1, n_stations=2, n_hours=3)
        load = lambda path: _evaluate(path, obs, tmp_path / "eval")
    else:
        header = TRIALS_LOG_COLUMNS
        rows = [[k, "0.001", "0.1", "1", "8", "32", "0.1", "1e-06", "1e-06", "1.5", "0.5", "0.25",
                 "3", "ok"] for k in range(6)]
        load = load_trials_log
    at = header.index(column)
    rows[2] = rows[2][:at] if text is None else [*rows[2][:at], text, *rows[2][at + 1:]]
    path = tmp_path / f"{schema}.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    with pytest.raises(IngestError) as err:
        load(path)
    assert err.value.row_errors == [(4, reason)]
    assert f"[line 4: {reason}]" in str(err.value)


def test_coordinate_bounds_are_inclusive(tmp_path):
    rows = station_rows(n_storms=1, n_stations=3, n_hours=1)
    for row, lat, lon in zip(rows, ["90", "-90", "-0.0"], ["-180", "359.5", "1e6"]):
        row[3:5] = lat, lon
    path = tmp_path / "poles.csv"
    write_station_file(path, rows=rows)
    ds = load_station_csv(path)
    assert ds.lats.tolist() == [90.0, -90.0, -0.0]
    assert ds.lons.tolist() == [-180.0, 359.5, 1e6]


def test_row_failing_twice_reports_first_column_in_schema_order(tmp_path):
    rows = station_rows(n_storms=1, n_stations=2, n_hours=5)
    rows[1][10], rows[1][0] = "400", ""  # wind_dir_deg, then storm_id
    rows[6][14], rows[6][3] = "-3", "north"  # gust_obs, then lat
    rows[8][12], rows[8][13] = "inf", "-inf"  # lapse_sfc_1km, lapse_sfc_2km
    path = tmp_path / "twice.csv"
    write_station_file(path, rows=rows)
    with pytest.raises(IngestError) as err:
        load_station_csv(path)
    assert err.value.row_errors == [
        (3, "storm_id: empty value"),
        (8, "lat: could not convert string to float: 'north'"),
        (10, "lapse_sfc_1km: must be finite, got inf"),
    ]


# Bad texts per station column; each fails that column's kind and no other.
BAD_TEXTS = {
    "storm_id": [" ", ""],
    "timestamp_utc": ["NaT", "2020-01-01T25:00:00Z", "", "2020-01-01T00:00:00.5Z",
                      "2020-01-01T00:00:00+01:00"],
    "station_id": ["", "  "],
    "lat": ["x", "", "nan", "-inf", "90.000001", "-1e3"],
    "lon": ["1,5", "--1", "inf", "nan"],
    **{c: ["inf", "nan", "-inf", "1e400", "one"] for c in data.RAW_FEATURE_COLUMNS},
    "wind_dir_deg": ["361", "-1e-9", "nan", "x"],
    "gust_obs": ["-1", "-1e-300", "nan", "inf", "", "?"],
}


@functools.cache
def _three_block_rows():
    return station_rows(n_storms=10, n_stations=20, n_hours=48)  # 9,600 rows


@settings(max_examples=12, deadline=None)
@given(
    n_rows=st.integers(BLOCK_ROWS + 2, 9600),
    row=st.one_of(st.sampled_from([0, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1]),
                  st.integers(0, 9599)),
    column=st.sampled_from(RAW_HEADER),
    pick=st.integers(0, 5),
)
def test_one_corrupt_cell_is_the_one_reported(tmp_path_factory, n_rows, row, column, pick):
    rows = [list(r) for r in _three_block_rows()[:n_rows]]
    row = min(row, n_rows - 1)
    texts = BAD_TEXTS[column]
    rows[row][RAW_HEADER.index(column)] = texts[pick % len(texts)]
    path = tmp_path_factory.mktemp("corrupt") / "stations.csv"
    write_station_file(path, rows=rows)
    with pytest.raises(IngestError) as err:
        load_station_csv(path)
    [(line, reason)] = err.value.row_errors
    assert line == row + 2
    assert reason.startswith(f"{column}: ")


def synthetic_stations(n: int, seed: int) -> tuple[Dataset, np.ndarray]:
    """n station rows, 50 stations per hour, storms of 24 hours, raw features
    with full float precision and some missing gusts."""
    rng = np.random.default_rng(seed)
    hour = np.arange(n) // 50
    timestamps = np.datetime64("2020-03-01T00:00:00", "s") + hour.astype("timedelta64[h]")
    raw = rng.uniform(-5.0, 30.0, size=(n, len(data.RAW_FEATURE_COLUMNS)))
    raw[:, 5] = rng.uniform(0.0, 360.0, size=n)
    gust = np.where(rng.uniform(size=n) < 0.1, np.nan, rng.uniform(0.0, 40.0, size=n))
    ds = Dataset(
        storm_ids=np.array([f"S{h // 24:02d}" for h in hour], dtype=str),
        timestamps=timestamps,
        lats=rng.uniform(40.0, 43.0, size=n),
        lons=rng.uniform(-75.0, -71.0, size=n),
        features=data._derive_features(raw.T, timestamps),
        gust=gust,
        station_ids=np.array([f"ST{i % 50:02d}" for i in range(n)], dtype=str),
    )
    return ds, raw


@given(
    n=st.sampled_from([0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=10, deadline=None)
def test_ingest_round_trip_across_block_sizes(tmp_path_factory, n, seed):
    ds, raw = synthetic_stations(n, seed)
    path = tmp_path_factory.mktemp("rt") / "stations.csv"
    write_station_dataset(path, ds, raw)
    back = load_station_csv(path, require_target=False)
    assert len(back) == n
    assert back.storm_ids.tolist() == ds.storm_ids.tolist()
    assert back.station_ids.tolist() == ds.station_ids.tolist()
    assert np.array_equal(back.timestamps, ds.timestamps)
    assert np.array_equal(back.lats, ds.lats) and np.array_equal(back.lons, ds.lons)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.gust, ds.gust, equal_nan=True)
    again = path.with_name("again.csv")
    write_station_dataset(again, back, raw)
    assert again.read_bytes() == path.read_bytes()


# ---------------------------------------------------------------------------
# cyclical encodings


def test_day_of_year_cos_first_day():
    assert day_of_year_cos(np.array(["2020-01-01T00:00:00"], dtype="datetime64[s]"))[0] == 1.0


def test_day_of_year_cos_midyear():
    # t = 1 + 365/2 = 183.5 is not an integer day; day 183 sits closest to -1
    v = day_of_year_cos(np.array(["2021-07-02T00:00:00"], dtype="datetime64[s]"))
    assert v[0] == pytest.approx(-1.0, abs=1e-3)


def test_day_of_year_cos_leap_day_366():
    v = day_of_year_cos(np.array(["2020-12-31T00:00:00"], dtype="datetime64[s]"))
    # day 366 evaluates the same formula with denominator 365
    assert v[0] == pytest.approx(np.cos(2 * np.pi * 365 / 365), abs=1e-12)


def test_day_of_year_in_unit_interval():
    ts = np.arange(
        np.datetime64("2017-01-01"), np.datetime64("2022-01-01"), np.timedelta64(13, "D")
    ).astype("datetime64[s]")
    v = day_of_year_cos(ts)
    assert np.all(v >= -1.0) and np.all(v <= 1.0)


def test_wind_direction_components():
    s, c = wind_direction_components(np.array([0.0, 90.0, 180.0, 270.0]))
    np.testing.assert_allclose(s, [0.0, 1.0, 0.0, -1.0], atol=1e-15)
    np.testing.assert_allclose(c, [1.0, 0.0, -1.0, 0.0], atol=1e-15)


def test_wind_direction_unit_norm():
    rng = np.random.default_rng(0)
    s, c = wind_direction_components(rng.uniform(0, 360, 500))
    np.testing.assert_allclose(s**2 + c**2, 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# splits


def test_chronological_split_three_storms(station_file):
    ds = load_station_csv(station_file)
    # restrict to three storms
    keep = np.isin(ds.storm_ids, ["S00", "S01", "S02"])
    ds3 = ds.subset(keep)
    spec, train, val, test = chronological_split(ds3, 1, 1, 1)
    assert spec.train_storms == ["S00"]
    assert spec.val_storms == ["S01"]
    assert spec.test_storms == ["S02"]
    assert set(train.storm_ids) == {"S00"}
    assert set(val.storm_ids) == {"S01"}
    assert set(test.storm_ids) == {"S02"}


def test_split_covers_each_storm_once(station_file):
    ds = load_station_csv(station_file)
    spec, train, val, test = chronological_split(ds, 2, 1, 1)
    seen = {}
    for name, part in (("train", train), ("val", val), ("test", test)):
        for sid in set(part.storm_ids.tolist()):
            assert sid not in seen, f"storm {sid} in {seen[sid]} and {name}"
            seen[sid] = name
    assert len(seen) == 4
    assert len(train) + len(val) + len(test) == len(ds)


def test_split_counts_must_sum(station_file):
    ds = load_station_csv(station_file)
    with pytest.raises(UsageError):
        chronological_split(ds, 2, 1, 0)


def test_split_deterministic(station_file):
    ds = load_station_csv(station_file)
    spec1, *_ = chronological_split(ds, 2, 1, 1)
    spec2, *_ = chronological_split(ds, 2, 1, 1)
    assert spec1.ordered_storms == spec2.ordered_storms


# ---------------------------------------------------------------------------
# standardization


def test_standardizer_normalizes_train_set():
    rng = np.random.default_rng(1)
    x = rng.normal(5.0, 2.0, size=(10_000, 3))
    std = Standardizer.fit(x)
    z = std.apply(x)
    np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)
    fresh = std.apply(rng.normal(5.0, 2.0, size=(10_000, 3)))
    assert abs(fresh.mean()) < 0.05
    assert abs(fresh.std() - 1.0) < 0.05


def test_standardizer_constant_column_passthrough():
    x = np.column_stack([np.full(20, 7.0), np.arange(20.0)])
    with pytest.warns(DegenerateInputWarning):
        std = Standardizer.fit(x)
    z = std.apply(x)
    assert np.array_equal(z[:, 0], x[:, 0])
    assert z[:, 1].std() == pytest.approx(1.0)


def test_standardizer_constant_target_warning_names_no_feature():
    # the one-column target scale is fitted with the same class, so the
    # warning must not call its column a feature
    with pytest.warns(DegenerateInputWarning) as caught:
        std = Standardizer.fit(np.full(10, 5.0))
    assert [str(w.message) for w in caught] == ["constant columns passed through unscaled: [0]"]
    assert (std.offset.tolist(), std.scale.tolist()) == ([0.0], [1.0])


def test_standardizer_has_no_unfitted_state():
    # offset and scale are required: there is no standardizer to apply
    # before it is fitted or loaded.
    with pytest.raises(TypeError):
        Standardizer()
    with pytest.raises(TypeError):
        Standardizer(offset=np.zeros(2))


def test_standardizer_ignores_other_splits():
    rng = np.random.default_rng(2)
    train = rng.normal(size=(100, 2))
    std = Standardizer.fit(train)
    test_rows = rng.normal(size=(50, 2))
    before = std.apply(test_rows).copy()
    # perturbing test rows must not change the transform itself
    _ = std.apply(test_rows + 100.0)
    assert np.array_equal(std.apply(test_rows), before)


def test_standardizer_inverse_column():
    x = np.column_stack([np.linspace(0, 10, 50), np.linspace(-5, 5, 50)])
    std = Standardizer.fit(x)
    z = std.apply(x)
    back = std.inverse_column(1, z[:, 1])
    np.testing.assert_allclose(back, x[:, 1], atol=1e-12)


# ---------------------------------------------------------------------------
# helpers


def test_parse_timestamp_variants():
    want = np.datetime64("2020-09-30T06:00:00", "s")
    assert parse_timestamp("2020-09-30T06:00:00Z") == want
    assert parse_timestamp("2020-09-30 06:00:00") == want
    with pytest.raises(ValueError):
        parse_timestamp("not-a-time")
    # numpy would truncate a fraction, or shift an offset to UTC with a warning
    for text in ("2020-01-01T00:00:00.5Z", "2020-01-01T00:00:00.000",
                 "2020-01-01T00:00:00+01:00", "2020-01-01 00:00:00-05:00"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^invalid timestamp '{re.escape(text)}'$"):
                parse_timestamp(text)


def test_nat_timestamp_is_ingest_error(tmp_path):
    # "NaT" parses as numpy's not-a-time; it has no storm start to order by
    rows = station_rows(n_storms=2, n_stations=1, n_hours=3)
    rows[1][1] = "NaT"
    path = tmp_path / "nat.csv"
    write_station_file(path, rows=rows)
    with pytest.raises(IngestError, match="line 3: timestamp_utc: invalid timestamp 'NaT'"):
        load_station_csv(path)
