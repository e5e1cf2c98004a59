import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gustuq import data
from gustuq.data import (
    BLOCK_ROWS,
    FEATURE_NAMES,
    Dataset,
    Standardizer,
    chronological_split,
    cross_validation_folds,
    day_of_year_cos,
    derive_hourly_gusts,
    filter_bounding_box,
    load_grid_csv,
    load_station_csv,
    parse_timestamp,
    wind_direction_components,
    write_station_csv,
)
from gustuq.errors import DegenerateInputWarning, IngestError, UsageError

from synth import RAW_HEADER, grid_rows, station_rows, write_grid_file, write_station_file


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


def test_round_trip_is_bitwise(tmp_path, station_file):
    ds = load_station_csv(station_file)
    # reconstruct the raw columns from the source file for re-writing
    import csv

    with open(station_file, newline="") as fh:
        reader = csv.DictReader(fh)
        raw = np.array(
            [[float(row[c]) for c in data.RAW_FEATURE_COLUMNS] for row in reader]
        )
    out = tmp_path / "rewritten.csv"
    write_station_csv(ds, out, raw_features=raw)
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
        (7, "gust_obs must be finite and >= 0, got -2.0"),
        (BLOCK_ROWS + 102, "wind_dir_deg 400.0 outside [0, 360]"),
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
        features=data._derive_features(raw, timestamps),
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
    write_station_csv(ds, path, raw_features=raw)
    back = load_station_csv(path, require_target=False)
    assert len(back) == n
    assert back.storm_ids.tolist() == ds.storm_ids.tolist()
    assert back.station_ids.tolist() == ds.station_ids.tolist()
    assert np.array_equal(back.timestamps, ds.timestamps)
    assert np.array_equal(back.lats, ds.lats) and np.array_equal(back.lons, ds.lons)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.gust, ds.gust, equal_nan=True)
    again = path.with_name("again.csv")
    write_station_csv(back, again, raw_features=raw)
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


def test_cross_validation_folds():
    storms = [f"S{i:02d}" for i in range(50)]
    folds = cross_validation_folds(storms, n_folds=5)
    assert len(folds) == 5
    all_val = []
    for train, val in folds:
        assert len(val) == 10
        assert len(train) == 40
        assert set(train).isdisjoint(val)
        all_val.extend(val)
    assert sorted(all_val) == storms


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


def test_standardizer_unfitted_is_usage_error():
    with pytest.raises(UsageError):
        Standardizer().apply(np.ones((2, 2)))


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


def test_derive_hourly_gusts():
    base = np.datetime64("2020-03-01T04:50:00", "s")
    times = np.array(
        [base, base + np.timedelta64(300, "s"), base + np.timedelta64(600, "s"),
         base + np.timedelta64(900, "s")],  # 04:50, 04:55, 05:00, 05:05
        dtype="datetime64[s]",
    )
    gusts = np.array([3.0, 7.0, 5.0, 99.0])
    hours, values = derive_hourly_gusts(times, gusts)
    assert hours.tolist() == [np.datetime64("2020-03-01T05:00:00", "s")]
    assert values[0] == 7.0  # max of the 04:50/04:55/05:00 readings; 05:05 ignored


def test_filter_bounding_box(station_file):
    ds = load_station_csv(station_file)
    boxed = filter_bounding_box(ds, 40.9, 41.2, -73.5, -72.5)
    assert len(boxed) > 0
    assert np.all(boxed.lats >= 40.9) and np.all(boxed.lats <= 41.2)


def test_parse_timestamp_variants():
    want = np.datetime64("2020-09-30T06:00:00", "s")
    assert parse_timestamp("2020-09-30T06:00:00Z") == want
    assert parse_timestamp("2020-09-30 06:00:00") == want
    with pytest.raises(ValueError):
        parse_timestamp("not-a-time")
