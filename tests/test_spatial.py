import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gustuq.errors import DegenerateInputWarning, DomainError, IngestError, UsageError
from gustuq.spatial import (
    MAX_CELLS_PER_ROW,
    GridField,
    StationSet,
    alignment_fraction,
    bilinear_to_stations,
    minmax_normalize,
    spatial_gradient,
    storm_cubes,
    track_spatial_max,
)


def lonlat_grid(n_lat=5, n_lon=7, lat0=40.0, lon0=-75.0, step=1.0):
    lats = lat0 + step * np.arange(n_lat)
    lons = lon0 + step * np.arange(n_lon)
    return lats, lons


def field_of(fn, lats, lons, valid=None):
    lon_grid, lat_grid = np.meshgrid(lons, lats)
    return GridField(lats=lats, lons=lons, values=fn(lat_grid, lon_grid), valid=valid)


# ---------------------------------------------------------------------------
# gradient


def test_gradient_constant_field_is_zero():
    lats, lons = lonlat_grid()
    grad = spatial_gradient(field_of(lambda la, lo: np.full_like(la, 3.3), lats, lons))
    assert np.all(grad.values[grad.valid] == 0.0)
    assert grad.valid.all()


def test_gradient_of_lon_field_interior_half():
    lats, lons = lonlat_grid()
    grad = spatial_gradient(field_of(lambda la, lo: lo, lats, lons))
    interior = grad.values[1:-1, 1:-1]
    np.testing.assert_allclose(interior, 0.5, rtol=1e-12)
    # boundary columns average 1 lon-neighbor with 2 lat-neighbors: 1/3
    np.testing.assert_allclose(grad.values[1:-1, 0], 1.0 / 3.0, rtol=1e-12)
    # corners have one lon and one lat neighbor: 1/2
    assert grad.values[0, 0] == pytest.approx(0.5)


def test_gradient_linear_in_field_scale():
    rng = np.random.default_rng(0)
    lats, lons = lonlat_grid()
    values = rng.normal(size=(5, 7))
    g1 = spatial_gradient(GridField(lats=lats, lons=lons, values=values))
    g2 = spatial_gradient(GridField(lats=lats, lons=lons, values=2.0 * values))
    np.testing.assert_allclose(g2.values, 2.0 * g1.values, rtol=1e-12)


def test_gradient_translation_invariant():
    rng = np.random.default_rng(1)
    lats, lons = lonlat_grid()
    values = rng.normal(size=(5, 7))
    g1 = spatial_gradient(GridField(lats=lats, lons=lons, values=values))
    g2 = spatial_gradient(GridField(lats=lats, lons=lons, values=values + 17.5))
    np.testing.assert_allclose(g2.values, g1.values, atol=1e-9)


def test_gradient_masked_neighborhood():
    lats, lons = lonlat_grid(3, 3)
    valid = np.ones((3, 3), dtype=bool)
    valid[0, 1] = valid[1, 0] = valid[1, 2] = valid[2, 1] = False  # isolate center
    grid = GridField(lats=lats, lons=lons, values=np.arange(9.0).reshape(3, 3), valid=valid)
    grad = spatial_gradient(grid)
    assert not grad.valid[1, 1]  # no valid neighbor left
    assert not grad.valid[0, 1]  # invalid cells stay invalid


def test_gradient_of_cube_is_gradient_of_each_hour():
    rng = np.random.default_rng(9)
    lats, lons = lonlat_grid(4, 6)
    values = rng.normal(size=(3, 4, 6))
    valid = rng.uniform(size=(3, 4, 6)) > 0.2
    cube = spatial_gradient(GridField(lats=lats, lons=lons, values=values, valid=valid))
    for k in range(3):
        hour_k = spatial_gradient(GridField(lats=lats, lons=lons, values=values[k], valid=valid[k]))
        assert np.array_equal(cube.valid[k], hour_k.valid)
        assert np.array_equal(cube.values[k], hour_k.values, equal_nan=True)


def test_gradient_requires_2x2():
    with pytest.raises(UsageError):
        spatial_gradient(GridField(lats=np.array([1.0]), lons=np.array([1.0, 2.0]),
                                   values=np.zeros((1, 2))))


# ---------------------------------------------------------------------------
# normalization


def test_minmax_endpoints():
    out = minmax_normalize(np.array([2.0, 4.0, 6.0]))
    assert out.tolist() == [0.0, 0.5, 1.0]


def test_minmax_idempotent():
    x = np.array([0.0, 0.25, 1.0])
    np.testing.assert_array_equal(minmax_normalize(x), x)


def test_minmax_constant_rejected():
    with pytest.raises(UsageError):
        minmax_normalize(np.full(5, 3.0))


def test_minmax_preserves_argmax():
    rng = np.random.default_rng(2)
    x = rng.normal(size=200)
    out = minmax_normalize(x)
    assert np.argmax(out) == np.argmax(x)
    assert np.argmin(out) == np.argmin(x)


def test_minmax_on_field_respects_mask():
    lats, lons = lonlat_grid(3, 3)
    values = np.arange(9.0).reshape(3, 3)
    valid = np.ones((3, 3), dtype=bool)
    valid[2, 2] = False  # exclude the raw maximum
    out = minmax_normalize(GridField(lats=lats, lons=lons, values=values, valid=valid))
    assert out.values[2, 1] == 1.0  # largest valid cell maps to 1
    assert np.isnan(out.values[2, 2])


# ---------------------------------------------------------------------------
# max tracking


def hour(h):
    return np.datetime64("2021-03-01T00:00:00", "s") + np.timedelta64(h * 3600, "s")


def hours(n):
    return np.array([hour(h) for h in range(n)])


def test_track_single_hot_cell():
    lats, lons = lonlat_grid(4, 4)
    values = np.zeros((3, 4, 4))
    values[:, 2, 1] = 5.0
    track = track_spatial_max(hours(3), GridField(lats=lats, lons=lons, values=values))
    assert len(track.times) == 3
    for value, row, col in zip(track.values, track.rows, track.cols):
        assert (row, col) == (2, 1)
        assert (lats[row], lons[col]) == (lats[2], lons[1])
        assert value == 5.0


def test_track_tie_breaks_row_major():
    lats, lons = lonlat_grid(3, 3)
    values = np.zeros((1, 3, 3))
    values[0, 1, 2] = 7.0
    values[0, 2, 0] = 7.0  # same max, later in row-major order
    track = track_spatial_max(hours(1), GridField(lats=lats, lons=lons, values=values))
    assert (track.rows[0], track.cols[0]) == (1, 2)


def test_track_skips_masked_hours():
    lats, lons = lonlat_grid(2, 2)
    valid = np.ones((3, 2, 2), dtype=bool)
    valid[1] = False  # hour 1 fully masked
    field = GridField(lats=lats, lons=lons, values=np.ones((3, 2, 2)), valid=valid)
    with pytest.warns(DegenerateInputWarning):
        track = track_spatial_max(hours(3), field)
    assert list(track.times) == [hour(0), hour(2)]


def test_track_needs_a_cube_and_its_hours():
    lats, lons = lonlat_grid(2, 2)
    with pytest.raises(UsageError):
        track_spatial_max(hours(1), GridField(lats=lats, lons=lons, values=np.ones((2, 2))))
    with pytest.raises(UsageError):
        track_spatial_max(hours(2), GridField(lats=lats, lons=lons, values=np.ones((3, 2, 2))))
    with pytest.raises(UsageError):
        track_spatial_max(hours(0), GridField(lats=lats, lons=lons, values=np.ones((0, 2, 2))))


def test_track_normalized_series_same_peak_hour():
    rng = np.random.default_rng(3)
    lats, lons = lonlat_grid(4, 5)
    field = GridField(lats=lats, lons=lons, values=rng.normal(size=(8, 4, 5)))
    track = track_spatial_max(hours(8), field)
    values = track.values
    norm = minmax_normalize(values)
    assert np.argmax(norm) == np.argmax(values)


# ---------------------------------------------------------------------------
# alignment


def test_alignment_identical_fields_is_one_at_zero():
    rng = np.random.default_rng(4)
    lats, lons = lonlat_grid(4, 4)
    field = GridField(lats=lats, lons=lons, values=rng.normal(size=(5, 4, 4)))
    track = track_spatial_max(hours(5), field)
    assert alignment_fraction(track, track, 0) == 1.0


def test_alignment_shifted_copy():
    rng = np.random.default_rng(5)
    lats, lons = lonlat_grid(6, 8)
    values = np.zeros((6, 6, 8))
    for h in range(6):
        values[h, 2, 1 + h % 3] = 9.0
    shifted = np.roll(values, 2, axis=2)  # argmax offset by exactly 2 columns
    track_a = track_spatial_max(hours(6), GridField(lats=lats, lons=lons, values=values))
    track_b = track_spatial_max(hours(6), GridField(lats=lats, lons=lons, values=shifted))
    assert alignment_fraction(track_a, track_b, 1) == 0.0
    assert alignment_fraction(track_a, track_b, 2) == 1.0


def test_tracks_and_alignment_match_an_hour_by_hour_loop():
    # small integer values tie often; some hours of each cube are fully masked
    rng = np.random.default_rng(6)
    lats, lons = lonlat_grid(3, 4)
    for _ in range(20):
        fields, points = [], []
        for _ in range(2):
            valid = rng.uniform(size=(6, 3, 4)) < 0.7
            valid[rng.uniform(size=6) < 0.3] = False
            fields.append(GridField(lats=lats, lons=lons, valid=valid,
                                    values=rng.integers(0, 4, size=(6, 3, 4)).astype(float)))
            points.append({
                h: divmod(int(np.argmax(np.where(valid[h], fields[-1].values[h], -np.inf))), 4)
                for h in range(6) if valid[h].any()
            })
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateInputWarning)
            tracks = [track_spatial_max(hours(6), f) for f in fields]
        for track, want in zip(tracks, points):
            assert list(track.times) == [hour(h) for h in want]
            assert list(zip(track.rows.tolist(), track.cols.tolist())) == list(want.values())
        common = sorted(set(points[0]) & set(points[1]))
        for k in range(3):
            if not common:
                with pytest.raises(UsageError):
                    alignment_fraction(*tracks, k)
                continue
            a, b = points
            hits = sum(max(abs(a[h][0] - b[h][0]), abs(a[h][1] - b[h][1])) <= k for h in common)
            assert alignment_fraction(*tracks, k) == hits / len(common)


def test_alignment_requires_common_hours():
    lats, lons = lonlat_grid(2, 2)
    g = GridField(lats=lats, lons=lons, values=np.ones((1, 2, 2)))
    a = track_spatial_max([hour(0)], g)
    b = track_spatial_max([hour(5)], g)
    with pytest.raises(UsageError):
        alignment_fraction(a, b, 1)


# ---------------------------------------------------------------------------
# bilinear interpolation


def test_bilinear_exact_on_nodes():
    rng = np.random.default_rng(6)
    lats, lons = lonlat_grid(4, 5)
    values = rng.normal(size=(4, 5))
    field = GridField(lats=lats, lons=lons, values=values)
    stations = StationSet(ids=np.array(["a", "b"]), lats=np.array([lats[2], lats[0]]),
                          lons=np.array([lons[3], lons[0]]))
    out, fallback = bilinear_to_stations(field, stations)
    assert out[0] == values[2, 3]
    assert out[1] == values[0, 0]
    assert not fallback.any()


def test_bilinear_reproduces_linear_field_at_cell_centers():
    lats, lons = lonlat_grid(5, 5)
    field = field_of(lambda la, lo: lo, lats, lons)
    mid_lat = (lats[1] + lats[2]) / 2
    mid_lon = (lons[2] + lons[3]) / 2
    stations = StationSet(ids=np.array(["c"]), lats=np.array([mid_lat]),
                          lons=np.array([mid_lon]))
    out, _ = bilinear_to_stations(field, stations)
    assert out[0] == pytest.approx(mid_lon, abs=1e-12)


def test_bilinear_exact_on_affine_fields():
    rng = np.random.default_rng(7)
    lats, lons = lonlat_grid(6, 9, step=0.5)
    for _ in range(5):
        a, b, c = rng.normal(size=3)
        field = field_of(lambda la, lo: a * la + b * lo + c, lats, lons)
        slat = rng.uniform(lats[0], lats[-1], size=100)
        slon = rng.uniform(lons[0], lons[-1], size=100)
        stations = StationSet(ids=np.arange(100).astype(str), lats=slat, lons=slon)
        out, fallback = bilinear_to_stations(field, stations)
        np.testing.assert_allclose(out, a * slat + b * slon + c, atol=1e-12)
        assert not fallback.any()


def test_bilinear_descending_axes():
    lats, lons = lonlat_grid(5, 5)
    field = field_of(lambda la, lo: 2 * la - lo, lats, lons)
    flipped = GridField(lats=lats[::-1], lons=lons, values=field.values[::-1, :])
    stations = StationSet(ids=np.array(["s"]), lats=np.array([41.7]), lons=np.array([-72.3]))
    a, _ = bilinear_to_stations(field, stations)
    b, _ = bilinear_to_stations(flipped, stations)
    assert a[0] == pytest.approx(b[0], rel=1e-12)


def test_bilinear_outside_hull_raises():
    lats, lons = lonlat_grid(3, 3)
    field = GridField(lats=lats, lons=lons, values=np.zeros((3, 3)))
    stations = StationSet(ids=np.array(["far"]), lats=np.array([10.0]), lons=np.array([0.0]))
    with pytest.raises(DomainError, match="far"):
        bilinear_to_stations(field, stations)


def test_bilinear_needs_a_single_field():
    lats, lons = lonlat_grid(3, 3)
    cube = GridField(lats=lats, lons=lons, values=np.zeros((2, 3, 3)))
    stations = StationSet(ids=np.array(["a"]), lats=np.array([lats[1]]), lons=np.array([lons[1]]))
    with pytest.raises(UsageError):
        bilinear_to_stations(cube, stations)


def test_bilinear_masked_corner_falls_back_with_flag():
    lats, lons = lonlat_grid(3, 3)
    values = np.arange(9.0).reshape(3, 3)
    valid = np.ones((3, 3), dtype=bool)
    valid[0, 0] = False
    field = GridField(lats=lats, lons=lons, values=values, valid=valid)
    stations = StationSet(
        ids=np.array(["near"]), lats=np.array([lats[0] + 0.2]), lons=np.array([lons[0] + 0.2])
    )
    out, fallback = bilinear_to_stations(field, stations)
    assert fallback[0]
    assert out[0] in values[valid]


# ---------------------------------------------------------------------------
# storm cubes


def grid_fields_by_storm(storm_ids, timestamps, grid_rows, grid_cols, cell_lats, cell_lons,
                         values):
    """Per-hour reference: one 2-D field per distinct hour, by a mask scan."""
    result = {}
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
            raise IngestError(f"storm {storm}: some grid row/col indices never appear")
        series = []
        for ts in np.unique(timestamps[sel]):
            at = sel[timestamps[sel] == ts]
            grid_values = np.full((n_rows, n_cols), np.nan)
            valid = np.zeros((n_rows, n_cols), dtype=bool)
            grid_values[grid_rows[at], grid_cols[at]] = values[at]
            valid[grid_rows[at], grid_cols[at]] = True
            series.append((ts, GridField(lats=lats, lons=lons, values=grid_values, valid=valid)))
        result[storm] = series
    return result


def random_cells(seed: int, n_storms: int):
    """Sparse long-format cells of up to four hours per storm, shuffled; every
    row and column index of a storm appears at least once."""
    rng = np.random.default_rng(seed)
    cells = set()
    for s in range(n_storms):
        n_t, n_r, n_c = rng.integers(1, 5), rng.integers(2, 6), rng.integers(2, 6)
        cells |= {(s, int(rng.integers(n_t)), r, int(rng.integers(n_c))) for r in range(n_r)}
        cells |= {(s, int(rng.integers(n_t)), int(rng.integers(n_r)), c) for c in range(n_c)}
        every = np.argwhere(rng.uniform(size=(n_t, n_r, n_c)) < rng.uniform())
        cells |= {(s, int(t), int(r), int(c)) for t, r, c in every}
    cells = np.array(sorted(cells))[rng.permutation(len(cells))]
    storm, t, r, c = cells.T
    start = np.datetime64("2020-01-01T00:00:00", "s")
    return (
        np.array([f"G{k:02d}" for k in storm]),
        start + (storm * 120 + t * 3).astype("timedelta64[h]"),
        r,
        c,
        41.0 + 0.25 * r,
        -74.0 + 0.25 * c,
        rng.normal(size=len(cells)),
    )


@given(seed=st.integers(0, 2**32 - 1), n_storms=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_storm_cubes_match_per_hour_reference(seed, n_storms):
    columns = random_cells(seed, n_storms)
    cubes = storm_cubes(*columns)
    reference = grid_fields_by_storm(*columns)
    assert list(cubes) == list(reference)
    for storm, series in reference.items():
        times, cube = cubes[storm]
        assert cube.shape == (len(series), *series[0][1].shape)
        assert times.tolist() == [ts for ts, _ in series]
        for k, (_, grid) in enumerate(series):
            assert np.array_equal(cube.lats, grid.lats) and np.array_equal(cube.lons, grid.lons)
            assert np.array_equal(cube.valid[k], grid.valid)
            assert np.array_equal(cube.values[k], grid.values, equal_nan=True)
    # a second value column in the same call: the bits of a call of its own
    other = np.random.default_rng([seed, 1]).normal(size=len(columns[-1]))
    both, alone = storm_cubes(*columns, other), storm_cubes(*columns[:-1], other)
    assert list(both) == list(cubes)
    for storm, (times, *fields) in both.items():
        assert times.tobytes() == cubes[storm][0].tobytes()
        for field, single in zip(fields, (cubes[storm][1], alone[storm][1]), strict=True):
            for name in ("lats", "lons", "values", "valid"):
                assert getattr(field, name).tobytes() == getattr(single, name).tobytes()


def test_storm_cubes_need_every_axis_index():
    columns = list(random_cells(0, 1))
    columns[2] = columns[2] + 1  # row 0 now never appears
    with pytest.raises(IngestError, match="never appear"):
        storm_cubes(*columns)


def test_storm_cubes_refuse_a_sparse_index_before_allocating_its_axis():
    # three cells, one at grid row 10**6: an axis as long as that is 8 MB
    storms = np.array(["A"] * 3)
    times = np.full(3, np.datetime64("2020-01-01T00:00:00", "s"))
    rows, cols = np.array([0, 1, 10**6]), np.zeros(3, dtype=np.int64)
    lats, lons = 41.0 + 0.25 * np.minimum(rows, 2), np.full(3, -74.0)
    tracemalloc.start()
    try:
        with pytest.raises(IngestError, match="never appear"):
            storm_cubes(storms, times, rows, cols, lats, lons, np.zeros(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_storm_cubes_refuse_a_raster_far_larger_than_its_rows_before_allocating_it():
    # 100 rows on the diagonal of 100 hours x 100 rows x 100 cols: every axis
    # index appears, but the cube and its mask would take 9 MB
    n = 100
    index = np.arange(n)
    times = np.datetime64("2020-01-01T00:00:00", "s") + index.astype("timedelta64[h]")
    lats, lons = 41.0 + 0.25 * index, -74.0 + 0.25 * index
    tracemalloc.start()
    try:
        with pytest.raises(IngestError, match=f"more than {MAX_CELLS_PER_ROW} cells per row"):
            storm_cubes(np.array(["A"] * n), times, index, index, lats, lons, np.zeros(n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_storm_cubes_refuse_a_repeated_cell_naming_its_lines():
    # one hour of a 2x2 raster whose first cell comes again on the last line:
    # its 2.0 must not silently replace the 1.0
    rows, cols = np.array([0, 0, 1, 1, 0]), np.array([0, 1, 0, 1, 0])
    times = np.full(5, np.datetime64("2020-01-01T00:00:00", "s"))
    with pytest.raises(IngestError, match="storm A: 1 rows repeat") as err:
        storm_cubes(np.array(["A"] * 5), times, rows, cols, 41.0 + 0.25 * rows,
                    -74.0 + 0.25 * cols, np.array([1.0, 0.0, 0.0, 0.0, 2.0]))
    assert err.value.row_errors == [(6, "same hour, row and col as line 2")]


def test_storm_cubes_refuse_cells_whose_coordinates_disagree():
    # storm A: 2 hours of a 3x4 raster in (t, r, c) file order; storm B after it
    t, r, c = (a.ravel() for a in np.meshgrid(np.arange(2), np.arange(3), np.arange(4),
                                              indexing="ij"))
    storms = np.array(["A"] * 24 + ["B"] * 24)
    times = np.datetime64("2020-01-01T00:00:00", "s") + np.tile(t, 2).astype("timedelta64[h]")
    rows, cols = np.tile(r, 2), np.tile(c, 2)
    lats, lons = 41.0 + 0.25 * rows, -74.0 + 0.25 * cols
    values = np.arange(48.0)
    storm_cubes(storms, times, rows, cols, lats, lons, values)  # consistent: accepted
    lats[12 + 4 + 1] += 3.0  # hour 1, row 1, col 1 of A: lat 44.25, row 1 is at 41.25
    lons[24 + 12 + 11] = -73.0  # hour 1, row 2, col 3 of B
    with pytest.raises(IngestError) as err:
        storm_cubes(storms, times, rows, cols, lats, lons, values)
    assert err.value.row_errors == [
        (19, "lat 44.25, but grid row 1 has lat 41.25"),
    ]
    assert str(err.value).startswith("storm A: 1 coordinates differ within a grid row or col")
    lats[12 + 4 + 1] -= 3.0
    with pytest.raises(IngestError) as err:
        storm_cubes(storms, times, rows, cols, lats, lons, values)
    assert err.value.row_errors == [
        (49, "lon -73.0, but grid col 3 has lon -73.25"),
    ]


def test_grid_field_validation():
    with pytest.raises(UsageError):
        GridField(lats=np.array([1.0, 1.0]), lons=np.array([1.0, 2.0]),
                  values=np.zeros((2, 2)))
    with pytest.raises(UsageError):
        GridField(lats=np.array([1.0, 2.0]), lons=np.array([1.0, 2.0]),
                  values=np.zeros((3, 2)))
