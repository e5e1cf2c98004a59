"""Gridded post-processing: gradients, normalization, max tracking, and
grid-to-station bilinear interpolation.

Grids are regular lat/lon rasters with strictly monotone axes in degrees and
an optional validity mask (ocean cells, for instance, are simply marked
invalid). A storm's hourly fields are one [T, rows, cols] cube. Gradient
distances are computed in raw degrees, matching the neighbor formula used
for the gust-gradient maps, so values depend on the grid convention rather
than on geodesic distance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import DegenerateInputWarning, DomainError, IngestError, UsageError


@dataclass
class GridField:
    """One scalar per cell on a regular lat/lon raster, or a [T, rows, cols]
    cube of them, one raster per hour.

    ``valid`` is True where the cell participates in statistics; invalid
    cells are excluded from maxima, normalization, and interpolation.
    """

    lats: np.ndarray  # [rows], strictly monotone, degrees
    lons: np.ndarray  # [cols], strictly monotone, degrees
    values: np.ndarray  # [rows, cols] or [T, rows, cols]
    valid: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.lats = np.asarray(self.lats, dtype=float)
        self.lons = np.asarray(self.lons, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        for name, axis in (("lats", self.lats), ("lons", self.lons)):
            if axis.ndim != 1 or axis.size < 1:
                raise UsageError(f"{name} must be a nonempty 1-D axis")
            steps = np.diff(axis)
            if axis.size > 1 and not (np.all(steps > 0) or np.all(steps < 0)):
                raise UsageError(f"{name} must be strictly monotone")
        if self.values.ndim not in (2, 3) or self.values.shape[-2:] != (
            self.lats.size, self.lons.size
        ):
            raise UsageError(
                f"values shape {self.values.shape} does not match axes "
                f"({self.lats.size}, {self.lons.size})"
            )
        if self.valid is None:
            self.valid = np.ones(self.values.shape, dtype=bool)
        else:
            self.valid = np.asarray(self.valid, dtype=bool)
            if self.valid.shape != self.values.shape:
                raise UsageError("validity mask shape does not match values")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def with_values(self, values: np.ndarray, valid: np.ndarray | None = None) -> "GridField":
        return replace(self, values=values, valid=self.valid if valid is None else valid)


def spatial_gradient(grid: GridField) -> GridField:
    """Mean absolute value difference to the four nearest neighbors, each
    divided by the degree distance to that neighbor; a cube is done hour by
    hour.

    Boundary cells average over their existing neighbors; invalid neighbors
    are skipped and a cell with no valid neighbor (or invalid itself) comes
    out masked.
    """
    rows, cols = grid.shape[-2:]
    if rows < 2 or cols < 2:
        raise UsageError("spatial gradient needs a grid of at least 2x2 cells")
    v = grid.values
    ok = grid.valid
    total = np.zeros_like(v)
    count = np.zeros_like(v)

    d_lat = np.abs(np.diff(grid.lats))[:, None]  # distance row i <-> i+1
    pair = np.abs(v[..., 1:, :] - v[..., :-1, :]) / d_lat
    pair_ok = ok[..., 1:, :] & ok[..., :-1, :]
    contrib = np.where(pair_ok, pair, 0.0)
    total[..., :-1, :] += contrib
    count[..., :-1, :] += pair_ok
    total[..., 1:, :] += contrib
    count[..., 1:, :] += pair_ok

    d_lon = np.abs(np.diff(grid.lons))[None, :]  # distance col j <-> j+1
    pair = np.abs(v[..., 1:] - v[..., :-1]) / d_lon
    pair_ok = ok[..., 1:] & ok[..., :-1]
    contrib = np.where(pair_ok, pair, 0.0)
    total[..., :-1] += contrib
    count[..., :-1] += pair_ok
    total[..., 1:] += contrib
    count[..., 1:] += pair_ok

    out_valid = ok & (count > 0)
    out = np.full_like(v, np.nan)
    np.divide(total, count, out=out, where=out_valid)
    return grid.with_values(out, valid=out_valid)


def minmax_normalize(values):
    """Affine rescale to [0, 1]: (V - Vmin) / (Vmax - Vmin).

    Accepts a plain array or a :class:`GridField`; for a field the extrema
    come from valid cells only (of every hour, for a cube). A constant input
    has no well-defined scaling and raises.
    """
    if isinstance(values, GridField):
        masked = values.values[values.valid]
        if masked.size == 0:
            raise UsageError("cannot normalize a fully masked field")
        lo, hi = float(masked.min()), float(masked.max())
        if hi == lo:
            raise UsageError("cannot min-max normalize a constant field")
        out = np.full_like(values.values, np.nan)
        out[values.valid] = (values.values[values.valid] - lo) / (hi - lo)
        return values.with_values(out)
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise UsageError("cannot normalize an empty array")
    lo, hi = float(x.min()), float(x.max())
    if hi == lo:
        raise UsageError("cannot min-max normalize a constant input")
    return (x - lo) / (hi - lo)


class Track(NamedTuple):
    """The spatial maximum of each hour of a cube, as columns: its hour,
    value, and raster row and col (``field.lats[rows]`` and
    ``field.lons[cols]`` locate it)."""

    times: np.ndarray  # datetime64[s]
    values: np.ndarray
    rows: np.ndarray
    cols: np.ndarray


def track_spatial_max(times, field: GridField) -> Track:
    """Per-hour maximum over unmasked cells, ties broken row-major first.

    ``field`` is a [T, rows, cols] cube and ``times`` its T hours; hours with
    no valid cell are skipped with a warning.
    """
    times = np.asarray(times, dtype="datetime64[s]")
    if field.values.ndim != 3 or times.shape != field.shape[:1]:
        raise UsageError("track_spatial_max needs T times and a [T, rows, cols] field")
    if times.size == 0:
        raise UsageError("track_spatial_max needs a nonempty series")
    flat = np.where(field.valid, field.values, -np.inf).reshape(times.size, -1)
    rows, cols = np.unravel_index(np.argmax(flat, axis=1), field.shape[1:])
    hours = np.flatnonzero(field.valid.reshape(times.size, -1).any(axis=1))
    for time in np.delete(times, hours):
        warnings.warn(f"hour {time}: all cells masked, skipped", DegenerateInputWarning)
    rows, cols = rows[hours], cols[hours]
    return Track(times[hours], field.values[hours, rows, cols], rows, cols)


# Most raster cells a storm's cube may hold per cell row it has. A dense grid
# has one row per cell, and a grid with up to 63 of every 64 cells missing
# (ocean, say) still fits; past that, a few rows would ask for a cube far
# larger than the input.
MAX_CELLS_PER_ROW = 64


def _axis(index: np.ndarray, coords: np.ndarray):
    """The coordinate of each raster row (col) index, that of its first cell
    row; None unless the indices run from 0 to the largest with none
    missing and each coordinate is a number."""
    present, first = np.unique(index, return_index=True)
    if present[0] != 0 or present[-1] != len(present) - 1:
        return None
    axis = coords[first].astype(float, copy=False)
    return None if np.isnan(axis).any() else axis


def storm_cubes(storm_ids, timestamps, rows, cols, lats, lons, *values):
    """Scatter long-format cell rows into one cube per storm and value column.

    Returns ``{storm: (times, field, ...)}`` in storm order, with ``times``
    the storm's distinct hours in order and one [T, rows, cols] cube field
    per column of ``values``, in their order; cells without a row stay
    masked. A storm's fields share its axes and one validity mask: every
    column is scattered through one cell index, built and checked once per
    storm. A storm's row (col) indices must each appear from 0 to the
    largest, and its cube may hold at most :data:`MAX_CELLS_PER_ROW` cells
    per row; both are checked before any raster is allocated. Each cell must
    appear at most once per hour, and every row of a storm with the same
    grid row (col) index must carry the same lat (lon). The arrays are taken
    to be in file order, so a repeated cell or a coordinate that differs is
    reported at line index + 2.
    """
    cubes = {}
    for storm in sorted(set(storm_ids.tolist())):
        sel = np.flatnonzero(storm_ids == storm)
        r, c = rows[sel], cols[sel]
        lat_axis = _axis(r, lats[sel])
        lon_axis = _axis(c, lons[sel])
        if lat_axis is None or lon_axis is None:
            raise IngestError(
                f"storm {storm}: some grid row/col indices never appear, "
                "cannot reconstruct the raster axes"
            )
        errors = []
        for name, coord, index, got, axis in (
            ("row", "lat", r, lats[sel], lat_axis), ("col", "lon", c, lons[sel], lon_axis)
        ):
            for k in np.flatnonzero(got != axis[index]).tolist():
                errors.append((int(sel[k]) + 2, f"{coord} {float(got[k])!r}, but grid {name} "
                               f"{index[k]} has {coord} {float(axis[index[k]])!r}"))
        if errors:
            raise IngestError(
                f"storm {storm}: {len(errors)} coordinates differ within a grid row or col",
                sorted(errors),
            )
        times, t = np.unique(timestamps[sel], return_inverse=True)
        shape = (times.size, lat_axis.size, lon_axis.size)
        if np.prod(shape, dtype=float) > MAX_CELLS_PER_ROW * sel.size:
            raise IngestError(f"storm {storm}: {sel.size} rows span a {' x '.join(map(str, shape))}"
                              f" raster, more than {MAX_CELLS_PER_ROW} cells per row")
        cell = np.ravel_multi_index((t, r, c), shape)
        order = np.argsort(cell, kind="stable")  # file order within a cell
        repeat = np.flatnonzero(np.diff(cell[order]) == 0)
        if repeat.size:
            lines = sel[order] + 2
            raise IngestError(
                f"storm {storm}: {repeat.size} rows repeat the hour and cell of another",
                sorted((int(lines[k + 1]), f"same hour, row and col as line {lines[k]}")
                       for k in repeat.tolist()),
            )
        valid = np.zeros(shape, dtype=bool)
        valid.reshape(-1)[cell] = True  # a fresh array's reshape is a view
        fields = []
        for column in values:
            cube = np.full(shape, np.nan)
            cube.reshape(-1)[cell] = column[sel]
            fields.append(GridField(lats=lat_axis, lons=lon_axis, values=cube, valid=valid))
        cubes[storm] = (times, *fields)
    return cubes


def alignment_fraction(track_a: Track, track_b: Track, max_cell_distance: int) -> float:
    """Fraction of common hours whose two argmax cells are within k cells.

    Distance is the Chebyshev cell distance max(|drow|, |dcol|), so k=0
    requires identical cells.
    """
    if max_cell_distance < 0:
        raise UsageError("max_cell_distance must be >= 0")
    _, a, b = np.intersect1d(track_a.times, track_b.times, return_indices=True)
    if a.size == 0:
        raise UsageError("tracks share no common time steps")
    distance = np.maximum(np.abs(track_a.rows[a] - track_b.rows[b]),
                          np.abs(track_a.cols[a] - track_b.cols[b]))
    return int(np.count_nonzero(distance <= max_cell_distance)) / a.size


@dataclass
class StationSet:
    """Station identities and coordinates for grid-to-point interpolation."""

    ids: np.ndarray
    lats: np.ndarray
    lons: np.ndarray
    elevations: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.ids = np.asarray(self.ids)
        self.lats = np.asarray(self.lats, dtype=float)
        self.lons = np.asarray(self.lons, dtype=float)
        if not (self.ids.shape == self.lats.shape == self.lons.shape):
            raise UsageError("station ids/lats/lons must have equal lengths")

    def __len__(self) -> int:
        return len(self.ids)


def _ascending(grid: GridField) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    lats, lons, values, valid = grid.lats, grid.lons, grid.values, grid.valid
    if lats.size > 1 and lats[1] < lats[0]:
        lats, values, valid = lats[::-1], values[::-1, :], valid[::-1, :]
    if lons.size > 1 and lons[1] < lons[0]:
        lons, values, valid = lons[::-1], values[:, ::-1], valid[:, ::-1]
    return lats, lons, values, valid


def bilinear_to_stations(
    grid: GridField, stations: StationSet
) -> tuple[np.ndarray, np.ndarray]:
    """Interpolate a field to station coordinates with bilinear weights.

    Returns ``(values, fallback)`` where ``fallback`` marks stations whose
    enclosing cell quad contained an invalid cell and the nearest valid cell
    value was used instead. Stations outside the grid hull raise a domain
    error naming them.
    """
    if grid.values.ndim != 2:
        raise UsageError("bilinear interpolation needs a single [rows, cols] field")
    lats, lons, values, valid = _ascending(grid)
    if lats.size < 2 or lons.size < 2:
        raise UsageError("bilinear interpolation needs a grid of at least 2x2 cells")
    out = np.empty(len(stations))
    fallback = np.zeros(len(stations), dtype=bool)
    outside: list[str] = []
    valid_cells = np.argwhere(valid)
    for k in range(len(stations)):
        slat = stations.lats[k]
        slon = stations.lons[k]
        if not (lats[0] <= slat <= lats[-1] and lons[0] <= slon <= lons[-1]):
            outside.append(str(stations.ids[k]))
            continue
        i1 = int(np.clip(np.searchsorted(lats, slat, side="right"), 1, lats.size - 1))
        j1 = int(np.clip(np.searchsorted(lons, slon, side="right"), 1, lons.size - 1))
        i0, j0 = i1 - 1, j1 - 1
        corners_valid = valid[i0, j0] & valid[i0, j1] & valid[i1, j0] & valid[i1, j1]
        if not corners_valid:
            if valid_cells.size == 0:
                raise DomainError("grid has no valid cells to fall back on")
            d2 = (lats[valid_cells[:, 0]] - slat) ** 2 + (lons[valid_cells[:, 1]] - slon) ** 2
            nearest = valid_cells[int(np.argmin(d2))]
            out[k] = values[nearest[0], nearest[1]]
            fallback[k] = True
            continue
        t = (slat - lats[i0]) / (lats[i1] - lats[i0])
        u = (slon - lons[j0]) / (lons[j1] - lons[j0])
        out[k] = (1 - t) * ((1 - u) * values[i0, j0] + u * values[i0, j1]) + t * (
            (1 - u) * values[i1, j0] + u * values[i1, j1]
        )
    if outside:
        raise DomainError(
            f"stations outside the grid hull: {', '.join(outside[:10])}"
        )
    return out, fallback
