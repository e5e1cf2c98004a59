#!/usr/bin/env python3
"""Gridded post-processing: gradients, max tracking, and station sampling.

A synthetic storm bump drifts across a small lat/lon raster; its six hours
form one [T, rows, cols] cube. We track where the field peaks each hour,
compare that track against a second cube, compute the neighbor-based spatial
gradient of every hour at once, and finally interpolate one hour down to a
handful of stations.
"""

import numpy as np

from gustuq.spatial import (
    GridField,
    StationSet,
    alignment_fraction,
    bilinear_to_stations,
    minmax_normalize,
    spatial_gradient,
    track_spatial_max,
)

lats = 41.0 + 0.25 * np.arange(8)
lons = -74.0 + 0.25 * np.arange(10)
lon_grid, lat_grid = np.meshgrid(lons, lats)

# ocean cells (the south-east corner) stay out of every statistic
valid = np.ones((8, 10), dtype=bool)
valid[:2, 7:] = False


def bump(hour):
    center_lat = 41.3 + 0.22 * hour
    center_lon = -73.8 + 0.3 * hour
    return 8.0 + 14.0 * np.exp(
        -(((lat_grid - center_lat) / 0.4) ** 2 + ((lon_grid - center_lon) / 0.5) ** 2)
    )


hours = np.datetime64("2021-11-12T00:00:00", "s") + np.arange(6) * np.timedelta64(1, "h")
wind = GridField(
    lats=lats,
    lons=lons,
    values=np.stack([bump(h) for h in range(len(hours))]),
    valid=np.broadcast_to(valid, (len(hours), *valid.shape)),
)
# an uncertainty proxy cube peaking one cell east of the wind bump
uq = wind.with_values(np.roll(wind.values, 1, axis=2))

print("=== tracking the hourly spatial maximum ===")
wind_track = track_spatial_max(hours, wind)  # columns: times, values, rows, cols
for t, v, r, c in zip(*wind_track):
    print(f"{t}: max {v:5.1f} m/s at ({lats[r]:.2f}, {lons[c]:.2f}) cell ({r}, {c})")

print("\n=== alignment between the wind and uncertainty maxima ===")
uq_track = track_spatial_max(hours, uq)
for k in (0, 1, 2):
    frac = alignment_fraction(wind_track, uq_track, k)
    print(f"within {k} cells: {frac:.0%} of hours")

print("\n=== normalized peak series (both peak at the same hour) ===")
wind_norm = minmax_normalize(wind_track.values)
uq_norm = minmax_normalize(uq_track.values)
for t, a, b in zip(hours, wind_norm, uq_norm):
    print(f"{t}: wind {a:.2f}   uq {b:.2f}")

print("\n=== spatial gradient, every hour at once; the first hour shown ===")
grad = spatial_gradient(wind)
first = np.where(grad.valid[0], grad.values[0], -np.inf)
r, c = np.unravel_index(np.argmax(first), first.shape)
print(f"steepest gradient {grad.values[0, r, c]:.1f} per degree at ({grad.lats[r]:.2f}, "
      f"{grad.lons[c]:.2f}) - the flank of the bump")
print(f"gradient at the flat far corner: {grad.values[0, -1, 0]:.2f}")

print("\n=== bilinear interpolation to stations ===")
stations = StationSet(
    ids=np.array(["ALB", "POU", "JFK"]),
    lats=np.array([42.3, 41.63, 41.1]),
    lons=np.array([-73.8, -73.9, -72.4]),
)
first_hour = wind.with_values(wind.values[0], valid=wind.valid[0])
values, fallback = bilinear_to_stations(first_hour, stations)
for sid, v, fb in zip(stations.ids, values, fallback):
    note = " (nearest valid cell: enclosing quad was masked)" if fb else ""
    print(f"{sid}: {v:5.1f} m/s{note}")
