"""Synthetic data generators shared across the test suite."""

from __future__ import annotations

import csv

import numpy as np

RAW_HEADER = [
    "storm_id", "timestamp_utc", "station_id", "lat", "lon",
    "WS_10m", "WS_850mb", "WS_950mb", "PBLH", "Ustar", "wind_dir_deg",
    "terrain_height_m", "lapse_sfc_1km", "lapse_sfc_2km", "gust_obs",
]

GRID_HEADER = [
    "storm_id", "timestamp_utc", "row", "col", "lat", "lon",
    "WS_10m", "WS_850mb", "WS_950mb", "PBLH", "Ustar", "wind_dir_deg",
    "terrain_height_m", "lapse_sfc_1km", "lapse_sfc_2km",
]


def heteroscedastic_xy(n: int, seed: int, mean_fn=None, x_range=(-1.0, 1.0)):
    """x ~ U(range); y ~ N(mean_fn(x), (0.1 + |x|)^2). Default mean is x."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(x_range[0], x_range[1], size=n)
    mu = x if mean_fn is None else mean_fn(x)
    sd = 0.1 + np.abs(x)
    y = mu + sd * rng.standard_normal(n)
    return x, y, sd


def linear_noise_xy(n: int, seed: int, noise_sd: float = 0.1):
    """y = x + N(0, noise_sd^2) on x ~ U(-2, 2)."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, size=n)
    y = x + noise_sd * rng.standard_normal(n)
    return x, y


def _storm_start(i: int) -> np.datetime64:
    return np.datetime64("2020-01-01T00:00:00", "s") + np.timedelta64(i * 5 * 86400, "s")


def station_rows(n_storms=4, n_stations=3, n_hours=8, seed=0, noise="homo"):
    """Synthetic station rows with a learnable gust signal.

    gust = 0.8*WS_10m + 0.1*WS_950mb + 2*Ustar + noise, clipped at zero.

    ``noise="homo"`` draws N(0, 1) noise. ``noise="skew"`` gives the same rows
    but for ``gust_obs``: its noise is sd*eps with sd = 0.25 + 0.075*WS_10m
    (see :func:`true_sd`) and eps = (G - 4)/2, G ~ Gamma(4, 1), so eps has
    mean 0, variance 1 and skewness 1. G is drawn from
    ``default_rng(10_000 + seed)``, so every other column keeps its draws.
    """
    if noise not in ("homo", "skew"):
        raise ValueError(f"unknown noise {noise!r}")
    rng = np.random.default_rng(seed)
    skew_rng = np.random.default_rng(10_000 + seed)
    rows = []
    for s in range(n_storms):
        storm = f"S{s:02d}"
        start = _storm_start(s)
        for st in range(n_stations):
            lat = 41.0 + 0.5 * st + 0.01 * s
            lon = -73.0 + 0.4 * st - 0.01 * s
            for h in range(n_hours):
                ts = start + np.timedelta64(h * 3600, "s")
                ws10 = rng.uniform(2.0, 25.0)
                ws850 = ws10 + rng.uniform(0.0, 12.0)
                ws950 = ws10 + rng.uniform(0.0, 8.0)
                pblh = rng.uniform(0.05, 2.5)
                ustar = rng.uniform(0.05, 1.5)
                wdir = rng.uniform(0.0, 360.0)
                terrain = rng.uniform(0.0, 1200.0)
                lapse1 = rng.uniform(-10.0, 10.0)
                lapse2 = rng.uniform(-10.0, 10.0)
                error = rng.normal(0.0, 1.0)
                if noise == "skew":
                    error = _skew_sd(ws10) * (skew_rng.gamma(4.0, 1.0) - 4.0) / 2.0
                gust = max(0.0, 0.8 * ws10 + 0.1 * ws950 + 2.0 * ustar + error)
                rows.append(
                    [
                        storm,
                        str(ts) + "Z",
                        f"ST{st:02d}",
                        repr(lat),
                        repr(lon),
                        repr(ws10),
                        repr(ws850),
                        repr(ws950),
                        repr(pblh),
                        repr(ustar),
                        repr(wdir),
                        repr(terrain),
                        repr(lapse1),
                        repr(lapse2),
                        repr(gust),
                    ]
                )
    return rows


def _skew_sd(ws10):
    return 0.25 + 0.075 * ws10


def true_sd(rows, noise="homo") -> np.ndarray:
    """Each station row's true noise sd before clipping: 1 for ``"homo"``,
    0.25 + 0.075*WS_10m (0.40 to 2.125 m/s) for ``"skew"``."""
    ws10 = np.array([float(row[RAW_HEADER.index("WS_10m")]) for row in rows])
    return _skew_sd(ws10) if noise == "skew" else np.ones_like(ws10)


def write_station_file(path, rows=None, **kwargs) -> None:
    if rows is None:
        rows = station_rows(**kwargs)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RAW_HEADER)
        writer.writerows(rows)


def grid_rows(n_storms=1, n_rows=5, n_cols=6, n_hours=4, seed=0, bump_drift=1):
    """Synthetic grid rows with a wind-speed bump drifting across the raster."""
    rng = np.random.default_rng(seed)
    rows = []
    lats = 41.0 + 0.25 * np.arange(n_rows)
    lons = -74.0 + 0.25 * np.arange(n_cols)
    for s in range(n_storms):
        storm = f"G{s:02d}"
        start = _storm_start(s)
        for h in range(n_hours):
            ts = start + np.timedelta64(h * 3600, "s")
            peak_r = (1 + h * bump_drift) % n_rows
            peak_c = (2 + h * bump_drift) % n_cols
            for r in range(n_rows):
                for c in range(n_cols):
                    dist2 = (r - peak_r) ** 2 + (c - peak_c) ** 2
                    ws10 = 6.0 + 14.0 * np.exp(-0.5 * dist2) + rng.uniform(0.0, 0.5)
                    rows.append(
                        [
                            storm,
                            str(ts) + "Z",
                            r,
                            c,
                            repr(float(lats[r])),
                            repr(float(lons[c])),
                            repr(float(ws10)),
                            repr(float(ws10 + rng.uniform(0.0, 6.0))),
                            repr(float(ws10 + rng.uniform(0.0, 4.0))),
                            repr(float(rng.uniform(0.1, 2.0))),
                            repr(float(rng.uniform(0.1, 1.2))),
                            repr(float(rng.uniform(0.0, 360.0))),
                            repr(float(rng.uniform(0.0, 800.0))),
                            repr(float(rng.uniform(-8.0, 8.0))),
                            repr(float(rng.uniform(-8.0, 8.0))),
                        ]
                    )
    return rows


def write_grid_file(path, rows=None, **kwargs) -> None:
    if rows is None:
        rows = grid_rows(**kwargs)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(GRID_HEADER)
        writer.writerows(rows)
