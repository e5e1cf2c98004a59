"""The synthetic station fixtures: the skew noise option and its true sd."""

import numpy as np
import pytest

from synth import RAW_HEADER, station_rows, true_sd

GUST = RAW_HEADER.index("gust_obs")


def column(rows, name):
    return np.array([float(row[RAW_HEADER.index(name)]) for row in rows])


def test_skew_rows_differ_from_default_only_in_gust():
    homo = station_rows(n_storms=3, n_stations=2, n_hours=5, seed=4)
    skew = station_rows(n_storms=3, n_stations=2, n_hours=5, seed=4, noise="skew")
    assert homo == station_rows(n_storms=3, n_stations=2, n_hours=5, seed=4, noise="homo")
    assert len(skew) == len(homo)
    for a, b in zip(homo, skew):
        assert a[:GUST] + a[GUST + 1:] == b[:GUST] + b[GUST + 1:]
        assert a[GUST] != b[GUST]


def test_skew_noise_has_unit_variance_and_unit_skewness():
    # bench size; the bands are about five standard errors wide
    rows = station_rows(n_storms=40, n_stations=20, n_hours=12, seed=1, noise="skew")
    signal = 0.8 * column(rows, "WS_10m") + 0.1 * column(rows, "WS_950mb") + 2.0 * column(
        rows, "Ustar")
    gust = column(rows, "gust_obs")
    assert (gust > 0).all()  # sd * eps >= -2 sd never reaches the signal, so nothing is clipped
    eps = (gust - signal) / true_sd(rows, "skew")
    mean, var = eps.mean(), eps.var()
    skewness = ((eps - mean) ** 3).mean() / var ** 1.5
    assert abs(mean) < 0.05
    assert abs(var - 1.0) < 0.1
    assert abs(skewness - 1.0) < 0.25


def test_true_sd_spans_its_stated_range():
    rows = station_rows(n_storms=10, n_stations=5, n_hours=12, seed=2, noise="skew")
    sd = true_sd(rows, "skew")
    assert ((sd >= 0.40) & (sd <= 2.125)).all()
    assert sd.min() < 0.45 and sd.max() > 2.05
    ws = RAW_HEADER.index("WS_10m")
    ends = [row[:ws] + [text] + row[ws + 1:] for row, text in zip(rows, ("2.0", "25.0"))]
    np.testing.assert_allclose(true_sd(ends, "skew"), [0.40, 2.125], rtol=0, atol=1e-15)
    assert (true_sd(station_rows(seed=2)) == 1.0).all()


def test_unknown_noise_rejected():
    with pytest.raises(ValueError, match="unknown noise"):
        station_rows(noise="gauss")
