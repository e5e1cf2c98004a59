"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; any assertion failure shows up as a pytest failure for that
criterion.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from gustuq.evidential import (
    NIGParams,
    decompose,
    nig_nll,
    train_evidential,
)
from gustuq.metrics import (
    discard_fraction,
    error_metrics,
    picp,
    pit_values,
    pitd,
    prediction_interval,
    spread_skill,
)
from gustuq.nncore import TrainConfig
from gustuq.spatial import GridField, StationSet, bilinear_to_stations, spatial_gradient
from gustuq.tune import HyperSpace, pareto_front, sample
from gustuq.xai import partial_dependence, permutation_importance
from gustuq.cli import main as cli_main

from synth import heteroscedastic_xy, write_station_file
from test_evidential import check_step_gradients, draw_smooth_case, nll_quadrature_oracle
from test_tune import brute_force_pareto, random_trials


def report(n, text):
    print(f"\nACCEPTANCE {n:2d} PASS: {text}")


# ---------------------------------------------------------------------------


def test_criterion_01_nig_moments():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    n = 1000
    params = NIGParams(
        gamma=rng.normal(scale=10, size=n),
        nu=rng.uniform(1e-4, 100, size=n),
        alpha=1.0 + rng.uniform(1e-4, 50, size=n),
        beta=rng.uniform(1e-4, 100, size=n),
    )
    dec = decompose(params)
    np.testing.assert_allclose(
        dec.total_var, dec.aleatoric_var + dec.epistemic_var, rtol=1e-12
    )
    exact = decompose(
        NIGParams(gamma=np.array([5.0]), nu=np.array([2.0]),
                  alpha=np.array([3.0]), beta=np.array([4.0]))
    )
    assert exact.aleatoric_var[0] == 2.0
    assert exact.epistemic_var[0] == 1.0
    assert exact.total_var[0] == 3.0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"closed-form NIG moments, 1000 random params, {elapsed:.3f}s")


def test_criterion_02_nll_quadrature_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        gamma = rng.uniform(-3, 3)
        nu = rng.uniform(0.3, 5.0)
        alpha = rng.uniform(1.3, 6.0)
        beta = rng.uniform(0.2, 5.0)
        scale = np.sqrt(beta * (1 + nu) / (nu * alpha))
        y = gamma + rng.uniform(-3, 3) * scale
        closed = nig_nll(
            NIGParams(gamma=np.array([gamma]), nu=np.array([nu]),
                      alpha=np.array([alpha]), beta=np.array([beta])),
            np.array([y]),
        )[0]
        oracle = nll_quadrature_oracle(gamma, nu, alpha, beta, y)
        worst = max(worst, abs(closed - oracle))
        assert abs(closed - oracle) <= 1e-3
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(2, f"closed-form NLL vs 2-D quadrature, worst |diff| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(99)
    checked = sum(check_step_gradients(*draw_smooth_case(rng)) for _ in range(10))
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(3, f"training-step gradients vs finite differences, {checked} params, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def calibration_run():
    started = time.perf_counter()
    x, y, _ = heteroscedastic_xy(5000, seed=42)
    model, log = train_evidential(
        x[:4000], y[:4000], x[4000:], y[4000:],
        hidden_sizes=[128],
        config=TrainConfig(learning_rate=3e-3, batch_size=128, max_epochs=200,
                           patience=200, evidential_coef=0.01, seed=7),
    )
    elapsed = time.perf_counter() - started
    rng_eval = np.random.default_rng(777)
    x_eval = rng_eval.uniform(-1, 1, 2000)
    true_sd = 0.1 + np.abs(x_eval)
    y_eval = x_eval + true_sd * rng_eval.standard_normal(2000)
    return model, log, elapsed, (x_eval, y_eval, true_sd)


def test_criterion_04_calibration_recovery(calibration_run):
    model, log, train_seconds, (x_eval, y_eval, true_sd) = calibration_run
    assert len(log) <= 200
    assert train_seconds < 300.0
    dec = model.predict(x_eval)

    r = float(np.corrcoef(dec.aleatoric_sd, true_sd)[0, 1])
    assert r > 0.7

    pit = pit_values(dec.mean, dec.total_sd, y_eval)
    ks_p = float(stats.kstest(pit, "uniform").pvalue)
    assert ks_p > 0.01

    lo, hi = prediction_interval(dec.mean, dec.total_sd, 0.95)
    coverage = picp(lo, hi, y_eval)
    assert 0.92 <= coverage <= 0.98

    skill = pitd(pit, 10).skill
    assert skill > 0.9
    report(
        4,
        f"calibration recovery: r={r:.3f}, KS p={ks_p:.3f}, "
        f"PICP95={coverage:.3f}, PITD skill={skill:.3f}, "
        f"{len(log)} epochs in {train_seconds:.0f}s",
    )


def test_criterion_05_epistemic_ood_growth(calibration_run):
    model, *_ = calibration_run
    sds = [float(model.predict(np.array([v])).epistemic_sd[0]) for v in (2.0, 3.0, 4.0)]
    assert sds[0] < sds[1] < sds[2]
    report(5, f"epistemic sd at x=2,3,4: {sds[0]:.2f} < {sds[1]:.2f} < {sds[2]:.2f}")


def test_criterion_06_metric_identities():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(2, 300))
        pred = rng.normal(scale=rng.uniform(0.1, 10), size=n)
        obs = rng.normal(scale=rng.uniform(0.1, 10), size=n)
        m = error_metrics(pred, obs)
        assert m.rmse**2 == pytest.approx(m.crmse**2 + m.bias**2, rel=1e-9, abs=1e-15)

    for m_bins in range(2, 51):
        uniform = pitd(np.repeat((np.arange(m_bins) + 0.5) / m_bins, 4), m_bins)
        assert uniform.pitd == pytest.approx(0.0, abs=1e-15)
        worst = pitd(np.full(17, 0.0), m_bins)
        assert worst.pitd == pytest.approx(np.sqrt(m_bins - 1.0) / m_bins, rel=1e-12)

    mean = rng.normal(size=400)
    sd = rng.uniform(0.2, 2.0, size=400)
    obs = mean + 1.4 * sd * rng.standard_normal(400)
    last = -1.0
    for level in (0.05, 0.2, 0.5, 0.70, 0.90, 0.95, 0.99, 0.999):
        lo, hi = prediction_interval(mean, sd, level)
        value = picp(lo, hi, obs)
        assert value >= last
        last = value
    report(6, "RMSE^2 = CRMSE^2 + bias^2 (100 sets), PITD bounds M=2..50, PICP monotone")


def test_criterion_07_spread_skill_and_discard():
    rng = np.random.default_rng(7)
    n = 10_000
    sd = rng.uniform(0.5, 2.5, size=n)
    pred = rng.normal(size=n)
    obs = pred + sd * rng.standard_normal(n)
    res = spread_skill(sd, pred - obs, n_bins=20)
    assert 0.9 <= res.slope <= 1.1
    assert res.r_squared > 0.95

    fractions = np.round(np.arange(0.0, 1.0, 0.05), 2)
    curve = discard_fraction(sd, pred, obs, fractions=fractions)
    violations = sum(b > a for a, b in zip(curve.rmse, curve.rmse[1:]))
    assert violations <= 1
    report(
        7,
        f"spread-skill slope={res.slope:.3f}, R2={res.r_squared:.3f}; "
        f"discard curve violations={violations}/19",
    )


def test_criterion_08_paper_z_values():
    rng = np.random.default_rng(8)
    mean = rng.normal(size=500)
    sd = rng.uniform(0.01, 5.0, size=500)
    for level, z in ((0.70, 1.04), (0.90, 1.65), (0.95, 1.96), (0.99, 2.58)):
        lo, hi = prediction_interval(mean, sd, level)
        assert np.array_equal(hi, mean + z * sd)
        assert np.array_equal(lo, mean - z * sd)
    report(8, "named-level intervals bit-match mu +/- z*sd with z in {1.04, 1.65, 1.96, 2.58}")


def test_criterion_09_spatial_oracles():
    rng = np.random.default_rng(9)
    lats = 40.0 + 0.5 * np.arange(8)
    lons = -75.0 + 0.5 * np.arange(10)
    lon_grid, lat_grid = np.meshgrid(lons, lats)

    a, b, c = rng.normal(size=3)
    affine = GridField(lats=lats, lons=lons, values=a * lat_grid + b * lon_grid + c)
    slat = rng.uniform(lats[0], lats[-1], size=100)
    slon = rng.uniform(lons[0], lons[-1], size=100)
    out, fallback = bilinear_to_stations(
        affine, StationSet(ids=np.arange(100).astype(str), lats=slat, lons=slon)
    )
    np.testing.assert_allclose(out, a * slat + b * slon + c, atol=1e-12)
    assert not fallback.any()

    one_deg_lats = 40.0 + np.arange(6)
    one_deg_lons = -75.0 + np.arange(7)
    grid_lon = np.meshgrid(one_deg_lons, one_deg_lats)[0]
    grad = spatial_gradient(GridField(lats=one_deg_lats, lons=one_deg_lons, values=grid_lon))
    np.testing.assert_allclose(grad.values[1:-1, 1:-1], 0.5, rtol=1e-12)

    for _ in range(50):
        values = rng.normal(size=(8, 10))
        shift = rng.normal()
        g1 = spatial_gradient(GridField(lats=lats, lons=lons, values=values))
        g2 = spatial_gradient(GridField(lats=lats, lons=lons, values=values + shift))
        np.testing.assert_allclose(g1.values, g2.values, atol=1e-9)
    report(9, "bilinear exact on affine fields; lon-field gradient 0.5; translation-invariant")


def test_criterion_10_xai_oracles():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(600, 3))
    y = 5.0 * x[:, 0] + rng.normal(0, 0.4, size=600)

    def predict(matrix):
        mean = 5.0 * matrix[:, 0]
        return mean, 1.0 + np.abs(mean) / 10.0

    pfi = permutation_importance(predict, x, y, n_shuffles=10, seed=1)
    irrelevant = pfi.features[2]
    assert abs(irrelevant.delta_rmse_mean) <= max(2 * irrelevant.delta_rmse_sd, 1e-9)
    assert pfi.ranked_by_rmse()[0].feature == "feature_0"

    x_small = rng.normal(size=(50, 3))

    def quirky(matrix):
        mean = np.tanh(matrix[:, 0]) + matrix[:, 1] ** 2 - 0.3 * matrix[:, 2]
        return mean, np.exp(0.1 * matrix[:, 0]) + 0.5

    pdp = partial_dependence(quirky, x_small, 1, n_grid=25)
    for g, v in enumerate(pdp.grid):
        means = []
        for i in range(50):
            row = x_small[i].copy()
            row[1] = v
            means.append(quirky(row[None, :])[0][0])
        assert pdp.pred_mean[g] == np.mean(means)
    report(10, "PFI isolates the dominant feature; PDP equals the row-by-row mean")


def test_criterion_11_pareto_and_bounds():
    space = HyperSpace()
    rng = np.random.default_rng(11)
    for seed in range(5):
        trials = random_trials(50, seed, fail_every=9 if seed % 2 else 0)
        assert pareto_front(trials) == brute_force_pareto(trials)
    for _ in range(2000):
        cfg = sample(space, rng)
        assert space.learning_rate[0] <= cfg.learning_rate <= space.learning_rate[1]
        assert space.dropout[0] <= cfg.dropout <= space.dropout[1]
        assert space.hidden_layers[0] <= cfg.hidden_layers <= space.hidden_layers[1]
        assert space.hidden_neurons[0] <= cfg.hidden_neurons <= space.hidden_neurons[1]
        assert space.batch_size[0] <= cfg.batch_size <= space.batch_size[1]
        assert space.evidential_coef[0] <= cfg.evidential_coef <= space.evidential_coef[1]
        assert space.l1[0] <= cfg.l1 <= space.l1[1]
        assert space.l2[0] <= cfg.l2 <= space.l2[1]
    report(11, "Pareto set equals brute-force filter (5x50 trials); 2000 samples in bounds")


def test_criterion_12_end_to_end_determinism(tmp_path):
    station_csv = tmp_path / "stations.csv"
    write_station_file(station_csv, n_storms=4, n_stations=3, n_hours=8, seed=31)
    runs = []
    for tag in ("a", "b"):
        t_out, p_out, e_out = (tmp_path / f"{s}_{tag}" for s in ("train", "pred", "eval"))
        assert cli_main([
            "train", "--data", str(station_csv), "--out", str(t_out),
            "--split", "2,1,1", "--hidden-neurons", "8", "--max-epochs", "10",
            "--patience", "10", "--seed", "12",
        ]) == 0
        assert cli_main([
            "predict", "--model", str(t_out / "model.json"),
            "--data", str(station_csv), "--out", str(p_out),
        ]) == 0
        assert cli_main([
            "evaluate", "--pred", str(p_out / "predictions.csv"),
            "--data", str(station_csv), "--out", str(e_out),
        ]) == 0
        runs.append((t_out, p_out, e_out))
    n_files = 0
    for da, db in zip(runs[0], runs[1]):
        names_a = sorted(f.name for f in Path(da).iterdir())
        names_b = sorted(f.name for f in Path(db).iterdir())
        assert names_a == names_b
        for name in names_a:
            assert (da / name).read_bytes() == (db / name).read_bytes(), name
            n_files += 1
    report(12, f"seeded train/predict/evaluate twice: {n_files} output files byte-identical")
