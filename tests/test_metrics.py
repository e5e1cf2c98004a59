import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from gustuq import metrics
from gustuq.errors import DegenerateInputWarning, DomainError, UsageError
from gustuq.evidential import UncertaintyDecomposition
from gustuq.metrics import (
    PredictionSet,
    discard_fraction,
    error_metrics,
    evaluate_predictions,
    mask_highly_uncertain,
    picp,
    pit_values,
    pitd,
    prediction_interval,
    spread_skill,
    z_score,
)


# ---------------------------------------------------------------------------
# error metrics


def test_error_metrics_perfect_prediction():
    obs = np.array([1.0, 2.0, 5.0, 3.0])
    m = error_metrics(obs.copy(), obs)
    assert (m.bias, m.mae, m.rmse, m.crmse) == (0.0, 0.0, 0.0, 0.0)
    assert m.pearson_r == pytest.approx(1.0)


def test_error_metrics_pure_offset():
    obs = np.array([1.0, 2.0, 5.0, 3.0])
    m = error_metrics(obs + 2.0, obs)
    assert m.bias == pytest.approx(2.0)
    assert m.rmse == pytest.approx(2.0)
    assert m.crmse == pytest.approx(0.0, abs=1e-12)
    assert m.pearson_r == pytest.approx(1.0)


def test_error_metrics_hand_example():
    m = error_metrics(np.array([1.0, 3.0]), np.array([2.0, 2.0]))
    assert m.bias == 0.0
    assert m.mae == 1.0
    assert m.rmse == 1.0
    assert m.crmse == 1.0


def test_error_metrics_zero_variance_r_is_nan():
    m = error_metrics(np.array([1.0, 1.0]), np.array([2.0, 3.0]))
    assert np.isnan(m.pearson_r)


def test_error_metrics_rejects_bad_input():
    with pytest.raises(UsageError):
        error_metrics(np.array([]), np.array([]))
    with pytest.raises(UsageError):
        error_metrics(np.array([1.0]), np.array([1.0, 2.0]))
    with pytest.raises(UsageError):
        error_metrics(np.array([np.nan]), np.array([1.0]))


@given(
    st.lists(st.floats(-100, 100), min_size=2, max_size=60),
    st.lists(st.floats(-100, 100), min_size=2, max_size=60),
)
@settings(max_examples=60, deadline=None)
def test_rmse_decomposition_identity(pred, obs):
    n = min(len(pred), len(obs))
    m = error_metrics(np.asarray(pred[:n]), np.asarray(obs[:n]))
    assert m.rmse**2 == pytest.approx(m.crmse**2 + m.bias**2, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# prediction intervals


def test_named_level_z_values():
    assert z_score(0.70) == 1.04
    assert z_score(0.90) == 1.65
    assert z_score(0.95) == 1.96
    assert z_score(0.99) == 2.58


def test_interval_95_worked_example():
    lo, hi = prediction_interval(np.array([10.0]), np.array([2.0]), 0.95)
    assert lo[0] == pytest.approx(6.08)
    assert hi[0] == pytest.approx(13.92)


def test_interval_70_worked_example():
    lo, hi = prediction_interval(np.array([10.0]), np.array([2.0]), 0.70)
    assert lo[0] == pytest.approx(7.92)
    assert hi[0] == pytest.approx(12.08)


def test_interval_zero_sd_collapses():
    lo, hi = prediction_interval(np.array([3.0, -1.0]), np.zeros(2), 0.99)
    assert np.array_equal(lo, [3.0, -1.0])
    assert np.array_equal(hi, [3.0, -1.0])


def test_interval_antisymmetric_about_mean():
    rng = np.random.default_rng(0)
    mean = rng.normal(size=50)
    sd = rng.uniform(0.1, 3.0, size=50)
    for level in (0.5, 0.70, 0.9, 0.95, 0.99, 0.123):
        lo, hi = prediction_interval(mean, sd, level)
        np.testing.assert_allclose(mean - lo, hi - mean, rtol=1e-12)
        # bit-identical to the mu +/- z*sd construction with the table z
        z = z_score(level)
        assert np.array_equal(lo, mean - z * sd)
        assert np.array_equal(hi, mean + z * sd)


def test_interval_bad_level():
    for level in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(UsageError):
            prediction_interval(np.zeros(1), np.ones(1), level)


def test_unnamed_level_uses_exact_quantile():
    assert z_score(0.5) == pytest.approx(stats.norm.ppf(0.75))
    # to 8 ulps of scipy's quantile of the same lower tail (3.4 seen), up to
    # the largest level below 1, where 0.5 + level / 2 rounds to 1
    levels = np.concatenate([np.linspace(0.001, 0.999, 999), [1e-300, np.nextafter(1.0, 0.0)]])
    levels = levels[~np.isin(np.round(levels, 9), list(metrics.NAMED_Z_SCORES))]
    z = np.array([z_score(level) for level in levels])
    np.testing.assert_allclose(z, -special.ndtri((1.0 - levels) / 2.0),
                               rtol=8 * np.finfo(float).eps, atol=0)


# ---------------------------------------------------------------------------
# PICP


def test_picp_worked_example():
    lo, hi = prediction_interval(np.array([10.0, 12.0]), np.array([1.0, 2.0]), 0.95)
    assert picp(lo, hi, np.array([11.0, 20.0])) == 0.5


def test_picp_obs_at_mean_always_covered():
    mean = np.linspace(-3, 3, 20)
    sd = np.full(20, 0.5)
    lo, hi = prediction_interval(mean, sd, 0.70)
    assert picp(lo, hi, mean) == 1.0


def test_picp_monte_carlo_calibrated():
    rng = np.random.default_rng(1)
    n = 10_000
    mean = rng.normal(size=n)
    sd = rng.uniform(0.5, 2.0, size=n)
    obs = mean + sd * rng.standard_normal(n)
    lo, hi = prediction_interval(mean, sd, 0.95)
    assert picp(lo, hi, obs) == pytest.approx(0.95, abs=0.01)


def test_picp_exclusion_and_empty_set():
    lo = np.zeros(3)
    hi = np.ones(3)
    obs = np.array([0.5, 0.5, 5.0])
    assert picp(lo, hi, obs, exclude=np.array([False, False, True])) == 1.0
    assert picp(lo, hi, obs, exclude=np.ones(3, dtype=bool)) is None


def test_picp_monotone_in_level():
    rng = np.random.default_rng(2)
    mean = rng.normal(size=500)
    sd = rng.uniform(0.2, 2.0, size=500)
    obs = mean + sd * rng.standard_normal(500) * 1.3
    values = []
    for level in (0.1, 0.3, 0.5, 0.70, 0.90, 0.95, 0.99):
        lo, hi = prediction_interval(mean, sd, level)
        values.append(picp(lo, hi, obs))
    assert all(b >= a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# highly uncertain mask


def test_mask_q95_flags_five_of_hundred():
    rng = np.random.default_rng(3)
    sd = rng.permutation(np.linspace(1.0, 2.0, 100))
    flags, threshold = mask_highly_uncertain(sd, 95)
    assert flags.sum() == 5
    assert threshold > np.sort(sd)[94]


def test_mask_constant_vector_flags_nothing():
    flags, _ = mask_highly_uncertain(np.full(50, 1.7), 95)
    assert flags.sum() == 0


def test_mask_flag_fraction_bound():
    rng = np.random.default_rng(4)
    for n in (10, 37, 100, 1001):
        sd = rng.uniform(0, 3, size=n)
        for q in (50, 80, 95, 99):
            flags, _ = mask_highly_uncertain(sd, q)
            assert flags.mean() <= (100 - q) / 100 + 1.0 / n


def test_mask_input_validation():
    with pytest.raises(UsageError):
        mask_highly_uncertain(np.array([]), 95)
    with pytest.raises(UsageError):
        mask_highly_uncertain(np.ones(3), 0)
    with pytest.raises(UsageError):
        mask_highly_uncertain(np.ones(3), 100)


# ---------------------------------------------------------------------------
# PIT / PITD


def test_pit_at_mean_is_half():
    assert pit_values(np.array([3.0]), np.array([1.0]), np.array([3.0]))[0] == 0.5


def test_pit_quantile_value():
    v = pit_values(np.array([0.0]), np.array([2.0]), np.array([2.0 * 1.96]))[0]
    assert v == pytest.approx(0.975, abs=1e-4)


def test_pit_matches_scipy_ndtr():
    # within two ulps of 1, absolute, from -40 to 40 sds and at +-1e300
    z = np.concatenate([np.linspace(-40.0, 40.0, 100_001), [-1e300, 1e300]])
    with np.errstate(all="raise"):
        pit = pit_values(np.zeros_like(z), np.ones_like(z), z)
    assert np.max(np.abs(pit - special.ndtr(z))) <= 2 * np.finfo(float).eps
    assert pit[-2:].tolist() == [0.0, 1.0]


def test_pit_uniform_for_calibrated_samples():
    rng = np.random.default_rng(5)
    n = 10_000
    mean = rng.normal(size=n)
    sd = rng.uniform(0.5, 2.0, size=n)
    obs = mean + sd * rng.standard_normal(n)
    pit = pit_values(mean, sd, obs)
    assert stats.kstest(pit, "uniform").pvalue > 0.01


def test_pit_rejects_nonpositive_sd():
    with pytest.raises(DomainError):
        pit_values(np.zeros(1), np.zeros(1), np.zeros(1))


def test_pitd_uniform_counts():
    pit = np.repeat(np.linspace(0.05, 0.95, 10), 10)  # 10 per bin, M=10
    res = pitd(pit, 10)
    assert res.pitd == 0.0
    assert res.skill == 1.0


def test_pitd_single_bin_worst_case():
    res = pitd(np.full(37, 0.01), 10)
    assert res.pitd == pytest.approx(0.3, rel=1e-12)
    assert res.skill == pytest.approx(0.0, abs=1e-12)


def test_pitd_worst_case_all_m():
    for m in range(2, 51):
        res = pitd(np.zeros(11), m)
        assert res.pitd == pytest.approx(np.sqrt(m - 1.0) / m, rel=1e-12)
        assert res.skill == pytest.approx(0.0, abs=1e-9)


def test_pitd_uniform_all_m():
    for m in range(2, 51):
        pit = np.repeat((np.arange(m) + 0.5) / m, 3)
        res = pitd(pit, m)
        assert res.pitd == pytest.approx(0.0, abs=1e-15)


def test_pitd_permutation_invariant():
    rng = np.random.default_rng(6)
    pit = rng.uniform(size=200)
    base = pitd(pit, 10)
    # moving whole bins around: reflect values, which permutes bin counts
    reflected = 1.0 - pit
    assert pitd(reflected, 10).pitd == pytest.approx(base.pitd, rel=1e-12)


def test_pitd_value_one_lands_in_last_bin():
    res = pitd(np.array([1.0, 1.0, 0.0]), 2)
    assert res.bin_counts.tolist() == [1, 2]


def test_pitd_validation():
    with pytest.raises(UsageError):
        pitd(np.array([]), 10)
    with pytest.raises(UsageError):
        pitd(np.array([0.5]), 1)
    with pytest.raises(UsageError):
        pitd(np.array([1.5]), 10)


# ---------------------------------------------------------------------------
# spread-skill


def test_spread_skill_calibrated_monte_carlo():
    rng = np.random.default_rng(7)
    n = 10_000
    sd = rng.uniform(0.5, 2.5, size=n)
    errors = sd * rng.standard_normal(n)
    res = spread_skill(sd, errors, n_bins=20)
    assert 0.9 <= res.slope <= 1.1
    assert res.r_squared > 0.95
    assert len(res.bin_mean_sd) == 20
    assert res.bin_counts.sum() == n


def test_spread_skill_constant_sd_degenerate():
    rng = np.random.default_rng(8)
    res = spread_skill(np.ones(100), rng.normal(size=100), n_bins=10)
    assert len(res.bin_mean_sd) == 1
    assert np.isnan(res.r_squared)


def test_spread_skill_spread_of_rounding_noise_has_no_fit():
    # A collapsed network predicts one spread up to rounding: in float64 a
    # relative jitter of about 2e-11, in float32 (tune's trials) a range of a
    # few float32 ulps. Binning that noise would fit a line to nothing.
    rng = np.random.default_rng(10)
    eps = rng.standard_normal(2000)
    errors = 2.0 * rng.standard_normal(2000)
    noise64 = 2.0 * (1.0 + 2e-11 * eps)
    noise32 = (2.0 * (1.0 + 1e-7 * eps)).astype(np.float32)
    assert 1e-7 < np.ptp(noise32) / noise32.max() < 1e-6
    for sd in (noise64, noise32):
        res = spread_skill(sd, errors, n_bins=20)
        assert np.isnan(res.slope) and np.isnan(res.r_squared)
        assert len(res.bin_mean_sd) == 1 and res.bin_counts.tolist() == [2000]


def test_spread_skill_bin_membership_scale_invariant():
    rng = np.random.default_rng(9)
    sd = rng.uniform(0.1, 2.0, size=200)
    errors = rng.normal(size=200)
    a = spread_skill(sd, errors, n_bins=8)
    b = spread_skill(2.0 * sd, errors, n_bins=8)
    assert np.array_equal(a.bin_counts, b.bin_counts)
    assert np.allclose(2.0 * a.bin_mean_sd, b.bin_mean_sd)
    assert np.array_equal(a.bin_rmse, b.bin_rmse)


def test_spread_skill_reduces_bins_with_warning():
    with pytest.warns(DegenerateInputWarning):
        res = spread_skill(np.array([1.0, 2.0, 3.0]), np.zeros(3), n_bins=10)
    assert len(res.bin_mean_sd) == 3


# ---------------------------------------------------------------------------
# discard fraction


def test_discard_zero_fraction_is_overall_rmse():
    rng = np.random.default_rng(10)
    pred = rng.normal(size=100)
    obs = rng.normal(size=100)
    sd = rng.uniform(0.1, 1.0, size=100)
    curve = discard_fraction(sd, pred, obs, fractions=[0.0])
    overall = np.sqrt(np.mean((pred - obs) ** 2))
    assert curve.rmse[0] == pytest.approx(overall, rel=1e-12)


def test_discard_two_sample_example():
    curve = discard_fraction(
        np.array([0.1, 5.0]),
        np.array([0.0, 10.0]),
        np.array([0.0, 0.0]),
        fractions=[0.0, 0.5],
    )
    assert curve.rmse[1] == 0.0
    assert curve.n_retained.tolist() == [2, 1]


def test_discard_monotone_on_calibrated_data():
    rng = np.random.default_rng(11)
    n = 10_000
    sd = rng.uniform(0.2, 2.5, size=n)
    pred = rng.normal(size=n)
    obs = pred + sd * rng.standard_normal(n)
    fractions = np.round(np.arange(0.0, 1.0, 0.05), 2)
    curve = discard_fraction(sd, pred, obs, fractions=fractions)
    violations = sum(b > a for a, b in zip(curve.rmse, curve.rmse[1:]))
    assert violations <= 1


def test_discard_ties_broken_by_index():
    # equal sds: the earliest index is dropped first
    sd = np.array([1.0, 1.0, 1.0, 1.0])
    pred = np.array([10.0, 0.0, 0.0, 0.0])
    obs = np.zeros(4)
    curve = discard_fraction(sd, pred, obs, fractions=[0.0, 0.25])
    assert curve.rmse[1] == 0.0  # sample 0 (error 10) dropped first


def test_discard_skips_empty_retention():
    with pytest.warns(DegenerateInputWarning):
        curve = discard_fraction(
            np.array([1.0]), np.array([1.0]), np.array([0.0]), fractions=[0.0, 0.5]
        )
    assert curve.fractions.tolist() == [0.0]


def test_discard_validates_fractions():
    with pytest.raises(UsageError):
        discard_fraction(np.ones(3), np.ones(3), np.ones(3), fractions=[0.5, 0.1])
    with pytest.raises(UsageError):
        discard_fraction(np.ones(3), np.ones(3), np.ones(3), fractions=[1.0])


# ---------------------------------------------------------------------------
# prediction set and report


def make_decomposition(n=400, seed=12):
    rng = np.random.default_rng(seed)
    alea = rng.uniform(0.2, 1.5, size=n)
    epis = rng.uniform(0.05, 0.8, size=n)
    return (
        UncertaintyDecomposition(
            mean=rng.normal(size=n),
            aleatoric_var=alea,
            epistemic_var=epis,
            total_var=alea + epis,
        ),
        rng,
    )


def test_prediction_set_bounds_and_flags():
    dec, rng = make_decomposition()
    pset = PredictionSet.from_decomposition(dec, mask_percentile=95)
    lo, hi = pset.interval(0.95)
    assert np.array_equal(hi, dec.mean + 1.96 * dec.total_sd)
    assert np.array_equal(lo, dec.mean - 1.96 * dec.total_sd)
    assert np.all(lo <= dec.mean) and np.all(dec.mean <= hi)
    assert pset.flagged.mean() <= 0.05 + 1.0 / len(pset)


def test_evaluate_predictions_full_report():
    dec, rng = make_decomposition(n=2000)
    obs = dec.mean + dec.total_sd * rng.standard_normal(2000)
    pset = PredictionSet.from_decomposition(dec, mask_percentile=95)
    report = evaluate_predictions(pset, obs, levels=(0.70, 0.95))
    assert report.rmse**2 == pytest.approx(report.crmse**2 + report.bias**2, rel=1e-9)
    assert 0.9 < report.picp[0.95] <= 1.0
    assert set(report.pitd_by_kind) == {"aleatoric", "epistemic", "total"}
    assert report.pitd_by_kind["total"].skill > 0.8
    assert report.n_flagged == int(pset.flagged.sum())
    d = metrics.report_to_dict(report)
    assert d["n_samples"] == 2000
    assert "0.95" in d["picp"]


def test_report_dict_layout():
    # report.json's keys in file order, its three renamed fields, "0.7" for a
    # level, null for every NaN and for an empty PICP, lists for the arrays
    nan = float("nan")
    pit = metrics.PitdResult(pitd=0.125, skill=0.5, bin_counts=np.array([3, 1]), n_bins=2)
    report = metrics.EvalReport(
        n_samples=4, bias=-0.5, mae=1.0, rmse=1.5, crmse=1.25, pearson_r=nan,
        picp={0.7: 0.75, 0.95: None},
        pitd_by_kind={"aleatoric": pit, "total": pit},
        discard=metrics.DiscardCurve(
            fractions=np.array([0.0, 0.5]), rmse=np.array([1.5, 0.5]),
            n_retained=np.array([4, 2])),
        spread=metrics.SpreadSkillResult(
            bin_mean_sd=np.array([2.0]), bin_rmse=np.array([1.5]), bin_counts=np.array([4]),
            slope=nan, intercept=nan, r_squared=nan),
        r2_rmse_sigma_total=nan, n_flagged=0, mask_threshold=2.0,
        flagged_excluded_from_picp=True,
    )
    pit_dict = {"pitd": 0.125, "skill": 0.5, "n_bins": 2, "bin_counts": [3, 1]}
    expected = {
        "n_samples": 4, "bias": -0.5, "mae": 1.0, "rmse": 1.5, "crmse": 1.25,
        "pearson_r": None,
        "picp": {"0.7": 0.75, "0.95": None},
        "pitd": {"aleatoric": pit_dict, "total": pit_dict},
        "discard_fraction": {"fractions": [0.0, 0.5], "rmse": [1.5, 0.5], "n_retained": [4, 2]},
        "spread_skill": {"bin_mean_sd": [2.0], "bin_rmse": [1.5], "bin_counts": [4],
                         "slope": None, "intercept": None, "r_squared": None},
        "r2_rmse_sigma_total": None, "n_flagged": 0, "mask_threshold": 2.0,
        "flagged_excluded_from_picp": True,
    }
    d = metrics.report_to_dict(report)
    assert d == expected
    # the same text: key order, and ints apart from floats
    assert json.dumps(d) == json.dumps(expected)
