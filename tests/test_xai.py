import os
import warnings

import numpy as np
import pytest

from gustuq import parallel, xai
from gustuq.errors import DegenerateInputWarning, UsageError
from gustuq.xai import explain, partial_dependence, permutation_importance

from markers import needs_two_cpus


def linear_predictor(weights, noise_in_sd=0.0):
    """Deterministic fake model: mean = X @ w, total sd = 1 + |mean|/10."""
    w = np.asarray(weights, dtype=float)

    def predict(matrix):
        mean = matrix @ w
        return mean, 1.0 + np.abs(mean) / 10.0

    return predict


# ---------------------------------------------------------------------------
# permutation importance


def test_pfi_irrelevant_feature_near_zero():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(600, 3))
    y = 5.0 * x[:, 0] + rng.normal(0, 0.5, size=600)  # column 2 ignored
    predict = linear_predictor([5.0, 0.0, 0.0])
    res = permutation_importance(predict, x, y, n_shuffles=10, seed=1)
    irrelevant = res.features[2]
    assert abs(irrelevant.delta_rmse_mean) <= max(2 * irrelevant.delta_rmse_sd, 1e-9)


def test_pfi_dominant_feature_ranks_first():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(500, 4))
    y = 5.0 * x[:, 1] + rng.normal(0, 0.3, size=500)
    predict = linear_predictor([0.2, 5.0, 0.1, 0.0])
    res = permutation_importance(predict, x, y, n_shuffles=10, seed=2)
    assert res.ranked_by_rmse()[0].feature == "feature_1"


def test_pfi_shuffle_of_constant_column_gives_exact_zero():
    # shuffling a constant column leaves the matrix, and so every score, as
    # it was; the target varies apart from the prediction, so r2 is finite
    rng = np.random.default_rng(2)
    x = rng.normal(size=(50, 3))
    x[:, 1] = -1.5
    y = x @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=50)
    res = permutation_importance(linear_predictor([1.0, -2.0, 0.5]), x, y, n_shuffles=4, seed=3)
    assert np.isfinite(res.baseline_r2)
    f = res.features[1]
    assert (f.delta_rmse_mean, f.delta_rmse_sd, f.delta_r2_mean, f.delta_r2_sd) == (0, 0, 0, 0)
    assert res.features[0].delta_rmse_mean > 0


def test_pfi_constant_feature_noted():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(60, 2))
    x[:, 1] = 4.2
    y = x[:, 0]
    res = permutation_importance(linear_predictor([1.0, 0.0]), x, y, seed=0)
    assert res.features[1].delta_rmse_mean == 0.0
    assert "constant" in res.features[1].note


def test_pfi_invariant_to_column_order():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(300, 3))
    y = 2.0 * x[:, 0] - 1.0 * x[:, 2] + rng.normal(0, 0.2, size=300)
    res_a = permutation_importance(
        linear_predictor([2.0, 0.0, -1.0]), x, y, seed=9,
        feature_names=["a", "b", "c"],
    )
    perm_cols = [2, 0, 1]
    res_b = permutation_importance(
        linear_predictor([-1.0, 2.0, 0.0]), x[:, perm_cols], y, seed=9,
        feature_names=["c", "a", "b"],
    )
    by_name_a = {f.feature: f for f in res_a.features}
    by_name_b = {f.feature: f for f in res_b.features}
    for name in ("a", "b", "c"):
        assert by_name_a[name].delta_rmse_mean == by_name_b[name].delta_rmse_mean
        assert by_name_a[name].delta_rmse_sd == by_name_b[name].delta_rmse_sd


def test_pfi_bitwise_reproducible():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(200, 2))
    y = x[:, 0] + rng.normal(size=200)
    predict = linear_predictor([1.0, 0.3])
    a = permutation_importance(predict, x, y, seed=123)
    b = permutation_importance(predict, x, y, seed=123)
    for fa, fb in zip(a.features, b.features):
        assert fa == fb


def test_pfi_validation():
    predict = linear_predictor([1.0])
    with pytest.raises(UsageError):
        permutation_importance(predict, np.ones((1, 1)), np.ones(1))
    with pytest.raises(UsageError):
        permutation_importance(predict, np.ones((5, 1)), np.ones(4))


# ---------------------------------------------------------------------------
# partial dependence


def test_pdp_ignored_feature_is_constant_curve():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(80, 2))
    res = partial_dependence(linear_predictor([3.0, 0.0]), x, 1, n_grid=20)
    assert np.ptp(res.pred_mean) == 0.0
    assert np.ptp(res.uncertainty_mean) == 0.0


def test_pdp_linear_model_recovers_slope():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(100, 1)) * 2.0
    res = partial_dependence(linear_predictor([2.0]), x, 0, n_grid=100)
    slopes = np.diff(res.pred_mean) / np.diff(res.grid)
    np.testing.assert_allclose(slopes, 2.0, rtol=1e-9)


def test_pdp_grid_spans_observed_range():
    rng = np.random.default_rng(8)
    x = rng.uniform(-3.0, 7.0, size=(50, 2))
    res = partial_dependence(linear_predictor([1.0, 1.0]), x, 0, n_grid=100)
    assert res.grid[0] == x[:, 0].min()
    assert res.grid[-1] == x[:, 0].max()
    assert len(res.grid) == 100
    steps = np.diff(res.grid)
    np.testing.assert_allclose(steps, steps[0], rtol=1e-9)
    assert np.all(steps > 0)


def test_pdp_matches_row_by_row_oracle():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(50, 3))

    def quirky(matrix):
        mean = np.tanh(matrix[:, 0]) + matrix[:, 1] ** 2 - 0.3 * matrix[:, 2]
        return mean, np.exp(0.1 * matrix[:, 0]) + 0.5

    res = partial_dependence(quirky, x, 0, n_grid=7)
    for g, v in enumerate(res.grid):
        means, sds = [], []
        for i in range(x.shape[0]):
            row = x[i].copy()
            row[0] = v
            m, s = quirky(row[None, :])
            means.append(m[0])
            sds.append(s[0])
        assert res.pred_mean[g] == pytest.approx(np.mean(means), abs=1e-12)
        assert res.pred_sd[g] == pytest.approx(np.std(means), abs=1e-12)
        assert res.uncertainty_mean[g] == pytest.approx(np.mean(sds), abs=1e-12)
        assert res.uncertainty_sd[g] == pytest.approx(np.std(sds), abs=1e-12)


def test_pdp_zero_range_feature_single_point():
    x = np.column_stack([np.full(10, 2.0), np.arange(10.0)])
    with pytest.warns(DegenerateInputWarning):
        res = partial_dependence(linear_predictor([1.0, 1.0]), x, 0)
    assert res.grid.tolist() == [2.0]


def test_pdp_unknown_feature_rejected():
    x = np.ones((5, 2))
    with pytest.raises(UsageError):
        partial_dependence(linear_predictor([1.0, 1.0]), x, "nope", feature_names=["a", "b"])
    with pytest.raises(UsageError):
        partial_dependence(linear_predictor([1.0, 1.0]), x, 5)


@pytest.mark.parametrize("n_grid", [0, -1])
def test_pdp_empty_grid_rejected(n_grid):
    x = np.column_stack([np.full(10, 2.0), np.arange(10.0)])
    for feature in (0, 1):  # zero-range and ordinary column alike
        with pytest.raises(UsageError, match="at least one grid point"):
            partial_dependence(linear_predictor([1.0, 1.0]), x, feature, n_grid=n_grid)


# ---------------------------------------------------------------------------
# explain: every evaluation of one call, cut over the usable CPUs


def quirky_predictor(matrix):
    mean = np.tanh(matrix[:, 0]) + matrix[:, 1] ** 2 - 0.3 * matrix[:, 2]
    return mean, np.exp(0.1 * matrix[:, 0]) + 0.5 + 0.1 * np.abs(mean)


def split_inputs():
    """2,000 rows x (1 + 3 x 3 + 3 x 100) evaluations: two pieces on two CPUs."""
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2000, 3))
    return x, quirky_predictor(x)[0] + rng.normal(0, 0.3, size=2000)


def counted_forks(monkeypatch) -> list:
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def test_explain_gives_the_bits_of_one_piece_and_of_the_separate_calls(monkeypatch):
    x, y = split_inputs()
    assert x.shape[0] * (1 + 3 * 3 + 3 * 100) >= 2 * xai.MIN_PIECE_ROW_EVALS
    forks = counted_forks(monkeypatch)
    pfi, curves = explain(quirky_predictor, x, y, n_shuffles=3, seed=4)
    assert len(forks) == (1 if parallel.usable_cpus() > 1 else 0)

    monkeypatch.setattr(xai, "MIN_PIECE_ROW_EVALS", 10**9)
    one_pfi, one_curves = explain(quirky_predictor, x, y, n_shuffles=3, seed=4)
    separate = [partial_dependence(quirky_predictor, x, j) for j in range(3)]
    assert len(forks) == (1 if parallel.usable_cpus() > 1 else 0)
    assert pfi == one_pfi == permutation_importance(quirky_predictor, x, y, n_shuffles=3, seed=4)
    for curve, *others in zip(curves, one_curves, separate):
        for other in others:
            assert curve.feature == other.feature
            for name in ("grid", "pred_mean", "pred_sd", "uncertainty_mean", "uncertainty_sd"):
                assert getattr(curve, name).tobytes() == getattr(other, name).tobytes(), name


@needs_two_cpus
def test_predict_fn_failing_in_a_worker_range_raises_in_the_caller():
    x, y = split_inputs()
    caller = os.getpid()

    def failing(matrix):
        if os.getpid() != caller:
            raise ValueError("bad matrix in a worker")
        return quirky_predictor(matrix)

    with pytest.raises(ValueError, match="^bad matrix in a worker$"):
        explain(failing, x, y, n_shuffles=3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_two_cpus
def test_warning_in_a_worker_range_reaches_the_caller():
    x, y = split_inputs()
    caller = os.getpid()

    def warning(matrix):
        if os.getpid() != caller and matrix[0, 2] == x[:, 2].max():  # the last grid value
            warnings.warn("the last grid value", DegenerateInputWarning)
        return quirky_predictor(matrix)

    with pytest.warns(DegenerateInputWarning, match="the last grid value"):
        explain(warning, x, y, n_shuffles=3)


def test_explain_of_a_small_input_forks_nothing(monkeypatch):
    rng = np.random.default_rng(13)
    x = rng.normal(size=(120, 3))
    forks = counted_forks(monkeypatch)
    pfi, curves = explain(quirky_predictor, x, x[:, 0], n_shuffles=4, n_grid=20)
    assert forks == [] and len(pfi.features) == len(curves) == 3
