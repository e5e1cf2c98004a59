from decimal import Decimal, localcontext
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from scipy import integrate, special, stats

from gustuq import evidential, nncore
from gustuq.data import Standardizer
from gustuq.errors import CalibrationWarning, ConfigError, DomainError, NumericError
from gustuq.evidential import (
    NIGParams,
    decompose,
    evidence_regularizer,
    head_transform,
    nig_nll,
    softplus,
    train_evidential,
)
from gustuq.nncore import MLP, TrainConfig

from synth import heteroscedastic_xy, linear_noise_xy


def params(gamma, nu, alpha, beta):
    return NIGParams(
        gamma=np.atleast_1d(np.asarray(gamma, dtype=float)),
        nu=np.atleast_1d(np.asarray(nu, dtype=float)),
        alpha=np.atleast_1d(np.asarray(alpha, dtype=float)),
        beta=np.atleast_1d(np.asarray(beta, dtype=float)),
    )


def nll_quadrature_oracle(gamma, nu, alpha, beta, y, n_mu=240):
    """-log of the NIG-Gaussian marginal via 2-D numerical integration,
    independent of the closed form under test.

    m(y) = int int N(y | mu, s2) N(mu | gamma, s2/nu) InvGamma(s2 | alpha, beta)

    The variance dimension is integrated in probability space (s2 mapped
    through the inverse-gamma quantile function) with adaptive quadrature;
    the mean dimension uses Gauss-Legendre nodes over a window wide enough
    to hold the whole Gaussian product mass.
    """
    ig = stats.invgamma(a=alpha, scale=beta)
    nodes, weights = np.polynomial.legendre.leggauss(n_mu)

    def inner(u):
        s2 = ig.ppf(u)
        sd_y = np.sqrt(s2)
        sd_mu = np.sqrt(s2 / nu)
        # the product of the two normal pdfs concentrates around the
        # precision-weighted center with sd sqrt(s2 / (1 + nu))
        center = (nu * gamma + y) / (nu + 1.0)
        half = 12.0 * np.sqrt(s2 / (1.0 + nu))
        mu = center + half * nodes
        vals = stats.norm.pdf(y, mu, sd_y) * stats.norm.pdf(mu, gamma, sd_mu)
        return half * float((weights * vals).sum())

    marginal, _ = integrate.quad(
        inner, 1e-14, 1.0 - 1e-14, limit=400, epsabs=1e-12, epsrel=1e-9
    )
    return -np.log(marginal)


# ---------------------------------------------------------------------------
# head transform


def test_head_transform_at_zero():
    p = head_transform(np.zeros((1, 4)))
    ln2 = np.log(2.0)
    assert p.gamma[0] == 0.0
    assert p.nu[0] == pytest.approx(ln2 + 1e-6, abs=1e-12)
    assert p.alpha[0] == pytest.approx(1.0 + ln2 + 1e-6, abs=1e-12)
    assert p.beta[0] == pytest.approx(ln2 + 1e-6, abs=1e-12)


def test_head_transform_floor_property():
    p = head_transform(np.array([[0.0, -745.0, -745.0, -745.0]]))
    assert p.nu[0] >= 1e-6
    assert p.beta[0] >= 1e-6
    assert p.alpha[0] >= 1.0 + 1e-6
    assert p.nu[0] == pytest.approx(1e-6, rel=1e-6)


def test_head_transform_softplus_values():
    p = head_transform(np.array([[3.0, 10.0, 10.0, 10.0]]))
    sp10 = softplus(np.array(10.0)) + 1e-6
    assert p.gamma[0] == 3.0
    assert p.nu[0] == pytest.approx(10.0000454, abs=1e-5)
    assert p.nu[0] == pytest.approx(sp10, abs=0)
    assert p.alpha[0] == pytest.approx(11.0000454, abs=1e-5)
    assert p.beta[0] == pytest.approx(10.0000454, abs=1e-5)


def test_head_transform_nonfinite_raises():
    with pytest.raises(NumericError):
        head_transform(np.array([[np.nan, 0.0, 0.0, 0.0]]))


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_worked_example():
    d = decompose(params(5.0, 2.0, 3.0, 4.0))
    assert d.mean[0] == 5.0
    assert d.aleatoric_var[0] == 2.0
    assert d.epistemic_var[0] == 1.0
    assert d.total_var[0] == 3.0
    assert d.aleatoric_sd[0] == pytest.approx(np.sqrt(2.0))
    assert d.epistemic_sd[0] == 1.0
    assert d.total_sd[0] == pytest.approx(np.sqrt(3.0))


def test_decompose_unit_example():
    d = decompose(params(0.0, 1.0, 2.0, 1.0))
    assert d.aleatoric_var[0] == 1.0
    assert d.epistemic_var[0] == 1.0
    assert d.total_var[0] == 2.0


def test_decompose_epistemic_vanishes_as_nu_grows():
    base = decompose(params(0.0, 1.0, 3.0, 2.0))
    grown = decompose(params(0.0, 1e12, 3.0, 2.0))
    assert grown.epistemic_var[0] < 1e-10
    assert grown.aleatoric_var[0] == base.aleatoric_var[0]


def test_decompose_additivity_random():
    rng = np.random.default_rng(0)
    p = params(
        rng.normal(size=1000),
        rng.uniform(0.01, 50, size=1000),
        1.0 + rng.uniform(0.01, 30, size=1000),
        rng.uniform(0.01, 50, size=1000),
    )
    d = decompose(p)
    np.testing.assert_allclose(
        d.total_var, d.aleatoric_var + d.epistemic_var, rtol=1e-12
    )


def test_decompose_monotone_in_nu():
    nus = np.linspace(0.5, 20, 40)
    epis = [decompose(params(0.0, nu, 2.5, 1.7)).epistemic_var[0] for nu in nus]
    alea = [decompose(params(0.0, nu, 2.5, 1.7)).aleatoric_var[0] for nu in nus]
    assert all(b < a for a, b in zip(epis, epis[1:]))
    assert len(set(alea)) == 1


def test_decompose_rejects_alpha_at_most_one():
    with pytest.raises(DomainError):
        decompose(params(0.0, 1.0, 1.0, 1.0))


# ---------------------------------------------------------------------------
# special functions, against scipy.special and exact values


def special_inputs():
    """x over (1, 1e300]: dense on (1, 11], where the shifted series and the
    sum that undoes the shift nearly cancel, log-uniform above, and both ends."""
    rng = np.random.default_rng(3)
    return np.concatenate([
        1.0 + 10.0 * rng.random(200_000), 1.0 + 1e-3 * rng.random(20_000),
        np.exp(rng.uniform(0.0, np.log(1e300), 100_000)), [np.nextafter(1.0, 2.0), 1e300],
    ])


def gap_terms(alpha):
    """The shared terms of NIG parameters with shape ``alpha`` (the gap and
    its derivative read only the alpha terms)."""
    ones = np.ones_like(alpha)
    return evidential._terms(NIGParams(0 * alpha, ones, alpha, ones), 0 * alpha)


GAPS = {"lgamma": (evidential._lgamma_gap, special.gammaln),
        "digamma": (evidential._digamma_gap, special.digamma)}


# error relative to max(1, |scipy f(x)|) (1.3e-15 and 6.7e-16 seen); scipy's
# difference f(x) - f(x + 1/2) holds a few ulps of f(x), and dropping either
# series' last term reads 5.7e-15 and 7.1e-15
@pytest.mark.parametrize("name, bound", [("lgamma", 3e-15), ("digamma", 1.5e-15)])
def test_gap_and_its_derivative_match_scipy(name, bound):
    gap, f = GAPS[name]
    x = special_inputs()
    with np.errstate(all="raise"):
        got = gap(gap_terms(x))
    ref = f(x) - f(x + 0.5)
    assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(f(x)))) <= bound


PI = Decimal("3.141592653589793238462643383279502884197169399375105820974944")


def exact_gaps(n_max):
    """lgamma(n) - lgamma(n + 1/2) and psi(n) - psi(n + 1/2) for n = 1..n_max,
    to 50 digits: Gamma(n + 1/2)/Gamma(n) = sqrt(pi) (2n)! / (4**n n! (n - 1)!)
    and psi(n) - psi(n + 1/2) = H(n - 1) + 2 ln 2 - 2 sum_{k<=n} 1/(2k - 1)."""
    def dec(q):
        return Decimal(q.numerator) / Decimal(q.denominator)

    with localcontext() as ctx:
        ctx.prec = 50
        lgamma_gaps, digamma_gaps = [], []
        harmonic, odd = Fraction(0), Fraction(0)
        for n in range(1, n_max + 1):
            q = Fraction(factorial(2 * n), 4**n * factorial(n) * factorial(n - 1))
            lgamma_gaps.append(float(-PI.ln() / 2 - dec(q).ln()))
            odd += Fraction(1, 2 * n - 1)
            digamma_gaps.append(float(dec(harmonic) + 2 * Decimal(2).ln() - 2 * dec(odd)))
            harmonic += Fraction(1, n)
    return {"lgamma": np.array(lgamma_gaps), "digamma": np.array(digamma_gaps)}


# relative error at alpha = 1..300 (2.2e-15 and 4.4e-16 seen); dropping
# either series' last term reads 4.0e-14 and 1.1e-14
@pytest.mark.parametrize("name, bound", [("lgamma", 5e-15), ("digamma", 2e-15)])
def test_gap_and_its_derivative_match_exact_values(name, bound):
    n = np.arange(1.0, 301.0)
    with np.errstate(all="raise"):
        got = GAPS[name][0](gap_terms(n))
    assert np.max(np.abs(got / exact_gaps(300)[name] - 1.0)) <= bound


def test_expit_matches_scipy():
    # within two ulps of 1, absolute, from -40 to 40 and at +-1e300
    x = np.concatenate([np.linspace(-40.0, 40.0, 100_001), [-1e300, 1e300]])
    with np.errstate(all="raise"):
        got = evidential.expit(x)
    assert np.max(np.abs(got - special.expit(x))) <= 2 * np.finfo(float).eps
    assert got[-2:].tolist() == [0.0, 1.0]


# ---------------------------------------------------------------------------
# negative log likelihood


def test_nll_worked_value():
    value = nig_nll(params(0.0, 1.0, 2.0, 1.0), np.array([0.0]))
    assert value[0] == pytest.approx(0.981, abs=1e-3)


def test_nll_minimized_at_gamma():
    p = params(1.3, 2.0, 3.0, 1.5)
    ys = np.linspace(-4, 6, 101)
    values = np.concatenate([nig_nll(p, np.array([y])) for y in ys])
    assert ys[np.argmin(values)] == pytest.approx(p.gamma[0], abs=0.06)


def test_nll_even_in_distance():
    p = params(0.7, 1.4, 2.2, 0.9)
    for d in (0.1, 1.0, 3.7):
        left = nig_nll(p, np.array([0.7 - d]))
        right = nig_nll(p, np.array([0.7 + d]))
        assert left[0] == pytest.approx(right[0], rel=1e-12)


def test_nll_matches_quadrature_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        gamma = rng.uniform(-3, 3)
        nu = rng.uniform(0.3, 5.0)
        alpha = rng.uniform(1.3, 6.0)
        beta = rng.uniform(0.2, 5.0)
        scale = np.sqrt(beta * (1 + nu) / (nu * alpha))
        y = gamma + rng.uniform(-3, 3) * scale
        closed = nig_nll(params(gamma, nu, alpha, beta), np.array([y]))[0]
        oracle = nll_quadrature_oracle(gamma, nu, alpha, beta, y)
        assert closed == pytest.approx(oracle, abs=1e-3)


# ---------------------------------------------------------------------------
# regularizer


def test_regularizer_zero_at_gamma():
    assert evidence_regularizer(params(2.0, 1.0, 2.0, 1.0), np.array([2.0]))[0] == 0.0


def test_regularizer_worked_value():
    assert evidence_regularizer(params(0.0, 1.0, 2.0, 1.0), np.array([1.0]))[0] == 4.0


def test_regularizer_linear_in_distance():
    p = params(0.0, 1.3, 2.4, 1.0)
    r1 = evidence_regularizer(p, np.array([1.0]))[0]
    r3 = evidence_regularizer(p, np.array([3.0]))[0]
    assert r3 == pytest.approx(3 * r1, rel=1e-12)


# ---------------------------------------------------------------------------
# batch loss and gradients


def batch_loss(raw, y, lam):
    """Mean dual-objective loss of raw outputs and its gradient wrt them."""
    params = head_transform(raw)
    per_sample, terms = evidential._loss_and_terms(params, y, lam)
    grad = evidential._grad_from_terms(raw, params, terms, lam)
    grad /= len(y)
    return float(per_sample.mean()), grad


def test_loss_lambda_zero_equals_mean_nll():
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(16, 4))
    y = rng.normal(size=16)
    loss, _ = batch_loss(raw, y, lam=0.0)
    p = head_transform(raw)
    assert loss == pytest.approx(float(nig_nll(p, y).mean()), rel=1e-12)


def test_loss_with_tuned_coefficient_exceeds_nll():
    rng = np.random.default_rng(4)
    raw = rng.normal(size=(32, 4))
    y = rng.normal(size=32) + 0.5  # guarantees |y - gamma| > 0 somewhere
    loss_reg, _ = batch_loss(raw, y, lam=0.59)
    loss_plain, _ = batch_loss(raw, y, lam=0.0)
    assert loss_reg > loss_plain


def test_loss_negative_lambda_rejected():
    with pytest.raises(ConfigError):
        evidential._loss_and_terms(head_transform(np.zeros((2, 4))), np.zeros(2), lam=-1.0)


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(8, 4))
    y = rng.normal(size=8)
    for lam in (0.0, 0.59, 2.0):
        _, grad = batch_loss(raw, y, lam)
        h = 1e-5
        for i in range(raw.shape[0]):
            for j in range(4):
                up = raw.copy()
                up[i, j] += h
                down = raw.copy()
                down[i, j] -= h
                numeric = (batch_loss(up, y, lam)[0] - batch_loss(down, y, lam)[0]) / (2 * h)
                denom = max(1e-6, abs(numeric) + abs(grad[i, j]))
                assert abs(grad[i, j] - numeric) / denom <= 1e-3


def objective(model, x, y, lam):
    """The training objective on the no-grad forward pass."""
    return evidential.total_loss(model, head_transform(nncore.forward(model, x)[0]), y, lam)


def draw_smooth_case(rng, margin=1e-2):
    """Model + batch whose pre-activations and residuals sit away from the
    leaky-ReLU and |y - gamma| kinks, so central differences at h=1e-4 are
    valid (no perturbation can cross a nondifferentiable point)."""
    while True:
        n_hidden = int(rng.integers(0, 3))
        hidden = [int(rng.integers(2, 9)) for _ in range(n_hidden)]
        d = int(rng.integers(1, 4))
        lam = float(rng.uniform(0, 1.0))
        model = MLP.create(d, hidden, rng, l1=1e-4, l2=1e-4)
        x = rng.normal(size=(5, d))
        y = rng.normal(size=5)
        out, _ = nncore.forward(model, x)
        z_margin, a = np.inf, x
        for layer in model.layers[:-1]:
            z = a @ layer.weights + layer.bias
            z_margin = min(z_margin, float(np.abs(z).min()))
            a = np.where(z > 0, z, model.leaky_slope * z)
        d_margin = float(np.abs(y - head_transform(out).gamma).min())
        if z_margin > margin and d_margin > margin:
            return model, x, y, lam


def check_step_gradients(model, x, y, lam, h=1e-4):
    """Assert that the training step's gradients match central differences
    of :func:`objective` within 1e-3 relative; return the parameter count."""
    _, analytic = evidential.step_gradients(model, x, y, lam, None)
    checked = 0
    for li, layer in enumerate(model.layers):
        for param, grad in ((layer.weights, analytic.weights[li]),
                            (layer.bias, analytic.biases[li])):
            for idx in np.ndindex(param.shape):
                orig = param[idx]
                param[idx] = orig + h
                up = objective(model, x, y, lam)
                param[idx] = orig - h
                down = objective(model, x, y, lam)
                param[idx] = orig
                numeric = (up - down) / (2 * h)
                a = grad[idx]
                assert abs(a - numeric) / max(1e-6, abs(a) + abs(numeric)) <= 1e-3
                checked += 1
    return checked


def test_full_chain_gradient_matches_finite_differences():
    # the training step's gradients through head_transform and the MLP vs
    # central differences on 10 random small configurations
    rng = np.random.default_rng(99)
    for trial in range(10):
        check_step_gradients(*draw_smooth_case(rng))


def test_step_loss_of_one_block_is_total_loss_bit_for_bit():
    # At dropout 0 the train-mode and no-grad forward passes agree, so the
    # step's loss is the validation objective of the same rows.
    rng = np.random.default_rng(12)
    model = MLP.create(3, [16, 8], rng, l1=1e-3, l2=2e-3)
    x = rng.normal(size=(300, 3))
    y = rng.uniform(0.0, 20.0, size=300)
    loss, _ = evidential.step_gradients(model, x, y, 0.59, None)
    assert loss == objective(model, x, y, 0.59)


def test_loss_nonfinite_reports_sample_index():
    raw = np.zeros((4, 4))
    y = np.array([0.0, 0.0, np.inf, 0.0])
    with pytest.raises(NumericError, match="sample index 2"):
        evidential._loss_and_terms(head_transform(raw), y, lam=0.0)


def separate_loss_and_grad(raw, y, lam):
    """Per-sample loss and raw-output gradient, each formula written out in
    full and on its own, with the module's own lgamma gap, digamma gap and
    expit: the shared terms of the training step must give these bits."""
    p = head_transform(raw)
    d = y - p.gamma
    omega = 2.0 * p.beta * (1.0 + p.nu)
    s = p.nu * d**2 + omega
    alpha_terms = gap_terms(p.alpha)
    nll = (
        0.5 * (np.log(np.pi) - np.log(p.nu))
        - p.alpha * np.log(omega)
        + (p.alpha + 0.5) * np.log(s)
        + evidential._lgamma_gap(alpha_terms)
    )
    reg = np.abs(y - p.gamma) * (2.0 * p.nu + p.alpha)
    a_half = p.alpha + 0.5
    dg = a_half * (-2.0 * p.nu * d) / s
    dn = -0.5 / p.nu - p.alpha * (2.0 * p.beta) / omega + a_half * (d**2 + 2.0 * p.beta) / s
    da = -np.log(omega) + np.log(s) + evidential._digamma_gap(alpha_terms)
    db = 2.0 * (1.0 + p.nu) * (-p.alpha / omega + a_half / s)
    if lam > 0:
        dg = dg - lam * np.sign(d) * (2.0 * p.nu + p.alpha)
        dn = dn + lam * 2.0 * np.abs(d)
        da = da + lam * np.abs(d)
    expit = evidential.expit
    grad = np.stack([dg, dn * expit(raw[:, 1]), da * expit(raw[:, 2]), db * expit(raw[:, 3])], 1)
    return nll, reg, (nll + lam * reg if lam > 0 else nll), grad


@pytest.mark.parametrize("lam", [0.0, 0.59])
def test_shared_terms_give_the_separate_formulas_bit_for_bit(lam):
    # raw outputs from near 0 to far into both softplus tails, targets near
    # and far from gamma, one of them exactly at gamma (d == 0)
    rng = np.random.default_rng(21)
    raw = rng.normal(size=(600, 4)) * np.repeat([0.3, 3.0, 30.0], 200)[:, None]
    y = raw[:, 0] + rng.normal(size=600) * np.tile([0.01, 1.0, 100.0], 200)
    y[7] = raw[7, 0]
    nll, reg, loss, grad = separate_loss_and_grad(raw, y, lam)
    p = head_transform(raw)
    per_sample, terms = evidential._loss_and_terms(p, y, lam)
    assert np.array_equal(per_sample, loss)
    assert np.array_equal(evidential._grad_from_terms(raw, p, terms, lam), grad)
    assert np.array_equal(nig_nll(p, y), nll)
    assert np.array_equal(evidence_regularizer(p, y), reg)


def test_shared_term_loss_names_the_sample_index_from_first_row():
    raw = np.zeros((6, 4))
    y = np.zeros(6)
    y[4] = np.nan
    for lam in (0.0, 0.59):
        with pytest.raises(NumericError, match=r"sample index 1028$"):
            evidential._loss_and_terms(head_transform(raw), y, lam, first_row=1024)


def test_first_step_does_not_increase_loss_for_small_lr():
    rng = np.random.default_rng(7)
    model = MLP.create(2, [8], rng)
    x = rng.normal(size=(32, 2))
    y = rng.normal(size=32)
    out, cache = nncore.forward(model, x, train_mode=True)
    loss_before, grad_raw = batch_loss(out, y, lam=0.0)
    grads = nncore.backward(model, cache, grad_raw)
    nncore.Adam(1e-4).step(model, grads)
    out_after, _ = nncore.forward(model, x)
    loss_after, _ = batch_loss(out_after, y, lam=0.0)
    assert loss_after <= loss_before + 1e-12


# ---------------------------------------------------------------------------
# training


def test_validation_pass_computes_no_gradient(monkeypatch):
    # the digamma gap is evaluated only by the loss gradient: once per
    # training block, never in the validation pass. 2,100 rows in batches of
    # 1,500 are steps of 1,500 and 600 rows, so three blocks per epoch.
    calls = []
    digamma_gap = evidential._digamma_gap

    def counting(t):
        calls.append(len(t.a8))
        return digamma_gap(t)

    monkeypatch.setattr(evidential, "_digamma_gap", counting)
    x, y = linear_noise_xy(2400, seed=4)
    _, log = train_evidential(
        x[:2100], y[:2100], x[2100:], y[2100:],
        hidden_sizes=[8],
        config=TrainConfig(learning_rate=1e-3, batch_size=1500, max_epochs=3, patience=10, seed=0),
    )
    assert len(log) == 3
    assert sorted(calls) == sorted([1024, 476, 600] * len(log))


@pytest.fixture(scope="module")
def linear_model():
    x, y = linear_noise_xy(2000, seed=11)
    model, log = train_evidential(
        x[:1600], y[:1600], x[1600:], y[1600:],
        hidden_sizes=[16],
        config=TrainConfig(learning_rate=5e-3, batch_size=256, max_epochs=200,
                           patience=20, evidential_coef=0.1, seed=1),
    )
    return model, log, (x, y)


def test_train_linear_reaches_noise_floor(linear_model):
    model, log, (x, y) = linear_model
    best_mae = min(e.val_mae for e in log)
    assert best_mae < 0.15
    assert len(log) <= 200


def test_train_deterministic_per_seed():
    x, y = linear_noise_xy(400, seed=5)
    kwargs = dict(
        hidden_sizes=[8],
        config=TrainConfig(learning_rate=5e-3, batch_size=128, max_epochs=12,
                           patience=12, evidential_coef=0.1, seed=3),
    )
    model_a, log_a = train_evidential(x[:300], y[:300], x[300:], y[300:], **kwargs)
    model_b, log_b = train_evidential(x[:300], y[:300], x[300:], y[300:], **kwargs)
    assert log_a == log_b
    for la, lb in zip(model_a.mlp.layers, model_b.mlp.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)


def test_float32_training_draws_what_float64_training_draws(monkeypatch):
    # A float32 run casts the float64 initial weights, and the features after
    # they are standardized in float64, so it trains on the same rows in the
    # same order through the same keep-masks; its validation params, from the
    # float64 head, stay float64.
    forward = nncore.forward
    runs = []

    def spy(model, batch, train_mode=False, rng=None, first_row=0):
        if train_mode and not runs[-1]:
            runs[-1].append([layer.weights.copy() for layer in model.layers])
        out, cache = forward(model, batch, train_mode, rng, first_row)
        if train_mode:
            runs[-1].append((batch.copy(), [keep.copy() for keep in cache.keeps]))
        return out, cache

    monkeypatch.setattr(nncore, "forward", spy)
    x, y = raw_features_xy(400, seed=7)
    std = Standardizer.fit(x[:300])
    models = {}
    for dtype in (np.float64, np.float32):
        runs.append([])
        models[dtype], _ = train_evidential(
            x[:300], y[:300], x[300:], y[300:], hidden_sizes=[8, 8], dropout=0.2,
            standardizer=std, dtype=dtype,
            config=TrainConfig(batch_size=64, max_epochs=2, patience=2, seed=4))
    (init64, *steps64), (init32, *steps32) = runs
    assert [w.astype(np.float32).tobytes() for w in init64] == [w.tobytes() for w in init32]
    assert len(steps64) == len(steps32) == 2 * 5
    for (batch64, keeps64), (batch32, keeps32) in zip(steps64, steps32):
        assert batch32.dtype == np.float32
        assert batch32.tobytes() == batch64.astype(np.float32).tobytes()
        assert all(np.array_equal(k64, k32) for k64, k32 in zip(keeps64, keeps32))
    assert models[np.float32].mlp.dtype == np.float32
    for name in ("gamma", "nu", "alpha", "beta"):
        assert getattr(models[np.float32].validation_params, name).dtype == np.float64


def test_validation_params_are_the_kept_weights_prediction():
    # the validation pass of the best epoch is handed back with its weights,
    # so callers need not run it again: same bits as predicting anew
    x, y = raw_features_xy(600, seed=6)
    std = Standardizer.fit(x[:450])
    model, log = train_evidential(
        x[:450], y[:450], x[450:], y[450:], hidden_sizes=[16], standardizer=std,
        config=TrainConfig(learning_rate=2e-2, batch_size=64, max_epochs=40, patience=3,
                           evidential_coef=0.1, seed=2),
    )
    best = min(range(len(log)), key=lambda i: log[i].val_mae)
    assert best < len(log) - 1  # training went on past the kept weights
    got, want = evidential.decompose(model.validation_params), model.predict(x[450:])
    for name in ("mean", "aleatoric_var", "epistemic_var", "total_sd"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert float(np.mean(np.abs(got.mean - y[450:]))) == log[best].val_mae


def raw_features_xy(n: int, seed: int):
    """Three raw feature columns on very different scales, y linear in them."""
    rng = np.random.default_rng(seed)
    x = rng.normal([5.0, -300.0, 0.01], [2.0, 80.0, 0.003], size=(n, 3))
    y = (x - [5.0, -300.0, 0.01]) / [2.0, 80.0, 0.003] @ [1.0, -0.5, 0.25]
    return x, y + 0.1 * rng.standard_normal(n)


def test_train_applies_the_given_standardizer_to_raw_features():
    # the model owns its scaling: training on raw features with a fitted
    # standardizer is bit for bit training on the features scaled by hand
    x, y = raw_features_xy(600, seed=4)
    std = Standardizer.fit(x[:450])
    kwargs = dict(
        hidden_sizes=[16, 8], dropout=0.1, l1=1e-5, l2=1e-4,
        config=TrainConfig(learning_rate=5e-3, batch_size=64, max_epochs=6,
                           patience=6, evidential_coef=0.1, seed=2),
    )
    owned, log_owned = train_evidential(x[:450], y[:450], x[450:], y[450:],
                                        standardizer=std, **kwargs)
    by_hand, log_by_hand = train_evidential(std.apply(x[:450]), y[:450],
                                            std.apply(x[450:]), y[450:], **kwargs)
    assert log_owned == log_by_hand
    for a, b in zip(owned.mlp.layers, by_hand.mlp.layers):
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()
    assert owned.standardizer is std
    got, want = owned.predict(x), by_hand.predict(std.apply(x))
    for name in ("mean", "aleatoric_var", "epistemic_var"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


@pytest.fixture(scope="module")
def hetero_model():
    # also the calibration-recovery configuration exercised by the
    # acceptance suite: a single width-128 layer, full 200 epochs, small
    # evidential coefficient
    x, y, _ = heteroscedastic_xy(5000, seed=42)
    n_train = 4000
    model, log = train_evidential(
        x[:n_train], y[:n_train], x[n_train:], y[n_train:],
        hidden_sizes=[128],
        config=TrainConfig(learning_rate=3e-3, batch_size=128, max_epochs=200,
                           patience=200, evidential_coef=0.01, seed=7),
    )
    return model, log, (x, y)


def test_train_heteroscedastic_aleatoric_ordering(hetero_model):
    model, _, _ = hetero_model
    rng = np.random.default_rng(0)
    x_eval = rng.uniform(-1, 1, size=4000)
    dec = model.predict(x_eval)
    high = np.abs(x_eval) >= 0.9
    low = np.abs(x_eval) <= 0.1
    assert dec.aleatoric_sd[high].mean() > dec.aleatoric_sd[low].mean()


def test_epistemic_grows_out_of_distribution(hetero_model):
    model, _, _ = hetero_model
    sds = [model.predict(np.array([float(v)])).epistemic_sd[0] for v in (2.0, 3.0, 4.0)]
    assert sds[0] < sds[1] < sds[2]


def test_empty_split_rejected():
    with pytest.raises(ConfigError):
        train_evidential(
            np.empty((0, 1)), np.empty(0), np.zeros((3, 1)), np.zeros(3),
            hidden_sizes=[4], config=TrainConfig(),
        )


def test_inflated_uncertainty_warning(monkeypatch):
    monkeypatch.setattr(evidential, "INFLATION_GUARD_FACTOR", 1e-6)
    x, y = linear_noise_xy(200, seed=9)
    with pytest.warns(CalibrationWarning):
        train_evidential(
            x[:150], y[:150], x[150:], y[150:],
            hidden_sizes=[4],
            config=TrainConfig(learning_rate=1e-3, batch_size=64, max_epochs=2,
                               patience=5, evidential_coef=0.1, seed=0),
        )


def test_to_target_units_is_the_affine_map_bit_for_bit():
    # y = scale * z + offset takes NIG(gamma, nu, alpha, beta) of z to
    # NIG(scale * gamma + offset, nu, alpha, scale**2 * beta) of y
    rng = np.random.default_rng(8)
    params = head_transform(rng.normal(size=(50, 4)))
    offset, scale = 7.25, 3.1
    mapped = evidential.to_target_units(
        params, Standardizer(np.array([offset]), np.array([scale])))
    assert mapped.gamma.tobytes() == (params.gamma * scale + offset).tobytes()
    assert mapped.beta.tobytes() == (scale * scale * params.beta).tobytes()
    assert mapped.nu.tobytes() == params.nu.tobytes()
    assert mapped.alpha.tobytes() == params.alpha.tobytes()


def test_train_with_a_target_scale_is_training_on_scaled_targets():
    # the network learns the scaled targets bit for bit as if they were
    # scaled by hand; the validation MAE and params come back in target units
    x, y = raw_features_xy(600, seed=4)
    y = 12.0 + 4.0 * y
    std, target_scale = Standardizer.fit(x[:450]), Standardizer.fit(y[:450])
    kwargs = dict(
        hidden_sizes=[16], dropout=0.1, standardizer=std,
        config=TrainConfig(learning_rate=5e-3, batch_size=64, max_epochs=6,
                           patience=6, evidential_coef=0.1, seed=2),
    )
    owned, log_owned = train_evidential(x[:450], y[:450], x[450:], y[450:],
                                        target_scale=target_scale, **kwargs)
    z = target_scale.apply(y)[:, 0]
    by_hand, log_by_hand = train_evidential(x[:450], z[:450], x[450:], z[450:], **kwargs)
    for a, b in zip(owned.mlp.layers, by_hand.mlp.layers):
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()
    assert [e.train_loss for e in log_owned] == [e.train_loss for e in log_by_hand]
    assert [e.val_loss for e in log_owned] == [e.val_loss for e in log_by_hand]
    assert owned.target_scale is target_scale
    got = owned.predict_params(x[450:])
    want = evidential.to_target_units(by_hand.predict_params(x[450:]), target_scale)
    for name in ("gamma", "nu", "alpha", "beta"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    best = min(range(len(log_owned)), key=lambda i: log_owned[i].val_mae)
    val = evidential.decompose(owned.validation_params)
    assert val.mean.tobytes() == owned.predict(x[450:]).mean.tobytes()
    assert float(np.mean(np.abs(val.mean - y[450:]))) == log_owned[best].val_mae


def test_library_default_target_scale_is_a_pass_through():
    x, y = raw_features_xy(200, seed=5)
    config = TrainConfig(learning_rate=5e-3, batch_size=64, max_epochs=3, seed=1)
    model, _ = train_evidential(x[:150], y[:150], x[150:], y[150:], hidden_sizes=[8],
                                config=config)
    scale = model.target_scale
    assert (scale.offset.tolist(), scale.scale.tolist()) == ([0.0], [1.0])
    assert scale.apply(y)[:, 0].tobytes() == y.tobytes()
