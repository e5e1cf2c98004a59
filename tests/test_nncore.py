import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gustuq import evidential, nncore
from gustuq.errors import ConfigError, DimensionError, NumericError, UsageError
from gustuq.nncore import MLP, Adam, Layer, TrainConfig

from test_evidential import batch_loss


def small_model(rng, input_dim=3, hidden=(4,), dropout=0.0, l1=0.0, l2=0.0):
    return MLP.create(input_dim, list(hidden), rng, dropout=dropout, l1=l1, l2=l2)


class MaskGenerator:
    """A generator stand-in that hands train-mode forward set keep-masks:
    each ``random(shape)`` returns the next mask of ``keeps`` as 1.0 where a
    unit is kept and 0.0 where it is dropped."""

    def __init__(self, keeps):
        self.draws = [np.where(keep, 1.0, 0.0) for keep in keeps]

    def random(self, shape):
        draw = self.draws.pop(0)
        assert draw.shape == shape
        return draw


def quadratic_loss(model, batch):
    """0.5 * mean(out^2) + penalties; analytic upstream grad is out / out.size."""
    out, cache = nncore.forward(model, batch, train_mode=True)
    loss = 0.5 * float(np.mean(out**2)) + nncore.penalty_loss(model)
    grad_out = out / out.size
    return loss, cache, grad_out


def numeric_grads(model, batch, h=1e-4):
    """Central finite differences of quadratic_loss over every parameter."""
    grads_w, grads_b = [], []
    for layer in model.layers:
        gw = np.zeros_like(layer.weights)
        for idx in np.ndindex(layer.weights.shape):
            orig = layer.weights[idx]
            layer.weights[idx] = orig + h
            up, _, _ = quadratic_loss(model, batch)
            layer.weights[idx] = orig - h
            down, _, _ = quadratic_loss(model, batch)
            layer.weights[idx] = orig
            gw[idx] = (up - down) / (2 * h)
        gb = np.zeros_like(layer.bias)
        for idx in np.ndindex(layer.bias.shape):
            orig = layer.bias[idx]
            layer.bias[idx] = orig + h
            up, _, _ = quadratic_loss(model, batch)
            layer.bias[idx] = orig - h
            down, _, _ = quadratic_loss(model, batch)
            layer.bias[idx] = orig
            gb[idx] = (up - down) / (2 * h)
        grads_w.append(gw)
        grads_b.append(gb)
    return grads_w, grads_b


def rel_err(a, b):
    return np.abs(a - b) / np.maximum(1e-6, np.abs(a) + np.abs(b))


# ---------------------------------------------------------------------------
# forward


def test_forward_zero_weights_returns_bias():
    layers = [Layer(weights=np.zeros((3, 4)), bias=np.array([1.0, -2.0, 0.5, 3.0]))]
    model = MLP(layers=layers)
    out, _ = nncore.forward(model, np.random.default_rng(0).normal(size=(6, 3)))
    assert np.array_equal(out, np.tile(model.layers[0].bias, (6, 1)))


def test_forward_identity_single_layer():
    model = MLP(layers=[Layer(weights=np.eye(5), bias=np.zeros(5))])
    batch = np.random.default_rng(1).normal(size=(7, 5))
    out, _ = nncore.forward(model, batch)
    assert np.array_equal(out, batch)


def test_forward_train_mode_deterministic_given_rng_state():
    rng = np.random.default_rng(3)
    model = small_model(rng, dropout=0.3)
    batch = rng.normal(size=(5, 3))
    out1, _ = nncore.forward(model, batch, train_mode=True, rng=np.random.default_rng(42))
    out2, _ = nncore.forward(model, batch, train_mode=True, rng=np.random.default_rng(42))
    assert np.array_equal(out1, out2)


def test_forward_shape_mismatch():
    model = small_model(np.random.default_rng(0), input_dim=3)
    with pytest.raises(DimensionError):
        nncore.forward(model, np.zeros((2, 5)))


def test_forward_dropout_without_rng_is_usage_error():
    model = small_model(np.random.default_rng(0), dropout=0.2)
    with pytest.raises(UsageError):
        nncore.forward(model, np.zeros((2, 3)), train_mode=True)


def test_dropout_rate_bounds():
    with pytest.raises(ConfigError):
        small_model(np.random.default_rng(0), dropout=0.6)


@pytest.mark.parametrize("name, value, message", [
    ("dropout", float("nan"), "dropout must be in [0, 0.5], got nan"),
    ("l1", -1.0, "l1 must be finite and >= 0, got -1.0"),
    ("l2", float("inf"), "l2 must be finite and >= 0, got inf"),
    ("l1", float("nan"), "l1 must be finite and >= 0, got nan"),
])
def test_network_refuses_settings_outside_their_rules(name, value, message):
    # a NaN or infinite penalty would reach the weights, not the check
    with pytest.raises(ConfigError) as err:
        small_model(np.random.default_rng(0), **{name: value})
    assert str(err.value) == message


CHUNK = nncore.BLOCK_ROWS


@given(
    input_dim=st.integers(1, 12),
    hidden=st.lists(st.integers(1, 70), min_size=0, max_size=3),
    output_dim=st.integers(1, 5),
    n_rows=st.sampled_from([0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7]),
    slope=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_nograd_forward_matches_cached_path(input_dim, hidden, output_dim, n_rows, slope, seed):
    rng = np.random.default_rng(seed)
    model = MLP.create(input_dim, hidden, rng, output_dim=output_dim)
    model = dataclasses.replace(model, leaky_slope=slope)
    for layer in model.layers:
        layer.bias[:] = rng.normal(size=layer.bias.shape)
    batch = rng.normal(size=(n_rows, input_dim))
    out, cache = nncore.forward(model, batch)
    ref, ref_cache = nncore.forward(model, batch, train_mode=True)
    assert cache is None
    assert ref_cache is not None
    assert out.shape == ref.shape == (n_rows, output_dim)
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)
    with pytest.raises(UsageError):
        nncore.backward(model, None, out)


# ---------------------------------------------------------------------------
# training step, bit for bit against the plain-expression reference


def reference_forward(model, batch, rng=None, keeps=None):
    """Train-mode forward written with np.where and out-of-place updates.

    Each hidden layer's keep-mask is ``rng.random(shape) >= dropout`` drawn
    here, or the given ``keeps`` entry."""
    inputs, pre_acts, masks = [], [], []
    a = batch
    for i, layer in enumerate(model.layers[:-1]):
        inputs.append(a)
        z = a @ layer.weights + layer.bias
        pre_acts.append(z)
        a = np.where(z > 0, z, model.leaky_slope * z)
        mask = None
        if model.dropout > 0:
            keep = rng.random(a.shape) >= model.dropout if keeps is None else keeps[i]
            mask = keep / (1.0 - model.dropout)
            a = a * mask
        masks.append(mask)
    inputs.append(a)
    out = a @ model.layers[-1].weights + model.layers[-1].bias
    return out, inputs, pre_acts, masks


def reference_backward(model, inputs, pre_acts, masks, grad_output):
    d_weights, d_biases = [], []
    delta = grad_output
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        dw = inputs[i].T @ delta
        if model.l1 > 0:
            dw = dw + model.l1 * np.sign(layer.weights)
        if model.l2 > 0:
            dw = dw + 2.0 * model.l2 * layer.weights
        d_weights.insert(0, dw)
        d_biases.insert(0, delta.sum(axis=0))
        if i > 0:
            delta = delta @ layer.weights.T
            if masks[i - 1] is not None:
                delta = delta * masks[i - 1]
            z = pre_acts[i - 1]
            delta = delta * np.where(z > 0, 1.0, model.leaky_slope)
    return d_weights, d_biases


def reference_objective(model, out, target, lam):
    """The batch objective of raw outputs and its gradient wrt them."""
    loss, grad = batch_loss(out, target, lam)
    return loss + nncore.penalty_loss(model), grad


def reference_adam(param, grad, m, v, t, lr):
    b1, b2, eps = nncore.ADAM_BETA1, nncore.ADAM_BETA2, nncore.ADAM_EPS
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    m = m * b1 + (1.0 - b1) * grad
    v = v * b2 + (1.0 - b2) * grad**2
    return param - (lr * (m / c1)) / (np.sqrt(v / c2) + eps), m, v


@given(
    input_dim=st.integers(1, 6),
    hidden=st.lists(st.integers(1, 12), min_size=0, max_size=3),
    dropout=st.sampled_from([0.0, 0.2, 0.5]),
    slope=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    n_rows=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_training_step_bit_exact_against_reference(
    input_dim, hidden, dropout, slope, n_rows, seed
):
    rng = np.random.default_rng(seed)
    model = small_model(rng, input_dim, hidden, dropout=dropout, l1=1e-3, l2=2e-3)
    model = dataclasses.replace(model, leaky_slope=slope)
    ref = model.copy()
    ref_m = [np.zeros_like(p) for l in ref.layers for p in (l.weights, l.bias)]
    ref_v = [np.zeros_like(p) for p in ref_m]
    lr = 3e-3
    opt = Adam(lr)
    for t in range(1, 4):
        batch = rng.normal(size=(n_rows, input_dim))
        batch[0] = 0.0  # zero pre-activations hit the z == 0 side of the kink
        grad_out = rng.normal(size=(n_rows, model.output_dim)) / n_rows
        mask_seed = int(rng.integers(2**31))

        out, cache = nncore.forward(
            model, batch, train_mode=True, rng=np.random.default_rng(mask_seed)
        )
        r_out, r_inputs, r_pre, r_masks = reference_forward(
            ref, batch, np.random.default_rng(mask_seed)
        )
        assert np.array_equal(out, r_out)
        assert len(cache.inputs) == len(r_inputs)
        assert len(cache.keeps) == len(r_pre) == len(r_masks)
        for got, want in zip(cache.inputs, r_inputs):
            assert np.array_equal(got, want)
        scale = 1.0 / (1.0 - dropout)
        for got, want in zip(cache.keeps, r_masks):
            if want is None:
                assert got is None
            else:
                assert got.dtype == bool and np.array_equal(got * scale, want)

        grads = nncore.backward(model, cache, grad_out)
        assert cache.inputs == cache.keeps == []
        r_dw, r_db = reference_backward(ref, r_inputs, r_pre, r_masks, grad_out)
        for got, want in zip(grads.weights + grads.biases, r_dw + r_db):
            assert np.array_equal(got, want)

        opt.step(model, grads)
        k = 0
        for layer, dw, db in zip(ref.layers, r_dw, r_db):
            layer.weights, ref_m[k], ref_v[k] = reference_adam(
                layer.weights, dw, ref_m[k], ref_v[k], t, lr
            )
            layer.bias, ref_m[k + 1], ref_v[k + 1] = reference_adam(
                layer.bias, db, ref_m[k + 1], ref_v[k + 1], t, lr
            )
            k += 2
        for got, want in zip(model.layers, ref.layers):
            assert np.array_equal(got.weights, want.weights)
            assert np.array_equal(got.bias, want.bias)


@pytest.mark.parametrize("dropout", [0.0, 0.25])
def test_backward_reads_the_kink_from_the_kept_activation(dropout):
    # backward builds the leaky-ReLU factor from where a layer's input is
    # positive, not from a stored z > 0: on each unit, kept or dropped, at the
    # kink and next to it, its gradients match the z > 0 reference bit for
    # bit, signed zeros included (np.array_equal takes -0.0 == 0.0).
    rng = np.random.default_rng(31)
    slope = 0.1
    model = small_model(rng, input_dim=3, hidden=(6, 5), dropout=dropout)
    model = dataclasses.replace(model, leaky_slope=slope)
    # In the tiny rows every product of the first layer (|weight| < 0.5)
    # underflows to a zero, so its pre-activation is its bias: units 0 and 1
    # have z > 0, unit 2 z = +0, unit 3 (negative weights, bias -0.0) z = -0.0
    # where the BLAS sums the products in fused multiply-adds (+0 elsewhere),
    # and unit 4 a negative z whose slope * z underflows to -0.0. Unit 5 and
    # the other rows are random.
    batch = rng.normal(size=(8, 3))
    batch[:4] = 5e-324
    first = model.layers[0]
    first.weights *= 0.8
    first.weights[:, 3] = -np.abs(first.weights[:, 3])
    first.bias[:] = [2.0, 2.0, 0.0, -0.0, -5e-324, 0.3]
    keeps, masks = [None, None], None
    if dropout:
        keeps = [rng.random((8, width)) >= dropout for width in model.hidden_sizes]
        keeps[0][:4, 1:5] = True
        keeps[0][:4, 0] = False  # dropped where z > 0
        masks = MaskGenerator(keeps)
    grad_out = rng.normal(size=(8, model.output_dim))
    grad_out[0] = -0.0
    out, cache = nncore.forward(model, batch, train_mode=True, rng=masks)
    r_out, r_inputs, r_pre, r_masks = reference_forward(model, batch, keeps=keeps)
    assert np.array_equal(out.view(np.int64), r_out.view(np.int64))
    z = r_pre[0][:4]
    assert (z[:, :2] > 0).all() and (z[:, 2:4] == 0).all() and not np.signbit(z[:, 2]).any()
    assert (z[:, 4] < 0).all() and (slope * z[:, 4] == 0).all()

    grads = nncore.backward(model, cache, grad_out)
    r_dw, r_db = reference_backward(model, r_inputs, r_pre, r_masks, grad_out)
    for got, want in zip(grads.weights + grads.biases, r_dw + r_db):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def block_order_keeps(model, rows, rng):
    """The keep-masks of a whole ``rows``-row step, drawn block by block and
    layer by layer in block order, joined per layer."""
    blocks = [
        [rng.random((min(CHUNK, rows - start), width)) >= model.dropout
         for width in model.hidden_sizes]
        for start in range(0, rows, CHUNK)
    ]
    return [np.concatenate(layer) for layer in zip(*blocks)]


def step_blocks(monkeypatch, model, rows, rng):
    """``(first_row, rows, keep-masks)`` of each train-mode forward pass of a
    ``rows``-row step drawing from ``rng``, the masks as its cache holds them."""
    forward = nncore.forward
    blocks = []

    def spy(model, batch, train_mode=False, rng=None, first_row=0):
        out, cache = forward(model, batch, train_mode, rng, first_row)
        blocks.append((first_row, len(batch), list(cache.keeps)))
        return out, cache

    data = np.random.default_rng(1)
    batch = data.normal(size=(rows, model.input_dim))
    target = data.uniform(0.0, 20.0, size=rows)
    with monkeypatch.context() as patch:
        patch.setattr(nncore, "forward", spy)
        evidential.step_gradients(model, batch, target, 0.59, rng)
    return blocks


def assert_block_keeps_are_next_draws(monkeypatch, make):
    # 2,500 rows are three blocks of a step. Each block's keep-masks are the
    # generator's next draws, one rng.random((block rows, w)) per layer, and
    # the step leaves it rows * sum(widths) doubles on, with a float32 half
    # buffered before the step still buffered.
    rows, hidden, dropout = 2500, (32, 24, 16), 0.25
    assert rows > 2 * CHUNK
    model = small_model(np.random.default_rng(30), input_dim=6, hidden=hidden, dropout=dropout)
    rng, skip = np.random.Generator(make(5)), np.random.Generator(make(5))
    for gen in (rng, skip):
        gen.random(dtype=np.float32)
    if make is np.random.PCG64:
        assert rng.bit_generator.state["has_uint32"] == 1
    stream = copy.deepcopy(rng)

    blocks = step_blocks(monkeypatch, model, rows, rng)
    assert [(first, n) for first, n, _ in blocks] == [(0, 1024), (1024, 1024), (2048, 452)]
    for _, n, keeps in blocks:
        want = [stream.random((n, w)) >= dropout for w in hidden]
        assert all(k.dtype == bool and np.array_equal(k, w) for k, w in zip(keeps, want))
    skip.random(rows * sum(hidden))
    np.testing.assert_equal(rng.bit_generator.state, skip.bit_generator.state)
    assert rng.random(dtype=np.float32) == skip.random(dtype=np.float32)


def test_block_keeps_are_the_next_draws_of_the_generator(monkeypatch):
    assert_block_keeps_are_next_draws(monkeypatch, np.random.PCG64)

    # Through one hidden layer, block order is whole-batch order.
    rows, dropout = 2500, 0.25
    one = small_model(np.random.default_rng(31), input_dim=6, hidden=(40,), dropout=dropout)
    joined = np.concatenate([keeps[0] for *_, keeps in
                             step_blocks(monkeypatch, one, rows, np.random.default_rng(7))])
    assert np.array_equal(joined, np.random.default_rng(7).random((rows, 40)) >= dropout)


def test_keeps_take_any_generator_and_need_one_only_for_dropout(monkeypatch):
    # Nothing is asked of the bit generator beyond random().
    assert_block_keeps_are_next_draws(monkeypatch, np.random.MT19937)

    model = small_model(np.random.default_rng(30), input_dim=6, hidden=(32, 24), dropout=0.25)
    with pytest.raises(UsageError, match=r"^dropout keep-masks need a random generator"):
        nncore.forward(model, np.zeros((4, 6)), train_mode=True)
    no_dropout = small_model(np.random.default_rng(0))
    _, cache = nncore.forward(no_dropout, np.zeros((4, 3)), train_mode=True)
    assert cache.keeps == [None]


def test_multi_block_step_matches_single_pass_reference():
    # 2,500 rows are three blocks of a step. The blocks' gradients add up to
    # the single-pass gradient of the batch mean: only the order of the sums
    # differs.
    rows, hidden, dropout, lam = 2500, (32, 24), 0.25, 0.59
    assert rows > 2 * CHUNK
    rng = np.random.default_rng(31)
    model = small_model(rng, input_dim=6, hidden=hidden, dropout=dropout, l1=1e-3, l2=2e-3)
    batch = rng.normal(size=(rows, 6))
    target = rng.uniform(0.0, 20.0, size=rows)

    loss, grads = evidential.step_gradients(model, batch, target, lam, np.random.default_rng(5))
    keeps = block_order_keeps(model, rows, np.random.default_rng(5))
    r_out, r_inputs, r_pre, r_masks = reference_forward(model, batch, keeps=keeps)
    r_loss, r_grad_out = reference_objective(model, r_out, target, lam)
    r_dw, r_db = reference_backward(model, r_inputs, r_pre, r_masks, r_grad_out)
    assert loss == pytest.approx(r_loss, rel=1e-12)
    for got, want in zip(grads.weights + grads.biases, r_dw + r_db):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_step_of_one_block_is_the_whole_batch_step():
    # Up to BLOCK_ROWS rows a step is one forward, loss and backward pass.
    rng = np.random.default_rng(32)
    model = small_model(rng, input_dim=5, hidden=(16, 8), dropout=0.3, l1=1e-3, l2=2e-3)
    batch = rng.normal(size=(CHUNK, 5))
    target = rng.uniform(0.0, 20.0, size=CHUNK)
    loss, grads = evidential.step_gradients(model, batch, target, 0.59, np.random.default_rng(6))
    out, cache = nncore.forward(model, batch, train_mode=True, rng=np.random.default_rng(6))
    r_loss, grad_out = reference_objective(model, out, target, 0.59)
    r_grads = nncore.backward(model, cache, grad_out)
    assert loss == r_loss
    for got, want in zip(grads.weights + grads.biases, r_grads.weights + r_grads.biases):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("bad", ["target", "feature"])
def test_nonfinite_step_names_index_within_batch(bad):
    # Row 1,500 sits in the second block; the error names its batch index.
    rows = 2500
    rng = np.random.default_rng(33)
    model = small_model(rng, input_dim=4, hidden=(8,), dropout=0.2)
    batch = rng.normal(size=(rows, 4))
    target = rng.uniform(0.0, 20.0, size=rows)
    if bad == "target":
        target[1500] = np.inf
    else:
        batch[1500, 0] = np.nan
    with pytest.raises(NumericError, match=r"sample index 1500$"):
        evidential.step_gradients(model, batch, target, 0.59, rng)


def test_step_memory_does_not_grow_by_float_arrays_with_the_batch():
    # From B = 4,096 to 16,384 rows through widths [8, 256, 256, 4] with
    # dropout, only the batch and its targets may grow with B: every array
    # of a step, the keep-masks included, is one block's or weight-sized.
    # Whole-batch keep-masks would grow by 6.3 MB, one float [12,288 x 256]
    # array by 25 MB.
    widths, dropout = [256, 256], 0.3
    model = small_model(np.random.default_rng(22), input_dim=8, hidden=widths,
                        dropout=dropout, l1=1e-4, l2=1e-4)

    def step_peak(rows):
        rng = np.random.default_rng(rows)
        batch = rng.normal(size=(rows, 8))
        target = rng.uniform(0.0, 20.0, size=rows)
        tracemalloc.start()
        try:
            _, grads = evidential.step_gradients(model, batch, target, 0.59, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(np.all(np.isfinite(dw)) for dw in grads.weights)
        return peak

    small, large = 4096, 16384
    growth = large - small
    bound = growth * 8 * 8 + growth * 8
    assert bound == 884_736
    rise = step_peak(large) - step_peak(small)
    assert rise <= bound, f"traced peak rose by {rise} B, more than {bound} B"


# ---------------------------------------------------------------------------
# backward


def test_backward_zero_upstream_zero_grads():
    rng = np.random.default_rng(5)
    model = small_model(rng)
    batch = rng.normal(size=(4, 3))
    out, cache = nncore.forward(model, batch, train_mode=True)
    grads = nncore.backward(model, cache, np.zeros_like(out))
    for dw, db in zip(grads.weights, grads.biases):
        assert np.all(dw == 0.0)
        assert np.all(db == 0.0)


def test_backward_l2_only_gradient_is_2_l2_w():
    rng = np.random.default_rng(6)
    model = small_model(rng, l2=0.01)
    batch = rng.normal(size=(4, 3))
    out, cache = nncore.forward(model, batch, train_mode=True)
    grads = nncore.backward(model, cache, np.zeros_like(out))
    for layer, dw in zip(model.layers, grads.weights):
        assert np.allclose(dw, 2 * 0.01 * layer.weights)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    model = small_model(rng, input_dim=3, hidden=(6, 4), l1=1e-3, l2=1e-3)
    batch = rng.normal(size=(5, 3))
    loss, cache, grad_out = quadratic_loss(model, batch)
    analytic = nncore.backward(model, cache, grad_out)
    numeric_w, numeric_b = numeric_grads(model, batch)
    for aw, nw in zip(analytic.weights, numeric_w):
        assert rel_err(aw, nw).max() <= 1e-3
    for ab, nb in zip(analytic.biases, numeric_b):
        assert rel_err(ab, nb).max() <= 1e-3


def test_backward_stale_cache_is_usage_error():
    rng = np.random.default_rng(8)
    model = small_model(rng)
    batch = rng.normal(size=(4, 3))
    out, cache = nncore.forward(model, batch, train_mode=True)
    _, unused = nncore.forward(model, batch, train_mode=True)
    grads = nncore.backward(model, cache, out / 4)
    with pytest.raises(UsageError, match="^forward cache already used$"):
        nncore.backward(model, cache, out / 4)
    Adam(1e-3).step(model, grads)  # bumps model.version
    with pytest.raises(UsageError, match="^stale forward cache"):
        nncore.backward(model, unused, out / 4)
    with pytest.raises(UsageError):
        nncore.backward(model, cache, out / 4)
    with pytest.raises(UsageError):
        nncore.backward(model, None, out / 4)


def test_training_step_peak_memory_is_one_float_array_per_hidden_layer():
    # One step at B = 4,096 through widths [8, 256, 256, 4] with dropout. Per
    # hidden layer the cache may hold one float [B x 256] activation and two
    # one-byte masks. Three more float arrays of that size may be live at
    # once: in forward a layer's pre-activation beside its slope * z or
    # dropout draw, in backward the old and new delta or delta and the
    # derivative factor. Every other array is [B x 4], [B] or weight-sized,
    # together well under one float array. A cache of three float arrays per
    # hidden layer (z, activation, float dropout mask) exceeds the bound.
    rows, hidden = 4096, [256, 256]
    rng = np.random.default_rng(21)
    model = small_model(rng, input_dim=8, hidden=hidden, dropout=0.3, l1=1e-4, l2=1e-4)
    batch = rng.normal(size=(rows, 8))
    target = rng.uniform(0.0, 20.0, size=rows)
    float_array = rows * hidden[0] * 8
    bool_array = rows * hidden[0]
    bound = (len(hidden) + 3) * float_array + 2 * len(hidden) * bool_array
    assert bound == 46_137_344

    tracemalloc.start()
    try:
        out, cache = nncore.forward(model, batch, train_mode=True, rng=rng)
        _, grad_raw = reference_objective(model, out, target, 0.59)
        grads = nncore.backward(model, cache, grad_raw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(np.all(np.isfinite(dw)) for dw in grads.weights)
    assert peak <= bound, f"traced peak {peak} B exceeds {bound} B"


# ---------------------------------------------------------------------------
# optimizer


def test_adam_zero_gradients_leave_parameters_unchanged():
    rng = np.random.default_rng(9)
    model = small_model(rng)
    before = [layer.weights.copy() for layer in model.layers]
    grads = nncore.ParamGrads(
        weights=[np.zeros_like(l.weights) for l in model.layers],
        biases=[np.zeros_like(l.bias) for l in model.layers],
    )
    Adam(1e-2).step(model, grads)
    for b, layer in zip(before, model.layers):
        assert np.array_equal(b, layer.weights)


def test_adam_constant_positive_gradient_decreases_parameter():
    model = MLP(layers=[Layer(weights=np.array([[1.0]]), bias=np.zeros(1))])
    opt = Adam(1e-2)
    history = [model.layers[0].weights[0, 0]]
    grads = nncore.ParamGrads(weights=[np.array([[0.5]])], biases=[np.zeros(1)])
    for _ in range(50):
        opt.step(model, grads)
        history.append(model.layers[0].weights[0, 0])
    assert all(b < a for a, b in zip(history, history[1:]))


def test_adam_first_step_magnitude_matches_hand_recurrence():
    # one step from zero moments: m_hat = g, v_hat = g^2, so the update is
    # lr * g / (|g| + eps) ~ lr * sign(g)
    g = 0.37
    lr = 1e-3
    model = MLP(layers=[Layer(weights=np.array([[0.0]]), bias=np.zeros(1))])
    Adam(lr).step(
        model, nncore.ParamGrads(weights=[np.array([[g]])], biases=[np.zeros(1)])
    )
    delta = -model.layers[0].weights[0, 0]
    expected = lr * g / (abs(g) + nncore.ADAM_EPS)
    assert delta == pytest.approx(expected, rel=1e-12)
    assert delta == pytest.approx(lr, rel=1e-4)


def test_adam_multi_step_matches_hand_recurrence():
    lr, b1, b2, eps = 2e-3, nncore.ADAM_BETA1, nncore.ADAM_BETA2, nncore.ADAM_EPS
    rng = np.random.default_rng(11)
    gs = rng.normal(size=6)
    model = MLP(layers=[Layer(weights=np.array([[0.2]]), bias=np.zeros(1))])
    opt = Adam(lr)
    p = 0.2
    m = v = 0.0
    for t, g in enumerate(gs, start=1):
        opt.step(model, nncore.ParamGrads(weights=[np.array([[g]])], biases=[np.zeros(1)]))
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        assert model.layers[0].weights[0, 0] == pytest.approx(p, rel=1e-12)


def test_adam_retains_two_moments_and_one_scratch_pair():
    # Array bytes the optimizer still holds after its first step: the first
    # and second moment of every parameter, and the scratch pair its updates
    # run through. Two more per-parameter arrays would retain 4x.
    rng = np.random.default_rng(13)
    model = small_model(rng, input_dim=64, hidden=(512, 512))
    params = [p for layer in model.layers for p in (layer.weights, layer.bias)]
    grads = nncore.ParamGrads(
        weights=[rng.normal(size=l.weights.shape) for l in model.layers],
        biases=[rng.normal(size=l.bias.shape) for l in model.layers],
    )
    param_bytes = sum(p.nbytes for p in params)
    scratch_bytes = 2 * min(nncore.ADAM_CHUNK, max(p.size for p in params)) * 8
    assert scratch_bytes == 1_048_576

    tracemalloc.start()
    try:
        opt = Adam(1e-3)
        opt.step(model, grads)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    arrays = snapshot.filter_traces([tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    retained = sum(trace.size for trace in arrays.traces)
    assert retained <= 2 * param_bytes + scratch_bytes, (
        f"Adam retains {retained} B for {param_bytes} B of parameters"
    )


def test_adam_updates_a_transposed_weight_array_in_place_bit_for_bit():
    # Transposed weights are not C-contiguous; their chunks are views, so the
    # update lands in the model's own arrays with the bits of a contiguous
    # copy and of the out-of-place reference. The shapes take every chunk
    # path: rows longer than a chunk, blocks of whole rows, and a bias
    # longer than a chunk.
    rng = np.random.default_rng(14)
    wide = nncore.ADAM_CHUNK + 4_464
    first, second = rng.normal(size=(wide, 3)).T, rng.normal(size=(2, wide)).T
    bias = rng.normal(size=wide)
    assert not first.flags.c_contiguous and not second.flags.c_contiguous

    def network(w0, w1):
        return MLP(layers=[Layer(weights=w0, bias=bias.copy()), Layer(weights=w1, bias=np.zeros(2))])

    strided = network(first, second)
    contiguous = network(np.ascontiguousarray(first), np.ascontiguousarray(second))
    ref = contiguous.copy()
    ref_m = [np.zeros_like(p) for l in ref.layers for p in (l.weights, l.bias)]
    ref_v = [np.zeros_like(p) for p in ref_m]
    lr = 1e-2
    opt_strided, opt_contiguous = Adam(lr), Adam(lr)
    for t in range(1, 4):
        grads = nncore.ParamGrads(
            weights=[rng.normal(size=l.weights.shape) for l in strided.layers],
            biases=[rng.normal(size=l.bias.shape) for l in strided.layers],
        )
        opt_strided.step(strided, grads)
        opt_contiguous.step(contiguous, grads)
        k = 0
        for layer, dw, db in zip(ref.layers, grads.weights, grads.biases):
            layer.weights, ref_m[k], ref_v[k] = reference_adam(
                layer.weights, dw, ref_m[k], ref_v[k], t, lr
            )
            layer.bias, ref_m[k + 1], ref_v[k + 1] = reference_adam(
                layer.bias, db, ref_m[k + 1], ref_v[k + 1], t, lr
            )
            k += 2
    assert strided.layers[0].weights is first and strided.layers[1].weights is second
    for a, b, r in zip(strided.layers, contiguous.layers, ref.layers):
        assert np.array_equal(a.weights, b.weights) and np.array_equal(a.weights, r.weights)
        assert np.array_equal(a.bias, b.bias) and np.array_equal(a.bias, r.bias)


def shared_chunk_network(rng):
    # 3 -> 5 -> 14,000 -> 2: the first layer's weights and bias share a
    # chunk with 4 rows of the second weight, a weight larger than a chunk;
    # its last row, its bias, the transposed third weight and its bias share
    # the next chunk.
    wide = 14_000
    assert 5 * wide > nncore.ADAM_CHUNK
    third = rng.normal(size=(2, wide)).T
    assert not third.flags.c_contiguous
    return MLP(layers=[
        Layer(weights=rng.normal(size=(3, 5)), bias=rng.normal(size=5)),
        Layer(weights=rng.normal(size=(5, wide)), bias=rng.normal(size=wide)),
        Layer(weights=third, bias=rng.normal(size=2)),
    ])


def random_grads(rng, model):
    return nncore.ParamGrads(
        weights=[rng.normal(size=l.weights.shape) for l in model.layers],
        biases=[rng.normal(size=l.bias.shape) for l in model.layers],
    )


def test_adam_with_parameters_sharing_chunks_matches_reference_bit_for_bit():
    rng = np.random.default_rng(15)
    model = shared_chunk_network(rng)
    ref = model.copy()
    weights = [layer.weights for layer in model.layers]
    ref_m = [np.zeros_like(p) for l in ref.layers for p in (l.weights, l.bias)]
    ref_v = [np.zeros_like(p) for p in ref_m]
    lr = 1e-2
    opt = Adam(lr)
    for t in range(1, 4):
        grads = random_grads(rng, model)
        opt.step(model, grads)
        k = 0
        for layer, dw, db in zip(ref.layers, grads.weights, grads.biases):
            layer.weights, ref_m[k], ref_v[k] = reference_adam(
                layer.weights, dw, ref_m[k], ref_v[k], t, lr
            )
            layer.bias, ref_m[k + 1], ref_v[k + 1] = reference_adam(
                layer.bias, db, ref_m[k + 1], ref_v[k + 1], t, lr
            )
            k += 2
        for got, want in zip(model.layers, ref.layers):
            assert np.array_equal(got.weights, want.weights)
            assert np.array_equal(got.bias, want.bias)
    assert all(got is was for got, was in zip((l.weights for l in model.layers), weights))


def test_adam_nonfinite_gradient_in_a_later_chunk_moves_nothing():
    # Every chunk's gradients are checked before any parameter or moment
    # moves: after the refused step, the optimizer goes on as its twin that
    # never saw it.
    rng = np.random.default_rng(16)
    model = shared_chunk_network(rng)
    twin = model.copy()
    opt, twin_opt = Adam(1e-2), Adam(1e-2)
    first = random_grads(rng, model)
    opt.step(model, first)
    twin_opt.step(twin, first)
    grads = random_grads(rng, model)
    bad = nncore.ParamGrads(weights=grads.weights, biases=[b.copy() for b in grads.biases])
    bad.biases[2][1] = np.inf  # in the second chunk
    with pytest.raises(NumericError, match="non-finite bias gradient in layer 2"):
        opt.step(model, bad)
    for got, want in zip(model.layers, twin.layers):
        assert np.array_equal(got.weights, want.weights) and np.array_equal(got.bias, want.bias)
    opt.step(model, grads)
    twin_opt.step(twin, grads)
    for got, want in zip(model.layers, twin.layers):
        assert np.array_equal(got.weights, want.weights) and np.array_equal(got.bias, want.bias)


def test_adam_nonfinite_gradient_names_layer():
    rng = np.random.default_rng(12)
    model = small_model(rng, hidden=(4, 4))
    grads = nncore.ParamGrads(
        weights=[np.zeros_like(l.weights) for l in model.layers],
        biases=[np.zeros_like(l.bias) for l in model.layers],
    )
    grads.weights[1][0, 0] = np.nan
    with pytest.raises(NumericError, match="layer 1"):
        Adam(1e-3).step(model, grads)


# ---------------------------------------------------------------------------
# float32: the same kernel, computing in the weights' dtype

EPS32 = float(np.finfo(np.float32).eps)


def float32_and_float64_nets(rng, input_dim=11, hidden=(64, 32)):
    """The same weights, rounded to float32, as a float32 and a float64 net
    with dropout and L1/L2 penalties."""
    net = small_model(rng, input_dim, hidden, dropout=0.2, l1=1e-4, l2=2e-4)
    net32 = dataclasses.replace(net, layers=[
        Layer(l.weights.astype(np.float32), rng.normal(0.0, 0.1, l.bias.shape).astype(np.float32))
        for l in net.layers])
    net64 = dataclasses.replace(net, layers=[
        Layer(l.weights.astype(float), l.bias.astype(float)) for l in net32.layers])
    return net32, net64


def test_float32_forward_and_step_gradients_match_float64():
    # A float32 product of n terms is within about n float32 roundings of the
    # float64 one, relative to the largest magnitude; the tolerance allows
    # one per term summed on the longest path: the fan-ins in forward, and
    # the rows besides in the gradients (dW and the bias sums add over rows).
    rng = np.random.default_rng(41)
    net32, net64 = float32_and_float64_nets(rng)
    rows = 300
    fan_ins = sum(layer.weights.shape[0] for layer in net64.layers)
    batch = rng.normal(size=(rows, net64.input_dim)).astype(np.float32).astype(float)
    targets = rng.normal(size=rows)

    out32, _ = nncore.forward(net32, batch)
    out64, _ = nncore.forward(net64, batch)
    assert out32.dtype == np.float32
    assert np.abs(out32 - out64).max() <= fan_ins * EPS32 * np.abs(out64).max()

    loss32, grads32 = evidential.step_gradients(
        net32, batch, targets, 0.5, np.random.default_rng(5))
    loss64, grads64 = evidential.step_gradients(
        net64, batch, targets, 0.5, np.random.default_rng(5))
    tol = (rows + fan_ins) * EPS32
    assert abs(loss32 - loss64) <= tol * abs(loss64)
    for g32, g64 in zip(grads32.weights + grads32.biases, grads64.weights + grads64.biases):
        assert g32.dtype == np.float32
        assert np.abs(g32 - g64).max() <= tol * np.abs(g64).max()


def test_float32_net_computes_and_holds_only_float32_arrays():
    rng = np.random.default_rng(43)
    net, _ = float32_and_float64_nets(rng, input_dim=3, hidden=(6, 5))
    batch = rng.normal(size=(9, 3))  # float64, cast by forward

    out, _ = nncore.forward(net, batch)
    assert out.dtype == np.float32
    out, cache = nncore.forward(net, batch, train_mode=True, rng=rng)
    assert out.dtype == np.float32
    assert [a.dtype for a in cache.inputs] == [np.float32] * 3
    assert [k.dtype for k in cache.keeps] == [bool] * 2
    grads = nncore.backward(net, cache, rng.normal(size=out.shape))
    assert {g.dtype for g in grads.weights + grads.biases} == {np.dtype(np.float32)}

    opt = Adam(1e-3)
    opt.step(net, grads)
    held = [*opt._moments, *opt._scratch]
    params = [p for layer in net.layers for p in (layer.weights, layer.bias)]
    assert {a.dtype for a in held + params} == {np.dtype(np.float32)}


@pytest.mark.parametrize("dtypes", [
    pytest.param([(np.float32, np.float64)], id="float32-weights-float64-bias"),
    pytest.param([(np.float64, np.float32)], id="float64-weights-float32-bias"),
    pytest.param([(np.float32, np.float32), (np.float64, np.float64)], id="float32-then-float64"),
    pytest.param([(np.float16, np.float16)], id="float16"),
    pytest.param([(np.int64, np.int64)], id="int64"),
    pytest.param([(">f8", ">f8")], id="big-endian-float64"),
])
def test_network_refuses_parameters_of_mixed_or_other_dtypes(dtypes):
    widths = [3, 4, 2][: len(dtypes) + 1]
    layers = [Layer(np.zeros((fan_in, fan_out), w), np.zeros(fan_out, b))
              for fan_in, fan_out, (w, b) in zip(widths, widths[1:], dtypes)]
    with pytest.raises(ConfigError, match="^network parameters must be all float32 or all"):
        MLP(layers=layers)


def test_shape_chain_validation():
    with pytest.raises(DimensionError):
        MLP(
            layers=[
                Layer(weights=np.zeros((3, 4)), bias=np.zeros(4)),
                Layer(weights=np.zeros((5, 2)), bias=np.zeros(2)),
            ]
        )


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(evidential_coef=-0.1).validate()
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="learning_rate must be finite"):
            TrainConfig(learning_rate=bad).validate()
        with pytest.raises(ConfigError, match="evidential_coef must be finite"):
            TrainConfig(evidential_coef=bad).validate()
    TrainConfig().validate()
    # Adam refuses the same learning rates, worded the same.
    for bad in (0.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="^learning_rate must be finite and > 0"):
            Adam(bad)
