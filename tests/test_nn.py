import math
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest

from common import blob_data, make_view
from contractfl import nn
from contractfl.datasets import DatasetView
from contractfl.errors import (ConfigurationError, ContractViolation,
                               DataFormatError, TrainingDiverged)

DIMS = (3, 4, 5, 2)


def test_param_count():
    # 3*4 + 4 + 4*5 + 5 + 5*2 + 2
    assert nn.param_count(DIMS) == 53


def test_init_model_deterministic():
    a = nn.init_model(DIMS, seed=11)
    b = nn.init_model(DIMS, seed=11)
    c = nn.init_model(DIMS, seed=12)
    assert np.array_equal(a.params, b.params)
    assert not np.array_equal(a.params, c.params)


def test_init_model_scale_and_zero_biases():
    m = nn.init_model((100, 50, 30, 10), seed=0)
    offset = 0
    for fan_in, fan_out in zip(m.layer_dims[:-1], m.layer_dims[1:]):
        w = m.params[offset:offset + fan_in * fan_out]
        offset += fan_in * fan_out
        b = m.params[offset:offset + fan_out]
        offset += fan_out
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > 0.5 * bound  # uniform draws should fill the range
        assert np.array_equal(b, np.zeros(fan_out))
    assert offset == m.params.size


def test_model_params_frozen():
    m = nn.init_model(DIMS, seed=0)
    with pytest.raises(ValueError):
        m.params[0] = 1.0


def test_model_keeps_an_owned_vector_and_copies_a_view():
    owned = np.zeros(nn.param_count(DIMS))
    m = nn.Model(DIMS, owned)
    assert m.params is owned and not owned.flags.writeable
    backing = np.zeros(owned.size + 1)
    v = nn.Model(DIMS, backing[1:])
    assert not np.shares_memory(v.params, backing)
    backing[1] = 5.0
    assert v.params[0] == 0.0
    for model in (m, v):
        with pytest.raises(ValueError):
            model.params[0] = 1.0


def _peak_vectors(model, fn):
    """fn()'s result and its traced peak, in parameter vectors of `model`."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / model.params.nbytes


def test_aggregate_of_one_delta_holds_two_parameter_vectors():
    # the sum and the weighted delta it adds
    base = nn.init_model((784, 64, 32, 10), seed=0)
    delta = np.full_like(base.params, 1e-3)
    out, peak = _peak_vectors(base, lambda: nn.aggregate(base, [delta], [1.0]))
    assert peak < 2.5
    with pytest.raises(ValueError):
        out.params[0] = 1.0


def test_training_returns_its_parameters_without_a_copy():
    # the trained parameters and the gradient buffer; a Model that copied
    # the vector it is handed adds a third while the buffer is still held
    base = nn.init_model((784, 64, 32, 10), seed=0)
    data = make_view(np.full((4, 784), 0.5), [0, 1, 2, 3], 10)
    (out, _), peak = _peak_vectors(
        base, lambda: nn.train_epochs_tracked(base, data, 1, 0.1, 4, 0))
    assert peak < 2.5
    with pytest.raises(ValueError):
        out.params[0] = 1.0


def _loop_forward(dims, params, x):
    """Per-sample reference: explicit loops, no shared code with nn._forward."""
    sizes = []
    offset = 0
    mats = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = params[offset:offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        b = params[offset:offset + fan_out]
        offset += fan_out
        mats.append((w, b))
        sizes.append((fan_in, fan_out))
    out = np.empty((x.shape[0], dims[-1]))
    for i in range(x.shape[0]):
        h = x[i]
        for li, (w, b) in enumerate(mats):
            z = np.array([float(h @ w[:, j]) + b[j] for j in range(w.shape[1])])
            h = np.maximum(z, 0.0) if li < len(mats) - 1 else z
        out[i] = h
    return out


def test_forward_matches_loop_oracle():
    rng = np.random.default_rng(3)
    m = nn.init_model(DIMS, seed=5)
    x = rng.uniform(0.0, 1.0, size=(7, DIMS[0]))
    got = nn._forward(nn._views(DIMS, m.params), x)[-1]
    want = _loop_forward(DIMS, m.params, x)
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def _identity_net(width):
    """Identity weights, zero biases: nonnegative inputs pass through ReLU
    untouched and come out as the logits."""
    return nn.Model((width,) * 4,
                    np.concatenate([np.eye(width).ravel(), np.zeros(width)] * 3))


def test_forward_identity_network():
    m = _identity_net(2)
    x = np.array([[0.3, 0.9], [0.0, 1.0]])
    logits = nn._forward(nn._views(m.layer_dims, m.params), x)[-1]
    assert np.array_equal(logits, x)


@dataclass
class _Unchecked:
    """Rows that skip DatasetView's [0, 1] feature check, walked as a view."""

    features: np.ndarray
    labels: np.ndarray

    def __len__(self):
        return self.features.shape[0]

    def batches(self, order, size):
        for start in range(0, len(order), size):
            rows = order[start:start + size]
            yield self.features[rows], self.labels[rows]


def test_uniform_logits_loss_is_log_num_classes():
    m = nn.Model((1, 1, 1, 10), np.zeros(nn.param_count((1, 1, 1, 10))))
    data = _Unchecked(np.ones((6, 1)), np.arange(6, dtype=np.int64) % 10)
    loss, _ = nn.evaluate(m, data)
    assert abs(loss - math.log(10)) < 1e-12


def test_cross_entropy_extremes_are_stable():
    logits = np.array([[1e4, 0.0], [0.0, 1e4]])
    m = _identity_net(2)
    right = _Unchecked(logits, np.array([0, 1]))
    assert nn.evaluate(m, right)[0] < 1e-12
    wrong = _Unchecked(logits, np.array([1, 0]))
    loss, _ = nn.evaluate(m, wrong)
    assert np.isfinite(loss) and abs(loss - 1e4) < 1e-6


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(7)
    m = nn.init_model(DIMS, seed=9)
    x = rng.uniform(0.0, 1.0, size=(5, DIMS[0]))
    y = rng.integers(0, DIMS[-1], size=5)
    _, grad = nn.loss_and_gradient(m.layer_dims, m.params, x, y)
    h = 1e-6
    num = np.empty_like(grad)
    for i in range(m.params.size):
        up = m.params.copy()
        dn = m.params.copy()
        up[i] += h
        dn[i] -= h
        lu, _ = nn.loss_and_gradient(m.layer_dims, up, x, y)
        ld, _ = nn.loss_and_gradient(m.layer_dims, dn, x, y)
        num[i] = (lu - ld) / (2 * h)
    denom = np.maximum(np.abs(grad), 1e-8)
    assert (np.abs(num - grad) / denom < 1e-4).mean() >= 0.99


def test_train_epochs_deterministic_and_pure():
    data = blob_data(40, num_classes=2, dim=3, seed=1)
    m = nn.init_model((3, 4, 4, 2), seed=2)
    before = m.params.copy()
    t1, _ = nn.train_epochs_tracked(m, data, epochs=2, lr=0.1, batch_size=8, rng_seed=42)
    t2, _ = nn.train_epochs_tracked(m, data, epochs=2, lr=0.1, batch_size=8, rng_seed=42)
    t3, _ = nn.train_epochs_tracked(m, data, epochs=2, lr=0.1, batch_size=8, rng_seed=43)
    assert np.array_equal(t1.params, t2.params)
    assert not np.array_equal(t1.params, t3.params)
    assert np.array_equal(m.params, before)  # input model untouched


def test_train_epochs_reduces_loss():
    data = blob_data(120, num_classes=2, dim=2, seed=4)
    m = nn.init_model((2, 8, 8, 2), seed=3)
    loss0, _ = nn.evaluate(m, data)
    trained, _ = nn.train_epochs_tracked(m, data, epochs=5, lr=0.5,
                                         batch_size=16, rng_seed=0)
    loss1, acc1 = nn.evaluate(trained, data)
    assert loss1 < loss0
    assert acc1 > 0.9


def test_train_epochs_tracked_matches_manual_replay():
    # freeze the bookkeeping: shuffle stream, batch walk, and the
    # sample-weighted per-epoch mean, including the final partial batch
    data = blob_data(23, num_classes=2, dim=2, seed=6)
    dims = (2, 4, 4, 2)
    m = nn.init_model(dims, seed=8)
    epochs, lr, bs, seed = 3, 0.2, 8, 17
    got_model, got_losses = nn.train_epochs_tracked(m, data, epochs, lr, bs, seed)

    params = m.params.copy()
    rng = np.random.default_rng(seed)
    x, y = data.features[data.indices], data.labels
    n = len(data)
    want_losses = []
    for _ in range(epochs):
        perm = rng.permutation(n)
        total = 0.0
        for start in range(0, n, bs):
            idx = perm[start:start + bs]
            loss, grad = nn.loss_and_gradient(dims, params, x[idx], y[idx])
            params -= lr * grad
            total += loss * idx.shape[0]
        want_losses.append(total / n)
    assert np.array_equal(got_model.params, params)
    assert np.allclose(got_losses, want_losses, rtol=0, atol=0)
    assert len(got_losses) == epochs


def test_training_gathers_one_batch_of_rows_at_a_time():
    # an epoch of 4,000 rows x 256 features is 8 MB; a batch of 10 is 20 kB
    rng = np.random.default_rng(0)
    n, dim = 4000, 256
    data = make_view(rng.uniform(0.0, 1.0, size=(n, dim)),
                     rng.integers(0, 2, size=n), 2)
    m = nn.init_model((dim, 4, 4, 2), seed=0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        nn.train_epochs_tracked(m, data, epochs=1, lr=0.1, batch_size=10, rng_seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 1_000_000


def _oracle_loss_and_gradient(dims, params, x, y):
    # straightforward forward/backward pass: fresh arrays everywhere
    d0, d1, d2, d3 = dims
    ends = np.cumsum([d0 * d1, d1, d1 * d2, d2, d2 * d3, d3])
    w1, b1, w2, b2, w3, b3 = np.split(params, ends[:-1])
    w1, w2, w3 = w1.reshape(d0, d1), w2.reshape(d1, d2), w3.reshape(d2, d3)
    n = x.shape[0]
    z1 = x @ w1 + b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ w2 + b2
    a2 = np.maximum(z2, 0.0)
    logits = a2 @ w3 + b3
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-log_p[np.arange(n), y].mean())
    d_logits = np.exp(log_p)
    d_logits[np.arange(n), y] -= 1.0
    d_logits /= n
    d_z2 = (d_logits @ w3.T) * (z2 > 0.0)
    d_z1 = (d_z2 @ w2.T) * (z1 > 0.0)
    grad = np.concatenate([
        (x.T @ d_z1).ravel(), d_z1.sum(axis=0),
        (a1.T @ d_z2).ravel(), d_z2.sum(axis=0),
        (a2.T @ d_logits).ravel(), d_logits.sum(axis=0)])
    return loss, grad


def _oracle_train(model, x, y, epochs, lr, batch_size, seed, mu):
    # per-step row gather, fresh gradient, params -= lr * grad
    params = model.params.copy()
    rng = np.random.default_rng(seed)
    n = x.shape[0]
    losses = []
    for _ in range(epochs):
        perm = rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch_size):
            idx = perm[start:start + batch_size]
            loss, grad = _oracle_loss_and_gradient(model.layer_dims, params,
                                                   x[idx], y[idx])
            if mu:
                grad += mu * (params - model.params)
            params -= lr * grad
            total += loss * idx.shape[0]
        losses.append(total / n)
    return params, np.array(losses)


@pytest.mark.parametrize("mu", [0.0, 0.01])
@pytest.mark.parametrize("dims,batch_size,n,epochs,lr", [
    ((64, 64, 32, 10), 10, 57, 3, 0.15),   # desk shape
    ((784, 64, 32, 10), 20, 53, 2, 0.01),  # MNIST-wide input
    # one-row steps, where a product has a vector operand (BLAS's gemv)
    ((64, 64, 32, 10), 10, 51, 3, 0.15),   # every epoch ends on one row
    ((784, 64, 32, 10), 20, 41, 2, 0.01),
    ((64, 64, 32, 10), 1, 17, 2, 0.05),    # every step is one row
])
def test_kernel_matches_independent_oracle_bitwise(dims, batch_size, n, epochs, lr, mu):
    # a client holding a scattered subset of a larger pool, and a final
    # partial batch in every epoch unless every batch is one row
    assert n % batch_size or batch_size == 1
    rng = np.random.default_rng(dims[0] + n)
    pool = make_view(rng.uniform(0.0, 1.0, size=(3 * n, dims[0])),
                     rng.integers(0, dims[-1], size=3 * n), dims[-1])
    indices = np.sort(rng.choice(3 * n, size=n, replace=False))
    client = replace(pool, indices=indices, labels=pool.labels[indices])
    m = nn.init_model(dims, seed=5)
    got_model, got_losses = nn.train_epochs_tracked(m, client, epochs, lr,
                                                    batch_size, 31, mu=mu)
    x = client.features[client.indices]
    want_params, want_losses = _oracle_train(m, x, client.labels,
                                             epochs, lr, batch_size, 31, mu)
    assert got_model.params.tobytes() == want_params.tobytes()
    assert got_losses.tobytes() == want_losses.tobytes()


@pytest.mark.parametrize("dims,n", [(DIMS, 5), ((64, 64, 32, 10), 10),
                                     ((784, 64, 32, 10), 20)])
def test_float32_gradient_matches_the_float64_oracle(dims, n):
    # the float32 kernel against the float64 oracle at the same (float32)
    # parameters and rows: within 1e-5 of the largest gradient entry, about
    # 80 float32 epsilons; the measured worst over 20 seeds is 4.3e-7
    for seed in range(5):
        rng = np.random.default_rng(seed)
        m = nn.init_model(dims, seed=seed, dtype=np.float32)
        x, y = _batch(rng, dims, n)
        x = x.astype(np.float32)
        loss, grad = nn.loss_and_gradient(dims, m.params, x, y)
        assert grad.dtype == np.float32
        want_loss, want = _oracle_loss_and_gradient(dims, m.params.astype(np.float64),
                                                    x.astype(np.float64), y)
        assert np.abs(grad - want).max() <= 1e-5 * np.abs(want).max()
        assert abs(loss - want_loss) <= 1e-5 * want_loss


@pytest.mark.parametrize("mu", [0.0, 0.01])
@pytest.mark.parametrize("dims,batch_size,n,epochs,lr", [
    ((64, 64, 32, 10), 10, 57, 3, 0.15),
    ((784, 64, 32, 10), 20, 53, 2, 0.01),
    ((64, 64, 32, 10), 1, 17, 2, 0.05),
])
def test_float32_kernel_matches_the_oracle_run_in_float32(dims, batch_size, n,
                                                          epochs, lr, mu):
    # the oracle's arithmetic stays in float32 on float32 operands, so the
    # trained parameters match bit for bit; its mean loss is summed in
    # float32 and the kernel's in float64, so the losses match to 1e-6
    rng = np.random.default_rng(dims[0] + n)
    pool = make_view(rng.uniform(0.0, 1.0, size=(3 * n, dims[0])).astype(np.float32),
                     rng.integers(0, dims[-1], size=3 * n), dims[-1])
    indices = np.sort(rng.choice(3 * n, size=n, replace=False))
    client = replace(pool, indices=indices, labels=pool.labels[indices])
    m = nn.init_model(dims, seed=5, dtype=np.float32)
    got_model, got_losses = nn.train_epochs_tracked(m, client, epochs, lr,
                                                    batch_size, 31, mu=mu)
    want_params, want_losses = _oracle_train(m, pool.features[indices], client.labels,
                                             epochs, lr, batch_size, 31, mu)
    assert got_model.params.dtype == want_params.dtype == np.float32
    assert got_model.params.tobytes() == want_params.tobytes()
    assert np.abs(got_losses - want_losses).max() < 1e-6


def test_loss_and_gradient_returns_fresh_gradients():
    rng = np.random.default_rng(2)
    m = nn.init_model(DIMS, seed=1)
    x = rng.uniform(0.0, 1.0, size=(6, DIMS[0]))
    y = rng.integers(0, DIMS[-1], size=6)
    loss1, g1 = nn.loss_and_gradient(m.layer_dims, m.params, x, y)
    loss2, g2 = nn.loss_and_gradient(m.layer_dims, m.params, x, y)
    assert not np.shares_memory(g1, g2)
    assert not np.shares_memory(g1, m.params)
    assert loss1 == loss2 and g1.tobytes() == g2.tobytes()
    want_loss, want_grad = _oracle_loss_and_gradient(m.layer_dims, m.params, x, y)
    assert loss1 == want_loss and g1.tobytes() == want_grad.tobytes()


def _batch(rng, dims, n):
    return (rng.uniform(0.0, 1.0, size=(n, dims[0])),
            rng.integers(0, dims[-1], size=n))


def _warmed_step_peak(dtype):
    """Traced peak of one warmed 784-64-32-10 step on 20 rows in `dtype`,
    and the bytes of that step's (rows x hidden1) activations."""
    dims = (784, 64, 32, 10)
    params = nn.init_model(dims, seed=0, dtype=dtype).params.copy()
    workspace = nn._Workspace(dims, params)
    x, y = _batch(np.random.default_rng(0), dims, 20)
    x = x.astype(dtype)
    for _ in range(2):  # the first step builds the 20-row buffers
        nn.loss_and_gradient(dims, params, x, y, workspace)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        nn.loss_and_gradient(dims, params, x, y, workspace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - start, workspace.step_buffers(20).a1.nbytes


def test_warmed_step_allocates_under_16_kb():
    # at 784-64-32-10 on 20 rows a1 and d_z1 are 10 kB each, a2 and d_z2
    # 5 kB each. What a warmed step still allocates at once is at most one
    # a1-sized block: numpy's iterator buffer for the broadcast bias add
    # (11.3 kB measured with numpy 2.4), so a step that allocated any two
    # of them, or that cast a mask to float, would exceed the bound
    peak, a1_bytes = _warmed_step_peak(np.float64)
    assert a1_bytes == 10_240
    assert peak < a1_bytes + 2_000


def test_warmed_float32_step_allocates_half():
    # the same step in float32 holds half the bytes (6.2 kB measured)
    peak, a1_bytes = _warmed_step_peak(np.float32)
    assert a1_bytes == 5_120
    assert peak < a1_bytes + 2_000


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_step_buffers_and_masks_have_the_parameters_dtype(dtype):
    dims = (64, 64, 32, 10)
    params = nn.init_model(dims, seed=0, dtype=dtype).params.copy()
    workspace = nn._Workspace(dims, params)
    x, y = _batch(np.random.default_rng(1), dims, 7)
    nn.loss_and_gradient(dims, params, x.astype(dtype), y, workspace)
    b = workspace.step_buffers(7)
    assert workspace.grad.dtype == dtype
    for arr in (b.acts, b.live, b.logits, *b.softmax, b.d_z2, b.d_z1):
        assert arr.dtype == dtype
    # the masks are 0.0/1.0 exactly where the activations are positive
    assert np.array_equal(b.live, (b.acts > 0).astype(dtype))


def test_one_workspace_across_batch_sizes_matches_fresh_workspaces():
    # full and remainder batches alternate, as in a multi-epoch call; each
    # step's rows differ, so a stale mask or label offset would show
    dims = (64, 64, 32, 10)
    rng = np.random.default_rng(3)
    params = nn.init_model(dims, seed=2).params.copy()
    workspace = nn._Workspace(dims, params)
    for n in (10, 3, 10, 3):
        x, y = _batch(rng, dims, n)
        loss, grad = nn.loss_and_gradient(dims, params, x, y, workspace)
        want_loss, want_grad = nn.loss_and_gradient(dims, params, x, y)
        assert loss == want_loss and grad.tobytes() == want_grad.tobytes()


def test_training_divergence_raises():
    # a model that has already gone non-finite must be caught on the first step
    data = blob_data(16, num_classes=2, dim=2, seed=0)
    dims = (2, 4, 4, 2)
    bad = nn.Model(dims, np.full(nn.param_count(dims), np.nan))
    with pytest.raises(TrainingDiverged) as exc:
        nn.train_epochs_tracked(bad, data, epochs=1, lr=0.1, batch_size=4, rng_seed=0)
    assert "non-finite training loss" in str(exc.value)
    assert exc.value.step == 0


def test_train_epochs_validation():
    data = blob_data(10, seed=0)
    m = nn.init_model((2, 4, 4, 2), seed=0)
    with pytest.raises(ConfigurationError):
        nn.train_epochs_tracked(m, data, epochs=0, lr=0.1, batch_size=4, rng_seed=0)
    with pytest.raises(ConfigurationError):
        nn.train_epochs_tracked(m, data, epochs=1, lr=0.1, batch_size=0, rng_seed=0)
    bad = blob_data(10, dim=5, seed=0)
    with pytest.raises(ConfigurationError):
        nn.train_epochs_tracked(m, bad, epochs=1, lr=0.1, batch_size=4, rng_seed=0)


def test_training_rejects_features_of_another_dtype():
    wide = blob_data(10, dim=2, seed=0)
    narrow = make_view(wide.features.astype(np.float32), wide.labels, 2)
    for dtype, data in ((np.float64, narrow), (np.float32, wide)):
        m = nn.init_model((2, 4, 4, 2), seed=0, dtype=dtype)
        with pytest.raises(ConfigurationError, match="float"):
            nn.train_epochs_tracked(m, data, epochs=1, lr=0.1, batch_size=4, rng_seed=0)


def test_model_and_dataset_take_float32_and_float64_only():
    n = nn.param_count(DIMS)
    for dtype in (np.float64, np.float32):
        assert nn.Model(DIMS, np.zeros(n, dtype)).params.dtype == dtype
        assert make_view(np.zeros((2, 3), dtype), [0, 1]).features.dtype == dtype
    assert nn.Model(DIMS, [0.0] * n).params.dtype == np.float64
    for dtype in (np.float16, np.int64, np.complex128):
        with pytest.raises(ConfigurationError, match="dtype"):
            nn.Model(DIMS, np.zeros(n, dtype))
        with pytest.raises(ConfigurationError, match="dtype"):
            DatasetView(np.zeros((2, 3), dtype), np.arange(2), np.array([0, 1]), 2)
    with pytest.raises(ConfigurationError, match="dtype"):
        nn.init_model(DIMS, seed=0, dtype=np.float16)


def test_float32_model_rounds_its_float64_twin():
    wide = nn.init_model(DIMS, seed=3)
    narrow = nn.init_model(DIMS, seed=3, dtype=np.float32)
    assert narrow.params.dtype == np.float32
    assert narrow.params.tobytes() == wide.params.astype(np.float32).tobytes()


def test_evaluate_matches_manual():
    data = blob_data(37, num_classes=3, dim=2, seed=5)
    m = nn.init_model((2, 4, 4, 3), seed=5)
    loss, acc = nn.evaluate(m, data)
    logits = nn._forward(nn._views(m.layer_dims, m.params), data.features)[-1]
    log_p = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    assert abs(loss + log_p[np.arange(len(data)), data.labels].mean()) < 1e-12
    assert acc == (logits.argmax(axis=1) == data.labels).mean()


def test_evaluate_chunking_invariant(monkeypatch):
    data = blob_data(101, num_classes=2, dim=2, seed=9)
    m = nn.init_model((2, 4, 4, 2), seed=9)
    whole = nn.evaluate(m, data)
    monkeypatch.setattr(nn, "_EVAL_CHUNK", 7)
    chunked = nn.evaluate(m, data)
    assert abs(whole[0] - chunked[0]) < 1e-12
    assert whole[1] == chunked[1]


@pytest.mark.parametrize("n", [1, nn._EVAL_CHUNK, nn._EVAL_CHUNK + 1])
def test_evaluate_view_matches_its_gathered_rows_bitwise(n):
    # a view gathers each chunk from scattered rows of its root: that must
    # give the bits of the same rows held as their own root matrix, on one
    # row, one full chunk and two chunks
    root = blob_data(n + 40, num_classes=3, dim=3, seed=n)
    idx = np.sort(np.random.default_rng(n).permutation(len(root))[:n])
    view = replace(root, indices=idx, labels=root.labels[idx])
    rows = make_view(root.features[idx], root.labels[idx], 3)
    m = nn.init_model((3, 5, 4, 3), seed=2)
    assert (np.array(nn.evaluate(m, view)).tobytes()
            == np.array(nn.evaluate(m, rows)).tobytes())


def test_aggregate_matches_manual_combination():
    base = nn.init_model(DIMS, seed=0)
    rng = np.random.default_rng(1)
    d1 = rng.normal(size=base.params.size)
    d2 = rng.normal(size=base.params.size)
    out = nn.aggregate(base, [d1, d2], [0.3, 0.7])
    assert np.allclose(out.params, base.params + 0.3 * d1 + 0.7 * d2,
                       rtol=0, atol=1e-12)
    assert out.layer_dims == base.layer_dims


def test_aggregate_order_invariance_is_exact():
    base = nn.init_model(DIMS, seed=2)
    rng = np.random.default_rng(3)
    deltas = [rng.normal(size=base.params.size) for _ in range(6)]
    w = rng.uniform(0.1, 1.0, size=6)
    w /= w.sum()
    ref = nn.aggregate(base, deltas, list(w))
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(6)
        shuffled = nn.aggregate(base, [deltas[i] for i in perm], [w[i] for i in perm])
        assert np.array_equal(ref.params, shuffled.params)  # bitwise, not approx


def test_aggregate_equal_weights_and_duplicate_deltas():
    base = nn.init_model(DIMS, seed=4)
    d = np.ones(base.params.size)
    out = nn.aggregate(base, [d, d.copy(), d.copy()], [1 / 3] * 3)
    assert np.allclose(out.params, base.params + d, rtol=0, atol=1e-12)


def test_aggregate_tied_weights_follow_weight_then_bytes_order():
    base = nn.init_model(DIMS, seed=5)
    rng = np.random.default_rng(8)
    # magnitudes spread over many decades, so the accumulation order shows in
    # the rounded sum; three runs of tied weights
    deltas = [rng.normal(size=base.params.size) * 10.0 ** rng.uniform(-6, 6, base.params.size)
              for _ in range(7)]
    w = [0.1, 0.2, 0.1, 0.2, 0.1, 0.15, 0.15]

    def accumulate(order):
        out = base.params.copy()
        for i in order:
            out += w[i] * deltas[i]
        return out

    old_key = sorted(range(7), key=lambda i: (w[i], deltas[i].tobytes()))
    ref = accumulate(old_key)
    # the byte tie-break decides: weight order alone, ties in list order,
    # gives different bits
    by_weight = sorted(range(7), key=w.__getitem__)
    assert by_weight != old_key
    assert not np.array_equal(accumulate(by_weight), ref)
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(7)
        out = nn.aggregate(base, [deltas[i] for i in perm], [w[i] for i in perm])
        assert np.array_equal(out.params, ref)


def test_aggregate_keeps_the_float32_dtype():
    base = nn.init_model(DIMS, seed=0, dtype=np.float32)
    rng = np.random.default_rng(0)
    deltas = [rng.normal(0.0, 0.1, base.params.size).astype(np.float32) for _ in range(3)]
    weights = [0.5, 0.3, 0.2]
    out = nn.aggregate(base, deltas, weights)
    assert out.params.dtype == np.float32
    want = base.params.copy()
    for d, w in sorted(zip(deltas, weights), key=lambda dw: dw[1]):
        want += np.float32(w) * d
    assert out.params.tobytes() == want.tobytes()


def test_aggregate_validation():
    base = nn.init_model(DIMS, seed=0)
    d = np.zeros(base.params.size)
    with pytest.raises(ContractViolation):
        nn.aggregate(base, [d], [0.5])  # does not sum to 1
    with pytest.raises(ContractViolation):
        nn.aggregate(base, [d, d], [1.5, -0.5])  # negative weight
    with pytest.raises(ContractViolation):
        nn.aggregate(base, [d[:-1]], [1.0])  # wrong shape
    with pytest.raises(ContractViolation):
        nn.aggregate(base, [], [])  # empty
    with pytest.raises(ContractViolation):
        nn.aggregate(base, [d], [0.5, 0.5])  # length mismatch
    for bad in ([math.nan, math.nan], [math.nan, 1.0], [math.inf, -math.inf],
                [math.inf, 0.0]):
        with pytest.raises(ContractViolation, match="non-finite"):
            nn.aggregate(base, [d, d], bad)


def test_checkpoint_roundtrip_bitexact(tmp_path):
    m = nn.init_model(DIMS, seed=6)
    data = blob_data(20, dim=3, seed=0)
    trained, _ = nn.train_epochs_tracked(m, data, 1, 0.1, 5, 0)
    path = tmp_path / "model.bin"
    nn.save_model(trained, path)
    loaded = nn.load_model(path)
    assert loaded.params.flags.owndata and not loaded.params.flags.writeable
    assert loaded.layer_dims == trained.layer_dims
    assert np.array_equal(loaded.params, trained.params)
    assert loaded.params.tobytes() == trained.params.tobytes()


def test_float32_checkpoint_roundtrip_exact(tmp_path):
    # the checkpoint stays float64; widening float32 is exact, so the values
    # come back unchanged, as a float64 model
    m = nn.init_model(DIMS, seed=6, dtype=np.float32)
    blobs = blob_data(20, dim=3, seed=0)
    data = make_view(blobs.features.astype(np.float32), blobs.labels, 2)
    trained, _ = nn.train_epochs_tracked(m, data, 1, 0.1, 5, 0)
    assert trained.params.dtype == np.float32
    path = tmp_path / "model.bin"
    nn.save_model(trained, path)
    assert path.stat().st_size == 16 + 8 * trained.params.size
    loaded = nn.load_model(path)
    assert loaded.params.dtype == np.float64
    assert np.array_equal(loaded.params, trained.params)
    assert loaded.params.astype(np.float32).tobytes() == trained.params.tobytes()


def test_checkpoint_corruption_detected(tmp_path):
    m = nn.init_model(DIMS, seed=7)
    path = tmp_path / "model.bin"
    nn.save_model(m, path)
    blob = path.read_bytes()

    short = tmp_path / "short.bin"
    short.write_bytes(blob[:10])
    with pytest.raises(DataFormatError, match="offset"):
        nn.load_model(short)

    clipped = tmp_path / "clipped.bin"
    clipped.write_bytes(blob[:-8])
    with pytest.raises(DataFormatError, match="offset"):
        nn.load_model(clipped)


def test_model_rejects_bad_shapes():
    with pytest.raises(ConfigurationError):
        nn.Model((3, 4, 5, 2), np.zeros(10))
    with pytest.raises(ConfigurationError):
        nn.Model((0, 4, 5, 2), np.zeros(nn.param_count((3, 4, 5, 2))))
    for dims in ((3, 4, -3, 2), (3, 0, 5, 2)):
        with pytest.raises(ConfigurationError, match="positive"):
            nn.init_model(dims, seed=0)


def test_dataset_helper_rejects_bad_values():
    with pytest.raises(Exception):
        make_view([[1.5, 0.0]], [0], 2)  # feature out of [0, 1]
