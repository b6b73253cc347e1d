"""Minimal dense-network engine used by the simulator and baselines.

Architecture is fixed at two hidden layers with ReLU activations and a
softmax cross-entropy objective. All parameters live in one flat float64
vector so that client updates can be exchanged, scaled, and aggregated as
plain arrays. Layout, in order: W1 (in x h1, row-major), b1, W2 (h1 x h2),
b2, W3 (h2 x out), b3.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolation, DataFormatError, TrainingDiverged

_EVAL_CHUNK = 4096


@dataclass(frozen=True)
class Model:
    """Immutable network state: layer sizes plus the flat parameter vector."""

    layer_dims: tuple[int, int, int, int]
    params: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        if len(dims) != 4 or any(d <= 0 for d in dims):
            raise ConfigurationError(f"layer_dims must be 4 positive ints, got {self.layer_dims}")
        params = np.asarray(self.params, dtype=np.float64)
        if params.ndim != 1 or params.size != param_count(dims):
            raise ConfigurationError(
                f"parameter vector has length {params.size}, expected {param_count(dims)}"
            )
        params = params.copy()
        params.flags.writeable = False
        object.__setattr__(self, "layer_dims", dims)
        object.__setattr__(self, "params", params)


def param_count(layer_dims) -> int:
    d0, d1, d2, d3 = layer_dims
    return d0 * d1 + d1 + d1 * d2 + d2 + d2 * d3 + d3


def _views(layer_dims, params):
    """Reshape the flat vector into (W1, b1, W2, b2, W3, b3) without copying."""
    d0, d1, d2, d3 = layer_dims
    o1 = d0 * d1
    o2 = o1 + d1
    o3 = o2 + d1 * d2
    o4 = o3 + d2
    o5 = o4 + d2 * d3
    w1 = params[:o1].reshape(d0, d1)
    b1 = params[o1:o2]
    w2 = params[o2:o3].reshape(d1, d2)
    b2 = params[o3:o4]
    w3 = params[o4:o5].reshape(d2, d3)
    b3 = params[o5:o5 + d3]
    return w1, b1, w2, b2, w3, b3


def init_model(layer_dims, seed: int) -> Model:
    """Build a model with uniform Glorot weights and zero biases.

    Each weight matrix is drawn from U(-a, a) with a = sqrt(6 / (fan_in +
    fan_out)), which keeps activation variance stable across layers.
    """
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) != 4 or any(d <= 0 for d in dims):
        raise ConfigurationError(f"layer_dims must be 4 positive ints, got {layer_dims}")
    rng = np.random.default_rng(seed)
    params = np.zeros(param_count(dims))
    w1, b1, w2, b2, w3, b3 = _views(dims, params)
    for w in (w1, w2, w3):
        fan_in, fan_out = w.shape
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w[:] = rng.uniform(-bound, bound, size=w.shape)
    return Model(dims, params)


def _forward(views, x):
    """Hidden activations and logits; each ReLU is applied in place."""
    w1, b1, w2, b2, w3, b3 = views
    a1 = np.matmul(x, w1)
    a1 += b1
    np.maximum(a1, 0.0, out=a1)
    a2 = np.matmul(a1, w2)
    a2 += b2
    np.maximum(a2, 0.0, out=a2)
    logits = np.matmul(a2, w3)
    logits += b3
    return a1, a2, logits


def _log_softmax(logits):
    """Row-wise log-softmax, computed in place over `logits`."""
    logits -= np.maximum.reduce(logits, axis=1, keepdims=True)
    logits -= np.log(np.add.reduce(np.exp(logits), axis=1, keepdims=True))
    return logits


class _Workspace:
    """Buffers for one training call: the six parameter views over `params`,
    one gradient buffer with its views, and np.arange(n) per batch size."""

    __slots__ = ("views", "grad", "grad_views", "_aranges")

    def __init__(self, layer_dims, params):
        self.views = _views(layer_dims, params)
        self.grad = np.empty_like(params)
        self.grad_views = _views(layer_dims, self.grad)
        self._aranges = {}

    def arange(self, n):
        rows = self._aranges.get(n)
        if rows is None:
            rows = self._aranges[n] = np.arange(n)
        return rows


def loss_and_gradient(layer_dims, params, x, y, workspace=None):
    """Mean cross-entropy loss and its gradient in the flat parameter layout.

    Takes the layer sizes and a bare parameter vector rather than a Model,
    so the training loop never builds a Model per step. Without a workspace
    the gradient is a fresh array. With one (built over this same `params`)
    the gradient is the workspace's buffer, overwritten by the next call.
    """
    ws = _Workspace(layer_dims, params) if workspace is None else workspace
    _, _, w2, _, w3, _ = ws.views
    gw1, gb1, gw2, gb2, gw3, gb3 = ws.grad_views
    n = x.shape[0]
    rows = ws.arange(n)

    a1, a2, logits = _forward(ws.views, x)
    log_p = _log_softmax(logits)
    loss = -float(np.add.reduce(log_p[rows, y])) / n

    d_logits = np.exp(log_p, out=log_p)
    d_logits[rows, y] -= 1.0
    d_logits /= n

    # a ReLU output is positive exactly where its input is
    np.matmul(a2.T, d_logits, out=gw3)
    np.add.reduce(d_logits, axis=0, out=gb3)
    d_z2 = np.matmul(d_logits, w3.T)
    d_z2 *= a2 > 0.0
    np.matmul(a1.T, d_z2, out=gw2)
    np.add.reduce(d_z2, axis=0, out=gb2)
    d_z1 = np.matmul(d_z2, w2.T)
    d_z1 *= a1 > 0.0
    np.matmul(x.T, d_z1, out=gw1)
    np.add.reduce(d_z1, axis=0, out=gb1)
    return loss, ws.grad


def train_epochs_tracked(model: Model, data, epochs: int, lr: float, batch_size: int,
                         rng_seed: int, mu: float = 0.0) -> tuple[Model, np.ndarray]:
    """Run mini-batch SGD; return the trained model and per-epoch mean loss.

    This is the one local-training loop: the async simulator and every
    baseline train through it. The caller's model is never mutated. Sample
    order is reshuffled once per epoch from a generator seeded with
    rng_seed, so equal seeds reproduce the exact trajectory. Each epoch
    walks its shuffled rows in contiguous batches (`data.batches`), the
    final partial batch included, and gathers one batch of rows per step,
    so a call holds one batch of features however large `data` is.

    With mu > 0 every gradient gains mu * (w - w0), FedProx's proximal pull
    toward the starting parameters w0; mu = 0 is plain SGD, bit for bit.
    """
    if epochs < 1:
        raise ConfigurationError(f"epochs must be >= 1, got {epochs}")
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    if not mu >= 0:
        raise ConfigurationError(f"mu must be >= 0, got {mu}")
    dims = model.layer_dims
    n = len(data)  # a DatasetView is never empty
    if data.dim != dims[0]:
        raise ConfigurationError(
            f"feature dim {data.dim} does not match input dim {dims[0]}")
    params = model.params.copy()
    workspace = _Workspace(dims, params)
    rng = np.random.default_rng(rng_seed)
    epoch_losses = np.zeros(epochs)
    step = 0
    for ep in range(epochs):
        total = 0.0
        for x, y in data.batches(rng.permutation(n), batch_size):
            loss, grad = loss_and_gradient(dims, params, x, y, workspace)
            if not math.isfinite(loss):
                raise TrainingDiverged(step, loss)
            if mu:
                grad += mu * (params - model.params)
            grad *= lr
            params -= grad
            total += loss * y.shape[0]
            step += 1
        epoch_losses[ep] = total / n
    return Model(dims, params), epoch_losses


def evaluate(model: Model, data) -> tuple[float, float]:
    """Mean cross-entropy loss and top-1 accuracy over a Dataset or a view.

    The rows are walked in order, `_EVAL_CHUNK` at a time (`data.chunks`):
    a Dataset's chunks are slices, and a view gathers one chunk at a time.
    """
    n = len(data)
    if n == 0:
        raise ConfigurationError("cannot evaluate on an empty dataset")
    views = _views(model.layer_dims, model.params)
    loss_sum = 0.0
    correct = 0
    for xs, ys in data.chunks(_EVAL_CHUNK):
        logits = _forward(views, xs)[-1]
        del xs  # free a gathered chunk before the next one is gathered
        correct += int((logits.argmax(axis=1) == ys).sum())
        log_p = _log_softmax(logits)
        loss_sum += float(-log_p[np.arange(ys.shape[0]), ys].sum())
    return loss_sum / n, correct / n


def aggregate(base: Model, deltas: list[np.ndarray], weights: list[float]) -> Model:
    """Apply a convex combination of parameter deltas to a base model.

    Weights must be finite, nonnegative and sum to 1 within 1e-9. Accumulation order
    is canonicalized (sorted by weight, then by delta bytes) so the result
    does not depend on how the caller ordered the list.
    """
    if len(deltas) != len(weights):
        raise ContractViolation(
            f"{len(deltas)} deltas but {len(weights)} weights")
    w = np.asarray(weights, dtype=np.float64)
    if w.size == 0:
        raise ContractViolation("aggregate needs at least one delta")
    if not np.isfinite(w).all():
        raise ContractViolation(f"non-finite aggregation weight in {weights}")
    if (w < 0).any():
        raise ContractViolation(f"negative aggregation weight in {weights}")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ContractViolation(f"aggregation weights sum to {w.sum()!r}, not 1")
    arrs = []
    for d in deltas:
        a = np.asarray(d, dtype=np.float64)
        if a.shape != base.params.shape:
            raise ContractViolation(
                f"delta length {a.size} does not match model size {base.params.size}")
        arrs.append(a)
    # the same order as sorting by (weight, delta bytes), but the bytes of a
    # delta are built only when another delta has the same weight
    order = []
    for _, run in itertools.groupby(sorted(range(len(arrs)), key=w.__getitem__),
                                    key=w.__getitem__):
        run = list(run)
        if len(run) > 1:
            run.sort(key=lambda i: arrs[i].tobytes())
        order += run
    out = base.params.copy()
    for i in order:
        out += w[i] * arrs[i]
    return Model(base.layer_dims, out)


def save_model(model: Model, path) -> None:
    """Write a checkpoint: four little-endian uint32 layer dims, then the
    parameter vector as little-endian float64. Round-trips bit-exactly."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4I", *model.layer_dims))
        fh.write(model.params.astype("<f8", copy=False).tobytes())


def load_model(path) -> Model:
    """Read a checkpoint written by save_model."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16:
        raise DataFormatError(f"checkpoint truncated at offset {len(blob)}: header needs 16 bytes")
    dims = struct.unpack("<4I", blob[:16])
    expected = 16 + 8 * param_count(dims)
    if len(blob) != expected:
        raise DataFormatError(
            f"checkpoint payload ends at offset {len(blob)}, expected {expected} "
            f"for layer dims {dims}")
    params = np.frombuffer(blob, dtype="<f8", offset=16).copy()
    return Model(dims, params)
