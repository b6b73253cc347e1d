"""Minimal dense-network engine used by the simulator and baselines.

Architecture is fixed at two hidden layers with ReLU activations and a
softmax cross-entropy objective. All parameters live in one flat vector so
that client updates can be exchanged, scaled, and aggregated as plain
arrays. Layout, in order: W1 (in x h1, row-major), b1, W2 (h1 x h2), b2,
W3 (h2 x out), b3.

The vector is float32, the dtype every run trains in, or float64, the
tests' reference (`DTYPES`). That one dtype is the whole computation's:
training takes features of the model's dtype (a view of pixel rows
decodes to float32) and rejects others, every buffer of a step is
allocated in it, and a delta and the merged model keep it. Checkpoints
are float64 either way, since widening float32 is exact.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolation, DataFormatError, TrainingDiverged

_EVAL_CHUNK = 4096

# the parameter and feature dtypes the engine computes in
DTYPES = (np.dtype(np.float64), np.dtype(np.float32))


def check_dtype(dtype: np.dtype, what: str) -> None:
    """A ConfigurationError naming `what` unless `dtype` is one of DTYPES;
    `Model` and a `datasets.Dataset` of float rows hold the rule through it."""
    if dtype not in DTYPES:
        raise ConfigurationError(f"{what} must be float64 or float32, got {dtype}")


@dataclass(frozen=True)
class Model:
    """Immutable network state: layer sizes plus the flat parameter vector.
    The vector is float64 or float32, and a model keeps its dtype; a list
    of floats becomes float64, and any other dtype is a ConfigurationError.
    A vector that owns its data is handed over and frozen in place; one
    that does not (a view, a `frombuffer` array) is copied first."""

    layer_dims: tuple[int, int, int, int]
    params: np.ndarray

    def __post_init__(self):
        dims = _layer_dims(self.layer_dims)
        params = np.asarray(self.params)
        check_dtype(params.dtype, "parameter vector dtype")
        if params.ndim != 1 or params.size != param_count(dims):
            raise ConfigurationError(
                f"parameter vector has length {params.size}, expected {param_count(dims)}"
            )
        if not params.flags.owndata:
            params = params.copy()
        params.flags.writeable = False
        object.__setattr__(self, "layer_dims", dims)
        object.__setattr__(self, "params", params)


def _layer_dims(layer_dims) -> tuple[int, int, int, int]:
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) != 4 or any(d <= 0 for d in dims):
        raise ConfigurationError(f"layer_dims must be 4 positive ints, got {layer_dims}")
    return dims


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


def init_model(layer_dims, seed: int, dtype=np.float64) -> Model:
    """Build a model with uniform Glorot weights and zero biases.

    Each weight matrix is drawn from U(-a, a) with a = sqrt(6 / (fan_in +
    fan_out)), which keeps activation variance stable across layers. The
    draw is float64 and is rounded to `dtype`, so a float32 model starts at
    its float64 twin's weights.
    """
    dims = _layer_dims(layer_dims)
    rng = np.random.default_rng(seed)
    params = np.zeros(param_count(dims))
    w1, b1, w2, b2, w3, b3 = _views(dims, params)
    for w in (w1, w2, w3):
        fan_in, fan_out = w.shape
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w[:] = rng.uniform(-bound, bound, size=w.shape)
    return Model(dims, params.astype(dtype, copy=False))


def _forward(views, x, out=(None, None, None)):
    """Hidden activations and logits; each ReLU is applied in place. `out`
    holds the three arrays to write them into, or None for fresh ones."""
    w1, b1, w2, b2, w3, b3 = views
    a1 = np.dot(x, w1, out=out[0])
    a1 += b1
    np.maximum(a1, 0.0, out=a1)
    a2 = np.dot(a1, w2, out=out[1])
    a2 += b2
    np.maximum(a2, 0.0, out=a2)
    logits = np.dot(a2, w3, out=out[2])
    logits += b3
    return a1, a2, logits


def _log_softmax(logits, tmp=(None, None, None)):
    """Row-wise log-softmax, computed in place over `logits`. `tmp` holds
    the (n, classes), (n, 1) and (n, 1) scratch arrays, or None for fresh
    ones."""
    exps, row_max, row_sum = tmp
    logits -= np.maximum.reduce(logits, axis=1, keepdims=True, out=row_max)
    row_sum = np.add.reduce(np.exp(logits, out=exps), axis=1, keepdims=True, out=row_sum)
    logits -= np.log(row_sum, out=row_sum)
    return logits


class _StepBuffers:
    """Every array one step on a batch of n rows writes, in the parameters'
    dtype: both hidden activations in one block (`a1`, `a2`), both ReLU
    masks as 0.0/1.0 in one block of the same layout, the logits with a
    flat view, the softmax scratch, d_z2 and d_z1; and each row's offset
    into the flat logits."""

    __slots__ = ("acts", "a1", "a2", "live", "live1", "live2", "logits", "flat",
                 "softmax", "d_z2", "d_z1", "offsets", "picks")

    def __init__(self, layer_dims, n, dtype):
        _, d1, d2, d3 = layer_dims
        self.acts = np.empty(n * (d1 + d2), dtype)
        self.a1 = self.acts[:n * d1].reshape(n, d1)
        self.a2 = self.acts[n * d1:].reshape(n, d2)
        self.live = np.empty_like(self.acts)
        self.live1 = self.live[:n * d1].reshape(n, d1)
        self.live2 = self.live[n * d1:].reshape(n, d2)
        self.logits = np.empty((n, d3), dtype)
        self.flat = self.logits.reshape(-1)
        self.softmax = (np.empty((n, d3), dtype), np.empty((n, 1), dtype),
                        np.empty((n, 1), dtype))
        self.d_z2 = np.empty((n, d2), dtype)
        self.d_z1 = np.empty((n, d1), dtype)
        self.offsets = np.arange(n) * d3
        self.picks = np.empty_like(self.offsets)


class _Workspace:
    """Buffers for one training call: the six parameter views over `params`,
    one gradient buffer with its views, and per batch size the
    `_StepBuffers` that every step of that size writes, built the first
    time the size is seen. Every buffer has the parameters' dtype. What a
    warmed step still allocates is the label picks' values and numpy's
    iterator buffers for the broadcast bias adds."""

    __slots__ = ("layer_dims", "views", "grad", "grad_views", "_steps")

    def __init__(self, layer_dims, params):
        self.layer_dims = layer_dims
        self.views = _views(layer_dims, params)
        self.grad = np.empty_like(params)
        self.grad_views = _views(layer_dims, self.grad)
        self._steps = {}

    def step_buffers(self, n):
        bufs = self._steps.get(n)
        if bufs is None:
            bufs = self._steps[n] = _StepBuffers(self.layer_dims, n, self.grad.dtype)
        return bufs


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
    b = ws.step_buffers(n)

    a1, a2, logits = _forward(ws.views, x, (b.a1, b.a2, b.logits))
    # a ReLU output is positive exactly where its input is; the 0.0/1.0
    # mask multiplies as the bool mask's cast would, with no cast buffer
    np.greater(b.acts, 0.0, out=b.live)
    log_p = _log_softmax(logits, b.softmax)
    picks = np.add(b.offsets, y, out=b.picks)  # each row's label in b.flat
    loss = -float(np.add.reduce(b.flat.take(picks))) / n

    d_logits = np.exp(log_p, out=log_p)
    b.flat[picks] -= 1.0
    d_logits /= n

    np.dot(a2.T, d_logits, out=gw3)
    np.add.reduce(d_logits, axis=0, out=gb3)
    d_z2 = np.dot(d_logits, w3.T, out=b.d_z2)
    d_z2 *= b.live2
    np.dot(a1.T, d_z2, out=gw2)
    np.add.reduce(d_z2, axis=0, out=gb2)
    d_z1 = np.dot(d_z2, w2.T, out=b.d_z1)
    d_z1 *= b.live1
    # np.dot zero-fills its out before the product; over this (input x
    # hidden1) block that pass costs more than dot's lighter dispatch saves
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
    so a call holds one batch of features however large `data` is. The
    features must have the model's dtype, which every step computes in.

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
    if data.dtype != model.params.dtype:
        raise ConfigurationError(
            f"features are {data.dtype} but the model is {model.params.dtype}")
    params = model.params.copy()
    workspace = _Workspace(dims, params)
    prox = np.empty_like(params) if mu else None  # mu * (w - w0), one per call
    rng = np.random.default_rng(rng_seed)
    epoch_losses = np.zeros(epochs)
    step = 0
    # divergence overflows before the loss check below names it: no warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for ep in range(epochs):
            total = 0.0
            for x, y in data.batches(rng.permutation(n), batch_size):
                loss, grad = loss_and_gradient(dims, params, x, y, workspace)
                if not math.isfinite(loss):
                    raise TrainingDiverged(step, loss)
                if mu:
                    np.subtract(params, model.params, out=prox)
                    prox *= mu
                    grad += prox
                grad *= lr
                params -= grad
                total += loss * y.shape[0]
                step += 1
            epoch_losses[ep] = total / n
    return Model(dims, params), epoch_losses


def evaluate(model: Model, data) -> tuple[float, float]:
    """Mean cross-entropy loss and top-1 accuracy over a `DatasetView`.

    The rows are walked in order, `_EVAL_CHUNK` at a time, through
    `data.batches`, which gathers one chunk of rows at a time.
    """
    n = len(data)  # a DatasetView is never empty
    views = _views(model.layer_dims, model.params)
    loss_sum = 0.0
    correct = 0
    for xs, ys in data.batches(np.arange(n), _EVAL_CHUNK):
        logits = _forward(views, xs)[-1]
        del xs  # free a gathered chunk before the next one is gathered
        correct += int((logits.argmax(axis=1) == ys).sum())
        log_p = _log_softmax(logits)
        loss_sum += float(-log_p[np.arange(ys.shape[0]), ys].sum())
    return loss_sum / n, correct / n


def aggregate(base: Model, deltas: list[np.ndarray], weights: list[float]) -> Model:
    """Apply a convex combination of parameter deltas to a base model.

    Weights must be finite, nonnegative and sum to 1 within 1e-9.
    Accumulation order is canonicalized (sorted by weight, then by delta
    bytes) so the result does not depend on how the caller ordered the
    list. The sum is taken in the base model's dtype: the deltas are read in
    it (not copied when they have it already) and the result keeps it.
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
    dtype = base.params.dtype
    arrs = []
    for d in deltas:
        a = np.asarray(d, dtype=dtype)
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
    term = np.empty_like(out)
    for i in order:
        # a Python float weight keeps the product in the deltas' dtype
        out += np.multiply(arrs[i], float(w[i]), out=term)
    return Model(base.layer_dims, out)


def save_model(model: Model, path) -> None:
    """Write a checkpoint: four little-endian uint32 layer dims, then the
    parameter vector as little-endian float64. Round-trips bit-exactly; a
    float32 model's values come back exactly, as a float64 model."""
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
    return Model(dims, np.frombuffer(blob, dtype="<f8", offset=16))
