"""Shared builders for test fixtures."""

import numpy as np

from contractfl.datasets import Dataset, DatasetView
from contractfl.simulation import Client


def make_dataset(features, labels, num_classes=None):
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if num_classes is None:
        num_classes = int(y.max()) + 1
    return Dataset(x, y, num_classes)


def make_view(features, labels, num_classes=None):
    """A view over every row of a fresh pool, as a client's shard is."""
    ds = make_dataset(features, labels, num_classes)
    return DatasetView(ds, np.arange(len(ds)), ds.labels.copy())


def make_client(client_id, features, labels, num_classes=None):
    """A client record holding a view of its own data and neutral terms."""
    return Client(client_id=client_id,
                  data=make_view(features, labels, num_classes), emd=0.0,
                  theta=0.5, level=1, per_epoch_delay=1.0)


def blob_data(n, num_classes=2, dim=2, spread=0.05, seed=0):
    """Well-separated class blobs; trivially learnable."""
    rng = np.random.default_rng(seed)
    centers = np.linspace(0.15, 0.85, num_classes)
    labels = rng.integers(0, num_classes, size=n)
    x = centers[labels][:, None] + rng.normal(0.0, spread, size=(n, dim))
    return make_dataset(np.clip(x, 0.0, 1.0), labels, num_classes)
