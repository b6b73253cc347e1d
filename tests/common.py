"""Shared builders for test fixtures.

`write_mnist_fixture` also runs as a script, so that a shell script can lay
the same IDX files down without a test session:

    python3 tests/common.py DIR [TRAIN_COUNT TEST_COUNT]

The counts default to the fixture's 1,500 and 300 images; 60000 10000
writes MNIST-sized files.
"""

import gzip
import os
import struct
import sys

import numpy as np

from contractfl.config import resolve_config
from contractfl.datasets import IMAGE_MAGIC, LABEL_MAGIC, DatasetView
from contractfl.simulation import Client


def make_view(features, labels, num_classes=None):
    """A view over every row of a fresh pool, as a client's shard is: float32
    rows kept as they are, any other rows as float64."""
    x = np.asarray(features)
    x = x if x.dtype == np.float32 else x.astype(np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if num_classes is None:
        num_classes = int(y.max()) + 1
    return DatasetView(x, np.arange(len(x)), y, num_classes)


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
    return make_view(np.clip(x, 0.0, 1.0), labels, num_classes)


def idx_images(arrays):
    """Pack 2-D uint8 arrays into IDX image bytes."""
    arr = np.asarray(arrays, dtype=np.uint8)
    n, rows, cols = arr.shape
    return struct.pack(">4i", IMAGE_MAGIC, n, rows, cols) + arr.tobytes()


def idx_labels(labels):
    lab = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">2i", LABEL_MAGIC, lab.size) + lab.tobytes()


def tiny_config(**over):
    """Small synthetic setup that runs a full async experiment in well under a second."""
    overrides = [
        "rounds=4",
        "partition.num_clients=6",
        "dataset.train_count=400",
        "dataset.test_count=120",
        "partition.max_classes_per_client=10",
    ]
    overrides += [f"{k}={v}" for k, v in over.items()]
    return resolve_config("desk", None, overrides)


def write_mnist_fixture(out_dir, gz=False, train_count=1500, test_count=300):
    """Write the four MNIST IDX files into `out_dir`: 28x28 class blobs of ten
    classes quantized to uint8, the same bytes on every call. With gz the
    files carry MNIST's `.gz` names and are gzipped with a zero timestamp."""
    rng = np.random.default_rng(0)
    means = rng.uniform(0.2, 0.8, size=(10, 28, 28))
    blobs = {}
    for split, count in (("train", train_count), ("t10k", test_count)):
        labels = rng.integers(0, 10, size=count)
        # the noise is drawn 5,000 images at a time, which gives the values
        # of one draw, so an MNIST-sized file needs no 376 MB float matrix
        pixels = np.empty((count, 28, 28), dtype=np.uint8)
        for start in range(0, count, 5000):
            block = labels[start:start + 5000]
            x = means[block] + rng.normal(0.0, 0.3, size=(block.size, 28, 28))
            pixels[start:start + block.size] = np.round(np.clip(x, 0, 1) * 255)
        blobs[f"{split}-images-idx3-ubyte"] = idx_images(pixels)
        blobs[f"{split}-labels-idx1-ubyte"] = idx_labels(labels)
    os.makedirs(out_dir, exist_ok=True)
    for name, blob in blobs.items():
        with open(os.path.join(out_dir, name + (".gz" if gz else "")), "wb") as fh:
            fh.write(gzip.compress(blob, mtime=0) if gz else blob)


if __name__ == "__main__":
    counts = dict(zip(("train_count", "test_count"), map(int, sys.argv[2:4])))
    write_mnist_fixture(sys.argv[1], **counts)
