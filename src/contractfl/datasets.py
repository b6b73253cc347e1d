"""Dataset handling: IDX files, non-IID client partitioning, label statistics.

Two types. A `Dataset` owns a feature matrix with its labels: the loaded
MNIST files and the generated blob matrices are Datasets of 8-bit pixel
rows (uint8, 0-255), one byte per feature, and the tests' reference pools
hold float rows already in [0, 1]. A `DatasetView` is an index view into
one root Dataset plus its own label array. Every split a run reads is one:
the MNIST train and test sets (every row, or the first `subset` and
`test_subset`), the shuffled synthetic train and test splits, the
validation holdout, the pool left after it, and each client's shard. Rows
leave a root matrix only through `DatasetView.batches`, which gathers one
batch of rows at a time, for training and for evaluation alike, and
decodes a batch of pixels to float32 in [0, 1] as it gathers it.
Views compose, so every view indexes the root matrix directly, and a
client's labels can be corrupted without touching the pool or any sibling
client. A view carries no client id; `partition` returns the shards in
client order, and the caller numbers them.
"""

from __future__ import annotations

import gzip
import io
import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataFormatError
from .nn import check_dtype

logger = logging.getLogger(__name__)

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801
# bytes per IDX read: gzip's readinto goes through a bytes copy of this size
_READ_CHUNK = 1 << 18

# a pixel row holds one byte per feature; `DatasetView.batches` decodes it to
# DECODED_DTYPE as the pixel over 255, computed in DECODED_DTYPE. Every run
# stores pixels, so every run trains in DECODED_DTYPE: over seeds float32
# reached float64's final test accuracy on desk and 784-wide blobs, at half
# the bytes and, at 784 wide, about half the step time
PIXEL_DTYPE = np.dtype(np.uint8)
DECODED_DTYPE = np.dtype(np.float32)


@dataclass(frozen=True)
class Dataset:
    """A pool of samples: feature rows, integer labels, class count.
    The features are uint8 pixels (0-255), which views decode to float32 a
    batch at a time, or float64 or float32 values in [0, 1], the dtypes
    `nn` computes in, which are read as they are. They keep their dtype; a
    list of floats becomes float64."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        x = np.asarray(self.features)
        y = np.asarray(self.labels, dtype=np.int64)
        if x.dtype != PIXEL_DTYPE:
            check_dtype(x.dtype, "feature dtype")
        if x.ndim != 2:
            raise ConfigurationError(f"features must be 2-D, got shape {x.shape}")
        if y.shape != (x.shape[0],):
            raise ConfigurationError(
                f"labels shape {y.shape} does not match {x.shape[0]} rows")
        if x.dtype != PIXEL_DTYPE and x.size and (x.min() < 0.0 or x.max() > 1.0):
            raise ConfigurationError("feature values must lie in [0, 1]")
        if self.num_classes < 1:
            raise ConfigurationError(f"num_classes must be >= 1, got {self.num_classes}")
        if y.size and (y.min() < 0 or y.max() >= self.num_classes):
            raise ConfigurationError(
                f"labels must lie in [0, {self.num_classes}), got range "
                f"[{y.min()}, {y.max()}]")
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class DatasetView:
    """Rows `indices` of a root Dataset `parent`, with a private label array.

    Every split a run reads is one of these: the MNIST train and test sets,
    the shuffled synthetic train and test splits, the validation holdout,
    the pool after it, and each client's shard. A view never copies the
    parent's features whole: training and evaluation gather one batch of
    rows at a time (`batches`).
    """

    parent: Dataset
    indices: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        y = np.asarray(self.labels, dtype=np.int64)
        if idx.ndim != 1 or idx.size == 0:
            raise ConfigurationError("view needs a non-empty 1-D index array")
        # sort and compare neighbours: np.unique would import numpy.ma
        ordered = np.sort(idx)
        if (ordered[1:] == ordered[:-1]).any():
            raise ConfigurationError("view has duplicate indices")
        if idx.min() < 0 or idx.max() >= len(self.parent):
            raise ConfigurationError(
                f"view index out of range for pool of {len(self.parent)}")
        if y.shape != idx.shape:
            raise ConfigurationError(f"view: {y.size} labels for {idx.size} indices")
        if y.min() < 0 or y.max() >= self.parent.num_classes:
            raise ConfigurationError(
                f"view label out of range [0, {self.parent.num_classes})")
        idx.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "labels", y)

    def __len__(self) -> int:
        return self.indices.size

    @property
    def d_k(self) -> int:
        return self.indices.size

    @property
    def num_classes(self) -> int:
        return self.parent.num_classes

    @property
    def dim(self) -> int:
        """Feature width of the parent pool."""
        return self.parent.features.shape[1]

    @property
    def dtype(self) -> np.dtype:
        """Dtype of the features `batches` yields: DECODED_DTYPE for a
        parent of pixels, else the parent's own."""
        dtype = self.parent.features.dtype
        return DECODED_DTYPE if dtype == PIXEL_DTYPE else dtype

    def batches(self, order, size: int):
        """Walk positions `order` in contiguous batches of `size` rows (the
        last may be shorter), yielding each batch's features and labels.
        Each batch's rows are a fresh copy gathered from the parent pool, so
        only one batch of features is held at a time. Pixels are decoded as
        they are gathered: cast to DECODED_DTYPE and divided by 255 in it,
        into [0, 1]."""
        src = self.indices[order]
        y = self.labels[order]
        features = self.parent.features
        pixels = features.dtype == PIXEL_DTYPE
        for start in range(0, src.size, size):
            x = features.take(src[start:start + size], axis=0)
            if pixels:
                x = x.astype(DECODED_DTYPE)
                x /= DECODED_DTYPE.type(255)
            yield x, y[start:start + size]

    @property
    def label_hist(self) -> np.ndarray:
        counts = np.bincount(self.labels, minlength=self.parent.num_classes)
        return counts / self.d_k


@dataclass(frozen=True)
class PartitionSpec:
    """Knobs for the Zipf-quantity, Dirichlet-class-mix partition.

    val_fraction is the share of the training pool the server holds out as
    its validation split before the rest is partitioned (`split_holdout`).
    This is the config's `partition` section; the seed is not part of it.
    """

    num_clients: int = 20
    zipf_exponent: float = 1.0
    dirichlet_alpha: float = 0.1
    max_classes_per_client: int = 4
    val_fraction: float = 0.1

    def __post_init__(self):
        if self.num_clients < 1:
            raise ConfigurationError(f"num_clients must be >= 1, got {self.num_clients}")
        if not self.dirichlet_alpha > 0:
            raise ConfigurationError(f"dirichlet_alpha must be > 0, got {self.dirichlet_alpha}")
        if self.max_classes_per_client < 1:
            raise ConfigurationError(
                f"max_classes_per_client must be >= 1, got {self.max_classes_per_client}")
        if not 0 < self.val_fraction < 1:
            raise ConfigurationError(f"val_fraction must be in (0, 1), got {self.val_fraction}")


# ---------------------------------------------------------------------------
# IDX files
# ---------------------------------------------------------------------------

def _be32(blob: bytes, offset: int, what: str) -> int:
    if len(blob) < offset + 4:
        raise DataFormatError(
            f"{what}: file truncated at offset {len(blob)}, need 4 bytes at offset {offset}")
    return int.from_bytes(blob[offset:offset + 4], "big")


def parse_idx(images, labels, num_classes: int, max_rows: int | None = None) -> Dataset:
    """Read a big-endian IDX image/label pair, given as seekable binary
    streams, into a Dataset of pixels.

    Images are flattened to uint8 pixel rows, which a view decodes a batch
    at a time (`DatasetView.batches`). Each stream's length is found by
    seeking to its end and checked against its header before anything sized
    from the header is allocated; the kept rows are then read straight into
    the Dataset's own matrix, so a load never holds the file's bytes.
    With `max_rows`, only the first min(max_rows, count) images are kept;
    the header, both payload lengths and every label are still checked.
    Malformed input raises DataFormatError naming the byte offset at fault.
    """
    head = images.read(16)
    magic = _be32(head, 0, "image file")
    if magic != IMAGE_MAGIC:
        raise DataFormatError(
            f"image file: bad magic 0x{magic:08x} at offset 0, expected 0x{IMAGE_MAGIC:08x}")
    count = _be32(head, 4, "image file")
    rows = _be32(head, 8, "image file")
    cols = _be32(head, 12, "image file")
    expected = 16 + count * rows * cols
    size = images.seek(0, io.SEEK_END)
    if size != expected:
        raise DataFormatError(
            f"image file: payload ends at offset {size}, expected {expected} "
            f"for {count} images of {rows}x{cols}")

    head = labels.read(8)
    magic = _be32(head, 0, "label file")
    if magic != LABEL_MAGIC:
        raise DataFormatError(
            f"label file: bad magic 0x{magic:08x} at offset 0, expected 0x{LABEL_MAGIC:08x}")
    label_count = _be32(head, 4, "label file")
    size = labels.seek(0, io.SEEK_END)
    if size != 8 + label_count:
        raise DataFormatError(
            f"label file: payload ends at offset {size}, expected {8 + label_count}")
    if label_count != count:
        raise DataFormatError(
            f"label file: count {label_count} at offset 4 does not match image count {count}")

    labels.seek(8)
    y = np.frombuffer(labels.read(), dtype=np.uint8)
    bad = np.flatnonzero(y >= num_classes)
    if bad.size:
        raise DataFormatError(
            f"label file: label {y[bad[0]]} at offset {8 + int(bad[0])} "
            f"exceeds class count {num_classes}")
    keep = count if max_rows is None else min(max_rows, count)
    features = np.empty((keep, rows * cols), dtype=np.uint8)
    pixels = features.reshape(-1)
    images.seek(16)
    for start in range(0, pixels.size, _READ_CHUNK):
        images.readinto(pixels[start:start + _READ_CHUNK])
    return Dataset(features, y[:keep], num_classes)


def _open_idx(path):
    """An IDX file as a binary stream, through gzip if it starts with gzip's magic."""
    with open(path, "rb") as fh:
        zipped = fh.read(2) == b"\x1f\x8b"
    return gzip.open(path, "rb") if zipped else open(path, "rb")


def load_idx_pair(image_path, label_path, num_classes: int,
                  max_rows: int | None = None) -> Dataset:
    """Read an IDX image/label pair from disk, transparently ungzipping."""
    with _open_idx(image_path) as images, _open_idx(label_path) as labels:
        return parse_idx(images, labels, num_classes, max_rows)


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------

def largest_remainder(quotas: np.ndarray, total: int) -> np.ndarray:
    """Round nonnegative quotas to integers that sum exactly to total.

    Floors everything, then hands the leftover units to the largest
    fractional remainders; ties go to the lower index.
    """
    quotas = np.asarray(quotas, dtype=np.float64)
    if quotas.size == 0:
        raise ConfigurationError("largest_remainder needs at least one quota")
    base = np.floor(quotas).astype(np.int64)
    leftover = int(total) - int(base.sum())
    if leftover < 0:
        raise ConfigurationError(f"quotas sum past total by {-leftover}")
    if leftover > quotas.size:
        raise ConfigurationError(
            f"cannot place {leftover} leftover units across {quotas.size} slots")
    order = np.argsort(-(quotas - base), kind="stable")
    base[order[:leftover]] += 1
    return base


def zipf_counts(pool_size: int, num_clients: int, exponent: float) -> np.ndarray:
    """Sample counts proportional to rank^(-exponent), summing to pool_size."""
    ranks = np.arange(1, num_clients + 1, dtype=np.float64)
    # divide by the rank of largest weight so weights lie in (0, 1] and cannot
    # overflow; dividing by 1.0 is exact, so exponents >= 0 keep their bits
    top = 1.0 if exponent >= 0 else ranks[-1]
    weights = (ranks / top) ** (-exponent)
    quotas = pool_size * weights / weights.sum()
    return largest_remainder(quotas, pool_size)


def partition(ds: DatasetView, spec: PartitionSpec, seed: int) -> list[DatasetView]:
    """Split a pool into disjoint client shards.

    Client k (rank k, 1-based) targets a Zipf-weighted share of the pool.
    Its class mix is a Dirichlet draw truncated to the top
    max_classes_per_client classes and renormalized. Samples come from
    per-class pools without replacement, through one step: `draw` takes up
    to the asked rows from a class and returns what it could not take.
    Each chosen class is asked for its share plus the unmet demand carried
    from the classes before it; the chosen classes are then asked once more
    for what is still unmet, and if they are all dry, the fullest remaining
    classes are opened while the client holds fewer than
    max_classes_per_client distinct ones. The class cap is hard, so a late
    client can fall short of its target when every class it may touch is
    dry; the shortfall is logged. Every client ends up non-empty: a pool
    whose Zipf shares round some client's count to 0 is rejected before
    anything is drawn. Fully determined by spec and seed; spec.val_fraction
    is not read here. Shard i is client i's, and it indexes the root Dataset
    under `ds` directly.
    """
    n = len(ds)
    k = spec.num_clients
    counts = zipf_counts(n, k, spec.zipf_exponent)
    if counts.min() < 1:
        raise ConfigurationError(
            f"pool of {n} cannot cover {k} clients: at zipf_exponent "
            f"{spec.zipf_exponent}, client {int(np.argmin(counts))}'s Zipf share "
            f"rounds to 0 samples")
    rng = np.random.default_rng(seed)
    c = ds.num_classes
    pools = [rng.permutation(np.flatnonzero(ds.labels == cls)) for cls in range(c)]
    sizes = np.array([pool.size for pool in pools])
    cursors = np.zeros(c, dtype=np.int64)

    def draw(cls: int, want: int) -> int:
        """Take up to `want` rows of class `cls` for the current client;
        return how many it could not take."""
        got = pools[cls][cursors[cls]:cursors[cls] + want]
        cursors[cls] += got.size
        if got.size:
            used.add(cls)
            chosen.append(got)
        return want - got.size

    clients = []
    m = min(spec.max_classes_per_client, c)
    for i in range(k):
        probs = rng.dirichlet(np.full(c, spec.dirichlet_alpha))
        top = np.argsort(-probs, kind="stable")[:m]
        wants = largest_remainder(counts[i] * (probs[top] / probs[top].sum()),
                                  int(counts[i]))
        chosen, used, deficit = [], set(), 0
        for cls, want in zip(top, wants):
            deficit = draw(cls, int(want) + deficit)
        # a later class may have run dry while an earlier one kept rows
        for cls in top:
            deficit = draw(cls, deficit)
        # a deficit left now means every chosen class is dry: open the
        # fullest others, never holding more than m distinct classes
        for cls in np.argsort(cursors - sizes, kind="stable"):
            if deficit == 0 or len(used) == m:
                break
            deficit = draw(cls, deficit)
        if deficit > 0:
            logger.warning(
                "client %d short %d of %d samples: its %d allowed classes ran dry",
                i, deficit, int(counts[i]), m)
        picked = np.sort(np.concatenate(chosen))
        clients.append(DatasetView(ds.parent, ds.indices[picked], ds.labels[picked]))
    return clients


def holdout_count(n: int, fraction: float) -> int:
    """How many of n rows `split_holdout` holds out: n * fraction, rounded,
    and at least one."""
    return max(1, int(round(n * fraction)))


def split_holdout(ds: DatasetView, fraction: float,
                  seed: int) -> tuple[DatasetView, DatasetView]:
    """Split off a held-out slice (e.g. a validation set) from a pool.

    Returns (holdout, remainder), both views over the root Dataset under
    `ds`, so no feature row is copied for either, and the clients
    partitioned from the remainder are views of that root too.
    """
    if not 0.0 < fraction < 1.0:
        raise ConfigurationError(f"holdout fraction must be in (0, 1), got {fraction}")
    n = len(ds)
    h = holdout_count(n, fraction)
    perm = np.random.default_rng(seed).permutation(n)
    held, rest = np.sort(perm[:h]), np.sort(perm[h:])
    return (DatasetView(ds.parent, ds.indices[held], ds.labels[held]),
            DatasetView(ds.parent, ds.indices[rest], ds.labels[rest]))


# ---------------------------------------------------------------------------
# Label statistics and corruption
# ---------------------------------------------------------------------------

def emd(p: np.ndarray, q: np.ndarray) -> float:
    """L1 distance between two discrete distributions over the same classes."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise ConfigurationError(f"distributions must be 1-D and equal length, "
                                 f"got {p.shape} and {q.shape}")
    for name, v in (("first", p), ("second", q)):
        if (v < 0).any():
            raise ConfigurationError(f"{name} distribution has negative entries")
        if abs(v.sum() - 1.0) > 1e-9:
            raise ConfigurationError(f"{name} distribution sums to {v.sum()!r}, not 1")
    return float(np.abs(p - q).sum())


def uniform_benchmark(num_classes: int) -> np.ndarray:
    """The balanced reference distribution used to score client skew."""
    return np.full(num_classes, 1.0 / num_classes)


def flip_labels(cd: DatasetView, fraction: float, seed: int) -> DatasetView:
    """Return a copy of a client's view with floor(fraction * d_k) labels flipped.

    Victim samples are chosen uniformly without replacement; each new label
    is drawn uniformly from the other classes, so a flip never maps a label
    to itself. The parent pool and sibling clients are unaffected.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ConfigurationError(f"flip fraction must be in [0, 1], got {fraction}")
    c = cd.num_classes
    if c < 2:
        raise ConfigurationError("cannot flip labels with fewer than 2 classes")
    count = int(np.floor(fraction * cd.d_k))
    labels = cd.labels.copy()
    if count > 0:
        rng = np.random.default_rng(seed)
        victims = rng.choice(cd.d_k, size=count, replace=False)
        offsets = rng.integers(1, c, size=count)
        labels[victims] = (labels[victims] + offsets) % c
    return DatasetView(cd.parent, cd.indices, labels)


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

# rows of noise `synthetic_pair` draws into its block at a time
_DRAW_ROWS = 256


def synthetic_pair(num_classes: int, dim: int, train_count: int, test_count: int,
                   spread: float, seed: int,
                   dtype=np.float64) -> tuple[DatasetView, DatasetView]:
    """Generate matching train/test pools of Gaussian class blobs.

    Class means are drawn once and shared by both splits; samples add
    isotropic noise and are clipped into [0, 1], then shuffled. The noise is
    drawn in float64, `_DRAW_ROWS` rows of one class at a time into one
    reused block (the generator fills blocks in sequence, so the values do
    not depend on the block size), and each block is stored into a feature
    matrix of `dtype`: rounded to it for a float dtype, or quantized to the
    pixel round(255 x) for PIXEL_DTYPE, as runs store it. Each split is a
    shuffled view of its own blob matrix, which is never copied.
    Deterministic in seed.
    """
    if num_classes < 2 or dim < 1:
        raise ConfigurationError("synthetic data needs >= 2 classes and >= 1 dim")
    if spread <= 0:
        raise ConfigurationError(f"spread must be > 0, got {spread}")
    rng = np.random.default_rng(seed)
    means = rng.uniform(0.25, 0.75, size=(num_classes, dim))
    pixels = np.dtype(dtype) == PIXEL_DTYPE
    buf = np.empty((_DRAW_ROWS, dim))

    def draw(count: int) -> DatasetView:
        per = largest_remainder(np.full(num_classes, count / num_classes), count)
        labels = np.repeat(np.arange(num_classes), per)
        x = np.empty((count, dim), dtype)
        ends = np.cumsum(per)
        for cls, end in enumerate(ends):
            for start in range(end - per[cls], end, _DRAW_ROWS):
                block = buf[:min(_DRAW_ROWS, end - start)]
                # spread * z + mean is bitwise rng.normal(0, spread) + mean
                rng.standard_normal(out=block)
                block *= spread
                block += means[cls]
                np.clip(block, 0.0, 1.0, out=block)
                if pixels:
                    block *= 255
                    np.round(block, out=block)
                x[start:start + block.shape[0]] = block
        perm = rng.permutation(count)
        return DatasetView(Dataset(x, labels, num_classes), perm, labels[perm])

    return draw(train_count), draw(test_count)
