import gzip
import io
import logging
import re
import struct
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from common import idx_images, idx_labels, make_view, write_mnist_fixture
from contractfl import datasets
from contractfl.errors import ConfigurationError, DataFormatError


def parse_idx(image_bytes, label_bytes, *args, **kwargs):
    """`datasets.parse_idx` over in-memory IDX files."""
    return datasets.parse_idx(io.BytesIO(image_bytes), io.BytesIO(label_bytes),
                              *args, **kwargs)


def test_parse_idx_worked_example():
    imgs = [[[0, 51], [102, 255]], [[255, 0], [0, 0]]]
    ds = parse_idx(idx_images(imgs), idx_labels([7, 0]), num_classes=8)
    assert ds.features.shape == (2, 4)
    assert ds.features[0].tolist() == [0, 51, 102, 255]
    x, _ = next(ds.batches([0], 1))
    assert np.allclose(x[0], [0, 51 / 255, 102 / 255, 1.0], atol=1e-7)
    assert ds.labels.tolist() == [7, 0]


def test_parse_idx_explicit_num_classes():
    ds = parse_idx(idx_images([[[0]]]), idx_labels([3]), num_classes=10)
    assert ds.num_classes == 10
    assert ds.features.shape == (1, 1)


def test_parse_idx_bad_image_magic():
    blob = struct.pack(">4i", 0x00000801, 1, 1, 1) + b"\x00"
    with pytest.raises(DataFormatError, match="offset 0"):
        parse_idx(blob, idx_labels([0]), num_classes=10)


def test_parse_idx_bad_label_magic():
    with pytest.raises(DataFormatError, match="offset 0"):
        parse_idx(idx_images([[[0]]]),
                  struct.pack(">2i", 0x00000803, 1) + b"\x00", num_classes=10)


def test_parse_idx_truncated_payload():
    good = idx_images([[[0, 1], [2, 3]]])
    with pytest.raises(DataFormatError, match="offset"):
        parse_idx(good[:-2], idx_labels([0]), num_classes=10)
    with pytest.raises(DataFormatError, match="offset"):
        parse_idx(good[:9], idx_labels([0]), num_classes=10)  # header itself cut short


def test_parse_idx_count_mismatch():
    with pytest.raises(DataFormatError, match="does not match image count"):
        parse_idx(idx_images([[[0]]]), idx_labels([0, 1]), num_classes=10)


def test_parse_idx_label_out_of_range():
    with pytest.raises(DataFormatError):
        parse_idx(idx_images([[[0]]]), idx_labels([4]), num_classes=3)


def test_parse_idx_max_rows_decodes_a_prefix_and_checks_every_label():
    imgs = [[[0, 51], [102, 255]], [[255, 0], [0, 0]], [[9, 9], [9, 9]]]
    full = parse_idx(idx_images(imgs), idx_labels([7, 0, 2]), num_classes=8)
    for max_rows, keep in ((1, 1), (2, 2), (3, 3), (5, 3)):
        ds = parse_idx(idx_images(imgs), idx_labels([7, 0, 2]),
                       num_classes=8, max_rows=max_rows)
        assert np.array_equal(ds.features, full.features[:keep])
        assert np.array_equal(ds.labels, full.labels[:keep])
    # a label past the decoded rows is still checked, and so is the payload
    with pytest.raises(DataFormatError, match="offset 10"):
        parse_idx(idx_images(imgs), idx_labels([7, 0, 9]), num_classes=8,
                  max_rows=1)
    with pytest.raises(DataFormatError, match="offset"):
        parse_idx(idx_images(imgs)[:-1], idx_labels([7, 0, 2]), num_classes=8,
                  max_rows=1)


def test_load_idx_pair_plain_and_gzip(tmp_path):
    img_blob = idx_images([[[10, 20], [30, 40]], [[1, 2], [3, 4]]])
    lab_blob = idx_labels([1, 0])
    (tmp_path / "img").write_bytes(img_blob)
    (tmp_path / "lab").write_bytes(lab_blob)
    with gzip.open(tmp_path / "img.gz", "wb") as fh:
        fh.write(img_blob)
    with gzip.open(tmp_path / "lab.gz", "wb") as fh:
        fh.write(lab_blob)
    plain = datasets.load_idx_pair(tmp_path / "img", tmp_path / "lab", num_classes=2)
    zipped = datasets.load_idx_pair(tmp_path / "img.gz", tmp_path / "lab.gz", num_classes=2)
    assert np.array_equal(plain.features, zipped.features)
    assert np.array_equal(plain.labels, zipped.labels)


@pytest.mark.parametrize("gz", [False, True])
@pytest.mark.parametrize("max_rows", [200, None])
def test_load_idx_pair_holds_the_kept_rows_once(tmp_path, gz, max_rows):
    # a 1.57 MB image file: holding it whole, or the kept rows twice, breaks
    # the 1 MB of slack left for the labels and the read buffers
    write_mnist_fixture(tmp_path, gz=gz, train_count=2000, test_count=10)
    suffix = ".gz" if gz else ""
    paths = (tmp_path / f"train-images-idx3-ubyte{suffix}",
             tmp_path / f"train-labels-idx1-ubyte{suffix}")
    datasets.load_idx_pair(*paths, num_classes=10, max_rows=1)  # lazy imports
    tracemalloc.start()
    try:
        ds = datasets.load_idx_pair(*paths, num_classes=10, max_rows=max_rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ds) == (max_rows or 2000)
    assert peak < ds.features.nbytes + (1 << 20)


def test_largest_remainder_worked_example():
    got = datasets.largest_remainder(np.array([1.5, 1.5, 1.0]), 4)
    assert got.tolist() == [2, 1, 1]  # tie on remainder goes to the earlier index


def test_largest_remainder_sums_and_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = int(rng.integers(1, 12))
        total = int(rng.integers(0, 200))
        w = rng.uniform(0.01, 1.0, size=k)
        quotas = w / w.sum() * total
        counts = datasets.largest_remainder(quotas, total)
        assert counts.sum() == total
        assert (counts >= 0).all()
        assert (np.abs(counts - quotas) < 1.0).all()


def test_zipf_counts_small_frozen():
    # weights 1, 1/2, 1/3, 1/4 over 10 samples: quotas 4.8, 2.4, 1.6, 1.2
    got = datasets.zipf_counts(10, 4, 1.0)
    assert got.tolist() == [5, 2, 2, 1]


def test_zipf_counts_200_100():
    counts = datasets.zipf_counts(200, 100, 1.0)
    assert counts.sum() == 200
    assert (np.diff(counts) <= 0).all()  # nonincreasing in rank
    assert counts[0] > counts[-1]


def test_zipf_counts_zero_exponent_uniform():
    counts = datasets.zipf_counts(100, 10, 0.0)
    assert counts.tolist() == [10] * 10


def test_zipf_counts_large_negative_exponent_does_not_overflow():
    # 20 ** 1000 overflows a float; weights scaled by the last rank do not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = datasets.zipf_counts(3600, 20, -1000.0)
    assert counts.tolist() == [0] * 19 + [3600]


def test_partition_uncapped_covers_pool_exactly():
    # with the class cap open, every client meets its Zipf target, so the
    # shards tile the pool and realized sizes inherit the target monotonicity
    pool = make_view(np.linspace(0, 1, 500)[:, None] % 1.0,
                     np.arange(500) % 10, 10)
    spec = datasets.PartitionSpec(num_clients=20, max_classes_per_client=10)
    clients = datasets.partition(pool, spec, seed=3)
    assert len(clients) == 20
    all_idx = np.concatenate([c.indices for c in clients])
    assert all_idx.size == 500
    assert np.unique(all_idx).size == 500
    sizes = np.array([c.d_k for c in clients])
    assert np.array_equal(sizes, datasets.zipf_counts(500, 20, 1.0))
    assert (np.diff(sizes) <= 0).all()
    for c in clients:
        assert c.d_k >= 1
        assert np.array_equal(c.labels, pool.labels[c.indices])


def test_partition_class_cap_and_quantity_skew():
    rng = np.random.default_rng(1)
    pool = make_view(rng.uniform(size=(4000, 3)), rng.integers(0, 10, 4000), 10)
    spec = datasets.PartitionSpec(num_clients=100, max_classes_per_client=4)
    clients = datasets.partition(pool, spec, seed=7)
    sizes = np.array([c.d_k for c in clients])
    # the hard class cap can bend individual sizes away from the Zipf
    # targets, but the heavy-head shape must survive
    assert sizes[0] == sizes.max()
    assert sizes[0] > 4 * sizes[-1]
    all_idx = np.concatenate([c.indices for c in clients])
    assert np.unique(all_idx).size == all_idx.size  # disjoint shards
    for c in clients:
        assert c.d_k >= 1
        assert np.unique(c.labels).size <= 4


def test_partition_deterministic():
    rng = np.random.default_rng(2)
    pool = make_view(rng.uniform(size=(300, 2)), rng.integers(0, 5, 300), 5)
    spec = datasets.PartitionSpec(num_clients=9)
    a = datasets.partition(pool, spec, seed=5)
    b = datasets.partition(pool, spec, seed=5)
    c = datasets.partition(pool, spec, seed=6)
    assert all(np.array_equal(x.indices, y.indices) for x, y in zip(a, b))
    assert any(not np.array_equal(x.indices, y.indices) for x, y in zip(a, c))


def test_partition_more_clients_than_samples_fails_loudly():
    pool = make_view(np.zeros((3, 1)), [0, 1, 2], 3)
    with pytest.raises(ConfigurationError):
        datasets.partition(pool, datasets.PartitionSpec(num_clients=10), seed=0)
    # 9 rows cover 6 clients, but the Zipf shares round to [4, 2, 1, 1, 1, 0]
    pool = make_view(np.zeros((9, 1)), np.arange(9) % 3, 3)
    with pytest.raises(ConfigurationError, match="client 5's Zipf share rounds to 0"):
        datasets.partition(pool, datasets.PartitionSpec(num_clients=6), seed=0)


def test_split_holdout_partitions_everything():
    rng = np.random.default_rng(4)
    ds = make_view(rng.uniform(size=(1000, 2)), rng.integers(0, 10, 1000), 10)
    held, rest = datasets.split_holdout(ds, 0.1, seed=11)
    assert len(held) == 100
    assert len(rest) == 900
    # the two slices together reproduce the pool's label multiset
    assert sorted(held.labels.tolist() + rest.labels.tolist()) \
        == sorted(ds.labels.tolist())
    # both slices are views of the pool's root, disjoint and covering it
    assert held.features is rest.features is ds.features
    assert np.union1d(held.indices, rest.indices).tolist() == list(range(1000))
    again = datasets.split_holdout(ds, 0.1, seed=11)
    assert np.array_equal(again[0].indices, held.indices)
    assert np.array_equal(ds.features[again[0].indices],
                          ds.features[held.indices])


def test_split_holdout_validation():
    ds = make_view(np.zeros((10, 1)), np.zeros(10, dtype=int), 2)
    for frac in (0.0, 1.0, -0.2):
        with pytest.raises(ConfigurationError):
            datasets.split_holdout(ds, frac, seed=0)


def test_emd_worked_examples():
    one_hot = np.zeros(10)
    one_hot[3] = 1.0
    assert abs(datasets.emd(one_hot, datasets.uniform_benchmark(10)) - 1.8) < 1e-12
    assert abs(datasets.emd(np.array([0.5, 0.5]), np.array([0.25, 0.75])) - 0.5) < 1e-12
    u = datasets.uniform_benchmark(7)
    assert datasets.emd(u, u) == 0.0


def test_emd_validation():
    u = datasets.uniform_benchmark(4)
    with pytest.raises(ConfigurationError):
        datasets.emd(np.array([0.5, 0.6]), np.array([0.5, 0.5]))  # does not sum to 1
    with pytest.raises(ConfigurationError):
        datasets.emd(np.array([-0.5, 1.5]), np.array([0.5, 0.5]))
    with pytest.raises(ConfigurationError):
        datasets.emd(u, datasets.uniform_benchmark(5))


def test_label_hist():
    c = make_view(np.zeros((4, 1)), [0, 0, 1, 2], 4)
    assert np.allclose(c.label_hist, [0.5, 0.25, 0.25, 0.0])
    assert abs(c.label_hist.sum() - 1.0) < 1e-12


def test_flip_labels_count_and_range():
    c = make_view(np.zeros((10, 1)), [0, 1, 2, 3, 4, 0, 1, 2, 3, 4], 5)
    flipped = datasets.flip_labels(c, 0.5, seed=9)
    changed = (flipped.labels != c.labels).sum()
    assert changed == 5  # floor(0.5 * 10)
    assert flipped.d_k == c.d_k
    assert np.array_equal(flipped.indices, c.indices)
    assert (flipped.labels >= 0).all() and (flipped.labels < 5).all()
    again = datasets.flip_labels(c, 0.5, seed=9)
    assert np.array_equal(flipped.labels, again.labels)


def test_flip_labels_never_maps_to_self():
    c = make_view(np.zeros((40, 1)), np.arange(40) % 4, 4)
    for seed in range(10):
        flipped = datasets.flip_labels(c, 1.0, seed=seed)
        assert (flipped.labels != c.labels).all()


def test_flip_labels_zero_fraction_is_identity():
    c = make_view(np.zeros((6, 1)), [0, 1, 0, 1, 0, 1], 2)
    flipped = datasets.flip_labels(c, 0.0, seed=0)
    assert np.array_equal(flipped.labels, c.labels)


def test_flip_labels_fraction_validation():
    c = make_view(np.zeros((4, 1)), [0, 1, 0, 1], 2)
    with pytest.raises(ConfigurationError):
        datasets.flip_labels(c, 1.2, seed=0)
    with pytest.raises(ConfigurationError):
        datasets.flip_labels(c, -0.1, seed=0)


def test_synthetic_pair_shapes_and_balance():
    train, test = datasets.synthetic_pair(10, 8, 1000, 250, 0.1, seed=13)
    x = train.features[train.indices]
    assert x.shape == (1000, 8)
    assert test.features[test.indices].shape == (250, 8)
    assert train.num_classes == test.num_classes == 10
    counts = np.bincount(train.labels, minlength=10)
    assert counts.min() >= 99 and counts.max() <= 101
    assert x.min() >= 0.0 and x.max() <= 1.0
    t2 = datasets.synthetic_pair(10, 8, 1000, 250, 0.1, seed=13)[0]
    assert np.array_equal(x, t2.features[t2.indices])


def test_synthetic_pair_matches_the_copying_oracle_bitwise():
    # the formula the blobs were first built with: a full means[labels]
    # matrix plus noise, clipped into a copy, then shuffled into another copy
    classes, dim, n_train, n_test, spread, seed = 7, 5, 303, 101, 0.3, 17
    rng = np.random.default_rng(seed)
    means = rng.uniform(0.25, 0.75, size=(classes, dim))
    want = []
    for count in (n_train, n_test):
        per = datasets.largest_remainder(np.full(classes, count / classes), count)
        labels = np.repeat(np.arange(classes), per)
        x = means[labels] + rng.normal(0.0, spread, size=(count, dim))
        x = np.clip(x, 0.0, 1.0)
        perm = rng.permutation(count)
        want.append((x[perm], labels[perm]))
    train, test = datasets.synthetic_pair(classes, dim, n_train, n_test, spread, seed)
    assert isinstance(train, datasets.DatasetView)
    assert isinstance(test, datasets.DatasetView)
    got = [(split.features[split.indices], split.labels) for split in (train, test)]
    for (got_x, got_labels), (x, labels) in zip(got, want):
        assert got_x.tobytes() == x.tobytes()
        assert got_labels.tobytes() == labels.tobytes()


def test_pixel_synthetic_pair_quantizes_its_float64_twin():
    # runs store synthetic blobs as pixels: the float64 draw, each value
    # quantized once to round(255 x)
    args = (7, 5, 303, 101, 0.3, 17)
    wide_train, wide_test = datasets.synthetic_pair(*args)
    train, test = datasets.synthetic_pair(*args, dtype=np.uint8)
    for w, n in ((wide_train, train), (wide_test, test)):
        assert np.array_equal(n.indices, w.indices)
        assert n.features.dtype == np.uint8
        assert n.dtype == np.float32
        want = np.round(255 * w.features).astype(np.uint8)
        assert n.features.tobytes() == want.tobytes()
        assert np.array_equal(n.labels, w.labels)


def test_pixel_synthetic_pair_stores_one_byte_per_feature():
    # the paper-synth shape: both pixel matrices, one 256-row float64 noise
    # block, and 1 MB of slack for the labels, permutations and index
    # arrays (about 0.6 MB); a per-class float64 block of 2,000 rows alone
    # would take 12.5 MB
    classes, dim, n_train, n_test = 10, 784, 20000, 2000
    # a first call imports what numpy loads lazily
    datasets.synthetic_pair(2, 1, 2, 2, 0.3, seed=0, dtype=np.uint8)
    tracemalloc.start()
    try:
        train, test = datasets.synthetic_pair(classes, dim, n_train, n_test, 0.3,
                                              seed=0, dtype=np.uint8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert train.features.itemsize == test.features.itemsize == 1
    assert peak < (n_train + n_test) * dim + 256 * dim * 8 + (1 << 20)


def test_pixel_rows_decode_to_float32_bitwise():
    # every pixel value, gathered through batches in a shuffled order and in
    # batches that do not divide the rows
    pixels = np.arange(256, dtype=np.uint8).reshape(32, 8)
    view = datasets.DatasetView(pixels, np.arange(32), np.arange(32) % 3, 3)
    assert view.dtype == np.float32
    order = np.random.default_rng(4).permutation(32)
    got = np.empty((32, 8), np.float32)
    for start, (x, y) in zip(range(0, 32, 5), view.batches(order, 5)):
        assert x.dtype == np.float32
        got[order[start:start + len(y)]] = x
        assert np.array_equal(y, view.labels[order[start:start + len(y)]])
    want = np.arange(256, dtype=np.float32) / np.float32(255)
    assert got.ravel().tobytes() == want.tobytes()


def test_parse_idx_keeps_pixels_that_own_their_data():
    imgs = [[[0, 51], [102, 255]], [[255, 0], [0, 0]], [[9, 9], [9, 9]]]
    blob = idx_images(imgs)
    for max_rows in (None, 1, 2):
        ds = parse_idx(blob, idx_labels([7, 0, 2]), num_classes=8,
                       max_rows=max_rows)
        assert ds.features.dtype == np.uint8
        assert ds.features.flags.owndata
        assert ds.features.tolist() == np.reshape(imgs, (3, 4))[:max_rows].tolist()


def test_views_compose_onto_one_root():
    rng = np.random.default_rng(8)
    root = make_view(rng.uniform(size=(60, 3)), np.arange(60) % 3, 3)
    perm = rng.permutation(60)
    shuffled = replace(root, indices=perm, labels=root.labels[perm])
    held, rest = datasets.split_holdout(shuffled, 0.25, seed=2)
    assert len(held) == datasets.holdout_count(60, 0.25) == 15
    assert rest.features is root.features
    assert np.array_equal(rest.features[rest.indices], root.features[rest.indices])
    for c in datasets.partition(rest, datasets.PartitionSpec(num_clients=4), seed=3):
        assert c.features is root.features
        assert np.isin(c.indices, rest.indices).all()
        assert np.array_equal(c.labels, root.labels[c.indices])
    with pytest.raises(ConfigurationError, match="view has duplicate"):
        replace(root, indices=np.array([4, 4]), labels=np.array([1, 1]))
    with pytest.raises(ConfigurationError, match="view index out of range"):
        replace(root, indices=np.array([60]), labels=np.array([0]))


def test_synthetic_pair_is_learnable_structure():
    # same class means in train and test: a nearest-mean rule must transfer
    train, test = datasets.synthetic_pair(4, 6, 400, 200, 0.02, seed=3)
    x = train.features[train.indices]
    means = np.stack([x[train.labels == k].mean(axis=0) for k in range(4)])
    x_test = test.features[test.indices]
    pred = np.argmin(((x_test[:, None, :] - means[None]) ** 2).sum(axis=2), axis=1)
    assert (pred == test.labels).mean() > 0.95


def test_client_dataset_validation():
    ds = make_view(np.zeros((5, 1)), [0, 1, 0, 1, 0], 2)
    with pytest.raises(ConfigurationError):
        replace(ds, indices=np.array([1, 1]), labels=ds.labels[[1, 1]].copy())
    idx = np.array([3, 0, 4, 3])  # the duplicates are not neighbours
    with pytest.raises(ConfigurationError, match="duplicate"):
        replace(ds, indices=idx, labels=ds.labels[idx].copy())
    with pytest.raises(ConfigurationError):
        replace(ds, indices=np.array([7]), labels=np.array([0]))
    # only a view of a matrix without rows, as an IDX file without images
    # loads, may be empty
    with pytest.raises(ConfigurationError, match="non-empty"):
        replace(ds, indices=np.array([], int), labels=np.array([], int))
    assert len(datasets.DatasetView(np.zeros((0, 1)), [], [], 2)) == 0


@pytest.mark.parametrize("features,labels,num_classes,message", [
    (np.zeros((2, 3), np.float16), [0, 1], 2,
     "feature dtype must be float64 or float32, got float16"),
    (np.zeros((2, 3), np.int64), [0, 1], 2,
     "feature dtype must be float64 or float32, got int64"),
    (np.zeros(2), [0, 1], 2, "features must be 2-D, got shape (2,)"),
    ([[0.5, 1.5], [0.0, 0.0]], [0, 1], 2, "feature values must lie in [0, 1]"),
    ([[0.5, -0.5], [0.0, 0.0]], [0, 1], 2, "feature values must lie in [0, 1]"),
    (np.zeros((2, 3)), [0, 0], 0, "num_classes must be >= 1, got 0"),
    (np.zeros((2, 3)), [0, 2], 2, "view label out of range [0, 2)"),
    (np.zeros((2, 3)), [0], 2, "view: 1 labels for 2 indices"),
])
def test_view_rejects_a_bad_pool(features, labels, num_classes, message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        datasets.DatasetView(features, np.arange(2), labels, num_classes)


@pytest.mark.parametrize("source", ["synthetic", "mnist"])
def test_derived_views_share_the_pools_matrix(tmp_path, source):
    # no split copies the matrix: each derived view holds the pool's array
    if source == "synthetic":
        pool, _ = datasets.synthetic_pair(10, 8, 600, 10, 0.1, seed=0, dtype=np.uint8)
    else:
        write_mnist_fixture(tmp_path)
        pool = datasets.load_idx_pair(tmp_path / "train-images-idx3-ubyte",
                                      tmp_path / "train-labels-idx1-ubyte", num_classes=10)
    assert pool.features.dtype == np.uint8
    held, rest = datasets.split_holdout(pool, 0.1, seed=1)
    clients = datasets.partition(rest, datasets.PartitionSpec(num_clients=5), seed=2)
    flipped = datasets.flip_labels(clients[0], 0.5, seed=3)
    assert not np.array_equal(flipped.labels, clients[0].labels)
    for view in (held, rest, *clients, flipped):
        assert view.features is pool.features


# ---------------------------------------------------------------------------
# partition against the three-pass partitioner it replaced
# ---------------------------------------------------------------------------

def three_pass_partition(ds, spec, seed):
    """The partitioner `partition` replaced, kept as its oracle: a first pass
    over the chosen classes with a carried deficit, a second sweep of the
    chosen classes, then newly opened classes, fullest first, up to the cap.
    Returns each shard's (indices, labels), the shortfall messages it would
    log, and how many clients each spill pass gave rows to."""
    n = len(ds)
    k = spec.num_clients
    counts = datasets.zipf_counts(n, k, spec.zipf_exponent)
    if counts.min() < 1:
        raise ConfigurationError(
            f"pool of {n} cannot cover {k} clients: at zipf_exponent "
            f"{spec.zipf_exponent}, client {int(np.argmin(counts))}'s Zipf share "
            f"rounds to 0 samples")
    rng = np.random.default_rng(seed)
    c = ds.num_classes

    pools = []
    cursors = np.zeros(c, dtype=np.int64)
    for cls in range(c):
        members = np.flatnonzero(ds.labels == cls)
        pools.append(rng.permutation(members))

    def take(cls, want):
        avail = pools[cls].size - cursors[cls]
        got = min(want, int(avail))
        out = pools[cls][cursors[cls]:cursors[cls] + got]
        cursors[cls] += got
        return out

    shards, shortfalls, spills = [], [], {"resweep": 0, "opened": 0}
    m = min(spec.max_classes_per_client, c)
    for i in range(k):
        probs = rng.dirichlet(np.full(c, spec.dirichlet_alpha))
        top = np.argsort(-probs, kind="stable")[:m]
        top_probs = probs[top] / probs[top].sum()
        wants = datasets.largest_remainder(counts[i] * top_probs, int(counts[i]))
        chosen = []
        used = set()
        deficit = 0
        for cls, want in zip(top, wants):
            got = take(int(cls), int(want) + deficit)
            deficit = int(want) + deficit - got.size
            if got.size:
                used.add(int(cls))
            chosen.append(got)
        if deficit > 0:
            before = deficit
            for cls in top:
                if deficit <= 0:
                    break
                got = take(int(cls), deficit)
                deficit -= got.size
                if got.size:
                    used.add(int(cls))
                chosen.append(got)
            spills["resweep"] += deficit < before
        if deficit > 0 and len(used) < m:
            before = deficit
            remaining = np.array([pools[cls].size - cursors[cls] for cls in range(c)])
            for cls in np.argsort(-remaining, kind="stable"):
                if deficit <= 0 or len(used) >= m:
                    break
                if int(cls) in used:
                    continue
                got = take(int(cls), deficit)
                deficit -= got.size
                if got.size:
                    used.add(int(cls))
                chosen.append(got)
            spills["opened"] += deficit < before
        picked = np.concatenate(chosen)
        if deficit > 0:
            shortfalls.append(
                f"client {i} short {deficit} of {int(counts[i])} samples: "
                f"its {m} allowed classes ran dry")
        picked = np.sort(picked)
        shards.append((ds.indices[picked], ds.labels[picked]))
    return shards, shortfalls, spills


def partition_case(pool_seed, classes, rows, label_alpha, clients, cap, alpha, zipf,
                   seed):
    """A pool, spec and seed for partition. The pool is a view over a random
    subset of a root whose labels follow a Dirichlet(label_alpha) class mix,
    so some classes are scarce or absent and run dry."""
    rng = np.random.default_rng(pool_seed)
    mix = rng.dirichlet(np.full(classes, label_alpha))
    root = make_view(np.zeros((2 * rows, 1)), rng.choice(classes, 2 * rows, p=mix),
                     classes)
    idx = np.sort(rng.choice(2 * rows, rows, replace=False))
    pool = replace(root, indices=idx, labels=root.labels[idx])
    spec = datasets.PartitionSpec(num_clients=clients, max_classes_per_client=cap,
                                  dirichlet_alpha=alpha, zipf_exponent=zipf)
    return pool, spec, seed


class _Collect(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


# partition_case arguments for paper-like mixes that spill and fall short
SPILLS = (0, 10, 300, 0.5, 30, 2, 0.1, 1.0, 0)
OPENS = (3, 6, 120, 0.3, 25, 3, 0.5, 0.5, 1)
SHORT = (1, 4, 60, 0.2, 12, 1, 0.1, 0.0, 2)


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(0, 2**32 - 1), st.integers(2, 10), st.integers(1, 300),
                 st.sampled_from([0.2, 1.0, 10.0]), st.integers(1, 40),
                 st.integers(1, 11), st.sampled_from([0.05, 0.1, 0.5, 1.0, 10.0]),
                 st.sampled_from([-0.5, 0.0, 0.5, 1.0, 1.5]),
                 st.integers(0, 2**32 - 1)))
@example(SPILLS).via("the chosen classes are swept again")
@example(OPENS).via("new classes are opened")
@example(SHORT).via("clients fall short")
def test_partition_matches_the_three_pass_partitioner_bitwise(case):
    pool, spec, seed = partition_case(*case)
    try:
        want = three_pass_partition(pool, spec, seed)
    except ConfigurationError as exc:  # a Zipf share of 0 rows
        with pytest.raises(ConfigurationError, match=re.escape(str(exc))):
            datasets.partition(pool, spec, seed)
        return
    handler = _Collect()
    datasets.logger.addHandler(handler)
    try:
        got = datasets.partition(pool, spec, seed)
    finally:
        datasets.logger.removeHandler(handler)
    shards, shortfalls, _ = want
    assert len(got) == len(shards)
    for view, (indices, labels) in zip(got, shards):
        assert view.indices.tobytes() == indices.tobytes()
        assert view.labels.tobytes() == labels.tobytes()
    assert handler.messages == shortfalls


def test_partition_examples_reach_every_spill():
    _, _, counted = three_pass_partition(*partition_case(*SPILLS))
    assert counted["resweep"] > 0
    _, _, counted = three_pass_partition(*partition_case(*OPENS))
    assert counted["opened"] > 0
    _, shortfalls, _ = three_pass_partition(*partition_case(*SHORT))
    assert shortfalls
