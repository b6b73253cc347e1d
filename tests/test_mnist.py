"""The MNIST presets end to end, on IDX files generated into a temporary
directory: no download, and the same loader, holdout and partition path that
real MNIST takes."""

import filecmp
import os

import numpy as np
import pytest

from common import idx_images, write_mnist_fixture
from contractfl import cli, config, experiment
from contractfl.datasets import holdout_count, load_idx_pair

# paper-attack30 cut to 10 clients, 3 attackers and 2 rounds
CUT = ["--preset", "paper-attack30", "--set", "partition.num_clients=10",
       "--set", "attack.count=3"]
RUNS = {
    "simulate": ["simulate", *CUT, "--set", "rounds=2"],
    "fedavg": ["baseline", "fedavg", *CUT, "--set", "rounds=2"],
    "stats": ["partition-stats", *CUT],
}


def test_mnist_plain_and_gzipped_files_give_identical_artifacts(tmp_path, monkeypatch,
                                                                 capsys):
    for kind in ("plain", "gzip"):
        data = tmp_path / kind / "mnist"
        write_mnist_fixture(data, gz=kind == "gzip")
        monkeypatch.setenv("MNIST_DIR", str(data))
        for name, args in RUNS.items():
            assert cli.main([*args, "--out", str(tmp_path / kind / name)]) == 0
    capsys.readouterr()
    for name in RUNS:
        plain, zipped = tmp_path / "plain" / name, tmp_path / "gzip" / name
        files = sorted(os.listdir(plain))
        assert files and files == sorted(os.listdir(zipped))
        _, mismatch, errors = filecmp.cmpfiles(plain, zipped, files, shallow=False)
        assert mismatch == [] and errors == []
    rows = (tmp_path / "plain" / "simulate" / "partition.csv").read_text().splitlines()
    assert len(rows) == 1 + 10
    assert sum(int(r.split(",")[-1]) for r in rows[1:]) == 3


@pytest.mark.parametrize("subset,rows", [(None, 1500), (1000, 1000)])
def test_mnist_pool_and_clients_share_the_loaded_matrix(tmp_path, monkeypatch,
                                                        subset, rows):
    write_mnist_fixture(tmp_path)
    monkeypatch.setenv("MNIST_DIR", str(tmp_path))
    overrides = [] if subset is None else [f"dataset.subset={subset}",
                                           "dataset.test_subset=200"]
    cfg = config.resolve_config("paper-attack30", None, [
        "partition.num_clients=10", "attack.count=3", *overrides])
    full = load_idx_pair(tmp_path / "train-images-idx3-ubyte",
                         tmp_path / "train-labels-idx1-ubyte", num_classes=10)
    loaded = []

    def spy(*args, **kwargs):
        loaded.append(load_idx_pair(*args, **kwargs))
        return loaded[-1]

    monkeypatch.setattr(experiment, "load_idx_pair", spy)
    prep = experiment.prepare(cfg)
    train = loaded[0]
    # only the subset's rows are decoded, and they are the file's first rows
    assert len(train) == rows
    assert np.array_equal(train.labels, full.labels[:rows])
    assert np.array_equal(train.features, full.features[:rows])
    # holdout and pool split the decoded rows
    assert len(prep.val) == holdout_count(rows, 0.1)
    assert len(prep.pool) == rows - len(prep.val)
    assert prep.pool.indices.max() < rows
    assert len(prep.test) == (300 if subset is None else 200)
    assert np.shares_memory(train.features, prep.pool.features)
    assert sum(c.malicious for c in prep.clients) == 3
    for c in prep.clients:
        assert np.shares_memory(train.features, c.data.features)
        assert np.isin(c.data.indices, prep.pool.indices).all()


def test_mnist_decodes_to_float32(tmp_path, monkeypatch):
    # runs keep the files' pixels and train in float32; a batch decodes as
    # the float32 division of its pixels by 255, which equals the float64
    # decode rounded to float32 (float64 carries more than twice float32's
    # precision, so rounding twice rounds as once)
    write_mnist_fixture(tmp_path)
    monkeypatch.setenv("MNIST_DIR", str(tmp_path))
    paths = (tmp_path / "train-images-idx3-ubyte", tmp_path / "train-labels-idx1-ubyte")
    pixels = load_idx_pair(*paths, num_classes=10)
    train, test = experiment.build_dataset(config.resolve_config("paper-noattack", None))
    assert train.features.dtype == test.features.dtype == np.uint8
    assert train.dtype == test.dtype == np.float32
    assert train.features.tobytes() == pixels.features.tobytes()
    assert np.array_equal(train.labels, pixels.labels)
    order = np.random.default_rng(0).permutation(len(train))
    got = np.concatenate([x for x, _ in train.batches(order, 64)])
    assert got.dtype == np.float32
    want = pixels.features[order].astype(np.float32) / np.float32(255)
    assert got.tobytes() == want.tobytes()
    wide = pixels.features[order] / 255.0
    assert got.tobytes() == wide.astype(np.float32).tobytes()


@pytest.mark.parametrize("override,source", [
    ("dataset.subset=30", "dataset.subset 30 leaves a pool of 27"),
    ("partition.num_clients=1000", "train-images-idx3-ubyte (1500 rows)"),
])
def test_mnist_pool_too_small_names_the_fields(tmp_path, monkeypatch, capsys,
                                               override, source):
    write_mnist_fixture(tmp_path)
    monkeypatch.setenv("MNIST_DIR", str(tmp_path))
    rc = cli.main(["partition-stats", "--preset", "paper-noattack", "--set", override])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert source in err
    assert "partition.num_clients" in err and "partition.zipf_exponent" in err


@pytest.mark.parametrize("override,message", [
    ("dataset.subset=5000", "dataset.subset 5000 exceeds the 1500 rows of"),
    ("dataset.test_subset=99999", "dataset.test_subset 99999 exceeds the 300 rows of"),
])
def test_mnist_subset_larger_than_its_file_names_the_field(tmp_path, monkeypatch, capsys,
                                                           override, message):
    write_mnist_fixture(tmp_path)
    monkeypatch.setenv("MNIST_DIR", str(tmp_path))
    out = tmp_path / "out"
    rc = cli.main(["partition-stats", "--preset", "paper-noattack", "--set", override,
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert message in err
    assert not out.exists()  # nothing records sizes that never ran


@pytest.mark.parametrize("command", [["simulate", "--set", "rounds=1"],
                                     ["baseline", "fedavg"]])
def test_mnist_test_images_narrower_than_train_names_the_file(tmp_path, monkeypatch,
                                                             capsys, command):
    write_mnist_fixture(tmp_path)
    (tmp_path / "t10k-images-idx3-ubyte").write_bytes(
        idx_images(np.zeros((300, 14, 14))))
    monkeypatch.setenv("MNIST_DIR", str(tmp_path))
    rc = cli.main([*command, "--preset", "paper-noattack",
                   "--set", "partition.num_clients=10"])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "dataset.test_images" in err and "t10k-images-idx3-ubyte" in err
    assert "196" in err and "784" in err


@pytest.mark.parametrize("split,field", [("train", "train_images"),
                                         ("test", "test_images")])
def test_mnist_file_without_images_names_the_field_and_file(tmp_path, monkeypatch,
                                                            capsys, split, field):
    counts = {"train_count": 0} if split == "train" else {"test_count": 0}
    write_mnist_fixture(tmp_path, **counts)
    monkeypatch.setenv("MNIST_DIR", str(tmp_path))
    rc = cli.main(["simulate", "--preset", "paper-noattack", "--set", "rounds=1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    name = "train-images-idx3-ubyte" if split == "train" else "t10k-images-idx3-ubyte"
    assert f"dataset.{field}" in err and name in err and "holds no images" in err
