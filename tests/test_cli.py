import argparse
import json
import logging
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

from contractfl import blas, cli, experiment, nn
from contractfl.contracts import AccuracyCurveParams, accuracy_curve
from contractfl.errors import InfeasibleEffort, TrainingDiverged

TINY = [
    "--set", "rounds=3",
    "--set", "partition.num_clients=6",
    "--set", "dataset.train_count=400",
    "--set", "dataset.test_count=120",
    "--set", "partition.max_classes_per_client=10",
]


def test_contract_command(capsys, tmp_path):
    rc = cli.main(["contract", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "level" in out and "effort" in out and "reward" in out
    assert "verification: ok" in out
    assert "publisher utility:" in out
    data = json.loads((tmp_path / "contracts.json").read_text())
    assert len(data["menu"]["levels"]) == 5  # desk preset market
    assert data["verification"]["ok"] is True


def test_contract_out_verifies_the_menu_once(capsys, tmp_path, monkeypatch):
    reports = []

    def spy(menu, market):
        reports.append(verify(menu, market))
        return reports[-1]

    verify = cli.verify_contract
    for owner in (cli, experiment):
        monkeypatch.setattr(owner, "verify_contract", spy)
    assert cli.main(["contract", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert len(reports) == 1
    data = json.loads((tmp_path / "contracts.json").read_text())
    assert data["verification"]["ir"] == [float(v) for v in reports[0].ir]


def test_contract_rows_cover_all_levels(capsys):
    rc = cli.main(["contract", "--preset", "paper-noattack"])
    out = capsys.readouterr().out
    assert rc == 0
    body = [ln for ln in out.splitlines() if ln.strip() and ln.split()[0].isdigit()]
    assert [int(ln.split()[0]) for ln in body] == list(range(1, 11))


def test_simulate_command(capsys, tmp_path):
    rc = cli.main(["simulate", *TINY, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "final test accuracy:" in out
    assert "rewards paid:" in out
    assert (tmp_path / "settlement.json").exists()
    assert (tmp_path / "ledger.csv").exists()


def test_simulate_later_rounds_override_beats_earlier(capsys, tmp_path):
    rc = cli.main(["simulate", *TINY, "--set", "rounds=2", "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "rounds.csv").read_text().splitlines()
    assert len(rows) == 3  # header + 2 rounds


def test_baseline_command(capsys, tmp_path):
    rc = cli.main(["baseline", "fedavg", *TINY, "--set", "rounds=2",
                   "--set", "baseline.local_epochs=2", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "algorithm: fedavg" in out
    assert (tmp_path / "summary.json").exists()


def test_baseline_rejects_unknown_algorithm(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["baseline", "fedsgd"])
    assert exc.value.code == 2


def test_fit_command(capsys, tmp_path):
    params = AccuracyCurveParams()
    rng = np.random.default_rng(0)
    efforts = rng.uniform(100.0, 20000.0, size=40)
    thetas = rng.uniform(0.2, 1.0, size=40)
    acc = accuracy_curve(efforts, thetas, params)
    csv = tmp_path / "samples.csv"
    lines = ["effort,theta,accuracy"]
    lines += [f"{float(e)!r},{float(t)!r},{float(a)!r}"
              for e, t, a in zip(efforts, thetas, acc)]
    csv.write_text("\n".join(lines) + "\n")
    rc = cli.main(["fit", str(csv), "--model", "accuracy_curve",
                   "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "rmse:" in out
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert fit["model"] == "accuracy_curve"
    assert fit["rmse"] < 1e-3


def test_fit_rejects_malformed_csv(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2\n1,2,3,x\n")
    rc = cli.main(["fit", str(bad), "--model", "accuracy_curve"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_fit_rejects_negative_effort(capsys, tmp_path):
    # the fitter evaluates contracts.accuracy_curve and inherits its effort
    # rule; a copy without it scored every probe NaN and reported the
    # untouched initial guess as converged
    csv = tmp_path / "samples.csv"
    csv.write_text("1000,0.5,0.6\n2000,0.5,0.7\n-4000,0.9,0.8\n"
                   "8000,0.9,0.85\n16000,0.3,0.7\n32000,0.6,0.9\n")
    rc = cli.main(["fit", str(csv), "--model", "accuracy_curve"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: effort must be >= 0\n"
    assert captured.out == ""


@pytest.mark.parametrize("starts", ["0", "-3"])
def test_fit_rejects_nonpositive_starts(capsys, tmp_path, starts):
    csv = tmp_path / "samples.csv"
    csv.write_text("1000,0.5,0.6\n2000,0.5,0.7\n4000,0.9,0.8\n"
                   "8000,0.9,0.85\n16000,0.3,0.7\n")
    rc = cli.main(["fit", str(csv), "--model", "accuracy_curve", "--starts", starts])
    assert rc == 2
    assert "n_starts" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "effort,theta,accuracy\n"])
def test_fit_rejects_empty_csv_with_one_line(capsys, tmp_path, text):
    csv = tmp_path / "empty.csv"
    csv.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would escape as an exception
        rc = cli.main(["fit", str(csv), "--model", "accuracy_curve"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_partition_stats_command(capsys, tmp_path):
    rc = cli.main(["partition-stats", *TINY, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "clients: 6" in out
    assert "level counts:" in out
    rows = (tmp_path / "partition.csv").read_text().splitlines()
    assert rows[0] == "client_id,d_k,emd,theta,level,malicious"
    assert len(rows) == 7


def test_unknown_preset_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--preset", "warehouse"])
    assert exc.value.code == 2


def test_bad_override_path_exits_two(capsys):
    rc = cli.main(["simulate", "--set", "market.nope=1"])
    assert rc == 2
    assert "market.nope" in capsys.readouterr().err


@pytest.mark.parametrize("args,field", [
    (["--set", "bogus=1"], "bogus"),
    (["--config", "{tmp}/bogus.json"], "bogus"),
    (["--config", "{tmp}/nope.json"], "market.nope"),
])
def test_unknown_field_exits_two_naming_it(capsys, tmp_path, args, field):
    (tmp_path / "bogus.json").write_text(json.dumps({"bogus": {"x": 1}}))
    (tmp_path / "nope.json").write_text(json.dumps({"market": {"nope": 1}}))
    rc = cli.main(["contract", *(a.format(tmp=tmp_path) for a in args)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: unknown config field {field}\n"


@pytest.mark.parametrize("override", ["=3", ".rounds=3", "training..lr=1",
                                      "training.=1", "rounds.=3"])
def test_override_with_an_empty_field_name_is_not_key_value(capsys, override):
    rc = cli.main(["contract", "--set", override])
    assert rc == 2
    assert (capsys.readouterr().err
            == f"error: override {override!r} is not of the form key=value\n")


def test_bad_config_file_exits_two(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{oops")
    rc = cli.main(["contract", "--config", str(p)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    # a file that parses but is not an object, on top of a preset or not
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    for preset in ([], ["--preset", "desk"]):
        rc = cli.main(["contract", *preset, "--config", str(listed)])
        assert rc == 2
        assert "must hold a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("algorithm", ["fedavg", "fedprox"])
@pytest.mark.parametrize("override,field", [
    ("baseline.local_epochs=0", "epochs"),
    ("training.batch_size=0", "batch_size"),
])
def test_baseline_rejects_degenerate_training(capsys, algorithm, override, field):
    rc = cli.main(["baseline", algorithm, *TINY, "--set", "rounds=1",
                   "--set", override])
    assert rc == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("command,override,field", [
    ("contract", "market.levels=0", "market.levels"),
    ("contract", "market.levels=-3", "market.levels"),
    ("simulate", "training.lr=-0.1", "training.lr"),
    ("simulate", "training.lr=0", "training.lr"),
    ("simulate", "training.lr=NaN", "training.lr"),
    ("baseline", "training.lr=Infinity", "training.lr"),
    ("simulate", "attack.count=-1", "attack.count"),
    ("partition-stats", "attack.count=-1", "attack.count"),
    ("simulate", "training.batch_size=0", "training.batch_size"),
    ("contract", "timing.delta_t=0", "timing.delta_t"),
    ("contract", "quality.gamma1=-1", "quality.gamma1"),
    ("contract", "partition.val_fraction=1.5", "partition.val_fraction"),
    ("contract", "gate.epsilon=-1", "gate.epsilon"),
    ("simulate", "gate.a=-1", "gate.a"),
    ("simulate", "gate.phi=-1", "gate.phi"),
    ("simulate", "timing.delta_t=NaN", "timing.delta_t"),
    ("simulate", "market.xi=NaN", "market.xi"),
    ("partition-stats", "attack.flip_fraction=2", "attack.flip_fraction"),
    ("contract", "market.xi=-1", "market.xi"),
    ("contract", "curve.beta4=0", "curve.beta4"),
    ("partition-stats", "dataset.classes=1", "dataset.classes"),
    ("partition-stats", "dataset.dim=0", "dataset.dim"),
    ("partition-stats", "dataset.spread=0", "dataset.spread"),
    ("partition-stats", "dataset.train_count=0", "dataset.train_count"),
    ("partition-stats", "dataset.test_count=0", "dataset.test_count"),
    ("partition-stats", "dataset.subset=0", "dataset.subset"),
    ("partition-stats", "dataset.test_subset=-1", "dataset.test_subset"),
    ("simulate", "attack.count=7", "attack.count"),
    ("partition-stats", "dataset.train_count=6", "dataset.train_count"),
    # pools that hold every client but leave one a Zipf share of 0 rows
    ("partition-stats", "dataset.train_count=10", "dataset.train_count"),
    ("partition-stats", "partition.zipf_exponent=30", "partition.zipf_exponent"),
    # a negative exponent puts the whole pool on the last client
    ("partition-stats", "partition.zipf_exponent=-1000", "partition.zipf_exponent"),
    ("simulate", "training.hidden1=0", "training.hidden1"),
    ("simulate", "training.hidden2=-3", "training.hidden2"),
    # a deadline that leaves the contract solver no effort above EFFORT_MIN
    ("partition-stats", "market.t_max=10.000001", "market.t_max"),
    ("contract", "market.t_max=10.000001", "market.t_max"),
    # a negative gamma3 would make label skew raise quality
    ("partition-stats", "quality.gamma3=-20", "quality.gamma3"),
    # the MNIST-only fields on synthetic data
    ("partition-stats", "dataset.subset=100", "dataset.subset"),
    # the only checks of the baseline round count and proximal weight
    ("baseline fedprox", "rounds=0", "rounds"),
    ("baseline fedprox", "baseline.prox_mu=-1", "baseline.prox_mu"),
])
def test_bad_market_levels_and_lr_rejected_at_parse(capsys, command, override, field):
    args = [command, "fedavg"] if command == "baseline" else command.split()
    rc = cli.main([*args, *TINY, "--set", override])
    assert rc == 2
    err = capsys.readouterr().err
    assert field in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("args", [
    ["simulate", "--set", "seed=0", "--set", "seed=-1"],  # the last --set wins
    ["baseline", "fedavg", "--set", "seed=-1"],
    ["partition-stats", "--set", "seed=-1"],
    ["contract", "--set", "seed=-1"],  # draws nothing, but the config is still invalid
    ["simulate", "--set", "seed=-1"],
    ["simulate", "--config", "{tmp}/seed.json"],
    ["fit", "{tmp}/samples.csv", "--model", "accuracy_curve", "--seed", "-1"],
])
def test_negative_seed_exits_two_naming_the_seed(capsys, tmp_path, args):
    (tmp_path / "seed.json").write_text(json.dumps({"seed": -1}))
    (tmp_path / "samples.csv").write_text("1000,0.5,0.6\n2000,0.5,0.7\n4000,0.9,0.8\n"
                                          "8000,0.9,0.85\n16000,0.3,0.7\n")
    rc = cli.main([a.format(tmp=tmp_path) for a in args])
    assert rc == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("command", ["partition-stats", "simulate"])
def test_large_quality_gamma4_runs(capsys, command):
    # desk's largest shards hold about 1,000 samples, and 1000 ** 120
    # overflows a float; the quality score is then its limit, 1.0
    rc = cli.main([command, "--set", "rounds=1", "--set", "quality.gamma4=120"])
    assert rc == 0, capsys.readouterr().err


@pytest.mark.parametrize("override", ["dataset.train_count=23",
                                      "partition.zipf_exponent=30"])
def test_zero_zipf_share_on_desk_rejected_before_data_is_built(capsys, monkeypatch,
                                                               override):
    # desk's 20 clients fit a pool of 21 rows, but its Zipf shares give
    # clients 12-19 no rows; at exponent 30 every client past the first has none
    def build(*args, **kwargs):
        raise AssertionError("the data was built")

    monkeypatch.setattr(experiment, "synthetic_pair", build)
    rc = cli.main(["partition-stats", "--preset", "desk", "--set", override])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "dataset.train_count" in err and "partition.zipf_exponent" in err


@pytest.mark.parametrize("owner,attr,exc", [
    (nn, "train_epochs_tracked", TrainingDiverged(17, float("nan"))),
    (experiment, "solve_contract", InfeasibleEffort("effort past the deadline")),
])
def test_training_and_effort_failures_exit_two(capsys, monkeypatch, owner, attr, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(owner, attr, fail)
    rc = cli.main(["simulate", *TINY])
    assert rc == 2
    err = capsys.readouterr().err
    if isinstance(exc, TrainingDiverged):  # named by the first client to train
        assert err == f"error: client 0, round 0: {exc}\n"
    else:
        assert err == f"error: {exc}\n"


@pytest.mark.parametrize("command,who", [
    (["simulate"], "client 0"),
    (["baseline", "fedavg"], "client 0"),
    (["baseline", "local-sgd"], "local SGD"),
])
def test_diverging_training_names_who_and_when_without_numpy_warnings(
        capsys, command, who):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would escape
        rc = cli.main([*command, "--preset", "desk", "--set", "training.lr=1e6",
                       "--set", "rounds=2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {who}, round 0: non-finite training loss nan at step ")


def test_only_fit_has_options_beyond_the_config_route():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == {"contract", "simulate", "baseline", "fit",
                             "partition-stats"}
    for name, sub in commands.items():
        options = {o for a in sub._actions for o in a.option_strings}
        if name != "fit":
            assert options == {"-h", "--help", "--preset", "--config", "--set",
                               "--out", "--verbose"}, name


def test_seed_override_changes_partition(capsys, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["partition-stats", *TINY, "--set", "seed=1",
                     "--out", str(out1)]) == 0
    assert cli.main(["partition-stats", *TINY, "--set", "seed=2",
                     "--out", str(out2)]) == 0
    assert (out1 / "partition.csv").read_text() != (out2 / "partition.csv").read_text()


def test_runs_other_than_fit_load_no_scipy(tmp_path):
    # a fresh interpreter, because this one has imported scipy and numpy.ma
    # for other tests
    script = textwrap.dedent(f"""
        import sys
        from contractfl import cli, config, experiment
        experiment.prepare(config.resolve_config("desk", None))
        assert "numpy.ma" not in sys.modules, "prepare imported numpy.ma"
        assert cli.main(["contract", "--preset", "desk"]) == 0
        assert cli.main(["simulate", "--preset", "desk", "--set", "rounds=1",
                         "--out", {str(tmp_path / "async")!r}]) == 0
        assert cli.main(["baseline", "fedavg", "--preset", "desk", "--set", "rounds=1",
                         "--set", "baseline.local_epochs=1",
                         "--out", {str(tmp_path / "sync")!r}]) == 0
        assert "numpy.ma" not in sys.modules, "a 1-round run imported numpy.ma"
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


# paper-shaped matrix products, large enough for OpenBLAS to split them across
# threads when it has more than one; about 1.6 s a run
PAPER_SHAPE = [
    "simulate", "--preset", "paper-noattack",
    "--set", "dataset.kind=synthetic", "--set", "dataset.dim=784",
    "--set", "dataset.train_count=3000", "--set", "dataset.test_count=2000",
    "--set", "partition.num_clients=10", "--set", "rounds=2", "--set", "seed=0",
]


def _fresh_interpreter(args, threads):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_artifact_bytes_do_not_depend_on_blas_threads(tmp_path):
    outs = [tmp_path / "one", tmp_path / "two"]
    for out, threads in zip(outs, ("1", "2")):
        _fresh_interpreter(["-m", "contractfl.cli", *PAPER_SHAPE, "--out", str(out)],
                           threads)
    names = sorted(os.listdir(outs[0]))
    assert "model.bin" in names and names == sorted(os.listdir(outs[1]))
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_importing_the_package_leaves_blas_threads_alone():
    script = ("from contractfl import cli, experiment, simulation\n"
              "from contractfl.blas import blas_info\n"
              "print(blas_info()['blas_threads'])")
    assert _fresh_interpreter(["-c", script], "2").split() == ["2"]


def test_main_pins_one_blas_thread_and_restores_the_callers(monkeypatch):
    before = blas.set_blas_threads(2)
    if before is None:
        pytest.skip("no OpenBLAS thread setter in numpy's libraries")
    seen = []
    monkeypatch.setattr(cli, "_cmd_contract",
                        lambda args: seen.append(blas.blas_info()["blas_threads"]) or 0)
    try:
        assert cli.main(["contract"]) == 0
        after = blas.blas_info()["blas_threads"]
    finally:
        blas.set_blas_threads(before)
    assert seen == [1]
    assert after == 2


@pytest.mark.parametrize("library_found,named", [(True, "keeps 3 threads"),
                                                 (False, "unknown number")])
def test_main_warns_once_without_a_blas_thread_setter(monkeypatch, caplog,
                                                      library_found, named):
    def no_setter(name, restype, argtypes=()):
        if name == "openblas_get_num_threads" and library_found:
            return lambda: 3
        return None

    monkeypatch.setattr(blas, "_function", no_setter)
    monkeypatch.setattr(cli, "_cmd_contract", lambda args: 0)
    with caplog.at_level(logging.WARNING):
        assert cli.main(["contract"]) == 0
    records = [r for r in caplog.records if r.name == "contractfl.blas"]
    assert len(records) == 1
    assert records[0].levelno == logging.WARNING
    assert named in records[0].getMessage()
