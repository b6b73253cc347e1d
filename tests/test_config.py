import dataclasses
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contractfl import cli, config
from contractfl.contracts import AccuracyCurveParams, MarketModel, QualityParams
from contractfl.errors import ConfigurationError


def test_default_round_trip():
    cfg = config.ExperimentConfig()
    again = config.ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.to_dict() == cfg.to_dict()


_VALUES = {
    "int": st.integers(-5, 10**6),
    "float": st.one_of(st.integers(-5, 100),
                       st.floats(allow_nan=False, allow_infinity=False)),
    "str": st.sampled_from(["synthetic", "mnist", "cifar"]),
    "int | None": st.one_of(st.none(), st.integers(-5, 10**6)),
    "str | None": st.one_of(st.none(), st.text(max_size=8)),
}


def _override():
    """One 'path=json' override on any leaf field, valid or not."""
    cfg = config.ExperimentConfig()
    leaves = [(name, "int") for name in ("seed", "rounds")] + [
        (f"{section.name}.{f.name}", f.type)
        for section in dataclasses.fields(cfg) if section.name not in ("seed", "rounds")
        for f in dataclasses.fields(getattr(cfg, section.name))]
    return st.sampled_from(leaves).flatmap(
        lambda leaf: _VALUES[leaf[1]].map(lambda v: f"{leaf[0]}={json.dumps(v)}"))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(config.PRESETS)), st.lists(_override(), max_size=6))
def test_any_valid_override_survives_a_json_round_trip(preset, overrides):
    try:
        cfg = config.resolve_config(preset, None, overrides)
    except ConfigurationError:
        assume(False)  # an invalid patch is rejected at parse time; not this property
    again = config.ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg
    assert again.to_dict() == cfg.to_dict()


def test_cross_section_limits_checked_at_parse():
    # 11 rows lose 1 to the holdout; Zipf shares of the pool of 10 over 6
    # clients round to [4, 2, 1, 1, 1, 1]
    six = ["partition.num_clients=6", "dataset.train_count=11", "attack.count=6"]
    ok = config.resolve_config("desk", None, six)
    assert ok.attack.count == ok.partition.num_clients == 6
    # a pool of 9 still holds 6 clients, but rounds to [4, 2, 1, 1, 1, 0]
    with pytest.raises(ConfigurationError,
                       match=r"^dataset\.train_count 10 leaves a pool of 9 .*"
                             r"partition\.zipf_exponent 1\.0"):
        config.resolve_config("desk", None, [*six, "dataset.train_count=10"])
    with pytest.raises(ConfigurationError, match=r"^dataset\.train_count 6 leaves a pool of 5"):
        config.resolve_config("desk", None, [*six, "dataset.train_count=6"])
    with pytest.raises(ConfigurationError, match=r"^attack\.count 7 exceeds"):
        config.resolve_config("desk", None, [*six, "attack.count=7"])
    # the pool of an IDX file is only known once it is read
    assert config.resolve_config("paper-noattack", None,
                                 ["dataset.train_count=6"]).dataset.kind == "mnist"


def test_from_dict_partial_sections():
    cfg = config.ExperimentConfig.from_dict(
        {"seed": 3, "market": {"levels": 4}, "gate": {"phi": 2.5}})
    assert cfg.seed == 3
    assert cfg.market.levels == 4
    assert cfg.market.xi == config.MarketConfig().xi
    assert cfg.gate.phi == 2.5


def test_from_dict_unknown_top_level_key():
    with pytest.raises(ConfigurationError, match="bogus"):
        config.ExperimentConfig.from_dict({"bogus": 1})


def test_from_dict_unknown_nested_key_names_path():
    with pytest.raises(ConfigurationError, match="market.lambda3"):
        config.ExperimentConfig.from_dict({"market": {"lambda3": 1.0}})


def test_dataset_kind_validated():
    with pytest.raises(ConfigurationError, match="synthetic"):
        config.DatasetConfig(kind="cifar")


def test_apply_overrides_json_and_bare_string():
    out = config.resolve_config("desk", None, [
        "rounds=7",
        "market.lambda1=1e5",
        "dataset.kind=synthetic",
        "attack.count=2",
    ])
    assert out.rounds == 7
    assert out.market.lambda1 == 1e5
    assert out.dataset.kind == "synthetic"
    assert out.attack.count == 2
    # the preset itself is untouched
    assert config.resolve_config("desk", None, []) == config.preset_desk()


def test_apply_overrides_bad_path():
    with pytest.raises(ConfigurationError, match="market.nope"):
        config.resolve_config("desk", None, ["market.nope=1"])
    with pytest.raises(ConfigurationError, match="="):
        config.resolve_config("desk", None, ["no_equals_sign"])


def test_apply_overrides_nested_two_deep():
    out = config.resolve_config("desk", None, ["timing.delta_t=8.0"])
    assert out.timing.delta_t == 8.0


def test_apply_overrides_rejects_wrong_value_types():
    with pytest.raises(ConfigurationError, match="rounds.*integer"):
        config.resolve_config("desk", None, ["rounds=abc"])
    with pytest.raises(ConfigurationError, match="training.lr.*number"):
        config.resolve_config("desk", None, ["training.lr=fast"])
    with pytest.raises(ConfigurationError, match="dataset.kind.*string"):
        config.resolve_config("desk", None, ["dataset.kind=3"])
    # bool is an int subclass but makes no sense as a count
    with pytest.raises(ConfigurationError, match="attack.count"):
        config.resolve_config("desk", None, ["attack.count=true"])


def test_apply_overrides_validates_once_after_every_patch():
    # (3.0, 2.0) would fail on its own; the pair is checked only as a whole
    out = config.resolve_config("desk", None, ["timing.delay_lo=3", "timing.delay_hi=4"])
    assert (out.timing.delay_lo, out.timing.delay_hi) == (3.0, 4.0)


def test_section_errors_name_the_dotted_field_once():
    with pytest.raises(ConfigurationError, match=r"^timing\.delta_t must be positive"):
        config.ExperimentConfig.from_dict({"timing": {"delta_t": 0}})
    with pytest.raises(ConfigurationError, match=r"^config field 'gate\.phi' expects a finite"):
        config.ExperimentConfig.from_dict({"gate": {"phi": float("inf")}})


def test_apply_overrides_coerces_compatible_numbers():
    out = config.resolve_config("desk", None, [
        "rounds=7.0",            # integral float narrows to int
        "training.lr=1",         # int widens to float
        "dataset.subset=null",   # optional field accepts null
    ])
    assert out.rounds == 7 and isinstance(out.rounds, int)
    assert out.training.lr == 1.0 and isinstance(out.training.lr, float)
    assert out.dataset.subset is None


def test_presets_exist_and_differ():
    assert set(config.PRESETS) == {"desk", "paper-noattack", "paper-attack30"}
    desk = config.PRESETS["desk"]()
    assert desk.dataset.kind == "synthetic"
    assert desk.rounds == 30
    assert desk.timing.delta_t == 16.0
    assert desk.partition.num_clients == 20
    assert desk.market.levels == 5
    pa = config.PRESETS["paper-attack30"]()
    pn = config.PRESETS["paper-noattack"]()
    assert pa.attack.count == 30
    assert pn.attack.count == 0
    assert pa.dataset.kind == "mnist"
    assert pn.rounds == 300


def test_resolve_config_precedence(tmp_path):
    patch = tmp_path / "patch.json"
    patch.write_text(json.dumps({"rounds": 11, "market": {"xi": 3.0}}))
    cfg = config.resolve_config("desk", str(patch), ["rounds=13"])
    assert cfg.rounds == 13           # override beats file
    assert cfg.market.xi == 3.0       # file beats preset
    assert cfg.timing.delta_t == 16.0  # preset survives where not patched


def test_section_override_patches_like_a_config_file(tmp_path):
    # a JSON object after --set patches the fields it names and keeps the
    # rest of the preset's section, exactly as the same patch in a file does
    patch = tmp_path / "patch.json"
    patch.write_text(json.dumps({"quality": {"gamma1": 2.0}}))
    by_file = config.resolve_config("desk", str(patch), [])
    by_set = config.resolve_config("desk", None, ['quality={"gamma1": 2.0}'])
    assert by_set.quality.gamma3 == 20.0
    assert by_set == by_file
    assert by_set.quality == QualityParams(2.0, 0.114, 20.0, 0.5)


def test_resolve_config_builds_once_after_every_patch(tmp_path, monkeypatch, capsys):
    # the file's delay_lo 3.0 is over desk's delay_hi 2.0 until the override
    # lands, so the pair must be judged only after the last patch
    patch = tmp_path / "patch.json"
    patch.write_text(json.dumps({"timing": {"delay_lo": 3.0}}))
    built = []
    from_dict = config.ExperimentConfig.from_dict

    def counting(d):
        built.append(d)
        return from_dict(d)

    monkeypatch.setattr(config.ExperimentConfig, "from_dict", staticmethod(counting))
    cfg = config.resolve_config("desk", str(patch), ["timing.delay_hi=4", "rounds=5"])
    assert len(built) == 1
    assert (cfg.timing.delay_lo, cfg.timing.delay_hi, cfg.rounds) == (3.0, 4.0, 5)
    rc = cli.main(["contract", "--preset", "desk", "--config", str(patch),
                   "--set", "timing.delay_hi=4"])
    assert rc == 0, capsys.readouterr().err


def test_config_defaults_are_the_library_defaults():
    # MarketConfig copies MarketModel's scalar defaults; the curve section is
    # AccuracyCurveParams itself
    got, want = config.MarketConfig().to_market(), MarketModel.uniform(10)
    for f in dataclasses.fields(MarketModel):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name
    curve, params = config.ExperimentConfig().curve, AccuracyCurveParams()
    assert isinstance(curve, AccuracyCurveParams)
    for f in dataclasses.fields(AccuracyCurveParams):
        assert getattr(curve, f.name) == getattr(params, f.name), f.name


def test_resolve_config_defaults_to_desk():
    assert config.resolve_config(None, None, []) == config.preset_desk()


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigurationError, match="broken.json"):
        config.resolve_config(None, str(p))


def test_load_config_unknown_key(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"market": {"levls": 10}}))
    with pytest.raises(ConfigurationError, match="levls"):
        config.resolve_config("desk", str(p), [])


def test_market_config_to_market():
    m = config.MarketConfig().to_market()
    assert m.n_levels == 10
    assert m.theta[0] == pytest.approx(0.1)
    assert m.theta[-1] == pytest.approx(1.0)
    assert sum(m.p) == pytest.approx(1.0)


def test_quality_and_curve_params():
    qp = config.ExperimentConfig().quality
    assert isinstance(qp, QualityParams)
    assert qp.gamma3 == 70.0
    cc = config.CurveConfig()
    assert cc.beta5 == 2.436


def test_config_is_frozen():
    cfg = config.ExperimentConfig()
    with pytest.raises(AttributeError):
        cfg.rounds = 99
    with pytest.raises(AttributeError):
        cfg.market.levels = 3
