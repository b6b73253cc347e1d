import numpy as np
import pytest

from contractfl import fitting
from contractfl.contracts import AccuracyCurveParams, QualityParams, accuracy_curve
from contractfl.errors import ConfigurationError


def accuracy_samples():
    efforts = np.linspace(500, 20000, 25)
    thetas = np.array([0.3, 0.6, 0.9])
    rows = []
    for th in thetas:
        acc = accuracy_curve(efforts, th)
        rows.extend([e, th, a] for e, a in zip(efforts, acc))
    return np.array(rows)


def quality_samples():
    # stay inside the unclamped branch of the quality curve
    z = np.linspace(200, 50000, 60)
    qp = QualityParams()
    theta = 1.0 - qp.gamma1 * np.exp(-qp.gamma2 * z ** qp.gamma4)
    return np.column_stack([z, theta])


def test_predict_accuracy_matches_curve():
    x = np.array([0.459, 0.432, 0.459, 0.009, 2.436])
    inputs = np.array([[5000.0, 0.9], [1000.0, 0.3]])
    got = fitting.predict("accuracy_curve", x, inputs)
    want = [accuracy_curve(5000.0, 0.9), accuracy_curve(1000.0, 0.3)]
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_predict_accuracy_takes_probes_outside_the_parameter_ranges():
    # a simplex probe may make beta4 or beta5 negative, which
    # AccuracyCurveParams refuses; predict still evaluates the curve there
    rng = np.random.default_rng(5)
    inputs = np.column_stack([rng.uniform(0.0, 20000.0, 50), rng.uniform(0.01, 1.0, 50)])
    for _ in range(20):
        x = rng.normal(0.0, 2.0, 5)
        b1, b2, b3, b4, b5 = x
        e, theta = inputs[:, 0], inputs[:, 1]
        with np.errstate(over="ignore", invalid="ignore"):
            want = b1 + b2 * theta - b3 * np.exp(-b4 * (1e-3 * e) ** b5)
        assert fitting.predict("accuracy_curve", x, inputs).tobytes() == want.tobytes()


def test_predict_accuracy_refuses_negative_effort():
    with pytest.raises(ConfigurationError, match="effort must be >= 0"):
        fitting.predict("accuracy_curve", np.ones(5), np.array([[-1.0, 0.5]]))


def test_predict_quality_matches_formula():
    x = np.array([10.559, 1.803, 0.155])
    z = np.array([[1000.0], [5000.0]])
    got = fitting.predict("data_quality", x, z)
    want = 1.0 - 10.559 * np.exp(-1.803 * z[:, 0] ** 0.155)
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_fit_accuracy_curve_noiseless_recovery():
    result = fitting.fit_curve(accuracy_samples(), "accuracy_curve", seed=0)
    assert result.rmse < 1e-3
    assert result.converged
    assert set(result.params) == {"beta1", "beta2", "beta3", "beta4", "beta5"}


def test_fit_quality_curve_noiseless_recovery():
    result = fitting.fit_curve(quality_samples(), "data_quality", seed=0)
    assert result.rmse < 1e-3
    assert set(result.params) == {"gamma1", "gamma2", "gamma4"}


def test_fit_deterministic():
    samples = accuracy_samples()
    a = fitting.fit_curve(samples, "accuracy_curve", seed=3)
    b = fitting.fit_curve(samples, "accuracy_curve", seed=3)
    assert a.params == b.params
    assert a.rmse == b.rmse


def test_fit_validation():
    with pytest.raises(ConfigurationError):
        fitting.fit_curve(np.zeros((5, 2)), "accuracy_curve")  # needs 3 columns
    with pytest.raises(ConfigurationError):
        fitting.fit_curve(np.zeros((5, 3)), "no_such_model")
    bad = accuracy_samples()
    bad[0, 2] = np.nan
    with pytest.raises(ConfigurationError):
        fitting.fit_curve(bad, "accuracy_curve")
    with pytest.raises(ConfigurationError):
        fitting.fit_curve(accuracy_samples()[:3], "accuracy_curve")  # underdetermined
    neg = quality_samples()
    neg[0, 0] = -5.0
    with pytest.raises(ConfigurationError):
        fitting.fit_curve(neg, "data_quality")


@pytest.mark.parametrize("name,value", [("n_starts", 0), ("n_starts", -3)])
def test_fit_rejects_nonpositive_starts_and_iterations(name, value):
    with pytest.raises(ConfigurationError, match=f"^{name} must be >= 1, got {value}$"):
        fitting.fit_curve(accuracy_samples(), "accuracy_curve", **{name: value})


def test_fit_rejects_a_negative_seed():
    # numpy's seed sequences take no negative entropy; the fit says so first
    with pytest.raises(ConfigurationError, match=r"^seed must be >= 0, got -1$"):
        fitting.fit_curve(accuracy_samples(), "accuracy_curve", seed=-1)


def test_fit_reports_fit_quality_on_noisy_data():
    rng = np.random.default_rng(5)
    noisy = accuracy_samples()
    noisy[:, 2] += rng.normal(0, 0.01, size=noisy.shape[0])
    result = fitting.fit_curve(noisy, "accuracy_curve", seed=1)
    assert 1e-4 < result.rmse < 0.05  # tracks the injected noise scale
