"""Least-squares fitting of the quality and accuracy response curves.

Both models are smooth but nonconvex in their parameters, so the fit runs
Nelder-Mead simplex from several seeded starting points and keeps the best
final value. Sample layout is one row per observation with the target in
the last column:

  accuracy_curve: (effort, theta, accuracy), fitting beta1..beta5
  data_quality:   (effective_quantity, theta), fitting gamma1, gamma2, gamma4

The quality model is fit against the reduced variable z = d - gamma3 * s.
gamma3 is a constant of that reduction, chosen by whoever computed z, not a
free parameter, so a fit neither takes nor reports it. Every fit starts from
DEFAULT_INITS and from seeded jitters of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .contracts import accuracy_curve
from .errors import ConfigurationError

DEFAULT_INITS = {
    "accuracy_curve": np.array([0.5, 0.5, 0.5, 0.01, 2.0]),
    "data_quality": np.array([5.0, 1.0, 0.3]),
}
PARAM_NAMES = {
    "accuracy_curve": ("beta1", "beta2", "beta3", "beta4", "beta5"),
    "data_quality": ("gamma1", "gamma2", "gamma4"),
}
# simplex iterations and objective evaluations allowed per start
MAX_ITER = 4000


@dataclass(frozen=True)
class FitResult:
    model_id: str
    params: dict
    rmse: float
    converged: bool
    n_evals: int


def predict(model_id: str, x: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Evaluate a curve model at raw parameter vector x. A simplex probe may
    leave AccuracyCurveParams' ranges, so accuracy_curve gets a namespace."""
    with np.errstate(over="ignore", invalid="ignore"):
        if model_id == "accuracy_curve":
            params = SimpleNamespace(**dict(zip(PARAM_NAMES[model_id], x)))
            return accuracy_curve(inputs[:, 0], inputs[:, 1], params)
        if model_id == "data_quality":
            # data_quality's in numpy: math's exp and ** differ in the last bit
            g1, g2, g4 = x
            z = inputs[:, 0]
            return 1.0 - g1 * np.exp(-g2 * z ** g4)
    raise ConfigurationError(f"unknown curve model {model_id!r}")


def fit_curve(samples: np.ndarray, model_id: str, seed: int = 0,
              n_starts: int = 8) -> FitResult:
    """Fit a response curve by mean squared residual.

    samples: 2-D array, one observation per row, target in the last column.
    Needs at least as many observations as free parameters. Returns the best
    parameters over all starts along with the residual RMSE; `converged`
    reports whether the winning simplex run terminated normally.
    """
    # imported here, not at module load: scipy.optimize costs about 0.5 s and
    # 40 MB in every process, and only this function uses it
    from scipy import optimize

    if model_id not in PARAM_NAMES:
        raise ConfigurationError(
            f"unknown curve model {model_id!r}; choose from {sorted(PARAM_NAMES)}")
    for name, value, low in (("seed", seed, 0), ("n_starts", n_starts, 1)):
        if value < low:
            raise ConfigurationError(f"{name} must be >= {low}, got {value}")
    samples = np.asarray(samples, dtype=np.float64)
    n_inputs = 2 if model_id == "accuracy_curve" else 1
    if samples.ndim != 2 or samples.shape[1] != n_inputs + 1:
        raise ConfigurationError(
            f"{model_id} samples must have {n_inputs + 1} columns, got shape {samples.shape}")
    if not np.isfinite(samples).all():
        raise ConfigurationError("samples contain non-finite values")
    names = PARAM_NAMES[model_id]
    if samples.shape[0] < len(names):
        raise ConfigurationError(
            f"{model_id} has {len(names)} free parameters but only "
            f"{samples.shape[0]} samples")
    if model_id == "data_quality" and (samples[:, 0] <= 0).any():
        raise ConfigurationError("effective quantity must be positive for the quality fit")

    inputs, targets = samples[:, :-1], samples[:, -1]
    x0 = DEFAULT_INITS[model_id]

    # large finite penalty rather than inf: the simplex update subtracts
    # objective values from each other, and inf - inf poisons it with nan
    _PENALTY = 1e300

    def mse(x):
        # wild probe points overflow freely; they just score as infeasible
        with np.errstate(over="ignore", invalid="ignore"):
            resid = predict(model_id, x, inputs) - targets
            if not np.isfinite(resid).all():
                return _PENALTY
            out = float((resid ** 2).mean())
        return out if np.isfinite(out) else _PENALTY

    rng = np.random.default_rng(seed)
    starts = [x0]
    for _ in range(n_starts - 1):
        jitter = x0 * rng.uniform(0.5, 1.8, size=x0.shape) + rng.normal(0.0, 0.05, x0.shape)
        starts.append(jitter)

    best = None
    total_evals = 0
    for start in starts:
        res = optimize.minimize(
            mse, start, method="Nelder-Mead",
            options={"maxiter": MAX_ITER, "maxfev": MAX_ITER,
                     "xatol": 1e-12, "fatol": 1e-14})
        total_evals += res.nfev
        if best is None or res.fun < best.fun:
            best = res

    return FitResult(
        model_id=model_id,
        params=dict(zip(names, (float(v) for v in best.x))),
        rmse=float(np.sqrt(best.fun)),
        converged=bool(best.success),
        n_evals=total_evals,
    )
