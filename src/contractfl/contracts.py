"""Menu-of-contracts incentive mechanism for federated training.

The publisher faces N client quality levels theta_1 < ... < theta_N with
prior probabilities p_n and posts one (reward R_n, effort e_n) pair per
level. Individual rationality binds at the lowest level and adjacent
incentive-compatibility binds downward, which pins rewards to a closed form
given efforts; efforts themselves are found by maximizing a separable
per-level objective that trades an accuracy gain against effort cost and
completion-time pressure.

Unit conventions: effort e is samples processed per round (epochs x local
samples), c is CPU cycles per sample, f is clock frequency, so e * c / f is
computation time and xi * e * c * f^2 is computation energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractViolation, InfeasibleEffort

THETA_FLOOR = 0.01
EFFORT_MIN = 1.0
GRID_POINTS = 2048
REFINE_TOL = 1e-9
# verify_contract: a constraint short by more than VERIFY_TOL is violated, and
# one within BINDING_TOL of zero is reported as binding
VERIFY_TOL = 1e-9
BINDING_TOL = 1e-6
# fraction of T_max kept clear of the deadline when bounding the effort grid
TIME_MARGIN_FRAC = 1e-6


@dataclass(frozen=True)
class QualityParams:
    """Shape of the data-quality response to sample quantity and skew.

    theta = 1 - g1 * exp(-g2 * (d - g3 * s)^g4), clamped to [0.01, 1].
    d is the client's sample count, s its label-skew score; g3 converts
    skew into an equivalent loss of samples.
    """

    gamma1: float = 10.559
    gamma2: float = 1.803
    gamma3: float = 70.0
    gamma4: float = 0.155

    def __post_init__(self):
        for name in ("gamma1", "gamma2", "gamma4"):
            if not getattr(self, name) > 0:
                raise ConfigurationError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.gamma3 >= 0:  # 0 ignores skew; below 0, skew would raise quality
            raise ConfigurationError(f"gamma3 must be >= 0, got {self.gamma3}")


@dataclass(frozen=True)
class AccuracyCurveParams:
    """Accuracy response to per-round effort e and data quality theta.

    q = b1 + b2 * theta - b3 * exp(-b4 * (1e-3 * e)^b5). The 1e-3 factor
    rescales effort so b4, b5 stay O(1) for efforts in the thousands.
    """

    beta1: float = 0.459
    beta2: float = 0.432
    beta3: float = 0.459
    beta4: float = 0.009
    beta5: float = 2.436

    def __post_init__(self):
        for name in ("beta4", "beta5"):
            if not getattr(self, name) > 0:
                raise ConfigurationError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass(frozen=True)
class MarketModel:
    """Level structure plus every scalar entering contract arithmetic."""

    theta: np.ndarray
    p: np.ndarray
    xi: float = 2.0
    c: float = 5.0
    f: float = 1.0
    t_com: float = 10.0
    e_com: float = 20.0
    lambda1: float = 5e6
    lambda2: float = 4e5
    t_max: float = 1e5

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=np.float64)
        p = np.asarray(self.p, dtype=np.float64)
        if theta.ndim != 1 or theta.size == 0:
            raise ConfigurationError("theta must be a non-empty 1-D array")
        if (np.diff(theta) <= 0).any():
            raise ConfigurationError("theta levels must be strictly increasing")
        if theta[0] <= 0 or theta[-1] > 1.0:
            raise ConfigurationError("theta levels must lie in (0, 1]")
        if p.shape != theta.shape:
            raise ConfigurationError("p must match theta in length")
        if (p < 0).any() or abs(p.sum() - 1.0) > 1e-9:
            raise ConfigurationError(f"level probabilities must be >= 0 and sum to 1, "
                                     f"got sum {p.sum()!r}")
        for name in ("xi", "c", "f", "t_com", "e_com", "lambda1", "lambda2", "t_max"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("xi", "c", "f"):
            if not getattr(self, name) > 0:
                raise ConfigurationError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("t_com", "e_com", "lambda1", "lambda2"):
            if not getattr(self, name) >= 0:
                raise ConfigurationError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.max_effort > EFFORT_MIN:
            raise ConfigurationError(
                f"t_max ({self.t_max}) leaves no effort above {EFFORT_MIN} before the "
                f"deadline after t_com ({self.t_com}): max feasible effort "
                f"{self.max_effort:.6g}")
        theta.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "p", p)

    @classmethod
    def uniform(cls, n_levels: int = 10, **kwargs) -> "MarketModel":
        """Levels at n / N for n = 1..N with equal probabilities."""
        if n_levels < 1:
            raise ConfigurationError(f"levels must be >= 1, got {n_levels}")
        theta = np.arange(1, n_levels + 1, dtype=np.float64) / n_levels
        p = np.full(n_levels, 1.0 / n_levels)
        return cls(theta=theta, p=p, **kwargs)

    @property
    def max_effort(self) -> float:
        """The largest effort the solver may contract: its completion time
        e * c / f ends TIME_MARGIN_FRAC * t_max before the deadline t_max."""
        return (self.t_max - self.t_com - TIME_MARGIN_FRAC * self.t_max) * self.f / self.c

    @property
    def n_levels(self) -> int:
        return self.theta.size

    @property
    def unit_effort_cost(self) -> float:
        # energy cost of one unit of effort: xi * c * f^2
        return self.xi * self.c * self.f ** 2

    def energy(self, effort):
        """Energy of one training cycle at `effort` (a scalar or an array):
        xi * c * f^2 * effort for computation plus E_com for the upload."""
        return self.unit_effort_cost * effort + self.e_com


@dataclass(frozen=True)
class ContractEntry:
    level: int
    theta: float
    p: float
    effort: float
    reward: float


@dataclass(frozen=True)
class ContractMenu:
    """An N-row menu of (effort, reward) pairs with solver diagnostics."""

    entries: tuple[ContractEntry, ...]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.entries:
            raise ContractViolation("a menu needs at least one entry")
        e = self.efforts
        r = self.rewards
        if (e <= 0).any():
            raise ContractViolation("menu efforts must be positive")
        if (np.diff(e) < 0).any():
            raise ContractViolation(f"menu efforts must be nondecreasing, got {e.tolist()}")
        if (np.diff(r) < 0).any():
            raise ContractViolation(f"menu rewards must be nondecreasing, got {r.tolist()}")

    @property
    def efforts(self) -> np.ndarray:
        return np.array([en.effort for en in self.entries])

    @property
    def rewards(self) -> np.ndarray:
        return np.array([en.reward for en in self.entries])

    @property
    def n_levels(self) -> int:
        return len(self.entries)

    def entry(self, level: int) -> ContractEntry:
        if not 1 <= level <= len(self.entries):
            raise ConfigurationError(f"level {level} out of range 1..{len(self.entries)}")
        return self.entries[level - 1]

    def to_dict(self) -> dict:
        return {
            "levels": [
                {"level": en.level, "theta": en.theta, "p": en.p,
                 "effort": en.effort, "reward": en.reward}
                for en in self.entries
            ],
            "provenance": dict(self.provenance),
        }


@dataclass(frozen=True)
class ContractReport:
    """Result of brute-force participation/self-selection checks."""

    ok: bool
    ir: np.ndarray
    ic_gap: np.ndarray
    binding_ir: tuple[int, ...]
    binding_ic_down: tuple[tuple[int, int], ...]
    violations: tuple[str, ...]


# ---------------------------------------------------------------------------
# Quality and accuracy response curves
# ---------------------------------------------------------------------------

def data_quality(d: float, s: float, qp: QualityParams = QualityParams(),
                 clamps: list[str] | None = None) -> float:
    """Map sample count d and skew s to a quality score in [0.01, 1].

    A nonpositive effective quantity d - g3 * s means the skew penalty has
    consumed the whole sample budget; quality drops to the floor. Each
    clamp is appended to `clamps` when one is given, so a caller scoring
    many clients can report them in one line.
    """
    if d < 0:
        raise ConfigurationError(f"sample count must be >= 0, got {d}")
    if s < 0:
        raise ConfigurationError(f"skew score must be >= 0, got {s}")
    z = d - qp.gamma3 * s
    if z <= 0:
        if clamps is not None:
            clamps.append("effective quantity <= 0")
        return THETA_FLOOR
    try:
        power = z ** qp.gamma4
    except OverflowError:  # exp(-gamma2 * power) below is then 0
        power = math.inf
    theta = 1.0 - qp.gamma1 * math.exp(-qp.gamma2 * power)
    if (theta < THETA_FLOOR or theta > 1.0) and clamps is not None:
        clamps.append(f"quality outside [{THETA_FLOOR:.2f}, 1]")
    return float(min(1.0, max(THETA_FLOOR, theta)))


def quality_level(theta: float, market: MarketModel,
                  clamps: list[str] | None = None) -> int:
    """Smallest level n with theta <= theta_n (levels are 1-based).

    A value above the top boundary is clamped to level N so that
    extrapolated quality estimates stay usable; the clamp is appended to
    `clamps` when one is given, as in data_quality.
    """
    if not np.isfinite(theta) or theta <= 0:
        raise ConfigurationError(f"quality must be a positive finite number, got {theta}")
    idx = int(np.searchsorted(market.theta, theta, side="left"))
    if idx >= market.n_levels:
        if clamps is not None:
            clamps.append("quality above the top level")
        return market.n_levels
    return idx + 1


def accuracy_curve(e, theta, acp: AccuracyCurveParams = AccuracyCurveParams()):
    """Predicted accuracy for per-round effort e at data quality theta."""
    e = np.asarray(e, dtype=np.float64)
    if (e < 0).any():
        raise ConfigurationError("effort must be >= 0")
    q = acp.beta1 + acp.beta2 * np.asarray(theta, dtype=np.float64) \
        - acp.beta3 * np.exp(-acp.beta4 * (1e-3 * e) ** acp.beta5)
    return float(q) if q.ndim == 0 else q


# ---------------------------------------------------------------------------
# Menu arithmetic
# ---------------------------------------------------------------------------

def effort_cost_coeffs(market: MarketModel) -> np.ndarray:
    """Effective marginal cost of effort per level in the reduced objective.

    Substituting the binding-reward formula into the publisher's objective
    collapses all reward terms into one linear coefficient per level:
    l_N = u * p_N and, below the top,
    l_n = u * p_n + u * (1/theta_n - 1/theta_{n+1}) * sum_{i>n} theta_i p_i,
    with u = xi * c * f^2. The information rent owed to levels above n makes
    l_n larger for low levels.
    """
    u = market.unit_effort_cost
    theta, p = market.theta, market.p
    l = u * p.copy()
    if market.n_levels > 1:
        tail = np.cumsum((theta * p)[::-1])[::-1]  # tail[i] = sum_{j >= i} theta_j p_j
        l[:-1] += u * (1.0 / theta[:-1] - 1.0 / theta[1:]) * tail[1:]
    return l


def rewards_from_efforts(efforts: np.ndarray, market: MarketModel) -> np.ndarray:
    """Rewards that make IR bind at level 1 and downward IC bind everywhere.

    R_1 = (u * e_1 + E_com) / theta_1 and
    R_n = R_{n-1} + u * (e_n - e_{n-1}) / theta_n, accumulated in closed
    form. Requires nondecreasing positive efforts.
    """
    e = np.asarray(efforts, dtype=np.float64)
    if e.shape != (market.n_levels,):
        raise ConfigurationError(
            f"need {market.n_levels} efforts, got shape {e.shape}")
    if (e <= 0).any():
        raise ContractViolation(f"efforts must be positive, got {e.tolist()}")
    if (np.diff(e) < 0).any():
        raise ContractViolation(f"efforts must be nondecreasing, got {e.tolist()}")
    r1 = market.energy(e[0]) / market.theta[0]
    if market.n_levels == 1:
        return np.array([r1])
    increments = market.unit_effort_cost * np.diff(e) / market.theta[1:]
    return r1 + np.concatenate([[0.0], np.cumsum(increments)])


def per_level_objective(e, n: int, l: np.ndarray, market: MarketModel,
                        acp: AccuracyCurveParams = AccuracyCurveParams()):
    """Publisher's separable objective for level n at effort e.

    p_n * (lambda1 * q(e, theta_n) + lambda2 * ln(T_max - T_com - e*c/f))
    - l_n * e. The log argument is the slack before the deadline; efforts
    at or past the deadline are rejected outright.
    """
    if not 1 <= n <= market.n_levels:
        raise ConfigurationError(f"level {n} out of range 1..{market.n_levels}")
    e_arr = np.asarray(e, dtype=np.float64)
    slack = market.t_max - market.t_com - e_arr * market.c / market.f
    if (slack <= 0).any():
        raise InfeasibleEffort(
            f"effort {e} pushes completion time past the deadline "
            f"(T_com + e*c/f >= T_max = {market.t_max})")
    q = accuracy_curve(e_arr, market.theta[n - 1], acp)
    val = market.p[n - 1] * (market.lambda1 * q + market.lambda2 * np.log(slack)) \
        - l[n - 1] * e_arr
    return float(val) if e_arr.ndim == 0 else val


def publisher_constant(market: MarketModel) -> float:
    """Effort-independent part of the publisher's utility.

    The communication-energy compensation baked into R_1 is owed to every
    level: -(E_com / theta_1) * sum_n theta_n p_n.
    """
    return float(-(market.e_com / market.theta[0]) * (market.theta * market.p).sum())


def _golden_max(fun, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section search for a maximum on [lo, hi].

    Returns the best (x, f(x)) among every point probed, endpoints included,
    so a boundary maximum is returned exactly.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    best_x, best_f = lo, fun(lo)
    f_hi = fun(hi)
    if f_hi > best_f:
        best_x, best_f = hi, f_hi
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
            x, fx = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
            x, fx = d, fd
        if fx > best_f:
            best_x, best_f = x, fx
    return best_x, best_f


def solve_contract(market: MarketModel,
                   acp: AccuracyCurveParams = AccuracyCurveParams()) -> ContractMenu:
    """Maximize the per-level objective over each level's feasible efforts.

    Each level is scanned on a coarse grid of GRID_POINTS efforts over
    [EFFORT_MIN, market.max_effort], a range the market keeps non-empty and
    a small margin below the completion deadline; the best bracket is then
    refined by golden-section search. The resulting efforts must come out
    nondecreasing across levels; if they do not, the separable relaxation is
    invalid for this market and we fail loudly rather than return a menu
    that breaks self-selection.
    """
    e_hi = market.max_effort
    grid = np.linspace(EFFORT_MIN, e_hi, GRID_POINTS)
    l = effort_cost_coeffs(market)

    efforts = np.empty(market.n_levels)
    shares = np.empty(market.n_levels)
    for n in range(1, market.n_levels + 1):
        vals = per_level_objective(grid, n, l, market, acp)
        i = int(np.argmax(vals))
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, GRID_POINTS - 1)]
        x, fx = _golden_max(lambda e: per_level_objective(float(e), n, l, market, acp),
                            float(lo), float(hi), REFINE_TOL)
        efforts[n - 1] = x
        shares[n - 1] = fx

    drops = np.diff(efforts)
    if (drops < -1e-9 * max(1.0, e_hi)).any():
        bad = int(np.argmin(drops)) + 1
        raise ContractViolation(
            f"optimal efforts decrease from level {bad} ({efforts[bad - 1]:.6g}) to "
            f"level {bad + 1} ({efforts[bad]:.6g}); this market needs bunching, "
            f"which the separable solver does not support")
    efforts = np.maximum.accumulate(efforts)  # absorb sub-tolerance wiggle

    rewards = rewards_from_efforts(efforts, market)
    entries = tuple(
        ContractEntry(n + 1, float(market.theta[n]), float(market.p[n]),
                      float(efforts[n]), float(rewards[n]))
        for n in range(market.n_levels)
    )
    provenance = {
        "grid_points": GRID_POINTS,
        "effort_bounds": [EFFORT_MIN, float(e_hi)],
        "grid_step": float(grid[1] - grid[0]),
        "refine_tol": REFINE_TOL,
        "objective_per_level": shares.tolist(),
        "publisher_constant": publisher_constant(market),
        "publisher_utility": float(shares.sum() + publisher_constant(market)),
    }
    return ContractMenu(entries, provenance)


def verify_contract(menu: ContractMenu, market: MarketModel) -> ContractReport:
    """Brute-force every participation and self-selection constraint.

    U(n, m) = theta_n * R_m - (u * e_m + E_com) is level n's expected utility
    from picking row m. IR requires U(n, n) >= 0; IC requires
    U(n, n) >= U(n, m) for every m, each up to VERIFY_TOL. Constraints within
    BINDING_TOL of zero are reported as binding.
    """
    if menu.n_levels != market.n_levels:
        raise ConfigurationError(
            f"menu has {menu.n_levels} levels, market has {market.n_levels}")
    # util[n, m]: level n's utility when it takes row m
    util = np.outer(market.theta, menu.rewards) - market.energy(menu.efforts)[None, :]
    ir = np.diag(util).copy()
    ic_gap = ir[:, None] - util

    violations = []
    for n in range(market.n_levels):
        if ir[n] < -VERIFY_TOL:
            violations.append(f"IR level {n + 1}: utility {ir[n]:.3e} < 0")
        for m in range(market.n_levels):
            if m != n and ic_gap[n, m] < -VERIFY_TOL:
                violations.append(
                    f"IC level {n + 1} prefers row {m + 1}: gap {ic_gap[n, m]:.3e}")
    binding_ir = tuple(n + 1 for n in range(market.n_levels) if abs(ir[n]) < BINDING_TOL)
    binding_ic = tuple(
        (n + 1, n) for n in range(1, market.n_levels) if abs(ic_gap[n, n - 1]) < BINDING_TOL
    )
    return ContractReport(
        ok=not violations,
        ir=ir,
        ic_gap=ic_gap,
        binding_ir=binding_ir,
        binding_ic_down=binding_ic,
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# Client-side arithmetic
# ---------------------------------------------------------------------------

def local_epochs(effort: float, d_k: int) -> int:
    """Epochs a client must run to deliver a contracted effort: floor(e / d),
    clamped up to 1 so every participant trains at least one full pass."""
    if effort <= 0:
        raise ConfigurationError(f"effort must be positive, got {effort}")
    if d_k < 1:
        raise ConfigurationError(f"client sample count must be >= 1, got {d_k}")
    return max(1, int(math.floor(effort / d_k)))


def client_utility(level: int, menu: ContractMenu, market: MarketModel,
                   tau: int, d_k: int) -> float:
    """Expected utility of a level's contract at the client's realized effort.

    theta_n * R_n - (xi * c * f^2 * tau * d_k + E_com). The energy term
    uses the realized effort tau * d_k, which differs from the contracted
    effort when the epoch count was rounded or clamped.
    """
    return float(market.theta[level - 1] * menu.entry(level).reward
                 - market.energy(tau * d_k))
