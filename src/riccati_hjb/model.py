"""Portfolio market model: assets, decision sets, cash inflow, terminal utilities.

Everything here is immutable after construction and safe to share across
threads. The drift convention is explicit: "simple" means the plain mean
return mu'theta (the convention of the two-asset and fund-menu studies),
"log_wealth" means the drift of the log-wealth process,
mu'theta - sigma(theta)^2/2 + eps(e^x) e^{-x}, which is required whenever a
cash inflow profile is attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "ModelError",
    "DecisionSet",
    "InflowProfile",
    "PortfolioModel",
    "DaraUtility",
    "ArctanUtility",
    "TabulatedPhi0",
    "UtilitySpec",
    "SpatialGrid",
    "ingest_market_data",
    "drift",
    "phi0_profile",
    "DRIFT_SIMPLE",
    "DRIFT_LOG_WEALTH",
]

DRIFT_SIMPLE = "simple"
DRIFT_LOG_WEALTH = "log_wealth"

_SIMPLEX_TOL = 1e-12


class ModelError(ValueError):
    """Invalid market data, decision set, inflow profile or utility."""


def _readonly(a):
    a = np.array(a, dtype=float)  # own copy, so freezing never hits the caller
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DecisionSet:
    """Admissible portfolio weights: the unit simplex or a finite menu.

    kind is "simplex" (all theta >= 0 with sum 1) or "discrete" (a fixed,
    duplicate-free list of simplex points).
    """

    kind: str
    n: int
    points: np.ndarray | None = None

    @staticmethod
    def simplex(n: int) -> "DecisionSet":
        if n < 1:
            raise ModelError(f"simplex dimension must be >= 1, got {n}")
        return DecisionSet("simplex", int(n))

    @staticmethod
    def discrete(points) -> "DecisionSet":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.size == 0:
            raise ModelError("discrete decision set must be non-empty")
        for i, th in enumerate(pts):
            if np.any(th < 0):
                raise ModelError(f"discrete point {i} has negative weight: {th}")
            if abs(th.sum() - 1.0) > _SIMPLEX_TOL:
                raise ModelError(
                    f"discrete point {i} is off the simplex: sum={th.sum()!r}"
                )
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if np.allclose(pts[i], pts[j], rtol=0.0, atol=_SIMPLEX_TOL):
                    raise ModelError(f"discrete points {i} and {j} are duplicates")
        return DecisionSet("discrete", pts.shape[1], _readonly(pts))

    @property
    def size(self) -> int:
        return 1 if self.kind == "simplex" else len(self.points)


@dataclass(frozen=True)
class InflowProfile:
    """Wealth-dependent cash inflow/outflow rate.

    eps(y) = 0 for y <= y_minus, eps(y) = eps_rate for y >= y_plus, joined by
    the cubic smoothstep 3t^2 - 2t^3 so the profile is C^1 and monotone.
    """

    eps_rate: float
    y_minus: float
    y_plus: float

    def __post_init__(self):
        if not (0.0 < self.y_minus < self.y_plus):
            raise ModelError(
                f"need 0 < y_minus < y_plus, got ({self.y_minus}, {self.y_plus})"
            )

    def epsilon(self, y):
        t = np.clip((np.asarray(y, dtype=float) - self.y_minus)
                    / (self.y_plus - self.y_minus), 0.0, 1.0)
        return self.eps_rate * t * t * (3.0 - 2.0 * t)

    def epsilon_prime(self, y):
        t = np.clip((np.asarray(y, dtype=float) - self.y_minus)
                    / (self.y_plus - self.y_minus), 0.0, 1.0)
        return self.eps_rate * 6.0 * t * (1.0 - t) / (self.y_plus - self.y_minus)

    def term(self, x):
        """Inflow contribution to the log-wealth drift: eps(e^x) e^{-x}."""
        y = np.exp(np.asarray(x, dtype=float))
        return self.epsilon(y) / y

    def term_dx(self, x):
        """d/dx of eps(e^x) e^{-x}."""
        y = np.exp(np.asarray(x, dtype=float))
        return self.epsilon_prime(y) - self.epsilon(y) / y


@dataclass(frozen=True)
class PortfolioModel:
    """Asset means, covariance and admissible weights.

    The covariance is symmetrized on construction and must be positive
    definite (Cholesky). An inflow profile forces the log-wealth drift
    convention.
    """

    mu: np.ndarray
    sigma: np.ndarray
    decision_set: DecisionSet
    inflow: InflowProfile | None = None
    drift_mode: str = field(default="")

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        sig = np.asarray(self.sigma, dtype=float)
        if sig.ndim == 0:
            sig = sig.reshape(1, 1)
        n = mu.shape[0]
        if n < 1:
            raise ModelError("need at least one asset")
        if sig.shape != (n, n):
            raise ModelError(
                f"covariance shape {sig.shape} does not match {n} assets"
            )
        sig = 0.5 * (sig + sig.T)
        try:
            np.linalg.cholesky(sig)
        except np.linalg.LinAlgError:
            raise ModelError("covariance matrix is not positive definite") from None
        if self.decision_set.n != n:
            raise ModelError(
                f"decision set dimension {self.decision_set.n} != {n} assets"
            )
        mode = self.drift_mode or (
            DRIFT_LOG_WEALTH if self.inflow is not None else DRIFT_SIMPLE
        )
        if mode not in (DRIFT_SIMPLE, DRIFT_LOG_WEALTH):
            raise ModelError(f"unknown drift_mode {self.drift_mode!r}")
        if self.inflow is not None and mode == DRIFT_SIMPLE:
            raise ModelError("an inflow profile requires drift_mode='log_wealth'")
        object.__setattr__(self, "mu", _readonly(mu))
        object.__setattr__(self, "sigma", _readonly(sig))
        object.__setattr__(self, "drift_mode", mode)

    @property
    def n(self) -> int:
        return self.mu.shape[0]

    def variance(self, theta):
        """sigma(theta)^2 = theta' Sigma theta, vectorized over rows."""
        th = np.asarray(theta, dtype=float)
        if th.ndim == 1:
            return float(th @ self.sigma @ th)
        return np.einsum("ij,jk,ik->i", th, self.sigma, th)


def drift(model: PortfolioModel, x, theta):
    """Drift mu(x, theta) of the wealth process under the model convention."""
    th = np.asarray(theta, dtype=float)
    base = float(model.mu @ th)
    if model.drift_mode == DRIFT_LOG_WEALTH:
        base -= 0.5 * model.variance(th)
    out = np.full(np.shape(x), base)
    if model.drift_mode == DRIFT_LOG_WEALTH and model.inflow is not None:
        out = out + model.inflow.term(x)
    return float(out) if out.ndim == 0 else out


# --- terminal utilities and the initial risk-aversion profile -------------

@dataclass(frozen=True)
class DaraUtility:
    """Pair-exponential utility with risk aversion a0 left of x_star, a1 right.

    The additive constant c_star = e^{-a0 x_star} (a0 - a1) / a1 makes the
    utility continuous, and the matched exponent slopes make it C^1. With
    a0 > a1 the absolute risk aversion decreases with wealth.
    """

    a0: float
    a1: float
    x_star: float
    truncation_gamma: float | None = 8.0

    def __post_init__(self):
        if self.a0 <= 0 or self.a1 <= 0:
            raise ModelError("DARA exponents a0, a1 must be positive")
        _check_gamma(self.truncation_gamma)

    @property
    def c_star(self) -> float:
        return float(np.exp(-self.a0 * self.x_star) * (self.a0 - self.a1) / self.a1)

    def u(self, x):
        x = np.asarray(x, dtype=float)
        left = -np.exp(-self.a0 * x) - self.c_star
        right = -(self.a0 / self.a1) * np.exp(
            -self.a1 * x + (self.a1 - self.a0) * self.x_star
        )
        return np.where(x <= self.x_star, left, right)

    def u_prime(self, x):
        x = np.asarray(x, dtype=float)
        left = self.a0 * np.exp(-self.a0 * x)
        right = self.a0 * np.exp(-self.a1 * x + (self.a1 - self.a0) * self.x_star)
        return np.where(x <= self.x_star, left, right)

    def phi0_raw(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= self.x_star, self.a0, self.a1)


@dataclass(frozen=True)
class ArctanUtility:
    """u(x) = arctan(x); convex for losses, concave for gains."""

    truncation_gamma: float | None = 8.0

    def __post_init__(self):
        _check_gamma(self.truncation_gamma)

    def u(self, x):
        return np.arctan(np.asarray(x, dtype=float))

    def u_prime(self, x):
        x = np.asarray(x, dtype=float)
        return 1.0 / (1.0 + x * x)

    def phi0_raw(self, x):
        x = np.asarray(x, dtype=float)
        return 2.0 * x / (1.0 + x * x)


@dataclass(frozen=True)
class TabulatedPhi0:
    """Initial risk-aversion profile given directly as grid samples."""

    x: np.ndarray
    values: np.ndarray
    truncation_gamma: float | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if x.ndim != 1 or x.shape != v.shape or x.size < 2:
            raise ModelError("tabulated profile needs matching 1-d x and values")
        if np.any(np.diff(x) <= 0):
            raise ModelError("tabulated profile x must be strictly increasing")
        _check_gamma(self.truncation_gamma)
        object.__setattr__(self, "x", _readonly(x))
        object.__setattr__(self, "values", _readonly(v))

    def phi0_raw(self, x):
        return np.interp(np.asarray(x, dtype=float), self.x, self.values)


UtilitySpec = DaraUtility | ArctanUtility | TabulatedPhi0


def _check_gamma(gamma):
    if gamma is not None and gamma <= 0:
        raise ModelError(f"truncation half-width must be positive, got {gamma}")


# --- spatial grid ----------------------------------------------------------

@dataclass(frozen=True)
class SpatialGrid:
    """Uniform cell-centered grid on [x_min, x_max]."""

    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ModelError(f"empty domain [{self.x_min}, {self.x_max}]")
        if self.n_cells < 8:
            raise ModelError(f"need at least 8 cells, got {self.n_cells}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx


def phi0_profile(utility: UtilitySpec, grid: SpatialGrid) -> np.ndarray:
    """Sample phi0 = -u''/u' at cell centers, truncated outside (-gamma, gamma).

    The truncation is a hard zero with a one-cell linear blend at +-gamma so
    the sampled profile has no uncontrolled jump inside the domain.
    """
    xc = grid.centers
    vals = np.asarray(utility.phi0_raw(xc), dtype=float)
    gamma = utility.truncation_gamma
    if gamma is not None:
        taper = np.clip((gamma - np.abs(xc)) / grid.dx, 0.0, 1.0)
        vals = vals * taper
    return vals


# --- CSV ingestion ---------------------------------------------------------

def _as_lines(stream, label):
    if isinstance(stream, (str, Path)):
        p = Path(stream)
        if not p.exists():
            raise ModelError(f"{label}: file not found: {p}")
        text = p.read_text()
    elif hasattr(stream, "read"):
        text = stream.read()
    else:
        raise ModelError(f"{label}: expected a path or text stream")
    return text.splitlines()


def ingest_market_data(mu_csv, sigma_csv) -> PortfolioModel:
    """Build a validated model from CSV streams.

    The mean-return file is one header row followed by one value per line;
    the covariance file is n header-less rows of n comma-separated values.
    The covariance is symmetrized before the positive-definiteness check.
    """
    mu_lines = [ln for ln in _as_lines(mu_csv, "mu csv") if ln.strip()]
    if len(mu_lines) < 2:
        raise ModelError("mu csv: expected a header row plus at least one value")
    mu = []
    for row, ln in enumerate(mu_lines[1:], start=2):
        try:
            mu.append(float(ln.strip().rstrip(",")))
        except ValueError:
            raise ModelError(f"mu csv row {row}: not a number: {ln.strip()!r}") from None
    n = len(mu)

    sig_lines = [ln for ln in _as_lines(sigma_csv, "sigma csv") if ln.strip()]
    if len(sig_lines) != n:
        raise ModelError(
            f"sigma csv: expected {n} rows to match {n} assets, got {len(sig_lines)}"
        )
    sig = np.empty((n, n))
    for i, ln in enumerate(sig_lines):
        parts = [p for p in ln.split(",") if p.strip()]
        if len(parts) != n:
            raise ModelError(
                f"sigma csv row {i + 1}: expected {n} values, got {len(parts)}"
            )
        for j, p in enumerate(parts):
            try:
                sig[i, j] = float(p)
            except ValueError:
                raise ModelError(
                    f"sigma csv row {i + 1} column {j + 1}: not a number: {p.strip()!r}"
                ) from None
    return PortfolioModel(np.array(mu), sig, DecisionSet.simplex(n))
