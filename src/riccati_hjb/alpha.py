"""Diffusion value function alpha(x, phi) = min over theta of the
risk-adjusted objective -mu(x,theta) + (phi/2) sigma(theta)^2, together with
its minimizer path, slope bounds and the two-asset closed form.

`alpha_field` is the one vectorized evaluator: the minimizing weights depend
on rho (phi, or phi + 1 under the log-wealth drift) alone, and turn into
alpha, shifted by an x-only inflow term. Menus and simplices of three or
more assets take theta'mu and theta'Sigma theta from the (N, n) weights. One
asset has the variance S11, and two assets on the simplex are written in
the minimizing first weight t = clip(a + b/rho, 0, 1) alone, with a
quadratic variance in t: a few passes over 1-d arrays, about 15 us for the
402 values of a Newton sweep on the shipped grid (2-core x86-64 VM, numpy
2.4). The active-set QP is the one simplex minimizer (the field for n >= 3,
the scalar oracle `solve_alpha`, the slope bound); support enumeration is
only the test oracle `exhaustive_alpha`. All operations are pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .model import (
    DRIFT_LOG_WEALTH,
    PortfolioModel,
)

__all__ = [
    "AlphaEngineError",
    "AlphaResult",
    "LipschitzBounds",
    "ClosedFormN2",
    "solve_alpha",
    "closed_form_n2",
    "lipschitz_bounds",
    "weights_path",
    "alpha_field",
    "kkt_residual",
    "exhaustive_alpha",
]

_ACTIVE_TOL = 1e-12      # weights below this count as zero
_KKT_TOL = 1e-10
# below the smallest normal float rho * Sigma underflows and the working-set
# system turns singular; the quadratic term is below rounding there, so the
# lowest vertex is the minimizer to rounding, as for rho <= 0
_RHO_TINY = np.finfo(float).tiny


class AlphaEngineError(RuntimeError):
    """Internal failure of the active-set iteration (must not occur for
    positive-definite covariance)."""


@dataclass(frozen=True)
class AlphaResult:
    """Value, minimizer and envelope slope of the parametric problem at one
    (x, phi) query point."""

    value: float
    theta_hat: np.ndarray
    dvalue_dphi: float
    active_set: tuple

    def __post_init__(self):
        th = np.asarray(self.theta_hat, dtype=float)
        th.flags.writeable = False
        object.__setattr__(self, "theta_hat", th)


@dataclass(frozen=True)
class LipschitzBounds:
    """Slope bounds of alpha in phi: omega = min of sigma(theta)^2/2 over the
    decision set, big_l = max."""

    omega: float
    big_l: float

    def __post_init__(self):
        if not (0.0 < self.omega <= self.big_l):
            raise AlphaEngineError(
                f"need 0 < omega <= L, got ({self.omega}, {self.big_l})"
            )


def _phi_eff(model: PortfolioModel, phi):
    # log-wealth drift contributes an extra sigma^2/2, shifting the effective
    # risk-aversion weight of the quadratic term by one
    return phi + 1.0 if model.drift_mode == DRIFT_LOG_WEALTH else phi


def _constant_term(model: PortfolioModel, x) -> float:
    if model.inflow is None:
        return 0.0
    return -float(model.inflow.term(x))


def _solve_working_set(rho: float, sigma: np.ndarray, mu: np.ndarray, free):
    """Equality-constrained minimizer on the working set: weights off `free`
    pinned at zero, sum of free weights equal to one. Returns (theta, lam)."""
    f = list(free)
    k = len(f)
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = rho * sigma[np.ix_(f, f)]
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.concatenate([mu[f], [1.0]])
    sol = np.linalg.solve(kkt, rhs)
    theta = np.zeros(len(mu))
    theta[f] = sol[:k]
    return theta, float(sol[k])


def _menu_lines(model: PortfolioModel):
    """(points, slopes, intercepts) of the lines rho -> intercept + rho * slope,
    one per menu fund or, for the simplex, per vertex. Their lower envelope is
    alpha without the inflow shift: on a menu for every rho, on the simplex
    for rho <= 0, where the objective is concave."""
    if model.decision_set.kind == "discrete":
        pts = model.decision_set.points
        return pts, 0.5 * model.variance(pts), -(pts @ model.mu)
    return np.eye(model.n), 0.5 * np.diag(model.sigma), -model.mu


def _lowest_line(model: PortfolioModel, rho):
    """Weights of the lowest line at rho, a scalar (shape (n,)) or a 1-d
    array (shape (N, n)); ties break to the lowest index."""
    pts, slopes, intercepts = _menu_lines(model)
    return pts[np.argmin(intercepts + np.multiply.outer(rho, slopes), axis=-1)]


def _active_set_qp(sigma: np.ndarray, mu: np.ndarray, rho: float):
    """Minimize -mu'theta + (rho/2) theta'Sigma theta on the simplex, rho > 0.

    Primal active-set iteration starting from the uniform weight vector.
    Returns the weights theta, which satisfy the KKT conditions; a failure
    raises AlphaEngineError naming rho and n.
    """
    n = len(mu)
    theta = np.full(n, 1.0 / n)
    free = set(range(n))
    for _ in range(50 * n + 50):
        cand, lam = _solve_working_set(rho, sigma, mu, sorted(free))
        if min(cand[sorted(free)]) >= -_ACTIVE_TOL:
            theta = np.maximum(cand, 0.0)
            theta /= theta.sum()
            grad = rho * (sigma @ theta) - mu
            bound = [i for i in range(n) if i not in free]
            if not bound:
                return theta
            mult = grad[bound] + lam
            j = int(np.argmin(mult))
            if mult[j] >= -_KKT_TOL:
                return theta
            free.add(bound[j])
        else:
            # step toward the candidate until a free weight hits zero
            d = cand - theta
            mask = [i for i in sorted(free) if d[i] < -_ACTIVE_TOL]
            steps = [-theta[i] / d[i] for i in mask]
            t = min(1.0, min(steps))
            blocking = mask[int(np.argmin(steps))]
            theta = theta + t * d
            theta[blocking] = 0.0
            free.discard(blocking)
            if not free:  # cannot happen: the step keeps at least one weight
                raise AlphaEngineError(
                    f"active set emptied out at rho={rho!r}, n={n}")
    raise AlphaEngineError(
        f"active-set iteration did not converge at rho={rho!r}, n={n}")


def _enumerate_supports(model: PortfolioModel, rho: float) -> np.ndarray:
    """Weights of the best feasible working-set solution over every support
    set, rho > 0 (exponential in n)."""
    best_val, best_theta = np.inf, None
    n = model.n
    for k in range(1, n + 1):
        for f in itertools.combinations(range(n), k):
            try:
                theta, _ = _solve_working_set(rho, model.sigma, model.mu, f)
            except np.linalg.LinAlgError:
                continue
            if min(theta[list(f)]) < -_ACTIVE_TOL:
                continue
            val = float(-model.mu @ theta + 0.5 * rho * model.variance(theta))
            if val < best_val - 1e-15:
                best_val, best_theta = val, np.maximum(theta, 0.0)
    return best_theta


def exhaustive_alpha(model: PortfolioModel, x: float, phi: float) -> AlphaResult:
    """Certify the QP by enumerating every support set (exponential in n)."""
    rho = _phi_eff(model, phi)
    if rho <= 0:
        return _result(model, x, rho, _lowest_line(model, rho))
    return _result(model, x, rho, _enumerate_supports(model, rho))


def _result(model: PortfolioModel, x, rho: float, theta: np.ndarray) -> AlphaResult:
    var = model.variance(theta)
    return AlphaResult(
        value=float(-model.mu @ theta + 0.5 * rho * var) + _constant_term(model, x),
        theta_hat=theta,
        dvalue_dphi=0.5 * var,
        active_set=tuple(int(i) for i in np.flatnonzero(theta > _ACTIVE_TOL)),
    )


def solve_alpha(model: PortfolioModel, x: float, phi: float) -> AlphaResult:
    """Global minimizer of the risk-adjusted objective at (x, phi): the scalar
    oracle that `alpha_field` is certified against.

    Simplex sets run the active-set QP, the one simplex minimizer, which
    raises AlphaEngineError if it does not converge; discrete sets take the
    exact minimum over the menu's lines. For non-convex effective weights
    (phi at or below the convexity threshold) the minimum is attained at a
    vertex and computed directly, as it is for a positive rho below the
    smallest normal float.
    """
    rho = _phi_eff(model, phi)
    if model.decision_set.kind == "discrete" or rho < _RHO_TINY:
        theta = _lowest_line(model, rho)
    else:
        theta = _active_set_qp(model.sigma, model.mu, rho)
    return _result(model, x, rho, theta)


def kkt_residual(model: PortfolioModel, x: float, phi: float,
                 result: AlphaResult) -> float:
    """Independent optimality certificate: max violation over stationarity on
    the support, multiplier nonnegativity off it, and simplex feasibility."""
    theta = np.asarray(result.theta_hat)
    rho = _phi_eff(model, phi)
    viol = abs(theta.sum() - 1.0)
    viol = max(viol, float(-theta.min()) if theta.min() < 0 else 0.0)
    if model.decision_set.kind == "discrete" or rho <= 0:
        # no menu fund (or simplex vertex) strictly better
        _, slopes, intercepts = _menu_lines(model)
        best = float(np.min(intercepts + rho * slopes))
        return max(viol, result.value - (best + _constant_term(model, x)))
    grad = rho * (model.sigma @ theta) - model.mu
    support = theta > _ACTIVE_TOL
    lam = -float(np.mean(grad[support]))
    viol = max(viol, float(np.max(np.abs(grad[support] + lam))))
    if not support.all():
        viol = max(viol, float(-np.min(grad[~support] + lam)))
    return viol


# --- slope bounds and x-derivatives ----------------------------------------

def lipschitz_bounds(model: PortfolioModel) -> LipschitzBounds:
    """omega/L = min/max of sigma(theta)^2 / 2 over the decision set.

    The minimum over the simplex is itself a convex QP; the maximum of a
    convex function over a polytope sits at a vertex, so both menus and the
    simplex take it over the slopes of their lines.
    """
    _, slopes, _ = _menu_lines(model)
    if model.decision_set.kind == "discrete":
        omega = slopes.min()
    else:
        theta = _active_set_qp(model.sigma, np.zeros(model.n), 1.0)
        omega = 0.5 * model.variance(theta)
    return LipschitzBounds(float(omega), float(slopes.max()))


# --- two-asset closed form ---------------------------------------------------

@dataclass(frozen=True)
class ClosedFormN2:
    """Piecewise form of alpha(phi) for two assets on the simplex.

    alpha = E_minus phi + D_minus up to phi_lo, A - B/phi + C phi on
    (phi_lo, phi_hi), E_plus phi + D_plus beyond. phi_lo = 0 marks an
    interior solution down to phi = 0 (no lower piece); phi_hi = inf an
    interior solution for all large phi (no upper piece). When the interior
    interval is empty (the minimizer pinned at one vertex for every phi),
    phi_lo = phi_hi = inf and the vertex line occupies the minus piece.
    Absent pieces carry nan coefficients.
    """

    a_const: float
    b_const: float
    c_const: float
    phi_lo: float
    phi_hi: float
    e_minus: float
    d_minus: float
    e_plus: float
    d_plus: float

    def evaluate(self, phi):
        phi = np.asarray(phi, dtype=float)
        out = self.a_const - self.b_const / phi + self.c_const * phi
        if self.phi_lo > 0 and not np.isnan(self.e_minus):
            out = np.where(phi <= self.phi_lo,
                           self.e_minus * phi + self.d_minus, out)
        if np.isfinite(self.phi_hi):
            out = np.where(phi >= self.phi_hi,
                           self.e_plus * phi + self.d_plus, out)
        return out if out.ndim else float(out)


def _n2_weight_line(model: PortfolioModel):
    """(a, b, q) of the interior two-asset weight theta_1 = a + b / rho, with
    q = S11 - 2 S12 + S22 the variance of the direction (1, -1). Derived once
    per model and kept in its instance dict: the model is immutable."""
    line = model.__dict__.get("_n2_weight_line")
    if line is not None:
        return line
    s = model.sigma
    q = float(s[0, 0] - 2.0 * s[0, 1] + s[1, 1])
    if q <= 0:
        raise AlphaEngineError("degenerate covariance: S11 - 2 S12 + S22 <= 0")
    a = float((s[1, 1] - s[0, 1]) / q)   # asymptotic (minimum-variance) weight
    b = float(model.mu[0] - model.mu[1]) / q
    # a frozen dataclass refuses setattr; its instance dict takes the memo
    model.__dict__["_n2_weight_line"] = line = (a, b, q)
    return line


def closed_form_n2(model: PortfolioModel) -> ClosedFormN2:
    """Derive the two-asset piecewise coefficients from the interior KKT
    solution theta1(phi) = ((mu1-mu2)/phi + S22 - S12) / (S11 - 2 S12 + S22).

    Requires the plain drift convention (no inflow) so alpha depends on x
    through nothing and on phi alone.
    """
    if model.n != 2 or model.decision_set.kind != "simplex":
        raise AlphaEngineError("closed form needs a 2-asset simplex model")
    if model.drift_mode == DRIFT_LOG_WEALTH or model.inflow is not None:
        raise AlphaEngineError("closed form needs the simple drift convention")
    s = model.sigma
    a, b, q = _n2_weight_line(model)
    m = float(model.mu[0] - model.mu[1])
    a_const = float(-model.mu[1] - m * a)
    b_const = 0.5 * m * m / q
    c_const = 0.5 * float(np.linalg.det(s)) / q

    # interior interval: phi > 0 with 0 < a + b/phi < 1
    if b > 0:
        phi_lo = b / (1.0 - a) if a < 1.0 else np.inf
        phi_hi = -b / a if a < 0.0 else np.inf
    elif b < 0:
        phi_lo = -b / a if a > 0.0 else np.inf
        phi_hi = b / (1.0 - a) if a > 1.0 else np.inf
    else:
        phi_lo = 0.0 if 0.0 < a < 1.0 else np.inf
        phi_hi = np.inf

    _, slopes, intercepts = _menu_lines(model)

    def vertex_line(phi_probe):
        k = int(np.argmin(intercepts + phi_probe * slopes))
        return float(slopes[k]), float(intercepts[k])

    e_minus = d_minus = e_plus = d_plus = np.nan
    if phi_lo == np.inf:
        # empty interior: one vertex is optimal for every phi, and its line
        # (the lower of the two at any probe) fills the whole axis
        e_minus, d_minus = vertex_line(1.0)
    else:
        if phi_lo > 0:
            e_minus, d_minus = vertex_line(0.5 * phi_lo)
        if np.isfinite(phi_hi):
            e_plus, d_plus = vertex_line(2.0 * phi_hi)
    return ClosedFormN2(a_const, b_const, c_const, float(phi_lo), float(phi_hi),
                        e_minus, d_minus, e_plus, d_plus)


# --- vectorized evaluation and weight paths ---------------------------------

def weights_path(model: PortfolioModel, phi_grid):
    """Tabulate (phi, theta_hat, alpha, dalpha_dphi) along an increasing phi
    grid. Within one active set the weights are affine in 1/phi."""
    phi_grid = np.asarray(phi_grid, dtype=float)
    if phi_grid.ndim != 1 or np.any(np.diff(phi_grid) <= 0) or phi_grid[0] <= 0:
        raise AlphaEngineError("phi grid must be strictly increasing and positive")
    alpha, dalpha, theta = alpha_field(model, 0.0, phi_grid)
    return {"phi": phi_grid, "theta": theta, "alpha": alpha, "dalpha_dphi": dalpha}


def _convex_mask(rho: np.ndarray):
    """None when every rho is convex (at least the smallest normal float),
    the common case, else the mask of the convex rho."""
    return None if rho.min(initial=np.inf) >= _RHO_TINY else rho >= _RHO_TINY


def _weights(model: PortfolioModel, rho: np.ndarray) -> np.ndarray:
    """Exact minimizing weights at each effective weight rho, shape (N, n),
    for a menu or a simplex of n >= 3 assets: the lowest fund line on a
    menu, the per-point QP on the simplex, and the lowest vertex wherever
    rho <= 0 or rho is subnormal."""
    if model.decision_set.kind == "discrete":
        return _lowest_line(model, rho)
    convex = _convex_mask(rho)
    theta = np.empty((rho.size, model.n))
    for k in (range(rho.size) if convex is None
              else np.flatnonzero(convex)):
        theta[k] = _active_set_qp(model.sigma, model.mu, float(rho[k]))
    if convex is not None:
        theta[~convex] = _lowest_line(model, rho[~convex])
    return theta


def _n2_first_weight(model: PortfolioModel, rho: np.ndarray) -> np.ndarray:
    """Minimizing first weight t of two assets on the simplex at each rho:
    the interior line a + b / rho clipped to [0, 1], and the lowest vertex
    (t = 1 or 0) wherever rho <= 0 or rho is subnormal."""
    a, b, _ = _n2_weight_line(model)
    convex = _convex_mask(rho)
    if convex is None:
        t = b / rho
    else:
        # rho = 0 or a tiny rho gives inf or nan here: replaced by a vertex
        # below
        with np.errstate(all="ignore"):
            t = b / rho
    t += a
    np.minimum(t, 1.0, out=t)
    np.maximum(t, 0.0, out=t)
    if convex is not None:
        t[~convex] = _lowest_line(model, rho[~convex])[:, 0]
    return t


def alpha_field(model: PortfolioModel, x, phi):
    """Vectorized (alpha, dalpha_dphi, theta) over broadcastable (x, phi)
    arrays; theta carries a trailing axis of length n.

    The weights are the exact minimizers at rho; alpha = -theta'mu +
    (rho/2) theta'Sigma theta - inflow(x), and its phi-slope is
    theta'Sigma theta / 2 by the envelope theorem. One asset has the
    variance S11; two assets on the simplex are written in the first
    weight t alone, with mean mu2 + (mu1 - mu2) t and variance
    q (t - a)^2 + det(Sigma) / q, so that evaluation is a handful of passes
    over 1-d arrays.
    """
    x = np.asarray(x, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if x.shape != phi.shape:
        x, phi = np.broadcast_arrays(x, phi)
    rho = _phi_eff(model, phi.ravel())
    if model.decision_set.kind == "discrete" or model.n > 2:
        theta = _weights(model, rho)
        # row sums as a product with ones cost a fraction of sum(axis=1),
        # and ndarray.dot less than @ on arrays this small
        var = (theta.dot(model.sigma) * theta).dot(np.ones(model.n))
        alpha = rho * var
        alpha *= 0.5
        alpha -= theta.dot(model.mu)
        var *= 0.5
    elif model.n == 1:
        s11, mu1 = model.sigma[0, 0], model.mu[0]
        theta = np.ones((rho.size, 1))
        # the operations of the general formula, which are exact here
        alpha = rho * s11
        alpha *= 0.5
        alpha -= mu1
        var = np.full(rho.size, 0.5 * s11)
    else:
        a, _, q = _n2_weight_line(model)
        (s11, s12), (_, s22) = model.sigma.tolist()
        mu1, mu2 = model.mu.tolist()
        t = _n2_first_weight(model, rho)
        # half the variance, (q/2) (t - a)^2 + det(Sigma) / (2 q)
        var = t - a
        np.square(var, out=var)
        var *= 0.5 * q
        var += 0.5 * (s11 * s22 - s12 * s12) / q
        alpha = rho * var
        mean = t * (mu1 - mu2)
        mean += mu2
        alpha -= mean
        # filled by rows, which is cheaper than by columns; theta is the
        # transposed view
        theta = np.empty((2, rho.size))
        theta[0] = t
        np.subtract(1.0, t, out=theta[1])
        theta = theta.T
    if model.inflow is not None:
        alpha -= model.inflow.term(x.ravel())
    if phi.ndim == 1:
        return alpha, var, theta
    shape = phi.shape
    return (alpha.reshape(shape), var.reshape(shape),
            theta.reshape(shape + (model.n,)))
