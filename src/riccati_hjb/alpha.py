"""Diffusion value function alpha(x, phi) = min over theta of the
risk-adjusted objective -mu(x,theta) + (phi/2) sigma(theta)^2, together with
its minimizer path, slope bounds and the two-asset closed form.

`alpha_field` is the one vectorized evaluator: the minimizing weights depend
on rho (phi, or phi + 1 under the log-wealth drift) alone, and turn into
alpha, shifted by an x-only inflow term. Each decision-set kind gives the
mean theta'mu and half the variance, and one line turns them into
alpha = rho * (variance / 2) - mean, which is finite wherever alpha is.
Menus and simplices of three or more assets take both from the (N, n)
weights. One asset has the variance S11, and two assets on the simplex are
written in the minimizing first weight t = clip(a + b/rho, 0, 1) alone,
with a quadratic variance in t whose constants are worked out exactly once
per model and rounded once, and kept as 0-d array operands: a dozen passes
over 1-d arrays, about 10 us for the 402 values of a Newton sweep on the
shipped grid, and 7 us written into the sweep's own buffers with no
weights formed (2-core x86-64 VM, numpy 2.4, best of repeated timings).
The active-set QP is the one simplex
minimizer (the field for n >= 3, the scalar oracle `solve_alpha`, the
slope bound); support enumeration is a test helper, `exhaustive_alpha` in
the tests' `oracles` module. The field runs the QP once per point. On a
working set the minimizing weights are affine in 1/rho, so each set's
bordered KKT system of n + 1 equations is solved once per model, for the
line g + h / rho, and kept in the model's instance dict. An interior point,
where every weight is positive, is then one evaluation of the full set's
line: five assets take about 6 us per interior point (14 us when each point
solved its system), spent in about six small numpy calls of 0.5-1.6 us each
that evaluate the line, test, clip and renormalize the weights (same
machine and timing). All operations are pure: the memo only caches what
the model's data fix.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

import numpy as np

from .model import (
    DRIFT_LOG_WEALTH,
    ModelError,
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
]

_ACTIVE_TOL = 1e-12      # weights below this count as zero
_KKT_TOL = 1e-10
_EPS = np.finfo(float).eps
# below tiny / eps (about 1e-292) the working-set solve is inaccurate (at
# rho = 2.2e-308 the QP cycled) and the quadratic term is below rounding, so
# the lowest vertex is the minimizer to rounding, as for rho <= 0. Above
# it the QP evaluates each working set's memoized line, about 1.5 us of the
# 6 us of a five-asset interior point, except below the line's own rounding
# floor (per working set, far above tiny / eps), where it solves the
# bordered system at rho
_RHO_TINY = np.finfo(float).tiny / _EPS
# above 1 / _RHO_TINY (about 1e292) rho Sigma may overflow, so the QP takes
# its multipliers and bordered solves from its problem divided by rho
_RHO_HUGE = 1.0 / _RHO_TINY


class AlphaEngineError(RuntimeError):
    """A minimization failed or an internal invariant broke, neither of which
    must occur for positive-definite covariance; a bad argument is a
    ModelError."""


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


def _bordered(sigma: np.ndarray, free: list, rho: float = 1.0) -> np.ndarray:
    """The bordered KKT matrix [rho Sigma_WW, 1; 1', 0] of the working set W
    = `free`, a list of distinct indices in increasing order."""
    k = len(free)
    kkt = np.ones((k + 1, k + 1))
    kkt[k, k] = 0.0
    np.multiply(rho, sigma[np.ix_(free, free)], out=kkt[:k, :k])
    return kkt


def _solve_working_set(rho: float, sigma: np.ndarray, mu: np.ndarray, free):
    """Equality-constrained minimizer on the working set at one rho: weights
    off `free` (distinct indices in increasing order) pinned at zero, sum of
    free weights equal to one. Returns (theta, lam).

    The QP takes it below a working set's rounding floor (see
    `_working_set_line`); the tests' support enumeration takes it
    everywhere, independently of the memoized lines."""
    f = list(free)
    k = len(f)
    sol = np.linalg.solve(_bordered(sigma, f, rho), np.append(mu[f], 1.0))
    theta = np.zeros(len(mu))
    theta[f] = sol[:k]
    return theta, float(sol[k])


def _working_set_line(sigma: np.ndarray, mu: np.ndarray, free):
    """The working-set minimizer as a line in 1/rho: (g, h, g_lam, h_lam,
    floor), with theta = g + h / rho and lam = rho * g_lam + h_lam at every
    rho > 0, from one solve of [Sigma_WW, 1; 1', 0] with the right-hand
    sides (0, 1) and (mu_W, 0). Weights off `free` are zero in g and h.

    The weights sum to one up to eps * |h|_1 / rho, so below floor =
    eps * |h|_1 / `_ACTIVE_TOL` the line would break the constraint by
    more than the QP's tolerance, and the QP solves at rho instead."""
    f = list(free)
    k = len(f)
    rhs = np.zeros((k + 1, 2))
    rhs[k, 0] = 1.0
    rhs[:k, 1] = mu[f]
    sol = np.linalg.solve(_bordered(sigma, f), rhs)
    g, h = np.zeros(len(mu)), np.zeros(len(mu))
    g[f], h[f] = sol[:k, 0], sol[:k, 1]
    floor = _EPS * float(np.abs(h).sum()) / _ACTIVE_TOL
    return g, h, float(sol[k, 0]), float(sol[k, 1]), floor


def _on_line(line, rho: float, w: float):
    """(theta, lam) of a working set's line at rho, lam for the problem
    whose quadratic term has weight w (rho, or 1 above `_RHO_HUGE`)."""
    g, h, g_lam, h_lam, _ = line
    return g + h / rho, w * (g_lam + h_lam / rho)


def _qp_lines(model: PortfolioModel) -> dict:
    """The memo of working-set lines of the model's own problem (mean
    model.mu), by working set, kept in its instance dict and filled as the
    QP reaches each set: the model is immutable. A problem with another
    mean takes a memo of its own."""
    # a frozen dataclass refuses setattr; its instance dict takes the memo
    return model.__dict__.setdefault("_qp_lines", {})


def _menu_lines(model: PortfolioModel):
    """(points, slopes, intercepts) of the lines rho -> intercept + rho * slope,
    one per menu fund or, for the simplex, per vertex. Their lower envelope is
    alpha without the inflow shift: on a menu for every rho, on the simplex
    for rho below `_RHO_TINY`, where the objective is concave or its
    quadratic term is below rounding."""
    pts = (model.decision_set.points if model.decision_set.kind == "discrete"
           else np.eye(model.n))
    return pts, 0.5 * model.variance(pts), -(pts @ model.mu)


@np.errstate(over="ignore")  # a line that overflows is above every finite one
def _lowest_line(model: PortfolioModel, rho):
    """Weights of the lowest line at rho, a scalar (shape (n,)) or a 1-d
    array (shape (N, n)); ties break to the lowest index."""
    pts, slopes, intercepts = _menu_lines(model)
    return pts[np.argmin(intercepts + np.multiply.outer(rho, slopes), axis=-1)]


def _active_set_qp(sigma: np.ndarray, mu: np.ndarray, rho: float,
                   lines: dict | None = None):
    """Minimize -mu'theta + (rho/2) theta'Sigma theta on the simplex, rho > 0.

    Primal active-set iteration starting from the uniform weight vector.
    Returns the weights theta, which satisfy the KKT conditions; a failure
    raises AlphaEngineError naming rho and n. Each working set's minimizer
    is affine in 1/rho: its line is solved once and kept in `lines`, the
    memo of this (sigma, mu) problem (`_qp_lines` for a model's own; a
    fresh one when None), and each later point on the set evaluates it.
    Above `_RHO_HUGE` the multipliers are those of the same problem divided
    by rho, with mean mu / rho and weight w = 1.
    """
    n = len(mu)
    if lines is None:
        lines = {}
    mu_w, w = (mu / rho, 1.0) if rho > _RHO_HUGE else (mu, rho)
    theta = None  # the uniform start, made when a step first needs it
    free = list(range(n))  # the working set, in increasing order
    for _ in range(50 * n + 50):
        key = tuple(free)
        line = lines.get(key)
        if line is None:
            line = lines[key] = _working_set_line(sigma, mu, free)
        if rho < line[4]:  # below the line's rounding floor
            cand, lam = _solve_working_set(w, sigma, mu_w, free)
        else:
            cand, lam = _on_line(line, rho, w)
        # the weights off the working set are 0, so the least weight is
        # the least free one wherever that is negative
        if cand.min() >= -_ACTIVE_TOL:
            theta = np.maximum(cand, 0.0)
            theta /= theta.sum()
            if len(free) == n:
                return theta
            bound = [i for i in range(n) if i not in free]
            mult = (w * (sigma @ theta) - mu_w)[bound] + lam
            j = int(np.argmin(mult))
            if mult[j] >= -_KKT_TOL:
                return theta
            insort(free, bound[j])
        else:
            if theta is None:
                theta = np.full(n, 1.0 / n)
            # step toward the candidate until a free weight hits zero
            d = cand - theta
            mask = [i for i in free if d[i] < -_ACTIVE_TOL]
            steps = [-theta[i] / d[i] for i in mask]
            t = min(1.0, min(steps))
            blocking = mask[int(np.argmin(steps))]
            theta = theta + t * d
            theta[blocking] = 0.0
            free.remove(blocking)
            if not free:  # cannot happen: the step keeps at least one weight
                raise AlphaEngineError(
                    f"active set emptied out at rho={rho!r}, n={n}")
    raise AlphaEngineError(
        f"active-set iteration did not converge at rho={rho!r}, n={n}")


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

    The weights come from `_weights`, the field's own dispatch: the lowest
    menu line on a menu, the active-set QP on the simplex (two assets
    included, so the oracle stays independent of the field's closed form),
    which raises AlphaEngineError if it does not converge, and the lowest
    vertex for rho below about 1e-292 (`_RHO_TINY`), where the objective is
    not convex or its quadratic term is below rounding.
    """
    rho = _phi_eff(model, phi)
    theta = _weights(model, np.array([rho], dtype=float))[0]
    return _result(model, x, rho, theta)


def kkt_residual(model: PortfolioModel, x: float, phi: float,
                 result: AlphaResult) -> float:
    """Independent optimality certificate: max violation over stationarity on
    the support, multiplier nonnegativity off it, and simplex feasibility."""
    theta = np.asarray(result.theta_hat)
    rho = _phi_eff(model, phi)
    viol = abs(theta.sum() - 1.0)
    viol = max(viol, float(-theta.min()) if theta.min() < 0 else 0.0)
    if model.decision_set.kind == "discrete" or rho < _RHO_TINY:
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
        # mean 0, not the model's: the QP takes a memo of its own
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
        # a piece may overflow far outside its interval, where another is used
        with np.errstate(over="ignore"):
            out = self.a_const - self.b_const / phi + self.c_const * phi
            if self.phi_lo > 0 and not np.isnan(self.e_minus):
                out = np.where(phi <= self.phi_lo,
                               self.e_minus * phi + self.d_minus, out)
            if np.isfinite(self.phi_hi):
                out = np.where(phi >= self.phi_hi,
                               self.e_plus * phi + self.d_plus, out)
        return out if out.ndim else float(out)


def _n2_constants(model: PortfolioModel):
    """(a, b, q/2, det(Sigma)/(2q), mu1 - mu2, mu2) of two assets on the
    simplex: the interior first weight is a + b / rho, with
    q = S11 - 2 S12 + S22 the variance of the direction (1, -1), and half
    the variance at first weight t is (q/2) (t - a)^2 + det(Sigma)/(2q).
    Each constant is worked out exactly from the float data and rounded
    once, so nearly collinear assets, where q cancels, keep full precision.
    Derived once per model and kept in its instance dict: the model is
    immutable."""
    consts = model.__dict__.get("_n2_constants")
    if consts is not None:
        return consts
    # imported here, as only a new model needs it: fractions loads decimal,
    # a few ms of every start-up otherwise
    from fractions import Fraction
    (s11, s12), (_, s22) = (map(Fraction, row) for row in model.sigma.tolist())
    mu1, mu2 = map(Fraction, model.mu.tolist())
    q = s11 - 2 * s12 + s22
    if q <= 0:
        raise AlphaEngineError("degenerate covariance: S11 - 2 S12 + S22 <= 0")
    consts = tuple(float(c) for c in (
        (s22 - s12) / q,                  # asymptotic (minimum-variance) weight
        (mu1 - mu2) / q,
        q / 2,
        (s11 * s22 - s12 * s12) / (2 * q),
        mu1 - mu2,
        mu2))
    # a frozen dataclass refuses setattr; its instance dict takes the memo
    model.__dict__["_n2_constants"] = consts
    return consts


# 0 and 1 as 0-d arrays (see `_n2_operands`), the bounds of the first weight
_ZERO, _ONE = np.array(0.0), np.array(1.0)


def _n2_operands(model: PortfolioModel):
    """`_n2_constants` as 0-d float arrays, the form `_fill` passes to its
    ufuncs: they take a 0-d array about 0.2 us faster than a Python float,
    which they convert on every call, and compute the same bits. Made once
    per model and kept in its instance dict beside the constants."""
    ops = model.__dict__.get("_n2_operands")
    if ops is None:
        ops = tuple(map(np.array, _n2_constants(model)))
        model.__dict__["_n2_operands"] = ops
    return ops


def closed_form_n2(model: PortfolioModel) -> ClosedFormN2:
    """Derive the two-asset piecewise coefficients from the interior KKT
    solution theta1(phi) = ((mu1-mu2)/phi + S22 - S12) / (S11 - 2 S12 + S22).

    Requires the plain drift convention (no inflow) so alpha depends on x
    through nothing and on phi alone.
    """
    if model.n != 2 or model.decision_set.kind != "simplex":
        raise ModelError("closed form needs a 2-asset simplex model")
    if model.drift_mode == DRIFT_LOG_WEALTH or model.inflow is not None:
        raise ModelError("closed form needs the simple drift convention")
    a, b, half_q, c_const, m, mu2 = _n2_constants(model)
    a_const = -mu2 - m * a
    b_const = 0.5 * m * m / (2.0 * half_q)

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

    # t = a + b / phi clips below phi_lo to the first vertex (t = 1) when
    # b > 0, or b = 0 and a >= 1, else to the second; above phi_hi to the
    # other one. The objective is strictly convex in t, so the clipped
    # vertex is the minimizer there
    _, slopes, intercepts = _menu_lines(model)
    low = 0 if b > 0 or (b == 0 and a >= 1.0) else 1
    e_minus = d_minus = e_plus = d_plus = np.nan
    # phi_lo = inf is the empty interior: the low vertex fills the whole axis
    if phi_lo > 0:
        e_minus, d_minus = float(slopes[low]), float(intercepts[low])
    if np.isfinite(phi_hi):
        e_plus, d_plus = float(slopes[1 - low]), float(intercepts[1 - low])
    return ClosedFormN2(a_const, b_const, c_const, float(phi_lo), float(phi_hi),
                        e_minus, d_minus, e_plus, d_plus)


# --- vectorized evaluation and weight paths ---------------------------------

def weights_path(model: PortfolioModel, phi_grid):
    """Tabulate (phi, theta_hat, alpha, dalpha_dphi) along an increasing phi
    grid. Within one active set the weights are affine in 1/phi."""
    phi_grid = np.asarray(phi_grid, dtype=float)
    if phi_grid.ndim != 1 or np.any(np.diff(phi_grid) <= 0) or phi_grid[0] <= 0:
        raise ModelError("phi grid must be strictly increasing and positive")
    alpha, dalpha, theta = alpha_field(model, 0.0, phi_grid)
    return {"phi": phi_grid, "theta": theta, "alpha": alpha, "dalpha_dphi": dalpha}


def _convex_mask(rho: np.ndarray):
    """None when every rho is convex (at least `_RHO_TINY`), the common
    case, else the mask of the convex rho."""
    return (None if np.minimum.reduce(rho, initial=np.inf) >= _RHO_TINY
            else rho >= _RHO_TINY)


def _weights(model: PortfolioModel, rho: np.ndarray) -> np.ndarray:
    """Exact minimizing weights at each effective weight rho, shape (N, n):
    the lowest fund line on a menu, the per-point QP on the simplex, and the
    lowest vertex wherever rho is below `_RHO_TINY` (nan included). The one
    dispatch of the field (menus, n >= 3) and of `solve_alpha`."""
    if model.decision_set.kind == "discrete":
        return _lowest_line(model, rho)
    convex = _convex_mask(rho)
    theta = np.empty((rho.size, model.n))
    sigma, mu, rhos = model.sigma, model.mu, rho.tolist()
    lines = _qp_lines(model)
    for k in (range(rho.size) if convex is None
              else np.flatnonzero(convex).tolist()):
        theta[k] = _active_set_qp(sigma, mu, rhos[k], lines)
    if convex is not None:
        theta[~convex] = _lowest_line(model, rho[~convex])
    return theta


def _n2_first_weight(model: PortfolioModel, rho: np.ndarray, a, b,
                     t: np.ndarray) -> np.ndarray:
    """Write the minimizing first weight of two assets on the simplex at
    each rho into t, and return t: the interior line a + b / rho clipped to
    [0, 1], and the lowest vertex (t = 1 or 0) wherever rho is below
    `_RHO_TINY`."""
    convex = _convex_mask(rho)
    if convex is None:
        np.divide(b, rho, out=t)
    else:
        # rho = 0 or a tiny rho gives inf or nan here: replaced by a vertex
        # below
        with np.errstate(all="ignore"):
            np.divide(b, rho, out=t)
    t += a
    np.minimum(t, _ONE, out=t)
    np.maximum(t, _ZERO, out=t)
    if convex is not None:
        t[~convex] = _lowest_line(model, rho[~convex])[:, 0]
    return t


def _fill(model: PortfolioModel, rho: np.ndarray, alpha: np.ndarray,
          slope: np.ndarray, weights: bool):
    """Write alpha without the inflow shift into `alpha` and its phi-slope
    into `slope` at each effective weight rho, a 1-d array of their size
    that overlaps neither: each kind writes the mean theta'mu and half the
    variance, which meets rho only once halved, and one line forms alpha.
    Returns the (N, n) minimizing weights if `weights`, else None; one and
    two assets then form no weights."""
    theta = None
    if model.decision_set.kind == "discrete" or model.n > 2:
        theta = _weights(model, rho)
        # row sums as a product with ones cost a fraction of sum(axis=1),
        # and ndarray.dot less than @ on arrays this small
        (theta.dot(model.sigma) * theta).dot(np.ones(model.n), out=slope)
        slope *= 0.5
        theta.dot(model.mu, out=alpha)
    elif model.n == 1:
        slope.fill(0.5 * model.sigma[0, 0])
        alpha.fill(model.mu[0])
        if weights:
            theta = np.ones((rho.size, 1))
    else:
        a, b, half_q, half_c, m, mu2 = _n2_operands(model)
        # the weights are filled by rows, which is cheaper than by columns,
        # and returned as the transposed view; without them the first
        # weight t lives in alpha until the mean overwrites it
        rows = np.empty((2, rho.size)) if weights else None
        t = _n2_first_weight(model, rho, a, b,
                             alpha if rows is None else rows[0])
        if weights:
            np.subtract(1.0, t, out=rows[1])
            theta = rows.T
        # half the variance, (q/2) (t - a)^2 + det(Sigma) / (2 q)
        np.subtract(t, a, out=slope)
        np.square(slope, out=slope)
        slope *= half_q
        slope += half_c
        np.multiply(t, m, out=alpha)
        alpha += mu2
    np.subtract(rho * slope, alpha, out=alpha)
    return theta if weights else None


def alpha_field(model: PortfolioModel, x, phi, out=None, inflow_term=None):
    """Vectorized (alpha, dalpha_dphi, theta) over broadcastable (x, phi)
    arrays; theta carries a trailing axis of length n.

    The weights are the exact minimizers at rho; alpha = -theta'mu +
    (rho/2) theta'Sigma theta - inflow(x), and its phi-slope is
    theta'Sigma theta / 2 by the envelope theorem. One asset has the
    variance S11; two assets on the simplex are written in the first
    weight t alone, with mean mu2 + (mu1 - mu2) t and variance
    q (t - a)^2 + det(Sigma) / q, so that evaluation is a handful of passes
    over 1-d arrays. The allocating form converts and broadcasts x and phi
    and runs the same formulas on flat views of two arrays of phi's shape.

    With out=(alpha, slope), two 1-d float arrays, x and phi must be 1-d
    float arrays of their size that overlap neither. alpha and its slope
    are then written into them, bitwise as the allocating form computes
    them, with no conversion, broadcasting or reshaping of the inputs, and
    (alpha, slope, None) is returned: no weights are formed for them,
    except inside the per-point QP of three or more assets and on a menu.
    The Newton sweep evaluates alpha so, in buffers it keeps per run.

    inflow_term, when given, is model.inflow.term(x), which a caller that
    evaluates alpha at the same x many times works out once: it is
    subtracted instead of being recomputed. The sweep passes the term at
    its ghost-extended cell centers, made once per run.
    """
    if out is None:
        x = np.asarray(x, dtype=float)
        phi = np.asarray(phi, dtype=float)
        if x.shape != phi.shape:
            x, phi = np.broadcast_arrays(x, phi)
        # separate arrays: a caller that drops the slope frees it at once
        alpha, slope = np.empty(phi.shape), np.empty(phi.shape)
        theta = _fill(model, _phi_eff(model, phi.ravel()), alpha.ravel(),
                      slope.ravel(), True).reshape(phi.shape + (model.n,))
    else:
        alpha, slope = out
        theta = _fill(model, _phi_eff(model, phi), alpha, slope, False)
    if model.inflow is not None:
        alpha -= model.inflow.term(x) if inflow_term is None else inflow_term
    return alpha, slope, theta
