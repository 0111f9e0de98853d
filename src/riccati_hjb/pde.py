"""Implicit finite-volume integrator for the transformed risk-aversion PDE

    d_tau phi - d_xx alpha(x, phi) = - d_x ( w(alpha(x, phi)) phi )

on a truncated 1-d domain. Time stepping is implicit Euler; each step runs
Newton sweeps on the exact nonlinear step residual. A sweep linearizes alpha
around the previous iterate with its exact envelope slope and each advective
face flux w(alpha) phi through both the face velocity and the upwinded value
(upwind choice frozen), then solves one tridiagonal system for the
correction. The sweeps stop once the correction is below the tolerance, so
the converged iterate satisfies the fully implicit nonlinear step.

Most steps of a smooth run converge in their first sweep, whose
correction is then near rounding, so a one-sweep step hands the LU factors
of its Jacobian on and the next step's first sweep solves with them
(simplified Newton across steps, as stiff integrators keep their Newton
matrix): that sweep forms the residual only. Every sweep applies its
correction, and one that misses the unchanged stop rule drops the factors
it used, so the next sweep factors its own: a missed stored-factor sweep
is a chord step, and a step takes at most picard_max sweeps in all. A step
of more than one sweep hands no factors on; where no step converges in one
sweep, as on the five-asset inflow runs, stored factors would only add
sweeps. A Jacobian changes the path to the step, not the step, so a step
on stored factors agrees with a fresh one to the sweep tolerance.

`solve` starts each step's sweeps from the extrapolation in time through
the last L = min(k + 1, 8) levels, the predictor of Adams and BDF codes:
the value at the next step of the polynomial through them, one product of
the levels with a row of signed binomials (phi_0 at step 0, 2 phi_1 -
phi_0 at step 1). It is the whole Newton backward series; cutting the
series before its smallest term cost sweeps on the shipped and benchmark
runs. The start does not enter the stop rule, so the converged step agrees
with any other start to the sweep tolerance. The tridiagonal system goes
straight to LAPACK gttrf and gttrs, which factor and solve it bitwise as
gtsv, the routine behind scipy's banded solver for one band on each side,
does in one call, without the wrapper's validation and band-matrix
packing; `_lapack` loads them from scipy's LAPACK extension without the
package init of `scipy.linalg`. A sweep is bound by numpy's per-call
overhead on arrays of n + 2 values, so it works in buffers kept per run:
`alpha_field` writes alpha and its slope into two of them (its `out=` form,
which forms no weights) and subtracts the inflow term at the ghost-extended
centers, worked out once per run; the face and band views of the buffers
are made once per run, and the check for a non-finite correction is left to
the max |delta| of the stop rule, which is nan or inf exactly when delta
has such an entry. The start of a step is written straight into its row of
the solution, where the Newton update is applied in place. The part of the
step residual that no sweep changes, phi_prev / dtau plus the manufactured
source, is formed once per step. A sweep refills the run's ghost-extended
buffer of phi, takes the range of alpha over it once (the clamp test reads
it, and the step diagnostics keep the range of the last sweep), and builds
the couplings of the Newton system in their -1/dx-scaled form directly:
1/dx and 1/dx^2 are folded into the scaling of the face velocity and the
alpha slope, and the diagonal is built from the couplings. On the shipped
two-asset upwind run (402 values) a sweep that factors its Jacobian takes
about 41 us and one on the stored factors about 27 us on a 2-core x86-64 VM
(Python 3.11, numpy 2.4, best of repeated timings); `alpha_field` takes
about 9 us of either, and gttrf and gttrs about 6 us each.

w clamps alpha to +-M e^{lambda T} with the paper's a-priori level
M = max |alpha(x, phi0)|; on bounded runs it never activates and the scheme
integrates the unclipped equation. `solve` works out M, lambda and T once
per run and the solution carries them, for `cutoff_excess` and the
a-priori checks to read; the clamp and the maximum principle grow their
levels by one rule, `_grown`, which keeps a level of 0 at 0.
The convergence-order check `mms_convergence_study` runs one fixed
manufactured problem and takes no settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._lapack import dgttrf, dgttrs
from .alpha import alpha_field
from .model import (DecisionSet, ModelError, PortfolioModel, SpatialGrid,
                    TabulatedPhi0, UtilitySpec, phi0_profile)

__all__ = [
    "SolverError",
    "PDEConfig",
    "CutoffBounds",
    "StepDiagnostics",
    "SolutionField",
    "lambda_bound",
    "solve",
    "singleton_mms",
    "mms_convergence_study",
]


class SolverError(RuntimeError):
    """A step of a valid run failed at the tau its message names: a singular
    system, a non-finite update or a stall above picard_tol. Exit 3."""


@dataclass(frozen=True)
class PDEConfig:
    """Discretization and inner-iteration controls for one run. dirichlet
    holds the (left, right) wall values, None selects the mirror boundary."""

    grid: SpatialGrid
    t_final: float
    n_steps: int
    picard_tol: float = 1e-10
    picard_max: int = 100
    mms_source: Callable | None = None
    dirichlet: tuple | None = None
    upwind: bool = False

    def __post_init__(self):
        if self.t_final <= 0:
            raise ModelError(f"t_final must be positive, got {self.t_final}")
        if self.n_steps < 1:
            raise ModelError(f"need n_steps >= 1, got {self.n_steps}")
        # the step scales by 1/dtau, which a subnormal dtau overflows
        if not (0.0 < self.dtau < math.inf and math.isfinite(1.0 / self.dtau)):
            raise ModelError(f"time step t_final / n_steps = {self.dtau:.3e}"
                              f" is out of range: 1/dtau is not finite")
        if self.picard_tol <= 0:
            raise ModelError("picard_tol must be positive")
        if self.picard_max < 1:
            raise ModelError(f"need picard_max >= 1, got {self.picard_max}")
        if self.dirichlet is not None and len(self.dirichlet) != 2:
            raise ModelError(f"dirichlet must be None or a (left, right) "
                              f"pair, got {self.dirichlet!r}")
        # the ghost of a wall at g holds 2 g minus the edge value
        for g in self.dirichlet or ():
            if not math.isfinite(2.0 * g):
                raise ModelError(f"dirichlet wall value {g!r} is out of "
                                  f"range: its ghost value 2 g must be finite")

    @property
    def dtau(self) -> float:
        return self.t_final / self.n_steps


def _grown(level, lam, horizon):
    """The a-priori bound level e^{lam horizon}, elementwise over an array
    horizon: 0 for a zero level, where 0 inf would be nan, and +-inf where
    the product overflows."""
    with np.errstate(over="ignore"):  # an overflow is the bound +-inf
        growth = np.exp(lam * np.asarray(horizon, dtype=float))
        return level * growth if level else np.zeros_like(growth)


@dataclass(frozen=True)
class CutoffBounds:
    """A run's a-priori constants: the level m, the growth rate lam and the
    horizon, which give the clamp levels +-m e^{lam * horizon}; a zero
    level stays 0 where e^{lam * horizon} overflows."""

    m: float
    lam: float
    horizon: float

    @property
    def lower(self) -> float:
        return -self.upper

    @property
    def upper(self) -> float:
        return float(_grown(self.m, self.lam, self.horizon))


@dataclass(frozen=True)
class StepDiagnostics:
    """One step's Newton record: its sweeps, the Jacobians it factored
    (one fewer than its sweeps when its first sweep solved with stored
    factors), the last correction, the range of alpha and the linearized
    wall fluxes of the last sweep and the integral of the source."""

    picard_iterations: int
    jacobians: int
    residual: float
    alpha_min: float
    alpha_max: float
    flux_left: float
    flux_right: float
    source_integral: float = 0.0


@dataclass(frozen=True)
class SolutionField:
    """phi on the space-time grid plus per-step solver diagnostics and the
    run's a-priori constants, which give its clamp range."""

    phi: np.ndarray                 # (n_steps+1, n_cells)
    tau_values: np.ndarray
    grid: SpatialGrid
    diagnostics: tuple
    bounds: CutoffBounds

    def __post_init__(self):
        for name in ("phi", "tau_values"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def t_final(self) -> float:
        return float(self.tau_values[-1])

    @property
    def cutoff_excess(self) -> float:
        """Worst amount by which the unclamped alpha left the clamp range at
        the last sweep of a step, over all steps and cells, the two ghost
        values included; 0 means the converged steps did not engage the
        clamp."""
        lo, hi = self.bounds.lower, self.bounds.upper
        worst = 0.0
        for d in self.diagnostics:
            worst = max(worst, lo - d.alpha_min, d.alpha_max - hi)
        return max(0.0, worst)


def lambda_bound(model: PortfolioModel) -> float:
    """sup over x of p(x) = max over theta of |d mu/dx|: 0 without inflow,
    else the sup over y = e^x of |eps'(y) - eps(y)/y|, worked out exactly.
    It is 0 below the ramp and |eps_rate|/y beyond it. On the ramp, with
    t = (y - y_minus)/(y_plus - y_minus) and s = y_minus/(y_plus - y_minus),
    y^2 times its y-derivative is proportional to
    -8t^3 + (3 - 18s)t^2 + (6s - 12s^2)t + 6s^2, so the sup is at t = 0,
    t = 1 (y_plus) or a real root in [0, 1]; the clipped real parts of all
    three roots are points of the ramp, so the extra ones do no harm."""
    inflow = model.inflow
    if inflow is None:
        return 0.0
    width = inflow.y_plus - inflow.y_minus
    s = inflow.y_minus / width
    roots = np.roots([-8.0, 3.0 - 18.0 * s, 6.0 * s - 12.0 * s * s,
                      6.0 * s * s])
    t = np.clip(np.concatenate([[0.0, 1.0], roots.real]), 0.0, 1.0)
    y = inflow.y_minus + t * width
    return float(np.max(np.abs(inflow.epsilon_prime(y)
                               - inflow.epsilon(y) / y)))


class _Geometry:
    """Per-run constants of the sweep, built once per solve: cell centers,
    the ghost-extended x and the inflow term there (None without inflow),
    the boundary map ghost = offset + sign * edge value
    (mirror: 0 + 1 * phi; Dirichlet g: 2g - phi), the reciprocals of the cell
    width, its square and the time step, and the clamp range of the
    advective coefficient; plus the run's buffers, which every sweep
    refills: the ghost-extended phi, alpha and its slope and a per-cell
    value (n + 2 each), three per-face values (n + 1) and the diagonal and
    right-hand side of the Newton system (n). The fixed views of the
    buffers that a sweep reads are made here once: the (left, right) face
    views [:-1] and [1:] of each n + 2 buffer and of the face flux, the
    interior bands [1:-1] of the two couplings and the parts [1:] and [:-1]
    of them that the diagonal sums."""

    __slots__ = ("dx", "inv_dx", "inv_dx2", "inv_dtau", "centers", "xe",
                 "inflow_term", "sign", "offsets", "clamp", "_pe",
                 "_pe_cells", "alpha", "slope", "cell", "face", "lower",
                 "upper", "diag", "rhs", "pe_faces", "alpha_faces",
                 "slope_faces", "cell_faces", "flux_faces", "bands",
                 "diag_parts")

    def __init__(self, model: PortfolioModel, config: PDEConfig,
                 cutoff: CutoffBounds):
        grid = config.grid
        n, self.dx = grid.n_cells, grid.dx
        self.inv_dx, self.inv_dtau = 1.0 / grid.dx, 1.0 / config.dtau
        self.inv_dx2 = self.inv_dx * self.inv_dx
        self.centers = grid.centers
        self.xe = np.concatenate([[self.centers[0] - self.dx], self.centers,
                                  [self.centers[-1] + self.dx]])
        self.inflow_term = (None if model.inflow is None
                            else model.inflow.term(self.xe))
        if config.dirichlet is None:
            self.sign, self.offsets = 1.0, (0.0, 0.0)
        else:
            gl, gr = config.dirichlet
            self.sign, self.offsets = -1.0, (2.0 * gl, 2.0 * gr)
        self.clamp = (cutoff.lower, cutoff.upper)
        self._pe, self.alpha, self.slope, self.cell = np.empty((4, n + 2))
        self._pe_cells = self._pe[1:-1]
        self.face, self.lower, self.upper = np.empty((3, n + 1))
        self.diag, self.rhs = np.empty((2, n))
        self.pe_faces, self.alpha_faces, self.slope_faces, self.cell_faces, \
            self.flux_faces = ((v[:-1], v[1:]) for v in (
                self._pe, self.alpha, self.slope, self.cell, self.face))
        self.bands = (self.lower[1:-1], self.upper[1:-1])
        self.diag_parts = (self.lower[1:], self.upper[:-1])

    def extend(self, values):
        """values with ghost values attached per the boundary condition, in
        the run's buffer: the next call overwrites it."""
        out = self._pe
        self._pe_cells[...] = values
        out[0] = self.offsets[0] + self.sign * float(values[0])
        out[-1] = self.offsets[1] + self.sign * float(values[-1])
        return out


def factor_banded(lower, diag, upper):
    """The LU factors, with partial pivoting, of the tridiagonal matrix with
    sub-, main and super-diagonals (lower, diag, upper) by LAPACK gttrf, in
    new arrays: the bands are kept. Raises LinAlgError on a zero pivot."""
    *factors, info = dgttrf(lower, diag, upper)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return factors


# scipy's name is kept: perfbench's traced run wraps pde.solve_banded
def solve_banded(factors, rhs):
    """Solve the tridiagonal system of `factor_banded`'s factors by LAPACK
    gttrs, in place of rhs. Factor and solve are bitwise the one-call gtsv,
    the routine behind scipy's banded solver for one band on each side.
    rhs is written even when it is read-only: f2py's overwrite flag does
    not check the writeable flag."""
    return dgttrs(*factors, rhs, "N", True)[0]


def _fixed_residual(config, geom, phi_prev, tau_next):
    """The part of the step residual that no sweep changes, phi_prev / dtau
    plus the manufactured source at tau_next, and the source's integral."""
    fixed = phi_prev * geom.inv_dtau
    if config.mms_source is None:
        return fixed, 0.0
    src = np.asarray(config.mms_source(geom.centers, tau_next), dtype=float)
    fixed += src
    return fixed, float(np.sum(src) * geom.dx)


def _sweep(model, config, geom, fixed, phi_iter, tau_next, jacobian=None):
    """One Newton sweep: solve the linearized step for the correction.

    The step residual at phi_iter is d_x G - phi_iter / dtau + fixed, with
    G the total face flux (alpha gradient minus advective flux) and fixed
    the step's `_fixed_residual`. Its Jacobian linearizes alpha with the
    envelope slope and each advective face flux v * phi_upwind through both
    the upwinded value and the face velocity, with the upwind choice
    frozen. The clamp of the advective coefficient passes the slope on
    where lower <= alpha <= upper and 0 outside. A given `jacobian`, the
    one an earlier sweep returned, is solved with instead: the sweep then
    forms the residual only.

    Returns (delta, alpha_range, fluxes, jacobian) with phi_iter + delta
    the new iterate (delta lives in the run's buffer, which the next sweep
    overwrites), alpha_range the (min, max) of alpha at phi_iter over the
    cells and the two ghost values, the values the clamp acts on, fluxes
    the linearized total face fluxes at the two domain ends, so the
    discrete balance
    sum(u - phi_prev) dx = dtau (G_right - G_left + integral of source)
    holds to solver precision, and jacobian the (LU factors, end terms) of
    the system solved: the end terms are the two wall flux derivatives by
    the edge corrections, so the fluxes come from the matrix solved.
    """
    h, inv_dx2, sign = 0.5 * geom.inv_dx, geom.inv_dx2, geom.sign
    pe = geom.extend(phi_iter)
    ae, se, _ = alpha_field(model, geom.xe, pe, out=(geom.alpha, geom.slope),
                            inflow_term=geom.inflow_term)
    alpha_range = (float(ae.min()), float(ae.max()))
    lo, hi = geom.clamp
    if lo <= alpha_range[0] and alpha_range[1] <= hi:
        wc, dw = ae, se
        (wc_l, wc_r), (dw_l, dw_r) = geom.alpha_faces, geom.slope_faces
    else:
        wc = np.clip(ae, lo, hi)
        dw = np.where((ae >= lo) & (ae <= hi), se, 0.0)
        wc_l, wc_r, dw_l, dw_r = wc[:-1], wc[1:], dw[:-1], dw[1:]

    # Everything below is in units of 1/dx. For the face j+1/2 between
    # extended cells j and j+1, j = 0..n, flux holds G / dx, with G the
    # total face flux: alpha gradient (alpha_{j+1} - alpha_j) / dx minus
    # advective flux. The couplings of the Newton system are
    # c_left = dG/dphi_j / dx and c_right = -dG/dphi_{j+1} / dx: row i
    # couples delta_{i-1} by c_left[i] and delta_{i+1} by c_right[i + 1].
    # Each is -se / dx^2 from the alpha gradient, minus (c_left) or plus
    # (c_right) the derivative of the advective flux over dx, which
    # adv_left and adv_right hold; the two coupling buffers serve as scratch
    # until then.
    a_l, a_r = geom.alpha_faces
    flux = np.subtract(a_r, a_l, out=geom.face)
    flux *= inv_dx2
    c_left, c_right = geom.lower, geom.upper
    if config.upwind:
        # face velocity over dx, upwinded from the left (>= 0) or the right
        pe_l, pe_r = geom.pe_faces
        vel = np.add(wc_l, wc_r, out=c_right)
        vel *= h
        pu = np.where(vel >= 0.0, pe_l, pe_r)
        flux -= np.multiply(vel, pu, out=c_left)
    else:
        q = np.multiply(wc, pe, out=geom.cell)
        q_l, q_r = geom.cell_faces
        adv = np.add(q_l, q_r, out=c_left)
        adv *= h
        flux -= adv

    f_l, f_r = geom.flux_faces
    rhs = np.subtract(f_r, f_l, out=geom.rhs)
    rhs += fixed
    # the diagonal's buffer holds phi_iter / dtau until it is built
    rhs -= np.multiply(phi_iter, geom.inv_dtau, out=geom.diag)

    if jacobian is None:
        if config.upwind:
            # the parts of the face velocity upwinded from the left and
            # the right
            v_left = np.maximum(vel, 0.0)
            adv_right = np.subtract(vel, v_left, out=vel)
            pu *= h     # the face velocity takes half of each alpha slope
            adv_left = np.multiply(dw_l, pu, out=c_left)
            adv_left += v_left
            pu *= dw_r
            adv_right += pu
        else:
            g = np.multiply(dw, pe, out=geom.cell)
            g += wc
            g *= h
            adv_left, adv_right = geom.cell_faces
        se *= -inv_dx2      # se (and dw) are not read again
        s_l, s_r = geom.slope_faces
        np.subtract(s_l, adv_left, out=c_left)
        np.add(s_r, adv_right, out=c_right)
        jacobian = _factor_newton(geom, tau_next)

    lu, (end_left, end_right) = jacobian
    delta = solve_banded(lu, rhs)
    dx = geom.dx
    g_left = dx * (float(flux[0]) - end_left * float(delta[0]))
    g_right = dx * (float(flux[-1]) + end_right * float(delta[-1]))
    return delta, alpha_range, (g_left, g_right), jacobian


def _factor_newton(geom, tau_next):
    """The (LU factors, end terms) of the Newton system whose couplings the
    sweep left in the run's buffers; the diagonal is built from them."""
    c_left, c_right, sign = geom.lower, geom.upper, geom.sign
    # the diagonal of row i is 1/dtau - c_left[i+1] - c_right[i]
    diag = np.add(*geom.diag_parts, out=geom.diag)
    np.subtract(geom.inv_dtau, diag, out=diag)
    # fold the ghost corrections (sign * edge correction) into the end rows
    cl0, cln = float(c_left[0]), float(c_left[-1])
    cr0, crn = float(c_right[0]), float(c_right[-1])
    diag[0] += sign * cl0
    diag[-1] += sign * crn
    band_l, band_r = geom.bands
    try:
        lu = factor_banded(band_l, diag, band_r)
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            f"tridiagonal solve failed at tau={tau_next:.6g}: {exc}; "
            f"diag range [{diag.min():.3e}, {diag.max():.3e}]"
        ) from None
    return lu, (cr0 - sign * cl0, cln - sign * crn)


def _advance(model, config, geom, phi_prev, phi_iter, tau_next, step_index,
             jacobian=None):
    """Newton sweeps of one implicit step from phi_prev, starting at
    phi_iter, which they update in place to the step's solution.

    At most picard_max sweeps, each applying its correction. The first
    solves with the given `jacobian`, the stored factors of an earlier step
    (simplified Newton), when there is one; a correction that misses the
    tolerance drops the factors, so the next sweep factors its own. Returns
    the step's diagnostics and the jacobian to store: that of its sweep
    when the step took one, else None."""
    fixed, src_int = _fixed_residual(config, geom, phi_prev, tau_next)
    factored = 0
    for it in range(1, config.picard_max + 1):
        factored += jacobian is None
        delta, alpha_range, fluxes, jacobian = _sweep(model, config, geom,
                                                      fixed, phi_iter,
                                                      tau_next, jacobian)
        phi_iter += delta
        # nan or inf in delta makes its max |delta| nan or inf
        residual = float(np.abs(delta, out=delta).max())
        if not math.isfinite(residual):
            raise SolverError(f"non-finite update at tau={tau_next:.6g}")
        if residual <= config.picard_tol:
            d = StepDiagnostics(it, factored, residual, *alpha_range,
                                *fluxes, src_int)
            return d, (jacobian if it == 1 else None)
        jacobian = None
    raise SolverError(f"Newton sweeps stalled at tau={tau_next:.6g} (step "
                      f"{step_index}): correction {residual:.3e} > tol "
                      f"{config.picard_tol:.3e}")


_PREDICTOR_LEVELS = 8  # most stored levels the start of a step reads
# _EXTRAPOLATE[L] takes L levels phi_{k+1-L..k}, oldest first, to the value
# at k + 1 of the polynomial through them: (-1)^(L-1-i) C(L, i) at level i,
# integers and so exact
_EXTRAPOLATE = {n: np.array([(-1) ** (n - 1 - i) * math.comb(n, i)
                             for i in range(n)], dtype=float)
                for n in range(1, _PREDICTOR_LEVELS + 1)}


def _predict(phi, k):
    """Start of step k, written into phi[k + 1] and returned: the value at
    k + 1 of the polynomial through the last L = min(k + 1,
    _PREDICTOR_LEVELS) levels phi[k + 1 - L..k], as one product. The first
    steps start from phi_0, 2 phi_1 - phi_0, and so on."""
    n = min(k + 1, _PREDICTOR_LEVELS)
    return np.dot(_EXTRAPOLATE[n], phi[k + 1 - n:k + 1], out=phi[k + 1])


def _resolve_cutoff(model, config, phi0):
    """The run's M, lambda and T: M = max |alpha(x, phi0)|, the smallest
    level the a-priori bound allows; lambda = sup p(x); T = t_final."""
    a0, _, _ = alpha_field(model, config.grid.centers, phi0)
    return CutoffBounds(m=float(np.max(np.abs(a0))),
                        lam=lambda_bound(model),
                        horizon=config.t_final)


def solve(model: PortfolioModel, utility: UtilitySpec,
          config: PDEConfig) -> SolutionField:
    """Integrate the Cauchy problem from phi0 = -u''/u' to t_final."""
    grid = config.grid
    phi0 = phi0_profile(utility, grid)
    bounds = _resolve_cutoff(model, config, phi0)
    geom = _Geometry(model, config, bounds)

    tau = np.linspace(0.0, config.t_final, config.n_steps + 1)
    phi = np.empty((config.n_steps + 1, grid.n_cells))
    phi[0] = phi0
    diags, jacobian = [], None
    # a sweep that overflows ends in the non-finite update SolverError
    with np.errstate(over="ignore", invalid="ignore"):
        for k, tau_next in enumerate(tau[1:].tolist()):
            d, jacobian = _advance(model, config, geom, phi[k],
                                   _predict(phi, k), tau_next, k, jacobian)
            diags.append(d)
    return SolutionField(phi=phi, tau_values=tau, grid=grid,
                         diagnostics=tuple(diags), bounds=bounds)


# --- manufactured-solution verification -------------------------------------

# The one manufactured problem. Its source term holds for one asset under
# the simple drift, where alpha = -m + (s^2/2) phi; on another model the
# orders would be meaningless.
_MMS_MODEL = PortfolioModel(np.array([0.06]), np.array([[0.04]]),
                            DecisionSet.simplex(1))
_MMS_X_MAX, _MMS_T_FINAL = 4.0, 1.0   # domain [-4, 4], horizon
# (n_cells, n_steps) of each run: the spatial ladder refines dtau as dx^2,
# so the first-order time error falls with the second-order space error;
# the temporal ladder keeps a fine mesh
_MMS_SPATIAL = ((50, 25), (100, 100), (200, 400))
_MMS_TEMPORAL = ((240, 5), (240, 10), (240, 20))


def singleton_mms(grid: SpatialGrid):
    """The manufactured problem on a symmetric grid: exact solution
    e^{-tau} cos(pi x / x_max), which satisfies the discrete mirror boundary
    condition exactly, for the one-asset model m = 0.06, s^2 = 0.04.

    Returns (phi0_values, source, exact) with source(x, tau) the forcing that
    makes the exact field solve the PDE, valid while the clamp stays inactive.
    """
    if abs(grid.x_min + grid.x_max) > 1e-12:
        raise ModelError("manufactured problem expects a symmetric domain")
    m = float(_MMS_MODEL.mu[0])
    s2 = float(_MMS_MODEL.sigma[0, 0])
    k = np.pi / grid.x_max

    def exact(x, tau):
        return np.exp(-tau) * np.cos(k * np.asarray(x, dtype=float))

    def source(x, tau):
        x = np.asarray(x, dtype=float)
        ph = exact(x, tau)
        dph = -k * np.exp(-tau) * np.sin(k * x)
        return -ph + 0.5 * s2 * k * k * ph + (s2 * ph - m) * dph

    return exact(grid.centers, 0.0), source, exact


def _observed_orders(errors):
    e = np.asarray(errors, dtype=float)
    return [float(v) for v in np.log2(e[:-1] / e[1:])]


def _mms_table(runs):
    """Max errors at the horizon of the manufactured runs (n_cells, n_steps)
    in `runs` and the observed orders."""
    table = {"n_cells": [], "n_steps": [], "error": []}
    for n, steps in runs:
        grid = SpatialGrid(-_MMS_X_MAX, _MMS_X_MAX, n)
        phi0, source, exact = singleton_mms(grid)
        cfg = PDEConfig(grid=grid, t_final=_MMS_T_FINAL, n_steps=steps,
                        mms_source=source)
        util = TabulatedPhi0(grid.centers, phi0, truncation_gamma=None)
        sol = solve(_MMS_MODEL, util, cfg)
        err = float(np.max(np.abs(sol.phi[-1]
                                  - exact(grid.centers, _MMS_T_FINAL))))
        table["n_cells"].append(n)
        table["n_steps"].append(steps)
        table["error"].append(err)
    table["orders"] = _observed_orders(table["error"])
    return table


def mms_convergence_study():
    """Grid-refinement study against the manufactured solution, on the
    spatial and the temporal ladder. Returns the error tables and observed
    orders."""
    return {"spatial": _mms_table(_MMS_SPATIAL),
            "temporal": _mms_table(_MMS_TEMPORAL)}
