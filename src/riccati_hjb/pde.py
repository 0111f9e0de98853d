"""Implicit finite-volume integrator for the transformed risk-aversion PDE

    d_tau phi - d_xx alpha(x, phi) = - d_x ( w(alpha(x, phi)) phi )

on a truncated 1-d domain. Time stepping is implicit Euler; each step runs
Newton sweeps on the exact nonlinear step residual. A sweep linearizes alpha
around the previous iterate with its exact envelope slope and each advective
face flux w(alpha) phi through both the face velocity and the upwinded value
(upwind choice frozen), then solves one tridiagonal system for the
correction. The sweeps stop once the correction is below the tolerance, so
the converged iterate satisfies the fully implicit nonlinear step.

`solve` starts each step's sweeps from the quadratic extrapolation in time
of the levels already computed (linear at the second step, the initial
profile at the first). On a smooth trajectory that start is O(dtau^3) from
the answer instead of O(dtau), which saves about one sweep per step; the
stop rule is unchanged, so the converged step agrees to the sweep
tolerance. `step`, which has no history, starts from its state. The
tridiagonal system goes straight to LAPACK gtsv, the routine behind scipy's
banded solver for one band on each side, without the wrapper's validation
and band-matrix packing.

w clamps alpha to +-M e^{lambda T}; on bounded runs it never activates and
the scheme integrates the unclipped equation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgtsv

from .alpha import alpha_field
from .model import PortfolioModel, SpatialGrid, UtilitySpec, phi0_profile

__all__ = [
    "SolverError",
    "PicardError",
    "PDEConfig",
    "CutoffBounds",
    "StepDiagnostics",
    "SolutionField",
    "cutoff_level",
    "lambda_bound",
    "step",
    "solve",
    "singleton_mms",
    "mms_convergence_study",
]


class SolverError(RuntimeError):
    """Time stepping failed (linear solve breakdown or similar)."""


class PicardError(SolverError):
    """Inner iteration failed to meet the update tolerance."""

    def __init__(self, step_index, residual, tol):
        self.step_index = step_index
        self.residual = residual
        super().__init__(
            f"Picard iteration stalled at step {step_index}: "
            f"residual {residual:.3e} > tol {tol:.3e}"
        )


@dataclass(frozen=True)
class PDEConfig:
    """Discretization and inner-iteration controls for one run."""

    grid: SpatialGrid
    t_final: float
    n_steps: int
    picard_tol: float = 1e-10
    picard_max: int = 100
    cutoff_m: float | str | None = "auto"
    mms_source: Callable | None = None
    boundary: str = "neumann"
    dirichlet_values: tuple = (0.0, 0.0)
    upwind: bool = False

    def __post_init__(self):
        if self.t_final <= 0:
            raise SolverError(f"t_final must be positive, got {self.t_final}")
        if self.n_steps < 1:
            raise SolverError(f"need n_steps >= 1, got {self.n_steps}")
        if self.picard_tol <= 0:
            raise SolverError("picard_tol must be positive")
        if self.boundary not in ("neumann", "dirichlet"):
            raise SolverError(f"unknown boundary {self.boundary!r}")

    @property
    def dtau(self) -> float:
        return self.t_final / self.n_steps


@dataclass(frozen=True)
class CutoffBounds:
    """Clamp levels for the advective coefficient: +-m e^{lam * horizon}."""

    m: float
    lam: float
    horizon: float

    @property
    def lower(self) -> float:
        return -self.m * float(np.exp(self.lam * self.horizon))

    @property
    def upper(self) -> float:
        return self.m * float(np.exp(self.lam * self.horizon))


@dataclass(frozen=True)
class StepDiagnostics:
    picard_iterations: int
    residual: float
    alpha_min: float
    alpha_max: float
    flux_left: float
    flux_right: float
    source_integral: float = 0.0


@dataclass(frozen=True)
class SolutionField:
    """phi on the space-time grid plus per-step solver diagnostics."""

    phi: np.ndarray                 # (n_steps+1, n_cells)
    tau_values: np.ndarray
    grid: SpatialGrid
    diagnostics: tuple
    cutoff: CutoffBounds | None

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
        """Worst amount by which the unclamped alpha left the clamp range
        over all steps and interior cells; 0 means the clamp never engaged
        and the run integrated the unclipped equation."""
        if self.cutoff is None:
            return 0.0
        lo, hi = self.cutoff.lower, self.cutoff.upper
        worst = 0.0
        for d in self.diagnostics:
            worst = max(worst, lo - d.alpha_min, d.alpha_max - hi)
        return max(0.0, worst)


def lambda_bound(model: PortfolioModel, grid: SpatialGrid) -> float:
    """sup of p(x) = max over theta of |d mu/dx|; nonzero only with inflow.

    Evaluated on the run grid joined with a fine grid over the inflow ramp,
    where the derivative peaks.
    """
    if model.inflow is None:
        return 0.0
    lo = min(grid.x_min, np.log(model.inflow.y_minus) - 2.0)
    hi = max(grid.x_max, np.log(model.inflow.y_plus) + 2.0)
    xs = np.concatenate([grid.centers, np.linspace(lo, hi, 4001)])
    return float(np.max(np.abs(model.inflow.term_dx(xs))))


def cutoff_level(model: PortfolioModel, utility: UtilitySpec,
                 grid: SpatialGrid, t_horizon: float) -> CutoffBounds:
    """M = sup over the grid of |alpha(x, phi0(x))|, with the growth rate
    lam = sup p(x); the clamp levels are +-M e^{lam T}."""
    phi0 = phi0_profile(utility, grid)
    a0, _, _ = alpha_field(model, grid.centers, phi0)
    m = float(np.max(np.abs(a0)))
    return CutoffBounds(m=m, lam=lambda_bound(model, grid), horizon=t_horizon)


class _Geometry:
    """Per-run constants of the sweep, built once per solve or step: cell
    centers, the ghost-extended x, the boundary map ghost = offset + sign *
    edge value (mirror: 0 + 1 * phi; Dirichlet g: 2g - phi), the time step
    and the clamp range of the advective coefficient."""

    __slots__ = ("n", "dx", "dtau", "centers", "xe", "sign", "offsets",
                 "clamp")

    def __init__(self, config: PDEConfig, cutoff: CutoffBounds | None):
        grid = config.grid
        self.n, self.dx, self.dtau = grid.n_cells, grid.dx, config.dtau
        self.centers = grid.centers
        self.xe = np.concatenate([[self.centers[0] - self.dx], self.centers,
                                  [self.centers[-1] + self.dx]])
        if config.boundary == "neumann":
            self.sign, self.offsets = 1.0, (0.0, 0.0)
        else:
            gl, gr = config.dirichlet_values
            self.sign, self.offsets = -1.0, (2.0 * gl, 2.0 * gr)
        self.clamp = ((-np.inf, np.inf) if cutoff is None
                      else (cutoff.lower, cutoff.upper))

    def extend(self, values):
        """Attach ghost values per the boundary condition."""
        out = np.empty(self.n + 2)
        out[1:-1] = values
        out[0] = self.offsets[0] + self.sign * values[0]
        out[-1] = self.offsets[1] + self.sign * values[-1]
        return out


# scipy's name is kept: perfbench's traced run wraps pde.solve_banded
def solve_banded(lower, diag, upper, rhs):
    """Solve the tridiagonal system with sub-, main and super-diagonals
    (lower, diag, upper) by LAPACK gtsv. lower, upper and rhs are
    overwritten; diag is kept. Raises LinAlgError on a zero pivot."""
    _, _, _, x, info = dgtsv(lower, diag, upper, rhs, True, False, True, True)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x


def _sweep(model, config, geom, phi_prev, phi_iter, src, tau_next):
    """One Newton sweep: solve the linearized step for the correction.

    The step residual at phi_iter is exact; its Jacobian linearizes alpha
    with the envelope slope and each advective face flux v * phi_upwind
    through both the upwinded value and the face velocity, with the upwind
    choice frozen. The clamp of the advective coefficient passes the slope
    on where lower <= alpha <= upper and 0 outside.

    Returns (delta, alpha_interior, fluxes) with phi_iter + delta the new
    iterate and fluxes the linearized total face fluxes (alpha gradient
    minus advective flux) at the two domain ends, so the discrete balance
    sum(u - phi_prev) dx = dtau (G_right - G_left + integral of source)
    holds to solver precision.
    """
    dx, dtau, sign = geom.dx, geom.dtau, geom.sign
    pe = geom.extend(phi_iter)
    ae, se, _ = alpha_field(model, geom.xe, pe)
    lo, hi = geom.clamp
    if lo <= ae.min() and ae.max() <= hi:
        wc, dw = ae, se
    else:
        wc = np.clip(ae, lo, hi)
        dw = np.where((ae >= lo) & (ae <= hi), se, 0.0)

    # face j+1/2 between extended cells j and j+1, j = 0..n: advective flux
    # and its derivatives a (by phi_j) and b (by phi_{j+1})
    if config.upwind:
        v = 0.5 * (wc[:-1] + wc[1:])
        up = v >= 0.0
        pu = np.where(up, pe[:-1], pe[1:])
        adv = v * pu
        half_pu = 0.5 * pu
        a = np.where(up, v, 0.0) + dw[:-1] * half_pu
        b = np.where(up, 0.0, v) + dw[1:] * half_pu
    else:
        q = wc * pe
        g = 0.5 * (wc + dw * pe)
        adv = 0.5 * (q[:-1] + q[1:])
        a, b = g[:-1], g[1:]

    # total face flux G = d_x alpha - advective flux and its derivatives:
    # dG/dphi_j = -k_left, dG/dphi_{j+1} = k_right
    flux = (ae[1:] - ae[:-1]) / dx - adv
    sdx = se / dx
    k_left = sdx[:-1] + a
    k_right = sdx[1:] - b

    rhs = (flux[1:] - flux[:-1]) / dx - (phi_iter - phi_prev) / dtau
    if src is not None:
        rhs += src
    diag = 1.0 / dtau + (k_left[1:] + k_right[:-1]) / dx
    # fold the ghost corrections (sign * edge correction) into the end rows
    diag[0] -= sign * k_left[0] / dx
    diag[-1] -= sign * k_right[-1] / dx

    # row i couples delta_{i-1} by -k_left[i] / dx, delta_{i+1} by
    # -k_right[i+1] / dx
    try:
        delta = solve_banded(-k_left[1:-1] / dx, diag, -k_right[1:-1] / dx,
                             rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            f"tridiagonal solve failed at tau={tau_next:.6g}: {exc}; "
            f"diag range [{diag.min():.3e}, {diag.max():.3e}]"
        ) from None
    if not np.all(np.isfinite(delta)):
        raise SolverError(f"non-finite update at tau={tau_next:.6g}")

    d0, d1 = delta[0], delta[-1]
    g_left = flux[0] + (k_right[0] - sign * k_left[0]) * d0
    g_right = flux[-1] + (sign * k_right[-1] - k_left[-1]) * d1
    return delta, ae[1:-1], (float(g_left), float(g_right))


def _advance(model, config, geom, phi_prev, start, tau_next, step_index):
    """Newton sweeps of one implicit step from phi_prev, starting at start."""
    src = None
    src_int = 0.0
    if config.mms_source is not None:
        src = np.asarray(config.mms_source(geom.centers, tau_next), dtype=float)
        src_int = float(np.sum(src) * geom.dx)
    phi_iter = start
    for it in range(1, config.picard_max + 1):
        delta, a_int, fluxes = _sweep(model, config, geom, phi_prev,
                                      phi_iter, src, tau_next)
        phi_iter = phi_iter + delta
        residual = float(np.max(np.abs(delta)))
        if residual <= config.picard_tol:
            diag = StepDiagnostics(
                picard_iterations=it,
                residual=residual,
                alpha_min=float(a_int.min()),
                alpha_max=float(a_int.max()),
                flux_left=fluxes[0],
                flux_right=fluxes[1],
                source_integral=src_int,
            )
            return phi_iter, diag
    raise PicardError(step_index, residual, config.picard_tol)


def step(state, model: PortfolioModel, config: PDEConfig,
         dtau: float | None = None, tau: float = 0.0):
    """One implicit Euler step from the given level. dtau defaults to the
    configured step; dtau = 0 returns the state unchanged."""
    state = np.asarray(state, dtype=float)
    if not np.all(np.isfinite(state)):
        raise SolverError("step requires a finite state")
    if dtau is None:
        dtau = config.dtau
    if dtau == 0.0:
        return state.copy()
    cfg = config
    if dtau != config.dtau:
        cfg = replace(config, t_final=dtau, n_steps=1)
    geom = _Geometry(cfg, _resolve_cutoff(model, config, state))
    phi_next, _ = _advance(model, cfg, geom, state, state, tau + dtau, 0)
    return phi_next


def _resolve_cutoff(model, config, phi0):
    if config.cutoff_m is None:
        return None
    lam = lambda_bound(model, config.grid)
    if config.cutoff_m == "auto":
        a0, _, _ = alpha_field(model, config.grid.centers, phi0)
        m = float(np.max(np.abs(a0)))
    else:
        m = float(config.cutoff_m)
    return CutoffBounds(m=m, lam=lam, horizon=config.t_final)


def solve(model: PortfolioModel, utility: UtilitySpec,
          config: PDEConfig) -> SolutionField:
    """Integrate the Cauchy problem from phi0 = -u''/u' to t_final."""
    grid = config.grid
    phi0 = phi0_profile(utility, grid)
    cutoff = _resolve_cutoff(model, config, phi0)
    geom = _Geometry(config, cutoff)

    tau = np.linspace(0.0, config.t_final, config.n_steps + 1)
    phi = np.empty((config.n_steps + 1, grid.n_cells))
    phi[0] = phi0
    diags = []
    for k in range(config.n_steps):
        if k >= 2:
            start = 3.0 * (phi[k] - phi[k - 1]) + phi[k - 2]
        elif k == 1:
            start = 2.0 * phi[1] - phi[0]
        else:
            start = phi[0]
        phi[k + 1], d = _advance(model, config, geom, phi[k], start,
                                 float(tau[k + 1]), k)
        diags.append(d)
    return SolutionField(phi=phi, tau_values=tau, grid=grid,
                         diagnostics=tuple(diags), cutoff=cutoff)


# --- manufactured-solution verification -------------------------------------

def singleton_mms(model: PortfolioModel, grid: SpatialGrid):
    """Manufactured problem for a single-asset model on a symmetric domain:
    exact solution e^{-tau} cos(pi x / x_max), which satisfies the discrete
    mirror boundary condition exactly.

    Returns (phi0_values, source, exact) with source(x, tau) the forcing that
    makes the exact field solve the PDE, valid while the clamp stays inactive.
    """
    if model.n != 1:
        raise SolverError("manufactured problem expects a single-asset model")
    if abs(grid.x_min + grid.x_max) > 1e-12:
        raise SolverError("manufactured problem expects a symmetric domain")
    m = float(model.mu[0])
    s2 = float(model.sigma[0, 0])
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


def mms_convergence_study(model: PortfolioModel, x_max: float = 4.0,
                          t_final: float = 1.0,
                          spatial_cells=(50, 100, 200),
                          spatial_steps_base: int = 25,
                          temporal_cells: int = 240,
                          temporal_steps=(5, 10, 20)):
    """Grid-refinement study against the manufactured solution.

    Spatial errors are measured with the time step refined quadratically
    alongside the mesh so the first-order time error contracts at the same
    rate as the second-order space error; temporal errors use a fixed fine
    mesh. Returns the error tables and observed orders.
    """
    from .model import TabulatedPhi0

    spatial = {"n_cells": [], "n_steps": [], "dx": [], "error": []}
    for i, n in enumerate(spatial_cells):
        steps = spatial_steps_base * (n // spatial_cells[0]) ** 2
        grid = SpatialGrid(-x_max, x_max, n)
        phi0, source, exact = singleton_mms(model, grid)
        cfg = PDEConfig(grid=grid, t_final=t_final, n_steps=steps,
                        mms_source=source)
        util = TabulatedPhi0(grid.centers, phi0, truncation_gamma=None)
        sol = solve(model, util, cfg)
        err = float(np.max(np.abs(sol.phi[-1] - exact(grid.centers, t_final))))
        spatial["n_cells"].append(n)
        spatial["n_steps"].append(steps)
        spatial["dx"].append(grid.dx)
        spatial["error"].append(err)
    spatial["orders"] = _observed_orders(spatial["error"])

    temporal = {"n_cells": [], "n_steps": [], "dtau": [], "error": []}
    grid = SpatialGrid(-x_max, x_max, temporal_cells)
    phi0, source, exact = singleton_mms(model, grid)
    util = TabulatedPhi0(grid.centers, phi0, truncation_gamma=None)
    for steps in temporal_steps:
        cfg = PDEConfig(grid=grid, t_final=t_final, n_steps=steps,
                        mms_source=source)
        sol = solve(model, util, cfg)
        err = float(np.max(np.abs(sol.phi[-1] - exact(grid.centers, t_final))))
        temporal["n_cells"].append(temporal_cells)
        temporal["n_steps"].append(steps)
        temporal["dtau"].append(t_final / steps)
        temporal["error"].append(err)
    temporal["orders"] = _observed_orders(temporal["error"])

    return {"spatial": spatial, "temporal": temporal}
