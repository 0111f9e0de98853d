"""Implicit finite-volume integrator for the transformed risk-aversion PDE

    d_tau phi - d_xx alpha(x, phi) = - d_x ( w(alpha(x, phi)) phi )

on a truncated 1-d domain. Time stepping is implicit Euler; each step runs
Newton sweeps on the exact nonlinear step residual. A sweep linearizes alpha
around the previous iterate with its exact envelope slope and each advective
face flux w(alpha) phi through both the face velocity and the upwinded value
(upwind choice frozen), then solves one tridiagonal system for the
correction. The sweeps stop once the correction is below the tolerance, so
the converged iterate satisfies the fully implicit nonlinear step.

`solve` starts each step's sweeps from a variable-order extrapolation in
time, the predictor of Adams and BDF codes: one product with a constant
matrix turns the last L <= 8 levels into the backward differences nabla^j
of the newest, and the start is their sum cut before the smallest of them
(max norm) among j >= 1, as an asymptotic series is truncated. On a smooth
trajectory that start reaches order six and lands within the sweep
tolerance on most steps, about 1.2 sweeps per step on the shipped run;
after a kink in the history the higher differences grow instead of
shrinking, so the cut falls back to a low order. The first two steps start
from phi_0 and 2 phi_1 - phi_0. The stop rule is unchanged, so the
converged step agrees to the sweep tolerance. The tridiagonal system goes
straight to LAPACK gtsv, the routine behind scipy's banded solver for one
band on each side, without the wrapper's validation and band-matrix
packing. A sweep is bound by numpy's per-call overhead on arrays of n + 2
values, so it builds its temporaries in place, multiplies by the
reciprocals of dx and dtau, and leaves the check for a non-finite
correction to the max |delta| of the stop rule, which is nan or inf exactly
when delta has such an entry. It refills the run's one ghost-extended
buffer of phi, takes the interior range of alpha once (the clamp test adds
the two ghost values, and the step diagnostics keep the range of the last
sweep), scales the couplings by -1/dx once and builds the diagonal from
them, and the Newton update is applied in place. On the shipped two-asset
upwind run (402 values) a sweep takes about 60 us on a 2-core x86-64 VM,
a quarter of it in `alpha_field` and a fifth in gtsv.

w clamps alpha to +-M e^{lambda T}; on bounded runs it never activates and
the scheme integrates the unclipped equation. `solve` works out M, lambda
and T once per run and the solution carries them, clamped or not, for the
a-priori checks to read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    "lambda_bound",
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
    """Discretization and inner-iteration controls for one run. dirichlet
    holds the (left, right) wall values, None selects the mirror boundary."""

    grid: SpatialGrid
    t_final: float
    n_steps: int
    picard_tol: float = 1e-10
    picard_max: int = 100
    cutoff_m: float | str | None = "auto"
    mms_source: Callable | None = None
    dirichlet: tuple | None = None
    upwind: bool = False

    def __post_init__(self):
        if self.t_final <= 0:
            raise SolverError(f"t_final must be positive, got {self.t_final}")
        if self.n_steps < 1:
            raise SolverError(f"need n_steps >= 1, got {self.n_steps}")
        if self.picard_tol <= 0:
            raise SolverError("picard_tol must be positive")
        if self.picard_max < 1:
            raise SolverError(f"need picard_max >= 1, got {self.picard_max}")
        if self.cutoff_m not in (None, "auto") and not self.cutoff_m > 0:
            raise SolverError(f"cutoff_m must be positive, got {self.cutoff_m}")
        if self.dirichlet is not None and len(self.dirichlet) != 2:
            raise SolverError(f"dirichlet must be None or a (left, right) "
                              f"pair, got {self.dirichlet!r}")

    @property
    def dtau(self) -> float:
        return self.t_final / self.n_steps


@dataclass(frozen=True)
class CutoffBounds:
    """A run's a-priori constants: the level m, the growth rate lam and the
    horizon, which give the clamp levels +-m e^{lam * horizon}."""

    m: float
    lam: float
    horizon: float

    @property
    def lower(self) -> float:
        return -self.upper

    @property
    def upper(self) -> float:
        with np.errstate(over="ignore"):  # an overflow is the bound inf
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
    """phi on the space-time grid plus per-step solver diagnostics and the
    run's a-priori constants, which the clamp used if `clamped`."""

    phi: np.ndarray                 # (n_steps+1, n_cells)
    tau_values: np.ndarray
    grid: SpatialGrid
    diagnostics: tuple
    bounds: CutoffBounds
    clamped: bool

    def __post_init__(self):
        for name in ("phi", "tau_values"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def t_final(self) -> float:
        return float(self.tau_values[-1])

    @property
    def cutoff(self) -> CutoffBounds | None:
        """The clamp range, None for an unclamped run."""
        return self.bounds if self.clamped else None

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


class _Geometry:
    """Per-run constants of the sweep, built once per solve: cell centers,
    the ghost-extended x, the boundary map ghost = offset + sign * edge value
    (mirror: 0 + 1 * phi; Dirichlet g: 2g - phi), the reciprocals of the cell
    width and the time step, and the clamp range of the advective
    coefficient; plus the run's one ghost-extended buffer of phi, which
    every sweep refills."""

    __slots__ = ("n", "dx", "inv_dx", "inv_dtau", "centers", "xe", "sign",
                 "offsets", "clamp", "_pe")

    def __init__(self, config: PDEConfig, cutoff: CutoffBounds | None):
        grid = config.grid
        self.n, self.dx = grid.n_cells, grid.dx
        self.inv_dx, self.inv_dtau = 1.0 / grid.dx, 1.0 / config.dtau
        self.centers = grid.centers
        self.xe = np.concatenate([[self.centers[0] - self.dx], self.centers,
                                  [self.centers[-1] + self.dx]])
        if config.dirichlet is None:
            self.sign, self.offsets = 1.0, (0.0, 0.0)
        else:
            gl, gr = config.dirichlet
            self.sign, self.offsets = -1.0, (2.0 * gl, 2.0 * gr)
        self.clamp = ((-np.inf, np.inf) if cutoff is None
                      else (cutoff.lower, cutoff.upper))
        self._pe = np.empty(self.n + 2)

    def extend(self, values):
        """values with ghost values attached per the boundary condition, in
        the run's buffer: the next call overwrites it."""
        out = self._pe
        out[1:-1] = values
        out[0] = self.offsets[0] + self.sign * float(values[0])
        out[-1] = self.offsets[1] + self.sign * float(values[-1])
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

    Returns (delta, alpha_range, fluxes) with phi_iter + delta the new
    iterate, alpha_range the (min, max) of alpha over the interior cells at
    phi_iter and fluxes the linearized total face fluxes (alpha gradient
    minus advective flux) at the two domain ends, so the discrete balance
    sum(u - phi_prev) dx = dtau (G_right - G_left + integral of source)
    holds to solver precision.
    """
    inv_dx, sign = geom.inv_dx, geom.sign
    pe = geom.extend(phi_iter)
    ae, se, _ = alpha_field(model, geom.xe, pe)
    a_int = ae[1:-1]
    alpha_range = (float(a_int.min()), float(a_int.max()))
    lo, hi = geom.clamp
    if (lo <= alpha_range[0] and alpha_range[1] <= hi
            and lo <= ae[0] <= hi and lo <= ae[-1] <= hi):
        wc, dw = ae, se
    else:
        wc = np.clip(ae, lo, hi)
        dw = np.where((ae >= lo) & (ae <= hi), se, 0.0)

    # face j+1/2 between extended cells j and j+1, j = 0..n: advective flux
    # and its derivatives a (by phi_j) and b (by phi_{j+1})
    if config.upwind:
        v = wc[:-1] + wc[1:]
        v *= 0.5
        # velocity parts upwinded from the left (>= 0) and the right (< 0)
        v_left = np.maximum(v, 0.0)
        v_right = v - v_left
        pu = np.where(v >= 0.0, pe[:-1], pe[1:])
        adv = v * pu
        pu *= 0.5   # a and b take half the upwinded value
        a = dw[:-1] * pu
        a += v_left
        b = dw[1:] * pu
        b += v_right
    else:
        q = wc * pe
        adv = q[:-1] + q[1:]
        adv *= 0.5
        g = dw * pe
        g += wc
        g *= 0.5
        a, b = g[:-1], g[1:]

    # total face flux G = d_x alpha - advective flux and its derivatives:
    # dG/dphi_j = -k_left, dG/dphi_{j+1} = k_right
    flux = ae[1:] - ae[:-1]
    flux *= inv_dx
    flux -= adv
    sdx = np.multiply(se, inv_dx, out=se)  # se (and dw) are not read again
    # fresh arrays: in the centered branch a and b are views of one array,
    # which the scaling below must not write
    k_left = sdx[:-1] + a
    k_right = sdx[1:] - b
    # kl0, kr0 belong to the first face, kln, krn to the last
    kl0, kln = float(k_left[0]), float(k_left[-1])
    kr0, krn = float(k_right[0]), float(k_right[-1])

    rhs = flux[1:] - flux[:-1]
    rhs *= inv_dx
    rate = phi_iter - phi_prev
    rate *= geom.inv_dtau
    rhs -= rate
    if src is not None:
        rhs += src
    # row i couples delta_{i-1} by c_left[i] = -k_left[i] / dx and
    # delta_{i+1} by c_right[i+1] = -k_right[i+1] / dx, and its diagonal is
    # 1/dtau - c_left[i+1] - c_right[i]
    c_left = np.multiply(k_left, -inv_dx, out=k_left)
    c_right = np.multiply(k_right, -inv_dx, out=k_right)
    diag = c_left[1:] + c_right[:-1]
    np.subtract(geom.inv_dtau, diag, out=diag)
    # fold the ghost corrections (sign * edge correction) into the end rows
    diag[0] += sign * float(c_left[0])
    diag[-1] += sign * float(c_right[-1])

    try:
        delta = solve_banded(c_left[1:-1], diag, c_right[1:-1], rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            f"tridiagonal solve failed at tau={tau_next:.6g}: {exc}; "
            f"diag range [{diag.min():.3e}, {diag.max():.3e}]"
        ) from None

    g_left = float(flux[0]) + (kr0 - sign * kl0) * float(delta[0])
    g_right = float(flux[-1]) + (sign * krn - kln) * float(delta[-1])
    return delta, alpha_range, (g_left, g_right)


def _advance(model, config, geom, phi_prev, start, tau_next, step_index):
    """Newton sweeps of one implicit step from phi_prev, starting at start."""
    src = None
    src_int = 0.0
    if config.mms_source is not None:
        src = np.asarray(config.mms_source(geom.centers, tau_next), dtype=float)
        src_int = float(np.sum(src) * geom.dx)
    phi_iter = start   # a fresh array, updated in place
    for it in range(1, config.picard_max + 1):
        delta, alpha_range, fluxes = _sweep(model, config, geom, phi_prev,
                                            phi_iter, src, tau_next)
        phi_iter += delta
        # nan or inf in delta makes its max |delta| nan or inf
        residual = float(np.abs(delta, out=delta).max())
        if not math.isfinite(residual):
            raise SolverError(f"non-finite update at tau={tau_next:.6g}")
        if residual <= config.picard_tol:
            diag = StepDiagnostics(
                picard_iterations=it,
                residual=residual,
                alpha_min=alpha_range[0],
                alpha_max=alpha_range[1],
                flux_left=fluxes[0],
                flux_right=fluxes[1],
                source_integral=src_int,
            )
            return phi_iter, diag
    raise PicardError(step_index, residual, config.picard_tol)


_PREDICTOR_LEVELS = 8  # most stored levels the start of a step reads
# _BACKWARD[L] takes L levels phi_{k+1-L..k}, oldest first, to the rows
# nabla^j phi_k, j < L; contiguous, as the product runs faster on them
_BACKWARD = {n: np.array([[(-1) ** i * math.comb(j, i)
                           for i in reversed(range(n))]
                          for j in range(n)], dtype=float)
             for n in range(1, _PREDICTOR_LEVELS + 1)}


def _predict(phi, k):
    """Start of step k from the last L = min(k + 1, _PREDICTOR_LEVELS)
    levels phi[k + 1 - L..k]: the Newton backward series sum_j nabla^j phi_k,
    cut before its smallest term (max norm) among j >= 1, the usual
    truncation of an asymptotic series. With at most two levels every term
    is kept: phi_0 at the first step, 2 phi_1 - phi_0 at the second."""
    n = min(k + 1, _PREDICTOR_LEVELS)
    diffs = _BACKWARD[n].dot(phi[k + 1 - n:k + 1])
    if n <= 2:
        return diffs.sum(axis=0)
    order = 1 + int(np.abs(diffs[1:]).max(axis=1).argmin())
    return diffs[:order].sum(axis=0)


def _resolve_cutoff(model, config, phi0):
    """The run's M, lambda and T: M is the manual level, else (unclamped
    runs too) M = max |alpha(x, phi0)|; lambda = sup p(x); T = t_final."""
    if config.cutoff_m is None or config.cutoff_m == "auto":
        a0, _, _ = alpha_field(model, config.grid.centers, phi0)
        m = float(np.max(np.abs(a0)))
    else:
        m = float(config.cutoff_m)
    return CutoffBounds(m=m, lam=lambda_bound(model, config.grid),
                        horizon=config.t_final)


def solve(model: PortfolioModel, utility: UtilitySpec,
          config: PDEConfig) -> SolutionField:
    """Integrate the Cauchy problem from phi0 = -u''/u' to t_final."""
    grid = config.grid
    phi0 = phi0_profile(utility, grid)
    bounds = _resolve_cutoff(model, config, phi0)
    clamped = config.cutoff_m is not None
    geom = _Geometry(config, bounds if clamped else None)

    tau = np.linspace(0.0, config.t_final, config.n_steps + 1)
    phi = np.empty((config.n_steps + 1, grid.n_cells))
    phi[0] = phi0
    diags = []
    for k in range(config.n_steps):
        start = _predict(phi, k)
        phi[k + 1], d = _advance(model, config, geom, phi[k], start,
                                 float(tau[k + 1]), k)
        diags.append(d)
    return SolutionField(phi=phi, tau_values=tau, grid=grid,
                         diagnostics=tuple(diags), bounds=bounds,
                         clamped=clamped)


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


def _mms_table(model, x_max, t_final, runs, spacing):
    """Max errors at t_final of the manufactured runs (n_cells, n_steps) in
    `runs` on [-x_max, x_max], with the refined spacing ("dx" or "dtau") of
    each run and the observed orders."""
    from .model import TabulatedPhi0

    table = {"n_cells": [], "n_steps": [], spacing: [], "error": []}
    for n, steps in runs:
        grid = SpatialGrid(-x_max, x_max, n)
        phi0, source, exact = singleton_mms(model, grid)
        cfg = PDEConfig(grid=grid, t_final=t_final, n_steps=steps,
                        mms_source=source)
        util = TabulatedPhi0(grid.centers, phi0, truncation_gamma=None)
        sol = solve(model, util, cfg)
        err = float(np.max(np.abs(sol.phi[-1] - exact(grid.centers, t_final))))
        table["n_cells"].append(n)
        table["n_steps"].append(steps)
        table[spacing].append(grid.dx if spacing == "dx" else cfg.dtau)
        table["error"].append(err)
    table["orders"] = _observed_orders(table["error"])
    return table


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
    spatial = [(n, spatial_steps_base * (n // spatial_cells[0]) ** 2)
               for n in spatial_cells]
    temporal = [(temporal_cells, steps) for steps in temporal_steps]
    return {"spatial": _mms_table(model, x_max, t_final, spatial, "dx"),
            "temporal": _mms_table(model, x_max, t_final, temporal, "dtau")}
