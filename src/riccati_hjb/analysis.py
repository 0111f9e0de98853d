"""Discrete functional-analytic checks: Fourier Sobolev norms, the strong
monotonicity certificate for the diffusion function, the fixed-point
contraction horizon, energy estimates and pointwise bound verification.

Every check is packaged as a CheckReport carrying both sides of the
inequality, the worst violation and a pass flag at a stated tolerance. All
randomness is seeded, so reports are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# solve_alpha is unused here, but the traced benchmark wraps it as a boundary
from .alpha import alpha_field, lipschitz_bounds, solve_alpha  # noqa: F401
from .model import PortfolioModel
from .pde import CutoffBounds, SolutionField, lambda_bound

__all__ = [
    "CheckReport",
    "ContractionBudget",
    "sobolev_norm",
    "monotonicity_certificate",
    "contraction_budget",
    "energy_estimate_report",
    "maximum_principle_report",
]

_SPACE_DIM = 1  # spatial dimension of the PDE runs
MIN_PAIR_GAP = 1e-6  # smallest |phi1 - phi2| of a sampled monotonicity pair


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one analytic-bound verification.

    The check is bound_lhs <= bound_rhs up to `tolerance`; worst_violation is
    max(0, lhs - rhs) (or a directly supplied worst case for multi-point
    checks) and `passed` is derived from it, never stored independently.
    """

    check_name: str
    bound_lhs: float
    bound_rhs: float
    tolerance: float
    worst_violation: float = None
    passed: bool = field(init=False)
    context: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.worst_violation is None:
            worst = max(0.0, self.bound_lhs - self.bound_rhs)
            object.__setattr__(self, "worst_violation", worst)
        object.__setattr__(self, "passed",
                           bool(self.worst_violation <= self.tolerance))

    def to_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "bound_lhs": self.bound_lhs,
            "bound_rhs": self.bound_rhs,
            "tolerance": self.tolerance,
            "worst_violation": self.worst_violation,
            "passed": self.passed,
            "context": _jsonable(self.context),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


# --- Sobolev norms via the discrete Fourier transform ------------------------

def sobolev_norm(values, dx: float | None = None, s: float = 0.0, *,
                 x=None) -> float:
    """Order-s Sobolev norm of samples on a uniform grid.

    The squared norm is the frequency sum of (1 + xi^2)^s |fhat(xi)|^2 dxi
    with physical frequencies xi_k = 2 pi k / (N dx). At s = 0 this is the
    rectangle-rule L2 norm (discrete Parseval). The transform is periodic, so
    samples should decay near the domain ends.
    """
    f = np.asarray(values, dtype=float)
    if f.ndim != 1 or f.size < 2:
        raise ValueError("need a 1-d sample array of length >= 2")
    if x is not None:
        x = np.asarray(x, dtype=float)
        if x.shape != f.shape:
            raise ValueError("x and values must have the same length")
        d = np.diff(x)
        if np.max(np.abs(d - d[0])) > 1e-8 * max(abs(d[0]), 1e-300):
            raise ValueError("non-uniform grid")
        dx = float(d[0])
    if dx is None or dx <= 0:
        raise ValueError("need a positive grid spacing dx (or a uniform x)")
    n = f.size
    xi = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    power = np.abs(np.fft.fft(f)) ** 2
    norm2 = (dx / n) * np.sum((1.0 + xi * xi) ** s * power)
    return float(np.sqrt(norm2))


# --- strong monotonicity of alpha --------------------------------------------

def monotonicity_certificate(model: PortfolioModel, phi_samples=None,
                             x_samples=None, *, n_pairs: int = 1000,
                             seed: int = 42, phi_range=(0.1, 50.0),
                             tolerance: float | None = None) -> CheckReport:
    """Check omega <= (alpha(x,phi1) - alpha(x,phi2)) / (phi1 - phi2) <= L
    over sample pairs; pairs are seeded random unless samples are supplied.
    """
    bounds = lipschitz_bounds(model)
    xs = np.atleast_1d(np.asarray(x_samples if x_samples is not None else [0.0],
                                  dtype=float))
    if phi_samples is not None:
        phis = np.asarray(phi_samples, dtype=float)
        p1, p2 = np.meshgrid(phis, phis)
        keep = np.abs(p1 - p2) > 1e-12
        p1, p2 = p1[keep], p2[keep]
    else:
        rng = np.random.default_rng(seed)
        lo, hi = phi_range
        p1 = np.empty(n_pairs)
        p2 = np.empty(n_pairs)
        have = 0
        while have < n_pairs:
            a = rng.uniform(lo, hi, size=n_pairs - have)
            b = rng.uniform(lo, hi, size=n_pairs - have)
            # keep the quotient well conditioned
            ok = np.abs(a - b) >= MIN_PAIR_GAP
            k = int(ok.sum())
            p1[have:have + k] = a[ok]
            p2[have:have + k] = b[ok]
            have += k
    va, _, _ = alpha_field(model, xs[:, None], p1)
    vb, _, _ = alpha_field(model, xs[:, None], p2)
    ratios = (va - vb) / (p1 - p2)
    min_ratio, max_ratio = float(ratios.min()), float(ratios.max())
    if tolerance is None:
        tolerance = 1e-10 * max(1.0, bounds.big_l)
    worst = max(0.0, bounds.omega - min_ratio, max_ratio - bounds.big_l)
    lhs, rhs = ((bounds.omega, min_ratio)
                if bounds.omega - min_ratio >= max_ratio - bounds.big_l
                else (max_ratio, bounds.big_l))
    return CheckReport(
        check_name="monotonicity",
        bound_lhs=float(lhs),
        bound_rhs=float(rhs),
        tolerance=float(tolerance),
        worst_violation=float(worst),
        context={
            "omega": bounds.omega, "big_l": bounds.big_l,
            "min_ratio": float(min_ratio), "max_ratio": float(max_ratio),
            "n_pairs": int(len(p1)), "seed": seed,
            "phi_range": list(phi_range), "n_x": int(len(xs)),
        },
    )


# --- contraction horizon ------------------------------------------------------

@dataclass(frozen=True)
class ContractionBudget:
    """Constants of the fixed-point argument: the source maps have Lipschitz
    constant beta, beta_tilde^2 = 2 (1 + d) beta^2 with d = 1, and the map
    contracts on horizons below t0 = 2 omega / beta_tilde^2."""

    omega: float
    beta: float
    beta_tilde: float
    t0: float
    phi_bound: float = math.nan
    horizon: float = math.nan

    def __post_init__(self):
        if not self.t0 > 0:
            raise ValueError(f"contraction horizon must be positive, got {self.t0}")

    @staticmethod
    def from_constants(omega: float, beta: float,
                       phi_bound: float = math.nan,
                       horizon: float = math.nan) -> "ContractionBudget":
        beta_tilde = math.sqrt(2.0 * (1 + _SPACE_DIM)) * beta
        return ContractionBudget(
            omega=omega, beta=beta, beta_tilde=beta_tilde,
            t0=2.0 * omega / beta_tilde**2,
            phi_bound=phi_bound, horizon=horizon,
        )

    def windows(self, t_total: float | None = None) -> int:
        """Continuation windows needed to cover the horizon: the first window
        spans t0, every later restart extends coverage by t0/2."""
        t = self.horizon if t_total is None else t_total
        if not t > 0:
            return 0
        if t <= self.t0:
            return 1
        return 1 + int(math.ceil((t - self.t0) / (self.t0 / 2.0)))


def contraction_budget(model: PortfolioModel, field_or_bounds,
                       h_max: float | None = None) -> ContractionBudget:
    """Conservative contraction constants for a run.

    beta bounds the Lipschitz constants of the shifted-diffusion source and
    the clamped advective flux: beta = max(L, L Phi + M e^{lam T}) with Phi
    the a-priori solution bound (M e^{lam T} + max|h|) / omega.
    """
    bounds = lipschitz_bounds(model)
    if isinstance(field_or_bounds, SolutionField):
        sol = field_or_bounds
        centers = sol.grid.centers
        a0, _, _ = alpha_field(model, centers, sol.phi[0])
        cut = CutoffBounds(m=float(np.max(np.abs(a0))),
                           lam=lambda_bound(model, sol.grid),
                           horizon=sol.t_final)
        h, _, _ = alpha_field(model, centers, np.zeros_like(centers))
        h_max = float(np.max(np.abs(h)))
    else:
        cut = field_or_bounds
        if h_max is None:
            raise ValueError("h_max is required when passing CutoffBounds")
    me_lt = cut.upper
    phi_bound = (me_lt + h_max) / bounds.omega
    beta = max(bounds.big_l, bounds.big_l * phi_bound + me_lt)
    return ContractionBudget.from_constants(
        bounds.omega, beta, phi_bound=phi_bound, horizon=cut.horizon)


# --- energy estimate -----------------------------------------------------------

def energy_estimate_report(solution: SolutionField, model: PortfolioModel,
                           utility=None) -> CheckReport:
    """Energy diagnostic: LHS = sup_tau |phi|_{H^-1}^2 + int_0^T |phi|_{L2}^2.

    The estimate's constant is not pinned down analytically, so the check
    asserts finiteness and reports the ratio of the LHS to the data terms
    (|phi0|_{H^-1}^2 plus the horizon-weighted squared L2 norm of d_xx h);
    the ratio is meant to be compared across mesh refinements.
    """
    dx = solution.grid.dx
    centers = solution.grid.centers
    hm1_sq = np.array([sobolev_norm(row, dx, -1.0) ** 2 for row in solution.phi])
    l2_sq = np.array([sobolev_norm(row, dx, 0.0) ** 2 for row in solution.phi])
    lhs = float(np.max(hm1_sq) + np.trapezoid(l2_sq, solution.tau_values))

    h, _, _ = alpha_field(model, centers, np.zeros_like(centers))
    he = np.concatenate([[h[0]], h, [h[-1]]])  # mirror, matching the scheme
    d2h = (he[2:] - 2.0 * he[1:-1] + he[:-2]) / dx**2
    rhs_data = float(hm1_sq[0] + solution.t_final * np.sum(d2h**2) * dx)
    ratio = lhs / rhs_data if rhs_data > 0 else (0.0 if lhs == 0 else np.inf)

    peak = float(np.max(np.abs(solution.phi))) or 1.0
    edge = float(max(np.max(np.abs(solution.phi[:, 0])),
                     np.max(np.abs(solution.phi[:, -1]))))
    worst = 0.0 if np.isfinite(lhs) else np.inf
    return CheckReport(
        check_name="energy-estimate",
        bound_lhs=lhs,
        bound_rhs=np.inf,
        tolerance=0.0,
        worst_violation=worst,
        context={
            "ratio": ratio,
            "sup_hminus1_sq": float(np.max(hm1_sq)),
            "int_l2_sq": float(np.trapezoid(l2_sq, solution.tau_values)),
            "rhs_data": rhs_data,
            "boundary_fraction": edge / peak,
            "n_cells": solution.grid.n_cells,
            "n_steps": len(solution.tau_values) - 1,
        },
    )


# --- pointwise a-priori bounds ---------------------------------------------------

def maximum_principle_report(solution: SolutionField, model: PortfolioModel,
                             utility=None, tol: float = 1e-8) -> CheckReport:
    """Verify psi_min e^{lam tau} <= alpha(x, phi(x,tau)) <= psi_max e^{lam tau}
    at every stored step, with psi_min/max the signed extremes of
    alpha(x, phi0) capped at zero and lam the drift-gradient bound."""
    centers = solution.grid.centers
    a, _, _ = alpha_field(model, centers, solution.phi)
    psi_up = max(0.0, float(np.max(a[0])))
    psi_lo = min(0.0, float(np.min(a[0])))
    lam = lambda_bound(model, solution.grid)
    growth = np.exp(lam * solution.tau_values)[:, None]
    # gaps (step, side, cell), positive = violation; the flat argmax is the
    # first worst entry in step, then lower-before-upper, then cell order
    gaps = np.stack([psi_lo * growth - a, a - psi_up * growth], axis=1)
    k, side, i = np.unravel_index(int(np.argmax(gaps)), gaps.shape)
    worst = max(0.0, float(gaps[k, side, i]))
    where = {"step": 0, "cell": 0, "side": "none"}
    if worst > 0.0:
        where = {"step": int(k), "cell": int(i),
                 "side": ("lower", "upper")[side],
                 "tau": float(solution.tau_values[k]),
                 "x": float(centers[i]), "alpha": float(a[k, i])}
    return CheckReport(
        check_name="maximum-principle",
        bound_lhs=worst,
        bound_rhs=0.0,
        tolerance=tol,
        worst_violation=worst,
        context={"psi_lower": psi_lo, "psi_upper": psi_up, "lambda": lam,
                 "worst_location": where},
    )
