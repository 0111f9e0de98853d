"""Discrete functional-analytic checks: the strong monotonicity certificate
for the diffusion function, the fixed-point contraction horizon, the energy
estimate of a run and its refined twin, the grid-convergence record of the
same pair, and pointwise bound verification.

The verification bundle is the three checks that can fail: monotonicity,
maximum-principle and energy-estimate. Each is a CheckReport of the two
sides of its inequality, in plain Python numbers, and a tolerance. The
energy takes its H^-1 norm from the scheme's own operator, (I - D_xx)^-1
under the mirror boundary. The contraction budget and the grid-convergence
record are reported, not checked, as the dicts `verify` writes. The
bounds psi e^{lam tau} of the maximum principle take the clamp's growth
rule. The seed of the monotonicity pairs is the bundle's one setting, so
reports are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._lapack import dpttrf, dpttrs
# solve_alpha is unused here, but the traced benchmark wraps it as a boundary
from .alpha import alpha_field, lipschitz_bounds, solve_alpha  # noqa: F401
from .model import PortfolioModel
from .pde import SolutionField, _grown

__all__ = [
    "CheckReport",
    "monotonicity_certificate",
    "contraction_budget",
    "energy_estimate_report",
    "grid_convergence",
    "maximum_principle_report",
]

_SPACE_DIM = 1  # spatial dimension of the PDE runs
MIN_PAIR_GAP = 1e-6  # smallest |phi1 - phi2| of a sampled monotonicity pair
_N_PAIRS = 1000  # monotonicity pairs drawn per certificate
_PHI_RANGE = (0.1, 50.0)  # the phi range the pairs are drawn from
_MAX_PRINCIPLE_TOL = 1e-8


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one analytic-bound check, bound_lhs <= bound_rhs up to
    `tolerance`. It derives worst_violation = max(0, bound_lhs - bound_rhs),
    or inf when a side is nan or inf (max(0, nan) is 0), and passed =
    worst_violation <= tolerance. dataclasses.asdict of it is its JSON."""

    check_name: str
    bound_lhs: float
    bound_rhs: float
    tolerance: float
    worst_violation: float = field(init=False)
    passed: bool = field(init=False)
    context: dict = field(default_factory=dict)

    def __post_init__(self):
        worst = (max(0.0, self.bound_lhs - self.bound_rhs)
                 if math.isfinite(self.bound_lhs)
                 and math.isfinite(self.bound_rhs) else math.inf)
        object.__setattr__(self, "worst_violation", worst)
        object.__setattr__(self, "passed", worst <= self.tolerance)


# --- strong monotonicity of alpha --------------------------------------------

def monotonicity_certificate(model: PortfolioModel,
                             seed: int = 42) -> CheckReport:
    """Check omega <= (alpha(x,phi1) - alpha(x,phi2)) / (phi1 - phi2) <= L
    over up to 1000 seeded random pairs from [0.1, 50] at x = 0, which
    covers every x: alpha is a function of phi minus an inflow term of x
    alone, and that term cancels in the quotient. A pair closer than
    MIN_PAIR_GAP is dropped, not redrawn. The report's sides are those of
    the bound with the larger gap."""
    bounds = lipschitz_bounds(model)
    pairs = np.random.default_rng(seed).uniform(*_PHI_RANGE,
                                                size=(2, _N_PAIRS))
    # keep the quotient well conditioned
    pairs = pairs[:, np.abs(pairs[0] - pairs[1]) >= MIN_PAIR_GAP]
    values, _, _ = alpha_field(model, 0.0, pairs)
    ratios = (values[0] - values[1]) / (pairs[0] - pairs[1])
    min_ratio, max_ratio = float(ratios.min()), float(ratios.max())
    # a nan quotient makes both ratios nan, and so a side of the report
    lhs, rhs = ((bounds.omega, min_ratio)
                if bounds.omega - min_ratio >= max_ratio - bounds.big_l
                else (max_ratio, bounds.big_l))
    return CheckReport(
        check_name="monotonicity",
        bound_lhs=lhs,
        bound_rhs=rhs,
        tolerance=1e-10 * max(1.0, bounds.big_l),
        context={
            "omega": bounds.omega, "big_l": bounds.big_l,
            "min_ratio": min_ratio, "max_ratio": max_ratio,
            "n_pairs": pairs.shape[1], "seed": seed,
            "phi_range": list(_PHI_RANGE),
        },
    )


# --- contraction horizon ------------------------------------------------------

def contraction_budget(model: PortfolioModel,
                       solution: SolutionField) -> dict:
    """Conservative contraction constants of a run: the record that
    `verify` reports, not a check.

    The source maps have Lipschitz constant beta = max(L, L Phi +
    M e^{lam T}), with Phi = phi_bound = (M e^{lam T} + max|h|) / omega the
    a-priori solution bound and M e^{lam T} the run's clamp level. With
    beta_tilde^2 = 2 (1 + d) beta^2, d = 1, the map contracts on horizons
    below t0 = 2 omega / beta_tilde^2. The first of the `windows` spans t0,
    every later restart adds t0/2; None when t0 is 0, as it is once
    M e^{lam T} or beta_tilde^2 overflows to inf, and when their count
    overflows (a horizon near the float limit).
    """
    bounds = lipschitz_bounds(model)
    centers = solution.grid.centers
    h, _, _ = alpha_field(model, centers, np.zeros_like(centers))
    me_lt = solution.bounds.upper
    phi_bound = (me_lt + float(np.max(np.abs(h)))) / bounds.omega
    beta = max(bounds.big_l, bounds.big_l * phi_bound + me_lt)
    beta_tilde = math.sqrt(2.0 * (1 + _SPACE_DIM)) * beta
    try:
        t0 = 2.0 * bounds.omega / beta_tilde**2
    except OverflowError:  # beta_tilde^2 is beyond the float range
        t0 = 0.0
    horizon = solution.bounds.horizon
    spans = (horizon - t0) / (t0 / 2.0) if t0 / 2.0 > 0.0 else math.inf
    windows = 1 + max(0, math.ceil(spans)) if spans < math.inf else None
    return {"omega": bounds.omega, "beta": beta, "phi_bound": phi_bound,
            "beta_tilde": beta_tilde, "t0": t0, "horizon": horizon,
            "windows": windows, "horizon_exceeds_t0": horizon > t0}


# --- energy estimate -----------------------------------------------------------

def _hminus1_sq(levels, dx: float):
    """dx <v, (I - D_xx)^-1 v> for each row v of `levels`, with D_xx the
    scheme's cell-centred second difference under the mirror ghost (ghost =
    edge value). I - D_xx is symmetric positive definite and tridiagonal:
    dpttrf factors it once and dpttrs solves every row as a right-hand side,
    both LAPACK routines that `_lapack` loads from scipy's extension."""
    n = levels.shape[-1]
    r = 1.0 / dx**2
    diag = np.full(n, 1.0 + 2.0 * r)
    diag[[0, -1]] -= r  # the mirror ghost cancels one neighbour
    diag, off, _ = dpttrf(diag, np.full(n - 1, -r))
    solved, _ = dpttrs(diag, off, levels.T)
    return dx * np.einsum("kn,nk->k", levels, solved)


@np.errstate(over="ignore", invalid="ignore")  # inf fails the check
def _energy(solution: SolutionField, model: PortfolioModel) -> dict:
    """Energy numbers of one run. The energy is sup_tau |phi|_{H^-1}^2 +
    int_0^T |phi|_{L2}^2, and its ratio is taken to the data terms:
    |phi0|_{H^-1}^2 plus the horizon-weighted squared L2 norm of d_xx h."""
    dx = solution.grid.dx
    centers = solution.grid.centers
    hm1_sq = _hminus1_sq(solution.phi, dx)
    l2_sq = dx * np.sum(solution.phi**2, axis=1)
    sup_hm1 = float(np.max(hm1_sq))
    int_l2 = float(np.trapezoid(l2_sq, solution.tau_values))
    energy = sup_hm1 + int_l2

    h, _, _ = alpha_field(model, centers, np.zeros_like(centers))
    he = np.concatenate([[h[0]], h, [h[-1]]])  # mirror, matching the scheme
    d2h = (he[2:] - 2.0 * he[1:-1] + he[:-2]) / dx**2
    rhs_data = float(hm1_sq[0] + solution.t_final * np.sum(d2h**2) * dx)
    ratio = (energy / rhs_data if rhs_data > 0
             else (0.0 if energy == 0 else math.inf))
    return {
        "energy": energy,
        "ratio": ratio,
        "sup_hminus1_sq": sup_hm1,
        "int_l2_sq": int_l2,
        "rhs_data": rhs_data,
        "n_cells": solution.grid.n_cells,
        "n_steps": len(solution.tau_values) - 1,
    }


def energy_estimate_report(coarse: SolutionField, fine: SolutionField,
                           model: PortfolioModel) -> CheckReport:
    """Energy check of a run and its refined twin (twice the cells and the
    steps): ratio_fine <= 1.10 * ratio_coarse.

    The estimate's constant is not pinned down analytically, so the check
    asks that the ratio of the energy to the data terms stay bounded under
    refinement. A nan or inf ratio of either run makes a side of the
    comparison non-finite, so the report fails.
    """
    runs = {"coarse": _energy(coarse, model), "fine": _energy(fine, model)}
    ratio_c, ratio_f = runs["coarse"]["ratio"], runs["fine"]["ratio"]
    bound = 1.10 * ratio_c
    return CheckReport(
        check_name="energy-estimate",
        bound_lhs=ratio_f,
        bound_rhs=bound,
        tolerance=1e-12,
        context={"ratio_coarse": ratio_c, "ratio_fine": ratio_f, **runs},
    )


def grid_convergence(coarse: SolutionField, fine: SolutionField) -> dict:
    """Coarse-minus-fine difference of a run and its refined twin (twice the
    cells and the steps), with the fine run restricted to the coarse grid:
    the mean of each cell pair, exact for finite volumes, at every other
    level. Reports its max and L1 norm (dx sum |d|) at the horizon, the x of
    the horizon max, the max over all levels with its tau and x, and the
    share of the horizon L1 within an eighth of the domain's width of either
    end (0 when the L1 is 0). A record, not a check: nothing here fails."""
    f = fine.phi
    if f.shape != (2 * coarse.phi.shape[0] - 1, 2 * coarse.phi.shape[1]):
        raise ValueError(f"fine run of shape {f.shape} is not the twin of a "
                         f"coarse run of shape {coarse.phi.shape}")
    d = np.abs(coarse.phi - 0.5 * (f[::2, 0::2] + f[::2, 1::2]))
    grid = coarse.grid
    x = grid.centers
    at_end = d[-1]
    i = int(np.argmax(at_end))
    k, j = np.unravel_index(int(np.argmax(d)), d.shape)
    l1 = grid.dx * float(np.sum(at_end))
    reach = (grid.x_max - grid.x_min) / 8.0
    near_ends = (x - grid.x_min < reach) | (grid.x_max - x < reach)
    end_l1 = grid.dx * float(np.sum(at_end[near_ends]))
    return {
        "horizon_max": float(at_end[i]),
        "horizon_max_x": float(x[i]),
        "horizon_l1": l1,
        "max": float(d[k, j]),
        "max_tau": float(coarse.tau_values[k]),
        "max_x": float(x[j]),
        "end_share": end_l1 / l1 if l1 > 0.0 else 0.0,
    }


# --- pointwise a-priori bounds ---------------------------------------------------

def maximum_principle_report(solution: SolutionField,
                             model: PortfolioModel) -> CheckReport:
    """Verify psi_min e^{lam tau} <= alpha(x, phi(x,tau)) <= psi_max e^{lam tau}
    at every stored step, with psi_min/max the signed extremes of
    alpha(x, phi0) capped at zero and lam the run's drift-gradient bound:
    the largest distance of alpha outside these bounds is at most 1e-8.
    The context's `capped_at_zero` lists the sides ("lower", "upper") whose
    extreme lay on the far side of zero, so that their psi is 0. Its
    `lambda_dx` (dx lam: the upwind scheme is monotone only up to about 1)
    and `growth_overflows` (e^{lam T} is inf, so the bound of a nonzero psi
    is vacuous) name the bound's premises; pass and fail do not read them."""
    centers = solution.grid.centers
    a, _, _ = alpha_field(model, centers, solution.phi)
    a0_min, a0_max = float(np.min(a[0])), float(np.max(a[0]))
    psi_lo, psi_up = min(0.0, a0_min), max(0.0, a0_max)
    capped = [side for side, far in (("lower", a0_min > 0.0),
                                     ("upper", a0_max < 0.0)) if far]
    lam = solution.bounds.lam
    lower, upper = (_grown(psi, lam, solution.tau_values)[:, None]
                    for psi in (psi_lo, psi_up))
    # gaps (step, side, cell), positive = violation; the flat argmax is the
    # first worst entry in step, then lower-before-upper, then cell order
    gaps = np.stack([lower - a, a - upper], axis=1)
    k, side, i = np.unravel_index(int(np.argmax(gaps)), gaps.shape)
    # np.maximum carries a nan gap into the distance
    excess = float(np.maximum(0.0, gaps[k, side, i]))
    where = {"step": 0, "cell": 0, "side": "none"}
    if excess != 0.0:
        where = {"step": int(k), "cell": int(i),
                 "side": ("lower", "upper")[side],
                 "tau": float(solution.tau_values[k]),
                 "x": float(centers[i]), "alpha": float(a[k, i])}
    return CheckReport(
        check_name="maximum-principle",
        bound_lhs=excess,
        bound_rhs=0.0,
        tolerance=_MAX_PRINCIPLE_TOL,
        context={"psi_lower": psi_lo, "psi_upper": psi_up,
                 "capped_at_zero": capped, "lambda": lam,
                 "lambda_dx": lam * solution.grid.dx,
                 "growth_overflows": bool(np.isinf(
                     _grown(1.0, lam, solution.t_final))),
                 "worst_location": where},
    )
