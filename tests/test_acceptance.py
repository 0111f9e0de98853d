"""Acceptance criteria, one test per criterion, each printing a pass/fail
line. Run with `pytest tests/test_acceptance.py -v -s`.

The piecewise-profile PDE runs (criteria 4-6) use the monotone upwind flux: at
this data set's cell Peclet number (about 4 at the initial front) the
arithmetic-mean flux overshoots the initial maximum by about 0.2, which
breaks the pointwise comparison ordering; upwinding preserves it exactly.
"""

import time

import numpy as np
import pytest

from riccati_hjb import (
    DaraUtility,
    DecisionSet,
    PDEConfig,
    PortfolioModel,
    SpatialGrid,
    TabulatedPhi0,
    closed_form_n2,
    contraction_budget,
    maximum_principle_report,
    mms_convergence_study,
    monotonicity_certificate,
    sobolev_norm,
    solve,
    solve_alpha,
)


def report(num, ok, desc, detail=""):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


PAPER_CFG = dict(t_final=10.0, n_steps=400, picard_tol=1e-10, picard_max=100,
                 upwind=True)


@pytest.fixture(scope="module")
def paper_grid():
    return SpatialGrid(-8.0, 8.0, 400)


@pytest.fixture(scope="module")
def const_run(paper_model, paper_grid):
    util = DaraUtility(9.0, 9.0, 0.0, truncation_gamma=None)
    cfg = PDEConfig(grid=paper_grid, **PAPER_CFG)
    t0 = time.perf_counter()
    sol = solve(paper_model, util, cfg)
    return sol, time.perf_counter() - t0


@pytest.fixture(scope="module")
def dara_run(paper_model, paper_grid):
    util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
    cfg = PDEConfig(grid=paper_grid, **PAPER_CFG)
    return solve(paper_model, util, cfg)


def test_criterion_01_closed_form_vs_qp(paper_model):
    phis = np.linspace(0.5, 20.0, 1000)
    t0 = time.perf_counter()
    cf = closed_form_n2(paper_model)
    qp = np.array([solve_alpha(paper_model, 0.0, float(p)).value
                   for p in phis])
    gap = float(np.max(np.abs(cf.evaluate(phis) - qp)))
    elapsed = time.perf_counter() - t0
    report(1, gap <= 1e-10 and elapsed < 1.0,
           "closed form tracks the QP oracle on 1000 points in [0.5, 20]",
           f"max gap {gap:.2e}, {elapsed:.2f}s")


def test_criterion_02_breakpoints(paper_model, finite_breakpoints_model):
    cf = closed_form_n2(paper_model)
    near_two = abs(cf.phi_lo - 2.0) < 0.5
    eps = 1e-8
    lo_change = (solve_alpha(paper_model, 0.0, cf.phi_lo - eps).active_set
                 != solve_alpha(paper_model, 0.0, cf.phi_lo + eps).active_set)
    # this data set has an interior minimum-variance portfolio, so the upper
    # breakpoint is the unbounded marker; a second model exercises that side
    upper_marker = cf.phi_hi == np.inf
    cf2 = closed_form_n2(finite_breakpoints_model)
    hi_change = (
        solve_alpha(finite_breakpoints_model, 0.0, cf2.phi_hi - eps).active_set
        != solve_alpha(finite_breakpoints_model, 0.0, cf2.phi_hi + eps).active_set)
    report(2, near_two and lo_change and upper_marker and hi_change,
           "lower breakpoint lies near 2 and the active set flips there",
           f"phi_lo {cf.phi_lo:.4f}, flip within {eps:g}")


def test_criterion_03_monotonicity_certificates(paper_model, fund_menu_model):
    reps = [monotonicity_certificate(m, n_pairs=1000, seed=42)
            for m in (paper_model, fund_menu_model)]
    ok = all(r.passed for r in reps)
    worst = max(r.worst_violation for r in reps)
    report(3, ok, "1000 seeded slope ratios stay inside [omega, L] for the "
                  "simplex and the fund menu", f"worst violation {worst:.2e}")


def test_criterion_04_steady_state(const_run):
    sol, elapsed = const_run
    dev = float(np.max(np.abs(sol.phi - 9.0)))
    report(4, dev <= 1e-8 and elapsed < 10.0,
           "constant initial profile is an exact steady state on the "
           "400x400 grid", f"max deviation {dev:.2e}, {elapsed:.2f}s")


def test_criterion_05_maximum_principle(dara_run, paper_model):
    rep = maximum_principle_report(dara_run, paper_model, tol=1e-8)
    report(5, rep.passed,
           "piecewise initial profile respects the pointwise bounds at "
           "every step", f"worst violation {rep.worst_violation:.2e}")


def test_criterion_06_comparison_ordering(dara_run, const_run):
    sol_lo, (sol_hi, _) = dara_run, const_run
    gap = float(np.max(sol_lo.phi - sol_hi.phi))
    report(6, gap <= 1e-8,
           "lower initial risk aversion stays below the constant run "
           "pointwise", f"max excess {gap:.2e}")


def test_criterion_07_mms_convergence():
    t0 = time.perf_counter()
    study = mms_convergence_study()
    elapsed = time.perf_counter() - t0
    sp = [float(o) for o in study["spatial"]["orders"]]
    tm = [float(o) for o in study["temporal"]["orders"]]
    ok = (all(o >= 1.7 for o in sp) and all(o >= 0.7 for o in tm)
          and elapsed < 60.0)
    report(7, ok, "manufactured-solution orders reach 2 in space and 1 in "
                  "time over two doublings",
           f"spatial {[round(o, 2) for o in sp]}, "
           f"temporal {[round(o, 2) for o in tm]}, {elapsed:.1f}s")


def test_criterion_08_sobolev_norms():
    rng = np.random.default_rng(123)
    worst_parseval = 0.0
    ordered = True
    for _ in range(20):
        n = int(rng.integers(128, 513))
        width = float(rng.uniform(10, 30))
        x = np.linspace(-width / 2, width / 2, n, endpoint=False)
        dx = x[1] - x[0]
        f = (rng.normal() * np.sin(rng.integers(1, 6) * x)
             * np.exp(-(x / (width / 8)) ** 2))
        trap = float(np.sqrt(np.trapezoid(f * f, dx=dx)))
        worst_parseval = max(worst_parseval,
                             abs(sobolev_norm(f, dx, 0.0) - trap))
        norms = [sobolev_norm(f, dx, s) for s in (-1.0, 0.0, 1.0)]
        ordered &= norms[0] <= norms[1] + 1e-15 <= norms[2] + 2e-15
    report(8, worst_parseval <= 1e-10 and ordered,
           "Parseval holds against the trapezoid norm and norms grow "
           "with the order", f"worst Parseval gap {worst_parseval:.2e}")


def test_criterion_09_contraction_budget(singleton_model):
    grid = SpatialGrid(-4.0, 4.0, 64)
    util = TabulatedPhi0(grid.centers, np.full(64, 2.0))
    cfg = PDEConfig(grid=grid, t_final=1.0, n_steps=4)
    sol = solve(singleton_model, util, cfg)
    budget = contraction_budget(singleton_model, sol)
    # closed form for this model: omega = L = 0.02, M = |alpha(2)| = 0.02,
    # |h| = 0.06, Phi = 4, beta = 0.1, t0 = 2 omega / (4 beta^2) = 1
    omega = 0.02
    beta = max(omega, omega * ((0.02 + 0.06) / omega) + 0.02)
    t0_exact = 2.0 * omega / (4.0 * beta**2)
    ok = (abs(budget.t0 - t0_exact) <= 1e-12
          and budget.beta_tilde**2 == 4.0 * budget.beta**2
          and abs(budget.beta - beta) <= 1e-15)
    report(9, ok, "single-asset contraction horizon matches the closed form "
                  "and the dimension factor is exact",
           f"t0 {budget.t0:.6f} vs {t0_exact:.6f}")


def test_criterion_10_menu_geometry(paper_model, fund_menu_model):
    pts = fund_menu_model.decision_set.points
    worst = 0.0
    for i, theta in enumerate(pts):
        menu_one = PortfolioModel(fund_menu_model.mu, fund_menu_model.sigma,
                                  DecisionSet.discrete([theta]))
        v1 = solve_alpha(menu_one, 0.0, 1.0).value
        v2 = solve_alpha(menu_one, 0.0, 3.0).value
        slope = (v2 - v1) / 2.0
        intercept = v1 - slope * 1.0
        worst = max(worst,
                    abs(slope - 0.5 * fund_menu_model.variance(theta)),
                    abs(intercept - (-(fund_menu_model.mu @ theta))))
    dominated = True
    for phi in np.linspace(0.2, 40.0, 211):
        a_menu = solve_alpha(fund_menu_model, 0.0, float(phi)).value
        a_full = solve_alpha(paper_model, 0.0, float(phi)).value
        dominated &= a_menu >= a_full - 1e-12
    report(10, worst <= 1e-14 and dominated,
           "menu lines carry the exact slopes and intercepts and dominate "
           "the simplex value", f"worst coefficient gap {worst:.2e}")
