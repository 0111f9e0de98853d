import dataclasses
import itertools
import json
import math
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from riccati_hjb import (
    ArctanUtility,
    DaraUtility,
    DecisionSet,
    InflowProfile,
    ModelError,
    PDEConfig,
    PortfolioModel,
    SolverError,
    SpatialGrid,
    TabulatedPhi0,
    closed_form_n2,
    contraction_budget,
    maximum_principle_report,
    mms_convergence_study,
    phi0_profile,
    singleton_mms,
    solve,
)
from riccati_hjb import cli, pde
from riccati_hjb.config import load_run
from riccati_hjb.alpha import alpha_field
from clamp_twin import clamp_level
from two_asset_data import MU_S, MU_B, two_asset_sigma


def paper_cfg(n_cells=100, n_steps=50, t_final=2.0, **kw):
    return PDEConfig(grid=SpatialGrid(-8.0, 8.0, n_cells), t_final=t_final,
                     n_steps=n_steps, **kw)


def walls(boundary, left, right):
    """The dirichlet setting of a parametrized boundary kind."""
    return (left, right) if boundary == "dirichlet" else None


def one_step(model, state, cfg):
    """One implicit step of cfg's length from the given level: a one-step
    solve from the level as a tabulated profile, which starts its sweeps
    from that level."""
    grid = cfg.grid
    one = dataclasses.replace(cfg, t_final=cfg.dtau, n_steps=1)
    util = TabulatedPhi0(grid.centers, state, truncation_gamma=None)
    return solve(model, util, one).phi[1]


def run_cutoff(model, util, grid, t_final):
    """The clamp range a one-step solve records for its run."""
    cfg = PDEConfig(grid=grid, t_final=t_final, n_steps=1)
    return solve(model, util, cfg).bounds


def dense_reference_solve(model, phi0, grid, t_final, n_steps, tol=1e-12,
                          itmax=60):
    """Independent stepper: same implicit Euler / frozen-coefficient sweep
    definitions, assembled as a dense matrix row by row and solved with the
    generic dense solver. Single-asset models only (affine alpha)."""
    m = float(model.mu[0])
    s2 = float(model.sigma[0, 0])
    n, dx = grid.n_cells, grid.dx
    dtau = t_final / n_steps

    def alpha(v):
        return -m + 0.5 * s2 * v

    levels = [phi0.copy()]
    for _ in range(n_steps):
        prev = levels[-1]
        w = prev.copy()
        for _ in range(itmax):
            we = np.concatenate([[w[0]], w, [w[-1]]])  # mirror ghosts
            ae = alpha(we)
            slope = 0.5 * s2
            ce = ae - slope * we
            big = np.zeros((n, n))
            rhs = prev / dtau

            def add(i, j_ext, coef):
                # fold ghost columns onto their mirror cells
                j = j_ext - 1
                if j < 0:
                    j = 0
                if j > n - 1:
                    j = n - 1
                big[i, j] += coef

            for i in range(n):
                j = i + 1
                big[i, i] += 1.0 / dtau
                # -d_xx of the linearized alpha
                add(i, j - 1, -slope / dx**2)
                add(i, j, 2.0 * slope / dx**2)
                add(i, j + 1, -slope / dx**2)
                rhs[i] += (ce[j + 1] - 2.0 * ce[j] + ce[j - 1]) / dx**2
                # +d_x of the frozen-coefficient advective flux
                add(i, j + 1, ae[j + 1] / (2 * dx))
                add(i, j, ae[j] / (2 * dx))
                add(i, j, -ae[j] / (2 * dx))
                add(i, j - 1, -ae[j - 1] / (2 * dx))
            u = np.linalg.solve(big, rhs)
            if np.max(np.abs(u - w)) <= tol:
                w = u
                break
            w = u
        levels.append(w)
    return np.array(levels)


class TestSteadyState:
    def test_constant_profile_is_exact(self, paper_model):
        util = DaraUtility(9.0, 9.0, 0.0, truncation_gamma=None)
        cfg = paper_cfg(n_cells=120, n_steps=60, t_final=3.0)
        sol = solve(paper_model, util, cfg)
        assert np.max(np.abs(sol.phi - 9.0)) <= 1e-10
        assert all(d.picard_iterations == 1 for d in sol.diagnostics)

    def test_initial_row_is_sampled_profile(self, paper_model):
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        cfg = paper_cfg()
        sol = solve(paper_model, util, cfg)
        np.testing.assert_array_equal(
            sol.phi[0], phi0_profile(util, cfg.grid))

    def test_every_step_met_tolerance(self, paper_model):
        util = DaraUtility(9.0, 6.0, 2.0)
        cfg = paper_cfg()
        sol = solve(paper_model, util, cfg)
        assert all(d.residual <= cfg.picard_tol for d in sol.diagnostics)


class TestAgainstDenseOracle:
    def test_trajectory_matches(self, singleton_model):
        grid = SpatialGrid(-4.0, 4.0, 24)
        x = grid.centers
        phi0 = 2.0 + np.exp(-x**2)
        util = TabulatedPhi0(x, phi0, truncation_gamma=None)
        cfg = PDEConfig(grid=grid, t_final=0.5, n_steps=6, picard_tol=1e-12)
        sol = solve(singleton_model, util, cfg)
        # the oracle has no clamp: the run's must not engage
        assert sol.cutoff_excess == 0.0
        ref = dense_reference_solve(singleton_model, phi0, grid, 0.5, 6)
        assert np.max(np.abs(sol.phi - ref)) <= 1e-8

    def test_single_step_matches(self, singleton_model):
        grid = SpatialGrid(-4.0, 4.0, 24)
        phi0 = 2.0 + np.cos(np.pi * grid.centers / 4.0)
        cfg = PDEConfig(grid=grid, t_final=0.1, n_steps=1, picard_tol=1e-12)
        util = TabulatedPhi0(grid.centers, phi0, truncation_gamma=None)
        sol = solve(singleton_model, util, cfg)
        assert sol.cutoff_excess == 0.0   # as the unclamped oracle
        ref = dense_reference_solve(singleton_model, phi0, grid, 0.1, 1)
        assert np.max(np.abs(sol.phi[1] - ref[-1])) <= 1e-8


class TestCutoff:
    def test_auto_level_constant_nine(self, paper_model):
        util = DaraUtility(9.0, 9.0, 0.0, truncation_gamma=None)
        grid = SpatialGrid(-8.0, 8.0, 64)
        cut = run_cutoff(paper_model, util, grid, 10.0)
        cf = closed_form_n2(paper_model)
        assert cut.m == pytest.approx(abs(cf.evaluate(9.0)), abs=1e-14)
        assert cut.lam == 0.0
        assert cut.lower == -cut.upper  # time-constant, symmetric

    def test_zero_profile_uses_h(self):
        model = PortfolioModel(np.array([MU_S, MU_B]), two_asset_sigma(),
                               DecisionSet.simplex(2),
                               inflow=InflowProfile(1.0, 1.0, 2.0))
        grid = SpatialGrid(-2.0, 2.0, 64)
        util = TabulatedPhi0(grid.centers, np.zeros(64))
        cut = run_cutoff(model, util, grid, 1.0)
        # oracle: h(x) = -max over theta of mu(x, theta), by brute force
        th1 = np.linspace(0, 1, 20001)
        best = np.empty(64)
        for i, x in enumerate(grid.centers):
            th = np.column_stack([th1, 1 - th1])
            mu_all = (th @ model.mu - 0.5 * model.variance(th)
                      + model.inflow.term(x))
            best[i] = np.max(mu_all)
        assert cut.m == pytest.approx(np.max(np.abs(best)), abs=1e-9)

    def test_inactive_cutoff_is_bitwise_neutral(self, paper_model):
        # alpha stays in [-0.067, -0.057] on this run, so its clamp at
        # M ~ 0.067 never engages in any sweep, nor does one at a level
        # well above M; all three runs must agree bit for bit
        util = DaraUtility(9.0, 6.0, 2.0)
        cfg = paper_cfg(n_cells=80, n_steps=20, upwind=True)
        auto = solve(paper_model, util, cfg)
        assert auto.cutoff_excess == 0.0
        for level in (1.0, np.inf):
            with clamp_level(level):
                twin = solve(paper_model, util, cfg)
            assert np.array_equal(auto.phi, twin.phi)

    def test_auto_cutoff_neutral_on_steady_state(self, paper_model):
        # the constant profile sits exactly on the auto clamp level, where
        # clipping returns the same float
        util = DaraUtility(9.0, 9.0, 0.0, truncation_gamma=None)
        cfg = paper_cfg(n_cells=64, n_steps=10)
        a = solve(paper_model, util, cfg)
        with clamp_level(np.inf):
            b = solve(paper_model, util, cfg)
        assert a.cutoff_excess == 0.0
        assert np.array_equal(a.phi, b.phi)

    def test_excess_sees_the_ghost_cells(self, paper_model):
        # the inflowing wall's ghost value 2 * 3 - phi carries alpha past
        # the clamp range while the cells stay inside it: the clamp changes
        # the run, and the excess reports it (9.8e-4)
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        cfg = paper_cfg(n_cells=100, n_steps=40, t_final=4.0, upwind=True,
                        dirichlet=(9.0, 3.0))
        sol = solve(paper_model, util, cfg)
        with clamp_level(np.inf):
            free = solve(paper_model, util, cfg)
        assert np.max(np.abs(sol.phi - free.phi)) > 1e-3
        assert sol.cutoff_excess > 1e-4

    # over 300 seeded draws of these ranges, 147 runs had no excess, and
    # their worst gap to the unclamped twin was 8.9e-6 picard_tol: the
    # clamp may engage in an early sweep of a step, which the converged
    # step does not keep. With the excess taken over the cells only, not
    # the ghost values, 18 of 165 such runs broke the bound, by up to 0.86
    @given(a0=st.floats(0.5, 15.0), a1=st.floats(0.5, 15.0),
           x_star=st.floats(-3.0, 3.0), gamma=st.sampled_from([None, 8.0]),
           n_cells=st.integers(10, 60), n_steps=st.integers(5, 20),
           dtau=st.floats(0.05, 0.3), upwind=st.booleans(),
           walls=st.one_of(st.none(), st.tuples(st.floats(1.0, 15.0),
                                                st.floats(1.0, 15.0))),
           picard_tol=st.sampled_from([1e-10, 1e-6]))
    @settings(max_examples=60, deadline=None)
    def test_unengaged_clamp_matches_unclamped_twin(
            self, paper_model, a0, a1, x_star, gamma, n_cells, n_steps,
            dtau, upwind, walls, picard_tol):
        util = DaraUtility(a0, a1, x_star, truncation_gamma=gamma)
        cfg = paper_cfg(n_cells=n_cells, n_steps=n_steps,
                        t_final=n_steps * dtau, upwind=upwind,
                        dirichlet=walls, picard_tol=picard_tol)
        sol = solve(paper_model, util, cfg)
        if sol.cutoff_excess == 0.0:
            with clamp_level(np.inf):
                free = solve(paper_model, util, cfg)
            assert np.max(np.abs(sol.phi - free.phi)) <= picard_tol

    def test_zero_level_stays_zero_where_growth_overflows(self, tmp_path):
        # one asset with inflow runs under the log-wealth drift, so
        # phi0 = 2 gives alpha = -m + (s^2/2)(phi0 + 1) = 0 below the
        # inflow ramp, where the whole grid lies: M = 0, and the steep ramp
        # gives lambda = 7497.5, so e^{lambda T} is inf. The clamp stays
        # [0, 0] and the steady state is exact
        doc = {"model": {"assets": {"mu": [0.06]}, "covariance": [[0.04]],
                         "decision_set": "simplex",
                         "inflow": {"eps_rate": 5.0, "y_minus": 1.0,
                                    "y_plus": 1.001}},
               "utility": {"kind": "dara", "a0": 2.0, "a1": 2.0,
                           "x_star": 0.0, "truncation_gamma": None},
               "pde": {"x_min": -8.0, "x_max": -1.0, "n_cells": 40,
                       "t_final": 1.0, "n_steps": 10, "upwind": True}}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["solve", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 0
        _, model, util, cfg, _ = load_run(path)
        sol = solve(model, util, cfg)
        assert sol.bounds.m == 0.0
        assert sol.bounds.lam == pytest.approx(7497.5, abs=0.01)
        assert sol.bounds.upper == 0.0 and sol.bounds.lower == 0.0
        assert sol.cutoff_excess == 0.0
        assert [d.picard_iterations for d in sol.diagnostics] == [1] * 10
        assert np.all(sol.phi == 2.0)
        budget = contraction_budget(model, sol)
        assert all(math.isfinite(v) for v in budget.values())
        rep = maximum_principle_report(sol, model)
        assert rep.passed and rep.context["growth_overflows"]

    def test_nonzero_level_grows_to_inf(self):
        # only a zero level is kept at 0: any other overflows to +-inf
        bounds = pde.CutoffBounds(1e-300, 7497.5, 1.0)
        assert bounds.upper == np.inf and bounds.lower == -np.inf
        assert pde.CutoffBounds(0.0, 7497.5, 1.0).upper == 0.0
        assert pde.CutoffBounds(1e300, 100.0, 10.0).upper == np.inf

    def test_cutoff_level_is_not_a_setting(self, paper_model):
        grid = SpatialGrid(-8.0, 8.0, 64)
        with pytest.raises(TypeError):
            PDEConfig(grid=grid, t_final=1.0, n_steps=4, cutoff_m=0.5)
        sol = solve(paper_model, DaraUtility(9.0, 6.0, 2.0),
                    PDEConfig(grid=grid, t_final=1.0, n_steps=4))
        assert not hasattr(sol, "clamped") and not hasattr(sol, "cutoff")

    def test_positive_lambda_with_inflow(self):
        model = PortfolioModel(np.array([MU_S, MU_B]), two_asset_sigma(),
                               DecisionSet.simplex(2),
                               inflow=InflowProfile(1.0, 1.0, 2.0))
        grid = SpatialGrid(-2.0, 2.0, 64)
        cut = run_cutoff(model, DaraUtility(9.0, 6.0, 0.5, 1.8), grid, 2.0)
        assert cut.lam > 0
        assert cut.upper == pytest.approx(cut.m * np.exp(cut.lam * 2.0))


class TestMaximumPrincipleAndComparison:
    def test_dara_respects_bounds(self, paper_model):
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        cfg = paper_cfg(n_cells=200, n_steps=100, t_final=5.0, upwind=True)
        sol = solve(paper_model, util, cfg)
        rep = maximum_principle_report(sol, paper_model)
        assert rep.passed
        assert rep.context["psi_upper"] == 0.0  # alpha(phi0) is negative here

    def test_dirichlet_forcing_violates_bounds(self, paper_model):
        # pin the inflowing (right) wall below the initial minimum so the
        # advected boundary data breaks the lower pointwise bound
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        cfg = paper_cfg(n_cells=100, n_steps=40, t_final=4.0,
                        dirichlet=(6.0, 0.5))
        sol = solve(paper_model, util, cfg)
        rep = maximum_principle_report(sol, paper_model)
        assert not rep.passed
        loc = rep.context["worst_location"]
        assert loc["side"] == "lower"
        assert loc["cell"] == cfg.grid.n_cells - 1  # forced at the wall

    def test_comparison_ordering_upwind(self, paper_model):
        cfg = paper_cfg(n_cells=150, n_steps=75, t_final=3.0, upwind=True)
        hi = solve(paper_model, DaraUtility(9.0, 9.0, 0.0, None), cfg)
        lo = solve(paper_model, DaraUtility(9.0, 6.0, 2.0, 8.0), cfg)
        assert np.all(lo.phi <= hi.phi + 1e-8)

    # a probe of 500 seeded draws of these ranges held with a worst excess
    # of -3.8e-3
    @given(a0=st.floats(0.5, 15.0), a1=st.floats(0.5, 15.0),
           d0=st.floats(0.0, 5.0), d1=st.floats(0.0, 5.0),
           x_star=st.floats(-3.0, 3.0), gamma=st.sampled_from([None, 8.0]),
           n_cells=st.integers(10, 60), n_steps=st.integers(5, 20),
           dtau=st.floats(0.05, 0.3))
    @settings(max_examples=60, deadline=None)
    def test_comparison_ordering_property(self, paper_model, a0, a1, d0, d1,
                                          x_star, gamma, n_cells, n_steps,
                                          dtau):
        # ordered DARA profiles (a0 <= b0, a1 <= b1, same x_star) stay
        # ordered at every level under the monotone flux
        cfg = paper_cfg(n_cells=n_cells, n_steps=n_steps,
                        t_final=n_steps * dtau, upwind=True)
        lo = solve(paper_model, DaraUtility(a0, a1, x_star, gamma), cfg)
        hi = solve(paper_model, DaraUtility(a0 + d0, a1 + d1, x_star, gamma),
                   cfg)
        assert np.max(lo.phi - hi.phi) <= 1e-8

    def test_central_flux_overshoots_at_this_peclet(self, paper_model):
        # cell Peclet ~ 4 at the initial front: the arithmetic-mean flux is
        # not monotone there, which is why the piecewise-profile runs use upwind
        cfg = paper_cfg(n_cells=200, n_steps=100, t_final=5.0, upwind=False)
        sol = solve(paper_model, DaraUtility(9.0, 6.0, 2.0, 8.0), cfg)
        assert sol.phi.max() > 9.0 + 1e-3


def assert_mass_balance(sol, cfg):
    """sum(phi_k+1 - phi_k) dx = dtau (G_right - G_left + src) every step.

    The change of each cell is summed before it is scaled, so no mass of the
    level cancels and the balance holds to rounding (about 2.5e-14 here);
    the face-flux correction k * delta it pins is 1e-11 at convergence and
    larger at a loose sweep tolerance."""
    change = np.diff(sol.phi, axis=0).sum(axis=1) * (cfg.grid.dx / cfg.dtau)
    for k, d in enumerate(sol.diagnostics):
        rhs = d.flux_right - d.flux_left + d.source_integral
        assert change[k] == pytest.approx(rhs, abs=1e-12)


class TestConservation:
    @pytest.mark.parametrize(
        "upwind,boundary",
        [(False, "neumann"), (True, "neumann"),
         (False, "dirichlet"), (True, "dirichlet")],
        ids=["central-neumann", "upwind-neumann",
             "central-dirichlet", "upwind-dirichlet"])
    def test_mass_balance_matches_boundary_fluxes(self, paper_model, upwind,
                                                  boundary):
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        cfg = paper_cfg(n_cells=100, n_steps=50, t_final=2.0, upwind=upwind,
                        dirichlet=walls(boundary, 9.0, 6.0))
        assert_mass_balance(solve(paper_model, util, cfg), cfg)

    @pytest.mark.parametrize("boundary", ["neumann", "dirichlet"])
    @pytest.mark.parametrize("upwind", [False, True],
                             ids=["central", "upwind"])
    def test_mass_balance_at_loose_tolerance(self, paper_model, upwind,
                                             boundary):
        # the balance holds by construction of the linearized face fluxes,
        # whatever the last correction was
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        cfg = paper_cfg(n_cells=100, n_steps=50, t_final=2.0, upwind=upwind,
                        dirichlet=walls(boundary, 9.0, 6.0),
                        picard_tol=1e-4)
        assert_mass_balance(solve(paper_model, util, cfg), cfg)

    def test_mass_balance_with_clamp_engaged(self, paper_model):
        # the centered flux overshoots past the clamp level here (excess
        # 1.2e-3); alpha(phi0) spans about [-0.067, -0.057], so a level of
        # 0.03 clips every cell and the linearized flux carries no velocity
        # slope
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        for level, upwind in ((None, False), (0.03, True)):
            cfg = paper_cfg(n_cells=100, n_steps=50, t_final=2.0,
                            upwind=upwind)
            with clamp_level(level):
                sol = solve(paper_model, util, cfg)
            assert sol.cutoff_excess > 1e-3
            assert_mass_balance(sol, cfg)

    def test_mass_balance_with_source(self, singleton_model):
        grid = SpatialGrid(-4.0, 4.0, 60)
        phi0, source, _ = singleton_mms(grid)
        util = TabulatedPhi0(grid.centers, phi0)
        cfg = PDEConfig(grid=grid, t_final=0.5, n_steps=20, mms_source=source)
        assert_mass_balance(solve(singleton_model, util, cfg), cfg)

    # dtau >= 0.1 keeps dx / dtau <= 16, which scales the rounding of the
    # summed change: over 9000 seeded draws of these ranges the balance
    # held to 1e-13. A level of None is the run's own clamp, inf none
    @given(a1=st.floats(0.5, 15.0), gap=st.floats(0.1, 5.0),
           x_star=st.floats(-3.0, 3.0), gamma=st.sampled_from([None, 8.0]),
           n_cells=st.integers(10, 60), n_steps=st.integers(5, 20),
           dtau=st.floats(0.1, 0.3), upwind=st.booleans(),
           boundary=st.sampled_from(["neumann", "dirichlet"]),
           level=st.one_of(st.none(), st.just(np.inf),
                           st.floats(0.01, 0.1)),
           picard_tol=st.sampled_from([1e-10, 1e-4]))
    @settings(max_examples=60, deadline=None)
    def test_mass_balance_property(self, paper_model, a1, gap, x_star, gamma,
                                   n_cells, n_steps, dtau, upwind, boundary,
                                   level, picard_tol):
        a0 = a1 + gap  # decreasing absolute risk aversion
        util = DaraUtility(a0, a1, x_star, truncation_gamma=gamma)
        cfg = paper_cfg(n_cells=n_cells, n_steps=n_steps,
                        t_final=n_steps * dtau, upwind=upwind,
                        dirichlet=walls(boundary, a0, a1),
                        picard_tol=picard_tol)
        with clamp_level(level):
            sol = solve(paper_model, util, cfg)
        assert_mass_balance(sol, cfg)


class TestNewtonSweeps:
    # a frozen advective coefficient needs 4.27 sweeps per step on the
    # shipped 400x400 stocks/bonds DARA run, an exact Jacobian started from
    # the previous level about 3 and from the quadratic extrapolation about
    # 2.07; started from the extrapolation through up to eight levels it
    # needs 1.16 there, 1.14 with the centered flux (whose overshoot engages
    # the auto clamp), 1.16 with every cell clamped and 1.18 with Dirichlet
    # walls. With the stored factors serving the first sweep after each
    # one-sweep step it needs 1.18 on the shipped run and 1.195 with
    # Dirichlet walls, the other two unchanged
    @pytest.mark.parametrize("kw, level", [
        (dict(n_cells=400, n_steps=400, t_final=10.0, upwind=True), None),
        (dict(upwind=False), None),
        (dict(upwind=True), 0.03),
        (dict(n_cells=400, n_steps=400, t_final=10.0, upwind=True,
              dirichlet=(9.0, 6.0)), None),
    ], ids=["shipped", "central", "clamped", "dirichlet"])
    def test_sweeps_per_step(self, paper_model, kw, level):
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        with clamp_level(level):
            sol = solve(paper_model, util, paper_cfg(**kw))
        sweeps = [d.picard_iterations for d in sol.diagnostics]
        assert np.mean(sweeps) <= 1.4

    # Newton converges quadratically only with the exact Jacobian: from a
    # converged level perturbed by 1e-5, |delta_2| / |delta_1|^2 measured
    # 1.3e-4 to 5.6e-4 in every case here (the same at perturbations 1e-4
    # and 1e-3, so it is the quadratic term, not rounding). Dropping the
    # face-velocity slope, passing the clamp slope on outside the clamp
    # range or dropping either upwinded velocity part makes the convergence
    # linear, with ratios of 56 to 1900. The bound sits about 5x above the
    # exact Jacobian's worst case.
    NEWTON_RATIO = 3e-3

    @staticmethod
    def newton_ratio(model, util, cfg):
        sol = solve(model, util, cfg)
        geom = pde._Geometry(model, cfg, sol.bounds)
        prev, u = sol.phi[4], sol.phi[5]
        tau = float(sol.tau_values[5])
        fixed, _ = pde._fixed_residual(cfg, geom, prev, tau)

        def correction(level):
            # delta lives in the run's buffer, which the next sweep refills
            delta, _, _, _ = pde._sweep(model, cfg, geom, fixed, level,
                                        tau)
            return delta.copy()

        for _ in range(3):   # to rounding, below the run's tolerance
            u = u + correction(u)
        start = u + 1e-5 * np.random.default_rng(5).uniform(-1.0, 1.0, u.size)
        delta_1 = correction(start)
        delta_2 = correction(start + delta_1)
        d1, d2 = np.max(np.abs(delta_1)), np.max(np.abs(delta_2))
        assert d1 > 5e-6
        return d2 / d1 ** 2

    @pytest.mark.parametrize("clamp", [False, True], ids=["free", "clamped"])
    @pytest.mark.parametrize("boundary", ["neumann", "dirichlet"])
    @pytest.mark.parametrize("upwind", [False, True],
                             ids=["central", "upwind"])
    def test_quadratic_convergence(self, paper_model, upwind, boundary,
                                   clamp):
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        # a level of 0.03 clips every cell (alpha spans about -0.067 to
        # -0.057), so the advective coefficient carries no slope there
        cfg = paper_cfg(n_cells=40, n_steps=20, t_final=2.0, upwind=upwind,
                        dirichlet=walls(boundary, 9.0, 6.0))
        with clamp_level(0.03 if clamp else None):
            ratio = self.newton_ratio(paper_model, util, cfg)
        assert ratio <= self.NEWTON_RATIO

    @pytest.mark.parametrize("boundary", ["neumann", "dirichlet"])
    def test_quadratic_convergence_both_upwind_directions(
            self, finite_breakpoints_model, boundary):
        # above phi = 20 alpha turns positive here, so the face velocity
        # changes sign (|v| >= 1.6e-3 at every face) and both upwinded
        # parts enter the Jacobian; on the run above v < 0 everywhere
        util = DaraUtility(30.0, 10.0, 0.0)
        cfg = paper_cfg(n_cells=40, n_steps=20, t_final=2.0, upwind=True,
                        dirichlet=walls(boundary, 30.0, 10.0))
        ratio = self.newton_ratio(finite_breakpoints_model, util, cfg)
        assert ratio <= self.NEWTON_RATIO

    def test_extrapolated_start_keeps_the_step(self, paper_model):
        # a one-step solve starts from the previous level, the run from the
        # extrapolated one: both must land on the same implicit steps. The
        # run's clamp does not engage, and a one-step solve would clamp at
        # the level of its own start, so those run unclamped
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        cfg = paper_cfg(n_cells=400, n_steps=400, t_final=10.0, upwind=True)
        sol = solve(paper_model, util, cfg)
        assert sol.cutoff_excess == 0.0
        state = sol.phi[0]
        worst = 0.0
        with clamp_level(np.inf):
            for k in range(cfg.n_steps):
                state = one_step(paper_model, state, cfg)
                worst = max(worst,
                            float(np.max(np.abs(state - sol.phi[k + 1]))))
        assert worst <= 1e-9


class TestStoredFactors:
    # the first sweep of a step after a one-sweep step solves with that
    # step's factors (simplified Newton). Every sweep's correction is
    # applied and the stop rule is unchanged, so the stored level is the
    # implicit step to the sweep tolerance, whatever Jacobian the path to
    # it used
    @pytest.fixture(scope="class")
    def reused_run(self, paper_model):
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        cfg = paper_cfg(n_cells=100, n_steps=100, t_final=10.0, upwind=True)
        return cfg, solve(paper_model, util, cfg)

    def test_reused_levels_are_implicit_steps(self, paper_model,
                                              reused_run):
        # 58 of the 100 steps reuse the stored factors. Each level k + 1 is
        # compared with a one-step solve from level k, which factors fresh
        # in every sweep, and the fresh Newton correction at each level is
        # taken with the independent face-by-face sweep: both measured at
        # most 1.1e-13, and both must stay within one picard_tol (1e-10).
        # The run's clamp does not engage, and a one-step solve would clamp
        # at the level of its own start, so those run unclamped
        cfg, sol = reused_run
        assert sum(d.jacobians == 0 for d in sol.diagnostics) >= 50
        assert sol.cutoff_excess == 0.0
        with clamp_level(np.inf):
            for k in range(cfg.n_steps):
                step = one_step(paper_model, sol.phi[k], cfg)
                assert np.max(np.abs(step - sol.phi[k + 1])) <= cfg.picard_tol
        for k in range(cfg.n_steps):
            delta = face_by_face_sweep(paper_model, cfg, sol.bounds,
                                       sol.phi[k], sol.phi[k + 1],
                                       float(sol.tau_values[k + 1]))[0]
            assert np.max(np.abs(delta)) <= cfg.picard_tol

    def test_rejected_factors_serve_a_chord_step(self, paper_model,
                                                 reused_run):
        # factors of the first level's Jacobian, given to step 50 from the
        # previous level: their correction misses the tolerance, so it is
        # applied as a chord step and the next sweep factors its own. The
        # step took 3 sweeps with 2 factorizations, the fresh step 3 with 3,
        # and both must land on the step to the sweep tolerance
        cfg, sol = reused_run
        geom = pde._Geometry(paper_model, cfg, sol.bounds)
        tau_1 = float(sol.tau_values[1])
        fixed, _ = pde._fixed_residual(cfg, geom, sol.phi[0], tau_1)
        *_, stale = pde._sweep(paper_model, cfg, geom, fixed,
                               sol.phi[0].copy(), tau_1)
        k, tau = 50, float(sol.tau_values[51])
        fresh_level, level = sol.phi[k].copy(), sol.phi[k].copy()
        fresh, _ = pde._advance(paper_model, cfg, geom, sol.phi[k],
                                fresh_level, tau, k)
        d, jacobian = pde._advance(paper_model, cfg, geom, sol.phi[k], level,
                                   tau, k, stale)
        assert fresh.jacobians == fresh.picard_iterations >= 2
        assert d.jacobians == d.picard_iterations - 1 >= 1
        assert np.max(np.abs(level - fresh_level)) <= cfg.picard_tol
        # a step of more than one sweep hands no factors on
        assert jacobian is None


    def test_sweeps_never_exceed_picard_max(self, fund_menu_model):
        # with the centered flux the fund menu has steps whose stored
        # factors miss the tolerance and that then need two fresh sweeps:
        # the stored-factor sweep counts against picard_max like any other
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        cfg = paper_cfg(n_cells=100, n_steps=100, t_final=10.0,
                        upwind=False, picard_max=3)
        sol = solve(fund_menu_model, util, cfg)
        assert max(d.picard_iterations
                   for d in sol.diagnostics) <= cfg.picard_max
        assert any(0 < d.jacobians < d.picard_iterations == cfg.picard_max
                   for d in sol.diagnostics)

    def test_steps_of_several_sweeps_factor_every_sweep(self):
        # the unjittered five-asset ladder with inflow of the benchmark's
        # simplex5_inflow workload: no step converges in one sweep, so no
        # step is handed stored factors that would miss the tolerance
        vols = np.array([0.06, 0.10, 0.14, 0.18, 0.22])
        corr = np.full((5, 5), 0.2)
        np.fill_diagonal(corr, 1.0)
        model = PortfolioModel(0.02 + 0.35 * vols,
                               corr * np.outer(vols, vols),
                               DecisionSet.simplex(5),
                               inflow=InflowProfile(1.0, 1.0, 2.0))
        cfg = paper_cfg(n_cells=128, n_steps=40, t_final=1.0, upwind=True)
        sol = solve(model, DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0),
                    cfg)
        assert all(d.jacobians == d.picard_iterations >= 2
                   for d in sol.diagnostics)


class TestTracedCallSites:
    # the traced benchmark counts sweeps by wrapping pde.alpha_field and
    # pde.solve_banded, so each sweep must call both once, and the cutoff
    # level of an auto-clamped run one more alpha evaluation
    @staticmethod
    def counted_solve(model, cfg, monkeypatch):
        """solve with the benchmark's two call sites and the factorizations
        counted: returns the solution, the (phi, alpha) of every alpha
        evaluation, the number of tridiagonal solves and the number of
        factorizations."""
        alpha_calls, solves, factors = [], [0], [0]
        field, banded, factor = (pde.alpha_field, pde.solve_banded,
                                 pde.factor_banded)

        def counted_field(model, x, phi, **kwargs):
            out = field(model, x, phi, **kwargs)
            # phi and alpha may be the run's buffers, refilled by the next
            # sweep
            alpha_calls.append((np.array(phi), out[0].copy()))
            return out

        def counted_solve(*args):
            solves[0] += 1
            return banded(*args)

        def counted_factor(*args):
            factors[0] += 1
            return factor(*args)

        monkeypatch.setattr(pde, "alpha_field", counted_field)
        monkeypatch.setattr(pde, "solve_banded", counted_solve)
        monkeypatch.setattr(pde, "factor_banded", counted_factor)
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        return solve(model, util, cfg), alpha_calls, solves[0], factors[0]

    def test_one_alpha_and_one_solve_per_sweep(self, paper_model,
                                               monkeypatch):
        cfg = paper_cfg(n_cells=40, n_steps=10, upwind=True)
        sol, alpha_calls, solves, factors = self.counted_solve(
            paper_model, cfg, monkeypatch)
        iters = [d.picard_iterations for d in sol.diagnostics]
        assert len(alpha_calls) == sum(iters) + 1
        assert solves == sum(iters)
        assert factors == sum(d.jacobians for d in sol.diagnostics)
        # each step's alpha range is that of the cells and the two ghost
        # values at the iterate of its last sweep
        last = np.cumsum(iters)
        for d, k in zip(sol.diagnostics, last):
            pe, ae = alpha_calls[k]
            assert np.array_equal(alpha_field(paper_model, 0.0, pe)[0], ae)
            assert d.alpha_min == ae.min()
            assert d.alpha_max == ae.max()

    def test_shipped_run_work(self, paper_model, monkeypatch):
        # the Newton work of the shipped 400x400 stocks/bonds DARA run: a
        # change of the sweep that keeps the algorithm keeps these counts.
        # Every sweep factoring its own Jacobian took 464 sweeps; with the
        # stored factors serving the first sweep after each one-sweep step
        # it takes 473, of which 142 factor a Jacobian
        cfg = paper_cfg(n_cells=400, n_steps=400, t_final=10.0, upwind=True)
        sol, alpha_calls, solves, factors = self.counted_solve(
            paper_model, cfg, monkeypatch)
        sweeps = sum(d.picard_iterations for d in sol.diagnostics)
        assert sweeps == 473
        assert len(alpha_calls) == sweeps + 1
        assert solves == sweeps
        assert factors == sum(d.jacobians for d in sol.diagnostics) == 142
        # a step tries the stored factors exactly when the step before it
        # took one sweep; a tried step spends one sweep on them, and one
        # whose correction they met takes no other
        for before, d in zip((None, *sol.diagnostics), sol.diagnostics):
            tried = before is not None and before.picard_iterations == 1
            assert d.picard_iterations - d.jacobians == int(tried)
            assert (d.jacobians == 0) == (tried and d.picard_iterations == 1)
        assert any(0 < d.jacobians < d.picard_iterations
                   for d in sol.diagnostics)


class TestStepRecord:
    def test_fields_default_immutability_and_equality(self, paper_model):
        names = ("picard_iterations", "jacobians", "residual", "alpha_min",
                 "alpha_max", "flux_left", "flux_right", "source_integral")
        record = pde.StepDiagnostics
        assert tuple(f.name for f in dataclasses.fields(record)) == names
        d = record(2, 1, 1e-12, -0.1, 0.2, 0.5, -0.5)
        assert d.source_integral == 0.0
        assert d == record(*[getattr(d, name) for name in names])
        assert d == record(**{name: getattr(d, name) for name in names})
        assert d != record(2, 1, 1e-12, -0.1, 0.2, 0.5, -0.5, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.residual = 0.0
        # the benchmark's own test perturbs a step's record so
        moved = dataclasses.replace(d, flux_left=0.75)
        assert (moved.flux_left, moved.flux_right) == (0.75, -0.5)
        cfg = paper_cfg(n_cells=40, n_steps=10, upwind=True)
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        first, second = (solve(paper_model, util, cfg).diagnostics
                         for _ in range(2))
        assert all(type(d) is record for d in first)
        assert first == second


class TestPredictor:
    @pytest.mark.parametrize("degree", range(8))
    def test_polynomial_history_is_extrapolated_exactly(self, degree):
        # levels that are a polynomial of the given degree in k: L levels
        # extrapolate a polynomial of degree up to L - 1 exactly, so eight
        # levels carry degree 7
        rng = np.random.default_rng(degree)
        coef = rng.uniform(-1.0, 1.0, size=(degree + 1, 5))
        # C-ordered rows, as solve keeps its levels
        phi = np.ascontiguousarray(
            np.polynomial.polynomial.polyval(0.1 * np.arange(14), coef).T)
        first = degree if degree <= 1 else degree + 1
        for k in range(first, 13):
            # the start is written into phi[k + 1]: keep the exact level
            exact = phi[k + 1].copy()
            start = pde._predict(phi, k)
            assert np.shares_memory(start, phi[k + 1])
            np.testing.assert_allclose(start, exact, rtol=0, atol=1e-12)
            # later steps extrapolate through the exact levels
            phi[k + 1] = exact

    def test_sweeps_across_models(self, paper_model, fund_menu_model,
                                  singleton_model, inflow_model):
        # 100 steps of 0.04 on 100 cells: a mean of 1.48 sweeps per step over
        # these 32 runs (1.4825, 1.4775 with every sweep factoring its
        # Jacobian), 2.19 from the quadratic extrapolation
        grid = SpatialGrid(-8.0, 8.0, 100)
        sweeps = []
        for model, util, upwind, boundary in itertools.product(
                (paper_model, fund_menu_model, singleton_model, inflow_model),
                (DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0),
                 ArctanUtility(truncation_gamma=8.0)),
                (False, True), ("neumann", "dirichlet")):
            ends = phi0_profile(util, grid)[[0, -1]]
            cfg = paper_cfg(n_cells=100, n_steps=100, t_final=4.0,
                            upwind=upwind, dirichlet=walls(boundary, *ends))
            sweeps += [d.picard_iterations
                       for d in solve(model, util, cfg).diagnostics]
        assert np.mean(sweeps) <= 1.9


def face_by_face_sweep(model, cfg, clamp, prev, phi, tau):
    """Independent reference of one Newton sweep in plain Python: the step
    residual R_i = (G_{i+1/2} - G_{i-1/2}) / dx - (phi_i - prev_i) / dtau +
    source_i of the total face fluxes G = d_x alpha - advective flux, its
    Jacobian differentiated face by face with the ghost values chained to
    the edge cells, and the tridiagonal system solved by elimination
    without pivoting. Returns (delta, alpha_range, linearized end fluxes,
    source integral, face velocities)."""
    n, dx, dtau = cfg.grid.n_cells, cfg.grid.dx, cfg.dtau
    prev, phi = prev.tolist(), phi.tolist()
    if cfg.dirichlet is None:
        sign, ghosts = 1.0, (phi[0], phi[-1])
    else:
        sign = -1.0
        ghosts = (2.0 * cfg.dirichlet[0] - phi[0],
                  2.0 * cfg.dirichlet[1] - phi[-1])
    pe = [ghosts[0], *phi, ghosts[1]]
    centers = cfg.grid.centers.tolist()
    xe = [centers[0] - dx, *centers, centers[-1] + dx]
    ae, se, _ = pde.alpha_field(model, np.array(xe), np.array(pe))
    alpha, slope = ae.tolist(), se.tolist()
    lo, hi = clamp.lower, clamp.upper
    w = [min(max(a, lo), hi) for a in alpha]
    dw = [s if lo <= a <= hi else 0.0 for a, s in zip(alpha, slope)]

    # face j between extended cells j and j+1: G and its derivatives by the
    # values of cell j (left) and cell j+1 (right)
    flux, d_left, d_right, velocities = [], [], [], []
    for j in range(n + 1):
        if cfg.upwind:
            v = 0.5 * (w[j] + w[j + 1])
            k = j if v >= 0.0 else j + 1     # the upwind cell
            adv = v * pe[k]
            d_adv = [0.5 * dw[j] * pe[k], 0.5 * dw[j + 1] * pe[k]]
            d_adv[k - j] += v
            velocities.append(v)
        else:
            adv = 0.5 * (w[j] * pe[j] + w[j + 1] * pe[j + 1])
            d_adv = [0.5 * (w[j] + dw[j] * pe[j]),
                     0.5 * (w[j + 1] + dw[j + 1] * pe[j + 1])]
        flux.append((alpha[j + 1] - alpha[j]) / dx - adv)
        d_left.append(-slope[j] / dx - d_adv[0])
        d_right.append(slope[j + 1] / dx - d_adv[1])

    src = [0.0] * n
    if cfg.mms_source is not None:
        src = np.asarray(cfg.mms_source(cfg.grid.centers, tau)).tolist()
    # J delta = R with J = -dR/dphi; cell i is extended cell i + 1
    rhs = [(flux[i + 1] - flux[i]) / dx - (phi[i] - prev[i]) / dtau + src[i]
           for i in range(n)]
    sub = [d_left[i] / dx for i in range(n)]
    sup = [-d_right[i + 1] / dx for i in range(n)]
    diag = [1.0 / dtau - (d_left[i + 1] - d_right[i]) / dx for i in range(n)]
    diag[0] += sign * sub[0]
    diag[-1] += sign * sup[-1]
    for i in range(1, n):
        f = sub[i] / diag[i - 1]
        diag[i] -= f * sup[i - 1]
        rhs[i] -= f * rhs[i - 1]
    delta = [0.0] * n
    delta[-1] = rhs[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        delta[i] = (rhs[i] - sup[i] * delta[i + 1]) / diag[i]

    g_left = flux[0] + (sign * d_left[0] + d_right[0]) * delta[0]
    g_right = flux[-1] + (d_left[-1] + sign * d_right[-1]) * delta[-1]
    return (np.array(delta), (min(alpha), max(alpha)),
            (g_left, g_right), sum(src) * dx, velocities)


class TestSweepAgainstFaceReference:
    # random iterates of phi on the model whose alpha turns positive above
    # phi = 20; an engaged clamp cuts alpha at its median magnitude, a free
    # one sits at infinity
    @staticmethod
    def check(model, cfg, clamp, low, high):
        """Compare one sweep with the face-by-face reference at five random
        iterates with phi_prev in [low, high], to 1e-12; returns the alpha
        range and the face velocities of the reference at each."""
        grid = cfg.grid
        rng = np.random.default_rng(7)
        seen = []
        for _ in range(5):
            prev = rng.uniform(low, high, grid.n_cells)
            phi = prev + rng.uniform(-0.5, 0.5, grid.n_cells)
            cutoff = pde.CutoffBounds(m=np.inf, lam=0.0, horizon=1.0)
            if clamp:
                a = pde.alpha_field(model, grid.centers, phi)[0]
                cutoff = pde.CutoffBounds(m=float(np.median(np.abs(a))),
                                          lam=0.0, horizon=1.0)
                assert np.any(np.abs(a) > cutoff.upper)
            geom = pde._Geometry(model, cfg, cutoff)
            tau = 0.35
            fixed, src_int = pde._fixed_residual(cfg, geom, prev, tau)
            delta, alpha_range, fluxes, _ = pde._sweep(model, cfg, geom,
                                                       fixed, phi, tau)
            ref_delta, ref_range, ref_fluxes, ref_src, velocities = \
                face_by_face_sweep(model, cfg, cutoff, prev, phi, tau)
            scale = np.max(np.abs(ref_delta))
            assert np.max(np.abs(delta - ref_delta)) <= 1e-12 * scale
            assert alpha_range == pytest.approx(ref_range, rel=1e-12)
            assert fluxes == pytest.approx(ref_fluxes, rel=1e-12)
            assert src_int == pytest.approx(ref_src, rel=1e-12, abs=0.0)
            seen.append((ref_range, velocities))
        return seen

    # phi in [5, 40], so that the face velocity takes both signs
    @pytest.mark.parametrize("source", [False, True], ids=["plain", "mms"])
    @pytest.mark.parametrize("clamp", [False, True], ids=["free", "engaged"])
    @pytest.mark.parametrize("boundary", ["neumann", "dirichlet"])
    @pytest.mark.parametrize("upwind", [False, True],
                             ids=["central", "upwind"])
    def test_matches_reference(self, finite_breakpoints_model, upwind,
                               boundary, clamp, source):
        grid = SpatialGrid(-4.0, 4.0, 24)
        cfg = PDEConfig(grid=grid, t_final=1.0, n_steps=20, upwind=upwind,
                        dirichlet=walls(boundary, 30.0, 10.0),
                        mms_source=((lambda x, tau: (1.0 + tau) * np.cos(x))
                                    if source else None))
        for _, velocities in self.check(finite_breakpoints_model, cfg,
                                        clamp, 5.0, 40.0):
            if upwind:
                assert min(velocities) < 0.0 < max(velocities)

    # alpha of one strict sign at every cell and ghost value, where every
    # face takes the same upwind side: phi in [5, 15] with walls (12, 8)
    # keeps it below 0, where the free sweep takes the right side as a
    # view, and phi in [25, 40] with walls (35, 35) above, where every
    # sweep chooses face by face
    @pytest.mark.parametrize("sign, low, high, wall_values", [
        (-1.0, 5.0, 15.0, (12.0, 8.0)),
        (1.0, 25.0, 40.0, (35.0, 35.0)),
    ], ids=["negative", "positive"])
    @pytest.mark.parametrize("clamp", [False, True], ids=["free", "engaged"])
    @pytest.mark.parametrize("boundary", ["neumann", "dirichlet"])
    def test_single_sign_matches_reference(self, finite_breakpoints_model,
                                           boundary, clamp, sign, low, high,
                                           wall_values):
        grid = SpatialGrid(-4.0, 4.0, 24)
        cfg = PDEConfig(grid=grid, t_final=1.0, n_steps=20, upwind=True,
                        dirichlet=walls(boundary, *wall_values))
        for alpha_range, velocities in self.check(finite_breakpoints_model,
                                                  cfg, clamp, low, high):
            assert min(sign * a for a in alpha_range) > 0.0
            assert min(sign * v for v in velocities) > 0.0


class TestTridiagonalSolve:
    @pytest.mark.parametrize("n", [8, 57, 400])
    def test_matches_scipy_bitwise(self, n):
        rng = np.random.default_rng(n)
        lower, upper = rng.normal(size=(2, n - 1))
        diag = 2.0 + np.abs(np.r_[0.0, lower]) + np.abs(np.r_[upper, 0.0])
        diag *= rng.choice([-1.0, 1.0], size=n)
        rhs = rng.normal(size=n)
        ab = np.zeros((3, n))
        ab[0, 1:], ab[1], ab[2, :-1] = upper, diag, lower
        ref = scipy.linalg.solve_banded((1, 1), ab, rhs)
        bands = (lower.copy(), diag.copy(), upper.copy())
        factors = pde.factor_banded(*bands)
        mine = pde.solve_banded(factors, rhs.copy())
        assert np.array_equal(mine, ref)
        # the factors are new arrays and serve a second right-hand side
        for band, kept in zip(bands, (lower, diag, upper)):
            assert np.array_equal(band, kept)
        rhs_2 = rng.normal(size=n)
        assert np.array_equal(pde.solve_banded(factors, rhs_2.copy()),
                              scipy.linalg.solve_banded((1, 1), ab, rhs_2))
        # a small diagonal makes the factorization swap rows
        ab[1] = diag = 0.01 * diag
        factors = pde.factor_banded(lower, diag, upper)
        assert np.any(factors[4] != np.arange(1, n + 1))
        assert np.array_equal(pde.solve_banded(factors, rhs.copy()),
                              scipy.linalg.solve_banded((1, 1), ab, rhs))

    def test_singular_system_is_solver_error(self, singleton_model):
        # a constant state whose advective coefficient is clamped to zero
        # and no time derivative leave the mirror-BC diffusion operator,
        # whose constant null vector gives an exactly zero last pivot
        grid = SpatialGrid(-4.0, 4.0, 16)
        cfg = PDEConfig(grid=grid, t_final=1.0, n_steps=4)
        geom = pde._Geometry(singleton_model, cfg,
                             pde.CutoffBounds(m=0.0, lam=0.0, horizon=1.0))
        geom.inv_dtau = 0.0
        phi = np.full(16, 2.0)
        k = 0.5 * 0.04 / grid.dx**2   # alpha slope sigma^2 / 2 over dx^2
        with pytest.raises(SolverError, match="tridiagonal solve") as exc:
            pde._sweep(singleton_model, cfg, geom, phi * geom.inv_dtau, phi,
                       0.5)
        # the reported range is that of the assembled diagonal, which the
        # solve leaves in place
        assert f"diag range [{k:.3e}, {2 * k:.3e}]" in str(exc.value)


class TestManufacturedSolution:
    def test_orders(self):
        study = mms_convergence_study()
        assert all(1.7 <= o <= 2.3 for o in study["spatial"]["orders"])
        assert all(0.7 <= o <= 1.3 for o in study["temporal"]["orders"])

    def test_exact_solution_satisfies_mirror_bc(self):
        grid = SpatialGrid(-4.0, 4.0, 50)
        _, _, exact = singleton_mms(grid)
        ghost_l = exact(grid.x_min - grid.dx / 2, 0.3)
        first = exact(grid.x_min + grid.dx / 2, 0.3)
        assert ghost_l == pytest.approx(first, abs=1e-15)


class TestSteadyViscousShock:
    # one asset under the simple drift has alpha = -m + (s^2/2) phi, so
    # u = s^2 phi - m solves viscous Burgers u_tau + u u_x = nu u_xx with
    # nu = s^2/2, and u = -A tanh(A x / (2 nu)) is an exact steady state:
    # an oracle for the unforced scheme. The runs start on the exact
    # profile, as a viscous shock on a bounded interval is metastable and a
    # perturbed start drifts for a long time (Reyna & Ward 1995).

    @staticmethod
    def shock(x, amp, m=0.06, s2=0.04):
        return (m - amp * np.tanh(amp * x / s2)) / s2

    @pytest.mark.parametrize("amp", [0.01, 0.05])
    @pytest.mark.parametrize("upwind, order", [(False, 2.0), (True, 1.0)])
    def test_order_against_the_exact_profile(self, singleton_model, amp,
                                             upwind, order):
        errors = []
        for n in (50, 100, 200, 400):
            grid = SpatialGrid(-8.0, 8.0, n)
            exact = self.shock(grid.centers, amp)
            util = TabulatedPhi0(grid.centers, exact, truncation_gamma=None)
            cfg = PDEConfig(grid=grid, t_final=3000.0, n_steps=30,
                            upwind=upwind, dirichlet=(self.shock(-8.0, amp),
                                                      self.shock(8.0, amp)))
            error = solve(singleton_model, util, cfg).phi[-1] - exact
            errors.append(np.max(np.abs(error)))
        assert abs(np.log2(errors[-2] / errors[-1]) - order) <= 0.1
        if upwind:
            # the upwind flux adds the numerical diffusion |w| dx / 2, so
            # its shock is wider than the exact one: above it right of the
            # centre and below it left of it, in the mean. A downwinded flux
            # is first order too at these cell Peclet numbers (|alpha| dx /
            # slope at most 0.9), but its shock is narrower
            assert np.sum(error * np.sign(grid.centers)) > 0.0


class TestTravellingViscousShock:
    # the time-dependent case of the same oracle: u = c - A tanh(A (x -
    # c tau) / (2 nu)) solves viscous Burgers, a shock moving at speed c.
    # With A = 0.1 and c = 0.05 it moves by 1 over T = 20 on [-9, 9], so
    # A (L - |c| T) / (2 nu) = 20 and the exact values at the walls stay
    # constant to rounding: the walls hold them. The ladder of 50, 100, 200
    # and 400 cells takes 10, 40, 160 and 640 steps, dtau refined as dx^2,
    # so that the first-order time error falls with the second-order space
    # error. Observed orders: centered 1.51, 1.97, 2.00; upwind 1.46, 0.98,
    # 1.00. cutoff_excess stays at rounding (at most 2.8e-14, against
    # M = 0.055)
    AMP, SPEED, X_MAX, T_FINAL = 0.1, 0.05, 9.0, 20.0
    LADDER = ((50, 10), (100, 40), (200, 160), (400, 640))

    @classmethod
    def shock(cls, x, tau, m=0.06, s2=0.04):
        u = cls.SPEED - cls.AMP * np.tanh(cls.AMP * (x - cls.SPEED * tau)
                                          / s2)
        return (m + u) / s2

    @pytest.mark.parametrize("upwind, order", [(False, 2.0), (True, 1.0)])
    def test_order_against_the_moving_profile(self, singleton_model,
                                              upwind, order):
        errors = []
        for n, steps in self.LADDER:
            grid = SpatialGrid(-self.X_MAX, self.X_MAX, n)
            util = TabulatedPhi0(grid.centers, self.shock(grid.centers, 0.0),
                                 truncation_gamma=None)
            walls = (self.shock(-self.X_MAX, 0.0),
                     self.shock(self.X_MAX, 0.0))
            assert walls == (self.shock(-self.X_MAX, self.T_FINAL),
                             self.shock(self.X_MAX, self.T_FINAL))
            cfg = PDEConfig(grid=grid, t_final=self.T_FINAL, n_steps=steps,
                            upwind=upwind, dirichlet=walls)
            sol = solve(singleton_model, util, cfg)
            assert sol.cutoff_excess <= 1e-12
            error = sol.phi[-1] - self.shock(grid.centers, self.T_FINAL)
            errors.append(np.max(np.abs(error)))
        assert abs(np.log2(errors[-2] / errors[-1]) - order) <= 0.1
        if upwind:
            # the upwind shock is the wider one, as in the steady case: a
            # downwinded flux gives first order too, with a narrower shock
            centre = self.SPEED * self.T_FINAL
            assert np.sum(error * np.sign(grid.centers - centre)) > 0.0


@pytest.fixture(scope="module")
def inflow_model():
    return PortfolioModel(np.array([MU_S, MU_B]), two_asset_sigma(),
                          DecisionSet.simplex(2),
                          inflow=InflowProfile(1.0, 1.0, 2.0))


class TestInflowRuns:

    def test_growing_bounds_hold(self, inflow_model):
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        cfg = paper_cfg(n_cells=160, n_steps=80, t_final=2.0, upwind=True)
        sol = solve(inflow_model, util, cfg)
        rep = maximum_principle_report(sol, inflow_model)
        assert rep.passed
        assert rep.context["lambda"] > 0  # drift gradient from the inflow

    def test_clamp_stays_disengaged(self, inflow_model):
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        cfg = paper_cfg(n_cells=120, n_steps=40, t_final=1.0, upwind=True)
        sol = solve(inflow_model, util, cfg)
        assert sol.cutoff_excess <= 1e-12

    def test_x_dependence_shows_up(self, inflow_model):
        # the inflow term bends the profile where wealth is small, so the
        # solution loses the pure front structure of the no-inflow run
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        cfg = paper_cfg(n_cells=120, n_steps=40, t_final=1.0, upwind=True)
        with_inflow = solve(inflow_model, util, cfg)
        base = PortfolioModel(np.array([MU_S, MU_B]), two_asset_sigma(),
                              DecisionSet.simplex(2),
                              drift_mode="log_wealth")
        without = solve(base, util, cfg)
        assert np.max(np.abs(with_inflow.phi[-1] - without.phi[-1])) > 1e-3

    def test_inflow_term_is_worked_out_once_per_run(self, inflow_model,
                                                    monkeypatch):
        # the sweep subtracts the term the run's geometry holds: the term
        # is evaluated once there and once by the cutoff level, whatever
        # the number of sweeps, and the run is bitwise the run whose every
        # sweep recomputes it
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        cfg = paper_cfg(n_cells=60, n_steps=20, t_final=1.0, upwind=True)
        evaluations = []
        term = InflowProfile.term

        def counted_term(self, x):
            evaluations.append(np.shape(x))
            return term(self, x)

        monkeypatch.setattr(InflowProfile, "term", counted_term)
        sol = solve(inflow_model, util, cfg)
        assert evaluations == [(60,), (62,)]
        assert sum(d.picard_iterations for d in sol.diagnostics) > 20

        field = pde.alpha_field

        def recomputing_field(model, x, phi, **kwargs):
            kwargs.pop("inflow_term", None)
            return field(model, x, phi, **kwargs)

        monkeypatch.setattr(pde, "alpha_field", recomputing_field)
        twin = solve(inflow_model, util, cfg)
        assert sol.phi.tobytes() == twin.phi.tobytes()
        assert sol.diagnostics == twin.diagnostics


class TestArctanRun:
    def test_sign_changing_profile_integrates(self, paper_model):
        # phi0 = 2x/(1+x^2) changes sign, so the run exercises alpha below
        # the convexity threshold (vertex regime) as well
        util = ArctanUtility(truncation_gamma=8.0)
        cfg = paper_cfg(n_cells=160, n_steps=40, t_final=1.0, upwind=True)
        sol = solve(paper_model, util, cfg)
        rep = maximum_principle_report(sol, paper_model)
        assert rep.passed
        assert sol.phi[0].min() < 0 < sol.phi[0].max()
        assert np.all(np.isfinite(sol.phi))


class TestSolverErrors:
    def test_picard_nonconvergence_reports_step(self, paper_model):
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        cfg = paper_cfg(n_cells=60, n_steps=10, picard_max=1,
                        picard_tol=1e-14)
        with pytest.raises(SolverError) as err:
            solve(paper_model, util, cfg)
        stalled = re.fullmatch(r"Newton sweeps stalled at tau=0.2 \(step 0\): "
                               r"correction (\S+) > tol 1.000e-14",
                               str(err.value))
        assert stalled and float(stalled[1]) > 1e-14

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_update_is_solver_error(self, singleton_model, bad):
        # a non-finite source reaches the correction through the residual;
        # the step must stop at once, not sweep on to a stall
        grid = SpatialGrid(-4.0, 4.0, 16)
        cfg = PDEConfig(grid=grid, t_final=1.0, n_steps=4,
                        mms_source=lambda x, tau: np.full_like(x, bad))
        util = TabulatedPhi0(grid.centers, np.ones(16))
        with pytest.raises(SolverError) as err:
            solve(singleton_model, util, cfg)
        assert str(err.value) == "non-finite update at tau=0.25"

    def test_overflowing_sweep_is_solver_error(self):
        # the upwind face flux overflows; the run stops at the non-finite
        # update without a RuntimeWarning, which the suite makes an error
        model = PortfolioModel(np.array([0.1, 0.05]), np.diag([0.04, 1e300]),
                               DecisionSet.simplex(2))
        util = DaraUtility(1e300, 6.0, 2.0, truncation_gamma=8.0)
        cfg = paper_cfg(n_cells=40, n_steps=5, t_final=1.0, upwind=True)
        with pytest.raises(SolverError,
                           match="^non-finite update at tau=0.2$"):
            solve(model, util, cfg)

    def test_config_validation(self):
        grid = SpatialGrid(-1.0, 1.0, 16)
        with pytest.raises(Exception, match="t_final"):
            PDEConfig(grid=grid, t_final=-1.0, n_steps=4)
        with pytest.raises(Exception, match="n_steps"):
            PDEConfig(grid=grid, t_final=1.0, n_steps=0)
        with pytest.raises(Exception, match="dirichlet"):
            PDEConfig(grid=grid, t_final=1.0, n_steps=4, dirichlet=(1.0,))
        with pytest.raises(Exception, match="picard_max"):
            PDEConfig(grid=grid, t_final=1.0, n_steps=4, picard_max=0)
        # 1/dtau overflows, and below that dtau itself is 0
        for t_final in (1e-310, 5e-324):
            with pytest.raises(ModelError, match="1/dtau is not finite"):
                PDEConfig(grid=grid, t_final=t_final, n_steps=10)
        # the ghost value 2 g of a wall at g overflows, or g is not finite
        for walls in ((1e308, 6.0), (6.0, -1e308), (np.nan, 6.0),
                      (6.0, np.inf)):
            with pytest.raises(ModelError, match="ghost value"):
                PDEConfig(grid=grid, t_final=1.0, n_steps=4, dirichlet=walls)
        PDEConfig(grid=grid, t_final=1.0, n_steps=4, dirichlet=(8e307, -8e307))

    @pytest.mark.parametrize("tol", [0.0, -1e-10])
    def test_picard_tol_must_be_positive(self, tol):
        grid = SpatialGrid(-1.0, 1.0, 16)
        with pytest.raises(ModelError, match="^picard_tol must be positive$"):
            PDEConfig(grid=grid, t_final=1.0, n_steps=4, picard_tol=tol)

    def test_manufactured_problem_needs_a_symmetric_grid(self):
        with pytest.raises(ModelError, match="^manufactured problem expects "
                                             "a symmetric domain$"):
            singleton_mms(SpatialGrid(-1.0, 2.0, 16))
