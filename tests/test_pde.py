import numpy as np
import pytest
import scipy.linalg

from riccati_hjb import (
    ArctanUtility,
    DaraUtility,
    DecisionSet,
    InflowProfile,
    PDEConfig,
    PicardError,
    PortfolioModel,
    SolverError,
    SpatialGrid,
    TabulatedPhi0,
    closed_form_n2,
    cutoff_level,
    maximum_principle_report,
    mms_convergence_study,
    phi0_profile,
    singleton_mms,
    solve,
    step,
)
from riccati_hjb import pde
from two_asset_data import MU_S, MU_B, two_asset_sigma


def paper_cfg(n_cells=100, n_steps=50, t_final=2.0, **kw):
    return PDEConfig(grid=SpatialGrid(-8.0, 8.0, n_cells), t_final=t_final,
                     n_steps=n_steps, **kw)


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
        cfg = PDEConfig(grid=grid, t_final=0.5, n_steps=6, picard_tol=1e-12,
                        cutoff_m=None)
        sol = solve(singleton_model, util, cfg)
        ref = dense_reference_solve(singleton_model, phi0, grid, 0.5, 6)
        assert np.max(np.abs(sol.phi - ref)) <= 1e-8

    def test_single_step_matches(self, singleton_model):
        grid = SpatialGrid(-4.0, 4.0, 24)
        phi0 = 2.0 + np.cos(np.pi * grid.centers / 4.0)
        cfg = PDEConfig(grid=grid, t_final=0.1, n_steps=1, picard_tol=1e-12,
                        cutoff_m=None)
        mine = step(phi0, singleton_model, cfg)
        ref = dense_reference_solve(singleton_model, phi0, grid, 0.1, 1)
        assert np.max(np.abs(mine - ref[-1])) <= 1e-8


class TestStepOp:
    def test_zero_dtau_is_identity(self, singleton_model):
        grid = SpatialGrid(-4.0, 4.0, 16)
        phi = 1.0 + 0.3 * np.sin(grid.centers)
        cfg = PDEConfig(grid=grid, t_final=1.0, n_steps=4)
        out = step(phi, singleton_model, cfg, dtau=0.0)
        np.testing.assert_array_equal(out, phi)
        assert out is not phi

    def test_dtau_override(self, singleton_model):
        grid = SpatialGrid(-4.0, 4.0, 16)
        phi = 1.0 + 0.3 * np.sin(grid.centers)
        cfg = PDEConfig(grid=grid, t_final=1.0, n_steps=4)
        a = step(phi, singleton_model, cfg, dtau=0.25)
        b = step(phi, singleton_model, cfg)  # same: t_final / n_steps = 0.25
        np.testing.assert_allclose(a, b, atol=1e-14)


class TestCutoff:
    def test_auto_level_constant_nine(self, paper_model):
        util = DaraUtility(9.0, 9.0, 0.0, truncation_gamma=None)
        grid = SpatialGrid(-8.0, 8.0, 64)
        cut = cutoff_level(paper_model, util, grid, 10.0)
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
        cut = cutoff_level(model, util, grid, 1.0)
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
        # manual level well above the solution range: the clamp is provably
        # inactive and the two runs must agree bit for bit
        util = DaraUtility(9.0, 6.0, 2.0)
        cfg_wide = paper_cfg(n_cells=80, n_steps=20, cutoff_m=1.0)
        cfg_off = paper_cfg(n_cells=80, n_steps=20, cutoff_m=None)
        a = solve(paper_model, util, cfg_wide)
        b = solve(paper_model, util, cfg_off)
        assert np.array_equal(a.phi, b.phi)

    def test_auto_cutoff_neutral_on_steady_state(self, paper_model):
        # the constant profile sits exactly on the auto clamp level, where
        # clipping returns the same float
        util = DaraUtility(9.0, 9.0, 0.0, truncation_gamma=None)
        a = solve(paper_model, util, paper_cfg(n_cells=64, n_steps=10))
        b = solve(paper_model, util,
                  paper_cfg(n_cells=64, n_steps=10, cutoff_m=None))
        assert np.array_equal(a.phi, b.phi)

    def test_positive_lambda_with_inflow(self):
        model = PortfolioModel(np.array([MU_S, MU_B]), two_asset_sigma(),
                               DecisionSet.simplex(2),
                               inflow=InflowProfile(1.0, 1.0, 2.0))
        grid = SpatialGrid(-2.0, 2.0, 64)
        cut = cutoff_level(model, DaraUtility(9.0, 6.0, 0.5, 1.8), grid, 2.0)
        assert cut.lam > 0
        assert cut.upper == pytest.approx(cut.m * np.exp(cut.lam * 2.0))


class TestMaximumPrincipleAndComparison:
    def test_dara_respects_bounds(self, paper_model):
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        cfg = paper_cfg(n_cells=200, n_steps=100, t_final=5.0, upwind=True)
        sol = solve(paper_model, util, cfg)
        rep = maximum_principle_report(sol, paper_model, tol=1e-8)
        assert rep.passed
        assert rep.context["psi_upper"] == 0.0  # alpha(phi0) is negative here

    def test_dirichlet_forcing_violates_bounds(self, paper_model):
        # pin the inflowing (right) wall below the initial minimum so the
        # advected boundary data breaks the lower pointwise bound
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        cfg = paper_cfg(n_cells=100, n_steps=40, t_final=4.0,
                        boundary="dirichlet", dirichlet_values=(6.0, 0.5))
        sol = solve(paper_model, util, cfg)
        rep = maximum_principle_report(sol, paper_model, tol=1e-8)
        assert not rep.passed
        loc = rep.context["worst_location"]
        assert loc["side"] == "lower"
        assert loc["cell"] == cfg.grid.n_cells - 1  # forced at the wall

    def test_comparison_ordering_upwind(self, paper_model):
        cfg = paper_cfg(n_cells=150, n_steps=75, t_final=3.0, upwind=True)
        hi = solve(paper_model, DaraUtility(9.0, 9.0, 0.0, None), cfg)
        lo = solve(paper_model, DaraUtility(9.0, 6.0, 2.0, 8.0), cfg)
        assert np.all(lo.phi <= hi.phi + 1e-8)

    def test_central_flux_overshoots_at_this_peclet(self, paper_model):
        # cell Peclet ~ 4 at the initial front: the arithmetic-mean flux is
        # not monotone there, which is why the piecewise-profile runs use upwind
        cfg = paper_cfg(n_cells=200, n_steps=100, t_final=5.0, upwind=False)
        sol = solve(paper_model, DaraUtility(9.0, 6.0, 2.0, 8.0), cfg)
        assert sol.phi.max() > 9.0 + 1e-3


def assert_mass_balance(sol, cfg):
    """sum(phi_k+1 - phi_k) dx = dtau (G_right - G_left + src) every step."""
    dx, dtau = cfg.grid.dx, cfg.dtau
    mass = sol.phi.sum(axis=1) * dx
    for k, d in enumerate(sol.diagnostics):
        lhs = (mass[k + 1] - mass[k]) / dtau
        rhs = d.flux_right - d.flux_left + d.source_integral
        assert lhs == pytest.approx(rhs, abs=1e-9)


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
                        boundary=boundary, dirichlet_values=(9.0, 6.0))
        assert_mass_balance(solve(paper_model, util, cfg), cfg)

    def test_mass_balance_with_clamp_engaged(self, paper_model):
        # alpha(phi0) spans about [-0.067, -0.057]: a level of 0.03 clips
        # every cell, so the linearized flux carries no velocity slope
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        cfg = paper_cfg(n_cells=100, n_steps=50, t_final=2.0, upwind=True,
                        cutoff_m=0.03)
        sol = solve(paper_model, util, cfg)
        assert sol.cutoff_excess > 0.0
        assert_mass_balance(sol, cfg)

    def test_mass_balance_with_source(self, singleton_model):
        grid = SpatialGrid(-4.0, 4.0, 60)
        phi0, source, _ = singleton_mms(singleton_model, grid)
        util = TabulatedPhi0(grid.centers, phi0)
        cfg = PDEConfig(grid=grid, t_final=0.5, n_steps=20, mms_source=source)
        assert_mass_balance(solve(singleton_model, util, cfg), cfg)


class TestNewtonSweeps:
    # a frozen advective coefficient needs 4.27 sweeps per step on the
    # shipped 400x400 stocks/bonds DARA run and an exact Jacobian started
    # from the previous level about 3; started from the quadratic
    # extrapolation of the earlier levels it needs about 2.1 there, with the
    # centered flux (whose overshoot engages the auto clamp), with every
    # cell clamped and with Dirichlet walls
    @pytest.mark.parametrize("kw", [
        dict(n_cells=400, n_steps=400, t_final=10.0, upwind=True),
        dict(upwind=False),
        dict(upwind=True, cutoff_m=0.03),
        dict(n_cells=400, n_steps=400, t_final=10.0, upwind=True,
             boundary="dirichlet", dirichlet_values=(9.0, 6.0)),
    ], ids=["shipped", "central", "clamped", "dirichlet"])
    def test_sweeps_per_step(self, paper_model, kw):
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        sol = solve(paper_model, util, paper_cfg(**kw))
        sweeps = [d.picard_iterations for d in sol.diagnostics]
        assert np.mean(sweeps) <= 2.3

    def test_extrapolated_start_keeps_the_step(self, paper_model):
        # step() starts every step from the previous level, solve() from the
        # extrapolated one: both must land on the same implicit steps
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        cfg = paper_cfg(n_cells=400, n_steps=400, t_final=10.0, upwind=True,
                        cutoff_m=None)
        sol = solve(paper_model, util, cfg)
        state = sol.phi[0]
        worst = 0.0
        for k in range(cfg.n_steps):
            state = step(state, paper_model, cfg, tau=float(sol.tau_values[k]))
            worst = max(worst, float(np.max(np.abs(state - sol.phi[k + 1]))))
        assert worst <= 1e-9


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
        mine = pde.solve_banded(lower.copy(), diag.copy(), upper.copy(),
                                rhs.copy())
        assert np.array_equal(mine, ref)

    def test_singular_system_is_solver_error(self, singleton_model):
        # a constant state whose advective coefficient is clamped to zero
        # and no time derivative leave the mirror-BC diffusion operator,
        # whose constant null vector gives an exactly zero last pivot
        grid = SpatialGrid(-4.0, 4.0, 16)
        cfg = PDEConfig(grid=grid, t_final=1.0, n_steps=4)
        geom = pde._Geometry(cfg, pde.CutoffBounds(m=0.0, lam=0.0,
                                                   horizon=1.0))
        geom.dtau = np.inf
        phi = np.full(16, 2.0)
        k = 0.5 * 0.04 / grid.dx**2   # alpha slope sigma^2 / 2 over dx^2
        with pytest.raises(SolverError, match="tridiagonal solve") as exc:
            pde._sweep(singleton_model, cfg, geom, phi, phi, None, 0.5)
        # the reported range is that of the assembled diagonal, which the
        # solve leaves in place
        assert f"diag range [{k:.3e}, {2 * k:.3e}]" in str(exc.value)


class TestManufacturedSolution:
    def test_orders(self, singleton_model):
        study = mms_convergence_study(
            singleton_model, spatial_cells=(40, 80, 160),
            spatial_steps_base=20, temporal_cells=200,
            temporal_steps=(5, 10, 20))
        assert all(1.7 <= o <= 2.3 for o in study["spatial"]["orders"])
        assert all(0.7 <= o <= 1.3 for o in study["temporal"]["orders"])

    def test_exact_solution_satisfies_mirror_bc(self, singleton_model):
        grid = SpatialGrid(-4.0, 4.0, 50)
        _, _, exact = singleton_mms(singleton_model, grid)
        ghost_l = exact(grid.x_min - grid.dx / 2, 0.3)
        first = exact(grid.x_min + grid.dx / 2, 0.3)
        assert ghost_l == pytest.approx(first, abs=1e-15)


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
        rep = maximum_principle_report(sol, inflow_model, tol=1e-8)
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


class TestArctanRun:
    def test_sign_changing_profile_integrates(self, paper_model):
        # phi0 = 2x/(1+x^2) changes sign, so the run exercises alpha below
        # the convexity threshold (vertex regime) as well
        util = ArctanUtility(truncation_gamma=8.0)
        cfg = paper_cfg(n_cells=160, n_steps=40, t_final=1.0, upwind=True)
        sol = solve(paper_model, util, cfg)
        rep = maximum_principle_report(sol, paper_model, tol=1e-8)
        assert rep.passed
        assert sol.phi[0].min() < 0 < sol.phi[0].max()
        assert np.all(np.isfinite(sol.phi))


class TestSolverErrors:
    def test_picard_nonconvergence_reports_step(self, paper_model):
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        cfg = paper_cfg(n_cells=60, n_steps=10, picard_max=1,
                        picard_tol=1e-14)
        with pytest.raises(PicardError) as err:
            solve(paper_model, util, cfg)
        assert err.value.step_index == 0
        assert err.value.residual > 1e-14

    def test_config_validation(self):
        grid = SpatialGrid(-1.0, 1.0, 16)
        with pytest.raises(Exception, match="t_final"):
            PDEConfig(grid=grid, t_final=-1.0, n_steps=4)
        with pytest.raises(Exception, match="n_steps"):
            PDEConfig(grid=grid, t_final=1.0, n_steps=0)
        with pytest.raises(Exception, match="boundary"):
            PDEConfig(grid=grid, t_final=1.0, n_steps=4, boundary="robin")

    def test_step_rejects_nonfinite_state(self, singleton_model):
        from riccati_hjb import SolverError
        grid = SpatialGrid(-4.0, 4.0, 16)
        cfg = PDEConfig(grid=grid, t_final=1.0, n_steps=4)
        bad = np.ones(16)
        bad[3] = np.nan
        with pytest.raises(SolverError, match="finite"):
            step(bad, singleton_model, cfg)
