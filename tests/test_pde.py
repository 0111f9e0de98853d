import dataclasses
import itertools

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
    PDEConfig,
    PicardError,
    PortfolioModel,
    SolverError,
    SpatialGrid,
    TabulatedPhi0,
    closed_form_n2,
    maximum_principle_report,
    mms_convergence_study,
    phi0_profile,
    singleton_mms,
    solve,
)
from riccati_hjb import pde
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
    return solve(model, util, cfg).cutoff


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
        mine = one_step(singleton_model, phi0, cfg)
        ref = dense_reference_solve(singleton_model, phi0, grid, 0.1, 1)
        assert np.max(np.abs(mine - ref[-1])) <= 1e-8


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
        cut = run_cutoff(model, DaraUtility(9.0, 6.0, 0.5, 1.8), grid, 2.0)
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
                        dirichlet=(6.0, 0.5))
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
        phi0, source, _ = singleton_mms(grid)
        util = TabulatedPhi0(grid.centers, phi0)
        cfg = PDEConfig(grid=grid, t_final=0.5, n_steps=20, mms_source=source)
        assert_mass_balance(solve(singleton_model, util, cfg), cfg)

    # dtau >= 0.1 keeps dx / dtau <= 16, which scales the rounding of the
    # summed change: over 9000 seeded draws of these ranges the balance
    # held to 1e-13
    @given(a1=st.floats(0.5, 15.0), gap=st.floats(0.1, 5.0),
           x_star=st.floats(-3.0, 3.0), gamma=st.sampled_from([None, 8.0]),
           n_cells=st.integers(10, 60), n_steps=st.integers(5, 20),
           dtau=st.floats(0.1, 0.3), upwind=st.booleans(),
           boundary=st.sampled_from(["neumann", "dirichlet"]),
           clamp=st.one_of(st.none(), st.just("auto"), st.floats(0.01, 0.1)),
           picard_tol=st.sampled_from([1e-10, 1e-4]))
    @settings(max_examples=60, deadline=None)
    def test_mass_balance_property(self, paper_model, a1, gap, x_star, gamma,
                                   n_cells, n_steps, dtau, upwind, boundary,
                                   clamp, picard_tol):
        a0 = a1 + gap  # decreasing absolute risk aversion
        util = DaraUtility(a0, a1, x_star, truncation_gamma=gamma)
        cfg = paper_cfg(n_cells=n_cells, n_steps=n_steps,
                        t_final=n_steps * dtau, upwind=upwind,
                        dirichlet=walls(boundary, a0, a1),
                        cutoff_m=clamp, picard_tol=picard_tol)
        assert_mass_balance(solve(paper_model, util, cfg), cfg)


class TestNewtonSweeps:
    # a frozen advective coefficient needs 4.27 sweeps per step on the
    # shipped 400x400 stocks/bonds DARA run, an exact Jacobian started from
    # the previous level about 3 and from the quadratic extrapolation about
    # 2.07; started from the truncated backward-difference series of up to
    # eight levels it needs 1.21 there, 1.16 with the centered flux (whose
    # overshoot engages the auto clamp), 1.20 with every cell clamped and
    # 1.23 with Dirichlet walls
    @pytest.mark.parametrize("kw", [
        dict(n_cells=400, n_steps=400, t_final=10.0, upwind=True),
        dict(upwind=False),
        dict(upwind=True, cutoff_m=0.03),
        dict(n_cells=400, n_steps=400, t_final=10.0, upwind=True,
             dirichlet=(9.0, 6.0)),
    ], ids=["shipped", "central", "clamped", "dirichlet"])
    def test_sweeps_per_step(self, paper_model, kw):
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
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
        geom = pde._Geometry(cfg, sol.cutoff)
        prev, u = sol.phi[4], sol.phi[5]

        def correction(level):
            delta, _, _ = pde._sweep(model, cfg, geom, prev, level, None,
                                     float(sol.tau_values[5]))
            return delta

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
                        dirichlet=walls(boundary, 9.0, 6.0),
                        cutoff_m=0.03 if clamp else "auto")
        assert self.newton_ratio(paper_model, util, cfg) <= self.NEWTON_RATIO

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
        # extrapolated one: both must land on the same implicit steps
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        cfg = paper_cfg(n_cells=400, n_steps=400, t_final=10.0, upwind=True,
                        cutoff_m=None)
        sol = solve(paper_model, util, cfg)
        state = sol.phi[0]
        worst = 0.0
        for k in range(cfg.n_steps):
            state = one_step(paper_model, state, cfg)
            worst = max(worst, float(np.max(np.abs(state - sol.phi[k + 1]))))
        assert worst <= 1e-9


class TestTracedCallSites:
    # the traced benchmark counts sweeps by wrapping pde.alpha_field and
    # pde.solve_banded, so each sweep must call both once, and the cutoff
    # level of an auto-clamped run one more alpha evaluation
    def test_one_alpha_and_one_solve_per_sweep(self, paper_model,
                                               monkeypatch):
        alpha_calls, solves = [], [0]
        field, banded = pde.alpha_field, pde.solve_banded

        def counted_field(model, x, phi):
            out = field(model, x, phi)
            # phi may be the run's ghost buffer, refilled by the next sweep
            alpha_calls.append((np.array(phi), out[0].copy()))
            return out

        def counted_solve(*args):
            solves[0] += 1
            return banded(*args)

        monkeypatch.setattr(pde, "alpha_field", counted_field)
        monkeypatch.setattr(pde, "solve_banded", counted_solve)
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        cfg = paper_cfg(n_cells=40, n_steps=10, upwind=True)
        sol = solve(paper_model, util, cfg)
        iters = [d.picard_iterations for d in sol.diagnostics]
        assert len(alpha_calls) == sum(iters) + 1
        assert solves[0] == sum(iters)
        # each step's alpha range is that of the interior cells at the
        # iterate of its last sweep
        last = np.cumsum(iters)
        for d, k in zip(sol.diagnostics, last):
            pe, ae = alpha_calls[k]
            interior = field(paper_model, 0.0, pe)[0][1:-1]
            assert np.array_equal(interior, ae[1:-1])
            assert d.alpha_min == interior.min()
            assert d.alpha_max == interior.max()


class TestPredictor:
    @pytest.mark.parametrize("degree", range(7))
    def test_polynomial_history_is_extrapolated_exactly(self, degree):
        # levels that are a polynomial of the given degree in k: the series
        # ends at nabla^degree, and eight levels carry it up to degree 6
        rng = np.random.default_rng(degree)
        coef = rng.uniform(-1.0, 1.0, size=(degree + 1, 5))
        phi = np.polynomial.polynomial.polyval(0.1 * np.arange(14), coef).T
        first = degree if degree <= 1 else degree + 1
        for k in range(first, 13):
            start = pde._predict(phi, k)
            np.testing.assert_allclose(start, phi[k + 1], rtol=0, atol=1e-12)

    def test_jump_cuts_the_series_back(self):
        # a smooth decay plus a jump of 1 between levels 4 and 5: from level
        # 7, nabla^1 (about 0.1) and nabla^2 (about 0.01) see only the
        # decay and nabla^3 on carry the jump, so the series stops after the
        # linear term
        k = 7
        levels = np.arange(k + 1)[:, None]
        phi = (np.exp(-0.1 * levels) * np.linspace(1.0, 2.0, 4)
               + np.where(levels >= 5, 1.0, 0.0))
        start = pde._predict(phi, k)
        np.testing.assert_allclose(start, 2.0 * phi[k] - phi[k - 1],
                                   rtol=0, atol=1e-14)
        assert np.max(np.abs(start - phi[k])) <= 1.0

    def test_sweeps_across_models(self, paper_model, fund_menu_model,
                                  singleton_model, inflow_model):
        # 100 steps of 0.04 on 100 cells: a mean of 1.61 sweeps per step over
        # these 32 runs, 2.19 from the quadratic extrapolation
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
        geom.inv_dtau = 0.0
        phi = np.full(16, 2.0)
        k = 0.5 * 0.04 / grid.dx**2   # alpha slope sigma^2 / 2 over dx^2
        with pytest.raises(SolverError, match="tridiagonal solve") as exc:
            pde._sweep(singleton_model, cfg, geom, phi, phi, None, 0.5)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_update_is_solver_error(self, singleton_model, bad):
        # a non-finite source reaches the correction through the residual;
        # the step must stop at once, not sweep on to a PicardError
        grid = SpatialGrid(-4.0, 4.0, 16)
        cfg = PDEConfig(grid=grid, t_final=1.0, n_steps=4,
                        mms_source=lambda x, tau: np.full_like(x, bad))
        util = TabulatedPhi0(grid.centers, np.ones(16))
        with pytest.raises(SolverError) as err:
            solve(singleton_model, util, cfg)
        assert not isinstance(err.value, PicardError)
        assert str(err.value) == "non-finite update at tau=0.25"

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
