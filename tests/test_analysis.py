import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccati_hjb import (
    CheckReport,
    DaraUtility,
    DecisionSet,
    PDEConfig,
    PortfolioModel,
    SpatialGrid,
    TabulatedPhi0,
    alpha_field,
    contraction_budget,
    energy_estimate_report,
    grid_convergence,
    lipschitz_bounds,
    maximum_principle_report,
    monotonicity_certificate,
    solve,
    solve_alpha,
)
from riccati_hjb import analysis
from riccati_hjb.alpha import closed_form_n2
from riccati_hjb.model import InflowProfile
from riccati_hjb.pde import lambda_bound
from clamp_twin import clamp_level
from two_asset_data import two_asset_sigma


def dense_hminus1_sq(v, dx):
    """dx <v, (I - D_xx)^-1 v> by a dense solve, with D_xx the second
    difference applied to the columns of the identity under the mirror ghost
    (ghost = edge value)."""
    eye = np.eye(len(v))
    ext = np.vstack([eye[:1], eye, eye[-1:]])
    d_xx = (ext[2:] - 2.0 * ext[1:-1] + ext[:-2]) / dx**2
    return dx * v @ np.linalg.solve(eye - d_xx, v)


def certificate_pairs(seed, gap=1e-6):
    """The monotonicity certificate's pairs: one seeded (2, 1000) uniform
    draw from [0.1, 50], keeping the pairs at least `gap` apart, in draw
    order."""
    a, b = np.random.default_rng(seed).uniform(0.1, 50.0, size=(2, 1000))
    return [(p, q) for p, q in zip(a, b) if abs(p - q) >= gap]


class TestCheckReport:
    def test_pass_iff_within_tolerance(self):
        ok = CheckReport("demo", bound_lhs=1.0, bound_rhs=1.0, tolerance=1e-12)
        assert ok.passed and ok.worst_violation == 0.0
        bad = CheckReport("demo", bound_lhs=2.0, bound_rhs=1.0, tolerance=0.5)
        assert not bad.passed and bad.worst_violation == 1.0

    def test_worst_violation_is_not_an_input(self):
        with pytest.raises(TypeError):
            CheckReport("demo", bound_lhs=1.0, bound_rhs=1.0, tolerance=1e-12,
                        worst_violation=0.0)

    @given(lhs=st.floats(), rhs=st.floats(), tol=st.floats(0.0, 1e300))
    def test_derived_from_the_sides(self, lhs, rhs, tol):
        # max(0, nan) is 0, so a nan side would otherwise pass
        rep = CheckReport("demo", lhs, rhs, tol)
        if np.isfinite(lhs) and np.isfinite(rhs):
            assert rep.worst_violation == max(0.0, lhs - rhs)
        else:
            assert rep.worst_violation == np.inf
        assert rep.passed == (rep.worst_violation <= tol)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["bound_lhs", "bound_rhs"])
    def test_non_finite_number_fails(self, bad, where):
        numbers = {"bound_lhs": 1.0, "bound_rhs": 1.0}
        rep = CheckReport("demo", tolerance=1e-12, **{**numbers, where: bad})
        assert not rep.passed and rep.worst_violation == np.inf

    def test_json_round_trip(self):
        # dataclasses.asdict is the JSON document, fields in their order
        rep = CheckReport("demo", 2.0, 1.0, 1e-9, context={"v": [2.5]})
        doc = dataclasses.asdict(rep)
        assert list(doc.items()) == [
            ("check_name", "demo"), ("bound_lhs", 2.0), ("bound_rhs", 1.0),
            ("tolerance", 1e-9), ("worst_violation", 1.0), ("passed", False),
            ("context", {"v": [2.5]})]
        assert json.loads(json.dumps(doc)) == doc


class TestMonotonicityCertificate:
    def test_singleton_zero_slack(self, singleton_model):
        rep = monotonicity_certificate(singleton_model)
        assert rep.passed
        assert rep.context["min_ratio"] == pytest.approx(0.02, abs=1e-14)
        assert rep.context["max_ratio"] == pytest.approx(0.02, abs=1e-14)

    def test_two_asset_thousand_pairs(self, paper_model):
        rep = monotonicity_certificate(paper_model, seed=42)
        assert rep.passed
        assert rep.worst_violation <= 1e-12  # quotient roundoff only
        b = lipschitz_bounds(paper_model)
        assert rep.context["min_ratio"] >= b.omega - 1e-12
        assert rep.context["max_ratio"] <= b.big_l + 1e-12
        assert rep.context["n_pairs"] == 1000
        assert rep.context["phi_range"] == [0.1, 50.0]

    def test_menu_pairs(self, fund_menu_model):
        rep = monotonicity_certificate(fund_menu_model, seed=42)
        assert rep.passed and rep.worst_violation <= 1e-12

    @pytest.mark.parametrize("setting", [{"n_pairs": 100},
                                         {"phi_range": (0.1, 1.0)}])
    def test_seed_is_the_only_setting(self, paper_model, setting):
        with pytest.raises(TypeError):
            monotonicity_certificate(paper_model, **setting)

    def test_pairs_straddling_breakpoint(self, paper_model):
        # about 6 % of the pairs lie on both sides of phi_lo (about 1.78),
        # where the weights leave the stock vertex
        bp = closed_form_n2(paper_model).phi_lo
        assert 1.7 < bp < 1.9
        straddling = [(p, q) for p, q in certificate_pairs(42)
                      if min(p, q) < bp < max(p, q)]
        assert 30 <= len(straddling) <= 100
        rep = monotonicity_certificate(paper_model, seed=42)
        assert rep.passed

    @pytest.mark.parametrize("which", ["two_asset", "menu", "three_asset_inflow"])
    def test_matches_scalar_loop(self, paper_model, fund_menu_model, which):
        rng = np.random.default_rng(5)
        g = rng.normal(size=(3, 3))
        model = {
            "two_asset": paper_model,
            "menu": fund_menu_model,
            "three_asset_inflow": PortfolioModel(
                rng.normal(0.05, 0.1, 3), g @ g.T + 0.05 * np.eye(3),
                DecisionSet.simplex(3), inflow=InflowProfile(0.2, 1.0, 2.0)),
        }[which]
        rep = monotonicity_certificate(model, seed=9)
        # the certificate's seeded pairs, then one scalar QP per value
        ratios = [(solve_alpha(model, 0.0, p).value
                   - solve_alpha(model, 0.0, q).value) / (p - q)
                  for p, q in certificate_pairs(9)]
        assert rep.context["min_ratio"] == pytest.approx(min(ratios), abs=1e-12)
        assert rep.context["max_ratio"] == pytest.approx(max(ratios), abs=1e-12)

    def test_drops_close_pairs_instead_of_redrawing(self, paper_model,
                                                    monkeypatch):
        # at a gap of 10 about 36 % of the pairs of [0.1, 50] are closer:
        # the certificate keeps the rest of its one draw, and draws no more
        monkeypatch.setattr(analysis, "MIN_PAIR_GAP", 10.0)
        rep = monotonicity_certificate(paper_model, seed=9)
        pairs = certificate_pairs(9, gap=10.0)
        assert 400 <= len(pairs) <= 800
        assert rep.context["n_pairs"] == len(pairs)
        ratios = [(solve_alpha(paper_model, 0.0, p).value
                   - solve_alpha(paper_model, 0.0, q).value) / (p - q)
                  for p, q in pairs]
        assert rep.context["min_ratio"] == pytest.approx(min(ratios), abs=1e-12)
        assert rep.context["max_ratio"] == pytest.approx(max(ratios), abs=1e-12)

    @pytest.mark.parametrize("scale, side", [(-1.0, "lower"), (2.0, "upper")])
    def test_fails_on_a_field_outside_the_slope_bounds(
            self, paper_model, monkeypatch, scale, side):
        # -alpha decreases in phi, so its quotients fall below omega; 2 alpha
        # has quotients up to 2 L
        def scaled_field(model, x, phi):
            value, slope, theta = alpha_field(model, x, phi)
            return scale * value, scale * slope, theta

        monkeypatch.setattr(analysis, "alpha_field", scaled_field)
        rep = monotonicity_certificate(paper_model, seed=3)
        assert not rep.passed
        b = lipschitz_bounds(paper_model)
        if side == "lower":
            assert (rep.bound_lhs, rep.bound_rhs) == (
                b.omega, rep.context["min_ratio"])
            assert rep.context["min_ratio"] < 0.0
        else:
            assert (rep.bound_lhs, rep.bound_rhs) == (
                rep.context["max_ratio"], b.big_l)
        assert rep.worst_violation > 0.5 * b.big_l

    def test_fails_on_a_nan_field_value(self, paper_model, monkeypatch):
        # one nan quotient makes min_ratio nan, which max(0, nan) hid as 0
        def field_with_nan(model, x, phi):
            value, slope, theta = alpha_field(model, x, phi)
            value[len(value) // 2] = np.nan
            return value, slope, theta

        monkeypatch.setattr(analysis, "alpha_field", field_with_nan)
        rep = monotonicity_certificate(paper_model, seed=3)
        assert np.isnan(rep.context["min_ratio"])
        assert not rep.passed and rep.worst_violation == np.inf

    def test_deterministic_given_seed(self, paper_model):
        a = monotonicity_certificate(paper_model, seed=7)
        b = monotonicity_certificate(paper_model, seed=7)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    @given(seed=st.integers(0, 5000), n=st.integers(1, 4))
    @settings(max_examples=15, deadline=None)
    def test_never_fails_on_valid_models(self, seed, n):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(n, n))
        model = PortfolioModel(rng.normal(0.05, 0.1, n),
                               g @ g.T + 0.02 * np.eye(n),
                               DecisionSet.simplex(n))
        rep = monotonicity_certificate(model, seed=seed)
        assert rep.passed


def small_budget_run(model):
    return solve(model, DaraUtility(9.0, 6.0, 2.0),
                 PDEConfig(grid=SpatialGrid(-8, 8, 40), t_final=1.0,
                           n_steps=4))


class TestContractionBudget:
    def test_singleton_closed_form(self, singleton_model):
        # by hand: omega = L = s^2/2, M = |alpha at the initial profile|,
        # Phi = (M + |h|)/omega, beta = max(L, L Phi + M), t0 = omega/(2 beta^2)
        s2, m = 0.04, 0.06
        omega = 0.5 * s2
        grid = SpatialGrid(-4.0, 4.0, 64)
        phi0 = np.full(64, 2.0)
        big_m = abs(-m + omega * 2.0)
        util = TabulatedPhi0(grid.centers, phi0, truncation_gamma=None)
        cfg = PDEConfig(grid=grid, t_final=1.0, n_steps=1)
        budget = contraction_budget(singleton_model,
                                    solve(singleton_model, util, cfg))
        phi_bound = (big_m + m) / omega
        beta = max(omega, omega * phi_bound + big_m)
        assert budget["phi_bound"] == pytest.approx(phi_bound, rel=1e-15)
        assert budget["beta"] == pytest.approx(beta, rel=1e-15)
        assert budget["t0"] == pytest.approx(2 * omega / (4 * beta**2),
                                             rel=1e-12)
        assert budget["beta_tilde"]**2 == 4.0 * beta**2

    def test_record_keys(self, singleton_model):
        # the record is what verify.json writes, in this order
        sol = small_budget_run(singleton_model)
        assert list(contraction_budget(singleton_model, sol)) == [
            "omega", "beta", "phi_bound", "beta_tilde", "t0", "horizon",
            "windows", "horizon_exceeds_t0"]

    def test_t0_linear_in_omega(self, singleton_model, paper_model):
        # t0 = 2 omega / beta_tilde^2: at a given beta_tilde, linear in
        # omega
        for model in (singleton_model, paper_model):
            budget = contraction_budget(model, small_budget_run(model))
            assert budget["omega"] == lipschitz_bounds(model).omega
            assert budget["t0"] == pytest.approx(
                2.0 * budget["omega"] / budget["beta_tilde"]**2, rel=1e-15)

    def test_beta_tilde_dimension_factor(self, singleton_model, paper_model):
        # beta_tilde^2 = 2 (1 + d) beta^2 with d = 1
        for model in (singleton_model, paper_model):
            budget = contraction_budget(model, small_budget_run(model))
            assert budget["beta_tilde"]**2 == pytest.approx(
                4.0 * budget["beta"]**2, rel=1e-15)

    def test_from_solution_field(self, paper_model):
        util = DaraUtility(9.0, 6.0, 2.0)
        cfg = PDEConfig(grid=SpatialGrid(-8, 8, 80), t_final=2.0, n_steps=20)
        sol = solve(paper_model, util, cfg)
        budget = contraction_budget(paper_model, sol)
        assert budget["t0"] > 0
        assert budget["horizon"] == pytest.approx(2.0)
        assert budget["windows"] >= 1
        # horizon far beyond the contraction window for this data set
        assert budget["horizon_exceeds_t0"]
        assert budget["windows"] == 1 + int(
            np.ceil((2.0 - budget["t0"]) / (budget["t0"] / 2)))

    def test_reads_the_runs_clamp(self, paper_model):
        # a run patched to clamp at 0.03 clips alpha (which spans about
        # -0.067 to -0.057) and no inflow keeps the level constant in time:
        # the budget takes the clamp's upper bound 0.03, not the run's own
        # level of 0.067
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        grid = SpatialGrid(-8, 8, 80)
        cfg = PDEConfig(grid=grid, t_final=2.0, n_steps=20, upwind=True)
        with clamp_level(0.03):
            sol = solve(paper_model, util, cfg)
        budget = contraction_budget(paper_model, sol)
        # by hand, as in the singleton case, with M = 0.03
        h, _, _ = alpha_field(paper_model, grid.centers, np.zeros(80))
        h_max = float(np.max(np.abs(h)))
        lip = lipschitz_bounds(paper_model)
        phi_bound = (0.03 + h_max) / lip.omega
        manual = {"omega": lip.omega,
                  "beta": max(lip.big_l, lip.big_l * phi_bound + 0.03),
                  "phi_bound": phi_bound, "horizon": 2.0}
        assert {k: budget[k] for k in manual} == manual
        auto = contraction_budget(paper_model, solve(paper_model, util, cfg))
        assert auto["beta"] == pytest.approx(74.1, abs=0.05)
        assert budget["beta"] < auto["beta"] - 10.0

    def test_budget_reads_the_auto_level(self, paper_model):
        # every run carries M = max|alpha(x, phi0)|, lambda and T, and the
        # budget and the maximum principle's growth rate read them there;
        # with inflow lambda > 0
        model = PortfolioModel(paper_model.mu, paper_model.sigma,
                               DecisionSet.simplex(2),
                               inflow=InflowProfile(1.0, 1.0, 2.0))
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        cfg = PDEConfig(grid=SpatialGrid(-8, 8, 80), t_final=2.0,
                        n_steps=20, upwind=True)
        sol = solve(model, util, cfg)
        assert sol.bounds.lam == lambda_bound(model) > 0.0
        assert sol.bounds.horizon == 2.0
        budget = contraction_budget(model, sol)
        # by hand: M = max|alpha(x, phi0)|, Phi = (M e^{lam T} + max|h|)/omega
        a0, _, _ = alpha_field(model, cfg.grid.centers, sol.phi[0])
        h, _, _ = alpha_field(model, cfg.grid.centers, np.zeros(80))
        big_m = float(np.max(np.abs(a0)))
        assert sol.bounds.m == big_m
        phi_bound = ((big_m * np.exp(sol.bounds.lam * 2.0)
                      + np.max(np.abs(h))) / lipschitz_bounds(model).omega)
        assert budget["phi_bound"] == pytest.approx(phi_bound, rel=1e-14)
        rep = maximum_principle_report(sol, model)
        assert rep.context["lambda"] == sol.bounds.lam

    def test_solution_respects_a_priori_sup_bound(self, paper_model):
        # |phi| never exceeds (M e^{lam T} + max|h|) / omega
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        cfg = PDEConfig(grid=SpatialGrid(-8, 8, 120), t_final=4.0,
                        n_steps=40, upwind=True)
        sol = solve(paper_model, util, cfg)
        budget = contraction_budget(paper_model, sol)
        assert np.max(np.abs(sol.phi)) <= budget["phi_bound"] + 1e-8


def small_dara_run(model, cells=64, steps=10, t_final=1.0):
    util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
    cfg = PDEConfig(grid=SpatialGrid(-8, 8, cells), t_final=t_final,
                    n_steps=steps, upwind=True)
    return solve(model, util, cfg)


class TestEnergyEstimate:
    def test_zero_initial_data(self, singleton_model):
        grid = SpatialGrid(-4.0, 4.0, 64)
        util = TabulatedPhi0(grid.centers, np.zeros(64))
        cfg = PDEConfig(grid=grid, t_final=1.0, n_steps=10)
        sol = solve(singleton_model, util, cfg)
        rep = energy_estimate_report(sol, sol, singleton_model)
        assert rep.passed
        assert rep.context["coarse"]["energy"] == pytest.approx(0.0, abs=1e-20)
        assert rep.context["ratio_coarse"] == rep.context["ratio_fine"] == 0.0

    def test_steady_state_sup_norm_constant(self, paper_model):
        util = DaraUtility(9.0, 9.0, 0.0, truncation_gamma=None)
        cfg = PDEConfig(grid=SpatialGrid(-8, 8, 100), t_final=3.0, n_steps=30)
        sol = solve(paper_model, util, cfg)
        norms = analysis._hminus1_sq(sol.phi, cfg.grid.dx)
        assert max(norms) - min(norms) <= 1e-8

    def test_inflow_contributes_data_term(self):
        from riccati_hjb import InflowProfile
        model = PortfolioModel(
            np.array([0.1028, 0.0516]), two_asset_sigma(),
            DecisionSet.simplex(2), inflow=InflowProfile(1.0, 1.0, 2.0))
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        cfg = PDEConfig(grid=SpatialGrid(-8, 8, 100), t_final=1.0,
                        n_steps=10, upwind=True)
        sol = solve(model, util, cfg)
        rep = energy_estimate_report(sol, sol, model)
        assert rep.passed
        # with inflow, h = alpha(x, 0) bends in x, so d_xx h enters the data
        no_inflow = energy_estimate_report(sol, sol, PortfolioModel(
            np.array([0.1028, 0.0516]), two_asset_sigma(),
            DecisionSet.simplex(2)))
        assert (rep.context["coarse"]["rhs_data"]
                > no_inflow.context["coarse"]["rhs_data"])

    @pytest.mark.parametrize("run", ["shipped", "single_asset"])
    def test_matches_per_row_loop(self, paper_model, singleton_model, run):
        # the report takes the H^-1 norms of every level from one factored
        # tridiagonal solve; the reference is one dense solve per level
        if run == "shipped":
            model = paper_model
            util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
            cfg = PDEConfig(grid=SpatialGrid(-8, 8, 400), t_final=10.0,
                            n_steps=400, upwind=True)
        else:
            model = singleton_model
            util = DaraUtility(3.0, 1.0, 0.5, truncation_gamma=8.0)
            cfg = PDEConfig(grid=SpatialGrid(-4, 4, 64), t_final=1.0,
                            n_steps=20)
        sol = solve(model, util, cfg)
        rep = energy_estimate_report(sol, sol, model)

        dx = cfg.grid.dx
        hm1 = np.array([dense_hminus1_sq(r, dx) for r in sol.phi])
        l2 = np.array([dx * np.sum(r * r) for r in sol.phi])
        int_l2 = float(np.trapezoid(l2, sol.tau_values))
        h, _, _ = alpha_field(model, cfg.grid.centers,
                              np.zeros(cfg.grid.n_cells))
        he = np.concatenate([[h[0]], h, [h[-1]]])
        d2h = (he[2:] - 2.0 * he[1:-1] + he[:-2]) / dx**2
        rhs_data = float(hm1[0] + sol.t_final * np.sum(d2h**2) * dx)
        lhs = float(np.max(hm1)) + int_l2
        expected = {"energy": lhs, "ratio": lhs / rhs_data,
                    "sup_hminus1_sq": float(np.max(hm1)),
                    "int_l2_sq": int_l2, "rhs_data": rhs_data}
        for which in ("coarse", "fine"):
            numbers = rep.context[which]
            for key, value in expected.items():
                assert numbers[key] == pytest.approx(value, rel=1e-12, abs=0.0)
            assert numbers["n_cells"] == cfg.grid.n_cells
            assert numbers["n_steps"] == cfg.n_steps
        assert rep.context["ratio_fine"] == rep.context["fine"]["ratio"]
        assert rep.passed

    def test_refinement_ratio_stable(self, paper_model):
        coarse = small_dara_run(paper_model, 100, 50, t_final=2.0)
        fine = small_dara_run(paper_model, 200, 100, t_final=2.0)
        rep = energy_estimate_report(coarse, fine, paper_model)
        assert rep.passed and rep.worst_violation == 0.0
        ratio_c, ratio_f = rep.context["ratio_coarse"], rep.context["ratio_fine"]
        assert ratio_f <= ratio_c * 1.10
        assert (rep.bound_lhs, rep.bound_rhs) == (ratio_f, 1.10 * ratio_c)
        assert rep.context["coarse"]["n_cells"] == 100
        assert rep.context["fine"]["n_cells"] == 200

    def test_fails_when_the_ratio_grows(self, paper_model):
        # a twin whose levels grow by half over the horizon: its data terms
        # (phi0 and h) are the run's, its energy is larger
        sol = small_dara_run(paper_model)
        grown = dataclasses.replace(
            sol, phi=sol.phi * (1.0 + 0.5 * sol.tau_values[:, None]))
        rep = energy_estimate_report(sol, grown, paper_model)
        assert not rep.passed
        ratio_c, ratio_f = rep.context["ratio_coarse"], rep.context["ratio_fine"]
        assert ratio_f > 1.10 * ratio_c
        assert rep.worst_violation == pytest.approx(ratio_f - 1.10 * ratio_c,
                                                    rel=1e-15)

    @pytest.mark.parametrize("which", ["coarse", "fine", "both"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_fails_on_a_non_finite_run(self, paper_model, which, bad):
        # a nan ratio compares as no growth, so it must fail on its own
        sol = small_dara_run(paper_model)
        phi = sol.phi.copy()
        phi[-1, 10] = bad
        broken = dataclasses.replace(sol, phi=phi)
        coarse = sol if which == "fine" else broken
        fine = sol if which == "coarse" else broken
        rep = energy_estimate_report(coarse, fine, paper_model)
        assert not rep.passed
        assert rep.worst_violation == np.inf
        assert not np.isfinite(rep.context[which if which != "both"
                                           else "fine"]["energy"])

    def test_fails_on_an_infinite_ratio(self, paper_model):
        # zero data terms with a nonzero energy: the ratio is inf
        sol = small_dara_run(paper_model)
        zero = dataclasses.replace(sol, phi=np.zeros_like(sol.phi))
        lifted = dataclasses.replace(
            zero, phi=zero.phi + sol.tau_values[:, None])
        rep = energy_estimate_report(zero, lifted, paper_model)
        assert rep.context["fine"]["energy"] > 0.0
        assert rep.context["ratio_fine"] == np.inf
        assert not rep.passed and rep.worst_violation == np.inf


@pytest.fixture(scope="module")
def shipped_twins(paper_model):
    """The stocks/bonds DARA run of scripts/run_examples.py (400 cells, 400
    steps) and its refined twin, as `verify` solves them."""
    util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
    return tuple(solve(paper_model, util,
                       PDEConfig(grid=SpatialGrid(-8, 8, 400 * k),
                                 t_final=10.0, n_steps=400 * k, upwind=True))
                 for k in (1, 2))


def grid_convergence_loop(coarse, fine):
    """The grid-convergence record, one level and one cell at a time."""
    grid, dx = coarse.grid, coarse.grid.dx
    levels = []
    for k in range(coarse.phi.shape[0]):
        row = []
        for j in range(grid.n_cells):
            pair = fine.phi[2 * k, 2 * j] + fine.phi[2 * k, 2 * j + 1]
            row.append(abs(coarse.phi[k, j] - 0.5 * pair))
        levels.append(row)
    end = levels[-1]
    i = max(range(grid.n_cells), key=lambda j: end[j])
    k, j = max(((k, j) for k in range(len(levels))
                for j in range(grid.n_cells)),
               key=lambda kj: levels[kj[0]][kj[1]])
    reach = (grid.x_max - grid.x_min) / 8.0
    x = grid.centers
    l1 = dx * sum(end)
    end_l1 = dx * sum(end[j] for j in range(grid.n_cells)
                      if min(x[j] - grid.x_min, grid.x_max - x[j]) < reach)
    return {"horizon_max": end[i], "horizon_max_x": x[i], "horizon_l1": l1,
            "max": levels[k][j], "max_tau": coarse.tau_values[k],
            "max_x": x[j], "end_share": end_l1 / l1}


class TestGridConvergence:
    def test_shipped_run(self, shipped_twins):
        # the horizon error sits at the right end; the largest difference is
        # phi0's one-cell taper at tau = 0, which halves the end cell of the
        # coarse grid and the outer half of it on the fine grid
        rec = grid_convergence(*shipped_twins)
        expected = {"horizon_max": 0.3869, "horizon_max_x": 7.98,
                    "horizon_l1": 0.3556, "max": 2.25, "max_tau": 0.0,
                    "max_x": -7.98, "end_share": 0.789}
        assert set(rec) == set(expected)
        for key, value in expected.items():
            assert rec[key] == pytest.approx(value, abs=1e-3), key
        assert all(type(v) is float for v in rec.values())

    @pytest.mark.parametrize("run", ["shipped", "single_asset"])
    def test_matches_per_cell_loop(self, shipped_twins, singleton_model, run):
        if run == "shipped":
            coarse, fine = shipped_twins
        else:
            util = DaraUtility(3.0, 1.0, 0.5, truncation_gamma=2.0)
            coarse, fine = (
                solve(singleton_model, util,
                      PDEConfig(grid=SpatialGrid(-4, 4, 32 * k),
                                t_final=1.0, n_steps=10 * k))
                for k in (1, 2))
        rec = grid_convergence(coarse, fine)
        ref = grid_convergence_loop(coarse, fine)
        for key in ("horizon_max", "horizon_max_x", "max", "max_tau",
                    "max_x"):
            assert rec[key] == ref[key], key
        for key in ("horizon_l1", "end_share"):
            assert rec[key] == pytest.approx(ref[key], rel=1e-12), key

    def test_reads_only_the_shared_levels(self, paper_model):
        # a fine run whose cell pairs repeat the coarse values at the shared
        # levels differs by exactly 0 there, whatever its levels in between
        coarse = small_dara_run(paper_model, 32, 5)
        n_levels = coarse.phi.shape[0]
        phi = np.repeat(coarse.phi, 2, axis=1)[
            np.repeat(np.arange(n_levels), 2)[:-1]]
        phi[1::2] += 1.0
        fine = dataclasses.replace(
            coarse, phi=phi,
            tau_values=np.linspace(0.0, coarse.t_final, 2 * n_levels - 1))
        rec = grid_convergence(coarse, fine)
        assert rec["horizon_max"] == rec["horizon_l1"] == rec["max"] == 0.0
        assert rec["end_share"] == 0.0

    def test_rejects_a_run_that_is_not_the_twin(self, paper_model):
        coarse = small_dara_run(paper_model, 32, 5)
        with pytest.raises(ValueError, match="twin"):
            grid_convergence(coarse, small_dara_run(paper_model, 64, 5))
        with pytest.raises(ValueError, match="twin"):
            grid_convergence(coarse, coarse)


class TestMaximumPrincipleReport:
    def test_constant_run_zero_slack(self, paper_model):
        util = DaraUtility(9.0, 9.0, 0.0, truncation_gamma=None)
        cfg = PDEConfig(grid=SpatialGrid(-8, 8, 64), t_final=2.0, n_steps=10)
        sol = solve(paper_model, util, cfg)
        rep = maximum_principle_report(sol, paper_model)
        assert rep.passed
        assert rep.worst_violation <= 1e-14  # flat profile, roundoff only
        assert rep.context["lambda"] == rep.context["lambda_dx"] == 0.0
        assert rep.context["growth_overflows"] is False

    def test_tolerance_is_not_a_setting(self, paper_model):
        sol = small_dara_run(paper_model)
        with pytest.raises(TypeError):
            maximum_principle_report(sol, paper_model, tol=1e-8)
        assert maximum_principle_report(sol, paper_model).tolerance == 1e-8

    def test_report_is_deterministic(self, paper_model):
        util = DaraUtility(9.0, 6.0, 2.0)
        cfg = PDEConfig(grid=SpatialGrid(-8, 8, 64), t_final=1.0, n_steps=10,
                        upwind=True)
        sol = solve(paper_model, util, cfg)
        a = maximum_principle_report(sol, paper_model)
        b = maximum_principle_report(sol, paper_model)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    @pytest.mark.parametrize("which", ["dirichlet_lower", "dirichlet_upper",
                                       "inflow"])
    def test_matches_step_loop(self, paper_model, singleton_model, which):
        grid = SpatialGrid(-8, 8, 100)
        dara = DaraUtility(9.0, 6.0, 2.0, 8.0)
        # a wall pinned below the initial range breaks the lower bound; one
        # that lifts alpha above 0 (from -0.02 at phi = 2) the upper one
        model, util, kw = {
            "dirichlet_lower": (paper_model, dara,
                                dict(dirichlet=(6.0, 0.5))),
            "dirichlet_upper": (singleton_model, TabulatedPhi0(
                grid.centers, np.full(100, 2.0), truncation_gamma=None),
                dict(dirichlet=(5.0, 2.0), upwind=True)),
            "inflow": (PortfolioModel(
                paper_model.mu, paper_model.sigma, DecisionSet.simplex(2),
                inflow=InflowProfile(1.0, 1.0, 2.0)), dara, dict(upwind=True)),
        }[which]
        cfg = PDEConfig(grid=grid, t_final=4.0, n_steps=40, **kw)
        sol = solve(model, util, cfg)
        rep = maximum_principle_report(sol, model)
        assert rep.passed == (which == "inflow")

        # one alpha evaluation per stored step; the first strict maximum in
        # step order, lower side before upper, then cell order
        a0, _, _ = alpha_field(model, grid.centers, sol.phi[0])
        psi_up, psi_lo = max(0.0, a0.max()), min(0.0, a0.min())
        lam = lambda_bound(model)
        worst, where = 0.0, {"step": 0, "cell": 0, "side": "none"}
        for k, tau in enumerate(sol.tau_values):
            a, _, _ = alpha_field(model, grid.centers, sol.phi[k])
            growth = np.exp(lam * sol.tau_values)[k]
            for gap, side in ((psi_lo * growth - a, "lower"),
                              (a - psi_up * growth, "upper")):
                i = int(np.argmax(gap))
                if gap[i] > worst:
                    worst = float(gap[i])
                    where = {"step": k, "cell": i, "side": side,
                             "tau": float(tau), "x": float(grid.centers[i]),
                             "alpha": float(a[i])}
        assert rep.worst_violation == worst
        assert rep.context["worst_location"] == where
        assert rep.context["psi_lower"] == psi_lo
        assert rep.context["psi_upper"] == psi_up
        if which != "inflow":
            assert where["side"] == which.split("_")[1]

    def test_holds_under_a_narrow_ramp(self):
        # inflow (5, 1, 1.001) rises over 1e-3 in x, less than the run's
        # cell width: the upper bound 0.01 e^{lambda tau} holds under the
        # exact lambda, 7497.5, and a lambda sampled on a grid (4.98) fails
        # it by 0.176
        model = PortfolioModel(np.array([0.06]), np.array([[0.04]]),
                               DecisionSet.simplex(1),
                               inflow=InflowProfile(5.0, 1.0, 1.001))
        util = DaraUtility(2.5, 2.5, 0.0, truncation_gamma=None)
        cfg = PDEConfig(grid=SpatialGrid(-8, 8, 160), t_final=2.0,
                        n_steps=40, upwind=True)
        rep = maximum_principle_report(solve(model, util, cfg), model)
        assert rep.context["psi_upper"] == pytest.approx(0.01, rel=1e-12)
        assert rep.context["lambda"] == pytest.approx(7497.5, rel=1e-6)
        assert rep.passed and rep.worst_violation == 0.0

    @pytest.mark.parametrize("s2, psi_up, excess", [(0.2**2, 1.4e-17, 0.0),
                                                    (0.04, 0.0, 0.5867)])
    def test_names_its_premises(self, s2, psi_up, excess):
        # the same narrow ramp over DARA (2, 2, 0): under the log-wealth drift
        # alpha(x, phi0) peaks at -0.06 + (s2 / 2) 3, which is 1.4e-17 for a
        # volatility of 0.2 (s2 = 0.04000000000000001) and 0 for s2 = 0.04.
        # e^{lambda T} = e^{14995} overflows, so the first upper bound is inf
        # and passes whatever alpha does, while the second stays 0 and alpha
        # rises to 0.587: the scheme is not monotone at dx lambda = 749.75
        model = PortfolioModel(np.array([0.06]), np.array([[s2]]),
                               DecisionSet.simplex(1),
                               inflow=InflowProfile(5.0, 1.0, 1.001))
        util = DaraUtility(2.0, 2.0, 0.0, truncation_gamma=None)
        cfg = PDEConfig(grid=SpatialGrid(-8, 8, 160), t_final=2.0,
                        n_steps=40, upwind=True)
        rep = maximum_principle_report(solve(model, util, cfg), model)
        assert rep.context["lambda"] == pytest.approx(7497.50, abs=0.005)
        assert rep.context["lambda_dx"] == pytest.approx(749.75, abs=5e-4)
        assert rep.context["growth_overflows"] is True
        assert rep.context["psi_upper"] == pytest.approx(psi_up, rel=0.01,
                                                         abs=0.0)
        assert rep.passed == (excess == 0.0)
        assert rep.worst_violation == pytest.approx(excess, abs=5e-5)

    @pytest.mark.parametrize("n_cells, lambda_dx, excess, phi_min", [
        (40, 52.46, 0.4995, -0.913), (160, 13.12, 0.3610, -0.941),
        (640, 3.279, 0.3451, -4.58), (2560, 0.8198, 0.0, -7.59)],
        ids=["40", "160", "640", "2560"])
    def test_fails_exactly_while_lambda_dx_exceeds_one(
            self, n_cells, lambda_dx, excess, phi_min):
        # one asset under the inflow (50, 1, 1.5), where alpha(x, phi0) <= 0
        # gives the upper bound 0: alpha stays below it for the problem
        # itself, so an excess is the scheme's, and the upwind scheme leaves
        # the bound only while dx lambda > 1. phi < 0 is the problem's: the
        # minimum over levels falls further under refinement
        model = PortfolioModel(np.array([0.06]), np.array([[0.04]]),
                               DecisionSet.simplex(1),
                               inflow=InflowProfile(50.0, 1.0, 1.5))
        util = DaraUtility(2.0, 2.0, 0.0, truncation_gamma=None)
        cfg = PDEConfig(grid=SpatialGrid(-8, 8, n_cells), t_final=2.0,
                        n_steps=20, upwind=True)
        sol = solve(model, util, cfg)
        rep = maximum_principle_report(sol, model)
        assert rep.context["psi_upper"] == 0.0
        assert rep.context["growth_overflows"] is False
        assert rep.context["lambda_dx"] == pytest.approx(lambda_dx, rel=1e-3)
        assert rep.passed == (rep.context["lambda_dx"] <= 1.0)
        assert rep.worst_violation == pytest.approx(excess, abs=5e-4)
        assert sol.phi.min() == pytest.approx(phi_min, abs=5e-3)

    @pytest.mark.parametrize("step", [0, -1])
    def test_fails_on_a_nan_sample(self, paper_model, step):
        # a nan gap compared as no violation, as max(0, nan) = 0
        sol = small_dara_run(paper_model)
        phi = sol.phi.copy()
        phi[step, 10] = np.nan
        rep = maximum_principle_report(dataclasses.replace(sol, phi=phi),
                                       paper_model)
        assert not rep.passed and rep.worst_violation == np.inf
        where = rep.context["worst_location"]
        assert (where["step"], where["cell"]) == (step % len(phi), 10)
        assert np.isnan(where["alpha"])

    @pytest.mark.parametrize("case, capped", [
        ("flagship", ["upper"]), ("positive", ["lower"]),
        ("both_signs", [])])
    def test_names_the_sides_capped_at_zero(self, paper_model,
                                            singleton_model, case, capped):
        # flagship: the shipped stocks/bonds DARA run, where alpha(x, phi0)
        # lies in about [-0.067, -0.057]; one asset has alpha = -0.06 +
        # 0.02 phi, positive for phi0 = 5 and of both signs over [2, 5]
        if case == "flagship":
            model, util = paper_model, DaraUtility(9.0, 6.0, 2.0, 8.0)
            grid = SpatialGrid(-8, 8, 400)
            cfg = PDEConfig(grid=grid, t_final=10.0, n_steps=400,
                            upwind=True)
        else:
            model, grid = singleton_model, SpatialGrid(-8, 8, 40)
            phi0 = (np.full(40, 5.0) if case == "positive"
                    else np.linspace(2.0, 5.0, 40))
            util = TabulatedPhi0(grid.centers, phi0, truncation_gamma=None)
            cfg = PDEConfig(grid=grid, t_final=1.0, n_steps=10, upwind=True)
        rep = maximum_principle_report(solve(model, util, cfg), model)
        assert rep.context["capped_at_zero"] == capped
        for side in ("lower", "upper"):
            assert (rep.context[f"psi_{side}"] == 0.0) == (side in capped)

    def test_zero_bound_holds_past_overflow(self):
        # lambda is about 131 here, so e^{lam tau} overflows from tau = 5.5
        # on; the zero upper bound (alpha(x, phi0) <= 0, with equality left
        # of the inflow ramp) stays 0 at every tau, and alpha rising above 0
        # at the last step is reported there, not hidden by 0 * inf = nan
        model = PortfolioModel(np.array([0.06]), np.array([[0.04]]),
                               DecisionSet.simplex(1),
                               inflow=InflowProfile(50.0, 1.0, 1.5))
        grid = SpatialGrid(-8, 8, 40)
        util = TabulatedPhi0(grid.centers, np.full(40, 2.0),
                             truncation_gamma=None)
        cfg = PDEConfig(grid=grid, t_final=20.0, n_steps=20, upwind=True)
        sol = solve(model, util, cfg)
        assert sol.bounds.upper == np.inf
        rep = maximum_principle_report(sol, model)
        assert rep.context["growth_overflows"] is True
        a, _, _ = alpha_field(model, grid.centers, sol.phi)
        assert rep.context["psi_upper"] == 0.0
        assert not rep.passed
        assert rep.worst_violation == a.max() > 0.0
        assert rep.context["worst_location"]["side"] == "upper"
        assert rep.context["worst_location"]["step"] == 20


def plain_leaves(obj):
    """The leaves of a nest of dicts and lists that are not str, int,
    float, bool or None (numpy scalars included)."""
    if isinstance(obj, dict):
        return [v for x in obj.values() for v in plain_leaves(x)]
    if isinstance(obj, list):
        return [v for x in obj for v in plain_leaves(x)]
    return [] if type(obj) in (str, int, float, bool, type(None)) else [obj]


@pytest.mark.parametrize("run", ["flagship", "menu"])
def test_reports_hold_plain_numbers(paper_model, fund_menu_model, run):
    # the shipped 400x400 stocks/bonds DARA run, and the same run on the
    # three-fund menu; the JSON written is dataclasses.asdict as it stands
    model = paper_model if run == "flagship" else fund_menu_model
    util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
    cfg = PDEConfig(grid=SpatialGrid(-8, 8, 400), t_final=10.0, n_steps=400,
                    upwind=True)
    sol = solve(model, util, cfg)
    for rep in (monotonicity_certificate(model),
                maximum_principle_report(sol, model),
                energy_estimate_report(sol, sol, model)):
        doc = dataclasses.asdict(rep)
        assert plain_leaves(doc) == []
        assert json.loads(json.dumps(doc)) == doc
        assert rep.passed
