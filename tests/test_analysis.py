import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccati_hjb import (
    CheckReport,
    ContractionBudget,
    DaraUtility,
    DecisionSet,
    PDEConfig,
    PortfolioModel,
    SpatialGrid,
    TabulatedPhi0,
    alpha_field,
    contraction_budget,
    energy_estimate_report,
    lipschitz_bounds,
    maximum_principle_report,
    monotonicity_certificate,
    sobolev_norm,
    solve,
    solve_alpha,
)
from riccati_hjb.alpha import closed_form_n2
from riccati_hjb.model import InflowProfile
from riccati_hjb.pde import CutoffBounds, lambda_bound
from two_asset_data import two_asset_sigma


def decaying_sample(rng, n=400, width=20.0):
    x = np.linspace(-width / 2, width / 2, n, endpoint=False)
    dx = x[1] - x[0]
    k = rng.integers(1, 6)
    f = rng.normal() * np.sin(k * x) * np.exp(-(x / (width / 8)) ** 2)
    f += rng.normal() * np.exp(-((x - rng.uniform(-2, 2)) ** 2))
    return f, dx


class TestSobolevNorm:
    def test_parseval_matches_trapezoid(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            f, dx = decaying_sample(rng)
            trap = np.sqrt(np.trapezoid(f * f, dx=dx))
            assert abs(sobolev_norm(f, dx, 0.0) - trap) <= 1e-10

    def test_pure_mode_ratio(self):
        # Gaussian-windowed sine: the H1/L2 ratio approaches 1 + xi0^2
        x = np.linspace(-40, 40, 4096, endpoint=False)
        dx = x[1] - x[0]
        xi0 = 2.0
        f = np.sin(xi0 * x) * np.exp(-(x / 12.0) ** 2)
        ratio = (sobolev_norm(f, dx, 1.0) / sobolev_norm(f, dx, 0.0)) ** 2
        assert ratio == pytest.approx(1 + xi0**2, rel=2e-2)

    def test_order_monotonicity(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            f, dx = decaying_sample(rng)
            n_m1 = sobolev_norm(f, dx, -1.0)
            n_0 = sobolev_norm(f, dx, 0.0)
            n_p1 = sobolev_norm(f, dx, 1.0)
            assert n_m1 <= n_0 + 1e-15 <= n_p1 + 2e-15

    def test_uniform_x_accepted_nonuniform_rejected(self):
        x = np.linspace(0, 1, 64)
        f = np.sin(2 * np.pi * x)
        assert sobolev_norm(f, x=x) > 0
        x_bad = x.copy()
        x_bad[10] += 1e-3
        with pytest.raises(ValueError, match="non-uniform"):
            sobolev_norm(f, x=x_bad)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sobolev_norm([1.0], 0.1)
        with pytest.raises(ValueError):
            sobolev_norm([1.0, 2.0])


class TestCheckReport:
    def test_pass_iff_within_tolerance(self):
        ok = CheckReport("demo", bound_lhs=1.0, bound_rhs=1.0, tolerance=1e-12)
        assert ok.passed and ok.worst_violation == 0.0
        bad = CheckReport("demo", bound_lhs=2.0, bound_rhs=1.0, tolerance=0.5)
        assert not bad.passed and bad.worst_violation == 1.0

    def test_json_round_trip(self):
        import json
        rep = CheckReport("demo", 1.0, 2.0, 1e-9,
                          context={"arr": np.arange(3), "v": np.float64(2.5)})
        payload = json.dumps(rep.to_dict())
        assert json.loads(payload)["check_name"] == "demo"


class TestMonotonicityCertificate:
    def test_singleton_zero_slack(self, singleton_model):
        rep = monotonicity_certificate(singleton_model, n_pairs=100)
        assert rep.passed
        assert rep.context["min_ratio"] == pytest.approx(0.02, abs=1e-14)
        assert rep.context["max_ratio"] == pytest.approx(0.02, abs=1e-14)

    def test_two_asset_thousand_pairs(self, paper_model):
        rep = monotonicity_certificate(paper_model, n_pairs=1000, seed=42)
        assert rep.passed
        assert rep.worst_violation <= 1e-12  # quotient roundoff only
        b = lipschitz_bounds(paper_model)
        assert rep.context["min_ratio"] >= b.omega - 1e-12
        assert rep.context["max_ratio"] <= b.big_l + 1e-12

    def test_menu_pairs(self, fund_menu_model):
        rep = monotonicity_certificate(fund_menu_model, n_pairs=1000, seed=42)
        assert rep.passed and rep.worst_violation <= 1e-12

    def test_pairs_straddling_breakpoint(self, paper_model):
        bp = closed_form_n2(paper_model).phi_lo
        samples = np.concatenate([
            np.linspace(bp - 0.5, bp - 1e-6, 25),
            np.linspace(bp + 1e-6, bp + 0.5, 25)])
        rep = monotonicity_certificate(paper_model, phi_samples=samples)
        assert rep.passed

    @pytest.mark.parametrize("which", ["two_asset", "menu", "three_asset_inflow"])
    def test_matches_scalar_loop(self, paper_model, fund_menu_model, which):
        rng = np.random.default_rng(5)
        g = rng.normal(size=(3, 3))
        model, xs = {
            "two_asset": (paper_model, [0.0]),
            "menu": (fund_menu_model, [0.0]),
            "three_asset_inflow": (PortfolioModel(
                rng.normal(0.05, 0.1, 3), g @ g.T + 0.05 * np.eye(3),
                DecisionSet.simplex(3), inflow=InflowProfile(0.2, 1.0, 2.0)),
                [-0.5, 0.3, 1.2]),
        }[which]
        n_pairs, seed, (lo, hi) = 300, 9, (0.1, 50.0)
        rep = monotonicity_certificate(model, x_samples=xs, n_pairs=n_pairs,
                                       seed=seed, phi_range=(lo, hi))
        # the certificate's seeded pair sampling, then one scalar QP per value
        pairs_rng = np.random.default_rng(seed)
        pairs = []
        while len(pairs) < n_pairs:
            a = pairs_rng.uniform(lo, hi, size=n_pairs - len(pairs))
            b = pairs_rng.uniform(lo, hi, size=n_pairs - len(pairs))
            pairs += [(p, q) for p, q in zip(a, b) if abs(p - q) >= 1e-6]
        ratios = [(solve_alpha(model, x, p).value - solve_alpha(model, x, q).value)
                  / (p - q) for x in xs for p, q in pairs]
        assert rep.context["min_ratio"] == pytest.approx(min(ratios), abs=1e-12)
        assert rep.context["max_ratio"] == pytest.approx(max(ratios), abs=1e-12)

    def test_deterministic_given_seed(self, paper_model):
        a = monotonicity_certificate(paper_model, n_pairs=50, seed=7)
        b = monotonicity_certificate(paper_model, n_pairs=50, seed=7)
        assert a.to_dict() == b.to_dict()

    @given(seed=st.integers(0, 5000), n=st.integers(1, 4))
    @settings(max_examples=15, deadline=None)
    def test_never_fails_on_valid_models(self, seed, n):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(n, n))
        model = PortfolioModel(rng.normal(0.05, 0.1, n),
                               g @ g.T + 0.02 * np.eye(n),
                               DecisionSet.simplex(n))
        rep = monotonicity_certificate(model, n_pairs=60, seed=seed)
        assert rep.passed


class TestContractionBudget:
    def test_singleton_closed_form(self, singleton_model):
        # by hand: omega = L = s^2/2, M = |alpha at the initial profile|,
        # Phi = (M + |h|)/omega, beta = max(L, L Phi + M), t0 = omega/(2 beta^2)
        s2, m = 0.04, 0.06
        omega = 0.5 * s2
        grid = SpatialGrid(-4.0, 4.0, 64)
        phi0 = np.full(64, 2.0)
        big_m = abs(-m + omega * 2.0)
        cut = CutoffBounds(m=big_m, lam=0.0, horizon=1.0)
        budget = contraction_budget(singleton_model, cut, h_max=m)
        phi_bound = (big_m + m) / omega
        beta = max(omega, omega * phi_bound + big_m)
        assert budget.beta == pytest.approx(beta, rel=1e-15)
        assert budget.t0 == pytest.approx(2 * omega / (4 * beta**2), rel=1e-12)
        assert budget.beta_tilde**2 == 4.0 * beta**2

    def test_t0_linear_in_omega(self):
        a = ContractionBudget.from_constants(omega=1e-3, beta=2.0)
        b = ContractionBudget.from_constants(omega=2e-3, beta=2.0)
        assert b.t0 == pytest.approx(2 * a.t0, rel=1e-15)

    def test_beta_tilde_dimension_factor(self):
        budget = ContractionBudget.from_constants(omega=0.5, beta=3.0)
        assert budget.beta_tilde**2 == pytest.approx(4 * 9.0, rel=1e-15)

    def test_from_solution_field(self, paper_model):
        util = DaraUtility(9.0, 6.0, 2.0)
        cfg = PDEConfig(grid=SpatialGrid(-8, 8, 80), t_final=2.0, n_steps=20)
        sol = solve(paper_model, util, cfg)
        budget = contraction_budget(paper_model, sol)
        assert budget.t0 > 0
        assert budget.horizon == pytest.approx(2.0)
        assert budget.windows() >= 1
        # horizon far beyond the contraction window for this data set
        assert budget.windows() == 1 + int(
            np.ceil((2.0 - budget.t0) / (budget.t0 / 2)))

    def test_cutoffbounds_requires_h(self, singleton_model):
        with pytest.raises(ValueError, match="h_max"):
            contraction_budget(singleton_model,
                               CutoffBounds(m=0.1, lam=0.0, horizon=1.0))

    def test_solution_respects_a_priori_sup_bound(self, paper_model):
        # |phi| never exceeds (M e^{lam T} + max|h|) / omega
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        cfg = PDEConfig(grid=SpatialGrid(-8, 8, 120), t_final=4.0,
                        n_steps=40, upwind=True)
        sol = solve(paper_model, util, cfg)
        budget = contraction_budget(paper_model, sol)
        assert np.max(np.abs(sol.phi)) <= budget.phi_bound + 1e-8


class TestEnergyEstimate:
    def test_zero_initial_data(self, singleton_model):
        grid = SpatialGrid(-4.0, 4.0, 64)
        util = TabulatedPhi0(grid.centers, np.zeros(64))
        cfg = PDEConfig(grid=grid, t_final=1.0, n_steps=10)
        sol = solve(singleton_model, util, cfg)
        rep = energy_estimate_report(sol, singleton_model)
        assert rep.passed
        assert rep.bound_lhs == pytest.approx(0.0, abs=1e-20)

    def test_steady_state_sup_norm_constant(self, paper_model):
        util = DaraUtility(9.0, 9.0, 0.0, truncation_gamma=None)
        cfg = PDEConfig(grid=SpatialGrid(-8, 8, 100), t_final=3.0, n_steps=30)
        sol = solve(paper_model, util, cfg)
        dx = cfg.grid.dx
        norms = [sobolev_norm(row, dx, -1.0) ** 2 for row in sol.phi]
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
        rep = energy_estimate_report(sol, model)
        assert rep.passed
        # with inflow, h = alpha(x, 0) bends in x, so d_xx h enters the data
        no_inflow = energy_estimate_report(sol, PortfolioModel(
            np.array([0.1028, 0.0516]), two_asset_sigma(),
            DecisionSet.simplex(2)))
        assert rep.context["rhs_data"] > no_inflow.context["rhs_data"]

    def test_refinement_ratio_stable(self, paper_model):
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        ratios = []
        for cells, steps in ((100, 50), (200, 100)):
            cfg = PDEConfig(grid=SpatialGrid(-8, 8, cells), t_final=2.0,
                            n_steps=steps, upwind=True)
            sol = solve(paper_model, util, cfg)
            rep = energy_estimate_report(sol, paper_model)
            assert rep.passed
            ratios.append(rep.context["ratio"])
        assert ratios[1] <= ratios[0] * 1.10


class TestMaximumPrincipleReport:
    def test_constant_run_zero_slack(self, paper_model):
        util = DaraUtility(9.0, 9.0, 0.0, truncation_gamma=None)
        cfg = PDEConfig(grid=SpatialGrid(-8, 8, 64), t_final=2.0, n_steps=10)
        sol = solve(paper_model, util, cfg)
        rep = maximum_principle_report(sol, paper_model)
        assert rep.passed
        assert rep.worst_violation <= 1e-14  # flat profile, roundoff only
        assert rep.context["lambda"] == 0.0

    def test_report_is_deterministic(self, paper_model):
        util = DaraUtility(9.0, 6.0, 2.0)
        cfg = PDEConfig(grid=SpatialGrid(-8, 8, 64), t_final=1.0, n_steps=10,
                        upwind=True)
        sol = solve(paper_model, util, cfg)
        a = maximum_principle_report(sol, paper_model)
        b = maximum_principle_report(sol, paper_model)
        assert a.to_dict() == b.to_dict()

    @pytest.mark.parametrize("which", ["dirichlet_lower", "dirichlet_upper",
                                       "inflow"])
    def test_matches_step_loop(self, paper_model, singleton_model, which):
        grid = SpatialGrid(-8, 8, 100)
        dara = DaraUtility(9.0, 6.0, 2.0, 8.0)
        # a wall pinned below the initial range breaks the lower bound; one
        # that lifts alpha above 0 (from -0.02 at phi = 2) the upper one
        model, util, kw = {
            "dirichlet_lower": (paper_model, dara, dict(
                boundary="dirichlet", dirichlet_values=(6.0, 0.5))),
            "dirichlet_upper": (singleton_model, TabulatedPhi0(
                grid.centers, np.full(100, 2.0), truncation_gamma=None),
                dict(boundary="dirichlet", dirichlet_values=(5.0, 2.0),
                     upwind=True)),
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
        lam = lambda_bound(model, grid)
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
