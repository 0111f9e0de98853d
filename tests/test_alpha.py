import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccati_hjb import (
    AlphaEngineError,
    AlphaResult,
    DecisionSet,
    PortfolioModel,
    alpha_field,
    closed_form_n2,
    InflowProfile,
    SpatialGrid,
    kkt_residual,
    lipschitz_bounds,
    solve_alpha,
    weights_path,
)
from riccati_hjb import alpha
from riccati_hjb.alpha import _n2_weight_line, exhaustive_alpha
from riccati_hjb.pde import lambda_bound
from two_asset_data import MU_S, MU_B, two_asset_sigma


def grid_search_oracle(model, phi, step=1e-6):
    """Brute-force two-asset minimizer over theta1 in [0, 1]."""
    th1 = np.arange(0.0, 1.0 + step, step)
    th2 = 1.0 - th1
    s = model.sigma
    var = th1**2 * s[0, 0] + 2 * th1 * th2 * s[0, 1] + th2**2 * s[1, 1]
    vals = -(model.mu[0] * th1 + model.mu[1] * th2) + 0.5 * phi * var
    i = int(np.argmin(vals))
    return float(vals[i]), float(th1[i])


class TestSolveAlpha:
    def test_singleton_affine(self, singleton_model):
        for phi in (0.1, 1.0, 7.3, 40.0):
            r = solve_alpha(singleton_model, 0.0, phi)
            assert r.value == pytest.approx(-0.06 + 0.5 * phi * 0.04, abs=1e-15)
            assert r.theta_hat[0] == 1.0
            assert r.dvalue_dphi == pytest.approx(0.02)

    def test_equal_means_symmetric(self):
        n = 4
        model = PortfolioModel(np.full(n, 0.07), np.eye(n),
                               DecisionSet.simplex(n))
        r = solve_alpha(model, 0.0, 3.0)
        np.testing.assert_allclose(r.theta_hat, np.full(n, 0.25), atol=1e-12)
        assert r.value == pytest.approx(-0.07 + 3.0 / (2 * n), abs=1e-12)

    def test_two_asset_against_grid_oracle(self, paper_model):
        # frozen from the brute-force scan at step 1e-6
        val, th1 = grid_search_oracle(paper_model, 10.0)
        r = solve_alpha(paper_model, 0.0, 10.0)
        assert abs(r.theta_hat[0] - th1) < 1e-6
        assert r.value <= val + 1e-12
        assert r.theta_hat[0] == pytest.approx(0.1847065, abs=1e-6)

    def test_interior_kkt_formula(self, paper_model):
        s = paper_model.sigma
        q = s[0, 0] - 2 * s[0, 1] + s[1, 1]
        for phi in (3.0, 10.0, 25.0):
            expect = ((MU_S - MU_B) / phi + s[1, 1] - s[0, 1]) / q
            r = solve_alpha(paper_model, 0.0, phi)
            assert r.theta_hat[0] == pytest.approx(expect, abs=1e-12)

    def test_simplex_feasibility_and_kkt(self, paper_model):
        for phi in (0.2, 1.0, 1.7827, 5.0, 100.0):
            r = solve_alpha(paper_model, 0.0, phi)
            assert abs(r.theta_hat.sum() - 1.0) <= 1e-12
            assert np.all(r.theta_hat >= 0.0)
            assert kkt_residual(paper_model, 0.0, phi, r) <= 1e-10

    def test_active_set_below_breakpoint(self, paper_model):
        r = solve_alpha(paper_model, 0.0, 1.0)  # below the lower breakpoint
        np.testing.assert_allclose(r.theta_hat, [1.0, 0.0], atol=1e-12)
        assert r.active_set == (0,)


class TestDiscreteMenu:
    def test_growth_fund_wins_at_small_phi(self, fund_menu_model):
        r = solve_alpha(fund_menu_model, 0.0, 1e-12)
        np.testing.assert_allclose(r.theta_hat, [0.8, 0.2])
        assert r.value == pytest.approx(-0.09256, abs=1e-6)
        # oracle: evaluate all three lines
        pts = fund_menu_model.decision_set.points
        lines = [-(fund_menu_model.mu @ th)
                 + 0.5e-12 * fund_menu_model.variance(th) for th in pts]
        assert r.value == pytest.approx(min(lines), abs=1e-15)

    def test_min_variance_wins_at_large_phi(self, fund_menu_model):
        r = solve_alpha(fund_menu_model, 0.0, 1e6)
        pts = fund_menu_model.decision_set.points
        i = int(np.argmin([fund_menu_model.variance(th) for th in pts]))
        np.testing.assert_allclose(r.theta_hat, pts[i])

    def test_singleton_menu_is_affine(self):
        menu = DecisionSet.discrete([[0.5, 0.5]])
        model = PortfolioModel(np.array([MU_S, MU_B]), two_asset_sigma(), menu)
        phis = np.array([1.0, 2.0, 3.0])
        vals = np.array([solve_alpha(model, 0.0, p).value for p in phis])
        assert vals[2] - vals[1] == pytest.approx(vals[1] - vals[0], abs=1e-15)

    def test_ties_break_low_index(self):
        # identical rows are rejected, so engineer two lines crossing at phi=1
        menu = DecisionSet.discrete([[1.0, 0.0], [0.0, 1.0]])
        sigma = np.array([[0.02, 0.0], [0.0, 0.04]])
        mu = np.array([0.05, 0.06])  # equal values exactly at phi = 1
        model = PortfolioModel(mu, sigma, menu)
        r = solve_alpha(model, 0.0, 1.0)
        assert r.theta_hat[0] == 1.0

    def test_menu_dominates_simplex(self, paper_model, fund_menu_model):
        for phi in np.linspace(0.2, 30, 97):
            a_menu = solve_alpha(fund_menu_model, 0.0, float(phi)).value
            a_full = solve_alpha(paper_model, 0.0, float(phi)).value
            assert a_menu >= a_full - 1e-12


class TestClosedForm:
    def test_breakpoint_against_bisection(self, paper_model):
        cf = closed_form_n2(paper_model)

        def top_weight(phi):
            return solve_alpha(paper_model, 0.0, phi).theta_hat[0]

        lo, hi = 0.5, 5.0
        for _ in range(70):
            mid = 0.5 * (lo + hi)
            if top_weight(mid) >= 1.0 - 1e-14:
                lo = mid
            else:
                hi = mid
        assert cf.phi_lo == pytest.approx(0.5 * (lo + hi), abs=1e-9)
        assert abs(cf.phi_lo - 2.0) < 0.5
        assert cf.phi_hi == np.inf  # minimum-variance weights are interior

    def test_matches_qp_on_dense_grid(self, paper_model):
        cf = closed_form_n2(paper_model)
        phis = np.linspace(0.5, 20.0, 1000)
        qp = np.array([solve_alpha(paper_model, 0.0, float(p)).value
                       for p in phis])
        assert np.max(np.abs(cf.evaluate(phis) - qp)) <= 1e-10

    def test_equal_means_affine(self):
        model = PortfolioModel(np.array([0.07, 0.07]), two_asset_sigma(),
                               DecisionSet.simplex(2))
        cf = closed_form_n2(model)
        assert cf.b_const == 0.0
        phis = np.array([1.0, 4.0, 7.0])
        vals = cf.evaluate(phis)
        assert vals[2] - vals[1] == pytest.approx(vals[1] - vals[0], abs=1e-14)

    def test_c1_matching_both_breakpoints(self, finite_breakpoints_model):
        cf = closed_form_n2(finite_breakpoints_model)
        assert np.isfinite(cf.phi_lo) and np.isfinite(cf.phi_hi)
        for bp, e, d in ((cf.phi_lo, cf.e_minus, cf.d_minus),
                         (cf.phi_hi, cf.e_plus, cf.d_plus)):
            assert e == pytest.approx(cf.b_const / bp**2 + cf.c_const, abs=1e-12)
            interior = cf.a_const - cf.b_const / bp + cf.c_const * bp
            assert e * bp + d == pytest.approx(interior, abs=1e-12)

    def test_matches_qp_with_finite_upper(self, finite_breakpoints_model):
        cf = closed_form_n2(finite_breakpoints_model)
        phis = np.linspace(0.2, 4 * cf.phi_hi, 800)
        qp = np.array([solve_alpha(finite_breakpoints_model, 0.0, float(p)).value
                       for p in phis])
        assert np.max(np.abs(cf.evaluate(phis) - qp)) <= 1e-10

    def test_shape_invariants(self, paper_model):
        cf = closed_form_n2(paper_model)
        assert cf.c_const > 0
        assert cf.b_const >= 0
        assert cf.e_minus > 0

    def test_empty_interior_single_vertex(self):
        # mu1 < mu2 with a negative minimum-variance weight: the low-return
        # high-variance asset never enters, so alpha is one vertex line
        sigma = np.array([[0.04, 0.01], [0.01, 0.005]])
        model = PortfolioModel(np.array([0.05, 0.10]), sigma,
                               DecisionSet.simplex(2))
        cf = closed_form_n2(model)
        assert cf.phi_lo == np.inf and cf.phi_hi == np.inf
        phis = np.linspace(0.1, 30, 500)
        qp = np.array([solve_alpha(model, 0.0, float(p)).value for p in phis])
        assert np.max(np.abs(cf.evaluate(phis) - qp)) <= 1e-12
        assert cf.e_minus == pytest.approx(0.5 * sigma[1, 1])

    def test_empty_interior_pinned_high_vertex(self):
        # minimum-variance weight above one and the high-return asset first:
        # the minimizer stays pinned at (1, 0) for every phi
        sigma = np.array([[0.005, 0.01], [0.01, 0.04]])
        model = PortfolioModel(np.array([0.10, 0.05]), sigma,
                               DecisionSet.simplex(2))
        cf = closed_form_n2(model)
        assert cf.phi_lo == np.inf
        phis = np.linspace(0.1, 30, 500)
        qp = np.array([solve_alpha(model, 0.0, float(p)).value for p in phis])
        assert np.max(np.abs(cf.evaluate(phis) - qp)) <= 1e-12

    def test_mirrored_means_finite_breakpoints(self):
        # mu1 < mu2 with the minimum-variance weight above one: the interior
        # interval is finite but entered from the low-return vertex
        sigma = np.array([[0.005, 0.01], [0.01, 0.04]])
        model = PortfolioModel(np.array([0.05, 0.10]), sigma,
                               DecisionSet.simplex(2))
        cf = closed_form_n2(model)
        assert 0 < cf.phi_lo < cf.phi_hi < np.inf
        phis = np.linspace(0.1, 4 * cf.phi_hi, 600)
        qp = np.array([solve_alpha(model, 0.0, float(p)).value for p in phis])
        assert np.max(np.abs(cf.evaluate(phis) - qp)) <= 1e-12

    def test_rejects_log_wealth(self):
        model = PortfolioModel(np.array([MU_S, MU_B]), two_asset_sigma(),
                               DecisionSet.simplex(2), drift_mode="log_wealth")
        with pytest.raises(AlphaEngineError, match="simple drift"):
            closed_form_n2(model)


class TestLipschitzBounds:
    def test_identity_sigma(self):
        for n in (2, 3, 5):
            model = PortfolioModel(np.full(n, 0.05), np.eye(n),
                                   DecisionSet.simplex(n))
            b = lipschitz_bounds(model)
            assert b.omega == pytest.approx(1.0 / (2 * n), abs=1e-12)
            assert b.big_l == pytest.approx(0.5)

    def test_two_asset_upper_bound(self, paper_model):
        b = lipschitz_bounds(paper_model)
        assert b.big_l == pytest.approx(0.0142805, abs=1e-12)
        assert 0 < b.omega <= b.big_l

    def test_menu_bounds(self, fund_menu_model):
        b = lipschitz_bounds(fund_menu_model)
        assert b.omega == pytest.approx(0.5 * 0.0082**2, abs=1e-15)
        pts = fund_menu_model.decision_set.points
        assert b.big_l == pytest.approx(
            0.5 * max(fund_menu_model.variance(th) for th in pts))


class TestEnvelopeGradientX:
    # alpha_x = -d mu / dx = -inflow.term_dx(x) by the envelope theorem (the
    # inflow term does not depend on theta), and lambda_bound takes the sup
    # of p(x) = |d mu / dx|
    def test_no_inflow(self, paper_model):
        assert lambda_bound(paper_model, SpatialGrid(-2.0, 2.0, 16)) == 0.0

    def test_zero_rate(self):
        model = PortfolioModel(np.array([MU_S, MU_B]), two_asset_sigma(),
                               DecisionSet.simplex(2),
                               inflow=InflowProfile(0.0, 1.0, 2.0))
        for x in (-1.0, 0.5, 2.0):
            assert model.inflow.term_dx(x) == 0.0
        assert lambda_bound(model, SpatialGrid(-2.0, 2.0, 16)) == 0.0

    def test_saturated_regime(self):
        inflow = InflowProfile(1.0, 1.0, 2.0)
        model = PortfolioModel(np.array([MU_S, MU_B]), two_asset_sigma(),
                               DecisionSet.simplex(2), inflow=inflow)
        # beyond y_plus the term is e^{-x}, so d mu / dx = -1/3 at y = 3
        assert inflow.term_dx(np.log(3.0)) == pytest.approx(-1.0 / 3.0,
                                                            abs=1e-12)
        # the sup of p(x) sits on the ramp; brute force over a fine grid
        xs = np.linspace(-10.0, 10.0, 2_000_001)
        sup = float(np.max(np.abs(inflow.term_dx(xs))))
        assert sup > 1.0 / 3.0
        assert lambda_bound(model, SpatialGrid(-2.0, 2.0, 16)) == (
            pytest.approx(sup, rel=1e-5))


class TestWeightsPath:
    def test_stocks_weight_non_increasing(self, paper_model):
        path = weights_path(paper_model, np.linspace(0.5, 50, 300))
        assert np.all(np.diff(path["theta"][:, 0]) <= 1e-12)
        # the path is the QP at each grid point
        r = solve_alpha(paper_model, 0.0, float(path["phi"][17]))
        np.testing.assert_allclose(path["theta"][17], r.theta_hat, atol=1e-14)

    def test_singleton_constant(self, singleton_model):
        path = weights_path(singleton_model, np.linspace(0.5, 20, 40))
        assert np.all(path["theta"] == 1.0)

    def test_vertex_beyond_upper_breakpoint(self, finite_breakpoints_model):
        cf = closed_form_n2(finite_breakpoints_model)
        r = solve_alpha(finite_breakpoints_model, 0.0, cf.phi_hi * 1.01)
        np.testing.assert_allclose(r.theta_hat, [0.0, 1.0], atol=1e-12)

    def test_weights_affine_in_reciprocal_phi(self, paper_model):
        phis = np.linspace(3.0, 10.0, 9)  # one active set throughout
        path = weights_path(paper_model, phis)
        th = path["theta"][:, 0]
        for i in range(len(phis) - 2):
            p1, p2, p3 = phis[i], phis[i + 1], phis[i + 2]
            v = (th[i + 2] - th[i]) / (1 / p3 - 1 / p1)
            u = th[i] - v / p1
            assert th[i + 1] == pytest.approx(u + v / p2, abs=1e-10)

    def test_rejects_bad_grid(self, paper_model):
        with pytest.raises(AlphaEngineError):
            weights_path(paper_model, [2.0, 1.0])
        with pytest.raises(AlphaEngineError):
            weights_path(paper_model, [-1.0, 2.0])


class TestAnalyticProperties:
    def test_strong_monotonicity_sampled(self, paper_model, fund_menu_model):
        rng = np.random.default_rng(42)
        for model in (paper_model, fund_menu_model):
            b = lipschitz_bounds(model)
            phis = rng.uniform(0.1, 50.0, size=(200, 2))
            phis = phis[np.abs(phis[:, 0] - phis[:, 1]) > 1e-6]
            for p1, p2 in phis:
                a1 = solve_alpha(model, 0.0, float(p1)).value
                a2 = solve_alpha(model, 0.0, float(p2)).value
                ratio = (a1 - a2) / (p1 - p2)
                assert b.omega - 1e-10 <= ratio <= b.big_l + 1e-10

    def test_envelope_derivative_matches_fd(self, paper_model):
        rng = np.random.default_rng(3)
        phi_lo = closed_form_n2(paper_model).phi_lo  # the only breakpoint
        tested = 0
        while tested < 25:
            phi = float(rng.uniform(0.3, 30.0))
            if abs(phi - phi_lo) <= 1e-3:
                continue
            r = solve_alpha(paper_model, 0.0, phi)
            for h in (1e-4, 1e-5):
                up = solve_alpha(paper_model, 0.0, phi + h).value
                dn = solve_alpha(paper_model, 0.0, phi - h).value
                assert (up - dn) / (2 * h) == pytest.approx(
                    r.dvalue_dphi, abs=1e-8)
            tested += 1

    def test_concavity_in_phi(self, paper_model):
        phis = np.linspace(0.2, 30.0, 500)
        vals = np.array([solve_alpha(paper_model, 0.0, float(p)).value
                         for p in phis])
        second = np.diff(vals, 2)
        assert np.max(second) <= 1e-10

    def test_dvalue_within_bounds(self, paper_model):
        b = lipschitz_bounds(paper_model)
        for phi in np.linspace(0.1, 60, 60):
            r = solve_alpha(paper_model, 0.0, float(phi))
            assert b.omega - 1e-14 <= r.dvalue_dphi <= b.big_l + 1e-14


@st.composite
def random_models(draw):
    n = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n))
    sigma = g @ g.T + 0.05 * np.eye(n)
    mu = rng.normal(0.05, 0.1, size=n)
    return PortfolioModel(mu, sigma, DecisionSet.simplex(n))


class TestRandomizedCertification:
    @given(model=random_models(), phi=st.floats(0.01, 80.0))
    @settings(max_examples=60, deadline=None)
    def test_kkt_certificate(self, model, phi):
        r = solve_alpha(model, 0.0, phi)
        assert kkt_residual(model, 0.0, phi, r) <= 1e-10
        assert abs(r.theta_hat.sum() - 1.0) <= 1e-12
        b = lipschitz_bounds(model)
        assert b.omega - 1e-12 <= r.dvalue_dphi <= b.big_l + 1e-12

    @given(model=random_models(), phi=st.floats(0.01, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_matches_exhaustive_enumeration(self, model, phi):
        r = solve_alpha(model, 0.0, phi)
        ex = exhaustive_alpha(model, 0.0, phi)
        assert r.value == pytest.approx(ex.value, abs=1e-9)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=50, deadline=None)
    def test_closed_form_matches_qp_on_random_two_asset(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(2, 2))
        sigma = g @ g.T + 1e-3 * np.eye(2)
        model = PortfolioModel(rng.normal(0.05, 0.1, 2), sigma,
                               DecisionSet.simplex(2))
        cf = closed_form_n2(model)
        phis = np.linspace(0.05, 40.0, 120)
        qp = np.array([solve_alpha(model, 0.0, float(p)).value
                       for p in phis])
        assert np.max(np.abs(cf.evaluate(phis) - qp)) <= 1e-10 * max(
            1.0, np.max(np.abs(qp)))


@st.composite
def qp_models(draw):
    """A random simplex model with n = 2..6 assets and wide conditioning:
    covariance scale over [1e-3, 10] and a ridge over [1e-8, 1e-1]; about
    one mean in five is tied to the first."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=(n, n))
    ridge = 10.0 ** rng.uniform(-8.0, -1.0)
    sigma = 10.0 ** rng.uniform(-3.0, 1.0) * (g @ g.T / n + ridge * np.eye(n))
    mu = rng.normal(0.05, 0.1, size=n)
    mu[rng.random(n) < 0.2] = mu[0]
    return PortfolioModel(mu, sigma, DecisionSet.simplex(n))


def _all_negative(rho, sigma, mu, free):
    return -np.ones(len(mu)), 0.0


def _cycling(rho, sigma, mu, free):
    # drops weight 0 from the full set, then takes it back
    cand = np.zeros(len(mu))
    cand[list(free)] = 1.0 / len(free)
    if len(free) == len(mu):
        cand[0] = -1.0
    return cand, -1e3


class TestOneSimplexMinimizer:
    """The active-set QP is the only simplex minimizer, with no fallback:
    it converges, lands on the simplex and is optimal to rounding."""

    @given(model=qp_models(), log_rho=st.floats(-4.0, 4.0))
    @settings(max_examples=200, deadline=None)
    def test_converges_feasible_and_optimal(self, model, log_rho):
        phi = 10.0 ** log_rho
        r = solve_alpha(model, 0.0, phi)
        theta = r.theta_hat
        assert abs(theta.sum() - 1.0) <= 1e-12 and theta.min() >= 0.0
        scale = (1.0 + phi * np.abs(model.sigma).max()
                 + np.abs(model.mu).max())
        assert kkt_residual(model, 0.0, phi, r) <= 1e-12 * scale
        if model.n <= 4:
            ex = exhaustive_alpha(model, 0.0, phi).value
            assert abs(r.value - ex) <= 1e-12 * (1.0 + abs(ex))

    @pytest.mark.parametrize("working_set, message", [
        (_all_negative, "active set emptied out"),
        (_cycling, "active-set iteration did not converge"),
    ])
    def test_failure_names_rho_and_n(self, monkeypatch, working_set,
                                     message):
        monkeypatch.setattr(alpha, "_solve_working_set", working_set)
        with pytest.raises(AlphaEngineError,
                           match=f"{message} at rho=2.5, n=3$"):
            alpha._active_set_qp(np.eye(3), np.zeros(3), 2.5)


class TestAlphaField:
    def test_matches_qp_two_asset(self, paper_model):
        phis = np.linspace(0.3, 40, 500)
        a, s, _ = alpha_field(paper_model, np.zeros_like(phis), phis)
        for i in (0, 100, 250, 499):
            r = solve_alpha(paper_model, 0.0, float(phis[i]))
            assert a[i] == pytest.approx(r.value, abs=1e-14)
            assert s[i] == pytest.approx(r.dvalue_dphi, abs=1e-14)

    def test_matches_qp_across_both_breakpoints(self, finite_breakpoints_model):
        # theta_1 = -0.2 + 2 / rho: clipped to 1 below phi = 5/3 and to 0
        # above phi = 10, interior in between
        model = finite_breakpoints_model
        phis = np.linspace(0.5, 30.0, 60)
        a, s, theta = alpha_field(model, 0.0, phis)
        assert theta[0, 0] == 1.0 and theta[-1, 0] == 0.0
        for i in range(len(phis)):
            r = solve_alpha(model, 0.0, float(phis[i]))
            assert a[i] == pytest.approx(r.value, rel=1e-12, abs=1e-12)
            assert s[i] == pytest.approx(r.dvalue_dphi, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(theta[i], r.theta_hat, atol=1e-12)

    def test_matches_qp_menu_and_nlarge(self, fund_menu_model):
        rng = np.random.default_rng(11)
        g = rng.normal(size=(4, 4))
        sigma = g @ g.T + 0.1 * np.eye(4)
        big = PortfolioModel(rng.normal(0.05, 0.05, 4), sigma,
                             DecisionSet.simplex(4))
        phis = rng.uniform(0.2, 20, 40)
        xs = np.zeros_like(phis)
        for model in (fund_menu_model, big):
            a, s, _ = alpha_field(model, xs, phis)
            for i in range(len(phis)):
                r = solve_alpha(model, 0.0, float(phis[i]))
                assert a[i] == pytest.approx(r.value, abs=1e-12)
                assert s[i] == pytest.approx(r.dvalue_dphi, abs=1e-12)

    def test_nonpositive_phi_vertex(self, paper_model):
        a, _, _ = alpha_field(paper_model, np.zeros(3),
                              np.array([-0.5, 0.0, 1e-12]))
        # at phi <= 0 the minimum sits at a vertex of the simplex
        v = [-paper_model.mu[i] + 0.5 * (-0.5) * paper_model.sigma[i, i]
             for i in range(2)]
        assert a[0] == pytest.approx(min(v), abs=1e-15)
        assert a[1] == pytest.approx(-MU_S, abs=1e-15)  # -max mean return

    def test_x_dependence_with_inflow(self):
        model = PortfolioModel(np.array([MU_S, MU_B]), two_asset_sigma(),
                               DecisionSet.simplex(2),
                               inflow=InflowProfile(1.0, 1.0, 2.0))
        xs = np.array([-1.0, 0.0, 1.0, 2.0])
        phis = np.full_like(xs, 5.0)
        a, _, _ = alpha_field(model, xs, phis)
        for i, x in enumerate(xs):
            r = solve_alpha(model, float(x), 5.0)
            assert a[i] == pytest.approx(r.value, abs=1e-14)


SUBNORMAL_PHIS = [5e-324, 1e-320, 1e-310]


class TestSubnormalRho:
    # rho * Sigma underflows below the smallest normal float, which once
    # made the working-set system singular; the lowest vertex is the
    # minimizer there to rounding

    @pytest.mark.parametrize("phi", SUBNORMAL_PHIS)
    def test_two_asset_scalar(self, paper_model, phi):
        r = solve_alpha(paper_model, 0.0, phi)
        assert np.array_equal(r.theta_hat, [1.0, 0.0])  # the higher mean
        assert r.value == pytest.approx(-MU_S, abs=1e-15)
        assert kkt_residual(paper_model, 0.0, phi, r) <= 1e-10

    @pytest.mark.parametrize("phi", SUBNORMAL_PHIS)
    def test_three_asset_field(self, phi):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(3, 3))
        model = PortfolioModel(np.array([0.05, 0.09, 0.07]),
                               g @ g.T + 0.05 * np.eye(3),
                               DecisionSet.simplex(3))
        phis = np.array([phi, 0.5, phi])
        a, s, theta = alpha_field(model, 0.0, phis)
        for i in (0, 2):
            assert np.array_equal(theta[i], [0.0, 1.0, 0.0])
            r = AlphaResult(value=float(a[i]), theta_hat=theta[i],
                            dvalue_dphi=float(s[i]), active_set=())
            assert kkt_residual(model, 0.0, phi, r) <= 1e-10
            assert a[i] == solve_alpha(model, 0.0, phi).value


@st.composite
def field_models(draw):
    """A random simplex (n = 1..5) or fund-menu model in either drift mode,
    with or without an inflow profile."""
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    g = rng.normal(size=(n, n))
    sigma = g @ g.T + 0.05 * np.eye(n)
    mu = rng.normal(0.05, 0.1, size=n)
    if draw(st.booleans()):
        ds = DecisionSet.simplex(n)
    else:
        funds = 1 if n == 1 else draw(st.integers(1, 6))
        ds = DecisionSet.discrete(rng.dirichlet(np.ones(n), size=funds))
    inflow = None
    if draw(st.booleans()):
        inflow = InflowProfile(float(rng.uniform(0.0, 0.5)), 1.0, 2.0)
    log_wealth = inflow is not None or draw(st.booleans())
    return PortfolioModel(mu, sigma, ds, inflow=inflow,
                          drift_mode="log_wealth" if log_wealth else "simple")


# both signs of phi, weighted towards rho near 0 in either drift mode, where
# the weights leave the vertex, and towards subnormal phi
PHIS = st.one_of(st.floats(-20.0, 80.0), st.floats(-1.5, 1.5),
                 st.floats(-1e-300, 1e-300))


@st.composite
def small_simplex_models(draw):
    """A random one- or two-asset simplex model in either drift mode, with
    or without an inflow profile."""
    n = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    g = rng.normal(size=(n, n))
    inflow = None
    if draw(st.booleans()):
        inflow = InflowProfile(float(rng.uniform(0.0, 0.5)), 1.0, 2.0)
    log_wealth = inflow is not None or draw(st.booleans())
    return PortfolioModel(rng.normal(0.05, 0.1, size=n),
                          g @ g.T + 0.05 * np.eye(n), DecisionSet.simplex(n),
                          inflow=inflow,
                          drift_mode="log_wealth" if log_wealth else "simple")


class TestSmallSimplexField:
    """One and two assets are evaluated in the first weight alone; value and
    slope must agree with the general formula at the returned weights."""

    @staticmethod
    def phi_grid(model):
        """A dense phi grid over both signs of rho, with rho = 0, subnormal
        rho (simple drift) and, for two assets, the rho where a + b / rho
        hits 0 and 1 and the floats next to them."""
        shift = 1.0 if model.drift_mode == "log_wealth" else 0.0
        rhos = [np.linspace(-5.0, 80.0, 2001), [0.0, -5e-324]]
        if shift == 0.0:
            rhos.append([5e-324, 1e-310, 2.2e-308])
        if model.n == 2:
            a, b, _ = _n2_weight_line(model)
            for edge in (-b / a, b / (1.0 - a)):
                rhos.append([edge, np.nextafter(edge, -np.inf),
                             np.nextafter(edge, np.inf)])
        return np.concatenate(rhos) - shift

    @given(model=small_simplex_models(), x=st.floats(-3.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_formula_at_own_weights(self, model, x):
        phis = self.phi_grid(model)
        a, s, theta = alpha_field(model, x, phis)
        rho = phis + (1.0 if model.drift_mode == "log_wealth" else 0.0)
        var = np.einsum("ij,jk,ik->i", theta, model.sigma, theta)
        ref = -theta @ model.mu + 0.5 * rho * var
        if model.inflow is not None:
            ref -= float(model.inflow.term(x))
        tol = 1e-14 * (1.0 + np.abs(a))
        assert np.all(np.abs(a - ref) <= tol)
        assert np.all(np.abs(s - 0.5 * var) <= tol)

    @given(model=small_simplex_models())
    @settings(max_examples=60, deadline=None)
    def test_vertex_rows_are_exact(self, model):
        phis = self.phi_grid(model)
        _, _, theta = alpha_field(model, 0.0, phis)
        if model.n == 1:
            assert np.all(theta == 1.0)
            return
        rho = phis + (1.0 if model.drift_mode == "log_wealth" else 0.0)
        t = theta[:, 0]
        at_vertex = (t == 0.0) | (t == 1.0)
        assert np.all(theta[at_vertex, 1] == 1.0 - t[at_vertex])
        # the lowest vertex where rho <= 0 or is subnormal, and beyond the
        # clip points
        a, b, _ = _n2_weight_line(model)
        with np.errstate(all="ignore"):   # rho = 0 or subnormal
            line = a + b / rho
        convex = rho >= np.finfo(float).tiny
        assert np.all(at_vertex[~convex])
        assert np.all(at_vertex[convex & ((line <= 0.0) | (line >= 1.0))])


class TestAlphaFieldProperties:
    @given(model=field_models(), x=st.floats(-3.0, 3.0),
           phis=st.lists(PHIS, min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_matches_qp_oracle(self, model, x, phis):
        phis = np.array(phis)
        a, s, theta = alpha_field(model, x, phis)
        for i, phi in enumerate(phis):
            r = solve_alpha(model, x, float(phi))
            assert abs(a[i] - r.value) <= 1e-12 * (1.0 + abs(r.value))
            assert abs(s[i] - r.dvalue_dphi) <= 1e-12 * (1.0 + abs(r.value))

    @given(model=field_models(), x=st.floats(-3.0, 3.0),
           phis=st.lists(PHIS, min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_weights_feasible_and_optimal(self, model, x, phis):
        phis = np.array(phis)
        a, s, theta = alpha_field(model, x, phis)
        assert theta.shape == (len(phis), model.n)
        assert np.all(theta >= 0.0)
        assert np.all(np.abs(theta.sum(axis=1) - 1.0) <= 1e-12)
        if model.decision_set.kind != "simplex":
            return
        for i, phi in enumerate(phis):
            r = AlphaResult(value=float(a[i]), theta_hat=theta[i],
                            dvalue_dphi=float(s[i]), active_set=())
            assert kkt_residual(model, x, float(phi), r) <= 1e-10
