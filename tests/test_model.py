import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccati_hjb import (
    DaraUtility,
    ArctanUtility,
    TabulatedPhi0,
    DecisionSet,
    InflowProfile,
    ModelError,
    PortfolioModel,
    SpatialGrid,
    drift,
    ingest_market_data,
    phi0_profile,
)
from two_asset_data import MU_S, MU_B, two_asset_sigma

MU_CSV = f"mean_return\n{MU_S}\n{MU_B}\n"


def sigma_csv():
    s = two_asset_sigma()
    return "\n".join(",".join(repr(float(v)) for v in row) for row in s) + "\n"


class TestIngestion:
    def test_two_asset_data(self):
        model = ingest_market_data(io.StringIO(MU_CSV), io.StringIO(sigma_csv()))
        assert model.n == 2
        np.testing.assert_allclose(model.mu, [MU_S, MU_B])
        np.testing.assert_allclose(model.sigma, two_asset_sigma())
        assert model.decision_set.kind == "simplex"

    def test_single_asset(self):
        model = ingest_market_data(io.StringIO("mu\n0.05\n"),
                                   io.StringIO("0.04\n"))
        assert model.n == 1
        assert model.sigma[0, 0] == 0.04

    def test_rank_one_rejected(self):
        sigma = "0.04,0.02\n0.02,0.01\n"  # eigenvalue zero
        with pytest.raises(ModelError, match="not positive definite"):
            ingest_market_data(io.StringIO(MU_CSV), io.StringIO(sigma))

    def test_dimension_mismatch(self):
        with pytest.raises(ModelError, match="expected 2 rows"):
            ingest_market_data(io.StringIO(MU_CSV), io.StringIO("0.04\n"))

    def test_malformed_value_reports_location(self):
        bad = "0.028561,-0.00016\n-0.00016,oops\n"
        with pytest.raises(ModelError, match="row 2 column 2"):
            ingest_market_data(io.StringIO(MU_CSV), io.StringIO(bad))

    def test_bad_mu_row(self):
        with pytest.raises(ModelError, match="mu csv row 3"):
            ingest_market_data(io.StringIO("mu\n0.1\nxyz\n"),
                               io.StringIO(sigma_csv()))

    def test_asymmetric_sigma_symmetrized(self):
        sigma = "0.04,0.012\n0.008,0.02\n"
        model = ingest_market_data(io.StringIO("mu\n0.1\n0.05\n"),
                                   io.StringIO(sigma))
        assert model.sigma[0, 1] == model.sigma[1, 0] == pytest.approx(0.01)


class TestDecisionSet:
    def test_discrete_validation(self):
        with pytest.raises(ModelError, match="negative"):
            DecisionSet.discrete([[1.1, -0.1]])
        with pytest.raises(ModelError, match="off the simplex"):
            DecisionSet.discrete([[0.6, 0.6]])
        with pytest.raises(ModelError, match="duplicates"):
            DecisionSet.discrete([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ModelError, match="non-empty"):
            DecisionSet.discrete(np.empty((0, 2)))

    def test_simplex_dimension(self):
        with pytest.raises(ModelError):
            DecisionSet.simplex(0)


class TestInflow:
    def test_thresholds_validated(self):
        with pytest.raises(ModelError):
            InflowProfile(1.0, 2.0, 1.0)
        with pytest.raises(ModelError):
            InflowProfile(1.0, -1.0, 1.0)

    def test_ramp_is_c1(self):
        prof = InflowProfile(2.0, 1.0, 3.0)
        assert prof.epsilon(0.5) == 0.0
        assert prof.epsilon(5.0) == 2.0
        assert prof.epsilon(2.0) == pytest.approx(1.0)  # midpoint of the ramp
        y = np.linspace(0.5, 4.0, 2001)
        h = 1e-6
        fd = (prof.epsilon(y + h) - prof.epsilon(y - h)) / (2 * h)
        np.testing.assert_allclose(fd, prof.epsilon_prime(y), atol=1e-6)

    def test_monotone_ramp(self):
        prof = InflowProfile(1.5, 1.0, 2.0)
        y = np.linspace(0.5, 3.0, 500)
        assert np.all(np.diff(prof.epsilon(y)) >= 0)

    def test_outflow_rate(self):
        prof = InflowProfile(-0.5, 1.0, 2.0)
        assert float(prof.epsilon(3.0)) == -0.5
        assert float(prof.term(np.log(3.0))) == pytest.approx(-1.0 / 6.0)
        y = np.linspace(0.5, 3.0, 500)
        assert np.all(np.diff(prof.epsilon(y)) <= 0)


class TestDrift:
    def test_log_wealth_single_vertex_value(self):
        model = PortfolioModel(np.array([MU_S, MU_B]), two_asset_sigma(),
                               DecisionSet.simplex(2), drift_mode="log_wealth")
        # mu_s - variance/2 for the all-stocks vertex
        assert drift(model, 0.0, [1.0, 0.0]) == pytest.approx(0.0885195, abs=1e-12)

    def test_simple_mode_is_mean_return(self, paper_model):
        assert drift(paper_model, 0.0, [1.0, 0.0]) == pytest.approx(MU_S)
        assert drift(paper_model, 3.0, [0.5, 0.5]) == pytest.approx(
            0.5 * (MU_S + MU_B))

    def test_zero_inflow_matches_no_inflow(self):
        sigma = two_asset_sigma()
        mu = np.array([MU_S, MU_B])
        base = PortfolioModel(mu, sigma, DecisionSet.simplex(2),
                              drift_mode="log_wealth")
        zero = PortfolioModel(mu, sigma, DecisionSet.simplex(2),
                              inflow=InflowProfile(0.0, 1.0, 2.0))
        theta = [0.3, 0.7]
        for x in (-2.0, 0.0, 1.5):
            assert drift(zero, x, theta) == pytest.approx(
                drift(base, x, theta), abs=1e-15)

    def test_inflow_vanishes_at_large_wealth(self):
        model = PortfolioModel(
            np.array([MU_S, MU_B]), two_asset_sigma(), DecisionSet.simplex(2),
            inflow=InflowProfile(1.0, 1.0, 2.0))
        theta = [0.4, 0.6]
        limit = float(model.mu @ theta) - 0.5 * model.variance(theta)
        assert drift(model, 30.0, theta) == pytest.approx(limit, abs=1e-12)

    def test_inflow_requires_log_wealth(self):
        with pytest.raises(ModelError, match="log_wealth"):
            PortfolioModel(np.array([0.1]), np.array([[0.04]]),
                           DecisionSet.simplex(1),
                           inflow=InflowProfile(1.0, 1.0, 2.0),
                           drift_mode="simple")

    def test_drift_slope_bounded_by_gradient_bound(self):
        model = PortfolioModel(
            np.array([MU_S, MU_B]), two_asset_sigma(), DecisionSet.simplex(2),
            inflow=InflowProfile(1.0, 1.0, 2.0))
        xs = np.linspace(-3.0, 4.0, 800)
        p_sup = np.max(np.abs(model.inflow.term_dx(np.linspace(-5, 6, 20001))))
        h = 1e-6
        for theta in ([1.0, 0.0], [0.25, 0.75], [0.0, 1.0]):
            up = np.array([drift(model, x + h, theta) for x in xs])
            dn = np.array([drift(model, x - h, theta) for x in xs])
            assert np.max(np.abs(up - dn) / (2 * h)) <= p_sup + 1e-6


class TestUtilities:
    def test_dara_profile_values(self):
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=8.0)
        grid = SpatialGrid(-8.0, 8.0, 400)
        phi0 = phi0_profile(util, grid)
        xc = grid.centers
        assert phi0[np.argmin(np.abs(xc - 0.0))] == 9.0
        assert phi0[np.argmin(np.abs(xc - 3.0))] == 6.0

    def test_dara_truncated_outside_gamma(self):
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=4.0)
        grid = SpatialGrid(-8.0, 8.0, 400)
        phi0 = phi0_profile(util, grid)
        xc = grid.centers
        assert np.all(phi0[np.abs(xc) >= 4.0] == 0.0)
        assert phi0[np.argmin(np.abs(xc - 5.0))] == 0.0

    def test_arctan_profile(self):
        util = ArctanUtility(truncation_gamma=None)
        grid = SpatialGrid(-8.0, 8.0, 800)
        phi0 = phi0_profile(util, grid)
        xc = grid.centers
        i = np.argmin(np.abs(xc - 1.0))
        assert phi0[i] == pytest.approx(2 * xc[i] / (1 + xc[i]**2))

    def test_dara_c1_at_kink(self):
        util = DaraUtility(9.0, 6.0, 2.0)
        # branch derivatives at the junction itself: u_prime switches branch
        # exactly at x_star, so the adjacent float probes each branch there
        left = float(util.u_prime(util.x_star))
        right = float(util.u_prime(np.nextafter(util.x_star, np.inf)))
        assert abs(left - right) <= 1e-12 * abs(left)
        jump = abs(float(util.u(util.x_star)) -
                   float(util.u(np.nextafter(util.x_star, np.inf))))
        assert jump <= 1e-12 * abs(float(util.u(util.x_star)))

    def test_dara_strictly_increasing(self):
        util = DaraUtility(4.0, 2.5, 0.7)
        x = np.linspace(-5, 5, 4001)
        assert np.all(np.diff(util.u(x)) > 0)
        assert np.all(util.u_prime(x) > 0)

    def test_dara_c_star_formula(self):
        util = DaraUtility(9.0, 6.0, 2.0)
        assert util.c_star == pytest.approx(np.exp(-18.0) * 3.0 / 6.0, rel=1e-15)

    def test_tabulated_profile(self):
        util = TabulatedPhi0(np.array([-8.0, 8.0]), np.array([9.0, 9.0]))
        grid = SpatialGrid(-8.0, 8.0, 32)
        assert np.all(phi0_profile(util, grid) == 9.0)

    @given(a0=st.floats(0.5, 20), a1=st.floats(0.5, 20),
           x_star=st.floats(-3, 3), gamma=st.floats(1.0, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_dara_profile_bounds(self, a0, a1, x_star, gamma):
        util = DaraUtility(a0, a1, x_star, truncation_gamma=gamma)
        grid = SpatialGrid(-12.0, 12.0, 256)
        phi0 = phi0_profile(util, grid)
        assert np.all(phi0 >= 0.0)
        assert np.all(phi0 <= max(a0, a1))
        assert np.all(phi0[np.abs(grid.centers) >= gamma] == 0.0)

    def test_arctan_profile_bounds(self):
        util = ArctanUtility(truncation_gamma=6.0)
        grid = SpatialGrid(-10.0, 10.0, 512)
        phi0 = phi0_profile(util, grid)
        assert np.all(np.abs(phi0) <= 1.0)
        assert np.all(phi0[np.abs(grid.centers) >= 6.0] == 0.0)


class TestSpatialGrid:
    def test_validation(self):
        with pytest.raises(ModelError):
            SpatialGrid(1.0, -1.0, 100)
        with pytest.raises(ModelError):
            SpatialGrid(-1.0, 1.0, 4)

    def test_centers(self):
        grid = SpatialGrid(0.0, 1.0, 10)
        assert grid.dx == pytest.approx(0.1)
        assert grid.centers[0] == pytest.approx(0.05)
        assert grid.centers[-1] == pytest.approx(0.95)
