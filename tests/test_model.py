import io
import re
import sys
import warnings

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
from oracles import term_dx
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

    def test_missing_file_is_named(self, tmp_path):
        missing = tmp_path / "mu.csv"
        with pytest.raises(ModelError, match=f"^mu csv: file not found: "
                                             f"{re.escape(str(missing))}$"):
            ingest_market_data(missing, io.StringIO(sigma_csv()))

    def test_header_only_mu_rejected(self):
        with pytest.raises(ModelError, match="^mu csv: expected a header row "
                                             "plus at least one value$"):
            ingest_market_data(io.StringIO("mean_return\n"),
                               io.StringIO(sigma_csv()))

    def test_short_covariance_row_reports_location(self):
        with pytest.raises(ModelError, match="^sigma csv row 2: expected 2 "
                                             "values, got 1$"):
            ingest_market_data(io.StringIO(MU_CSV),
                               io.StringIO("0.04,0.0\n0.01\n"))

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


class TestPortfolioModel:
    def test_scalar_covariance_is_one_asset(self):
        model = PortfolioModel(0.06, 0.04, DecisionSet.simplex(1))
        assert model.sigma.shape == (1, 1) and model.sigma[0, 0] == 0.04
        assert model.mu.tolist() == [0.06]

    def test_no_assets_rejected(self):
        with pytest.raises(ModelError, match="^need at least one asset$"):
            PortfolioModel(np.empty(0), np.empty((0, 0)),
                           DecisionSet.simplex(1))

    def test_covariance_shape_must_match(self):
        with pytest.raises(ModelError, match=r"^covariance shape \(2, 2\) "
                                             r"does not match 3 assets$"):
            PortfolioModel(np.array([0.1, 0.05, 0.07]), two_asset_sigma(),
                           DecisionSet.simplex(3))

    def test_covariance_near_the_float_limit_stays_finite(self):
        # the symmetrizing sum S + S^T overflowed a diagonal of 1e308 to inf,
        # which Cholesky accepts; halving first keeps every entry
        sigma = np.array([[0.04, 0.01, 0.0], [0.01, 1e308, 0.02],
                          [0.0, 0.02, 0.06]])
        model = PortfolioModel(np.array([0.08, 0.05, 0.02]), sigma,
                               DecisionSet.simplex(3))
        assert np.array_equal(model.sigma, sigma)

    def test_decision_set_dimension_must_match(self):
        menu = DecisionSet.discrete([[0.5, 0.25, 0.25]])
        with pytest.raises(ModelError, match="^decision set dimension 3 != 2 "
                                             "assets$"):
            PortfolioModel(np.array([MU_S, MU_B]), two_asset_sigma(), menu)


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


    def test_profile_is_quiet_beyond_a_narrow_ramp(self):
        # the ramp variable (y - 1) / 0.5 of y = 1e308 overflows to inf,
        # which is beyond the ramp; the suite turns warnings into errors
        prof = InflowProfile(50.0, 1.0, 1.5)
        assert prof.epsilon(1e308) == 50.0
        assert prof.epsilon_prime(1e308) == 0.0

    def test_slope_at_the_largest_rate(self):
        # eps_rate * 6 overflowed to inf, and inf times t = 0 off the ramp
        # is nan; the slope eps_rate / (y_plus - y_minus) is finite
        prof = InflowProfile(1e308, 1.0, 3.0)
        assert prof.epsilon_prime([0.5, 2.0, 4.0]).tolist() == [
            0.0, 7.5e307, 0.0]

    @pytest.mark.parametrize("profile", [
        (1e10, 1e-300, 2.0),  # |eps_rate| / y_minus overflows
        (1.0, 1e-320, 2e-320),
        (1e300, 1.0, 1.0 + 1e-10),  # the ramp's slope overflows
        (np.inf, 1.0, 2.0),
        (np.nan, 1.0, 2.0),
    ])
    def test_ramp_bounds_must_be_finite(self, profile):
        with pytest.raises(ModelError, match="ramp"):
            InflowProfile(*profile)

    @pytest.mark.parametrize("profile", [
        (1.0, 1.0, 2.0), (-0.5, 1.0, 2.0), (50.0, 1.0, 1.5),
        (0.2, 1e-3, 3.0), (2.0, 0.5, 700.0)])
    def test_term_is_finite_and_quiet_everywhere(self, profile):
        # the unguarded formula with y = e^x overflows past x = 709.8 and
        # divides 0 by 0 below x = -745; where it is finite, the term agrees
        # with it bit for bit, signed zeros included
        prof = InflowProfile(*profile)
        x = np.linspace(-1000.0, 1000.0, 200_001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            term, term_slope = prof.term(x), term_dx(prof, x)
        with np.errstate(all="ignore"):
            y = np.exp(x)
            ref = prof.epsilon(y) / y
            ref_dx = prof.epsilon_prime(y) - prof.epsilon(y) / y
        for got, want in ((term, ref), (term_slope, ref_dx)):
            assert np.all(np.isfinite(got))
            ok = np.isfinite(want)
            assert np.count_nonzero(~ok) > 0
            assert np.array_equal(got[ok], want[ok])
            assert np.array_equal(np.signbit(got[ok]), np.signbit(want[ok]))
        # e^x overflows to inf, where the formula's limit is 0
        assert np.all(term[x > 710.0] == 0.0)


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

    @pytest.mark.parametrize("mode", [None, [], 0, False])
    def test_drift_mode_must_be_a_string(self, mode):
        with pytest.raises(ModelError, match="drift_mode must be a string"):
            PortfolioModel(np.array([0.1]), np.array([[0.04]]),
                           DecisionSet.simplex(1), drift_mode=mode)

    def test_drift_slope_bounded_by_gradient_bound(self):
        model = PortfolioModel(
            np.array([MU_S, MU_B]), two_asset_sigma(), DecisionSet.simplex(2),
            inflow=InflowProfile(1.0, 1.0, 2.0))
        xs = np.linspace(-3.0, 4.0, 800)
        p_sup = np.max(np.abs(term_dx(model.inflow,
                                   np.linspace(-5, 6, 20001))))
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

    @pytest.mark.parametrize("gamma", [0.01, 1.0, 3.99, 4.02, 7.99, 8.0,
                                       8.02, 1e3])
    def test_taper_is_the_clipped_ratio(self, gamma):
        # bit for bit the taper clip((gamma - |x|) / dx, 0, 1)
        util = ArctanUtility(truncation_gamma=gamma)
        grid = SpatialGrid(-8.0, 8.0, 400)
        xc = grid.centers
        taper = np.clip((gamma - np.abs(xc)) / grid.dx, 0.0, 1.0)
        assert np.array_equal(phi0_profile(util, grid),
                              util.phi0_raw(xc) * taper)

    def test_huge_truncation_keeps_the_profile(self):
        # (gamma - |x|) / dx overflowed for gamma = 1e308
        util = DaraUtility(9.0, 6.0, 2.0, truncation_gamma=1e308)
        grid = SpatialGrid(-8.0, 8.0, 400)
        assert np.array_equal(phi0_profile(util, grid),
                              util.phi0_raw(grid.centers))

    def test_arctan_profile(self):
        util = ArctanUtility(truncation_gamma=None)
        grid = SpatialGrid(-8.0, 8.0, 800)
        phi0 = phi0_profile(util, grid)
        xc = grid.centers
        i = np.argmin(np.abs(xc - 1.0))
        assert phi0[i] == pytest.approx(2 * xc[i] / (1 + xc[i]**2))

    def test_arctan_utility_is_arctan(self):
        x = np.array([-8.0, -1.0, 0.0, 0.5, 3.0])
        util = ArctanUtility()
        assert util.u(x).tobytes() == np.arctan(x).tobytes()
        # u' is the derivative of u
        h = 1e-6
        np.testing.assert_allclose((util.u(x + h) - util.u(x - h)) / (2 * h),
                                   util.u_prime(x), rtol=1e-8)

    @pytest.mark.parametrize("make", [
        lambda g: DaraUtility(9.0, 6.0, 2.0, truncation_gamma=g),
        lambda g: ArctanUtility(truncation_gamma=g),
        lambda g: TabulatedPhi0([-1.0, 1.0], [2.0, 2.0], truncation_gamma=g),
    ], ids=["dara", "arctan", "tabulated"])
    @pytest.mark.parametrize("gamma", [0.0, -1.0])
    def test_truncation_gamma_must_be_positive(self, make, gamma):
        with pytest.raises(ModelError, match=f"^truncation half-width must be "
                                             f"positive, got {gamma}$"):
            make(gamma)

    @pytest.mark.parametrize("x, values, message", [
        ([0.0, 1.0, 2.0], [1.0, 2.0], "needs matching 1-d x and values"),
        ([0.0], [1.0], "needs matching 1-d x and values"),
        ([0.0, 1.0, 1.0], [1.0, 2.0, 3.0], "x must be strictly increasing"),
        ([1.0, 0.0], [1.0, 2.0], "x must be strictly increasing"),
    ])
    def test_tabulated_profile_validation(self, x, values, message):
        with pytest.raises(ModelError, match=f"^tabulated profile {message}$"):
            TabulatedPhi0(x, values)

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

    @pytest.mark.parametrize("util, xs", [
        (DaraUtility(9.0, 6.0, 2.0), [-8.0, -3.0, 0.0, 1.9, 2.1, 4.0, 8.0]),
        (DaraUtility(4.0, 2.5, 0.7), [-5.0, -1.0, 0.6, 0.8, 3.0]),
        (ArctanUtility(), [-8.0, -2.0, -0.5, -0.1, 0.3, 1.0, 4.0, 8.0]),
    ], ids=["dara", "dara_low", "arctan"])
    def test_phi0_is_the_risk_aversion_of_u(self, util, xs):
        # phi0 = -u''/u', with u'' from central differences of u'; the DARA
        # points stay away from x_star, where u'' jumps
        x, h = np.array(xs), 1e-5
        u2 = (util.u_prime(x + h) - util.u_prime(x - h)) / (2.0 * h)
        np.testing.assert_allclose(util.phi0_raw(x), -u2 / util.u_prime(x),
                                   rtol=1e-6, atol=0.0)

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

    @pytest.mark.parametrize("x_min, x_max", [
        (-1.79e308, -1.7e308),  # 1/dx^2 underflows to 0
        (0.0, 8 * 1e155),  # 1/dx^2 = 1e-310 is subnormal
    ])
    def test_inverse_square_width_must_be_normal(self, x_min, x_max):
        with pytest.raises(ModelError, match="normal float"):
            SpatialGrid(x_min, x_max, 8)

    def test_widest_cell(self):
        # 1/dx^2 at dx = 6.7e153 is the smallest normal float, 2.2e-308
        assert 1.0 / (6.7e153)**2 >= sys.float_info.min
        assert SpatialGrid(0.0, 8 * 6.7e153, 8).dx == 6.7e153

    def test_centers(self):
        grid = SpatialGrid(0.0, 1.0, 10)
        assert grid.dx == pytest.approx(0.1)
        assert grid.centers[0] == pytest.approx(0.05)
        assert grid.centers[-1] == pytest.approx(0.95)
