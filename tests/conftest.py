import numpy as np
import pytest

from riccati_hjb import DecisionSet, PortfolioModel
from two_asset_data import MU_S, MU_B, two_asset_sigma


@pytest.fixture(scope="session")
def paper_model():
    return PortfolioModel(np.array([MU_S, MU_B]), two_asset_sigma(),
                          DecisionSet.simplex(2))


@pytest.fixture(scope="session")
def fund_menu_model():
    menu = DecisionSet.discrete([[0.8, 0.2], [0.5, 0.5], [0.0, 1.0]])
    return PortfolioModel(np.array([MU_S, MU_B]), two_asset_sigma(), menu)


@pytest.fixture(scope="session")
def singleton_model():
    return PortfolioModel(np.array([0.06]), np.array([[0.04]]),
                          DecisionSet.simplex(1))


@pytest.fixture(scope="session")
def finite_breakpoints_model():
    # covariance with S12 > S22 puts the minimum-variance weight outside
    # [0, 1], so both breakpoints of the two-asset closed form are finite
    sigma = np.array([[0.04, 0.01], [0.01, 0.005]])
    return PortfolioModel(np.array([0.10, 0.05]), sigma, DecisionSet.simplex(2))
