"""Two-asset data set used throughout the tests: high-return/high-volatility
stocks index against low-volatility bonds with negative correlation."""

import numpy as np

MU_S, MU_B = 0.1028, 0.0516
VOL_S, VOL_B, CORR = 0.169, 0.0082, -0.1151


def two_asset_sigma():
    off = CORR * VOL_S * VOL_B
    return np.array([[VOL_S**2, off], [off, VOL_B**2]])
