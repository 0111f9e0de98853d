"""Optimal-portfolio HJB solver through the risk-aversion transform.

The fully nonlinear portfolio HJB equation reduces, after transforming to
the relative risk aversion phi = -V_xx / V_x, to a quasilinear parabolic
equation whose diffusion nonlinearity alpha(x, phi) is the value of a
parametric quadratic program over the admissible portfolio weights. This
package evaluates alpha exactly (active-set QP, fund menus, two-asset
closed form), integrates the transformed Cauchy problem with an implicit
finite-volume scheme, and verifies the analytic guarantees (slope bounds,
pointwise maximum-principle bounds, contraction horizon, energy estimates)
numerically.
"""

__version__ = "0.1.0"

# each module's own __all__ is its public list
from .alpha import *  # noqa: F401,F403
from .analysis import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .pde import *  # noqa: F401,F403

__all__ = [name for name in dir() if not name.startswith("_")]
