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

from .alpha import (
    AlphaEngineError,
    AlphaResult,
    ClosedFormN2,
    LipschitzBounds,
    alpha_field,
    closed_form_n2,
    kkt_residual,
    lipschitz_bounds,
    solve_alpha,
    weights_path,
)
from .analysis import (
    CheckReport,
    contraction_budget,
    energy_estimate_report,
    grid_convergence,
    maximum_principle_report,
    monotonicity_certificate,
)
from .model import (
    ArctanUtility,
    DaraUtility,
    DecisionSet,
    InflowProfile,
    ModelError,
    PortfolioModel,
    SpatialGrid,
    TabulatedPhi0,
    UtilitySpec,
    drift,
    ingest_market_data,
    phi0_profile,
)
from .pde import (
    CutoffBounds,
    PDEConfig,
    PicardError,
    SolutionField,
    SolverError,
    mms_convergence_study,
    singleton_mms,
    solve,
)

__all__ = [name for name in dir() if not name.startswith("_")]
