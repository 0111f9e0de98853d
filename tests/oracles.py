"""Test-only oracles that certify the package's fast paths.

`exhaustive_alpha` solves the simplex problem of alpha by enumerating every
support set, independently of the active-set QP that `alpha_field` and
`solve_alpha` run: each support is solved at rho by the bordered solve,
never through the QP's memoized working-set lines, so the oracle certifies
those lines too. `term_dx` is the x-derivative of the inflow term, whose
supremum `pde.lambda_bound` works out from eps and eps' instead.
"""

import itertools

import numpy as np

from riccati_hjb.alpha import (_ACTIVE_TOL, _RHO_TINY, AlphaResult,
                               _lowest_line, _phi_eff, _result,
                               _solve_working_set)


def _enumerate_supports(model, rho: float) -> np.ndarray:
    """Weights of the best feasible working-set solution over every support
    set, rho > 0 (exponential in n)."""
    best_val, best_theta = np.inf, None
    n = model.n
    for k in range(1, n + 1):
        for f in itertools.combinations(range(n), k):
            try:
                theta, _ = _solve_working_set(rho, model.sigma, model.mu, f)
            except np.linalg.LinAlgError:
                continue
            if min(theta[list(f)]) < -_ACTIVE_TOL:
                continue
            val = float(-model.mu @ theta + 0.5 * rho * model.variance(theta))
            if val < best_val - 1e-15:
                best_val, best_theta = val, np.maximum(theta, 0.0)
    return best_theta


def exhaustive_alpha(model, x: float, phi: float) -> AlphaResult:
    """Certify the QP by enumerating every support set (exponential in n)."""
    rho = _phi_eff(model, phi)
    if rho < _RHO_TINY:
        return _result(model, x, rho, _lowest_line(model, rho))
    return _result(model, x, rho, _enumerate_supports(model, rho))


@np.errstate(over="ignore")
def term_dx(inflow, x):
    """d/dx of the inflow term eps(e^x) e^{-x}, with the wealth raised to
    y_minus as `InflowProfile.term` raises it."""
    y = np.maximum(np.exp(np.asarray(x, dtype=float)), inflow.y_minus)
    return inflow.epsilon_prime(y) - inflow.epsilon(y) / y
