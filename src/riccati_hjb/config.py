"""JSON run configuration: one document with sections model / utility /
pde / checks. Builders raise ConfigError with the offending key path, also
for a key they do not read, so that a misspelled setting is not ignored.
An optional setting reaches its constructor only when the document gives
it, so each default is the constructor's own."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .model import (
    ArctanUtility,
    DaraUtility,
    DecisionSet,
    InflowProfile,
    ModelError,
    PortfolioModel,
    SpatialGrid,
    TabulatedPhi0,
)
from .pde import PDEConfig

__all__ = [
    "ConfigError",
    "load_document",
    "build_model",
    "build_utility",
    "build_pde",
    "build_checks",
    "load_run",
]


class ConfigError(ValueError):
    """Malformed or inconsistent configuration document."""


# size cap, so that a run too large to allocate is a config error: the
# stored field of phi, (n_steps + 1) * n_cells values (80 MB; verify's
# refined run stores about four times as many)
MAX_FIELD_VALUES = 10**7

# the keys each utility kind reads besides kind and truncation_gamma
_UTILITY_KEYS = {"dara": ("a0", "a1", "x_star"), "arctan": (),
                 "tabulated": ("x", "phi0")}


def load_document(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{p}: top level must be a JSON object")
    return doc


def _require(section, key: str, where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected an object, got {section!r}")
    if key not in section:
        raise ConfigError(f"{where}: missing key {key!r}")
    return section[key]


def _known(section, where: str, keys) -> dict:
    """section, an object all of whose keys are in `keys`."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected an object, got {section!r}")
    for key in section:
        if key not in keys:
            raise ConfigError(f"{where}.{key}: unknown key; expected one of "
                              f"{', '.join(keys)}")
    return section


def _is_finite(v) -> bool:
    try:  # strings and null raise TypeError, ints beyond float OverflowError
        return not isinstance(v, bool) and math.isfinite(v)
    except (TypeError, OverflowError):
        return False


def _number(section, key: str, where: str, *, integer: bool = False,
            low=None):
    """section[key] as a float (an int when `integer`) of at least `low`.
    A missing key, JSON booleans, strings and non-finite values raise a
    ConfigError naming where.key."""
    v = _require(section, key, where)
    if integer:
        ok, kind = isinstance(v, int) and _is_finite(v), "an integer"
    else:
        ok, kind = _is_finite(v), "a finite number"
    if low is not None:
        ok, kind = ok and v >= low, f"{kind} >= {low}"
    if not ok:
        raise ConfigError(f"{where}.{key}: expected {kind}, got {v!r}")
    return v if integer else float(v)


def _floats(value, where: str) -> np.ndarray:
    """A JSON number or (nested) list of finite numbers as a float array."""
    def finite(v):
        return all(map(finite, v)) if isinstance(v, list) else _is_finite(v)
    try:
        if finite(value):
            return np.array(value, dtype=float)
    except ValueError:  # lists of unequal lengths
        pass
    raise ConfigError(f"{where}: expected a rectangular array of finite "
                      f"numbers, got {value!r}")


def _vector(value, where: str) -> np.ndarray:
    """A JSON list of finite numbers as a 1-d float array; a bare number or
    a nested list raises a ConfigError naming where."""
    v = _floats(value, where)
    if v.ndim != 1:
        raise ConfigError(f"{where}: expected a list of finite numbers, got "
                          f"{value!r}")
    return v


def _built(where: str, make, *args, **kwargs):
    """make(*args, **kwargs), with the ModelError of a setting it rejects
    raised as a ConfigError naming where."""
    try:
        return make(*args, **kwargs)
    except ModelError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def build_model(doc: dict) -> PortfolioModel:
    sec = _known(_require(doc, "model", "config"), "model",
                 ("assets", "covariance", "decision_set", "inflow",
                  "drift_mode"))
    assets = _known(_require(sec, "assets", "model"), "model.assets", ("mu",))
    mu = _vector(_require(assets, "mu", "model.assets"), "model.assets.mu")
    if mu.size < 1:
        raise ConfigError("model.assets.mu: need at least one asset, got []")

    cov = _require(sec, "covariance", "model")
    if isinstance(cov, dict):
        _known(cov, "model.covariance", ("volatilities", "correlation"))
        vols = _vector(_require(cov, "volatilities", "model.covariance"),
                       "model.covariance.volatilities")
        if not np.all(vols > 0.0):
            raise ConfigError(f"model.covariance.volatilities: each must be "
                              f"> 0, got {cov['volatilities']!r}")
        corr = _floats(_require(cov, "correlation", "model.covariance"),
                       "model.covariance.correlation")
        if corr.shape != (vols.size, vols.size):
            raise ConfigError("model.covariance: correlation shape does not "
                              "match volatilities")
        if not (np.array_equal(corr, corr.T) and np.all(np.diag(corr) == 1.0)):
            raise ConfigError("model.covariance.correlation: must equal its "
                              "transpose and have a diagonal of exactly 1")
        with np.errstate(over="ignore"):  # the model rejects an inf
            sigma = corr * np.outer(vols, vols)
    else:
        sigma = _floats(cov, "model.covariance")

    ds_spec = sec.get("decision_set", "simplex")
    if ds_spec == "simplex":
        ds = DecisionSet.simplex(mu.size)
    elif isinstance(ds_spec, dict):
        _known(ds_spec, "model.decision_set", ("points",))
        ds = _built("model.decision_set.points", DecisionSet.discrete,
                    _floats(_require(ds_spec, "points", "model.decision_set"),
                            "model.decision_set.points"))
    else:
        raise ConfigError(f"model.decision_set: expected 'simplex' or "
                          f"{{'points': [...]}}, got {ds_spec!r}")

    # absent or null inflow and drift_mode leave the model's defaults
    opts = {}
    if sec.get("inflow") is not None:
        inf = _known(sec["inflow"], "model.inflow",
                     ("eps_rate", "y_minus", "y_plus"))
        opts["inflow"] = _built(
            "model.inflow", InflowProfile,
            eps_rate=_number(inf, "eps_rate", "model.inflow"),
            y_minus=_number(inf, "y_minus", "model.inflow"),
            y_plus=_number(inf, "y_plus", "model.inflow"))

    drift_mode = sec.get("drift_mode")
    if drift_mode is not None:
        if not isinstance(drift_mode, str):
            raise ConfigError(f"model.drift_mode: expected a string, got "
                              f"{drift_mode!r}")
        opts["drift_mode"] = drift_mode
    model = _built("model", PortfolioModel, mu, sigma, ds, **opts)
    # the weights scale as mu over the covariance: the two-asset constants
    # mu1 - mu2 and (mu1 - mu2) / (S11 - 2 S12 + S22) are at most 2 max|mu|
    # and max|mu| / lam, with lam the covariance's smallest eigenvalue (a
    # rounded lam <= 0 of a matrix that passed Cholesky bounds nothing)
    lam = float(np.linalg.eigvalsh(model.sigma)[0])
    if lam > 0.0 and not math.isfinite(2.0 * float(np.max(np.abs(model.mu)))
                                       / lam):
        raise ConfigError(f"model.assets.mu: out of range for "
                          f"model.covariance: 2 max|mu| / (smallest "
                          f"covariance eigenvalue {lam:.3e}) must be finite")
    return model


def build_utility(doc: dict):
    sec = _require(doc, "utility", "config")
    kind = _require(sec, "kind", "utility")
    if not (isinstance(kind, str) and kind in _UTILITY_KEYS):
        raise ConfigError(f"utility.kind: unknown kind {kind!r}")
    _known(sec, "utility", ("kind", "truncation_gamma", *_UTILITY_KEYS[kind]))
    # an absent truncation_gamma leaves the kind's default, null disables it
    opts = {}
    if "truncation_gamma" in sec:
        opts["truncation_gamma"] = (
            None if sec["truncation_gamma"] is None
            else _number(sec, "truncation_gamma", "utility"))
    if kind == "dara":
        return _built("utility", DaraUtility,
                      a0=_number(sec, "a0", "utility"),
                      a1=_number(sec, "a1", "utility"),
                      x_star=_number(sec, "x_star", "utility"), **opts)
    if kind == "arctan":
        return _built("utility", ArctanUtility, **opts)
    return _built("utility", TabulatedPhi0,
                  x=_floats(_require(sec, "x", "utility"), "utility.x"),
                  values=_floats(_require(sec, "phi0", "utility"),
                                 "utility.phi0"), **opts)


def build_pde(doc: dict) -> PDEConfig:
    sec = _known(_require(doc, "pde", "config"), "pde",
                 ("x_min", "x_max", "n_cells", "t_final", "n_steps",
                  "picard_tol", "picard_max", "boundary", "upwind"))
    grid = _built("pde", SpatialGrid,
                  x_min=_number(sec, "x_min", "pde"),
                  x_max=_number(sec, "x_max", "pde"),
                  n_cells=_number(sec, "n_cells", "pde", integer=True))

    opts = {}
    boundary = sec.get("boundary", "neumann")
    if (isinstance(boundary, dict)
            and boundary.get("kind", "dirichlet") == "dirichlet"):
        _known(boundary, "pde.boundary", ("kind", "left", "right"))
        opts["dirichlet"] = (_number(boundary, "left", "pde.boundary"),
                             _number(boundary, "right", "pde.boundary"))
    elif boundary != "neumann":
        raise ConfigError(f"pde.boundary: expected 'neumann' or a Dirichlet "
                          f"object, got {boundary!r}")
    n_steps = _number(sec, "n_steps", "pde", integer=True)
    field = (n_steps + 1) * grid.n_cells
    if field > MAX_FIELD_VALUES:
        raise ConfigError(f"pde.n_cells, pde.n_steps: the stored field of "
                          f"(n_steps + 1) * n_cells = {field} values "
                          f"exceeds {MAX_FIELD_VALUES}")
    if "upwind" in sec:
        if not isinstance(sec["upwind"], bool):
            raise ConfigError(f"pde.upwind: expected true or false, got "
                              f"{sec['upwind']!r}")
        opts["upwind"] = sec["upwind"]
    t_final = _number(sec, "t_final", "pde")
    for key, integer in (("picard_tol", False), ("picard_max", True)):
        if key in sec:
            opts[key] = _number(sec, key, "pde", integer=integer)
    return _built("pde", PDEConfig, grid=grid, t_final=t_final,
                  n_steps=n_steps, **opts)


def build_checks(doc: dict) -> dict:
    """The checks section: the keyword arguments of the monotonicity
    certificate that the document gives, so far only the seed of its pairs.
    The rest of the verification bundle has no settings."""
    sec = _known(doc.get("checks", {}), "checks", ("seed",))
    return {key: _number(sec, key, "checks", integer=True, low=0)
            for key in sec}


def load_run(path):
    """Load a full run configuration: (document, model, utility, pde, checks).
    The utility and pde sections are optional (None when absent)."""
    doc = load_document(path)
    _known(doc, "config", ("model", "utility", "pde", "checks"))
    model = build_model(doc)
    utility = build_utility(doc) if "utility" in doc else None
    pde = build_pde(doc) if "pde" in doc else None
    checks = build_checks(doc)
    return doc, model, utility, pde, checks
